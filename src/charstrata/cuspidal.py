"""Cuspidal Levi types, cuspidal object counts, and the full
parametrizing set of (Levi, relative character, cuspidal index)
triples.

Counts are characteristic-independent data.  Cuspidal objects are
abstract indices 0..N-1; classical cuspidal Levi types carry a single
cuspidal object whose dimension invariant is opaque (d=None).
"""

from __future__ import annotations

from functools import lru_cache

from .cartan import TORUS, CartanType, ValueObject, simple_type
from .labels import CharacterLabel, relative_character_labels

_set = object.__setattr__


class CuspidalError(ValueError):
    pass


class CuspidalLevi(ValueObject):
    """A cuspidal Levi, recorded by Weyl types.

    levi_weyl_type None means the empty subset (maximal torus); then the
    relative group is the full Weyl group.  relative_weyl_type None
    means the trivial group (full-type Levi).
    """

    __slots__ = ("ambient", "levi_weyl_type", "relative_weyl_type", "levi_name")
    _fields = ("ambient", "levi_weyl_type", "relative_weyl_type")

    def __init__(
        self,
        ambient: CartanType,
        levi_weyl_type: CartanType | None,
        relative_weyl_type: CartanType | None,
    ) -> None:
        _set(self, "ambient", ambient)
        _set(self, "levi_weyl_type", levi_weyl_type)
        _set(self, "relative_weyl_type", relative_weyl_type)
        # Derived once: the Levi's name, '-' when empty.
        _set(self, "levi_name", "-" if levi_weyl_type is None else levi_weyl_type.name)

    @property
    def is_empty(self) -> bool:
        return self.levi_weyl_type is None

    @property
    def is_full(self) -> bool:
        return self.relative_weyl_type is None


@lru_cache(maxsize=None)
def cuspidal_levis(t: CartanType) -> tuple[CuspidalLevi, ...]:
    """Cuspidal Levi types of t, empty subset first, full type last.

    B_n and C_n have one of Weyl type B_m for each m = k(k+1) <= n, and
    D_n one of type D_m for each m = 4k^2 <= n (Lusztig, Invent. Math.
    43, 1977); its relative group is of type B_{n-m}.
    """
    if t.is_torus:
        return (CuspidalLevi(t, None, None),)
    out = [CuspidalLevi(t, None, t)]
    if t.is_classical:
        series = "D" if t.series == "D" else "B"
        k = 1
        while (m := 4 * k * k if series == "D" else k * (k + 1)) <= t.rank:
            rest = t.rank - m
            relative = simple_type("B", rest) if rest else None
            out.append(CuspidalLevi(t, CartanType(series, m), relative))
            k += 1
    elif t.series == "G":
        out.append(CuspidalLevi(t, t, None))
    elif t.series == "F":
        out.append(CuspidalLevi(t, CartanType("B", 2), CartanType("B", 2)))
        out.append(CuspidalLevi(t, t, None))
    elif t.series == "E":
        if t.rank == 6:
            out.append(CuspidalLevi(t, CartanType("D", 4), CartanType("A", 2)))
        elif t.rank == 7:
            out.append(CuspidalLevi(t, CartanType("D", 4), CartanType("B", 3)))
            out.append(CuspidalLevi(t, CartanType("E", 6), CartanType("A", 1)))
        else:
            out.append(CuspidalLevi(t, CartanType("D", 4), CartanType("F", 4)))
            out.append(CuspidalLevi(t, CartanType("E", 6), CartanType("G", 2)))
            out.append(CuspidalLevi(t, CartanType("E", 7), CartanType("A", 1)))
        out.append(CuspidalLevi(t, t, None))
    # A series: the empty subset only.
    return tuple(out)


class CuspidalCounts(ValueObject):
    """d -> number of cuspidal objects with that dimension invariant.

    Classical cuspidal types use the single opaque key None.
    """

    __slots__ = _fields = ("ambient", "counts")

    def __init__(self, ambient: CartanType, counts: tuple[tuple[int | None, int], ...]) -> None:
        _set(self, "ambient", ambient)
        _set(self, "counts", counts)  # (d, count), d descending

    def as_dict(self) -> dict[int | None, int]:
        return dict(self.counts)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)


_FIXED_COUNTS: dict[str, tuple[tuple[int, int], ...]] = {
    "Torus": ((0, 1),),
    "G2": ((1, 1), (0, 3)),
    "F4": ((4, 1), (2, 1), (1, 1), (0, 4)),
    "E6": ((0, 2),),
    "E7": ((0, 2),),
    "E8": ((16, 1), (7, 1), (6, 1), (3, 2), (1, 2), (0, 6)),
}


@lru_cache(maxsize=None)
def cuspidal_counts(t: CartanType) -> CuspidalCounts:
    fixed = _FIXED_COUNTS.get(t.name)
    if fixed is not None:
        return CuspidalCounts(t, fixed)
    # A classical type is cuspidal when it is its own last cuspidal Levi.
    if cuspidal_levis(t)[-1].relative_weyl_type is None:
        return CuspidalCounts(t, ((None, 1),))
    return CuspidalCounts(t, ())


def levi_counts(levi: CuspidalLevi) -> CuspidalCounts:
    """The cuspidal objects on a Levi: those of its Weyl type, or the
    torus's on the empty Levi."""
    return cuspidal_counts(TORUS if levi.is_empty else levi.levi_weyl_type)


class SheafTriple(ValueObject):
    """One point of the parametrizing set: cuspidal Levi, character of
    the relative group, dimension invariant d (None = opaque), and an
    index below the cuspidal count for that d."""

    __slots__ = ("levi", "character", "d", "index", "key")
    _fields = ("levi", "character", "d", "index")

    def __init__(
        self, levi: CuspidalLevi, character: CharacterLabel, d: int | None, index: int
    ) -> None:
        _set(self, "levi", levi)
        _set(self, "character", character)
        _set(self, "d", d)
        _set(self, "index", index)
        # Derived once: (Levi name, character text, d), the coordinates a
        # table places the triple by; cuspidal indices share it.
        _set(self, "key", (levi.levi_name, character.text, d))

    def describe(self) -> str:
        if self.levi.is_empty and not self.levi.ambient.is_torus:
            return self.character.text
        d = "*" if self.d is None else str(self.d)
        return f"({self.levi.levi_name},{self.character.text},{d})[{self.index}]"


@lru_cache(maxsize=None)
def enumerate_cs_prime(t: CartanType) -> tuple[SheafTriple, ...]:
    """All triples for type t, in deterministic order: Levis as listed,
    characters in registry order, d descending, index ascending."""
    out: list[SheafTriple] = []
    for levi in cuspidal_levis(t):
        counts = levi_counts(levi).counts
        for lab in relative_character_labels(t, levi.relative_weyl_type):
            for d, n in counts:
                for i in range(n):
                    out.append(SheafTriple(levi, lab, d, i))
    return tuple(out)


# ---------------------------------------------------------------------------
# Case classification of (type, d): where the cuspidal objects with
# dimension invariant d are unipotently supported.


class SupportCase(ValueObject):
    """tag:
    'unique-prime': unipotently supported in exactly one characteristic r0;
    'all-primes'  : unipotently supported in every characteristic;
    'torus'       : the torus case (d=0);
    'no-prime'    : never entirely unipotently supported (unit stratum);
    'mixed'       : no characteristic covers all objects but some cover a
                    part (handled like 'no-prime' by the strata map).
    """

    __slots__ = _fields = ("tag", "r0")

    def __init__(self, tag: str, r0: int | None = None) -> None:
        _set(self, "tag", tag)
        _set(self, "r0", r0)


_UNIQUE_PRIME: dict[tuple[str, int], int] = {
    ("F4", 2): 2,
    ("F4", 1): 2,
    ("E6", 0): 3,
    ("E7", 0): 2,
    ("E8", 7): 2,
    ("E8", 6): 2,
    ("E8", 3): 3,
    ("E8", 1): 2,
}

_ALL_PRIMES = {("E8", 16), ("F4", 4), ("G2", 1)}
_NO_PRIME = {("E8", 0), ("F4", 0)}


def support_case(t: CartanType, d: int | None) -> SupportCase:
    counts = cuspidal_counts(t).as_dict()
    if d not in counts or counts[d] == 0:
        raise CuspidalError(f"{t} has no cuspidal objects with d={d}")
    if t.is_torus:
        return SupportCase("torus")
    if d is None:  # classical cuspidal type
        return SupportCase("unique-prime", 2)
    key = (t.name, d)
    if key in _ALL_PRIMES:
        return SupportCase("all-primes")
    if key in _NO_PRIME:
        return SupportCase("no-prime")
    if key == ("G2", 0):
        return SupportCase("mixed")
    return SupportCase("unique-prime", _UNIQUE_PRIME[key])
