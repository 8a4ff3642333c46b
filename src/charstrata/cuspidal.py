"""Cuspidal Levi types, cuspidal object counts, the full parametrizing
set of (Levi, relative character, cuspidal index) triples, and the
centralizer profiles, which give each (type, d) its support case.

Counts are characteristic-independent data.  Cuspidal objects are
abstract indices 0..N-1; classical cuspidal Levi types carry a single
cuspidal object whose dimension invariant is opaque (d=None).
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from . import tabledata
from .cartan import TORUS, CartanError, CartanType, CharstrataError, Subsystem, ValueObject
from .cartan import simple_type
from .labels import CharacterLabel, enumerate_irr, relative_character_labels

class CuspidalError(CharstrataError, ValueError):
    pass


class CuspidalLevi(ValueObject):
    """A cuspidal Levi, recorded by Weyl types.

    levi_weyl_type None means the empty subset (maximal torus); then the
    relative group is the full Weyl group.  relative_weyl_type None
    means the trivial group (full-type Levi).
    """

    __slots__ = ("ambient", "levi_weyl_type", "relative_weyl_type", "levi_name")
    _fields = ("ambient", "levi_weyl_type", "relative_weyl_type")

    @staticmethod
    def _derive(ambient, levi_weyl_type: CartanType | None, relative_weyl_type) -> tuple:
        # The Levi's name, '-' when empty.
        return ("-" if levi_weyl_type is None else levi_weyl_type.name,)

    @property
    def is_empty(self) -> bool:
        return self.levi_weyl_type is None


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
    """d -> number of cuspidal objects with that dimension invariant,
    for the type ambient, as (d, count) pairs in counts, d descending.

    Classical cuspidal types use the single opaque key None.
    """

    __slots__ = _fields = ("ambient", "counts")

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


def _partition_numbers(n: int) -> list[int]:
    """p(0), ..., p(n): the partitions of each size, counted by adding
    one part size at a time."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for size in range(part, n + 1):
            p[size] += p[size - part]
    return p


def _bipartitions(p: list[int], m: int) -> int:
    """bip(m), the bipartitions of m, from the partition numbers p."""
    return sum(p[j] * p[m - j] for j in range(m + 1))


def irr_count(t: CartanType | None) -> int:
    """|Irr W| of t (the trivial group for None) with no registry built
    but an exceptional one: p(n+1) for A_n, bip(n) for B_n and C_n, and
    for D_n (bip(n) + 3p(n/2))/2, the p-term for even n only."""
    if t is None or t.is_torus:
        return 1
    if t.is_exceptional:
        return len(enumerate_irr(t))
    n = t.rank
    p = _partition_numbers(n + 1)
    if t.series == "A":
        return p[n + 1]
    if t.series == "D":
        return (_bipartitions(p, n) + (0 if n % 2 else 3 * p[n // 2])) // 2
    return _bipartitions(p, n)


def triple_count(t: CartanType) -> int:
    """The number of cuspidal-support triples of t, counted without
    enumerating them.  For the classical series these count the Lusztig
    symbols of rank n (Lusztig, Invent. Math. 43, 1977; Carter, Finite
    Groups of Lie Type, 1985, 13.8): p(n+1) for A_n, the sum of
    bip(n - k(k+1)) over k >= 0 for B_n and C_n, and |Irr W(D_n)| plus
    the sum of bip(n - 4k^2) over k >= 1 for D_n.  An exceptional type
    sums, over its cuspidal Levis, the character count of the relative
    group (registry data for exceptional groups) times the Levi's
    cuspidal count."""
    if t.is_exceptional:
        return sum(
            irr_count(levi.relative_weyl_type) * levi_counts(levi).total
            for levi in cuspidal_levis(t)
        )
    if t.series in ("A", "Torus"):
        return irr_count(t)
    n = t.rank
    p = _partition_numbers(n)
    if t.series == "D":
        return irr_count(t) + sum(
            _bipartitions(p, n - 4 * k * k) for k in range(1, isqrt(n) // 2 + 1)
        )
    return sum(_bipartitions(p, n - k * (k + 1)) for k in range(isqrt(n) + 1) if k * (k + 1) <= n)


class SheafTriple(ValueObject):
    """One point of the parametrizing set: cuspidal Levi, character of
    the relative group, dimension invariant d (None = opaque), and an
    index below the cuspidal count for that d."""

    __slots__ = ("levi", "character", "d", "index", "key")
    _fields = ("levi", "character", "d", "index")

    def __init__(
        self, levi: CuspidalLevi, character: CharacterLabel, d: int | None, index: int
    ) -> None:
        set_levi, set_character, set_d, set_index, set_key = self._setters
        set_levi(self, levi)
        set_character(self, character)
        set_d(self, d)
        set_index(self, index)
        # Derived once: (Levi name, character text, d), the coordinates a
        # table places the triple by; cuspidal indices share it.
        set_key(self, (levi.levi_name, character.text, d))

    def describe(self) -> str:
        if self.levi.is_empty and not self.levi.ambient.is_torus:
            return self.character.text
        d = "*" if self.d is None else str(self.d)
        return f"({self.levi.levi_name},{self.character.text},{d})[{self.index}]"


def enumerate_cs_prime(t: CartanType) -> tuple[SheafTriple, ...]:
    """All triples for type t, in deterministic order: Levis as listed,
    characters in registry order, d descending, index ascending; so the
    empty Levi's triples are Irr(t) in registry order.  Built on each
    call, each registry it reads once; a placement holds its own."""
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
        super().__init__(tag, r0)


# The paper's names for the d=0 cases that no profile covers in full
# (erratum G2-d0-support-case).
_PAPER_CASES = {("G2", 0): "mixed", ("F4", 0): "no-prime", ("E8", 0): "no-prime"}


def support_case(t: CartanType, d: int | None) -> SupportCase:
    """The case of (t, d) read off its centralizer profiles: 'all-primes'
    if the generic one is all FULL, else 'unique-prime' r if prime r's
    alone is, or the paper's name for the d=0 cases no profile covers."""
    counts = cuspidal_counts(t).as_dict()
    if d not in counts or counts[d] == 0:
        raise CuspidalError(f"{t} has no cuspidal objects with d={d}")
    if t.is_torus:
        return SupportCase("torus")
    if (t.name, d) in _PAPER_CASES:
        return SupportCase(_PAPER_CASES[t.name, d])
    (full,) = [
        p.characteristic_class for p in centralizer_profiles(t)
        if p.d == d and all(sub is None for sub, _ in p.entries)
    ]
    if full == "generic":
        return SupportCase("all-primes")
    return SupportCase("unique-prime", int(full))


# ---------------------------------------------------------------------------
# Centralizer profiles.


class CentralizerProfile(ValueObject):
    """The centralizer data of (ambient, d) in one characteristic class,
    "generic" or the prime as a string: entries are (subsystem, count)
    pairs, the subsystem None for the full group."""

    __slots__ = _fields = ("ambient", "d", "characteristic_class", "entries", "note")

    @property
    def total(self) -> int:
        return sum(c for _, c in self.entries)


def _classical_profiles(t: CartanType) -> tuple[CentralizerProfile, ...]:
    """The generic and characteristic-2 profiles of a cuspidal classical
    type.  The generic centralizer is B_a x D_b in B_n (n = k(k+1), B_0
    trivial), and two equal factors of half the rank in C_n and D_n."""
    n = t.rank
    if t.series == "B":
        k = isqrt(n)
        if k % 2 == 0:
            a, b = ((k + 1) ** 2 - 1) // 2, k * k // 2
        else:
            a, b = (k * k - 1) // 2, (k + 1) ** 2 // 2
        generic = f"B{a}xD{b}" if a else f"D{b}"
    else:
        generic = f"{t.series}{n // 2}x{t.series}{n // 2}"
    return (
        CentralizerProfile(t, None, "generic", ((Subsystem.parse(generic), 1),), None),
        CentralizerProfile(t, None, "2", ((None, 1),), None),
    )


@lru_cache(maxsize=8)
def centralizer_profiles(t: CartanType) -> tuple[CentralizerProfile, ...]:
    """All recorded profiles for t (every cuspidal d, every class), kept
    for the last few types asked."""
    if t.is_exceptional:
        return tuple(
            CentralizerProfile(
                t, d, str(char_class),
                tuple((None if s == tabledata.FULL else Subsystem.parse(s), c) for s, c in entries),
                tabledata.E8_D0_NOTE if (name, d) == ("E8", 0) else None,
            )
            for (name, d), classes in tabledata.CENTRALIZER_PROFILES.items() if name == t.name
            for char_class, entries in classes
        )
    if t.is_classical and cuspidal_counts(t).counts:
        return _classical_profiles(t)
    return ()


def centralizer_profile(t: CartanType, d: int | None, r: int | str) -> CentralizerProfile:
    """The profile that holds for (t, d) in characteristic r; r may be
    0, a prime, or 'generic'.  Every recorded (t, d) has a generic
    profile, which holds in each characteristic not recorded for it."""
    by_class = {p.characteristic_class: p for p in centralizer_profiles(t) if p.d == d}
    if not by_class:
        raise CartanError(f"no centralizer data for {t.name} with d={d}")
    wanted = "generic" if r in (0, "0", "generic") else str(r)
    return by_class.get(wanted, by_class["generic"])
