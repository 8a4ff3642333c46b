"""Static root-system data for the quasi-simple types, plus the
Borel-de Siebenthal subsystem enumerator, whose one-node moves are
closed forms, and, for series A-D, a closed-form test of membership in
its closure.  The other types search the closure only down to the
subsystem's rank, as no move raises rank.

Everything here is diagram-level combinatorics: types, Weyl group
orders, highest-root coefficients, and the closure of a type under
"extend a simple factor and delete nodes".  The moves state what each
deletion leaves; the extended diagrams themselves are not kept.  No
root vectors or Weyl group elements are manipulated.

ValueObject, the base of the package's immutable value classes, lives
here because every other module imports this one.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from operator import attrgetter

# The admissible ranks of each series.
_RANK_OK = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
    "Torus": lambda n: n == 0,
}
SERIES = tuple(_RANK_OK)

# The subsystem closure grows quickly with rank (B20 alone has 11,928
# members); cap the rank it is enumerated for.
MAX_ENUMERATION_RANK = 16

# The largest rank of any type.  Every integer a command prints for a
# type stays printable below it: the Weyl order of A1558 has more than
# the 4300 digits Python converts to text, and B, C and D reach that
# from rank 1424.
MAX_RANK = 1000

# No decimal the package accepts is longer: a --char-class prime is
# below 10^12, and ranks and partition parts are at most MAX_RANK.
_MAX_DECIMAL_DIGITS = 12


class CharstrataError(Exception):
    """The base of every refusal the package raises, so a caller (the
    CLI among them) can catch them all in one clause."""


class CartanError(CharstrataError, ValueError):
    """Invalid type, alias, or out-of-range request."""


def _fields_getter(fields: tuple[str, ...]):
    """A function from an instance to the tuple of its named fields."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        get = attrgetter(fields[0])
        return lambda value: (get(value),)
    return lambda value: ()


class ValueObject:
    """Base of the package's immutable value classes.

    A subclass names the fields its ==, hash and repr are made of in
    _fields, in constructor order, and lists them and any attribute
    derived from them in __slots__.  Instances equal only instances of
    the same class with equal fields, hash as the tuple of those fields,
    and refuse every later assignment or deletion with
    dataclasses.FrozenInstanceError.

    The shared constructor below takes the fields positionally in
    _fields order and stores them, followed by what _derive returns
    for them: one value for each slot that follows _fields in
    __slots__ (a name, a hash, an index), computed and checked there.
    A class with a default forwards it to this constructor from a
    one-line __init__ (SupportCase, GroupCollection).

    The classes the package builds in bulk, thousands per table
    (SheafTriple, FiberEntry, StrataRow and the partition, bipartition
    and D-pair labels), set their slots in their own __init__ through
    _setters, the __set__ of each slot in __slots__ order: the shared
    constructor made enumerating triples 40-50% slower.  The labels
    alone also define _fill, which labels.enumerate_irr calls on bare
    instances to build the labels of generated partitions, valid by
    construction, without __init__'s checks.
    VerificationReport is mutable and writes its own __init__.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._values = staticmethod(_fields_getter(cls._fields))
        slots = cls.__dict__.get("__slots__", ())
        cls._setters = tuple(getattr(cls, name).__set__ for name in slots)

    def __init__(self, *values) -> None:
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(
                f"{self.__class__.__qualname__}() takes {len(fields)} values "
                f"({', '.join(fields)}), got {len(values)}"
            )
        for set_slot, value in zip(self._setters, values + self._derive(*values)):
            set_slot(self, value)

    @staticmethod
    def _derive(*values) -> tuple:
        return ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuild through __init__, which recomputes the derived slots
        # (a stored hash of strings is only valid in its own process).
        return self.__class__, self._values(self)


@total_ordering
class CartanType(ValueObject):
    """A quasi-simple series/rank pair, or the torus.  Ordered by
    (series, rank): __lt__ compares, total_ordering derives the rest."""

    __slots__ = ("series", "rank", "name", "_hash")
    _fields = ("series", "rank")

    @staticmethod
    def _derive(series: str, rank: int) -> tuple:
        # The printed name ('E8', 'Torus') and the hash.
        ok = _RANK_OK.get(series)
        if ok is None:
            raise CartanError(f"unknown series {series!r}")
        if not ok(rank):
            raise CartanError(f"non-canonical type {series}{rank}")
        if rank > MAX_RANK:
            raise CartanError(f"type {series}{rank} exceeds the rank ceiling {MAX_RANK}")
        return "Torus" if series == "Torus" else f"{series}{rank}", hash((series, rank))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.series == other.series and self.rank == other.rank
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.series, self.rank) < (other.series, other.rank)
        return NotImplemented

    @property
    def is_torus(self) -> bool:
        return self.series == "Torus"

    @property
    def is_exceptional(self) -> bool:
        return self.series in ("E", "F", "G")

    @property
    def is_classical(self) -> bool:
        return self.series in ("B", "C", "D")

    def __str__(self) -> str:
        return self.name


@lru_cache(maxsize=None)
def _shared(series: str, rank: int) -> CartanType:
    """The one CartanType of each accepted (series, rank) that parsing and
    the closure hand out.  A refusal raises before anything is cached, so
    it raises again on every call; the accepted pairs bound the cache."""
    return CartanType(series, rank)


TORUS = _shared("Torus", 0)

# The low-rank aliases of a simple factor: B1 = C1 = A1, C2 = B2, D3 = A3.
_ALIASES = {("B", 1): ("A", 1), ("C", 1): ("A", 1), ("C", 2): ("B", 2), ("D", 3): ("A", 3)}


def simple_type(series: str, rank: int) -> CartanType:
    """The shared type of series/rank, normalizing the low-rank aliases
    B1/C1 -> A1, C2 -> B2 and D3 -> A3.  D2 is not simple: CartanType
    rejects it as non-canonical, and Subsystem.parse reads it as A1 x A1."""
    return _shared(*_ALIASES.get((series, rank), (series, rank)))


def _factors(series: str, k: int) -> tuple[CartanType, ...]:
    """The alias-normalized simple factors of X_k: none for X_0 and D_1,
    A1 x A1 for D_2, and simple_type(series, k) otherwise."""
    if k == 0 or (series, k) == ("D", 1):
        return ()
    if (series, k) == ("D", 2):
        return (_shared("A", 1),) * 2
    return (simple_type(series, k),)


def ascii_decimal(text: str) -> int | None:
    """int(text) if text is ASCII digits only (no sign, space, '_' or
    other script) and no longer than any decimal the package accepts,
    else None."""
    if len(text) > _MAX_DECIMAL_DIGITS or not (text.isascii() and text.isdigit()):
        return None
    return int(text)


def _series_rank(text: str) -> tuple[str, int] | None:
    """('B', 30) for 'B30' or 'b30'; None unless the rank is ASCII decimal."""
    rank = ascii_decimal(text[1:])
    return None if rank is None else (text[:1].upper(), rank)


def parse_type(text: str) -> CartanType:
    """Parse 'E8', 'e_8', 'B30', 'Torus', 'T' into a CartanType.

    Aliases other than the torus shortcuts are rejected: ambient types
    must be canonical.
    """
    s = text.strip().replace("_", "")
    if s.lower() in ("torus", "t"):
        return TORUS
    parsed = _series_rank(s) if s[:1].isalpha() else None
    if parsed is None:
        raise CartanError(f"cannot parse type {text!r}")
    return _shared(*parsed)


class Subsystem(ValueObject):
    """A multiset of simple factors (the semisimple type of a subsystem).

    Factors are alias-normalized so comparisons against the names used
    for centralizer types are well defined.
    """

    __slots__ = ("factors", "_hash")
    _fields = ("factors",)

    @staticmethod
    def _derive(factors: tuple[CartanType, ...]) -> tuple:
        # The hash: closures hold subsystems in sets.
        return (hash((factors,)),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.factors == other.factors
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    @lru_cache(maxsize=64)
    def parse(text: str) -> "Subsystem":
        """Parse 'A4xA4', 'E7xA1', 'C3xA1', '-' (empty).

        Memoized, so the 41 static texts of the exceptional move lists
        and centralizer profiles are parsed once per process; maxsize
        bounds what other texts leave behind."""
        s = text.strip()
        if s in ("", "-", "0", "empty"):
            return Subsystem(())
        factors: list[CartanType] = []
        for part in s.replace("*", "x").split("x"):
            part = part.strip().replace("_", "")
            parsed = _series_rank(part)
            if parsed is None:
                raise CartanError(f"cannot parse subsystem factor {part!r}")
            # X_0 and D_1 are no factor: CartanType refuses them with its
            # own message.
            factors.extend(_factors(*parsed) or (CartanType(*parsed),))
        return Subsystem(tuple(sorted(factors)))

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @property
    def name(self) -> str:
        if not self.factors:
            return "-"
        return "x".join(f.name for f in sorted(self.factors, key=lambda t: (-t.rank, t.series)))

    def __str__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Static per-type data.
#
# degrees: the invariant degrees of the reflection group, ascending (their
# product is the Weyl group order and their maximum is the Coxeter number).
# coeffs:  coefficients of the highest root on the simple roots.


def _degrees(t: CartanType) -> tuple[int, ...]:
    n = t.rank
    if t.series == "A":
        return tuple(range(2, n + 2))
    if t.series in ("B", "C"):
        return tuple(range(2, 2 * n + 1, 2))
    if t.series == "D":
        return tuple(sorted((*range(2, 2 * n - 1, 2), n)))
    return {
        ("G", 2): (2, 6),
        ("F", 4): (2, 6, 8, 12),
        ("E", 6): (2, 5, 6, 8, 9, 12),
        ("E", 7): (2, 6, 8, 10, 12, 14, 18),
        ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    }[(t.series, n)]


def _highest_root_coeffs(t: CartanType) -> tuple[int, ...]:
    n = t.rank
    if t.series == "A":
        return (1,) * n
    if t.series == "B":
        return (1,) + (2,) * (n - 1)
    if t.series == "C":
        return (2,) * (n - 1) + (1,)
    if t.series == "D":
        return (1,) + (2,) * (n - 3) + (1, 1)
    return {
        ("G", 2): (3, 2),
        ("F", 4): (2, 3, 4, 2),
        ("E", 6): (1, 2, 2, 3, 2, 1),
        ("E", 7): (2, 2, 3, 4, 3, 2, 1),
        ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
    }[(t.series, n)]


class CartanDatum(ValueObject):
    """The full static record for one type: its CartanType, Weyl group
    order, degrees (an ascending tuple of int), bad primes (a frozenset),
    highest root coefficients and z value."""

    __slots__ = _fields = (
        "cartan_type", "weyl_order", "degrees", "bad_primes", "highest_root_coeffs", "z_value",
    )


def _prime_divisors(n: int) -> set[int]:
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


@lru_cache(maxsize=None)
def datum(t: CartanType) -> CartanDatum:
    """The static record for a canonical type (torus allowed)."""
    if t.is_torus:
        return CartanDatum(t, 1, (), frozenset(), (), 1)
    degrees = _degrees(t)
    order = 1
    for d in degrees:
        order *= d
    coeffs = _highest_root_coeffs(t)
    bad = frozenset().union(*(_prime_divisors(c) for c in coeffs)) - {1}
    z = max(coeffs) if coeffs else 1
    return CartanDatum(t, order, degrees, frozenset(bad), coeffs, z)


# ---------------------------------------------------------------------------
# Subsystem enumeration (extend-and-delete closure).
#
# What deleting {v} / {0, v} leaves of the extended diagram of an
# exceptional type, for v = 1, 2, ... in Bourbaki numbering (Borel-de
# Siebenthal 1949; Bourbaki, Lie VI, plates).
_EXCEPTIONAL_MOVES = {
    "G2": "A2/A1 A1xA1/A1",
    "F4": "C3xA1/C3 A2xA2/A2xA1 A3xA1/A2xA1 B4/B3",
    "E6": "E6/D5 A5xA1/A5 A5xA1/A4xA1 A2xA2xA2/A2xA2xA1 A5xA1/A4xA1 E6/D5",
    "E7": "D6xA1/D6 A7/A6 A5xA2/A5xA1 A3xA3xA1/A3xA2xA1 A5xA2/A4xA2 D6xA1/D5xA1 E7/E6",
    "E8": "D8/D7 A8/A7 A7xA1/A6xA1 A5xA2xA1/A4xA2xA1 A4xA4/A4xA3 D5xA3/D5xA2 E6xA2/E6xA1 E7xA1/E7",
}


@lru_cache(maxsize=None)
def _moves(t: CartanType, levi: bool) -> tuple[tuple[CartanType, ...], ...]:
    """The factors of the one-move children of a canonical simple factor
    t: for each node v >= 1 of its extended diagram, delete {v} (Borel-de
    Siebenthal move) or, with levi, {0, v} (Levi move).  Deleting {0, v}
    leaves A_{v-1} x X_{n-v}, or A_{n-1} at a spin node of D_n.  Deleting
    {v} leaves A_n of A_n and splits B_n, C_n, D_n into D_k x B_{n-k},
    C_k x C_{n-k}, D_k x D_{n-k} at v = k; v = 1 and the spin nodes
    leave B_n and D_n."""
    x, n = t.series, t.rank
    if x in ("E", "F", "G"):
        children = [
            Subsystem.parse(node.split("/")[levi]).factors
            for node in _EXCEPTIONAL_MOVES[t.name].split()
        ]
    elif levi:
        spin = n - 1 if x == "D" else n + 1
        children = [
            _factors("A", v - 1) + _factors(x, n - v) if v < spin else _factors("A", n - 1)
            for v in range(1, n + 1)
        ]
    elif x == "A":
        children = [(t,)]
    else:
        low, first = ("C", 1) if x == "C" else ("D", 2)
        children = [(t,)] + [
            _factors(low, k) + _factors(x, n - k)
            for k in range(first, n + 1)
            if (x, k) != ("D", n - 1)
        ]
    return tuple({tuple(sorted(child)) for child in children})


# Sorts factors as CartanType orders them, without a Python-level __lt__.
_SERIES_RANK = attrgetter("series", "rank")


@lru_cache(maxsize=None)
def _closure(t: CartanType, floor: int) -> frozenset[Subsystem]:
    """The members of rank >= floor of pseudo_levi_types(t).  No move
    raises rank, so no path to them passes below the floor: Levi moves
    start only from members above it."""
    top = () if t.is_torus else (simple_type(t.series, t.rank),)
    seen = {top} if t.rank >= floor else set()
    work = [(top, t.rank)] if seen else []
    while work:
        factors, rank = work.pop()
        steps = ((False, rank), (True, rank - 1)) if rank > floor else ((False, rank),)
        for i, f in enumerate(factors):
            if i and f == factors[i - 1]:
                continue
            rest = factors[:i] + factors[i + 1:]
            for levi, child_rank in steps:
                for child in _moves(f, levi):
                    nxt = tuple(sorted(rest + child, key=_SERIES_RANK))
                    if nxt not in seen:
                        seen.add(nxt)
                        work.append((nxt, child_rank))
    return frozenset(map(Subsystem, seen))


def pseudo_levi_types(t: CartanType) -> frozenset[Subsystem]:
    """All semisimple types of connected-centralizer subsystems of t:
    the closure of {t} under extending any simple factor and deleting
    a nonempty node subset.  Contains t itself and the empty subsystem.

    The closure is generated by single-node moves on one factor f:
    delete {v} or {0, v} from the extended diagram of f, for a node
    v >= 1.  Both are subset deletions, and they reach every subset
    deletion S: delete one node of S first (with 0 if 0 is in S); each
    further node of S then lies in a factor of the result, whose
    diagram it is a node of, so deleting it is one Levi move there.
    """
    if t.rank > MAX_ENUMERATION_RANK:
        raise CartanError(
            f"subsystem enumeration capped at rank {MAX_ENUMERATION_RANK}; got {t.name}"
        )
    return _closure(t, 0)


# (factor series, ambient series) pairs where a factor of rank k uses k
# nodes and may repeat; the one B factor of B_n is counted apart.
_FULL_FACTORS = frozenset({("D", "B"), ("D", "D"), ("C", "C")})


def _fits_classical(t: CartanType, s: Subsystem) -> bool:
    """Closed-form membership of s in pseudo_levi_types(t) for t of
    series A, B, C or D, at any rank.

    The closure of A_n holds the Levi types A_{k1} x ... with
    sum(k_i + 1) <= n + 1.  That of C_n holds C and A factors, that of
    D_n D and A factors, and that of B_n those of D_n plus at most one
    B factor.  Outside A_n each factor uses a budget of nodes that must
    total at most n: B_k, C_k and D_k use k, and A_k uses k + 1 (as
    GL_{k+1}) except where a low-rank identification is cheaper:
    A1 = C1 uses 1 in C_n, A3 = D3 uses 3 in B_n and D_n, and there
    A1s pair up as D2 = A1 x A1, an odd one out using 2 as GL2, or 1
    as B1 in B_n when no other B factor is present.
    """
    ambient = t.series
    cost = ones = 0
    has_b = False
    for f in s.factors:
        series, k = f.series, f.rank
        if series == "A":
            if k == 1 and ambient != "A":
                ones += 1
            elif k == 3 and ambient in ("B", "D"):
                cost += 3
            else:
                cost += k + 1
        elif series == "B" and ambient == "B" and not has_b:
            has_b = True
            cost += k
        elif (series, ambient) in _FULL_FACTORS or (f.name, ambient) == ("B2", "C"):
            cost += k
        else:
            return False
    if ambient == "C" or (ambient == "B" and not has_b):
        cost += ones
    else:
        cost += ones + ones % 2
    return cost <= (t.rank + 1 if ambient == "A" else t.rank)


def is_pseudo_levi(t: CartanType, s: Subsystem | str) -> bool:
    """Whether s occurs as the type of a connected centralizer in t.

    Series A-D are decided in closed form at any rank.  The torus and
    the exceptional types search the closure only down to rank(s),
    which is exact: a single-node move never raises rank (deleting {v}
    keeps it, deleting {0, v} lowers it by one), so s is in the closure
    iff it is in its part of rank >= rank(s).  For a subsystem of full
    rank that part is reached by {v}-deletions alone (15 members of the
    72 of E8).
    """
    if isinstance(s, str):
        s = Subsystem.parse(s)
    if t.series in ("A", "B", "C", "D"):
        return _fits_classical(t, s)
    rank = s.rank
    return rank <= t.rank and s in _closure(t, rank)

