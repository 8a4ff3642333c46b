"""Static root-system data for the quasi-simple types, plus the
Borel-de Siebenthal subsystem enumerator and, for series A-D, a
closed-form test of membership in its closure.

Everything here is diagram-level combinatorics: types, Weyl group
orders, highest-root coefficients, extended Dynkin diagrams, and the
closure of a type under "extend a simple factor and delete nodes".
No root vectors or Weyl group elements are manipulated.

ValueObject, the base of the package's immutable value classes, lives
here because every other module imports this one.
"""

from __future__ import annotations

from functools import lru_cache
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


class CartanError(ValueError):
    """Invalid type, alias, or out-of-range request."""


_set = object.__setattr__


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
    _fields, in constructor order, lists them and any attribute derived
    from them in __slots__, and sets all of them once in its own
    __init__ through object.__setattr__.  Instances equal only instances
    of the same class with equal fields, hash as the tuple of those
    fields, and refuse every later assignment or deletion with
    dataclasses.FrozenInstanceError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._values = staticmethod(_fields_getter(cls._fields))

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


class CartanType(ValueObject):
    """A quasi-simple series/rank pair, or the torus.  Ordered by
    (series, rank)."""

    __slots__ = ("series", "rank", "name", "_hash")
    _fields = ("series", "rank")

    def __init__(self, series: str, rank: int) -> None:
        ok = _RANK_OK.get(series)
        if ok is None:
            raise CartanError(f"unknown series {series!r}")
        if not ok(rank):
            raise CartanError(f"non-canonical type {series}{rank}")
        _set(self, "series", series)
        _set(self, "rank", rank)
        # Derived once: the printed name ('E8', 'Torus') and the hash.
        _set(self, "name", "Torus" if series == "Torus" else f"{series}{rank}")
        _set(self, "_hash", hash((series, rank)))

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

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.series, self.rank) <= (other.series, other.rank)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return (self.series, self.rank) > (other.series, other.rank)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return (self.series, self.rank) >= (other.series, other.rank)
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

    def __str__(self) -> str:  # pragma: no cover - repr helper
        return self.name


TORUS = CartanType("Torus", 0)


def simple_type(series: str, rank: int) -> CartanType:
    """Construct a type, normalizing the low-rank aliases
    B1/C1 -> A1, C2 -> B2, D2 -> A1 x A1 (rejected here), D3 -> A3.
    """
    if series == "B" and rank == 1:
        return CartanType("A", 1)
    if series == "C" and rank == 1:
        return CartanType("A", 1)
    if series == "C" and rank == 2:
        return CartanType("B", 2)
    if series == "D" and rank == 3:
        return CartanType("A", 3)
    if series == "D" and rank == 2:
        raise CartanError("D2 is not simple; use A1 x A1")
    return CartanType(series, rank)


def ascii_decimal(text: str) -> int | None:
    """int(text) if text is ASCII digits only (no sign, space, '_' or other script), else None."""
    return int(text) if text.isascii() and text.isdigit() else None


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
    return CartanType(*parsed)


class Subsystem(ValueObject):
    """A multiset of simple factors (the semisimple type of a subsystem).

    Factors are alias-normalized so comparisons against the names used
    for centralizer types are well defined.
    """

    __slots__ = ("factors", "_hash")
    _fields = ("factors",)

    def __init__(self, factors: tuple[CartanType, ...]) -> None:
        _set(self, "factors", factors)
        # Derived once: closures hold subsystems in sets.
        _set(self, "_hash", hash((factors,)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.factors == other.factors
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(*factors: CartanType) -> "Subsystem":
        return Subsystem(tuple(sorted(factors)))

    @staticmethod
    def parse(text: str) -> "Subsystem":
        """Parse 'A4xA4', 'E7xA1', 'C3xA1', '-' (empty)."""
        s = text.strip()
        if s in ("", "-", "0", "empty"):
            return Subsystem(())
        factors: list[CartanType] = []
        for part in s.replace("*", "x").split("x"):
            part = part.strip().replace("_", "")
            parsed = _series_rank(part)
            if parsed is None:
                raise CartanError(f"cannot parse subsystem factor {part!r}")
            series, rank = parsed
            if series == "D" and rank == 2:
                factors.extend([CartanType("A", 1), CartanType("A", 1)])
            else:
                factors.append(simple_type(series, rank))
        return Subsystem(tuple(sorted(factors)))

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @property
    def name(self) -> str:
        if not self.factors:
            return "-"
        return "x".join(f.name for f in sorted(self.factors, key=lambda t: (-t.rank, t.series)))

    def __str__(self) -> str:  # pragma: no cover - repr helper
        return self.name


# ---------------------------------------------------------------------------
# Static per-type data.
#
# degrees: the invariant degrees of the reflection group (their product is
# the Weyl group order and their maximum is the Coxeter number).
# coeffs:  coefficients of the highest root on the simple roots.
# Extended diagrams are given explicitly as (u, v, multiplicity, short_node)
# edge lists on nodes {0..rank}, node 0 being the affine one.  short_node is
# meaningful only on edges of multiplicity >= 2 and names the short-root side.


def _degrees(t: CartanType) -> tuple[int, ...]:
    n = t.rank
    if t.series == "A":
        return tuple(range(2, n + 2))
    if t.series in ("B", "C"):
        return tuple(range(2, 2 * n + 1, 2))
    if t.series == "D":
        return tuple(range(2, 2 * n - 1, 2)) + (n,)
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


Edge = tuple[int, int, int, int | None]


def _extended_edges(t: CartanType) -> tuple[Edge, ...]:
    n = t.rank
    if t.series == "A":
        if n == 1:
            # Affine A1: a single bond of multiplicity 4, no short side.
            return ((0, 1, 4, None),)
        cycle = [(i, i + 1, 1, None) for i in range(1, n)]
        cycle += [(0, 1, 1, None), (0, n, 1, None)]
        return tuple(cycle)
    if t.series == "B":
        if n == 2:
            return ((0, 2, 2, 2), (1, 2, 2, 2))
        edges = [(0, 2, 1, None), (1, 2, 1, None)]
        edges += [(i, i + 1, 1, None) for i in range(2, n - 1)]
        edges += [(n - 1, n, 2, n)]
        return tuple(edges)
    if t.series == "C":
        edges = [(0, 1, 2, 1)]
        edges += [(i, i + 1, 1, None) for i in range(1, n - 1)]
        edges += [(n - 1, n, 2, n - 1)]
        return tuple(edges)
    if t.series == "D":
        edges = [(0, 2, 1, None)]
        edges += [(i, i + 1, 1, None) for i in range(1, n - 2)]
        edges += [(n - 2, n - 1, 1, None), (n - 2, n, 1, None)]
        return tuple(edges)
    if t.series == "G":
        return ((0, 2, 1, None), (1, 2, 3, 1))
    if t.series == "F":
        return ((0, 1, 1, None), (1, 2, 1, None), (2, 3, 2, 3), (3, 4, 1, None))
    # E series: chain 1-3-4-...-n with node 2 hanging off node 4.
    chain = [(1, 3, 1, None)] + [(i, i + 1, 1, None) for i in range(3, n)]
    chain.append((2, 4, 1, None))
    affine = {6: (0, 2, 1, None), 7: (0, 1, 1, None), 8: (0, 8, 1, None)}[n]
    return tuple(chain) + (affine,)


class CartanDatum(ValueObject):
    """The full static record for one type."""

    __slots__ = _fields = (
        "cartan_type", "weyl_order", "degrees", "bad_primes", "highest_root_coeffs",
        "z_value", "extended_diagram",
    )

    def __init__(
        self,
        cartan_type: CartanType,
        weyl_order: int,
        degrees: tuple[int, ...],
        bad_primes: frozenset[int],
        highest_root_coeffs: tuple[int, ...],
        z_value: int,
        extended_diagram: tuple[Edge, ...],
    ) -> None:
        _set(self, "cartan_type", cartan_type)
        _set(self, "weyl_order", weyl_order)
        _set(self, "degrees", degrees)
        _set(self, "bad_primes", bad_primes)
        _set(self, "highest_root_coeffs", highest_root_coeffs)
        _set(self, "z_value", z_value)
        _set(self, "extended_diagram", extended_diagram)

    @property
    def coxeter_number(self) -> int:
        return max(self.degrees) if self.degrees else 1


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
        return CartanDatum(t, 1, (), frozenset(), (), 1, ())
    degrees = _degrees(t)
    order = 1
    for d in degrees:
        order *= d
    coeffs = _highest_root_coeffs(t)
    bad = frozenset().union(*(_prime_divisors(c) for c in coeffs)) - {1}
    z = max(coeffs) if coeffs else 1
    return CartanDatum(t, order, degrees, frozenset(bad), coeffs, z, _extended_edges(t))


# ---------------------------------------------------------------------------
# Subsystem enumeration (extend-and-delete closure).


def _classify_component(nodes: tuple[int, ...], edges: list[Edge]) -> CartanType:
    """Recognize the finite type of a connected sub-diagram."""
    n = len(nodes)
    if n == 1:
        return CartanType("A", 1)
    deg: dict[int, int] = {v: 0 for v in nodes}
    for u, v, _, _ in edges:
        deg[u] += 1
        deg[v] += 1
    mult2 = [e for e in edges if e[2] == 2]
    mult3 = [e for e in edges if e[2] == 3]
    if mult3:
        if n != 2:
            raise CartanError("triple bond in a component of size != 2")
        return CartanType("G", 2)
    if mult2:
        if len(mult2) != 1 or max(deg.values()) > 2:
            raise CartanError("unrecognized multiply-laced component")
        u, v, _, short = mult2[0]
        if n == 2:
            return CartanType("B", 2)
        if deg[u] == 2 and deg[v] == 2:
            if n != 4:
                raise CartanError("interior double bond outside F4 shape")
            return CartanType("F", 4)
        tail = u if deg[u] == 1 else v
        return simple_type("B" if short == tail else "C", n)
    # Simply laced: path or a single-branch tree.
    branch_nodes = [v for v in nodes if deg[v] == 3]
    if not branch_nodes:
        if max(deg.values()) > 2:
            raise CartanError("unexpected node of degree > 3")
        return CartanType("A", n)
    if len(branch_nodes) != 1 or max(deg.values()) != 3:
        raise CartanError("unrecognized simply-laced component")
    center = branch_nodes[0]
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for u, v, _, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    lengths = []
    for start in adj[center]:
        ln, prev, cur = 1, center, start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            ln += 1
        lengths.append(ln)
    a, b, c = sorted(lengths, reverse=True)
    if b == 1 and c == 1:
        return simple_type("D", a + 3)
    if (b, c) == (2, 1) and a in (2, 3, 4):
        return CartanType("E", a + 4)
    raise CartanError("unrecognized branched component")


def _deletion_type(t: CartanType, deleted: frozenset[int]) -> Subsystem:
    """Semisimple type of the extended diagram of t minus the deleted
    nodes: one classified factor per connected component."""
    kept = [e for e in datum(t).extended_diagram if e[0] not in deleted and e[1] not in deleted]
    adj: dict[int, list[int]] = {v: [] for v in range(t.rank + 1) if v not in deleted}
    for u, v, _, _ in kept:
        adj[u].append(v)
        adj[v].append(u)
    factors: list[CartanType] = []
    placed: set[int] = set()
    for seed in adj:
        if seed in placed:
            continue
        comp, stack = {seed}, [seed]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        placed |= comp
        comp_edges = [e for e in kept if e[0] in comp]
        factors.append(_classify_component(tuple(sorted(comp)), comp_edges))
    return Subsystem(tuple(sorted(factors)))


@lru_cache(maxsize=None)
def _moves(t: CartanType) -> frozenset[Subsystem]:
    """The one-move children of a simple factor t: for each node v >= 1
    of its extended diagram, delete {v} (Borel-de Siebenthal move) or
    {0, v} (Levi move)."""
    return frozenset(
        _deletion_type(t, deleted)
        for v in range(1, t.rank + 1)
        for deleted in (frozenset({v}), frozenset({0, v}))
    )


@lru_cache(maxsize=None)
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
    if t.is_torus:
        return frozenset({Subsystem(())})
    if t.rank > MAX_ENUMERATION_RANK:
        raise CartanError(
            f"subsystem enumeration capped at rank {MAX_ENUMERATION_RANK}; got {t.name}"
        )
    seen: set[Subsystem] = {Subsystem.of(t)}
    work = [Subsystem.of(t)]
    while work:
        sub = work.pop()
        counted = sorted(set(sub.factors))
        for f in counted:
            remainder = list(sub.factors)
            remainder.remove(f)
            for child in _moves(f):
                nxt = Subsystem(tuple(sorted(remainder + list(child.factors))))
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
    return frozenset(seen)


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

    Series A-D are decided in closed form at any rank; the torus and
    the exceptional types look s up in their closure.
    """
    if isinstance(s, str):
        s = Subsystem.parse(s)
    if t.series in ("A", "B", "C", "D"):
        return _fits_classical(t, s)
    return s in pseudo_levi_types(t)

