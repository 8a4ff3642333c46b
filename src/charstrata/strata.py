"""The surjection from cuspidal-support triples onto strata, its
fibers, the per-stratum group collections, and the counting witness
that ties fiber sizes to representation inventories.

The map is realized by index lookup in the resolved strata tables;
the enumeration side is produced independently by the cuspidal-support
module, so table placement is a falsifiable statement, checked by the
resolver in the tables module (Placement, PlacementMismatch and
resolve_placement are re-exported here).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .cartan import CartanType, ValueObject, datum
from .cuspidal import SheafTriple, enumerate_cs_prime
from .groups import (
    faithful_cyclic_inventory,
    inventory,
    pullback_inventory,
)
from .labels import CharacterLabel, unit_label
from .tables import (  # noqa: F401 - Placement and its resolver are re-exported
    DEFAULT_STORE,
    Placement,
    PlacementMismatch,
    TableStore,
    find_row,
    placement,
    resolve_placement,
)

_set = object.__setattr__


class TripleNotFound(LookupError):
    pass


@lru_cache(maxsize=None)
def _triples_by_key(t: CartanType) -> dict[tuple, list[SheafTriple]]:
    """The enumerated triples of t grouped by SheafTriple.key, in
    enumeration order."""
    by_key: dict[tuple, list[SheafTriple]] = {}
    for tr in enumerate_cs_prime(t):
        by_key.setdefault(tr.key, []).append(tr)
    return by_key


# ---------------------------------------------------------------------------
# The map itself.


def tau(
    t: CartanType, triple: SheafTriple, store: TableStore = DEFAULT_STORE
) -> CharacterLabel:
    """The stratum of a cuspidal-support triple."""
    pl = placement(t, store)
    ri = pl.row_of_triple.get(triple.key)
    if ri is None:
        raise TripleNotFound(f"{triple.describe()} is not a triple of {t.name}")
    return pl.rows[ri].stratum


def find_triple(
    t: CartanType,
    levi_name: str,
    character_text: str,
    d: int | None = None,
    index: int = 0,
) -> SheafTriple:
    """Locate an enumerated triple by its printable coordinates."""
    matches = [
        tr
        for tr in enumerate_cs_prime(t)
        if tr.levi.levi_name == levi_name
        and tr.character.text == character_text
        and (d is None or tr.d == d)
        and tr.index == index
    ]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise TripleNotFound(
            f"no triple ({levi_name},{character_text},d={d},i={index}) in {t.name}"
        )
    raise TripleNotFound(
        f"({levi_name},{character_text}) is ambiguous in {t.name}; give --d"
    )


def fiber(
    t: CartanType,
    stratum: CharacterLabel | str,
    store: TableStore = DEFAULT_STORE,
    expand: bool = False,
) -> list[tuple[SheafTriple, int]]:
    """The fiber over a stratum as (triple, multiplicity) pairs; the
    first pair is the stratum's own empty-Levi triple.  With expand,
    one pair per cuspidal index."""
    pl = placement(t, store)
    ri = pl.row_index(stratum)
    by_key = _triples_by_key(t)
    out: list[tuple[SheafTriple, int]] = []
    for pi, en in enumerate(pl.rows[ri].fiber):
        triples = by_key[(en.levi_name, pl.resolved[(ri, pi)], en.d_semantic)]
        if expand:
            out.extend((tr, 1) for tr in triples)
        else:
            out.append((triples[0], en.mult))
    return out


def strata(t: CartanType, store: TableStore = DEFAULT_STORE) -> list[CharacterLabel]:
    """All strata of t, in table order (classical types need a table;
    for the A series every character is a stratum)."""
    return [row.stratum for row in store.table(t)]


# ---------------------------------------------------------------------------
# Group collections and their representation inventories.


class GroupCollection(ValueObject):
    """c(E): a single group, the deviating pair, or the full cyclic
    triple of the unit stratum in E8."""

    __slots__ = _fields = ("kind", "tags", "quotient")

    def __init__(self, kind: str, tags: tuple[str, ...], quotient: str | None = None) -> None:
        _set(self, "kind", kind)  # "single" | "pair" | "triple"
        _set(self, "tags", tags)
        _set(self, "quotient", quotient)  # characteristic-0 group under a pair

    @property
    def text(self) -> str:
        body = ",".join(self.tags)
        return body if self.kind == "single" else f"({body})"


def c_collection(
    t: CartanType, stratum: CharacterLabel | str, store: TableStore = DEFAULT_STORE
) -> GroupCollection:
    row = find_row(t, stratum, store)
    g = row.group_of
    if row.membership.kind == "singleton":
        return GroupCollection("single", (g[row.membership.r0],))
    # the table's validation admits only the allowed pairs and the triple
    tags = row.deviating
    if not tags:
        return GroupCollection("single", (g[0],))
    if len(tags) == 1:
        return GroupCollection("single", tags)
    if len(tags) == 2:
        return GroupCollection("pair", tags, quotient=g[0])
    return GroupCollection("triple", tags)


class CStarElement(ValueObject):
    __slots__ = _fields = ("group", "irrep", "origin")

    def __init__(self, group: str, irrep: str, origin: str) -> None:
        _set(self, "group", group)
        _set(self, "irrep", irrep)
        _set(self, "origin", origin)  # "single" | "first" | "second" | "faithful-Cm"


def c_star(
    t: CartanType, stratum: CharacterLabel | str, store: TableStore = DEFAULT_STORE
) -> list[CStarElement]:
    """The label set attached to a stratum: inventories of c(E), with
    the pulled-back part of a pair's second group removed, or the
    faithful cyclic characters for the triple case."""
    coll = c_collection(t, stratum, store)
    if coll.kind == "single":
        g = coll.tags[0]
        return [CStarElement(g, name, "single") for name in inventory(g)]
    if coll.kind == "pair":
        first, second = coll.tags
        excluded = set(pullback_inventory(second, coll.quotient))
        out = [CStarElement(first, name, "first") for name in inventory(first)]
        out.extend(
            CStarElement(second, name, "second")
            for name in inventory(second)
            if name not in excluded
        )
        return out
    out = []
    for m in range(1, 7):
        g = "1" if m == 1 else f"C{m}"
        out.extend(
            CStarElement(g, name, f"faithful-C{m}")
            for name in faithful_cyclic_inventory(m)
        )
    return out


def bijection_witness(
    t: CartanType, store: TableStore = DEFAULT_STORE
) -> list[tuple[str, int, int]]:
    """Per stratum: (head, fiber size, inventory size).  The counting
    content of the parametrization is that the two sizes agree row by
    row."""
    out = []
    for row in store.table(t):
        out.append(
            (row.stratum.text, row.fiber_size, len(c_star(t, row.stratum, store)))
        )
    return out


def bijection_pairing(
    t: CartanType, stratum: CharacterLabel | str, store: TableStore = DEFAULT_STORE
) -> list[tuple[SheafTriple, CStarElement]]:
    """A concrete matching for one stratum: expanded fiber in row order
    against the inventory in its canonical order.  Only the existence
    of some matching is asserted by the theory; this one is the
    deterministic representative."""
    expanded = [tr for tr, _ in fiber(t, stratum, store, expand=True)]
    elements = c_star(t, stratum, store)
    if len(expanded) != len(elements):
        raise ValueError(
            f"fiber over {stratum} has {len(expanded)} triples but the "
            f"inventory has {len(elements)} elements"
        )
    return list(zip(expanded, elements))


# ---------------------------------------------------------------------------
# The regular stratum and roots of unity.


class RootOfUnityLabel(ValueObject):
    __slots__ = _fields = ("m", "k")

    def __init__(self, m: int, k: int) -> None:
        _set(self, "m", m)
        _set(self, "k", k)

    @property
    def text(self) -> str:
        return f"e({self.k}/{self.m})"


def regular_fiber_labels(t: CartanType) -> list[RootOfUnityLabel]:
    """Primitive m-th roots of unity for m up to the largest
    highest-root coefficient; they index the fiber over the stratum of
    regular elements."""
    z = datum(t).z_value
    out = []
    for m in range(1, z + 1):
        for k in range(1, m + 1):
            if gcd(k, m) == 1:
                out.append(RootOfUnityLabel(m, k))
    return out


def unit_stratum_fiber_size(t: CartanType, store: TableStore = DEFAULT_STORE) -> int:
    return find_row(t, unit_label(t), store).fiber_size
