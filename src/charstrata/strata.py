"""The surjection from cuspidal-support triples onto strata, its
fibers, the per-stratum group collections, and the counting witness
that ties fiber sizes to representation inventories.

The map is realized by index lookup in the resolved strata tables:
each query subscripts the store by type name and does one lookup in
the placement's stratum_of_triple, row_of_head or, for c_star and
c_collection, collection_of_head.  Each head index takes a stratum as
its text or its label and raises UnknownStratum itself for one that
heads no row; find_triple, like every query, reads only
store[t.name]: a placement's candidate keys and their rows' fibers.
The enumeration side is produced independently by the cuspidal-support
module, so table placement is a falsifiable statement, checked by the
resolver in the tables module (Placement, PlacementMismatch and
resolve_placement are re-exported here).
"""

from __future__ import annotations

from math import gcd

from .cartan import CartanType, CharstrataError, ValueObject, datum
from .cuspidal import SheafTriple, cuspidal_levis, levi_counts
from .groups import CStarElement, GroupCollection  # noqa: F401 - re-exported
from .labels import CharacterLabel
from .tables import (  # noqa: F401 - placement, Placement and its resolver are re-exported
    DEFAULT_STORE,
    Placement,
    PlacementMismatch,
    TableFormatError,
    TableStore,
    levi_name_of,
    placement,
    resolve_placement,
)


class TripleNotFound(CharstrataError, LookupError):
    pass


# ---------------------------------------------------------------------------
# The map itself.


def tau(
    t: CartanType, triple: SheafTriple, store: TableStore = DEFAULT_STORE
) -> CharacterLabel:
    """The stratum of a cuspidal-support triple."""
    try:
        return store[t.name].stratum_of_triple[triple.key]
    except KeyError:
        raise TripleNotFound(f"{triple.describe()} is not a triple of {t.name}") from None


def find_triple(
    t: CartanType,
    levi_name: str,
    character_text: str,
    d: int | None = None,
    index: int = 0,
    store: TableStore = DEFAULT_STORE,
) -> SheafTriple:
    """Locate a triple of t by its printable coordinates, the Levi
    spelled as a table entry's may be (levi_name_of), in store[t.name],
    the table every query reads (NoTableAvailable for a type without
    one).  The candidate keys take the given d, or each d of the Levi
    with more than index cuspidal objects, and each placed one is found
    in its row's expanded fiber."""
    name, pl = levi_name_of(levi_name), store[t.name]
    keys = [(name, character_text, dd) for levi in cuspidal_levis(t) if levi.levi_name == name
            for dd, n in levi_counts(levi).counts if n > index and (d is None or dd == d)]
    matches = [tr for key in keys if key in pl.stratum_of_triple
               for tr, _ in pl.fiber_expanded[pl.row_of_head[pl.stratum_of_triple[key].text]]
               if tr.key == key and tr.index == index]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise TripleNotFound(
            f"no triple ({levi_name},{character_text},d={d},i={index}) in {t.name}")
    raise TripleNotFound(f"({levi_name},{character_text}) is ambiguous in {t.name}; give --d")


def fiber(
    t: CartanType,
    stratum: CharacterLabel | str,
    store: TableStore = DEFAULT_STORE,
    expand: bool = False,
) -> list[tuple[SheafTriple, int]]:
    """The fiber over a stratum as (triple, multiplicity) pairs; the
    first pair is the stratum's own empty-Levi triple.  With expand,
    one pair per cuspidal index."""
    pl = store[t.name]
    return list((pl.fiber_expanded if expand else pl.fiber_pairs)[pl.row_of_head[stratum]])


def strata(t: CartanType, store: TableStore = DEFAULT_STORE) -> list[CharacterLabel]:
    """All strata of t, in table order (classical types need a table;
    for the A series every character is a stratum)."""
    return [row.stratum for row in store[t.name].rows]


# ---------------------------------------------------------------------------
# Group collections and their representation inventories.


def c_collection(
    t: CartanType, stratum: CharacterLabel | str, store: TableStore = DEFAULT_STORE
) -> GroupCollection:
    """The group collection c(E) of a stratum's row."""
    return store[t.name].collection_of_head[stratum]


def c_star(
    t: CartanType, stratum: CharacterLabel | str, store: TableStore = DEFAULT_STORE
) -> list[CStarElement]:
    """The label set attached to a stratum: inventories of c(E), with
    the pulled-back part of a pair's second group removed, or the
    faithful cyclic characters for the triple case."""
    return list(store[t.name].collection_of_head[stratum].labels)


def bijection_witness(
    t: CartanType, store: TableStore = DEFAULT_STORE
) -> list[tuple[str, int, int]]:
    """Per stratum: (head, fiber size, inventory size), the fiber size
    the length of the row's expanded fiber.  The counting content of the
    parametrization is that the two sizes agree row by row."""
    pl = store[t.name]
    return [
        (row.stratum.text, size, len(row.annotation.collection.labels))
        for row, size in zip(pl.rows, map(len, pl.fiber_expanded))
    ]


def bijection_pairing(
    t: CartanType, stratum: CharacterLabel | str, store: TableStore = DEFAULT_STORE
) -> list[tuple[SheafTriple, CStarElement]]:
    """A concrete matching for one stratum: expanded fiber in row order
    against the inventory in its canonical order.  Only the existence
    of some matching is asserted by the theory; this one is the
    deterministic representative.  TableFormatError when the two sizes
    differ, which is exactly a row that verify's row-balance fails."""
    expanded = [tr for tr, _ in fiber(t, stratum, store, expand=True)]
    elements = c_star(t, stratum, store)
    if len(expanded) != len(elements):
        raise TableFormatError(
            f"fiber over {stratum} has {len(expanded)} triples but the "
            f"inventory has {len(elements)} elements"
        )
    return list(zip(expanded, elements))


# ---------------------------------------------------------------------------
# The regular stratum and roots of unity.


class RootOfUnityLabel(ValueObject):
    """The root of unity e(k/m)."""

    __slots__ = _fields = ("m", "k")

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
