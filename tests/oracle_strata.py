"""Reference answers for the stratum queries, computed on every call the
way the package once did: the group collection from a row's annotation,
its label set from the group inventories, and the fiber by grouping the
whole triple enumeration by key.

Answers are plain tuples, so that the package's value classes are not
trusted to build them.
"""

from __future__ import annotations

from charstrata.cuspidal import enumerate_cs_prime
from charstrata.groups import faithful_cyclic_inventory, inventory, pullback_inventory


def collection(row) -> tuple:
    """(kind, tags, quotient) of c(E) for one table row."""
    a = row.annotation
    g = dict(a.groups)
    if len(g) == 1:
        return "single", tuple(g.values()), None
    g0 = g[0]
    at = {2: g.get(2), 3: g.get(3), 5: g.get(5, g0)}
    tags = tuple(at[p] for p in (2, 3, 5) if at[p] != g0)
    if not tags:
        return "single", (g0,), None
    if len(tags) == 1:
        return "single", tags, None
    if len(tags) == 2:
        return "pair", tags, g0
    return "triple", tags, None


def labels(row) -> list[tuple[str, str, str]]:
    """c*(E) as (group, irrep, origin) tuples, in canonical order."""
    kind, tags, quotient = collection(row)
    if kind == "single":
        return [(tags[0], name, "single") for name in inventory(tags[0])]
    if kind == "pair":
        first, second = tags
        excluded = set(pullback_inventory(second, quotient))
        out = [(first, name, "first") for name in inventory(first)]
        out += [(second, name, "second") for name in inventory(second) if name not in excluded]
        return out
    return [
        ("1" if m == 1 else f"C{m}", name, f"faithful-C{m}")
        for m in range(1, 7)
        for name in faithful_cyclic_inventory(m)
    ]


def fiber(t, pl, ri: int, expand: bool) -> list[tuple]:
    """The fiber over row ri of a placement as (triple, multiplicity)
    pairs, or one (triple, 1) pair per triple with expand."""
    by_key: dict[tuple, list] = {}
    for tr in enumerate_cs_prime(t):
        by_key.setdefault(tr.key, []).append(tr)
    out = []
    for pi, en in enumerate(pl.rows[ri].fiber):
        triples = by_key[pl.relabelled.get((ri, pi), en.key)]
        if expand:
            out.extend((tr, 1) for tr in triples)
        else:
            out.append((triples[0], en.mult))
    return out


def row_kinds(t, pl) -> list[tuple]:
    """Each distinct (annotation identity, expanded fiber size) pair of
    the rows of a placement with the index of its first row, in
    first-row order, the size read from fiber above."""
    first: dict[tuple, int] = {}
    for ri, row in enumerate(pl.rows):
        first.setdefault((id(row.annotation), len(fiber(t, pl, ri, True))), ri)
    return [(ann, size, ri) for (ann, size), ri in first.items()]
