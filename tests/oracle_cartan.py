"""Reference deletions of extended Dynkin diagrams: split what is left
of the diagram into connected components and recognize each
component's finite type from its shape.

The diagrams are oracle_reflection's, derived from the Cartan matrices,
so the closed-form one-node moves of charstrata.cartan, its typed
exceptional moves and its closure are checked against diagrams the
package never states.  Only the type and subsystem classes are read
from the package.
"""

from __future__ import annotations

from functools import lru_cache

from charstrata.cartan import CartanError, CartanType, Subsystem, simple_type
from oracle_reflection import extended_diagram

Bond = tuple[int, int, int, int | None]


def _classify_component(nodes: tuple[int, ...], edges: list[Bond]) -> CartanType:
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


def deletion_type(t: CartanType, deleted: set[int] | tuple[int, ...]) -> Subsystem:
    """Semisimple type of the extended diagram of t minus the deleted
    nodes: one classified factor per connected component."""
    kept = [e for e in extended_diagram(t.series, t.rank)
            if e[0] not in deleted and e[1] not in deleted]
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
        factors.append(_component_type(t, frozenset(comp)))
    return Subsystem(tuple(sorted(factors)))


@lru_cache(maxsize=None)
def _component_type(t: CartanType, comp: frozenset[int]) -> CartanType:
    """The finite type of a connected part of t's extended diagram,
    recognized once: the subset walks meet each part many times."""
    edges = [e for e in extended_diagram(t.series, t.rank) if e[0] in comp and e[1] in comp]
    return _classify_component(tuple(sorted(comp)), edges)


def moves(t: CartanType, levi: bool) -> set[tuple[CartanType, ...]]:
    """The factors of the one-move children of a simple factor t: for
    each node v >= 1 of its extended diagram, delete {v} or, with levi,
    {0, v}."""
    return {
        deletion_type(t, {0, v} if levi else {v}).factors
        for v in range(1, t.rank + 1)
    }
