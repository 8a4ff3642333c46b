import itertools
import re
from functools import lru_cache

import pytest

from charstrata.cartan import (
    CartanError,
    CartanType,
    Subsystem,
    TORUS,
    datum,
    is_pseudo_levi,
    parse_type,
    pseudo_levi_types,
    Edge,
    _RANK_OK,
    _classify_component,
)


def levi_subsystems(t: CartanType) -> frozenset[Subsystem]:
    """Oracle: semisimple types of Levi subsystems, by deletions from
    the plain (unextended) diagram.  A sanity floor for the closure.
    """
    if t.is_torus:
        return frozenset({Subsystem(())})
    edges = [e for e in datum(t).extended_diagram if 0 not in (e[0], e[1])]
    nbr: dict[int, set[int]] = {i: set() for i in range(1, t.rank + 1)}
    pair: dict[tuple[int, int], Edge] = {}
    for u, v, m, s in edges:
        nbr[u].add(v)
        nbr[v].add(u)
        pair[(min(u, v), max(u, v))] = (u, v, m, s)
    out: set[Subsystem] = set()
    nodes = list(range(1, t.rank + 1))
    for r in range(len(nodes) + 1):
        for kept in itertools.combinations(nodes, r):
            keptset = set(kept)
            factors = []
            todo = set(kept)
            while todo:
                comp = {todo.pop()}
                frontier = set(comp)
                while frontier:
                    grown = set()
                    for x in frontier:
                        grown |= nbr[x] & (keptset - comp)
                    comp |= grown
                    frontier = grown
                todo -= comp
                cn = tuple(sorted(comp))
                ce = [pair[(u, v)] for u, v in itertools.combinations(cn, 2) if (u, v) in pair]
                factors.append(_classify_component(cn, ce))
            out.add(Subsystem(tuple(sorted(factors))))
    return frozenset(out)


@lru_cache(maxsize=None)
def _deletion_children(t: CartanType) -> frozenset[Subsystem]:
    """Oracle: semisimple types of the extended diagram of t minus any
    nonempty node subset, by walking every subset.  Classification is
    memoized per connected-component bitmask.
    """
    edges = datum(t).extended_diagram
    n_nodes = t.rank + 1
    nbr = [0] * n_nodes
    edge_by_pair: dict[tuple[int, int], Edge] = {}
    for u, v, m, s in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
        edge_by_pair[(min(u, v), max(u, v))] = (u, v, m, s)

    comp_type: dict[int, CartanType] = {}

    def classify(mask: int) -> CartanType:
        cached = comp_type.get(mask)
        if cached is not None:
            return cached
        nodes = tuple(i for i in range(n_nodes) if mask >> i & 1)
        comp_edges = [
            edge_by_pair[(u, v)]
            for u, v in itertools.combinations(nodes, 2)
            if (u, v) in edge_by_pair
        ]
        ct = _classify_component(nodes, comp_edges)
        comp_type[mask] = ct
        return ct

    results: set[Subsystem] = set()
    full = (1 << n_nodes) - 1
    for kept in range(full):  # every proper subset, including empty
        factors: list[CartanType] = []
        rest = kept
        while rest:
            seed = rest & -rest
            comp = seed
            frontier = seed
            while frontier:
                grown = 0
                f = frontier
                while f:
                    bit = f & -f
                    f ^= bit
                    grown |= nbr[bit.bit_length() - 1]
                grown &= rest & ~comp
                comp |= grown
                frontier = grown
            factors.append(classify(comp))
            rest &= ~comp
        results.add(Subsystem(tuple(sorted(factors))))
    return frozenset(results)


def subset_closure(t: CartanType) -> frozenset[Subsystem]:
    """Oracle: the closure of {t} under replacing one simple factor by
    the extended diagram of that factor minus any nonempty node subset.
    """
    seen = {Subsystem.of(t)}
    work = [Subsystem.of(t)]
    while work:
        sub = work.pop()
        for f in set(sub.factors):
            rest = list(sub.factors)
            rest.remove(f)
            for child in _deletion_children(f):
                nxt = Subsystem(tuple(sorted(rest + list(child.factors))))
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
    return frozenset(seen)


RANK_10_TYPES = (
    [f"A{n}" for n in range(1, 11)]
    + [f"B{n}" for n in range(2, 11)]
    + [f"C{n}" for n in range(3, 11)]
    + [f"D{n}" for n in range(4, 11)]
    + ["G2", "F4", "E6", "E7", "E8"]
)


ALL_SAMPLE_TYPES = [
    "A1", "A2", "A5", "B2", "B3", "B6", "C2", "C3", "C6",
    "D4", "D5", "D8", "G2", "F4", "E6", "E7", "E8",
]


def test_datum_examples():
    assert datum(parse_type("E8")).z_value == 6
    assert datum(parse_type("A5")).z_value == 1
    torus = datum(TORUS)
    assert torus.weyl_order == 1
    assert torus.z_value == 1
    assert torus.extended_diagram == ()


@pytest.mark.parametrize("bad", ["B1", "C1", "D2", "D3", "E9", "E5", "G3", "F5", "A0"])
def test_rejects_non_canonical(bad):
    with pytest.raises(CartanError):
        parse_type(bad)


@pytest.mark.parametrize("name", ALL_SAMPLE_TYPES)
def test_degree_products_and_coxeter_number(name):
    d = datum(parse_type(name))
    prod = 1
    for deg in d.degrees:
        prod *= deg
    assert prod == d.weyl_order
    assert 1 + sum(d.highest_root_coeffs) == d.coxeter_number


def test_bad_primes_by_series():
    assert datum(parse_type("A9")).bad_primes == frozenset()
    assert datum(parse_type("B5")).bad_primes == {2}
    assert datum(parse_type("D6")).bad_primes == {2}
    assert datum(parse_type("G2")).bad_primes == {2, 3}
    assert datum(parse_type("F4")).bad_primes == {2, 3}
    assert datum(parse_type("E6")).bad_primes == {2, 3}
    assert datum(parse_type("E7")).bad_primes == {2, 3}
    assert datum(parse_type("E8")).bad_primes == {2, 3, 5}


def test_z_values_all_series():
    expected = {"A7": 1, "B4": 2, "C5": 2, "D6": 2, "G2": 3, "E6": 3,
                "F4": 4, "E7": 4, "E8": 6}
    for name, z in expected.items():
        assert datum(parse_type(name)).z_value == z
        assert z in (1, 2, 3, 4, 6)


def test_pseudo_levi_examples():
    g2 = parse_type("G2")
    names = {s.name for s in pseudo_levi_types(g2)}
    assert {"A2", "A1xA1", "G2", "A1", "-"} == names
    e8 = parse_type("E8")
    for sub in ["A4xA4", "A5xA2xA1", "D8", "E7xA1", "E6xA2", "D5xA3"]:
        assert is_pseudo_levi(e8, sub)
    assert is_pseudo_levi(g2, "A2")
    assert is_pseudo_levi(g2, "G2")
    assert not is_pseudo_levi(g2, "B2")


def _a_series_expected(n: int) -> set[Subsystem]:
    # all multisets of A-ranks with sum(rank_j + 1) <= n + 1
    out = {Subsystem(())}

    def rec(prefix: tuple[int, ...], max_rank: int, budget: int) -> None:
        for r in range(1, max_rank + 1):
            if r + 1 <= budget:
                nxt = tuple(sorted(prefix + (r,)))
                out.add(Subsystem(tuple(CartanType("A", k) for k in nxt)))
                rec(nxt, r, budget - r - 1)

    rec((), n, n + 1)
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_a_series_closure_formula(n):
    assert pseudo_levi_types(CartanType("A", n)) == _a_series_expected(n)


@pytest.mark.parametrize("name", ["G2", "F4", "B4", "D4", "E6", "A4"])
def test_closure_is_closed_and_contains_levis(name):
    t = parse_type(name)
    closure = pseudo_levi_types(t)
    for sub in closure:
        for f in set(sub.factors):
            rest = list(sub.factors)
            rest.remove(f)
            for child in _deletion_children(f):
                nxt = Subsystem(tuple(sorted(rest + list(child.factors))))
                assert nxt in closure
    assert levi_subsystems(t) <= closure
    assert Subsystem.of(t) in closure
    assert Subsystem(()) in closure


@pytest.mark.parametrize("name", RANK_10_TYPES)
def test_closure_by_single_node_moves_matches_subset_walk(name):
    t = parse_type(name)
    assert pseudo_levi_types(t) == subset_closure(t)


def factor_multisets(n: int):
    """Every multiset of canonical simple factors of total rank <= n,
    the empty one included, as a Subsystem."""
    simple = sorted(
        CartanType(series, k)
        for k in range(1, n + 1)
        for series in "ABCDEFG"
        if (series, k) != ("C", 2) and _RANK_OK[series](k)
    )

    def rec(start: int, budget: int, chosen: list[CartanType]):
        yield Subsystem(tuple(chosen))
        for i in range(start, len(simple)):
            if simple[i].rank <= budget:
                chosen.append(simple[i])
                yield from rec(i, budget - simple[i].rank, chosen)
                chosen.pop()

    return rec(0, n, [])


CLASSICAL_RANK_12_TYPES = [
    f"{series}{n}" for series in "ABCD" for n in range(1, 13) if _RANK_OK[series](n)
]


@pytest.mark.parametrize("name", CLASSICAL_RANK_12_TYPES)
def test_classical_membership_matches_closure(name):
    """The closed-form test agrees with the closure on every candidate
    of rank <= n, members and non-members alike."""
    t = parse_type(name)
    closure = pseudo_levi_types(t)
    for s in factor_multisets(t.rank):
        assert is_pseudo_levi(t, s) == (s in closure), (name, s.name)


@pytest.mark.parametrize("text", ["A1x", "x", "A1xxA2", "A1*"])
def test_subsystem_parse_rejects_empty_factor(text):
    with pytest.raises(CartanError, match=r"^cannot parse subsystem factor ''$"):
        is_pseudo_levi(parse_type("E8"), text)


def test_subsystem_alias_normalization():
    assert Subsystem.parse("D3").factors == (CartanType("A", 3),)
    assert Subsystem.parse("C2").factors == (CartanType("B", 2),)
    assert Subsystem.parse("B1xC1").name == "A1xA1"
    assert Subsystem.parse("D2").name == "A1xA1"
    assert Subsystem.parse("-").factors == ()


def test_enumeration_rank_cap():
    with pytest.raises(CartanError):
        pseudo_levi_types(parse_type("B20"))


@pytest.mark.parametrize("text", ["B²", "B٣", "D¹⁶", "E８"])
def test_type_ranks_are_ascii_decimal_only(text):
    with pytest.raises(CartanError, match=rf"^cannot parse type {re.escape(repr(text))}$"):
        parse_type(text)


@pytest.mark.parametrize("factor", ["A²", "A٣", "E7xA¹"])
def test_subsystem_ranks_are_ascii_decimal_only(factor):
    bad = factor.split("x")[-1]
    with pytest.raises(CartanError, match=rf"^cannot parse subsystem factor {re.escape(repr(bad))}$"):
        is_pseudo_levi(parse_type("E8"), factor)
