import itertools
import pickle
import re
from functools import lru_cache

import pytest

from charstrata import cartan
from charstrata.cartan import (
    MAX_RANK,
    CartanError,
    CartanType,
    Subsystem,
    TORUS,
    ascii_decimal,
    datum,
    is_pseudo_levi,
    parse_type,
    pseudo_levi_types,
    simple_type,
    Edge,
    _EXCEPTIONAL_MOVES,
    _RANK_OK,
    _closure,
    _factors,
    _moves,
    _shared,
)
from charstrata import tabledata
from charstrata.cuspidal import centralizer_profiles
from charstrata.tables import TableStore
from charstrata.verify import run_all
from oracle_cartan import _classify_component, moves as diagram_moves
from oracle_reflection import degrees_from_heights, root_system


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


_UP_TO_RANK_10 = ["G2", "F4", "E6", "E7", "E8"] + [
    f"{series}{n}" for series, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
    for n in range(low, 11)
]


@pytest.mark.parametrize("name", _UP_TO_RANK_10)
def test_datum_degrees_and_highest_root_match_the_root_system_oracle(name):
    """The typed degrees and highest root are those of the root system
    that the oracle builds from the Dynkin diagram alone."""
    t = parse_type(name)
    positive, _ = root_system(t.series, t.rank)
    d = datum(t)
    assert tuple(sorted(d.degrees)) == degrees_from_heights(positive)
    assert d.highest_root_coeffs == positive[-1]


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


CANONICAL_RANK_16_TYPES = [
    f"{series}{n}"
    for series in "ABCD"
    for n in range(1, 17)
    if _RANK_OK[series](n) and (series, n) != ("C", 2)
] + ["G2", "F4", "E6", "E7", "E8"]


@pytest.mark.parametrize("name", CANONICAL_RANK_16_TYPES)
def test_closed_form_moves_match_the_diagram_deletions(name):
    t = parse_type(name)
    for levi in (False, True):
        assert set(_moves(t, levi)) == diagram_moves(t, levi), levi


def test_c2_closure_is_that_of_b2():
    """C2 is B2 as a subsystem, so its closure lists it once."""
    assert pseudo_levi_types(parse_type("C2")) == pseudo_levi_types(parse_type("B2"))


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


@pytest.mark.parametrize("name", ["Torus", "G2", "F4", "E6", "E7", "E8"])
def test_rank_floored_membership_matches_closure(name):
    """The search down to rank(s) agrees with the full closure on every
    candidate of rank <= n, members and non-members alike (885 for
    G2-E8)."""
    t = parse_type(name)
    closure = pseudo_levi_types(t)
    for s in factor_multisets(t.rank):
        assert is_pseudo_levi(t, s) == (s in closure), (name, s.name)


@pytest.mark.parametrize("name", RANK_10_TYPES)
def test_closure_above_each_floor_is_the_closure_filtered_by_rank(name):
    t = parse_type(name)
    closure = pseudo_levi_types(t)
    for floor in range(t.rank + 2):
        assert _closure(t, floor) == {s for s in closure if s.rank >= floor}, floor


def test_exceptional_profiles_never_build_the_full_closure(monkeypatch):
    """centralizer-profiles passes for E8 with the full listing refused,
    and its searches all stop above rank 0."""
    def refuse(t):
        raise AssertionError(f"the full closure of {t.name} was asked for")

    floors = []
    search = cartan._closure

    def recorded(t, floor):
        floors.append(floor)
        return search(t, floor)

    monkeypatch.setattr(cartan, "pseudo_levi_types", refuse)
    monkeypatch.setattr(cartan, "_closure", recorded)
    report = run_all(parse_type("E8"), TableStore())
    assert ("centralizer-profiles", "pass", "13 profiles verified") in report.checks
    assert floors and 0 not in floors


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


@pytest.mark.parametrize("text", ["D1", "A0", "E9"])
def test_subsystem_parse_refuses_what_names_no_factor(text):
    with pytest.raises(CartanError, match=rf"^non-canonical type {text}$"):
        Subsystem.parse(text)


# The low-rank identifications of a simple factor, stated apart from
# cartan's own table.
LOW_RANK_ALIASES = {"B1": "A1", "C1": "A1", "C2": "B2", "D3": "A3"}


def _outcome(call):
    """What call returns, or the text of the CartanError it raises."""
    try:
        return call()
    except CartanError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("k", range(17))
@pytest.mark.parametrize("series", "ABCDEFG")
def test_factor_texts_and_closure_factors_agree(series, k):
    """Subsystem.parse reads the text X_k as the closure's moves build
    X_k from (series, k): no factor for X_0 and D_1 (which parse refuses
    as CartanType does), A1 x A1 for D_2, the alias of B1, C1, C2 and
    D3, and otherwise the shared type X_k or its refusal."""
    text = f"{series}{k}"
    parsed = _outcome(lambda: Subsystem.parse(text).factors)
    if k == 0 or text == "D1":
        assert _factors(series, k) == ()
        assert parsed.startswith("error: ")
        assert parsed == _outcome(lambda: CartanType(series, k))
        return
    assert _outcome(lambda: _factors(series, k)) == parsed
    if text == "D2":
        assert parsed == (parse_type("A1"),) * 2
    else:
        assert parsed == _outcome(lambda: (parse_type(LOW_RANK_ALIASES.get(text, text)),))
    if not isinstance(parsed, str):
        assert all(f is parse_type(f.name) for f in parsed)


def test_canonical_types_are_shared():
    assert parse_type("e_8") is parse_type("E8") is simple_type("E", 8)
    assert simple_type("C", 2) is parse_type("B2")
    assert parse_type("T") is parse_type("Torus") is TORUS
    # A direct construction keeps the shared constructor and only
    # compares equal.
    direct = CartanType("E", 8)
    assert direct == parse_type("E8") and direct is not parse_type("E8")
    assert hash(direct) == hash(parse_type("E8"))


@pytest.mark.parametrize("name", CANONICAL_RANK_16_TYPES)
def test_moves_hand_out_shared_factors(name):
    t = parse_type(name)
    for levi in (False, True):
        for child in _moves(t, levi):
            assert all(f is simple_type(f.series, f.rank) for f in child), (levi, child)


@pytest.mark.parametrize(
    "text, message",
    [
        ("B1", "non-canonical type B1"),
        ("Q1", "unknown series 'Q'"),
        ("E9", "non-canonical type E9"),
        (f"A{MAX_RANK + 1}", f"type A{MAX_RANK + 1} exceeds the rank ceiling {MAX_RANK}"),
    ],
)
def test_refused_types_raise_on_every_call_and_are_not_cached(text, message):
    size = _shared.cache_info().currsize
    for _ in range(3):
        with pytest.raises(CartanError, match=f"^{re.escape(message)}$"):
            parse_type(text)
    assert _shared.cache_info().currsize == size


def test_the_type_cache_holds_one_type_per_accepted_pair():
    spellings = ("C13", "c13", "c_13", " C13 ")
    size = _shared.cache_info().currsize
    first = parse_type(spellings[0])
    grown = _shared.cache_info().currsize - size
    assert grown in (0, 1)
    assert all(parse_type(text) is first for text in spellings)
    assert simple_type("C", 13) is first
    assert _shared.cache_info().currsize == size + grown


def test_pickled_types_round_trip_equal():
    for t in (parse_type("E8"), parse_type("B2"), TORUS):
        back = pickle.loads(pickle.dumps(t))
        assert back == t and hash(back) == hash(t) and back.name == t.name


def test_static_subsystem_texts_are_parsed_once_by_a_small_memo():
    texts = {part for moves in _EXCEPTIONAL_MOVES.values()
             for node in moves.split() for part in node.split("/")}
    for classes in tabledata.CENTRALIZER_PROFILES.values():
        for _, entries in classes:
            texts.update(s for s, _ in entries if s != tabledata.FULL)
    assert len(texts) <= Subsystem.parse.cache_info().maxsize <= 128
    Subsystem.parse.cache_clear()
    exceptional = [parse_type(name) for name in ("G2", "F4", "E6", "E7", "E8")]
    first = [centralizer_profiles(t) for t in exceptional]
    misses = Subsystem.parse.cache_info().misses
    assert [centralizer_profiles(t) for t in exceptional] == first
    assert Subsystem.parse.cache_info().misses == misses
    assert Subsystem.parse("E7xA1") is Subsystem.parse("E7xA1")


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


def test_ranks_stop_at_the_ceiling():
    assert parse_type(f"A{MAX_RANK}").rank == MAX_RANK
    for text in (f"A{MAX_RANK + 1}", "B1424", "D5000"):
        with pytest.raises(CartanError, match=rf"^type {text} exceeds the rank ceiling {MAX_RANK}$"):
            parse_type(text)
    with pytest.raises(CartanError, match="exceeds the rank ceiling"):
        Subsystem.parse(f"E8xA{MAX_RANK + 1}")


def test_ascii_decimal_refuses_texts_longer_than_any_accepted_value():
    assert ascii_decimal("999999999989") == 999999999989
    assert ascii_decimal("0" * 12) == 0
    for text in ("1" * 13, "9" * 4400):
        assert ascii_decimal(text) is None
