import copy

import pytest

from charstrata import tables, verify
from charstrata.cartan import SERIES, TORUS, CartanError, CartanType, parse_type
from charstrata.cuspidal import enumerate_cs_prime
from charstrata.groups import inventory
from charstrata.labels import enumerate_irr
from charstrata.strata import (
    CStarElement,
    GroupCollection,
    TripleNotFound,
    bijection_pairing,
    bijection_witness,
    c_collection,
    c_star,
    fiber,
    find_triple,
    placement,
    regular_fiber_labels,
    strata,
    tau,
    unit_stratum_fiber_size,
)
from charstrata.tables import (
    DEFAULT_STORE,
    NoTableAvailable,
    TableStore,
    UnknownStratum,
    component_group,
    find_row,
    is_identity,
)
from charstrata.verify import register_external_table
from conftest import synthetic_spread_table

TABLE_TYPES = ["G2", "F4", "E6", "E7", "E8"]
TOTALS = {"G2": 10, "F4": 37, "E6": 30, "E7": 76, "E8": 165}


def test_tau_examples():
    g2 = parse_type("G2")
    assert tau(g2, find_triple(g2, "G2", "1", 1)).text == "theta'"
    e8 = parse_type("E8")
    assert tau(e8, find_triple(e8, "D4", "chi_{4,1}")).text == "35_2"
    a3 = parse_type("A3")
    assert tau(a3, find_triple(a3, "-", "(2,1,1)")).text == "(2,1,1)"
    assert tau(TORUS, find_triple(TORUS, "-", "1")).text == "1"


def test_tau_is_total_and_fibers_partition():
    for name in TABLE_TYPES:
        t = parse_type(name)
        heads = {row.stratum.text for row in DEFAULT_STORE.table(t)}
        hit = set()
        for tr in enumerate_cs_prime(t):
            hit.add(tau(t, tr).text)
        assert hit == heads  # surjectivity onto the strata
        seen = []
        for row in DEFAULT_STORE.table(t):
            for tr, _ in fiber(t, row.stratum, expand=True):
                seen.append((tr.levi.levi_name, tr.character.text, tr.d, tr.index))
        expected = [
            (tr.levi.levi_name, tr.character.text, tr.d, tr.index)
            for tr in enumerate_cs_prime(t)
        ]
        assert sorted(seen) == sorted(expected)


def test_tau_rejects_foreign_triples():
    g2 = parse_type("G2")
    with pytest.raises(TripleNotFound):
        find_triple(g2, "G2", "1", 9)
    e8 = parse_type("E8")
    with pytest.raises(TripleNotFound):
        find_triple(e8, "E8", "1")  # ambiguous without d
    b5 = parse_type("B5")
    triple = find_triple(b5, "-", "(5|)")
    with pytest.raises(NoTableAvailable):
        tau(b5, triple)


def test_fiber_examples():
    e8 = parse_type("E8")
    assert [m for _, m in fiber(e8, "1_120")] == [1]
    f4_pairs = fiber(parse_type("F4"), "chi_{1,1}")
    assert [m for _, m in f4_pairs] == [1, 1, 4]
    assert sum(m for _, m in f4_pairs) == 6
    pairs = fiber(e8, "4480_16")
    assert sum(m for _, m in pairs) == 7
    assert any(tr.levi.levi_name == "E8" and tr.d == 16 for tr, _ in pairs)
    expanded = fiber(e8, "1_0", expand=True)
    assert len(expanded) == 12 and all(m == 1 for _, m in expanded)


def test_duplicated_labels_resolve_to_both_characters():
    e7 = parse_type("E7")
    chars = {tau(e7, find_triple(e7, "E6", c, 0, i)).text
             for c in ("1", "eps") for i in (0, 1)}
    assert chars == {"21_3", "1_0"}
    assert len(placement(e7).notes) == 1
    e8 = parse_type("E8")
    chars8 = {tau(e8, find_triple(e8, "E7", c, 0, i)).text
              for c in ("1", "eps") for i in (0, 1)}
    assert chars8 == {"84_4", "1_0"}


def test_c_collection_examples():
    g2 = parse_type("G2")
    assert c_collection(g2, "theta'").tags == ("C2",)
    assert c_collection(g2, "eps_l").tags == ("1",)
    f4 = parse_type("F4")
    assert c_collection(f4, "chi_{1,1}").kind == "pair"
    assert c_collection(f4, "chi_{1,1}").tags == ("C4", "C3")
    assert c_collection(f4, "chi_{12}").tags == ("S3",)
    e8 = parse_type("E8")
    assert c_collection(e8, "1_0").kind == "triple"
    assert c_collection(e8, "1_0").tags == ("C4", "C3", "C5")
    assert c_collection(e8, "112_3").tags == ("C2xC2", "C2xC3")
    assert c_collection(parse_type("A5"), "(6)").tags == ("1",)
    assert c_collection(TORUS, "1").tags == ("1",)


def test_c_star_sizes():
    e8 = parse_type("E8")
    assert len(c_star(e8, "1_0")) == 12
    assert len(c_star(parse_type("F4"), "chi_{9,1}")) == 5
    assert len(c_star(e8, "112_3")) == 8
    origins = {e.origin for e in c_star(e8, "1_0")}
    assert origins == {f"faithful-C{m}" for m in range(1, 7)}


def test_pair_inventory_arithmetic():
    # |first| + |second| - |quotient| for the three deviating pairs
    sizes = {("C2", "C3"): 4, ("C4", "C3"): 6, ("C2xC2", "C2xC3"): 8}
    seen = set()
    for name in TABLE_TYPES:
        t = parse_type(name)
        for row in DEFAULT_STORE.table(t):
            coll = c_collection(t, row.stratum)
            if coll.kind != "pair":
                continue
            seen.add(coll.tags)
            expected = (
                len(inventory(coll.tags[0]))
                + len(inventory(coll.tags[1]))
                - len(inventory(coll.quotient))
            )
            assert len(c_star(t, row.stratum)) == expected == sizes[coll.tags]
    assert seen == set(sizes)


def test_bijection_witness_rows():
    g2 = parse_type("G2")
    w = bijection_witness(g2)
    assert [(f, c) for _, f, c in w] == [(1, 1), (1, 1), (1, 1), (1, 1), (2, 2), (4, 4)]
    f4 = dict((h, (f, c)) for h, f, c in bijection_witness(parse_type("F4")))
    assert f4["chi_{12}"] == (3, 3)
    for name in TABLE_TYPES:
        t = parse_type(name)
        witness = bijection_witness(t)
        assert all(f == c for _, f, c in witness)
        assert sum(f for _, f, _ in witness) == TOTALS[name]


def test_regular_fiber_labels():
    assert len(regular_fiber_labels(parse_type("E8"))) == 12
    assert len(regular_fiber_labels(parse_type("F4"))) == 6
    assert len(regular_fiber_labels(parse_type("E6"))) == 4
    assert len(regular_fiber_labels(parse_type("A9"))) == 1
    assert len(regular_fiber_labels(parse_type("B7"))) == 2
    labs = regular_fiber_labels(TORUS)
    assert [(l.m, l.k) for l in labs] == [(1, 1)]


def test_unit_stratum_sizes():
    expected = {"G2": 4, "F4": 6, "E6": 4, "E7": 6, "E8": 12}
    for name, size in expected.items():
        assert unit_stratum_fiber_size(parse_type(name)) == size
    assert unit_stratum_fiber_size(parse_type("A6")) == 1


def test_strata_listing():
    assert [lab.text for lab in strata(TORUS)] == ["1"]
    assert len(strata(parse_type("A2"))) == 3
    assert [lab.text for lab in strata(parse_type("G2"))] == [
        "eps", "eps_l", "eps_c", "theta''", "theta'", "1",
    ]
    with pytest.raises(NoTableAvailable):
        strata(parse_type("C5"))


def test_first_fiber_entry_is_head():
    for name in TABLE_TYPES:
        t = parse_type(name)
        for row in DEFAULT_STORE.table(t):
            tr, m = fiber(t, row.stratum)[0]
            assert tr.levi.is_empty and m == 1
            assert tr.character == row.stratum


def test_bijection_pairing_is_deterministic_and_total():
    e8 = parse_type("E8")
    pairing = bijection_pairing(e8, "1_0")
    assert len(pairing) == 12
    assert pairing == bijection_pairing(e8, "1_0")
    # the triple inventory pairs the unit stratum with the faithful
    # cyclic characters, i.e. with primitive roots of unity
    assert [el.origin for _, el in pairing] == (
        ["faithful-C1"] + ["faithful-C2"] + ["faithful-C3"] * 2
        + ["faithful-C4"] * 2 + ["faithful-C5"] * 4 + ["faithful-C6"] * 2
    )
    for name in TABLE_TYPES:
        t = parse_type(name)
        for row in DEFAULT_STORE.table(t):
            assert len(bijection_pairing(t, row.stratum)) == row.fiber_size


def test_enumeration_order_is_documented_shape():
    e8 = parse_type("E8")
    triples = enumerate_cs_prime(e8)
    assert triples[0].levi.is_empty and triples[0].character.text == "1_120"
    last = triples[-1]
    assert last.levi.levi_name == "E8" and last.d == 0 and last.index == 5
    d_vals = [tr.d for tr in triples if tr.levi.levi_name == "E8"]
    assert d_vals == [16, 7, 6, 3, 3, 1, 1, 0, 0, 0, 0, 0, 0]


def _count_resolutions(monkeypatch) -> list[str]:
    """Route every placement resolution through a counter; returns the
    list of type names it was called for."""
    calls: list[str] = []
    original = tables.resolve_placement

    def counting(t, rows):
        calls.append(t.name)
        return original(t, rows)

    monkeypatch.setattr(tables, "resolve_placement", counting)
    monkeypatch.setattr(verify, "resolve_placement", counting)
    return calls


def _query_everything(t, store) -> None:
    for tr in enumerate_cs_prime(t):
        tau(t, tr, store)
    for lab in strata(t, store):
        fiber(t, lab, store)
        fiber(t, lab, store, expand=True)
        c_star(t, lab, store)
        find_row(t, lab, store)


def test_registered_table_is_resolved_once(monkeypatch, synthetic_b3_doc):
    calls = _count_resolutions(monkeypatch)
    store = TableStore()
    register_external_table(synthetic_b3_doc, store)
    b3 = parse_type("B3")
    for _ in range(3):
        _query_everything(b3, store)
    assert calls == ["B3"]
    assert placement(b3, store) is placement(b3, store)


def test_embedded_table_is_resolved_once_per_process(monkeypatch):
    calls = _count_resolutions(monkeypatch)
    tables._embedded_placement.cache_clear()
    f4 = parse_type("F4")
    assert len(TableStore().table(f4)) == len(strata(f4)) == 20
    assert calls == []  # the rows alone do not pay for placement
    first = placement(f4, TableStore())
    for store in (TableStore(), TableStore(), DEFAULT_STORE):
        assert placement(f4, store) is first
        _query_everything(f4, store)
    assert calls == ["F4"]


def test_stores_holding_different_tables_answer_independently(synthetic_b3_doc):
    swapped = copy.deepcopy(synthetic_b3_doc)
    first, last = swapped["rows"][0]["fiber"], swapped["rows"][-1]["fiber"]
    first[1], last[1] = last[1], first[1]
    plain, other = TableStore(), TableStore()
    register_external_table(synthetic_b3_doc, plain)
    register_external_table(swapped, other)
    b3 = parse_type("B3")
    triple = find_triple(b3, "B2", "(2)")
    assert tau(b3, triple, plain).text == "(3|)"
    assert tau(b3, triple, other).text == "(|1,1,1)"
    assert [tr.describe() for tr, _ in fiber(b3, "(3|)", plain)] == ["(3|)", "(B2,(2),*)[0]"]
    assert [tr.describe() for tr, _ in fiber(b3, "(3|)", other)] == ["(3|)", "(B2,(1,1),*)[0]"]
    assert placement(b3, plain) is not placement(b3, other)


@pytest.mark.parametrize("name", TABLE_TYPES + ["B12"])
def test_tau_index_agrees_with_a_scan_of_the_placement(name):
    t = parse_type(name)
    store = DEFAULT_STORE
    if not store.has_table(t):
        store = TableStore()
        register_external_table(synthetic_spread_table(name), store)
    pl = placement(t, store)
    # Every resolved entry as (triple key, stratum), in resolved order.
    placed = [
        ((pl.rows[ri].fiber[pi].levi_name, txt, pl.rows[ri].fiber[pi].d_semantic),
         pl.rows[ri].stratum)
        for (ri, pi), txt in pl.resolved.items()
    ]

    def scan(tr):
        wanted = tr.key
        for key, stratum in placed:
            if key == wanted:
                return stratum
        raise AssertionError(f"{tr.describe()} is not placed")

    for tr in enumerate_cs_prime(t):
        assert tau(t, tr, store) == scan(tr)


def test_torus_rejects_foreign_triples_and_unknown_strata():
    for tr in enumerate_cs_prime(parse_type("E8")):
        with pytest.raises(TripleNotFound, match=r"is not a triple of Torus$"):
            tau(TORUS, tr)
    (only,) = enumerate_cs_prime(TORUS)
    assert only.key == ("-", "1", 0)
    assert tau(TORUS, only).text == "1"
    assert [lab.text for lab in strata(TORUS)] == ["1"]
    assert fiber(TORUS, "1") == [(only, 1)]
    assert c_collection(TORUS, "1").text == "1"
    for query in (fiber, c_collection, c_star):
        with pytest.raises(UnknownStratum, match=r"^'nope' is not a stratum of Torus$"):
            query(TORUS, "nope")


def test_is_identity_exactly_for_series_a_and_the_torus():
    seen = set()
    for series in SERIES:
        for rank in range(13):
            try:
                t = CartanType(series, rank)
            except CartanError:
                continue
            assert is_identity(t) == (series in ("A", "Torus")), t.name
            seen.add(series)
    assert seen == set(SERIES)


IDENTITY_TYPES = ["Torus"] + [f"A{n}" for n in range(1, 7)]


@pytest.mark.parametrize("name", IDENTITY_TYPES)
def test_identity_types_answer_as_the_identity(name):
    # The parametrization of a type whose only cuspidal Levi is the empty
    # one, stated directly: each character is its own stratum, fibered by
    # its own empty-Levi triple, with the trivial group attached.
    t = parse_type(name)
    store = TableStore()
    labels = list(enumerate_irr(t).labels)
    triples = enumerate_cs_prime(t)
    assert [tr.character for tr in triples] == labels
    assert strata(t, store) == labels
    trivial = [CStarElement("1", irrep, "single") for irrep in inventory("1")]
    for tr, lab in zip(triples, labels):
        assert tau(t, tr, store) == lab
        for query in (lab, lab.text):
            assert fiber(t, query, store) == [(tr, 1)]
            assert fiber(t, query, store, expand=True) == [(tr, 1)]
            assert c_collection(t, query, store) == GroupCollection("single", ("1",))
            assert c_star(t, query, store) == trivial
        assert find_row(t, lab, store).fiber_size == 1
        assert component_group(t, lab, 3, store) == "1"
    assert unit_stratum_fiber_size(t, store) == 1
    assert bijection_witness(t, store) == [(lab.text, 1, 1) for lab in labels]
    assert not store.has_table(t)
