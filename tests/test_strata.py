import copy
import gc
import re
import sys
import tracemalloc

import pytest

import oracle_strata
from charstrata import cuspidal, groups, labels, tables, verify
from charstrata.cartan import SERIES, TORUS, CartanError, CartanType, CharstrataError, parse_type
from charstrata.cuspidal import enumerate_cs_prime
from charstrata.groups import inventory
from charstrata.labels import enumerate_irr, unit_label
from charstrata.schema import table_document
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
)
from charstrata.tables import (
    DEFAULT_STORE,
    PRIME_SLOTS,
    NoTableAvailable,
    Placement,
    TableFormatError,
    TableStore,
    UnknownStratum,
    component_group,
    find_row,
    is_identity,
)
from charstrata.verify import register_external_table
from conftest import (
    Unwalkable,
    synthetic_b3_table,
    synthetic_c4_table,
    synthetic_d6_table,
    synthetic_spread_table,
)

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
    with pytest.raises(NoTableAvailable):
        find_triple(b5, "-", "(5|)")
    with pytest.raises(NoTableAvailable):
        tau(b5, enumerate_cs_prime(b5)[0])


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
    pl = placement(e7)
    assert pl.relabelled == {(pl.row_of_head["1_0"], 2): ("E6", "eps", 0)}
    e8 = parse_type("E8")
    chars8 = {tau(e8, find_triple(e8, "E7", c, 0, i)).text
              for c in ("1", "eps") for i in (0, 1)}
    assert chars8 == {"84_4", "1_0"}
    pl = placement(e8)
    assert pl.relabelled == {(pl.row_of_head["1_0"], 3): ("E7", "eps", 0)}


@pytest.mark.parametrize("name", TABLE_TYPES)
def test_relabelled_entries_are_the_noted_ones(name):
    # The triple-placement check notes the relabelled entries by count.
    t = parse_type(name)
    pl = placement(t)
    assert len(pl.relabelled) == (1 if name in ("E7", "E8") else 0)
    for (ri, pi), key in pl.relabelled.items():
        assert key != pl.rows[ri].fiber[pi].key
    detail = verify._check_placement(t, pl)[1]
    assert detail.endswith("; 1 duplicated label(s) resolved") == bool(pl.relabelled)


def test_package_attribute_strata_is_the_function_not_the_module():
    # charstrata re-exports the function strata, which shadows the
    # submodule of that name as a package attribute; from-imports and
    # sys.modules still reach the module.
    import sys

    import charstrata
    import charstrata.strata as by_import_as
    from charstrata.strata import fiber as module_fiber

    module = sys.modules["charstrata.strata"]
    assert charstrata.strata is by_import_as is strata is module.strata
    assert module_fiber is fiber is module.fiber


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
    assert [l.text for l in regular_fiber_labels(parse_type("G2"))] == [
        "e(1/1)", "e(1/2)", "e(1/3)", "e(2/3)",
    ]
    labs = regular_fiber_labels(TORUS)
    assert [(l.m, l.k) for l in labs] == [(1, 1)]


def test_unit_stratum_sizes():
    expected = {"G2": 4, "F4": 6, "E6": 4, "E7": 6, "E8": 12, "A6": 1}
    for name, size in expected.items():
        t = parse_type(name)
        assert len(fiber(t, unit_label(t), expand=True)) == size


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
        pl = placement(t)
        for row, expanded in zip(pl.rows, pl.fiber_expanded):
            assert len(bijection_pairing(t, row.stratum)) == len(expanded)


def test_bijection_pairing_refuses_a_row_that_does_not_balance(synthetic_b3_doc):
    # Registration does not check row balance (verify's row-balance
    # does): moving the sign triple into the unit row leaves that row 3
    # triples against 2 elements and the sign row 1 against 2.
    rows = {row["stratum"]: row for row in synthetic_b3_doc["rows"]}
    rows["(3|)"]["fiber"].append(rows["(|1,1,1)"]["fiber"].pop())
    store = TableStore()
    register_external_table(synthetic_b3_doc, store)
    b3 = parse_type("B3")
    for stratum, size in (("(3|)", 3), ("(|1,1,1)", 1)):
        message = f"fiber over {stratum} has {size} triples but the inventory has 2 elements"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
            bijection_pairing(b3, stratum, store)
        assert isinstance(err.value, CharstrataError)


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

    def counting(t, rows, *triples):
        calls.append(t.name)
        return original(t, rows, *triples)

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


@pytest.mark.parametrize("name", ["F4", "A3", "Torus"])
def test_a_store_resolves_a_built_in_table_once(monkeypatch, name):
    calls = _count_resolutions(monkeypatch)
    store = TableStore()
    t = parse_type(name)
    for _ in range(3):
        _query_everything(t, store)
    assert calls == [name]
    assert list(store) == [name]
    assert placement(t, store) is placement(t, store)


def test_deleting_a_type_from_a_store_releases_its_placement(monkeypatch):
    calls = _count_resolutions(monkeypatch)
    store = TableStore()
    e8 = parse_type("E8")
    first = placement(e8, store)
    del store["E8"]
    assert "E8" not in store and calls == ["E8"]
    assert tau(e8, enumerate_cs_prime(e8)[-1], store).text == "1_0"
    assert calls == ["E8", "E8"]
    assert placement(e8, store) is not first and placement(e8, store) == first
    assert calls == ["E8", "E8"]


def test_registration_and_a_first_query_build_each_registry_once(monkeypatch, synthetic_b3_doc):
    """The rows' labels, the enumeration and the placement share one
    build of t's registry and of each relative group's."""
    built = []
    original = labels.enumerate_irr
    monkeypatch.setattr(labels, "enumerate_irr", lambda t: built.append(t.name) or original(t))
    store = TableStore()
    register_external_table(synthetic_b3_doc, store)
    assert built == ["B3", "A1"]
    strata(parse_type("A4"), store)
    assert built == ["B3", "A1", "A4"]


def test_a_dropped_store_releases_the_enumerations_and_registries_it_held():
    """A type's enumeration and registries belong to its placement, and
    a type without a table builds them for one check: after run_all on
    B14 and D16 and strata on A20, each in a fresh store that is then
    dropped, the process holds no more than the small per-type data of
    cartan and cuspidal."""
    verify.run_all(parse_type("G2"), TableStore())  # the once-per-process checks
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for query, name in ((verify.run_all, "B14"), (verify.run_all, "D16"), (strata, "A20")):
            store = TableStore()
            query(parse_type(name), store)
            del store
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 250_000, f"{held} bytes held"


# ---------------------------------------------------------------------------
# The store holds every placement it answers from, keyed by type name.


def test_failed_lookup_caches_nothing():
    store = TableStore()
    b5 = parse_type("B5")
    triple = enumerate_cs_prime(b5)[0]
    message = "^no strata table for B5; register one for classical types$"
    for query in (
        placement,
        strata,
        lambda t, s: tau(t, triple, s),
        lambda t, s: fiber(t, "(5|)", s),
        lambda t, s: c_star(t, "(5|)", s),
        lambda t, s: find_row(t, "(5|)", s),
    ):
        with pytest.raises(NoTableAvailable, match=message):
            query(b5, store)
    assert not store
    register_external_table(synthetic_spread_table("B5"), store)
    assert placement(b5, store).type_name == "B5"
    for tr in enumerate_cs_prime(b5):
        assert tr in [got for got, _ in fiber(b5, tau(b5, tr, store), store, expand=True)]


def test_registering_again_replaces_the_placement(synthetic_b3_doc):
    swapped = copy.deepcopy(synthetic_b3_doc)
    first, last = swapped["rows"][0]["fiber"], swapped["rows"][-1]["fiber"]
    first[1], last[1] = last[1], first[1]
    store = TableStore()
    b3 = parse_type("B3")
    register_external_table(synthetic_b3_doc, store)
    triple = find_triple(b3, "B2", "(2)", store=store)
    before = placement(b3, store)
    assert tau(b3, triple, store).text == "(3|)"
    register_external_table(swapped, store)
    assert placement(b3, store) is not before
    assert tau(b3, triple, store).text == "(|1,1,1)"


STRATUM_QUERIES = {
    "fiber": fiber,
    "fiber-expand": lambda t, s: fiber(t, s, expand=True),
    "c_star": c_star,
    "c_collection": c_collection,
    "component_group": lambda t, s: component_group(t, s, 0),
    "find_row": find_row,
}


@pytest.mark.parametrize("given", ["text", "label"])
@pytest.mark.parametrize("query", sorted(STRATUM_QUERIES))
def test_an_unknown_stratum_has_one_message(query, given):
    e8 = parse_type("E8")
    label = enumerate_irr(parse_type("A3")).by_text("(2,2)")  # no character of E8
    with pytest.raises(UnknownStratum) as err:
        STRATUM_QUERIES[query](e8, label.text if given == "text" else label)
    assert str(err.value) == "'(2,2)' is not a stratum of E8"


def test_warm_queries_call_no_python_function(synthetic_b3_doc):
    """A warm tau, or a warm stratum query given text, calls no Python
    function but itself.  Given a label, the head index misses on the
    label's hash and finds its text in __missing__, and nothing else."""
    store = TableStore()
    register_external_table(synthetic_b3_doc, store)
    asked = []
    for name in ("E8", "A3", "B3"):
        t = parse_type(name)
        pl = placement(t, store)
        asked.append((t, enumerate_cs_prime(t)[-1], pl.rows[-1].stratum))

    def calls_of(function, *args):
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            function(*args)
        finally:
            sys.setprofile(None)
        return calls

    for t, triple, label in asked:
        assert calls_of(tau, t, triple, store) == ["tau"]
        by_label = calls_of(hash, label) + ["__missing__"]
        assert by_label[0] == "__hash__"
        for query, *rest in ((fiber, False), (fiber, True), (c_star,), (c_collection,),
                             (find_row,)):
            name = query.__name__
            assert calls_of(query, t, label.text, store, *rest) == [name]
            assert calls_of(query, t, label, store, *rest) == [name, *by_label]


def test_fresh_stores_answer_equally_from_distinct_placements():
    for name in ("E8", "A3", "Torus"):
        t = parse_type(name)
        one, other = TableStore(), TableStore()
        first, second = placement(t, one), placement(t, other)
        assert first is not second and first.rows is not second.rows
        assert first == second, name
        for tr in enumerate_cs_prime(t):
            assert tau(t, tr, one) == tau(t, tr, other)
        for lab in strata(t, one):
            for expand in (False, True):
                assert fiber(t, lab, one, expand=expand) == fiber(t, lab, other, expand=expand)
            assert c_star(t, lab, one) == c_star(t, lab, other)


def test_registration_installs_only_tables_that_are_not_built_in(
    monkeypatch, synthetic_b3_doc
):
    installed = []
    install = TableStore.install

    def counting(self, placed):
        installed.append(placed.type_name)
        install(self, placed)

    monkeypatch.setattr(TableStore, "install", counting)
    store = TableStore()
    register_external_table(synthetic_b3_doc, store)
    b3 = parse_type("B3")
    registered = placement(b3, store)
    assert installed == ["B3"]
    for name in ("A2", "Torus", "E8"):
        t = parse_type(name)
        # A built-in table is checked against the submission, not installed:
        # the store resolved it to compare, and keeps answering from that.
        built_in = placement(t, store)
        register_external_table(table_document(t), store)
        assert placement(t, store) is built_in, name
    assert installed == ["B3"]
    assert placement(b3, store) is registered
    with pytest.raises(NoTableAvailable):
        placement(b3, TableStore())


def test_install_refuses_to_replace_an_embedded_table():
    store = TableStore()
    e8 = placement(parse_type("E8"), TableStore())
    with pytest.raises(TableFormatError, match="E8 is embedded; external copies are only checked"):
        store.install(e8)
    assert "E8" not in store


@pytest.mark.parametrize("name", ["A2", "Torus"])
def test_install_refuses_to_replace_an_identity_table(name):
    """A resolved placement of an identity type, here with [C2] rows,
    leaves the built-in identity table in place."""
    t = parse_type(name)
    head = enumerate_irr(t).labels[0].text
    rows = tables.build_rows(
        t, ((lab.text, (), "[C2]") for lab in enumerate_irr(t).labels), enumerate_cs_prime(t))
    store = TableStore()
    with pytest.raises(TableFormatError, match=f"{name} is built in; external copies are only checked"):
        store.install(tables.resolve_placement(t, rows))
    assert name not in store
    assert [e.irrep for e in c_star(t, head, store)] == ["1"]


def test_warm_queries_hash_no_cartan_type(monkeypatch, synthetic_b3_doc):
    store = TableStore()
    register_external_table(synthetic_b3_doc, store)

    def ask(t, triple, head):
        return (tau(t, triple, store), fiber(t, head, store), c_star(t, head, store),
                c_collection(t, head, store), find_row(t, head, store))

    warm = []
    for name in ("E8", "A3", "B3"):
        t = parse_type(name)
        triple = enumerate_cs_prime(t)[-1]
        head = placement(t, store).rows[-1].stratum.text
        warm.append((t, triple, head, ask(t, triple, head)))

    def refuse(self):
        raise AssertionError(f"{self.name} was hashed")

    monkeypatch.setattr(CartanType, "__hash__", refuse)
    for t, triple, head, answer in warm:
        assert ask(t, triple, head) == answer


def test_stores_holding_different_tables_answer_independently(synthetic_b3_doc):
    swapped = copy.deepcopy(synthetic_b3_doc)
    first, last = swapped["rows"][0]["fiber"], swapped["rows"][-1]["fiber"]
    first[1], last[1] = last[1], first[1]
    plain, other = TableStore(), TableStore()
    register_external_table(synthetic_b3_doc, plain)
    register_external_table(swapped, other)
    b3 = parse_type("B3")
    triple = find_triple(b3, "B2", "(2)", store=plain)
    assert tau(b3, triple, plain).text == "(3|)"
    assert tau(b3, triple, other).text == "(|1,1,1)"
    assert [tr.describe() for tr, _ in fiber(b3, "(3|)", plain)] == ["(3|)", "(B2,(2),*)[0]"]
    assert [tr.describe() for tr, _ in fiber(b3, "(3|)", other)] == ["(3|)", "(B2,(1,1),*)[0]"]
    assert placement(b3, plain) is not placement(b3, other)


@pytest.mark.parametrize("name", TABLE_TYPES + ["B12"])
def test_tau_index_agrees_with_a_scan_of_the_placement(name):
    t = parse_type(name)
    store = DEFAULT_STORE
    if name not in TABLE_TYPES:
        store = TableStore()
        register_external_table(synthetic_spread_table(name), store)
    pl = placement(t, store)
    # Every entry as (resolved triple key, stratum), in resolved order:
    # the entries that stand for their printed key in table order, then
    # the relabelled ones in the order they were assigned.
    placed = [
        (en.key, row.stratum)
        for ri, row in enumerate(pl.rows)
        for pi, en in enumerate(row.fiber)
        if (ri, pi) not in pl.relabelled
    ] + [(key, pl.rows[ri].stratum) for (ri, pi), key in pl.relabelled.items()]

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
        assert component_group(t, lab, 3, store) == "1"
    assert [len(expanded) for expanded in placement(t, store).fiber_expanded] == [1] * len(labels)
    assert len(fiber(t, unit_label(t), store, expand=True)) == 1
    assert bijection_witness(t, store) == [(lab.text, 1, 1) for lab in labels]
    assert list(store) == [t.name]


# ---------------------------------------------------------------------------
# Stratum answers are read from rows and placements built once.

FIXTURES = {"B3": synthetic_b3_table, "C4": synthetic_c4_table, "D6": synthetic_d6_table}
ORACLE_TYPES = TABLE_TYPES + [f"A{n}" for n in range(1, 6)] + ["Torus"] + list(FIXTURES)


def _answering_store(name: str) -> TableStore:
    """A store that answers for name: empty for embedded and identity
    types, holding the fixture table for B3, C4 and D6."""
    store = TableStore()
    if name in FIXTURES:
        register_external_table(FIXTURES[name](), store)
    return store


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_stratum_answers_agree_with_the_per_call_oracle(name):
    t = parse_type(name)
    store = _answering_store(name)
    pl = placement(t, store)
    for ri, row in enumerate(pl.rows):
        want_labels = oracle_strata.labels(row)
        assert find_row(t, row.stratum, store) is find_row(t, row.stratum.text, store) is row
        for r in PRIME_SLOTS:
            assert component_group(t, row.stratum, r, store) == component_group(
                t, row.stratum.text, r, store) == row.annotation.group_at(r)
        for query in (row.stratum, row.stratum.text):
            coll = c_collection(t, query, store)
            assert (coll.kind, coll.tags, coll.quotient) == oracle_strata.collection(row)
            got = [(e.group, e.irrep, e.origin) for e in c_star(t, query, store)]
            assert got == want_labels
            for expand in (False, True):
                assert fiber(t, query, store, expand=expand) == oracle_strata.fiber(
                    t, pl, ri, expand)
    assert bijection_witness(t, store) == [
        (row.stratum.text, sum(en.mult for en in row.fiber), len(oracle_strata.labels(row)))
        for row in pl.rows
    ]


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_collection_of_head_holds_each_rows_own_collection(name):
    """collection_of_head[head] is the very GroupCollection the head's
    row annotation holds, and c_collection and c_star answer alike given
    the head's label or its text."""
    t = parse_type(name)
    store = _answering_store(name)
    pl = placement(t, store)
    assert list(pl.collection_of_head) == list(pl.row_of_head)
    for row in pl.rows:
        head, coll = row.stratum, row.annotation.collection
        assert pl.collection_of_head[head.text] is pl.collection_of_head[head] is coll
        assert c_collection(t, head, store) is c_collection(t, head.text, store) is coll
        assert c_star(t, head, store) == c_star(t, head.text, store) == list(coll.labels)


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_row_kinds_agree_with_the_per_call_oracle(name):
    t = parse_type(name)
    pl = placement(t, _answering_store(name))
    assert [(id(a), f, ri) for a, f, ri in pl.row_kinds] == oracle_strata.row_kinds(t, pl)
    for a, _, ri in pl.row_kinds:
        assert a is pl.rows[ri].annotation


@pytest.mark.parametrize("name", ["E8", "F4", "B3", "A3"])
def test_mutating_an_answer_leaves_the_next_one_alone(name):
    t = parse_type(name)
    store = _answering_store(name)
    queries = (
        lambda s: c_star(t, s, store),
        lambda s: fiber(t, s, store),
        lambda s: fiber(t, s, store, expand=True),
    )
    for row in placement(t, store).rows:
        for query in queries:
            first = query(row.stratum)
            expected = list(first)
            first.reverse()
            first.append(None)
            assert query(row.stratum) == expected


def test_built_tables_answer_without_recomputing(monkeypatch):
    stores = {name: _answering_store(name) for name in ORACLE_TYPES}
    built = {name: placement(parse_type(name), stores[name]) for name in ORACLE_TYPES}

    def refuse(*args, **kwargs):
        raise AssertionError("recomputed after the table was built")

    patched = (
        (groups, ("inventory", "pullback_inventory", "faithful_cyclic_inventory",
                  "group_collection")),
        (cuspidal, ("enumerate_cs_prime",)),
        (tables, ("enumerate_cs_prime", "group_collection")),
    )
    for module, names in patched:
        for attr in names:
            monkeypatch.setattr(module, attr, refuse)
    for name, pl in built.items():
        t, store = parse_type(name), stores[name]
        for row, expanded in zip(pl.rows, pl.fiber_expanded):
            size = len(expanded)
            assert c_collection(t, row.stratum, store) is row.annotation.collection
            assert len(c_star(t, row.stratum, store)) == size
            assert fiber(t, row.stratum, store)[0][0].character == row.stratum
            assert len(fiber(t, row.stratum, store, expand=True)) == size
        assert len(bijection_witness(t, store)) == len(pl.rows)
        # find_triple reads the placement's index, not its enumeration.
        store[name] = Placement(*(
            Unwalkable(pl.triples) if f == "triples" else getattr(pl, f)
            for f in Placement._fields))
        for tr in pl.triples[:]:
            coordinates = (tr.levi.levi_name, tr.character.text, tr.d, tr.index)
            assert find_triple(t, *coordinates, store) is tr


def test_rows_share_one_collection_per_kind_tags_and_quotient():
    by_fields: dict[tuple, GroupCollection] = {}
    for name in TABLE_TYPES + ["A3"]:
        for row in placement(parse_type(name)).rows:
            coll = row.annotation.collection
            assert by_fields.setdefault((coll.kind, coll.tags, coll.quotient), coll) is coll
    assert ("single", ("1",), None) in by_fields and ("triple", ("C4", "C3", "C5"), None) in by_fields


def test_find_triple_agrees_with_a_scan_of_the_enumeration():
    """find_triple against a reference scan of the enumeration a stored
    placement holds: every triple's coordinates with d given and
    omitted, and coordinates that name no triple (another d, the next
    or a negative index, a character of no Levi).  A type without a
    table is refused before anything is sought: B5, and each fixture
    type asked of a store that does not hold it."""

    def scan(triples, levi_name, text, d, index):
        return [
            tr for tr in triples
            if tr.levi.levi_name == levi_name and tr.character.text == text
            and (d is None or tr.d == d) and tr.index == index
        ]

    outcomes = set()
    for name in [*TABLE_TYPES, *FIXTURES, "A3"]:
        t, store = parse_type(name), _answering_store(name)
        triples = placement(t, store).triples
        asked = dict.fromkeys(
            (tr.levi.levi_name, tr.character.text, d, i)
            for tr in triples
            for d, i in ((None, tr.index), (tr.d, tr.index), (None, tr.index + 1),
                         (99, tr.index), (tr.d, -1))
        )
        asked[("-", "nope", None, 0)] = asked[("-", "nope", 3, 1)] = None
        for coordinates in asked:
            levi_name, text, d, index = coordinates
            matches = scan(triples, *coordinates)
            if len(matches) == 1:
                assert find_triple(t, *coordinates, store=store) is matches[0]
                outcomes.add("found")
                continue
            with pytest.raises(TripleNotFound) as err:
                find_triple(t, *coordinates, store=store)
            if matches:
                want = f"({levi_name},{text}) is ambiguous in {t.name}; give --d"
                outcomes.add("ambiguous")
            else:
                want = f"no triple ({levi_name},{text},d={d},i={index}) in {t.name}"
                outcomes.add("no triple")
            assert str(err.value) == want
    assert outcomes == {"found", "ambiguous", "no triple"}
    for name in ["B5", *FIXTURES]:
        t, store = parse_type(name), TableStore()
        with pytest.raises(NoTableAvailable) as err:
            find_triple(t, "-", enumerate_irr(t).labels[0].text, store=store)
        assert str(err.value) == f"no strata table for {t.name}; register one for classical types"
        assert not store


def test_find_triple_reads_the_levi_spellings_of_table_entries():
    e8, b3, store = parse_type("E8"), parse_type("B3"), _answering_store("B3")
    assert find_triple(e8, "e_7", "eps") == find_triple(e8, "E7", "eps")
    assert find_triple(b3, "b_2", "(2)", store=store) == find_triple(b3, "B2", "(2)", store=store)
    assert find_triple(e8, "", "1_0") == find_triple(e8, "-", "1_0")
    with pytest.raises(TripleNotFound) as err:
        find_triple(e8, "Z9", "eps")
    assert str(err.value) == "no triple (Z9,eps,d=None,i=0) in E8"
