import ast
import json
import importlib.util
import re
from pathlib import Path

import pytest

from charstrata import tables, tabledata
from charstrata.cartan import CartanError, Subsystem, parse_type
from charstrata.cuspidal import (
    centralizer_profile, centralizer_profiles, cuspidal_counts, enumerate_cs_prime, triple_count,
)
from charstrata.strata import tau
from charstrata.tables import (
    DEFAULT_STORE,
    NoTableAvailable,
    PlacementMismatch,
    TableFormatError,
    TRIPLE_BUDGET,
    TableStore,
    TripleBudgetExceeded,
    UnknownStratum,
    component_group,
    embedded_table,
    find_row,
    _printed_annotation,
    build_rows,
    built_in_source,
    levi_name_of,
    parse_annotation,
    placement,
    registry_gaps,
    resolve_placement,
)
from charstrata.schema import canonical_json, parse_table_document, table_document
from charstrata.verify import register_external_table
from conftest import source_nodes, synthetic_b3_table, synthetic_c4_table, synthetic_d6_table

ROW_COUNTS = {"G2": 6, "F4": 20, "E6": 21, "E7": 46, "E8": 74}


@pytest.mark.parametrize("name,count", sorted(ROW_COUNTS.items()))
def test_row_counts(name, count):
    t = parse_type(name)
    assert len(DEFAULT_STORE.table(t)) == count
    assert embedded_table(t) == DEFAULT_STORE.table(t)


def test_built_in_source_names_the_embedded_and_identity_types():
    assert [built_in_source(parse_type(n)) for n in ("E8", "A2", "Torus", "B3")] == [
        "embedded", "built in", "built in", None]


def test_levi_name_of_reads_spellings_as_parse_type_does():
    assert [levi_name_of(text) for text in ("-", "", "E7", "e_7", "b_2", "Z9")] == [
        "-", "-", "E7", "E7", "B2", "Z9"]


def test_no_table_for_plain_classical():
    with pytest.raises(NoTableAvailable):
        DEFAULT_STORE.table(parse_type("B5"))


def test_e6_unit_row_fiber():
    row = find_row(parse_type("E6"), "1_0")
    keys = [(en.levi_name, en.character.text, en.mult) for en in row.fiber]
    assert keys == [("-", "1_0", 1), ("D4", "1", 1), ("E6", "1", 2)]
    pl = placement(parse_type("E6"))
    assert len(pl.fiber_expanded[pl.row_of_head["1_0"]]) == 4


def test_f4_d8_row_fiber_size():
    row = find_row(parse_type("F4"), "chi_{9,1}")
    pl = placement(parse_type("F4"))
    assert len(pl.fiber_expanded[pl.row_of_head["chi_{9,1}"]]) == 5
    texts = [en.character.text for en in row.fiber]
    assert texts == ["chi_{9,1}", "chi_{2,1}", "chi_{2,3}", "theta", "1"]


def test_component_group_examples():
    assert component_group(parse_type("F4"), "chi_{12}", 3) == "S4"
    assert component_group(parse_type("F4"), "chi_{12}", 2) == "S3"
    assert component_group(parse_type("E8"), "1_0", 5) == "C5"
    assert component_group(parse_type("E8"), "1_0", 0) == "1"
    assert component_group(parse_type("G2"), "eps_l", 2) is None
    assert component_group(parse_type("G2"), "eps_l", 3) == "1"
    # full-membership rows repeat the characteristic-0 group at r=5
    assert component_group(parse_type("F4"), "chi_{1,1}", 5) == "1"
    assert component_group(parse_type("E8"), "112_3", 5) == "C2"
    with pytest.raises(UnknownStratum):
        component_group(parse_type("G2"), "nope", 2)
    with pytest.raises(TableFormatError):
        component_group(parse_type("G2"), "eps", 7)


def test_membership_and_boxed_flags():
    g2 = parse_type("G2")
    assert find_row(g2, "eps_l").annotation.r0 == 3
    assert find_row(g2, "eps").annotation.boxed == frozenset({"single"})
    assert find_row(g2, "theta'").annotation.boxed == frozenset({3})
    f4 = parse_type("F4")
    assert find_row(f4, "chi_{2,2}").annotation.r0 == 2
    e8 = parse_type("E8")
    assert find_row(e8, "175_12").annotation.r0 == 3
    assert find_row(e8, "1_0").annotation.r0 is None
    assert find_row(e8, "1_0").annotation.boxed == frozenset({2, 3, 5})
    assert dict(find_row(e8, "1_0").annotation.groups) == {2: "C4", 3: "C3", 5: "C5", 0: "1"}


def _bench_synthetic_table(type_name: str, seed: int) -> dict:
    """The benchmark's seeded synthetic table (bench/synth.py)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "synth.py"
    spec = importlib.util.spec_from_file_location("bench_synth", path)
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    return synth.synthetic_table(type_name, seed)[0]


def test_rows_printing_the_same_annotation_share_one():
    """A table holds one Annotation per distinct annotation, built from
    the printed tables and the JSON loader alike."""
    e8_rows = placement(parse_type("E8")).rows
    _, b12_rows = parse_table_document(_bench_synthetic_table("B12", 1))
    for rows, count, distinct in ((e8_rows, 74, 17), (b12_rows, 1165, 5)):
        held = {id(row.annotation): row.annotation for row in rows}
        assert (len(rows), len(held), len(set(held.values()))) == (count, distinct, distinct)


def test_annotation_parser_s2_normalizes():
    groups, boxed = parse_annotation("[S2],1,(1)")
    assert groups == {2: "C2", 3: "1", 0: "1"}
    assert boxed == frozenset({2})
    assert _printed_annotation("[S2],1,(1)").r0 is None


def test_annotation_parser_rejects_garbage():
    with pytest.raises(TableFormatError):
        _printed_annotation("C2,C3,(1)")  # nothing boxed
    with pytest.raises(TableFormatError):
        _printed_annotation("[C2],C3")  # truncated
    with pytest.raises(TableFormatError):
        _printed_annotation("-,-,(-)")


def _breaks_rule(ann: str, shape: str, message: str):
    return pytest.param(ann, message, id=f"{ann}-{shape}")


# The first six break the printed grammar, which parse_annotation
# refuses; the others break a rule of the datum, which Annotation
# refuses.  _printed_annotation names the printed text in each.  Each
# case's id names its shape.
@pytest.mark.parametrize("ann,message", [
    ("C2", "constant annotation must be boxed"),
    ("[C2,S3],(1),(1)", "bad boxed-collection annotation"),
    ("[C2,S3,C2,S3],(1)", "boxed collection of size 4"),
    ("C2,S3", "expected 3 entries"),
    ("[C2],1,1", "characteristic-0 entry must be (..)"),
    ("[Q8],1,(1)", "unknown component group 'Q8'"),
    _breaks_rule("1,1,(1)", "no boxed entry", "a row must box at least one group"),
    _breaks_rule("-,1,(-)", "bad singleton annotation", "a row must box at least one group"),
    _breaks_rule("-,-,([1])", "singleton at characteristic 0",
                 "a singleton row must define and box one of 2, 3, 5"),
    _breaks_rule("[C2],[1],(-)", "partial annotation is neither full nor singleton",
                 "a row must define characteristics 0, 2 and 3, or one of 2, 3 and 5 alone"),
    _breaks_rule("[C2],1,([1])", "boxed characteristic 0", "bad boxed flags ['0', '2']"),
])
def test_annotation_parser_names_each_malformed_shape(ann, message):
    with pytest.raises(TableFormatError) as err:
        _printed_annotation(ann)
    assert str(err.value) == f"{message}: {ann!r}"


_REGISTERED = {
    "B3": synthetic_b3_table, "C4": synthetic_c4_table, "D6": synthetic_d6_table,
    "B12": lambda: _bench_synthetic_table("B12", 1),
}


@pytest.mark.parametrize("name", [*sorted(ROW_COUNTS), "A4", "Torus", *_REGISTERED])
def test_placement_records_fiber_sizes_and_registry_gaps(name):
    """Each row's expanded fiber holds as many triples as the row's
    printed multiplicities sum to, and each triple key lies in exactly
    one row, whose stratum stratum_of_triple and tau give for its triples."""
    t, store = parse_type(name), TableStore()
    if name in _REGISTERED:
        register_external_table(_REGISTERED[name](), store)
    pl = placement(t, store)
    rows_of_key, placed = {}, []
    for ri, (row, expanded) in enumerate(zip(pl.rows, pl.fiber_expanded)):
        assert len(expanded) == sum(en.mult for en in row.fiber)
        for tr, mult in expanded:
            assert mult == 1 and tau(t, tr, store) == row.stratum
            rows_of_key.setdefault(tr.key, set()).add(ri)
            placed.append(tr)
    assert rows_of_key.keys() == pl.stratum_of_triple.keys()
    for key, (ri,) in rows_of_key.items():
        assert pl.stratum_of_triple[key] is pl.rows[ri].stratum
    enum = enumerate_cs_prime(t)
    assert len(placed) == len(set(placed)) == len(enum) and set(placed) == set(enum)
    assert registry_gaps(pl) == ([], [])


def test_an_entry_that_takes_part_of_its_key_is_refused():
    """E8's (E8,1,3)#2 of row 112_3 split into one copy there and one in
    row 84_4: neither copy prints the number of its key's triples, so
    neither places them, and the first in table order is named."""
    e8, whole, half = parse_type("E8"), ("E8", "1", 3, 2, None), ("E8", "1", 3, 1, None)
    raw = []
    for head, entries, ann in tabledata.TABLES["E8"]:
        if head == "112_3":
            assert whole in entries
            entries = tuple(half if en == whole else en for en in entries)
        elif head == "84_4":
            entries = (*entries, half)
        raw.append((head, entries, ann))
    with pytest.raises(PlacementMismatch) as err:
        resolve_placement(e8, build_rows(e8, raw, enumerate_cs_prime(e8)))
    assert str(err.value) == "entry (E8,1,3) in row '84_4' does not match the enumeration for E8"


def test_commands_enumerate_only_through_the_store():
    """TableStore.triples, which checks the triple budget, is the one
    caller of enumerate_cs_prime under src/; beside it, only the tables
    module and the package export import it."""
    uses, importers, entry_calls = set(), set(), []
    for module, scope, node in source_nodes():
        if getattr(node, "id", getattr(node, "attr", None)) == "enumerate_cs_prime":
            uses.add((module, scope))
        if isinstance(node, ast.alias) and node.name == "enumerate_cs_prime":
            importers.add(module)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                "embedded_table", "parse_table_document", "resolve_placement"):
            entry_calls.append((node.func.id, len(node.args)))
    assert uses == {("tables", "TableStore.triples")}
    assert importers == {"tables", "__init__"}
    # Every call of an entry point under src/ passes the triples it resolves against.
    assert entry_calls and set(entry_calls) == {("resolve_placement", 3)}


def _refuse_to_enumerate(t):
    raise AssertionError(f"enumerated the triples of {t.name}")


def test_the_triple_budget_admits_b26_and_refuses_a52():
    """The boundary read off the closed form alone: no type near it is
    enumerated here.  An identity table builds one row per triple, so
    with its rows the budget admits A47's and not A48's."""
    counts = {name: triple_count(parse_type(name))
              for name in ("A47", "A48", "A51", "B26", "A52", "B27", "D30", "A60", "A70")}
    assert counts == {"A47": 147273, "A48": 173525, "A51": 281589, "B26": 298894,
                      "A52": 329931, "B27": 409420, "D30": 474580, "A60": 1121505,
                      "A70": 4697205}
    assert counts["A51"] < counts["B26"] <= TRIPLE_BUDGET < counts["A52"]
    assert 2 * counts["A47"] <= TRIPLE_BUDGET < 2 * counts["A48"]


def test_the_store_refuses_a_type_past_the_budget_before_enumerating(monkeypatch):
    monkeypatch.setattr(tables, "enumerate_cs_prime", _refuse_to_enumerate)
    store = TableStore()
    for name, count in (("A52", 329931), ("B27", 409420), ("A70", 4697205)):
        with pytest.raises(TripleBudgetExceeded) as err:
            store.triples(parse_type(name))
        assert str(err.value) == (
            f"{name} has {count} cuspidal-support triples, over the budget of 300000")
    with pytest.raises(TripleBudgetExceeded):
        placement(parse_type("A52"), store)  # the first query on an identity type
    assert not store


def test_the_store_refuses_an_identity_table_past_the_budget_before_enumerating(monkeypatch):
    """A48's triples fit the budget, its identity table does not: the
    store refuses the table before any triple is built and keeps
    nothing, while its triples alone are still enumerated."""
    monkeypatch.setattr(tables, "enumerate_cs_prime", _refuse_to_enumerate)
    store = TableStore()
    with pytest.raises(TripleBudgetExceeded) as err:
        store["A48"]
    assert str(err.value) == (
        "A48 has 173525 cuspidal-support triples and its identity table as many rows, "
        "347050 together, over the budget of 300000")
    with pytest.raises(TripleBudgetExceeded, match="^A48 has 173525 "):
        placement(parse_type("A48"), store)
    assert not store
    enumerated = []
    monkeypatch.setattr(tables, "enumerate_cs_prime", lambda t: enumerated.append(t.name) or ())
    assert store.triples(parse_type("A48")) == () and enumerated == ["A48"]


def test_the_entry_points_label_from_the_default_store(monkeypatch, synthetic_b3_doc):
    """embedded_table, parse_table_document and resolve_placement(t,
    rows) take their triples from DEFAULT_STORE: the placement it holds,
    whose labels their rows share, and a fresh enumeration of a type it
    does not hold, which it does not keep."""
    e7 = parse_type("E7")
    pl = placement(e7)
    doc = json.loads(canonical_json(table_document(e7)))
    with monkeypatch.context() as patched:
        patched.setattr(tables, "enumerate_cs_prime", _refuse_to_enumerate)
        rows = embedded_table(e7)
        t, parsed = parse_table_document(doc)
        resolved = resolve_placement(e7, rows)
    assert t == e7 and rows == parsed == pl.rows and resolved.triples is pl.triples
    labels = {id(tr.character) for tr in pl.triples}
    for built in (rows, parsed):
        assert all(id(en.character) in labels for row in built for en in row.fiber)
    b3, b3_rows = parse_table_document(synthetic_b3_doc)
    assert resolve_placement(b3, b3_rows).rows == b3_rows and "B3" not in DEFAULT_STORE


def test_centralizer_profile_examples():
    e8 = parse_type("E8")
    generic = centralizer_profile(e8, 0, "generic")
    assert {(s.name if s else "full"): c for s, c in generic.entries} == {
        "A4xA4": 4, "A5xA2xA1": 2,
    }
    r2 = centralizer_profile(e8, 0, 2)
    assert {(s.name if s else "full"): c for s, c in r2.entries} == {
        "A4xA4": 4, "E6xA2": 2,
    }
    r5 = centralizer_profile(e8, 0, 5)
    assert {(s.name if s else "full"): c for s, c in r5.entries} == {
        "full": 4, "A5xA2xA1": 2,
    }
    f4 = centralizer_profile(parse_type("F4"), 1, 2)
    assert f4.entries == ((None, 1),)
    g2 = centralizer_profile(parse_type("G2"), 0, 3)
    assert {(s.name if s else "full"): c for s, c in g2.entries} == {"full": 2, "A1xA1": 1}
    # characteristic 0 falls back to the generic class
    assert centralizer_profile(e8, 3, 0).entries == ((Subsystem.parse("E6xA2"), 2),)
    # and so does a prime not recorded for (t, d)
    assert centralizer_profile(e8, 0, 7) == generic
    assert centralizer_profile(parse_type("G2"), 1, 2).characteristic_class == "generic"


def test_every_recorded_d_has_a_generic_profile():
    """centralizer_profile answers a class not recorded for (t, d) with
    its generic profile, so every (t, d) must record one."""
    for (name, d), classes in tabledata.CENTRALIZER_PROFILES.items():
        assert "generic" in [c for c, _ in classes], (name, d)
    for name in ("B2", "B6", "B12", "B30", "C2", "C6", "D4", "D16"):
        profiles = centralizer_profiles(parse_type(name))
        assert {p.d for p in profiles} == {None}, name
        assert "generic" in [p.characteristic_class for p in profiles], name


def test_e8_d0_note_attached():
    prof = centralizer_profile(parse_type("E8"), 0, "generic")
    assert prof.note and "A5xA2xA1" in prof.note


def test_classical_profiles_match_stated_shapes():
    expected_generic = {
        "C2": "A1xA1",
        "C6": "C3xC3",
        "C12": "C6xC6",
        "B2": "A1xA1",
        "B6": "B4xA1xA1",
        "B12": "B4xD8",
        "D4": "A1xA1xA1xA1",
        "D16": "D8xD8",
        "B20": "B12xD8",
        "B30": "B12xD18",
        "C20": "C10xC10",
        "C30": "C15xC15",
        "D36": "D18xD18",
        "D64": "D32xD32",
    }
    for name, sub in expected_generic.items():
        t = parse_type(name)
        prof = centralizer_profile(t, None, "generic")
        assert prof.entries == ((Subsystem.parse(sub), 1),), name
        assert centralizer_profile(t, None, 2).entries == ((None, 1),)


def test_profiles_sum_to_counts():
    for name in ["G2", "F4", "E6", "E7", "E8", "B2", "B6", "C6", "D4"]:
        t = parse_type(name)
        counts = cuspidal_counts(t).as_dict()
        profs = centralizer_profiles(t)
        assert profs
        for p in profs:
            assert p.total == counts[p.d], (name, p.d, p.characteristic_class)


def test_no_profile_data_errors():
    with pytest.raises(CartanError):
        centralizer_profile(parse_type("A3"), 0, "generic")
    with pytest.raises(CartanError):
        centralizer_profile(parse_type("G2"), 5, "generic")
    assert centralizer_profiles(parse_type("B5")) == ()


def test_s4_is_annotation_only_never_boxed():
    for name in ROW_COUNTS:
        t = parse_type(name)
        for row in DEFAULT_STORE.table(t):
            groups = dict(row.annotation.groups)
            for slot in row.annotation.boxed:
                if slot == "single":
                    assert groups[2] != "S4"
                else:
                    assert groups[slot] != "S4", row.stratum.text
    # S4 does occur unboxed
    assert component_group(parse_type("F4"), "chi_{12}", 3) == "S4"


def test_characteristic_5_only_on_e8_unit_row():
    for name in ROW_COUNTS:
        t = parse_type(name)
        for row in DEFAULT_STORE.table(t):
            has5 = any(slot == 5 for slot, _ in row.annotation.groups)
            if has5:
                assert (name, row.stratum.text) == ("E8", "1_0")


@pytest.mark.parametrize(
    "groups,accepted",
    [
        ({"0": "1", "2": "C4", "3": "C3"}, True),
        ({"0": "1", "2": "C3", "3": "C2"}, False),
        ({"0": "1", "2": "C4", "3": "C3", "5": "C5"}, True),
        ({"0": "1", "2": "C3", "3": "C4", "5": "C5"}, False),
    ],
)
def test_deviations_at_two_or_three_primes_are_checked_at_parse(
    synthetic_b3_doc, groups, accepted
):
    unit_row = synthetic_b3_doc["rows"][0]
    unit_row["groups"] = groups
    unit_row["boxed"] = sorted(k for k in groups if k != "0")
    if accepted:
        _, rows = parse_table_document(synthetic_b3_doc)
        tags = rows[0].annotation.collection.tags
        assert tags == tuple(groups[k] for k in sorted(groups) if k != "0")
    else:
        with pytest.raises(TableFormatError, match=r"unexpected deviating (pair|triple)"):
            parse_table_document(synthetic_b3_doc)


@pytest.mark.parametrize(
    "text", ["singleton:٢", "singleton:+2", "singleton: 2", "singleton:0_2"]
)
def test_singleton_membership_takes_ascii_decimal_only(synthetic_b3_doc, text):
    synthetic_b3_doc["rows"][1].update(groups={"2": "1"}, boxed=["2"], membership=text)
    message = f"bad membership {text!r} in row '(2,1|)' of B3"
    with pytest.raises(TableFormatError, match=f"^{re.escape(message)}$"):
        parse_table_document(synthetic_b3_doc)
