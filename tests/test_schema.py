import copy
import json

import pytest

from charstrata.cartan import parse_type
from charstrata.schema import (
    canonical_json,
    parse_table_document,
    report_document,
    strata_document,
    table_document,
    triples_document,
)
from charstrata.strata import PlacementMismatch, fiber, strata, tau, find_triple
from charstrata.tables import (
    NoTableAvailable,
    TableFormatError,
    TableStore,
    placement,
    resolve_placement,
)
from charstrata.verify import register_external_table, run_all

TABLE_TYPES = ["G2", "F4", "E6", "E7", "E8"]


@pytest.mark.parametrize("name", TABLE_TYPES)
def test_export_is_deterministic_and_reimports(name):
    store = TableStore()
    t = parse_type(name)
    text1 = canonical_json(table_document(t, store))
    text2 = canonical_json(table_document(t, store))
    assert text1 == text2
    assert text1.endswith("\n") and text1.isascii()
    doc = json.loads(text1)
    t2, rows = parse_table_document(doc)
    assert t2 == t
    assert rows == store.table(t)
    # registering the embedded table back is a byte-identical no-op
    message = register_external_table(doc, store)
    assert "matches the embedded" in message
    assert canonical_json(table_document(t, store)) == text1


def test_mutated_embedded_table_rejected_naming_triple():
    store = TableStore()
    doc = json.loads(canonical_json(table_document(parse_type("G2"), store)))
    moved = doc["rows"][4]["fiber"].pop(1)  # (G2,1,1) out of the theta' row
    doc["rows"][0]["fiber"].append(moved)
    with pytest.raises(TableFormatError) as err:
        register_external_table(doc, store)
    assert "(G2,1,1)" in str(err.value)


def test_synthetic_b3_registers_and_serves(synthetic_b3_doc):
    store = TableStore()
    message = register_external_table(synthetic_b3_doc, store)
    assert message == "B3: registered (10 rows, 12 triples placed)"
    t = parse_type("B3")
    assert len(strata(t, store)) == 10
    pairs = fiber(t, "(3|)", store)
    assert sum(m for _, m in pairs) == 2
    triple = find_triple(t, "B2", "(2)", store=store)
    assert tau(t, triple, store).text == "(3|)"
    report = run_all(t, store)
    assert not report.failed
    assert all(status == "pass" for _, status, _ in report.checks
               if status != "skipped")
    # round trip through export
    text1 = canonical_json(table_document(t, store))
    store2 = TableStore()
    register_external_table(json.loads(text1), store2)
    assert canonical_json(table_document(t, store2)) == text1


def test_b3_missing_levi_triples_rejected(synthetic_b3_doc):
    doc = copy.deepcopy(synthetic_b3_doc)
    for row in doc["rows"]:
        row["fiber"] = [en for en in row["fiber"] if en["levi"] == "-"]
        row["groups"] = {"0": "1", "2": "1", "3": "1"}
    store = TableStore()
    with pytest.raises(PlacementMismatch) as err:
        register_external_table(doc, store)
    assert "B2" in str(err.value)


def test_b3_wrong_character_rejected(synthetic_b3_doc):
    doc = copy.deepcopy(synthetic_b3_doc)
    doc["rows"][0]["fiber"][1]["character"] = "(1,1)"  # now (1,1) twice, (2) missing
    store = TableStore()
    with pytest.raises(PlacementMismatch) as err:
        register_external_table(doc, store)
    assert "(2)" in str(err.value) or "(1,1)" in str(err.value)


def test_schema_violations(synthetic_b3_doc):
    store = TableStore()
    bad = copy.deepcopy(synthetic_b3_doc)
    bad["schema"] = "strata-table/2"
    with pytest.raises(TableFormatError):
        register_external_table(bad, store)

    bad = copy.deepcopy(synthetic_b3_doc)
    bad["rows"][0]["membership"] = "sometimes"
    with pytest.raises(TableFormatError):
        register_external_table(bad, store)

    bad = copy.deepcopy(synthetic_b3_doc)
    bad["rows"][0]["fiber"][0]["character"] = "(2,1|)"  # head mismatch
    with pytest.raises(TableFormatError):
        register_external_table(bad, store)

    bad = copy.deepcopy(synthetic_b3_doc)
    bad["rows"][0]["groups"]["2"] = "Q8"
    with pytest.raises(TableFormatError):
        register_external_table(bad, store)

    bad = copy.deepcopy(synthetic_b3_doc)
    bad["rows"][0]["extra"] = 1
    with pytest.raises(TableFormatError):
        register_external_table(bad, store)

    bad = copy.deepcopy(synthetic_b3_doc)
    bad["rows"][0]["boxed"] = []
    with pytest.raises(TableFormatError):
        register_external_table(bad, store)


def test_torus_table_is_checked_against_the_built_in_one():
    store = TableStore()
    doc = {
        "schema": "strata-table/1",
        "type": "Torus",
        "rows": [{
            "stratum": "1",
            "fiber": [{"levi": "-", "character": "1", "d": 0, "mult": 1}],
            "groups": {"0": "1", "2": "1", "3": "1"},
            "boxed": ["single"],
            "membership": "full",
        }],
    }
    message = register_external_table(doc, store)
    assert message == "Torus: accepted (the identity parametrization is built in)"
    # Nothing is installed: the store answers with the built-in placement,
    # which it resolved to compare the submission with.
    assert list(store) == ["Torus"]
    assert placement(parse_type("Torus"), store) == placement(parse_type("Torus"), TableStore())
    doc["rows"][0]["groups"] = {"0": "C2", "2": "C2", "3": "C2"}
    with pytest.raises(TableFormatError, match=(
        r"^Torus is built in and the submitted table differs: "
        r"row '1' differs in its annotations$"
    )):
        register_external_table(doc, store)


def test_a_series_registration_is_checked_but_not_stored():
    store = TableStore()
    t = parse_type("A2")
    rows = []
    for head in ["(3)", "(2,1)", "(1,1,1)"]:
        rows.append({
            "stratum": head,
            "fiber": [{"levi": "-", "character": head, "d": 0, "mult": 1}],
            "groups": {"0": "1", "2": "1", "3": "1"},
            "boxed": ["single"],
            "membership": "full",
        })
    doc = {"schema": "strata-table/1", "type": "A2", "rows": rows}
    message = register_external_table(doc, store)
    assert "identity" in message
    assert list(store) == ["A2"]
    assert placement(t, store) == placement(t, TableStore())


def test_triples_and_strata_documents():
    t = parse_type("E8")
    doc = triples_document(t)
    assert doc["schema"] == "cs-triples/1"
    assert len(doc["triples"]) == 165
    opaque = [r for r in doc["triples"] if r["d"] == "opaque"]
    assert len(opaque) == 25  # the D4-Levi family
    sd = strata_document(parse_type("A2"))
    assert sd["strata"] == ["(3)", "(2,1)", "(1,1,1)"]
    assert canonical_json(sd) == canonical_json(strata_document(parse_type("A2")))


def test_report_document_shape():
    report = run_all(parse_type("B5"), TableStore())
    doc = report_document(report)
    assert doc["schema"] == "verification-report/1"
    by_id = {c["id"]: c["status"] for c in doc["checks"]}
    assert by_id["triple-placement"] == "skipped"
    assert by_id["cuspidal-enumeration"] == "pass"
    assert by_id["group-inventories"] == "pass"
    again = report_document(run_all(parse_type("B5"), TableStore()))
    assert canonical_json(doc) == canonical_json(again)


def test_more_schema_violations(synthetic_b3_doc):
    store = TableStore()
    cases = [
        ("negative d", lambda d: d["rows"][0]["fiber"][1].__setitem__("d", -1)),
        ("zero mult", lambda d: d["rows"][0]["fiber"][1].__setitem__("mult", 0)),
        ("bad boxed flag", lambda d: d["rows"][0].__setitem__("boxed", ["7"])),
        ("fiber not a list", lambda d: d["rows"][0].__setitem__("fiber", {})),
        ("head entry d", lambda d: d["rows"][0]["fiber"][0].__setitem__("d", 1)),
        ("groups key", lambda d: d["rows"][0]["groups"].__setitem__("4", "C2")),
        ("five outside unit", lambda d: d["rows"][3]["groups"].__setitem__("5", "C2")),
        ("empty disamb", lambda d: d["rows"][0]["fiber"][1].__setitem__("disamb", "")),
    ]
    for name, mutate in cases:
        doc = copy.deepcopy(synthetic_b3_doc)
        mutate(doc)
        with pytest.raises(TableFormatError):
            register_external_table(doc, store)


def test_duplicate_head_rejected(synthetic_b3_doc):
    doc = copy.deepcopy(synthetic_b3_doc)
    doc["rows"][1]["stratum"] = doc["rows"][2]["stratum"]
    doc["rows"][1]["fiber"][0]["character"] = doc["rows"][2]["stratum"]
    with pytest.raises(TableFormatError):
        register_external_table(doc, TableStore())


def _put(*path, value):
    """A mutation that sets doc[path[0]]...[path[-1]] = value."""
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


def _replace(value):
    return lambda doc: value


def _deviating(groups, boxed, row=1):
    def mutate(doc):
        doc["rows"][row]["groups"] = groups
        doc["rows"][row]["boxed"] = boxed
    return mutate


def _duplicate_row(doc):
    doc["rows"][2] = copy.deepcopy(doc["rows"][1])


def _unknown_head(doc):
    doc["rows"][1]["stratum"] = "(9|)"
    doc["rows"][1]["fiber"][0]["character"] = "(9|)"


_ENTRY = ("rows", 0, "fiber", 1)

# One malformed B3 document per rejection of parse_table_document and
# the row assembly and validation behind it, with the exact message.
REJECTIONS = [
    ("not-an-object", _replace([]), TableFormatError, "document must be a JSON object"),
    ("schema", _put("schema", value="strata-table/2"), TableFormatError,
     "schema must be 'strata-table/1'"),
    ("type", _put("type", value="Z9"), TableFormatError, "bad type field: unknown series 'Z'"),
    ("rows-empty", _put("rows", value=[]), TableFormatError, "rows must be a nonempty list"),
    ("row-not-an-object", _put("rows", 1, value="x"), TableFormatError,
     "row 1 must be an object"),
    ("row-unknown-keys", _put("rows", 1, "zz", value=1), TableFormatError,
     "row 1 has unknown keys ['zz']"),
    ("stratum-not-a-string", _put("rows", 1, "stratum", value=3), TableFormatError,
     "row 1: stratum must be a string"),
    ("fiber-empty", _put("rows", 1, "fiber", value=[]), TableFormatError,
     "row 1: fiber must be nonempty"),
    ("entry-not-an-object", _put("rows", 0, "fiber", 1, value=[]), TableFormatError,
     "row 0 entry 1 must be an object"),
    ("entry-unknown-keys", _put(*_ENTRY, "index", value=0), TableFormatError,
     "row 0 entry 1 has unknown keys ['index']"),
    ("levi-not-a-string", _put(*_ENTRY, "levi", value=None), TableFormatError,
     "row 0 entry 1: levi must be a string"),
    ("character-not-a-string", _put(*_ENTRY, "character", value=5), TableFormatError,
     "row 0 entry 1: character must be a string"),
    ("d-negative", _put(*_ENTRY, "d", value=-1), TableFormatError,
     "row 0 entry 1: d must be >= 0"),
    ("d-not-an-int", _put(*_ENTRY, "d", value="0"), TableFormatError,
     "row 0 entry 1: d must be >= 0"),
    ("mult-zero", _put(*_ENTRY, "mult", value=0), TableFormatError,
     "row 0 entry 1: mult must be >= 1"),
    ("d-bool", _put(*_ENTRY, "d", value=False), TableFormatError,
     "row 0 entry 1: d must be >= 0"),
    ("mult-bool", _put(*_ENTRY, "mult", value=True), TableFormatError,
     "row 0 entry 1: mult must be >= 1"),
    ("first-entry-d-bool", _put("rows", 1, "fiber", 0, "d", value=False), TableFormatError,
     "row 1 entry 0: d must be >= 0"),
    ("first-entry-mult-bool", _put("rows", 1, "fiber", 0, "mult", value=True),
     TableFormatError, "row 1 entry 0: mult must be >= 1"),
    ("disamb-empty", _put(*_ENTRY, "disamb", value=""), TableFormatError,
     "row 0 entry 1: disamb must be a nonempty string"),
    ("first-entry", _put("rows", 1, "fiber", 0, "d", value=1), TableFormatError,
     "row 1: first fiber entry must be ('-', '(2,1|)', d=0, mult=1)"),
    ("first-entry-disamb", _put("rows", 1, "fiber", 0, "disamb", value="x"), TableFormatError,
     "row 1: first fiber entry must be ('-', '(2,1|)', d=0, mult=1)"),
    ("classical-levi-d", _put(*_ENTRY, "d", value=7), TableFormatError,
     "entry (B2,(2),7) in row '(3|)' of B3 must print d=0: its Levi is classical"),
    ("groups-not-an-object", _put("rows", 1, "groups", value=[]), TableFormatError,
     "row 1: groups must be an object"),
    ("groups-key", _put("rows", 1, "groups", "7", value="1"), TableFormatError,
     "row 1: bad groups key '7'"),
    ("group-tag", _put("rows", 1, "groups", "0", value="C9"), TableFormatError,
     "row 1: unknown component group 'C9'"),
    ("group-number", _put("rows", 1, "groups", "0", value=1), TableFormatError,
     "row 1: group at '0' must be a string"),
    ("group-bool", _put("rows", 1, "groups", "2", value=True), TableFormatError,
     "row 1: group at '2' must be a string"),
    ("boxed-empty", _put("rows", 1, "boxed", value=[]), TableFormatError,
     "a row must box at least one group in row '(2,1|)' of B3"),
    ("boxed-not-a-list", _put("rows", 1, "boxed", value="single"), TableFormatError,
     "row 1: boxed must be a list"),
    ("boxed-flag", _put("rows", 1, "boxed", value=["7"]), TableFormatError,
     "row 1: bad boxed flag '7'"),
    ("membership", _put("rows", 1, "membership", value="partial"), TableFormatError,
     "bad membership 'partial' in row '(2,1|)' of B3"),
    ("singleton-prime", _put("rows", 1, "membership", value="singleton:7"), TableFormatError,
     "the groups give membership 'full', not 'singleton:7' in row '(2,1|)' of B3"),
    ("membership-differs", _put("rows", 1, "membership", value="singleton:2"),
     TableFormatError,
     "the groups give membership 'full', not 'singleton:2' in row '(2,1|)' of B3"),
    ("unknown-head", _unknown_head, TableFormatError, "unknown label '(9|)' for B3"),
    ("unknown-empty-levi-character", _put(*_ENTRY, value={
        "levi": "-", "character": "(8|)", "d": 0, "mult": 1}), TableFormatError,
     "unknown label '(8|)' for B3"),
    ("levi-unparsable", _put(*_ENTRY, "levi", value="Z9"), TableFormatError,
     "Z9 is not a cuspidal Levi of B3"),
    ("levi-not-cuspidal", _put(*_ENTRY, "levi", value="A2"), TableFormatError,
     "A2 is not a cuspidal Levi of B3"),
    ("levi-alias-not-cuspidal", _put(*_ENTRY, "levi", value="C2"), TableFormatError,
     "C2 is not a cuspidal Levi of B3"),
    ("relative-character", _put(*_ENTRY, "character", value="(3)"), TableFormatError,
     "'(3)' is not a character of the relative group of B2 in B3"),
    ("singleton-row", lambda doc: doc["rows"][1].update(
        groups={"2": "1"}, boxed=["2"], membership="singleton:3"), TableFormatError,
     "the groups give membership 'singleton:2', not 'singleton:3' in row '(2,1|)' of B3"),
    ("singleton-boxes-another", lambda doc: doc["rows"][1].update(
        groups={"2": "1"}, boxed=["3"], membership="singleton:2"), TableFormatError,
     "a singleton row must define and box one of 2, 3, 5 in row '(2,1|)' of B3"),
    ("full-row-slots", _put("rows", 1, "groups", value={"0": "1", "2": "1"}),
     TableFormatError, "a row must define characteristics 0, 2 and 3, or one of 2, 3 and 5 "
     "alone in row '(2,1|)' of B3"),
    ("constant-row-differs", _put("rows", 1, "groups", "2", value="C2"), TableFormatError,
     "constant row carries differing groups in row '(2,1|)' of B3"),
    ("boxed-flags", _put("rows", 1, "boxed", value=["single", "2"]), TableFormatError,
     "bad boxed flags ['2', 'single'] in row '(2,1|)' of B3"),
    ("duplicate-head", _duplicate_row, TableFormatError,
     "duplicate stratum head '(2,1|)' in table for B3"),
    ("five-outside-unit", _put("rows", 1, "groups", "5", value="1"), TableFormatError,
     "characteristic-5 annotation outside the unit stratum in row '(2,1|)' of B3"),
    ("deviating-pair", _deviating({"0": "1", "2": "C3", "3": "C2"}, ["2", "3"]),
     TableFormatError, "unexpected deviating pair ('C3', 'C2') in row '(2,1|)' of B3"),
    ("unrecorded-surjection", _deviating({"0": "C6", "2": "C2", "3": "C3"}, ["2", "3"]),
     TableFormatError, "no recorded surjection C3 -> C6 in row '(2,1|)' of B3"),
    ("deviating-triple",
     _deviating({"0": "1", "2": "C2", "3": "C2", "5": "C2"}, ["2", "3", "5"], row=0),
     TableFormatError, "unexpected deviating triple ('C2', 'C2', 'C2') in row '(3|)' of B3"),
]


@pytest.mark.parametrize(
    "mutate, error, message", [case[1:] for case in REJECTIONS],
    ids=[case[0] for case in REJECTIONS],
)
def test_rejection_message_is_exact(synthetic_b3_doc, mutate, error, message):
    doc = copy.deepcopy(synthetic_b3_doc)
    replaced = mutate(doc)
    if replaced is not None:
        doc = replaced
    with pytest.raises(error) as err:
        parse_table_document(doc)
    assert type(err.value) is error
    assert str(err.value) == message


def test_levi_names_are_read_in_any_accepted_spelling(synthetic_b3_doc):
    doc = copy.deepcopy(synthetic_b3_doc)
    doc["rows"][0]["fiber"][1]["levi"] = " b_2"
    assert parse_table_document(doc) == parse_table_document(synthetic_b3_doc)


def _shared_annotation(groups, boxed, membership):
    """A mutation giving rows 1 and 4 of the B3 table the same annotation."""
    def mutate(doc):
        for i in (1, 4):
            doc["rows"][i].update(groups=dict(groups), boxed=list(boxed), membership=membership)
    return mutate


# Rows repeat a few annotations, and each distinct one is checked once.
# Row 4 repeats the accepted annotation of row 1 but for one value that
# equals the accepted one in Python (2 == 2.0, 1 == True) or differs
# from it only in a check made after the memo would answer.
REPEATED_ANNOTATION = [
    ("boxed-int", _shared_annotation({"0": "1", "2": "C2", "3": "1"}, ["2"], "full"),
     _put("rows", 4, "boxed", value=[2]), "row 4: bad boxed flag 2"),
    ("group-true", _shared_annotation({"0": "1", "2": "1", "3": "1"}, ["single"], "full"),
     _put("rows", 4, "groups", "0", value=True), "row 4: group at '0' must be a string"),
    ("singleton-prime", _shared_annotation({"3": "1"}, ["3"], "singleton:3"),
     _put("rows", 4, "membership", value="singleton:7"),
     "the groups give membership 'singleton:3', not 'singleton:7' in row '(1,1|1)' of B3"),
]


@pytest.mark.parametrize(
    "share, spoil, message", [case[1:] for case in REPEATED_ANNOTATION],
    ids=[case[0] for case in REPEATED_ANNOTATION],
)
def test_a_repeated_annotation_is_checked_again_when_it_differs(
    synthetic_b3_doc, share, spoil, message
):
    share(synthetic_b3_doc)
    parse_table_document(synthetic_b3_doc)
    spoil(synthetic_b3_doc)
    with pytest.raises(TableFormatError) as err:
        parse_table_document(synthetic_b3_doc)
    assert str(err.value) == message


def test_schema_errors_in_any_row_come_before_label_errors(synthetic_b3_doc):
    synthetic_b3_doc["rows"][0]["fiber"][1]["character"] = "(8)"
    synthetic_b3_doc["rows"][3]["fiber"][0]["d"] = -1
    with pytest.raises(TableFormatError) as err:
        parse_table_document(synthetic_b3_doc)
    assert str(err.value) == "row 3 entry 0: d must be >= 0"


def test_a_table_missing_a_head_row_is_rejected_by_placement(synthetic_b3_doc):
    (row,) = [r for r in synthetic_b3_doc["rows"] if r["stratum"] == "(2,1|)"]
    assert len(row["fiber"]) == 1
    synthetic_b3_doc["rows"].remove(row)
    store = TableStore()
    with pytest.raises(PlacementMismatch) as err:
        register_external_table(synthetic_b3_doc, store)
    assert str(err.value) == "table for B3 misses 1 triple(s) (-, (2,1|), d=0)"
    with pytest.raises(NoTableAvailable):
        placement(parse_type("B3"), store)


def test_a_head_placed_only_through_a_disambiguated_duplicate_is_rejected(synthetic_b3_doc):
    # An entry printed with a duplicated label and a disamb tag takes a
    # remaining character of its family, so this table places every
    # triple although no empty-Levi entry names (2,1|); the check that
    # the empty-Levi entries list the registry once rejects it.
    rows = synthetic_b3_doc["rows"]
    (row,) = [r for r in rows if r["stratum"] == "(2,1|)"]
    rows.remove(row)
    rows[-1]["fiber"].append(
        {"levi": "-", "character": rows[0]["stratum"], "d": 0, "mult": 1, "disamb": "a"}
    )
    assert resolve_placement(*parse_table_document(synthetic_b3_doc)).relabelled == {
        (len(rows) - 1, 2): ("-", "(2,1|)", 0)}
    store = TableStore()
    with pytest.raises(PlacementMismatch) as err:
        register_external_table(synthetic_b3_doc, store)
    assert str(err.value) == "table for B3 does not exhaust the registry; missing ['(2,1|)']"
    with pytest.raises(NoTableAvailable):
        placement(parse_type("B3"), store)
