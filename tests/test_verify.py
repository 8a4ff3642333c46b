import pytest

from charstrata import cli, cuspidal, groups, tabledata, tables, verify
from charstrata.cartan import SERIES, CartanError, CartanType, is_pseudo_levi, parse_type
from charstrata.cuspidal import enumerate_cs_prime, triple_count
from charstrata.schema import parse_table_document, table_document
from charstrata.tables import (
    Annotation, Placement, PlacementMismatch, StrataRow, TableFormatError, TableStore, placement,
    registry_gaps, resolve_placement,
)
from charstrata.verify import CHECK_IDS, register_external_table, run_all
from conftest import Unwalkable, synthetic_spread_table


@pytest.mark.parametrize("name", ["G2", "F4", "E6", "E7", "E8", "A3", "Torus"])
def test_full_suite_passes_for_table_backed_types(name):
    report = run_all(parse_type(name), TableStore())
    assert not report.failed
    assert [cid for cid, _, _ in report.checks] == list(CHECK_IDS)
    statuses = {cid: status for cid, status, _ in report.checks}
    for cid in CHECK_IDS:
        if cid == "centralizer-profiles" and name in ("A3", "Torus"):
            assert statuses[cid] == "skipped"
        else:
            assert statuses[cid] == "pass", (name, cid)


def test_skipped_not_pass_without_table():
    report = run_all(parse_type("B5"), TableStore())
    statuses = {cid: status for cid, status, _ in report.checks}
    for cid in (
        "triple-placement",
        "retraction",
        "empty-completeness",
        "boxed-recomputation",
        "row-balance",
        "regular-fiber-phi",
    ):
        assert statuses[cid] == "skipped"
    assert statuses["cuspidal-enumeration"] == "pass"
    assert statuses["group-inventories"] == "pass"
    assert not report.failed


def test_high_rank_centralizer_check_skips_not_passes():
    # B19 has no cuspidal centralizer data, so the check cannot run.
    report = run_all(parse_type("B19"), TableStore())
    statuses = {cid: status for cid, status, _ in report.checks}
    assert statuses["centralizer-profiles"] == "skipped"


def test_classical_centralizer_check_runs_past_rank_16():
    report = run_all(parse_type("B20"), TableStore())
    assert ("centralizer-profiles", "pass", "2 profiles derived") in report.checks
    b30, d36 = parse_type("B30"), parse_type("D36")
    assert is_pseudo_levi(b30, "B12xD18")
    assert is_pseudo_levi(d36, "D18xD18")
    assert not is_pseudo_levi(b30, "B12xB2")
    assert not is_pseudo_levi(d36, "D18xD18xA1")


@pytest.mark.parametrize("entries, detail", [
    (((tabledata.FULL, 2),), "profile (d=1, r=generic) sums to 2, count table says 1"),
    ((("B2", 1),), "B2 is not a pseudo-Levi subsystem of G2"),
], ids=["count", "not-pseudo-levi"])
def test_centralizer_check_fails_on_a_faulty_profile(monkeypatch, entries, detail):
    monkeypatch.setitem(tabledata.CENTRALIZER_PROFILES, ("G2", 1), (("generic", entries),))
    cuspidal.centralizer_profiles.cache_clear()
    try:
        report = run_all(parse_type("G2"), TableStore())
    finally:
        cuspidal.centralizer_profiles.cache_clear()
    assert ("centralizer-profiles", "fail", detail) in report.checks
    assert [cid for cid, status, _ in report.checks if status == "fail"] == [
        "centralizer-profiles"]


def test_errata_touched_by_run():
    report = run_all(parse_type("E8"), TableStore())
    ids = [line.split(":")[0] for line in report.errata]
    assert "E8-missing-112th" in ids
    assert "E8-3200_32" in ids
    g2 = run_all(parse_type("G2"), TableStore())
    assert any(line.startswith("G2-d0-support-case") for line in g2.errata)
    assert run_all(parse_type("E6"), TableStore()).errata == []


def test_registered_table_turns_skips_into_passes(synthetic_b3_doc):
    store = TableStore()
    register_external_table(synthetic_b3_doc, store)
    report = run_all(parse_type("B3"), store)
    statuses = {cid: status for cid, status, _ in report.checks}
    assert statuses["triple-placement"] == "pass"
    assert statuses["row-balance"] == "pass"
    assert statuses["regular-fiber-phi"] == "pass"
    # B3 itself is not a cuspidal rank, so no centralizer data
    assert statuses["centralizer-profiles"] == "skipped"
    assert not report.failed


def test_placement_detail_reports_totals():
    report = run_all(parse_type("E8"), TableStore())
    detail = {cid: d for cid, _, d in report.checks}["triple-placement"]
    assert detail == "resolved: 165 triples, each in one row; 1 duplicated label(s) resolved"
    g2 = {cid: d for cid, _, d in run_all(parse_type("G2"), TableStore()).checks}
    assert g2["triple-placement"] == "resolved: 10 triples, each in one row"


def test_table_check_details_say_what_they_read():
    """E8's table has 74 rows of 17 kinds, each kind with its own
    Annotation."""
    details = {cid: d for cid, _, d in run_all(parse_type("E8"), TableStore()).checks}
    assert details["retraction"] == "resolved: 74 heads, each heading the row of its own triple"
    assert details["boxed-recomputation"] == "17 annotations match their deviation sets"
    assert details["row-balance"] == "74 rows in 17 kinds balanced"


def test_report_lines_are_the_check_lines_of_the_verify_text(capsys):
    assert cli.main(["verify", "G2"]) == 0
    out = capsys.readouterr().out.splitlines()
    checks = out[1:1 + len(CHECK_IDS)]
    assert out[0] == "== G2" and out[1 + len(CHECK_IDS)].startswith("  erratum: ")
    assert all(line.startswith("  ") for line in checks)
    assert run_all(parse_type("G2"), TableStore()).lines() == [line[2:] for line in checks]


def _replaced(pl: Placement, **fields) -> Placement:
    """pl with the given fields replaced, every other field shared."""
    return Placement(*(fields.get(f, getattr(pl, f)) for f in Placement._fields))


def test_closed_form_total_equals_the_enumeration():
    types = [parse_type(name) for name in ("Torus", "G2", "F4", "E6", "E7", "E8")]
    for series in SERIES:
        for rank in range(13):
            try:
                types.append(CartanType(series, rank))
            except CartanError:
                continue
    for t in types:
        assert triple_count(t) == len(enumerate_cs_prime(t)), t.name
    # p(5) for A4; bip(5) + bip(3) for B5; |Irr W(D8)| + bip(4) for D8.
    assert [triple_count(parse_type(n)) for n in ("A4", "B5", "D8")] == [
        7, 36 + 10, 100 + 20]


def test_enumeration_check_fails_when_a_triple_is_dropped(monkeypatch):
    """run_all checks the enumeration the placement holds, or a fresh
    one for a type without a table."""
    e7, b5 = parse_type("E7"), parse_type("B5")
    assert verify._check_enumeration(e7, enumerate_cs_prime(e7)) == ("pass", "76 triples")
    failing = ("fail", "enumerated 75, closed form gives 76")
    assert verify._check_enumeration(e7, enumerate_cs_prime(e7)[:-1]) == failing
    store = TableStore()
    pl = placement(e7, store)
    store["E7"] = _replaced(pl, triples=pl.triples[:-1])
    assert ("cuspidal-enumeration", *failing) in run_all(e7, store).checks
    monkeypatch.setattr(tables, "enumerate_cs_prime", lambda t: enumerate_cs_prime(t)[:-1])
    assert ("cuspidal-enumeration", "fail", "enumerated 45, closed form gives 46") in run_all(
        b5, TableStore()).checks


def test_verify_computes_each_triple_count_once():
    """The store's budget and cuspidal-enumeration read one closed-form
    count: for a built-in table, a type without one, and a type past
    the budget."""
    for name in ("E8", "B5", "A70"):
        triple_count.cache_clear()
        run_all(parse_type(name), TableStore())
        assert triple_count.cache_info().misses == 1, name


@pytest.fixture
def e7_table_printing_a_third_triple(monkeypatch):
    """The embedded E7 table with its last entry, (E7,1,0)#2, printed
    as (E7,1,0)#3: the table claims three triples of a key that the
    enumeration has two of.  Each test asks a fresh store, which
    resolves the edited table."""
    *rows, (head, entries, ann) = tabledata.TABLES["E7"]
    *kept, (levi, char, d, _, disamb) = entries
    edited = (*rows, (head, (*kept, (levi, char, d, 3, disamb)), ann))
    monkeypatch.setitem(tabledata.TABLES, "E7", edited)
    return parse_type("E7")


def test_a_table_that_does_not_place_fails_placement_and_skips_its_readers(
    e7_table_printing_a_third_triple, capsys
):
    mismatch = "entry (E7,1,0)#3 in row '1_0' does not match the enumeration for E7"
    report = run_all(e7_table_printing_a_third_triple, TableStore())
    assert [cid for cid, _, _ in report.checks] == list(CHECK_IDS)
    checks = {cid: (status, detail) for cid, status, detail in report.checks}
    assert checks["triple-placement"] == ("fail", mismatch)
    for cid in CHECK_IDS[2:7]:
        assert checks[cid] == ("skipped", "the table does not place"), cid
    for cid in ("cuspidal-enumeration", "centralizer-profiles", "group-inventories"):
        assert checks[cid][0] == "pass", cid
    assert cli.main(["verify", "E7"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("== E7\n  cuspidal-enumeration: pass")
    assert f"  triple-placement: fail  [{mismatch}]\n" in out
    assert "  regular-fiber-phi: skipped  [the table does not place]\n" in out


def test_group_inventories_fail_when_an_irrep_is_dropped(monkeypatch):
    dropped = groups.inventory("S5")[:-1]
    monkeypatch.setattr(
        verify, "inventory", lambda tag: dropped if tag == "S5" else groups.inventory(tag)
    )
    verify._check_group_inventories.cache_clear()
    try:
        report = run_all(parse_type("G2"), TableStore())
    finally:
        verify._check_group_inventories.cache_clear()
    assert ("group-inventories", "fail", "S5: classes 7 != inventory") in report.checks
    assert report.failed


def test_group_inventories_fail_when_the_stated_generators_do_not_generate(monkeypatch):
    """S5 stated without its 5-cycle generates only a subgroup of order
    two; the check fails naming S5 instead of counting its orbits."""
    model = groups._model
    els, gens = model("S5")
    monkeypatch.setattr(
        groups, "_model", lambda tag: (els, gens[:1]) if tag == "S5" else model(tag)
    )
    verify._check_group_inventories.cache_clear()
    try:
        report = run_all(parse_type("G2"), TableStore())
    finally:
        verify._check_group_inventories.cache_clear()
    assert (
        "group-inventories", "fail",
        "S5: the stated generators do not generate its 120 elements",
    ) in report.checks
    assert report.failed


def test_group_inventories_fail_when_a_product_is_not_listed(monkeypatch):
    """S4 listed without its last element: that element is a product
    of two listed ones, and the check fails naming S4."""
    model = groups._model
    els, gens = model("S4")
    monkeypatch.setattr(
        groups, "_model", lambda tag: (els[:-1], gens) if tag == "S4" else model(tag)
    )
    verify._check_group_inventories.cache_clear()
    try:
        report = run_all(parse_type("G2"), TableStore())
    finally:
        verify._check_group_inventories.cache_clear()
    assert (
        "group-inventories", "fail", "S4: a product of its elements is not listed",
    ) in report.checks
    assert report.failed


def test_boxed_check_names_the_first_faulty_row_in_table_order():
    """Rows 3 and 12 of E7 get one faulty annotation and row 6 another;
    the check reports row 3, the first faulty row in table order, both
    when rows 3 and 12 carry equal but distinct objects and when they
    share one object, which the check then reads once."""
    e7 = parse_type("E7")
    pl = placement(e7)
    assert verify._check_boxed(e7, pl) == ("pass", "8 annotations match their deviation sets")
    for shared in (False, True):
        rows = list(pl.rows)
        faulty = {}
        for i, boxed in ((3, {3}), (6, {2}), (12, {3})):
            r = rows[i]
            a = r.annotation
            assert a.boxed == {"single"} and a.r0 is None, r.stratum.text
            edited = Annotation(a.groups, frozenset(boxed))
            if shared:
                edited = faulty.setdefault(edited, edited)
            rows[i] = StrataRow(r.stratum, r.fiber, edited)
        assert (rows[3].annotation is rows[12].annotation) is shared
        assert rows[3].annotation is not rows[6].annotation
        assert verify._check_boxed(e7, resolve_placement(e7, tuple(rows))) == (
            "fail", f"row {rows[3].stratum.text!r}: deviation [] vs boxed ['3']")


def test_row_balance_names_the_first_row_of_the_faulty_kind(synthetic_b3_doc):
    """Rows (2|1) and (1|2), of fiber 1, take the C2 annotation object
    of the unit row (3|), of fiber 2: that one Annotation heads rows of
    two fiber sizes, and only the kind met second, (C2, 1), fails."""
    b3 = parse_type("B3")
    rows = list(parse_table_document(synthetic_b3_doc)[1])
    unit = rows[0]
    assert unit.stratum.text == "(3|)" and len(unit.fiber) == 2
    for i in (3, 5):
        rows[i] = StrataRow(rows[i].stratum, rows[i].fiber, unit.annotation)
    pl = resolve_placement(b3, tuple(rows))
    assert [(len(a.collection.labels), f, ri) for a, f, ri in pl.row_kinds] == [
        (2, 2, 0), (1, 1, 1), (2, 1, 3)]
    failing = ("fail", "row '(2|1)': fiber 1 != inventory 2")
    assert verify._check_row_balance(b3, pl) == failing
    broken = TableStore()
    broken.install(pl)
    assert ("row-balance", *failing) in run_all(b3, broken).checks


def test_boxed_and_row_balance_read_the_row_kinds_not_the_rows():
    """On a resolved B12 table of 1165 rows, none of the three checks
    walks the rows or the expanded fibers: boxed-recomputation and
    row-balance read the placement's row kinds, a row is read by index
    only to name it, and retraction reads what the resolver
    guarantees."""
    b12 = parse_type("B12")
    pl = resolve_placement(*parse_table_document(synthetic_spread_table("B12")))
    assert len(pl.rows) == 1165 and len(pl.row_kinds) == 3
    unwalkable = _replaced(
        pl, rows=Unwalkable(pl.rows), fiber_expanded=Unwalkable(pl.fiber_expanded))
    assert verify._check_boxed(b12, unwalkable) == (
        "pass", "3 annotations match their deviation sets")
    assert verify._check_row_balance(b12, unwalkable) == (
        "pass", "1165 rows in 3 kinds balanced")
    assert verify._check_retraction(b12, unwalkable) == (
        "pass", "resolved: 1165 heads, each heading the row of its own triple")


@pytest.mark.parametrize("name", ["Torus"] + [f"A{n}" for n in range(1, 10)])
def test_identity_types_run_the_same_table_checks(name):
    t = parse_type(name)
    pl = placement(t)
    expected = [(cid, *check(t, pl)) for cid, check in verify._TABLE_CHECKS]
    ran = [c for c in run_all(t).checks if c[0] in dict(verify._TABLE_CHECKS)]
    assert ran == expected
    assert all(status == "pass" for _, status, _ in ran)


def test_row_balance_and_phi_fail_when_a_triple_leaves_the_unit_stratum(synthetic_b3_doc):
    """The B2-cuspidal triple with the trivial character moves from the
    unit stratum (3|), whose group C2 still asks for two, to (|1,1,1)."""
    rows = {row["stratum"]: row for row in synthetic_b3_doc["rows"]}
    entry = rows["(3|)"]["fiber"].pop(1)
    assert (entry["levi"], entry["character"], entry["d"]) == ("B2", "(2)", 0)
    rows["(|1,1,1)"]["fiber"].append(entry)
    store = TableStore()
    register_external_table(synthetic_b3_doc, store)
    checks = run_all(parse_type("B3"), store).checks
    assert ("row-balance", "fail", "row '(3|)': fiber 1 != inventory 2") in checks
    assert ("regular-fiber-phi", "fail", "unit stratum fiber 1, phi-sum 2") in checks


def test_empty_completeness_fails_when_a_head_stands_for_a_dropped_row(synthetic_b3_doc):
    """The singleton row (|2,1) is dropped and the later row (|3) prints
    the earlier head (2,1|) again, with a disamb: the resolver relabels
    that entry as (|2,1), so the table places, but the empty-Levi
    entries miss one label and print another twice."""
    b3 = parse_type("B3")
    store = TableStore()
    register_external_table(synthetic_b3_doc, store)
    assert verify._check_empty_completeness(b3, placement(b3, store)) == (
        "pass", "10 empty-Levi labels exhaust the registry")

    rows = synthetic_b3_doc["rows"]
    heads = [row["stratum"] for row in rows]
    del rows[heads.index("(|2,1)")]
    later = rows[heads.index("(|3)")]
    later["fiber"].append({"levi": "-", "character": "(2,1|)", "d": 0, "mult": 1, "disamb": "a"})
    later["groups"] = {"0": "C2", "2": "C2", "3": "C2"}
    pl = resolve_placement(*parse_table_document(synthetic_b3_doc))
    assert pl.relabelled == {(heads.index("(|3)"), 1): ("-", "(|2,1)", 0)}
    failing = ("fail", "missing ['(|2,1)'], duplicated ['(2,1|)']")
    assert registry_gaps(pl) == (["(|2,1)"], ["(2,1|)"])
    assert verify._check_empty_completeness(b3, pl) == failing
    broken = TableStore()
    broken.install(pl)
    assert ("empty-completeness", *failing) in run_all(b3, broken).checks
    with pytest.raises(PlacementMismatch) as err:
        register_external_table(synthetic_b3_doc, TableStore())
    assert str(err.value) == "table for B3 does not exhaust the registry; missing ['(|2,1)']"


def test_phi_fails_when_the_unit_label_heads_no_row(synthetic_b3_doc):
    """The unit stratum's row (3|) is dropped and its two triples are
    printed after the head of (2,1|): the table places, lists every
    registry label once and registers, but (3|) heads no row."""
    b3 = parse_type("B3")
    rows = synthetic_b3_doc["rows"]
    unit = rows.pop(0)
    assert unit["stratum"] == "(3|)" and rows[0]["stratum"] == "(2,1|)"
    rows[0]["fiber"] += unit["fiber"]
    rows[0]["groups"] = {"0": "C3", "2": "C3", "3": "C3"}
    store = TableStore()
    assert register_external_table(synthetic_b3_doc, store) == (
        "B3: registered (9 rows, 12 triples placed)")
    checks = run_all(b3, store).checks
    assert ("regular-fiber-phi", "fail",
            "unit stratum not found: '(3|)' is not a stratum of B3") in checks
    assert [cid for cid, status, _ in checks if status == "fail"] == ["regular-fiber-phi"]


def test_boxed_check_fails_for_a_deviation_outside_the_bad_primes(synthetic_b3_doc):
    """The unit row (3|) deviates at 2 and 3 and boxes both; B3's only
    bad prime is 2."""
    unit = synthetic_b3_doc["rows"][0]
    assert unit["stratum"] == "(3|)"
    unit["groups"] = {"0": "1", "2": "C4", "3": "C3"}
    unit["boxed"] = ["2", "3"]
    store = TableStore()
    assert register_external_table(synthetic_b3_doc, store) == (
        "B3: registered (10 rows, 12 triples placed)")
    checks = run_all(parse_type("B3"), store).checks
    assert ("boxed-recomputation", "fail", "row '(3|)' deviates outside bad primes") in checks


@pytest.mark.parametrize("entry, message", [
    ({"levi": "-", "character": "(1,1,1|)", "d": 1, "mult": 1},
     "table for B3 places entries with Levi/d ('-', 1) outside the cuspidal-support "
     "enumeration"),
    ({"levi": "B2", "character": "(2)", "d": 0, "mult": 1, "disamb": "b"},
     "duplicated entry (B2,(2),0)@b in row '(2,1|)' cannot be assigned a remaining character"),
    ({"levi": "-", "character": "(1,1,1|)", "d": 0, "mult": 1},
     "entry (1,1,1|) in row '(1,1,1|)' does not match the enumeration for B3"),
    ({"levi": "-", "character": "(1,1,1|)", "d": 0, "mult": 1, "disamb": "x"},
     "entry (1,1,1|) in row '(1,1,1|)' does not match the enumeration for B3"),
], ids=["levi-d-outside-the-enumeration", "duplicate-with-no-character-left",
        "later-head-triple", "later-head-triple-with-disamb"])
def test_resolver_refuses_entries_it_cannot_place(synthetic_b3_doc, entry, message):
    """The entry is appended to row (2,1|): a d that no triple of the
    empty Levi has, a second copy of row (3|)'s B2 entry, whose family
    has no character left for it, or the triple of the later head
    (1,1,1|), with or without a disamb.  That entry takes the head's
    triple first, so the head, which carries no disamb, is refused: no
    table that places lets a head's triple leave the head's row."""
    row = next(row for row in synthetic_b3_doc["rows"] if row["stratum"] == "(2,1|)")
    row["fiber"].append(entry)
    with pytest.raises(PlacementMismatch) as err:
        register_external_table(synthetic_b3_doc, TableStore())
    assert str(err.value) == message


def test_a_built_in_table_in_another_key_order_is_refused_naming_the_row():
    """Rows equal as objects but printed with their keys in another
    order differ as text; the refusal names the first such row."""
    doc = table_document(parse_type("A2"))
    rows = doc["rows"]
    rows[0]["groups"] = dict(reversed(rows[0]["groups"].items()))
    rows[2] = dict(reversed(rows[2].items()))
    with pytest.raises(TableFormatError, match=(
        r"^A2 is built in and the submitted table differs: "
        r"row '\(3\)' differs only in the order of its keys$"
    )):
        register_external_table(doc, TableStore())
    rows[0]["groups"] = dict(reversed(rows[0]["groups"].items()))
    with pytest.raises(TableFormatError, match=r"row '\(1,1,1\)' differs only in the order"):
        register_external_table(doc, TableStore())
