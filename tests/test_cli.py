import argparse
import importlib
import json
import re

import pytest

from charstrata import cli, tables
from charstrata.cartan import CharstrataError, parse_type
from charstrata.cli import VERIFY_ALL_TYPES, main
from charstrata.cuspidal import enumerate_cs_prime
from charstrata.schema import canonical_json, triples_document
from charstrata.verify import CHECK_IDS


def run(capsys, *argv):
    """The exit code, stdout and stderr of a command line, argparse's
    usage errors (SystemExit) included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_info(capsys):
    code, out, _ = run(capsys, "info", "E8")
    assert code == 0
    assert "z value: 6" in out
    assert "E7  relative A1" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "--json", "info", "F4")
    assert code == 0
    doc = json.loads(out)
    assert doc["weyl_order"] == 1152
    assert doc["bad_primes"] == [2, 3]


def test_strata_and_fiber(capsys):
    code, out, _ = run(capsys, "strata", "G2")
    assert code == 0
    assert out.splitlines() == ["eps", "eps_l", "eps_c", "theta''", "theta'", "1"]
    code, out, _ = run(capsys, "fiber", "F4", "--stratum", "chi_{1,1}")
    assert code == 0
    assert "x4" in out
    code, out, _ = run(capsys, "fiber", "F4", "--stratum", "chi_{1,1}", "--expand")
    assert code == 0
    assert len(out.splitlines()) == 6


def test_tau(capsys):
    code, out, _ = run(capsys, "tau", "E8", "--levi", "D4", "--char", "chi_{4,1}")
    assert code == 0 and out.strip() == "35_2"
    code, out, _ = run(capsys, "tau", "G2", "--levi", "G2", "--char", "1", "--d", "1")
    assert code == 0 and out.strip() == "theta'"
    code, out, _ = run(capsys, "tau", "A3", "--char", "(2,1,1)")
    assert code == 0 and out.strip() == "(2,1,1)"


def test_cstar(capsys):
    code, out, _ = run(capsys, "cstar", "E8", "--stratum", "1_0")
    assert code == 0
    assert "c(E) = (C4,C3,C5)" in out
    assert len([l for l in out.splitlines() if "faithful" in l]) == 12


def test_triples_json(capsys):
    code, out, _ = run(capsys, "--json", "triples", "G2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["triples"]) == 10


def test_centralizers(capsys):
    code, out, _ = run(capsys, "centralizers", "E8", "--d", "0")
    assert code == 0
    assert "A4xA4 x4" in out
    code, out, _ = run(capsys, "centralizers", "E8", "--d", "0", "--char-class", "2")
    assert "E6xA2 x2" in out


def test_centralizers_rejects_bad_char_class(capsys):
    for bad in ("foo", "4", "07", "\u0663", "+7", "1", "1000000000039"):
        code, out, err = run(capsys, "centralizers", "E8", "--char-class", bad)
        assert (code, out) == (2, "")
        assert err == f"error: bad --char-class '{bad}'; expected generic, 0 or a prime\n"
    # A prime recorded for no d of E8 selects the generic profile of each d.
    generic = run(capsys, "centralizers", "E8", "--char-class", "generic")
    heads = [line.split(":")[0] for line in generic[1].splitlines() if line.startswith("d=")]
    assert heads == [f"d={d} r=generic" for d in (16, 7, 6, 3, 1, 0)]
    for prime in ("7", "999999999989"):
        assert run(capsys, "centralizers", "E8", "--char-class", prime) == generic


def test_centralizers_char_class_lists_every_d_with_the_profile_that_holds(capsys):
    # G2 records r=2 for d=0 only; at d=1 the generic profile holds at every r.
    code, out, err = run(capsys, "centralizers", "G2", "--char-class", "2")
    assert (code, out, err) == (0, "d=1 r=generic: full x1\nd=0 r=2: A2 x2, full x1\n", "")


@pytest.mark.parametrize("argv, message", [
    (("E8", "--d", "5"), "error: no cuspidal centralizer data for E8 with d=5"),
    # A sign is no ASCII decimal: argparse refuses --d -1 as a usage error.
    (("E8", "--d", "-1"),
     "charstrata centralizers: error: argument --d: '-1' is not an ASCII decimal"),
    (("A3", "--char-class", "3"), "error: no cuspidal centralizer data for A3"),
    (("B5",), "error: no cuspidal centralizer data for B5"),
], ids=["E8-d5", "E8-d-1", "A3", "B5"])
def test_centralizers_without_data_exits_2_naming_type_and_d(capsys, argv, message):
    for json_flag in ((), ("--json",)):
        code, out, err = run(capsys, *json_flag, "centralizers", *argv)
        assert (code, out, err.splitlines()[-1]) == (2, "", message)
        assert err.startswith("usage: " if "argument --d" in message else message)


@pytest.mark.parametrize("argv, flag", [
    (("tau", "E8", "--levi", "D4", "--char", "chi_{4,1}", "--d", "\u0663"), "--d"),
    (("tau", "E8", "--levi", "E7", "--char", "eps", "--index", "\u0661"), "--index"),
    (("tau", "E8", "--levi", "E7", "--char", "eps", "--index", "+1"), "--index"),
    (("centralizers", "E8", "--d", "\u0660"), "--d"),
    (("centralizers", "E8", "--d", " 0"), "--d"),
], ids=["tau-d", "tau-index", "tau-index-sign", "centralizers-d", "centralizers-d-space"])
def test_d_and_index_take_ascii_decimals_only(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and err.endswith(
        f"error: argument {flag}: {argv[-1]!r} is not an ASCII decimal\n")


def test_tau_reads_the_levi_spellings_of_table_entries(capsys):
    assert run(capsys, "tau", "E8", "--levi", "e_7", "--char", "eps") == (0, "1_0\n", "")
    code, out, err = run(capsys, "tau", "E8", "--levi", "Z9", "--char", "eps")
    assert (code, out) == (2, "")
    assert "no triple (Z9,eps,d=None,i=0) in E8" in err


def test_tau_refuses_a_type_without_a_table_before_seeking_its_triple(capsys):
    """tau resolves the type's table first, so a type without one is
    refused for that, whatever its coordinates; a type with one keeps
    the refusal of coordinates that name no triple."""
    assert run(capsys, "tau", "B3", "--levi", "Z9", "--char", "x") == (
        2, "", "error: no strata table for B3; register one for classical types\n")
    assert run(capsys, "tau", "E8", "--levi", "Z9", "--char", "eps") == (
        2, "", "error: no triple (Z9,eps,d=None,i=0) in E8\n")


def _refuse_to_enumerate(t):
    raise AssertionError(f"enumerated the triples of {t.name}")


# Types past the triple budget, by their closed-form triple counts.
OVER_BUDGET = {"A70": 4697205, "D30": 474580, "B30": 1022090}


def _over_budget(name: str) -> str:
    return (f"error: {name} has {OVER_BUDGET[name]} cuspidal-support triples, "
            "over the budget of 300000\n")


@pytest.mark.parametrize("argv", [
    ("tau", "A70", "--levi", "-", "--char", "(71)"),
    ("strata", "A70"),
    ("fiber", "A70", "--stratum", "(71)"),
    ("cstar", "A70", "--stratum", "(71)"),
    ("triples", "D30"),
    ("export", "D30", "--what", "triples"),
    ("export", "A70", "--what", "table"),
])
def test_a_type_past_the_triple_budget_exits_2_naming_type_and_count(capsys, monkeypatch, argv):
    """Refused from the closed-form count, before any triple is built."""
    monkeypatch.setattr(tables, "enumerate_cs_prime", _refuse_to_enumerate)
    assert run(capsys, *argv) == (2, "", _over_budget(argv[1]))


@pytest.mark.parametrize("name", ["A70", "B30"])
def test_registering_a_type_past_the_triple_budget_exits_2(tmp_path, capsys, monkeypatch, name):
    """A built-in type (A70) and one without a table (B30) alike."""
    monkeypatch.setattr(tables, "enumerate_cs_prime", _refuse_to_enumerate)
    row = {"stratum": "x", "fiber": [{"levi": "-", "character": "x", "d": 0, "mult": 1}],
           "groups": {"0": "1", "2": "1", "3": "1"}, "boxed": ["single"], "membership": "full"}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"schema": "strata-table/1", "type": name, "rows": [row]}))
    assert run(capsys, "register", "--in", str(path)) == (2, "", _over_budget(name))


def test_verify_past_the_triple_budget_skips_what_would_enumerate(capsys, monkeypatch):
    """cuspidal-enumeration says skipped with the count, never pass; the
    table checks are skipped, and the checks that enumerate nothing run."""
    monkeypatch.setattr(tables, "enumerate_cs_prime", _refuse_to_enumerate)
    for name, table_skip, profiles in (
        ("A70", "over the triple budget", "skipped  [no cuspidal centralizer data for this type]"),
        ("B30", "no strata table available", "pass  [2 profiles derived]"),
    ):
        code, out, err = run(capsys, "verify", name)
        assert (code, err) == (0, "")
        assert out.splitlines()[:-1] == [
            f"== {name}",
            "  cuspidal-enumeration: skipped  [" + _over_budget(name)[len("error: "):-1] + "]",
            *(f"  {cid}: skipped  [{table_skip}]" for cid in CHECK_IDS[1:7]),
            f"  centralizer-profiles: {profiles}",
        ]
        assert out.splitlines()[-1].startswith("  group-inventories: pass")


# A48's 173,525 triples fit the budget; with its identity table's as many
# rows they do not.
A48_TABLE_OVER_BUDGET = ("error: A48 has 173525 cuspidal-support triples and its identity "
                         "table as many rows, 347050 together, over the budget of 300000\n")


@pytest.mark.parametrize("argv", [
    ("tau", "A48", "--levi", "-", "--char", "(49)"),
    ("strata", "A48"),
    ("fiber", "A48", "--stratum", "(49)"),
    ("cstar", "A48", "--stratum", "(49)"),
])
def test_an_identity_table_past_the_budget_exits_2_before_enumerating(capsys, monkeypatch, argv):
    monkeypatch.setattr(tables, "enumerate_cs_prime", _refuse_to_enumerate)
    assert run(capsys, *argv) == (2, "", A48_TABLE_OVER_BUDGET)


def test_verify_of_an_identity_table_past_the_budget_counts_and_skips_the_table(
    capsys, monkeypatch
):
    """verify A48 counts the triples, which fit the budget (a stand-in of
    the right length here), and skips the six checks of the table."""
    counted = tables.triple_count
    monkeypatch.setattr(tables, "enumerate_cs_prime", lambda t: (None,) * counted(t))
    code, out, err = run(capsys, "verify", "A48")
    assert (code, err) == (0, "")
    assert out.splitlines()[:8] == [
        "== A48",
        "  cuspidal-enumeration: pass  [173525 triples]",
        *(f"  {cid}: skipped  [over the triple budget]" for cid in CHECK_IDS[1:7]),
    ]


def test_info_answers_past_the_triple_budget(capsys, monkeypatch):
    monkeypatch.setattr(tables, "enumerate_cs_prime", _refuse_to_enumerate)
    code, out, err = run(capsys, "info", "A70")
    assert (code, err) == (0, "") and out.startswith("type: A70\n")


def test_pseudo_levi(capsys):
    code, out, _ = run(capsys, "pseudo-levi", "G2")
    assert code == 0
    assert set(out.split()) == {"G2", "A2", "A1xA1", "A1", "-"}


def test_pseudo_levi_c2_lists_the_b2_subsystems_once(capsys):
    code, out, _ = run(capsys, "pseudo-levi", "C2")
    assert (code, out) == run(capsys, "pseudo-levi", "B2")[:2]
    assert out.split() == ["A1xA1", "B2", "A1", "-"]


def test_verify_single_and_all(capsys):
    code, out, _ = run(capsys, "verify", "E8")
    assert code == 0
    assert "triple-placement: pass" in out
    assert "erratum: E8-missing-112th" in out
    code, out, _ = run(capsys, "verify", "B5")
    assert code == 0
    assert "triple-placement: skipped" in out
    assert "no strata table available" in out
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_verify_timings_go_to_stderr_alone(capsys, json_flag):
    code, plain, err = run(capsys, *json_flag, "verify", "all")
    assert code == 0 and err == ""
    code, timed, err = run(capsys, *json_flag, "verify", "--timings", "all")
    assert code == 0 and timed == plain
    lines = [re.fullmatch(r"timing (\S+) ([a-z-]+): \d+\.\d{3} ms", line)
             for line in err.splitlines()]
    assert all(lines), err
    assert [m.groups() for m in lines] == [
        (name, cid) for name in VERIFY_ALL_TYPES for cid in CHECK_IDS]


def test_verify_json(capsys):
    code, out, _ = run(capsys, "--json", "verify", "G2")
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["type"] == "G2"
    assert all(c["status"] in ("pass", "skipped") for c in doc["reports"][0]["checks"])


def test_export_and_register_cycle(tmp_path, capsys):
    out_path = tmp_path / "g2.json"
    code, _, _ = run(capsys, "export", "G2", "--what", "table", "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "register", "--in", str(out_path))
    assert code == 0
    assert "matches the embedded table" in out


def test_tables_dir_loading(tmp_path, capsys, synthetic_b3_doc):
    path = tmp_path / "b3.json"
    path.write_text(canonical_json(synthetic_b3_doc))
    code, out, _ = run(capsys, "--tables", str(tmp_path), "strata", "B3")
    assert code == 0
    assert len(out.splitlines()) == 10
    code, out, _ = run(capsys, "--tables", str(tmp_path), "verify", "B3")
    assert code == 0
    assert "triple-placement: pass" in out
    code, out, _ = run(capsys, "--tables", str(tmp_path), "tau", "B3",
                       "--levi", "B2", "--char", "(2)")
    assert code == 0 and out.strip() == "(3|)"


def test_bad_singleton_membership_exits_2_naming_it(tmp_path, capsys, synthetic_b3_doc):
    synthetic_b3_doc["rows"][1]["membership"] = "singleton:abc"
    path = tmp_path / "b3.json"
    path.write_text(canonical_json(synthetic_b3_doc))
    code, out, err = run(capsys, "register", "--in", str(path))
    assert (code, out) == (2, "")
    assert err == "error: bad membership 'singleton:abc' in row '(2,1|)' of B3\n"


@pytest.mark.parametrize("argv", [
    ("register", "--in", "{path}"), ("--tables", "{dir}", "strata", "B3"),
], ids=["register", "tables"])
def test_deeply_nested_json_exits_2_naming_the_file(tmp_path, capsys, argv):
    path = tmp_path / "B3.json"
    path.write_text("[" * 200_000)
    code, out, err = run(capsys, *(a.format(path=path, dir=tmp_path) for a in argv))
    assert (code, out, err) == (2, "", f"error: {path}: JSON nested too deeply\n")


def test_boolean_d_or_mult_exits_2_naming_the_entry(tmp_path, capsys, synthetic_b3_doc):
    # JSON false and true are not the integers 0 and 1 of the schema.
    path = tmp_path / "b3.json"
    for key, value, message in (("d", False, "d must be >= 0"), ("mult", True, "mult must be >= 1")):
        doc = json.loads(json.dumps(synthetic_b3_doc))
        doc["rows"][1]["fiber"][0][key] = value
        path.write_text(canonical_json(doc))
        code, out, err = run(capsys, "register", "--in", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: row 1 entry 0: {message}\n"


def test_non_string_group_exits_2_naming_row_and_slot(tmp_path, capsys, synthetic_b3_doc):
    # JSON 1 and true are not group tags: neither is read as '1' or 'True'.
    path = tmp_path / "b3.json"
    for value in (1, True):
        doc = json.loads(json.dumps(synthetic_b3_doc))
        doc["rows"][2]["groups"]["0"] = value
        path.write_text(canonical_json(doc))
        code, out, err = run(capsys, "register", "--in", str(path))
        assert (code, out, err) == (2, "", "error: row 2: group at '0' must be a string\n")


def test_register_in_a_directory_exits_2_naming_it(tmp_path, capsys):
    code, out, err = run(capsys, "register", "--in", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(tmp_path) in err


def test_tables_dir_with_an_unreadable_entry_exits_2_naming_it(tmp_path, capsys):
    entry = tmp_path / "B3.json"
    entry.mkdir()
    code, out, err = run(capsys, "--tables", str(tmp_path), "strata", "B3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(entry) in err


def test_unexpected_deviating_pair_exits_2_naming_row_and_pair(
    tmp_path, capsys, synthetic_b3_doc
):
    row = synthetic_b3_doc["rows"][1]
    row["groups"] = {"0": "1", "2": "C3", "3": "C2"}
    row["boxed"] = ["2", "3"]
    path = tmp_path / "b3.json"
    path.write_text(canonical_json(synthetic_b3_doc))
    code, out, err = run(capsys, "register", "--in", str(path))
    assert (code, out) == (2, "")
    assert err == (
        f"error: unexpected deviating pair ('C3', 'C2') in row {row['stratum']!r} of B3\n"
    )
    code, out, err = run(capsys, "--tables", str(tmp_path), "cstar", "B3",
                         "--stratum", row["stratum"])
    assert (code, out) == (2, "")
    assert "unexpected deviating pair ('C3', 'C2')" in err


def test_unrecorded_surjection_exits_2_naming_row_and_surjection(
    tmp_path, capsys, synthetic_b3_doc
):
    # (C2, C3) is an allowed pair, but nothing records how C3 maps onto
    # the characteristic-0 group C6, so the row has no label set.
    row = synthetic_b3_doc["rows"][1]
    assert row["stratum"] == "(2,1|)" and len(row["fiber"]) == 1
    row["groups"] = {"0": "C6", "2": "C2", "3": "C3"}
    row["boxed"] = ["2", "3"]
    path = tmp_path / "b3.json"
    path.write_text(canonical_json(synthetic_b3_doc))
    message = "no recorded surjection C3 -> C6 in row '(2,1|)' of B3"
    code, out, err = run(capsys, "register", "--in", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    for argv in (["cstar", "B3", "--stratum", "(2,1|)"], ["verify", "B3"]):
        code, out, err = run(capsys, "--tables", str(tmp_path), *argv)
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("name, base", [
    ("cartan.CartanError", ValueError),
    ("labels.LabelError", ValueError),
    ("groups.GroupError", ValueError),
    ("cuspidal.CuspidalError", ValueError),
    ("tables.TableFormatError", ValueError),
    ("tables.PlacementMismatch", ValueError),
    ("tables.NoTableAvailable", LookupError),
    ("tables.UnknownStratum", LookupError),
    ("tables.TripleBudgetExceeded", ValueError),
    ("strata.TripleNotFound", LookupError),
])
def test_every_refusal_derives_from_the_package_base(name, base):
    # cli.main catches CharstrataError, so each refusal exits 2.
    module, cls = name.split(".")
    refusal = getattr(importlib.import_module(f"charstrata.{module}"), cls)
    assert issubclass(refusal, CharstrataError) and issubclass(refusal, base)


def test_error_exit_codes(capsys):
    code, _, err = run(capsys, "info", "Z9")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "fiber", "B5", "--stratum", "(5|)")
    assert code == 2 and "no strata table" in err
    code, _, err = run(capsys, "tau", "E8", "--levi", "E8", "--char", "1")
    assert code == 2 and "ambiguous" in err
    code, _, err = run(capsys, "export", "C4", "--what", "table")
    assert code == 2


def test_fiber_and_cstar_json(capsys):
    code, out, _ = run(capsys, "--json", "fiber", "E8", "--stratum", "1_0")
    assert code == 0
    doc = json.loads(out)
    assert sum(en["mult"] for en in doc["fiber"]) == 12
    assert doc["fiber"][-1]["d"] == 0 and doc["fiber"][-1]["levi"] == "E8"
    code, out, _ = run(capsys, "--json", "cstar", "F4", "--stratum", "chi_{9,1}")
    assert code == 0
    doc = json.loads(out)
    assert doc["collection"] == ["D8"]
    assert len(doc["elements"]) == 5


def test_export_report_json(capsys):
    code, out, _ = run(capsys, "export", "G2", "--what", "report")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "verification-report/1"
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_register_in_a_non_utf8_file_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "b3.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run(capsys, "register", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(path) in err


def test_tables_dir_with_a_non_utf8_entry_exits_2_naming_it(tmp_path, capsys, synthetic_b3_doc):
    (tmp_path / "B3.json").write_text(canonical_json(synthetic_b3_doc))
    entry = tmp_path / "C4.json"
    entry.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run(capsys, "--tables", str(tmp_path), "strata", "B3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(entry) in err


def test_missing_tables_dir_exits_2_naming_it(tmp_path, capsys):
    missing = tmp_path / "nonexistent"
    code, out, err = run(capsys, "--tables", str(missing), "strata", "B3")
    assert (code, out) == (2, "")
    assert err == f"error: --tables {missing} does not exist\n"


def test_tables_dir_that_is_a_file_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "B3.json"
    path.write_text("{}")
    code, out, err = run(capsys, "--tables", str(path), "strata", "B3")
    assert (code, out) == (2, "")
    assert err == f"error: --tables {path} is not a directory\n"


def test_missing_tables_dir_from_the_environment_exits_2_naming_it(
    tmp_path, capsys, monkeypatch
):
    missing = tmp_path / "nonexistent"
    monkeypatch.setenv("CHARSTRATA_TABLES", str(missing))
    code, out, err = run(capsys, "strata", "B3")
    assert (code, out) == (2, "")
    assert err == f"error: $CHARSTRATA_TABLES {missing} does not exist\n"


def test_register_in_an_empty_file_exits_2_naming_it(capsys):
    code, out, err = run(capsys, "register", "--in", "/dev/null")
    assert (code, out) == (2, "")
    assert err == "error: /dev/null: Expecting value: line 1 column 1 (char 0)\n"


def test_tables_dir_with_an_undecodable_entry_exits_2_naming_it(tmp_path, capsys, synthetic_b3_doc):
    (tmp_path / "B3.json").write_text(canonical_json(synthetic_b3_doc))
    entry = tmp_path / "X.json"
    entry.write_text('{"schema": \n')
    code, out, err = run(capsys, "--tables", str(tmp_path), "strata", "B3")
    assert (code, out) == (2, "")
    assert err == f"error: {entry}: Expecting value: line 2 column 1 (char 12)\n"


@pytest.mark.parametrize("via", ["register", "tables"])
def test_a_table_with_an_integer_too_long_to_convert_exits_2_naming_it(
    tmp_path, capsys, synthetic_b3_doc, via
):
    synthetic_b3_doc["rows"][0]["fiber"][1]["mult"] = "HUGE"
    entry = tmp_path / "B3.json"
    entry.write_text(canonical_json(synthetic_b3_doc).replace('"HUGE"', "9" * 4400))
    if via == "register":
        code, out, err = run(capsys, "register", "--in", str(entry))
    else:
        code, out, err = run(capsys, "--tables", str(tmp_path), "strata", "B3")
    assert (code, out) == (2, "")
    # Python refuses to convert an integer of more than 4300 digits.
    assert err.startswith(f"error: {entry}: ") and "4300" in err


def test_tables_dir_with_a_misplaced_entry_exits_2_naming_it(tmp_path, capsys, synthetic_b3_doc):
    synthetic_b3_doc["rows"][0]["fiber"].pop()
    entry = tmp_path / "X.json"
    entry.write_text(canonical_json(synthetic_b3_doc))
    code, out, err = run(capsys, "--tables", str(tmp_path), "strata", "B3")
    assert (code, out) == (2, "")
    assert err == f"error: {entry}: table for B3 misses 1 triple(s) (B2, (2), d=None)\n"


def test_tables_dir_with_an_unparsable_levi_exits_2_naming_it(tmp_path, capsys, synthetic_b3_doc):
    synthetic_b3_doc["rows"][0]["fiber"][1]["levi"] = "Z9"
    entry = tmp_path / "X.json"
    entry.write_text(canonical_json(synthetic_b3_doc))
    code, out, err = run(capsys, "--tables", str(tmp_path), "strata", "B3")
    assert (code, out) == (2, "")
    assert err == f"error: {entry}: Z9 is not a cuspidal Levi of B3\n"


@pytest.mark.parametrize("name", ["B²", "B٣"])
def test_info_with_a_non_ascii_rank_exits_2_naming_it(capsys, name):
    assert run(capsys, "info", name) == (2, "", f"error: cannot parse type {name!r}\n")


@pytest.mark.parametrize("argv", [("info", "A1558"), ("--json", "info", "A3000"), ("info", "B5000")])
def test_a_rank_above_the_ceiling_exits_2_naming_type_and_ceiling(capsys, argv):
    # The Weyl order of A1558 has more digits than Python prints.
    assert run(capsys, *argv) == (
        2, "", f"error: type {argv[-1]} exceeds the rank ceiling 1000\n",
    )


def test_the_ceiling_rank_prints_its_info(capsys):
    for name in ("A1000", "B1000", "C1000", "D1000"):
        code, out, err = run(capsys, "--json", "info", name)
        assert (code, err) == (0, "")
        assert json.loads(out)["type"] == name


def test_a_number_too_long_to_print_exits_2_naming_it(capsys):
    huge = "9" * 4400
    assert run(capsys, "info", "A" + huge) == (2, "", f"error: cannot parse type 'A{huge}'\n")
    assert run(capsys, "centralizers", "B6", "--char-class", huge) == (
        2, "", f"error: bad --char-class '{huge}'; expected generic, 0 or a prime\n",
    )


@pytest.mark.parametrize("command", ["fiber", "cstar"])
def test_unknown_torus_stratum_exits_2_naming_it(capsys, command):
    assert run(capsys, command, "Torus", "--stratum", "nope") == (
        2, "", "error: 'nope' is not a stratum of Torus\n",
    )


def test_identity_table_export_round_trips_through_register(tmp_path, capsys):
    path = tmp_path / "A2.json"
    assert run(capsys, "export", "A2", "--what", "table", "--out", str(path)) == (0, "", "")
    rows = json.loads(path.read_text())["rows"]
    assert [row["stratum"] for row in rows] == ["(3)", "(2,1)", "(1,1,1)"]
    assert run(capsys, "register", "--in", str(path)) == (
        0, "A2: accepted (the identity parametrization is built in)\n", "",
    )


def test_torus_table_export_round_trips_through_register(tmp_path, capsys):
    path = tmp_path / "Torus.json"
    assert run(capsys, "export", "Torus", "--what", "table", "--out", str(path)) == (0, "", "")
    assert run(capsys, "register", "--in", str(path)) == (
        0, "Torus: accepted (the identity parametrization is built in)\n", "",
    )


def test_identity_table_that_differs_exits_2_naming_the_difference(tmp_path, capsys):
    path = tmp_path / "A2.json"
    assert run(capsys, "export", "A2", "--what", "table", "--out", str(path)) == (0, "", "")
    doc = json.loads(path.read_text())
    for row in doc["rows"]:
        row["groups"] = {slot: "C2" for slot in row["groups"]}
    path.write_text(canonical_json(doc))
    assert run(capsys, "register", "--in", str(path)) == (
        2, "", "error: A2 is built in and the submitted table differs: "
        "row '(3)' differs in its annotations\n",
    )
    doc["rows"].reverse()
    path.write_text(canonical_json(doc))
    assert run(capsys, "register", "--in", str(path)) == (
        2, "", "error: A2 is built in and the submitted table differs: "
        "row head '(1,1,1)' where '(3)' expected\n",
    )
    del doc["rows"][0]
    path.write_text(canonical_json(doc))
    assert run(capsys, "register", "--in", str(path)) == (
        2, "", "error: A2 is built in and the submitted table differs: "
        "2 rows submitted, 3 built in\n",
    )


# One command line of each command but export, which prints JSON
# alone; {table} is the exported G2 table.
G2_COMMANDS = {
    "info": ("info", "G2"),
    "strata": ("strata", "G2"),
    "fiber": ("fiber", "G2", "--stratum", "1"),
    "tau": ("tau", "G2", "--char", "1"),
    "cstar": ("cstar", "G2", "--stratum", "1"),
    "triples": ("triples", "G2"),
    "centralizers": ("centralizers", "G2"),
    "pseudo-levi": ("pseudo-levi", "G2"),
    "verify": ("verify", "G2"),
    "register": ("register", "--in", "{table}"),
}


def test_every_command_but_export_has_a_renderer():
    (sub,) = [a for a in cli._build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) - {"export"} == set(G2_COMMANDS) == set(cli._TEXT)
    # Each command that names a type, and each export, has a document.
    (what,) = [a for a in sub.choices["export"]._actions if a.dest == "what"]
    typed = set(sub.choices) - {"verify", "register", "export"}
    assert set(cli._DOCUMENT) == typed | set(what.choices)


@pytest.mark.parametrize("command", sorted(G2_COMMANDS))
def test_text_is_rendered_from_the_json_document(tmp_path, capsys, command):
    table = tmp_path / "G2.json"
    assert run(capsys, "export", "G2", "--what", "table", "--out", str(table)) == (0, "", "")
    argv = [a.format(table=table) for a in G2_COMMANDS[command]]
    code, out, err = run(capsys, "--json", *argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert out == canonical_json(doc) and "G2" in out
    text = "".join(f"{line}\n" for line in cli._TEXT[command](doc))
    assert run(capsys, *argv) == (0, text, "")


@pytest.mark.parametrize("name", VERIFY_ALL_TYPES + ("B3", "C4", "D6"))
def test_each_triple_record_renders_as_its_triple_describes_itself(name):
    t = parse_type(name)
    records = triples_document(t)["triples"]
    assert [cli._triple_text(r, t.is_torus) for r in records] == [
        tr.describe() for tr in enumerate_cs_prime(t)
    ]
