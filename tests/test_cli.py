import json

import pytest

from charstrata.cli import main
from charstrata.schema import canonical_json


def run(capsys, *argv):
    code = main(list(argv))
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
    for bad in ("foo", "4"):
        code, out, err = run(capsys, "centralizers", "E8", "--char-class", bad)
        assert (code, out) == (2, "")
        assert err == f"error: bad --char-class '{bad}'; expected generic, 0 or a prime\n"
    code, out, err = run(capsys, "centralizers", "E8", "--char-class", "7")
    assert (code, out, err) == (0, "", "")


def test_pseudo_levi(capsys):
    code, out, _ = run(capsys, "pseudo-levi", "G2")
    assert code == 0
    assert set(out.split()) == {"G2", "A2", "A1xA1", "A1", "-"}


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
    assert err == "error: bad membership 'singleton:abc'\n"


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
    assert err == f"error: {entry}: unknown series 'Z'\n"


@pytest.mark.parametrize("name", ["B²", "B٣"])
def test_info_with_a_non_ascii_rank_exits_2_naming_it(capsys, name):
    assert run(capsys, "info", name) == (2, "", f"error: cannot parse type {name!r}\n")


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
