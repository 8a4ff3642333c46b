"""Golden CLI transcripts: each case runs one command line and compares
exit code, stdout and stderr byte for byte with tests/golden/<case>.txt.

To rewrite the goldens after a deliberate output change, run from the
repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from charstrata.cartan import parse_type
from charstrata.cli import main
from charstrata.cuspidal import enumerate_cs_prime
from charstrata.schema import canonical_json, table_document
from conftest import synthetic_b3_table, synthetic_c4_table, synthetic_d6_table

GOLDEN_DIR = Path(__file__).parent / "golden"
# Replaced by a directory holding B3.json, C4.json and D6.json,
# bad/A2-key-order.json: the built-in A2 table with the groups keys of
# its first row in reverse order, bad/B3-membership.json: the B3 table
# with its full row (2,1|) marked singleton:2, and
# bad/B3-five-outside-unit.json: the B3 table with a characteristic-5
# group in row (2,1|), which is not the unit stratum.
TABLES = "{tables}"

CASES: dict[str, tuple[str, ...]] = {
    "verify-all": ("verify", "all"),
    "verify-all-json": ("--json", "verify", "all"),
    "A9-verify": ("verify", "A9"),
    "A70-verify": ("verify", "A70"),
    "A70-tau": ("tau", "A70", "--levi", "-", "--char", "(71)"),
    "A48-tau": ("tau", "A48", "--levi", "-", "--char", "(49)"),
    "E7-tau": ("tau", "E7", "--levi", "E6", "--char", "eps"),
    "E8-tau": ("tau", "E8", "--levi", "D4", "--char", "chi_{4,1}"),
    "E8-tau-duplicated-label": ("tau", "E8", "--levi", "E7", "--char", "eps", "--index", "1"),
    "E8-tau-json": ("--json", "tau", "E8", "--levi", "E6", "--char", "theta''"),
    "F4-tau": ("tau", "F4", "--levi", "B2", "--char", "eps_l"),
    "E7-fiber": ("fiber", "E7", "--stratum", "1_0"),
    "E7-fiber-expand": ("fiber", "E7", "--stratum", "1_0", "--expand"),
    "E8-fiber": ("fiber", "E8", "--stratum", "84_4"),
    "E8-fiber-expand": ("fiber", "E8", "--stratum", "1_0", "--expand"),
    "F4-fiber": ("fiber", "F4", "--stratum", "chi_{1,1}"),
    "F4-fiber-expand": ("fiber", "F4", "--stratum", "chi_{9,1}", "--expand"),
    "F4-fiber-expand-json": ("--json", "fiber", "F4", "--stratum", "chi_{1,1}", "--expand"),
    "E7-cstar": ("cstar", "E7", "--stratum", "21_3"),
    "E8-cstar": ("cstar", "E8", "--stratum", "1_0"),
    "E8-cstar-json": ("--json", "cstar", "E8", "--stratum", "84_4"),
    "F4-cstar": ("cstar", "F4", "--stratum", "chi_{9,1}"),
    "E7-strata": ("strata", "E7"),
    "E8-strata": ("strata", "E8"),
    "E8-strata-json": ("--json", "strata", "E8"),
    "F4-strata": ("strata", "F4"),
    "E7-triples": ("triples", "E7"),
    "E8-triples": ("triples", "E8"),
    "F4-triples": ("triples", "F4"),
    "G2-triples-json": ("--json", "triples", "G2"),
    "Torus-triples": ("triples", "Torus"),
    "E8-export-triples": ("export", "E8", "--what", "triples"),
    "E7-export-table": ("export", "E7", "--what", "table"),
    "E8-export-table": ("export", "E8", "--what", "table"),
    "F4-export-table": ("export", "F4", "--what", "table"),
    "E7-export-report": ("export", "E7", "--what", "report"),
    "E8-export-report": ("export", "E8", "--what", "report"),
    "F4-export-report": ("export", "F4", "--what", "report"),
    "A2-register-key-order": ("register", "--in", f"{TABLES}/bad/A2-key-order.json"),
    "B3-register": ("register", "--in", f"{TABLES}/B3.json"),
    "B3-register-json": ("--json", "register", "--in", f"{TABLES}/B3.json"),
    "B3-register-bad-membership": ("register", "--in", f"{TABLES}/bad/B3-membership.json"),
    "B3-register-five-outside-unit": (
        "register", "--in", f"{TABLES}/bad/B3-five-outside-unit.json"),
    "B3-strata": ("--tables", TABLES, "strata", "B3"),
    "B3-tau": ("--tables", TABLES, "tau", "B3", "--levi", "B2", "--char", "(1,1)"),
    "B3-fiber": ("--tables", TABLES, "fiber", "B3", "--stratum", "(3|)"),
    "B3-fiber-expand": ("--tables", TABLES, "fiber", "B3", "--stratum", "(|1,1,1)", "--expand"),
    "B3-cstar": ("--tables", TABLES, "cstar", "B3", "--stratum", "(3|)"),
    "B3-verify": ("--tables", TABLES, "verify", "B3"),
    "B3-export-table": ("--tables", TABLES, "export", "B3", "--what", "table"),
    "B3-export-strata": ("--tables", TABLES, "export", "B3", "--what", "strata"),
    "C4-register": ("register", "--in", f"{TABLES}/C4.json"),
    "C4-tau": ("--tables", TABLES, "tau", "C4", "--levi", "B2", "--char", "(1|1)"),
    "C4-fiber-expand": ("--tables", TABLES, "fiber", "C4", "--stratum", "(2|2)", "--expand"),
    "D6-register": ("register", "--in", f"{TABLES}/D6.json"),
    "D6-strata": ("--tables", TABLES, "strata", "D6"),
    "D6-tau": ("--tables", TABLES, "tau", "D6", "--levi", "D4", "--char", "(|2)"),
    "D6-fiber-expand": ("--tables", TABLES, "fiber", "D6", "--stratum", "{3|3}:II", "--expand"),
    "D6-fiber-json": ("--json", "--tables", TABLES, "fiber", "D6", "--stratum", "{3|3}:I"),
    "G2-pseudo-levi": ("pseudo-levi", "G2"),
    "F4-pseudo-levi": ("pseudo-levi", "F4"),
    "E6-pseudo-levi": ("pseudo-levi", "E6"),
    "E7-pseudo-levi": ("pseudo-levi", "E7"),
    "E8-pseudo-levi": ("pseudo-levi", "E8"),
    "B12-pseudo-levi": ("pseudo-levi", "B12"),
    "D16-pseudo-levi-json": ("--json", "pseudo-levi", "D16"),
    "Torus-info": ("info", "Torus"),
    "G2-info": ("info", "G2"),
    "F4-info": ("info", "F4"),
    "E6-info": ("info", "E6"),
    "E7-info": ("info", "E7"),
    "E8-info": ("info", "E8"),
    "F4-info-json": ("--json", "info", "F4"),
    "A3-info": ("info", "A3"),
    "B6-info": ("info", "B6"),
    "C6-info": ("info", "C6"),
    "D4-info": ("info", "D4"),
    "D5-info": ("info", "D5"),
    "D16-info": ("info", "D16"),
    "B2-centralizers": ("centralizers", "B2"),
    "B6-centralizers": ("centralizers", "B6"),
    "B30-centralizers": ("centralizers", "B30"),
    "C2-centralizers": ("centralizers", "C2"),
    "C6-centralizers": ("centralizers", "C6"),
    "D4-centralizers": ("centralizers", "D4"),
    "D16-centralizers-json": ("--json", "centralizers", "D16"),
    "E8-centralizers-r7": ("centralizers", "E8", "--d", "0", "--char-class", "7"),
    "E8-centralizers-json": ("--json", "centralizers", "E8", "--d", "0"),
    "E8-centralizers-d5": ("centralizers", "E8", "--d", "5"),
    "A3-centralizers": ("centralizers", "A3", "--char-class", "3"),
    "C6-triples": ("triples", "C6"),
    "D5-triples": ("triples", "D5"),
    "A1558-info": ("info", "A1558"),
    "error-unknown-stratum": ("fiber", "E8", "--stratum", "nope"),
    "error-no-table": ("tau", "B3", "--levi", "B2", "--char", "(2)"),
}


def run(argv: tuple[str, ...], tables_dir: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of a command line."""
    real = [a.replace(TABLES, tables_dir) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(real)
    return code, out.getvalue(), err.getvalue()


def transcript(argv: tuple[str, ...], tables_dir: str) -> str:
    """The command line, its exit code, stdout and stderr as one text."""
    code, out, err = run(argv, tables_dir)
    return f"$ charstrata {' '.join(argv)}\n[exit {code}]\n[stdout]\n{out}[stderr]\n{err}"


def write_tables(directory: Path) -> str:
    for table in (synthetic_b3_table(), synthetic_c4_table(), synthetic_d6_table()):
        (directory / f"{table['type']}.json").write_text(json.dumps(table))
    reordered = table_document(parse_type("A2"))
    first = reordered["rows"][0]
    first["groups"] = dict(reversed(first["groups"].items()))
    (directory / "bad").mkdir(exist_ok=True)
    (directory / "bad" / "A2-key-order.json").write_text(json.dumps(reordered))
    b3 = synthetic_b3_table()
    (row,) = [row for row in b3["rows"] if row["stratum"] == "(2,1|)"]
    row["membership"] = "singleton:2"
    (directory / "bad" / "B3-membership.json").write_text(json.dumps(b3))
    b3 = synthetic_b3_table()
    (row,) = [row for row in b3["rows"] if row["stratum"] == "(2,1|)"]
    row["groups"]["5"] = "1"
    (directory / "bad" / "B3-five-outside-unit.json").write_text(json.dumps(b3))
    return str(directory)


@pytest.fixture(scope="module")
def tables_dir(tmp_path_factory):
    return write_tables(tmp_path_factory.mktemp("tables"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_transcript_matches_golden(case, tables_dir):
    expected = (GOLDEN_DIR / f"{case}.txt").read_text()
    assert transcript(CASES[case], tables_dir) == expected


# The text goldens of every command whose output --json changes (all
# but export).
TEXT_CASES = sorted(
    case for case, argv in CASES.items()
    if "--json" not in argv and argv[2 if argv[0] == "--tables" else 0] != "export"
)


@pytest.mark.parametrize("case", TEXT_CASES)
def test_the_json_form_of_a_text_golden_exits_alike_and_is_canonical(case, tables_dir):
    code, _, _ = run(CASES[case], tables_dir)
    json_code, out, _ = run(("--json",) + CASES[case], tables_dir)
    assert json_code == code
    assert out == ("" if code == 2 else canonical_json(json.loads(out)))


def test_no_golden_command_line_enumerates_a_type_twice(tables_dir, monkeypatch):
    """A command builds each type's triples at most once: the queries on
    a table read the enumeration its placement holds.  Every module of
    the package that binds enumerate_cs_prime gets a counting one."""
    calls = []

    def counting(t):
        calls.append(t.name)
        return enumerate_cs_prime(t)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "charstrata" and getattr(
                module, "enumerate_cs_prime", None) is enumerate_cs_prime:
            monkeypatch.setattr(module, "enumerate_cs_prime", counting)
    twice = {}
    for case, argv in sorted(CASES.items()):
        calls.clear()
        run(argv, tables_dir)
        if again := sorted(name for name, n in Counter(calls).items() if n > 1):
            twice[case] = again
    assert twice == {}


def test_every_golden_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        directory = write_tables(Path(tmp))
        for name, argv in CASES.items():
            (GOLDEN_DIR / f"{name}.txt").write_text(transcript(argv, directory))
