"""The ledger of typed-in facts: every table the package types in, and
what vouches for it.

A table is a module-level name bound to a dict, tuple, set or list
literal, or to frozenset(...) of one, or a function that types in a
type by name: a dict keyed by literal tuples, or a CartanType built
from literal arguments.  Each is listed in LEDGER with one of

- "derived": the test node (tests/<module>.py::<test>) or `verify`
  check (verify <check id>) that re-derives it without reading it;
- "trusted": the citation it is taken from, unchecked here;
- "not a fact": a dispatch or format table, which states no fact.

A new table fails test_every_typed_table_is_in_the_ledger until it is
listed, and README's "Typed-in facts" renders the ledger row by row.
"""

import ast
import re
from pathlib import Path

from charstrata.verify import CHECK_IDS
from conftest import source_nodes

REPO = Path(__file__).resolve().parent.parent

_SOURCE_PAPER = "the source paper (PAPER.md)"
_TABLES = f"{_SOURCE_PAPER}, stored verbatim; the six table checks of `verify` test its invariants"

LEDGER: dict[str, tuple[str, str]] = {
    "cartan._RANK_OK": ("trusted", "the classification (Bourbaki, Lie VI, plates), aliases refused"),
    "cartan._ALIASES": ("trusted", "the low-rank coincidences B1 = C1 = A1, C2 = B2, D3 = A3"),
    "cartan._factors": ("trusted", "the low-rank coincidence D2 = A1 x A1"),
    "cartan._degrees": (
        "derived",
        "tests/test_cartan.py::test_datum_degrees_and_highest_root_match_the_root_system_oracle"),
    "cartan._highest_root_coeffs": (
        "derived",
        "tests/test_cartan.py::test_datum_degrees_and_highest_root_match_the_root_system_oracle"),
    "cartan._EXCEPTIONAL_MOVES": (
        "derived", "tests/test_cartan.py::test_closed_form_moves_match_the_diagram_deletions"),
    "cartan._FULL_FACTORS": (
        "derived", "tests/test_cartan.py::test_classical_membership_matches_closure"),
    "cuspidal.cuspidal_levis": (
        "derived",
        "tests/test_cuspidal.py::test_relative_weyl_groups_have_the_order_the_root_system_gives"),
    "cuspidal._FIXED_COUNTS": (
        "trusted", f"{_SOURCE_PAPER}; its totals are Lusztig 1984's cuspidal unipotent counts"),
    "cuspidal._PAPER_CASES": ("trusted", f"{_SOURCE_PAPER}; erratum G2-d0-support-case"),
    "groups._INVENTORIES": ("derived", "verify group-inventories"),
    "groups._PULLBACKS": ("trusted", "the characters of C3 and C2xC3 trivial on the kernel"),
    "groups._ALLOWED_PAIRS": ("trusted", _SOURCE_PAPER),
    "groups._TRIPLE": ("trusted", _SOURCE_PAPER),
    "groups._ALIASES": ("not a fact", "spellings of a group in annotations"),
    "labels.RELATIVE_A1": ("trusted", "the source tables' names (Carter 1985, 13.9)"),
    "labels.RELATIVE_A2": ("trusted", "the source tables' names (Carter 1985, 13.9)"),
    "labels.RELATIVE_B2": ("trusted", "the source tables' names (Carter 1985, 13.9)"),
    "labels.relative_character_labels": (
        "not a fact", "which relative groups use the source tables' names"),
    "tabledata.TABLE_G2": ("trusted", _TABLES),
    "tabledata.TABLE_F4": ("trusted", _TABLES),
    "tabledata.TABLE_E6": ("trusted", _TABLES),
    "tabledata.TABLE_E7": ("trusted", _TABLES),
    "tabledata.TABLE_E8": ("trusted", _TABLES),
    "tabledata.TABLES": ("not a fact", "the embedded tables by type name"),
    "tabledata.UNIT_STRATUM": ("trusted", "the source tables' names of the unit character"),
    "tabledata.CENTRALIZER_PROFILES": (
        "trusted", f"{_SOURCE_PAPER}; `verify` centralizer-profiles tests sums and subsystems"),
    "tabledata.ERRATA": ("trusted", "this package's anomaly log (README, Known data anomalies)"),
    "tables.PRIME_SLOTS": ("not a fact", "the characteristic slots of an annotation"),
    "schema._ROW_KEYS": ("not a fact", "the strata-table/1 format"),
    "schema._ENTRY_KEYS": ("not a fact", "the strata-table/1 format"),
    "schema._GROUP_KEYS": ("not a fact", "the strata-table/1 format"),
    "schema._BOXED_FLAGS": ("not a fact", "the strata-table/1 format"),
    "verify.CHECK_IDS": ("not a fact", "the report order of the checks"),
    "verify._TABLE_CHECKS": ("not a fact", "check dispatch"),
    "cli.VERIFY_ALL_TYPES": ("not a fact", "the types `verify all` walks"),
    "cli._TEXT": ("not a fact", "text renderer dispatch"),
    "cli._DOCUMENT": ("not a fact", "document builder dispatch"),
}

_LITERALS = (ast.Dict, ast.Tuple, ast.Set, ast.List)


def _is_table(value) -> bool:
    if isinstance(value, _LITERALS):
        return True
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "frozenset" and len(value.args) == 1
            and isinstance(value.args[0], _LITERALS))


def _types_in_a_type(node) -> bool:
    if isinstance(node, ast.Dict):
        return bool(node.keys) and all(
            isinstance(k, ast.Tuple) and all(isinstance(e, ast.Constant) for e in k.elts)
            for k in node.keys)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("CartanType", "_shared", "simple_type")
            and bool(node.args) and all(isinstance(a, ast.Constant) for a in node.args))


def typed_tables() -> set[str]:
    """The qualified name of every table under src/charstrata/."""
    found = set()
    for module, scope, node in source_nodes():
        if scope:
            if _types_in_a_type(node):
                found.add(f"{module}.{scope}")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if _is_table(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.update(f"{module}.{n.id}" for target in targets
                             for n in ast.walk(target) if isinstance(n, ast.Name))
    return found


def readme_rows() -> list[str]:
    """README's "Typed-in facts" rows, as the ledger renders them."""
    return [f"| `{name}` | {kind} | {f'`{text}`' if kind == 'derived' else text} |"
            for name, (kind, text) in LEDGER.items()]


def test_every_typed_table_is_in_the_ledger():
    assert typed_tables() == set(LEDGER)


def test_each_entry_says_what_vouches_for_it():
    for name, (kind, source) in LEDGER.items():
        assert kind in ("derived", "trusted", "not a fact"), name
        assert source and "|" not in source, name
        if kind != "derived":
            continue
        if source.startswith("verify "):
            assert source.removeprefix("verify ") in CHECK_IDS, name
            continue
        path, test = source.split("::")
        tree = ast.parse((REPO / path).read_text())
        assert test in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}, name


def test_readme_renders_the_ledger():
    text = (REPO / "README.md").read_text()
    section = re.search(r"^## Typed-in facts\n(.*?)(?=^## )", text, re.M | re.S).group(1)
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert rows == readme_rows()
