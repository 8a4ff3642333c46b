"""Table registration under mutated documents.  Every seed is a table
that registers (or matches its built-in table); each example drops,
duplicates or swaps entries of one, moves a fiber entry to another row,
or replaces values with ones of the wrong type, and registration must
either accept the result or reject it with one of the errors the CLI
reports as malformed input.  A second strategy edits only the non-head
fiber entries of the classical seeds, so every document it makes passes
the schema; one that prints a d other than 0 for a classical Levi is
refused as the rows are built, and every other reaches the resolver.
Once registered, its heads retract onto their own rows, its expanded
fibers list the enumeration once, and run_all passes triple-placement
and retraction."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from charstrata import cli
from charstrata.cartan import parse_type
from charstrata.cuspidal import enumerate_cs_prime
from charstrata.schema import canonical_json, table_document
from charstrata.tables import PlacementMismatch, TableFormatError, TableStore, placement
from charstrata.verify import CHECK_IDS, register_external_table, run_all
from conftest import synthetic_b3_table, synthetic_c4_table, synthetic_d6_table

SEEDS = {
    **{name: json.loads(canonical_json(table_document(parse_type(name))))
       for name in ("E7", "A2", "Torus")},
    "B3": synthetic_b3_table(),
    "C4": synthetic_c4_table(),
    "D6": synthetic_d6_table(),
}

CLASSICAL = ("B3", "C4", "D6")

# Seed type -> Levi name -> the characters of that Levi's relative group.
RELATIVE = {name: {} for name in CLASSICAL}
for name in CLASSICAL:
    for triple in enumerate_cs_prime(parse_type(name)):
        chars = RELATIVE[name].setdefault(triple.levi.levi_name, [])
        if triple.character.text not in chars:
            chars.append(triple.character.text)

# Values of the wrong type, and strings that are valid somewhere in a
# table document but mostly not where they land.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.just(1.5),
    st.builds(list),
    st.builds(dict),
    st.lists(st.integers(0, 3), max_size=2),
    st.text(max_size=5),
    st.sampled_from([
        "", "-", "0", "1", "2", "5", "B2", "D4", "E6", "E7", "(2)", "(1,1)", "(2|)", "1_0",
        "{3|3}:I", "full", "singleton:2", "singleton:7", "single", "[C2]", "C2", "S3",
        "strata-table/1", "A2", "B3", "Torus", "²",
    ]),
)

SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def _containers(node, out):
    """Every list and dict in a JSON tree, parents first."""
    if isinstance(node, (list, dict)):
        out.append(node)
        for child in node.values() if isinstance(node, dict) else node:
            _containers(child, out)
    return out


def _move_fiber_entry(doc: dict, data) -> None:
    """Move a fiber entry other than a row's head entry to another row,
    which keeps the document well formed and the fiber multiset whole."""
    rows = doc.get("rows")
    if not isinstance(rows, list):
        return
    fibers = [row["fiber"] for row in rows
              if isinstance(row, dict) and isinstance(row.get("fiber"), list)]
    sources = [fib for fib in fibers if len(fib) > 1]
    if sources:
        source = data.draw(st.sampled_from(sources))
        entry = source.pop(data.draw(st.integers(1, len(source) - 1)))
        data.draw(st.sampled_from(fibers)).append(entry)


def _mutate(doc: dict, data) -> None:
    """Apply one random edit to doc, in place: a move of a fiber entry,
    or an edit of some list or dict in it."""
    if data.draw(st.integers(0, 3)) == 0:
        _move_fiber_entry(doc, data)
        return
    node = data.draw(st.sampled_from(_containers(doc, [])))
    keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
    op = data.draw(st.sampled_from(["drop", "duplicate", "swap", "replace", "add"]))
    if op == "add" or not keys:
        junk = data.draw(JUNK)
        if isinstance(node, dict):
            node[data.draw(st.sampled_from(["levi", "d", "rows", "extra", "5"]))] = junk
        else:
            node.append(junk)
        return
    key = data.draw(st.sampled_from(keys))
    if op == "drop":
        del node[key]
    elif op == "duplicate" and isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    elif op == "swap":
        other = data.draw(st.sampled_from(keys))
        node[key], node[other] = node[other], node[key]
    else:
        node[key] = data.draw(JUNK)


def _mutated(data) -> dict:
    doc = copy.deepcopy(SEEDS[data.draw(st.sampled_from(sorted(SEEDS)))])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    return doc


def _edit_fiber_entry(doc: dict, data) -> None:
    """Edit one fiber entry other than a row's head entry, in place:
    move it to another row, or set its d, character (of its Levi's
    relative group), mult or disamb to a value the schema accepts."""
    rows = doc["rows"]
    row = data.draw(st.sampled_from([row for row in rows if len(row["fiber"]) > 1]))
    j = data.draw(st.integers(1, len(row["fiber"]) - 1))
    entry = row["fiber"][j]
    op = data.draw(st.sampled_from(["move", "d", "character", "mult", "disamb"]))
    if op == "move":
        data.draw(st.sampled_from([r for r in rows if r is not row]))["fiber"].append(
            row["fiber"].pop(j))
    elif op == "d":
        entry["d"] = data.draw(st.integers(0, 3))
    elif op == "character":
        others = [c for c in RELATIVE[doc["type"]][entry["levi"]] if c != entry["character"]]
        entry["character"] = data.draw(st.sampled_from(others))
    elif op == "mult":
        entry["mult"] = data.draw(st.integers(1, 3))
    elif data.draw(st.booleans()):
        entry["disamb"] = data.draw(st.sampled_from(["a", "b"]))
    else:
        entry.pop("disamb", None)


def test_every_seed_registers():
    for name, doc in SEEDS.items():
        assert register_external_table(copy.deepcopy(doc), TableStore()).startswith(name + ":")


@SETTINGS
@given(st.data())
def test_registration_accepts_or_rejects_a_mutated_table(data):
    doc = _mutated(data)
    try:
        register_external_table(doc, TableStore())
    except (TableFormatError, PlacementMismatch):
        pass


@SETTINGS
@given(st.data())
def test_register_command_exits_0_or_2_on_a_mutated_table(data):
    doc = _mutated(data)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["register", "--in", str(path)])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
    assert "Traceback" not in err.getvalue()


@SETTINGS
@given(st.data())
def test_fiber_entry_edits_reach_the_resolver_and_run_all(data):
    doc = copy.deepcopy(SEEDS[data.draw(st.sampled_from(CLASSICAL))])
    for _ in range(data.draw(st.integers(1, 3))):
        _edit_fiber_entry(doc, data)
    store = TableStore()
    classical_d = [
        f"entry ({en['levi']},{en['character']},{en['d']}) in row {row['stratum']!r} of "
        f"{doc['type']} must print d=0: its Levi is classical"
        for row in doc["rows"] for en in row["fiber"][1:] if en["levi"] != "-" and en["d"]
    ]
    if classical_d:
        with pytest.raises(TableFormatError) as err:
            register_external_table(doc, store)
        assert str(err.value) == classical_d[0]
        return
    try:
        register_external_table(doc, store)
    except PlacementMismatch:
        return
    t = parse_type(doc["type"])
    pl = placement(t, store)
    for ri, row in enumerate(pl.rows):
        assert pl.row_of_triple[row.fiber[0].key] == ri, row.stratum.text
    placed = [tr for expanded in pl.fiber_expanded for tr, _ in expanded]
    enum = enumerate_cs_prime(t)
    assert len(placed) == len(set(placed)) == len(enum) and set(placed) == set(enum)
    report = run_all(t, store)
    assert [cid for cid, _, _ in report.checks] == list(CHECK_IDS)
    statuses = {cid: status for cid, status, _ in report.checks}
    assert statuses["triple-placement"] == statuses["retraction"] == "pass"
