import ast
from pathlib import Path

import pytest

from charstrata.cartan import parse_type
from charstrata.cuspidal import enumerate_cs_prime
from charstrata.labels import enumerate_irr

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "charstrata"


def source_nodes():
    """(module name, dotted name of the enclosing class or def, node) for
    every node of every module of the package; the scope of a class or
    def node is its own name, and '' is module level."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield inner, child
            yield from walk(child, inner)

    for path in sorted(SOURCE_DIR.glob("*.py")):
        for scope, node in walk(ast.parse(path.read_text()), ""):
            yield path.stem, scope, node


# The constant group whose inventory has as many elements as a fiber of
# this size, so that every row balances.
_GROUP_FOR_FIBER = {1: "1", 2: "C2", 3: "C3"}


def _constant_row(head: str, extra=(), group="1"):
    fiber = [{"levi": "-", "character": head, "d": 0, "mult": 1}]
    fiber.extend(extra)
    return {
        "stratum": head,
        "fiber": fiber,
        "groups": {"0": group, "2": group, "3": group},
        "boxed": ["single"],
        "membership": "full",
    }


def _balanced_table(type_name: str, placed: dict[str, list[tuple[str, str]]]) -> dict:
    """A table with one constant row per registry character; placed
    maps a head to the (Levi, character) triples its fiber carries
    besides the head, each with d = 0."""
    heads = [lab.text for lab in enumerate_irr(parse_type(type_name))]
    assert set(placed) <= set(heads)
    rows = []
    for head in heads:
        extra = [{"levi": levi, "character": char, "d": 0, "mult": 1}
                 for levi, char in placed.get(head, ())]
        rows.append(_constant_row(head, extra, _GROUP_FOR_FIBER[1 + len(extra)]))
    return {"schema": "strata-table/1", "type": type_name, "rows": rows}


def synthetic_b3_table() -> dict:
    """A structurally valid table for B3: a test fixture for the
    plug-in seam, not real correspondence data.  Places the two
    B2-cuspidal triples so that every generic invariant holds (the
    trivial-character one in the unit stratum, the sign one with the
    sign character)."""
    return _balanced_table("B3", {
        "(3|)": [("B2", "(2)")],
        "(|1,1,1)": [("B2", "(1,1)")],
    })


def synthetic_c4_table() -> dict:
    """A balanced C4 table in the manner of the B3 one: the five
    B2-cuspidal triples (relative group B2, bipartition characters),
    one in the unit stratum, two sharing a row."""
    return _balanced_table("C4", {
        "(4|)": [("B2", "(2|)")],
        "(2|2)": [("B2", "(1,1|)"), ("B2", "(1|1)")],
        "(1|3)": [("B2", "(|2)")],
        "(|1,1,1,1)": [("B2", "(|1,1)")],
    })


def synthetic_d6_table() -> dict:
    """A balanced D6 table in the manner of the B3 one, with the
    D4-cuspidal triples in rows headed by split labels (:I / :II); D6 is
    the smallest D type with both split labels and a cuspidal Levi other
    than the whole group."""
    return _balanced_table("D6", {
        "{6|}": [("D4", "(2|)")],
        "{3|3}:I": [("D4", "(1,1|)")],
        "{3|3}:II": [("D4", "(|2)"), ("D4", "(1|1)")],
        "{1,1,1|1,1,1}:II": [("D4", "(|1,1)")],
    })


def synthetic_spread_table(type_name: str) -> dict:
    """A balanced table for any B, C or D type: the triples with a
    nonempty cuspidal Levi, in enumeration order, two to a row over the
    rows in registry order."""
    t = parse_type(type_name)
    extras = [(tr.levi.levi_name, tr.character.text)
              for tr in enumerate_cs_prime(t) if not tr.levi.is_empty]
    heads = [lab.text for lab in enumerate_irr(t)]
    assert len(extras) <= 2 * len(heads)
    return _balanced_table(type_name, {
        head: extras[2 * i:2 * i + 2] for i, head in enumerate(heads) if 2 * i < len(extras)
    })


@pytest.fixture
def synthetic_b3_doc():
    return synthetic_b3_table()
