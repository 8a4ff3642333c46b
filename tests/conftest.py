import pytest

from charstrata.cartan import parse_type
from charstrata.labels import enumerate_irr


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


def synthetic_b3_table() -> dict:
    """A structurally valid table for B3: a test fixture for the
    plug-in seam, not real correspondence data.  Places the two
    B2-cuspidal triples so that every generic invariant holds (the
    trivial-character one in the unit stratum, the sign one with the
    sign character)."""
    heads = [lab.text for lab in enumerate_irr(parse_type("B3"))]
    assert heads[0] == "(3|)" and heads[-1] == "(|1,1,1)"
    rows = []
    for head in heads:
        if head == "(3|)":
            rows.append(_constant_row(
                head, [{"levi": "B2", "character": "(2)", "d": 0, "mult": 1}], "C2"))
        elif head == "(|1,1,1)":
            rows.append(_constant_row(
                head, [{"levi": "B2", "character": "(1,1)", "d": 0, "mult": 1}], "C2"))
        else:
            rows.append(_constant_row(head))
    return {"schema": "strata-table/1", "type": "B3", "rows": rows}


@pytest.fixture
def synthetic_b3_doc():
    return synthetic_b3_table()
