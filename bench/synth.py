"""Seeded, deterministic synthetic strata-table/1 documents for B, C and D.

A generated table is balanced: every registry character heads its own
row, every triple with a nonempty cuspidal Levi is placed in exactly one
row, and each row carries a group whose inventory has as many elements
as the row's fiber.  The unit row takes exactly one extra triple, so its
fiber has size 2 = z for the classical types (the phi law).  Every other
row takes at most MAX_EXTRA extra triples.

The generator also returns where it put each triple, so that answers
from the library can be checked against a reference that does not come
from the code under test.
"""

from __future__ import annotations

import random

from charstrata.cartan import parse_type
from charstrata.cuspidal import enumerate_cs_prime
from charstrata.labels import enumerate_irr, unit_label

MAX_EXTRA = 6

# The group a row of fiber size k carries: C_k has k irreducibles, S5 has 7.
_GROUP_FOR_SIZE = {1: "1", 2: "C2", 3: "C3", 4: "C4", 5: "C5", 6: "C6", 7: "S5"}


def _entry(levi: str, character: str) -> dict:
    return {"levi": levi, "character": character, "d": 0, "mult": 1}


def synthetic_table(type_name: str, seed: int) -> tuple[dict, dict[tuple[str, str], str]]:
    """A balanced strata-table/1 document for a B, C or D type, and the
    stratum the generator placed each triple in, keyed by
    (levi name, character text); '-' is the empty Levi."""
    t = parse_type(type_name)
    if t.series not in ("B", "C", "D"):
        raise ValueError(f"synthetic tables are for B, C and D types, not {t.name}")
    rng = random.Random(f"{t.name}:{seed}")
    heads = [lab.text for lab in enumerate_irr(t)]
    unit = unit_label(t).text
    extras = [(tr.levi.levi_name, tr.character.text)
              for tr in enumerate_cs_prime(t) if not tr.levi.is_empty]
    rng.shuffle(extras)

    # Each non-unit row offers MAX_EXTRA slots; a seeded shuffle of the
    # slots decides which rows the remaining triples land in.
    others = [h for h in heads if h != unit]
    slots = [h for h in others for _ in range(MAX_EXTRA)]
    rng.shuffle(slots)
    placed: dict[str, list[tuple[str, str]]] = {h: [] for h in heads}
    placed[unit].append(extras[0])
    for key, head in zip(extras[1:], slots):
        placed[head].append(key)

    rows = []
    where: dict[tuple[str, str], str] = {}
    for head in heads:
        fiber = [_entry("-", head)] + [_entry(levi, ch) for levi, ch in placed[head]]
        group = _GROUP_FOR_SIZE[len(fiber)]
        rows.append({
            "stratum": head,
            "fiber": fiber,
            "groups": {"0": group, "2": group, "3": group},
            "boxed": ["single"],
            "membership": "full",
        })
        where[("-", head)] = head
        for key in placed[head]:
            where[key] = head
    return {"schema": "strata-table/1", "type": t.name, "rows": rows}, where
