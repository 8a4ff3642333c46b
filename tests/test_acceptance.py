"""Acceptance suite.

One check per delivery criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see every line).

Two pinned values are knowingly red and stay red by design; the
embedded data disagrees with the pins and the disagreement is recorded
in the anomaly log rather than patched:

* criterion 1 pins the E8 triple total at 160, but the shipped E8
  table (and the enumeration it must equal) carries 165: the table's
  E6-Levi entries each have multiplicity 2 (6 characters x 2 cuspidal
  objects = 12, where the pin assumed 6), and one of the 112 head
  characters (84_64) is absent from the shipped rows, see the
  E8-missing-112th anomaly.  The self-consistency half of the
  criterion (table multiset == enumeration) does hold, at 165 = 165.
* criterion 4 pins the E8 registry at 112 labels; the shipped table
  yields 111 for the same reason.
"""

from __future__ import annotations

import copy
import json

import pytest

from charstrata.cartan import CartanType, parse_type
from charstrata.cuspidal import (
    centralizer_profiles, cuspidal_counts, cuspidal_levis, enumerate_cs_prime,
)
from charstrata.cartan import is_pseudo_levi
from charstrata.groups import GROUP_TAGS, conjugacy_class_count, inventory
from charstrata.labels import enumerate_irr, unit_label
from charstrata.schema import canonical_json, table_document
from charstrata.strata import bijection_witness, fiber, placement, regular_fiber_labels
from charstrata.tables import DEFAULT_STORE, TableFormatError, TableStore
from charstrata.verify import register_external_table

from oracle_partitions import oracle_partitions
from oracle_reflection import (
    classical_order_and_classes,
    f4_order_and_classes,
    g2_order_and_classes,
)

TABLE_TYPES = ("G2", "F4", "E6", "E7", "E8")

# Acceptance pins fixed by the delivery contract.
PINNED_TRIPLE_TOTALS = {"G2": 10, "F4": 37, "E6": 30, "E7": 76, "E8": 160}
PINNED_REGISTRY_SIZES = {"G2": 6, "F4": 25, "E6": 25, "E7": 60, "E8": 112}
# Row counts: G2 and E6 were pinned up front; the other three were
# pinned from the embedded data on first build and asserted since.
PINNED_ROW_COUNTS = {"G2": 6, "F4": 20, "E6": 21, "E7": 46, "E8": 74}
PINNED_UNIT_FIBERS = {"G2": 4, "F4": 6, "E6": 4, "E7": 6, "E8": 12}


def report(line: str) -> None:
    print(line)


# -- criterion 1: triple placement ------------------------------------------

@pytest.mark.parametrize("name", TABLE_TYPES)
def test_criterion_1_placement_multiset(name):
    t = parse_type(name)
    pl = placement(t)  # raises PlacementMismatch on any defect
    n = len(enumerate_cs_prime(t))
    placed = sum(map(len, pl.fiber_expanded))
    ok = placed == n
    report(f"criterion 1 (placement multiset, {name}): "
           f"{'PASS' if ok else 'FAIL'} table {placed} = enumeration {n}")
    assert ok


@pytest.mark.parametrize("name", TABLE_TYPES)
def test_criterion_1_pinned_totals(name):
    t = parse_type(name)
    got = len(enumerate_cs_prime(t))
    pinned = PINNED_TRIPLE_TOTALS[name]
    ok = got == pinned
    detail = f"enumerated {got}, pinned {pinned}"
    if not ok and name == "E8":
        detail += (
            "; the shipped E8 data gives 165: 111 head characters + 25 (D4 Levi) "
            "+ 12 (E6 Levi: 6 characters x multiplicity 2, as printed) + 4 (E7 Levi) "
            "+ 13 (E8 Levi); the pin undercounts the E6-Levi family by 6 and the "
            "table lacks the 84_64 row (anomaly E8-missing-112th)"
        )
    report(f"criterion 1 (pinned totals, {name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


# -- criterion 2: row-by-row balance ----------------------------------------

@pytest.mark.parametrize("name", TABLE_TYPES)
def test_criterion_2_row_balance(name):
    t = parse_type(name)
    witness = bijection_witness(t)
    bad = [(h, f, c) for h, f, c in witness if f != c]
    rows_ok = len(witness) == PINNED_ROW_COUNTS[name]
    ok = not bad and rows_ok
    report(f"criterion 2 (row balance, {name}): {'PASS' if ok else 'FAIL'} "
           f"{len(witness)} rows, mismatches {bad[:3]}")
    assert ok, (bad, len(witness))


# -- criterion 3: regular-stratum phi law ------------------------------------

def _unit_fiber_size(t: CartanType) -> int:
    """The length of the unit row's expanded fiber."""
    return len(fiber(t, unit_label(t), expand=True))


def test_criterion_3_phi_law():
    results = []
    for name in TABLE_TYPES:
        t = parse_type(name)
        got = _unit_fiber_size(t)
        expected = len(regular_fiber_labels(t))
        results.append((name, got, expected, PINNED_UNIT_FIBERS[name]))
    for n in (1, 2, 5, 9):
        t = CartanType("A", n)
        results.append((t.name, _unit_fiber_size(t),
                        len(regular_fiber_labels(t)), 1))
    ok = all(g == e == p for _, g, e, p in results)
    report(f"criterion 3 (phi law): {'PASS' if ok else 'FAIL'} {results}")
    assert ok, results


# -- criterion 4: retraction and registry completeness ------------------------

@pytest.mark.parametrize("name", TABLE_TYPES)
def test_criterion_4_retraction(name):
    t = parse_type(name)
    rows = DEFAULT_STORE.table(t)
    heads = [r.stratum.text for r in rows]
    distinct = len(set(heads)) == len(heads)
    first_ok = all(
        r.fiber[0].levi is None and r.fiber[0].character == r.stratum for r in rows
    )
    seen = [en.character.text for r in rows for en in r.fiber if en.levi is None]
    registry = [lab.text for lab in enumerate_irr(t)]
    complete = sorted(seen) == sorted(registry)
    ok = distinct and first_ok and complete
    report(f"criterion 4 (retraction, {name}): {'PASS' if ok else 'FAIL'} "
           f"{len(heads)} heads, {len(seen)} empty-Levi labels")
    assert ok


@pytest.mark.parametrize("name", TABLE_TYPES)
def test_criterion_4_pinned_registry_sizes(name):
    got = len(enumerate_irr(parse_type(name)))
    pinned = PINNED_REGISTRY_SIZES[name]
    ok = got == pinned
    detail = f"registry {got}, pinned {pinned}"
    if not ok and name == "E8":
        detail += (
            "; the shipped table carries 111 distinct head characters, one short "
            "of the 112 characters of the E8 reflection group (anomaly "
            "E8-missing-112th: the absent label is 84_64)"
        )
    report(f"criterion 4 (registry size, {name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_4_reflection_group_oracle():
    order_g2, classes_g2 = g2_order_and_classes()
    order_f4, classes_f4 = f4_order_and_classes()
    ok = (
        (order_g2, classes_g2) == (12, len(enumerate_irr(parse_type("G2"))))
        and (order_f4, classes_f4) == (1152, len(enumerate_irr(parse_type("F4"))))
    )
    report(f"criterion 4 (reflection oracle): {'PASS' if ok else 'FAIL'} "
           f"W(G2) order {order_g2} classes {classes_g2}; "
           f"W(F4) order {order_f4} classes {classes_f4}")
    assert ok


# -- criterion 5: boxed flags recomputed from deviation sets ------------------

@pytest.mark.parametrize("name", TABLE_TYPES)
def test_criterion_5_boxed_recomputation(name):
    from charstrata.cartan import datum

    t = parse_type(name)
    bad_primes = datum(t).bad_primes
    checked = 0
    for row in DEFAULT_STORE.table(t):
        a = row.annotation
        if a.r0 is not None:
            assert a.boxed == frozenset({a.r0})
            continue
        g0 = dict(a.groups)[0]
        deviation = frozenset(p for p in (2, 3, 5) if a.group_at(p) != g0)
        expected = deviation if deviation else frozenset({"single"})
        assert a.boxed == expected, row.stratum.text
        assert deviation <= bad_primes, row.stratum.text
        checked += 1
    report(f"criterion 5 (boxed recomputation, {name}): PASS {checked} full rows")


# -- criterion 6: centralizer profiles are pseudo-Levi and sum to counts ------

@pytest.mark.parametrize(
    "name", list(TABLE_TYPES) + ["B2", "B6", "B12", "C2", "C6", "C12", "D4", "D16"]
)
def test_criterion_6_centralizer_conformance(name):
    t = parse_type(name)
    counts = cuspidal_counts(t).as_dict()
    profiles = centralizer_profiles(t)
    assert profiles, f"no profiles for {name}"
    for p in profiles:
        assert p.total == counts[p.d], (name, p.d)
        for sub, _c in p.entries:
            if sub is not None:
                assert is_pseudo_levi(t, sub), (name, p.d, sub.name)
    report(f"criterion 6 (centralizers, {name}): PASS {len(profiles)} profiles")


# -- criterion 7: group inventories vs brute force ----------------------------

def test_criterion_7_group_inventories():
    for tag in GROUP_TAGS:
        assert len(inventory(tag)) == conjugacy_class_count(tag), tag
    spot = {t: conjugacy_class_count(t) for t in ("S5", "D8", "C2xC3")}
    ok = spot == {"S5": 7, "D8": 5, "C2xC3": 6}
    report(f"criterion 7 (inventories): {'PASS' if ok else 'FAIL'} "
           f"{len(GROUP_TAGS)} groups, spot {spot}")
    assert ok


# -- criterion 8: classical enumeration ---------------------------------------

def test_criterion_8_classical_enumeration():
    def p(n: int) -> int:
        return sum(1 for _ in oracle_partitions(n))

    for n in range(2, 11):
        brute_b = sum(p(a) * p(n - a) for a in range(n + 1))
        assert len(enumerate_irr(CartanType("B", n))) == brute_b
        if n >= 4:
            seen = set()
            extra = 0
            for a in range(n + 1):
                for alpha in oracle_partitions(a):
                    for beta in oracle_partitions(n - a):
                        key = tuple(sorted((alpha, beta)))
                        if alpha == beta and key not in seen:
                            extra += 1
                        seen.add(key)
            assert len(enumerate_irr(CartanType("D", n))) == len(seen) + extra
    b30 = [l.levi_name for l in cuspidal_levis(parse_type("B30"))]
    assert b30 == ["-", "B2", "B6", "B12", "B20", "B30"]
    d16 = [l.levi_name for l in cuspidal_levis(parse_type("D16"))]
    assert d16 == ["-", "D4", "D16"]
    # registry sizes double-checked as reflection-group class counts
    for series, n, order in [("B", 2, 8), ("B", 3, 48), ("B", 4, 384),
                             ("D", 4, 192), ("D", 5, 1920)]:
        got_order, got_classes = classical_order_and_classes(series, n)
        assert got_order == order, (series, n, got_order)
        assert got_classes == len(enumerate_irr(CartanType(series, n))), (series, n)
    report("criterion 8 (classical enumeration): PASS counts n<=10, "
           f"reflection oracle B2..D5, B30 levis {b30}")


# -- criterion 9: round-trip stability and mutation rejection -----------------

def test_criterion_9_roundtrip_and_mutation(synthetic_b3_doc):
    store = TableStore()
    for name in TABLE_TYPES:
        t = parse_type(name)
        text1 = canonical_json(table_document(t, store))
        register_external_table(json.loads(text1), store)
        text2 = canonical_json(table_document(t, store))
        assert text1 == text2, name
    mutated = json.loads(canonical_json(table_document(parse_type("G2"), store)))
    entry = mutated["rows"][4]["fiber"].pop(1)
    mutated["rows"][0]["fiber"].append(entry)
    with pytest.raises(TableFormatError) as err:
        register_external_table(mutated, store)
    assert "(G2,1,1)" in str(err.value)
    register_external_table(copy.deepcopy(synthetic_b3_doc), store)
    text = canonical_json(table_document(parse_type("B3"), store))
    assert json.loads(text)["rows"][0]["stratum"] == "(3|)"
    report("criterion 9 (round trips): PASS 5 embedded tables byte-stable; "
           "mutation rejected naming (G2,1,1)")
