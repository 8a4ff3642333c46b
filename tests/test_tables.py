import re

import pytest

from charstrata.cartan import CartanError, Subsystem, parse_type
from charstrata.cuspidal import cuspidal_counts
from charstrata.tables import (
    DEFAULT_STORE,
    Membership,
    NoTableAvailable,
    TableFormatError,
    UnknownStratum,
    centralizer_profile,
    centralizer_profiles,
    component_group,
    find_row,
    parse_annotation,
)
from charstrata.schema import parse_table_document

ROW_COUNTS = {"G2": 6, "F4": 20, "E6": 21, "E7": 46, "E8": 74}


@pytest.mark.parametrize("name,count", sorted(ROW_COUNTS.items()))
def test_row_counts(name, count):
    assert len(DEFAULT_STORE.table(parse_type(name))) == count


def test_no_table_for_plain_classical():
    with pytest.raises(NoTableAvailable):
        DEFAULT_STORE.table(parse_type("B5"))


def test_e6_unit_row_fiber():
    row = find_row(parse_type("E6"), "1_0")
    keys = [(en.levi_name, en.character.text, en.mult) for en in row.fiber]
    assert keys == [("-", "1_0", 1), ("D4", "1", 1), ("E6", "1", 2)]
    assert row.fiber_size == 4


def test_f4_d8_row_fiber_size():
    row = find_row(parse_type("F4"), "chi_{9,1}")
    assert row.fiber_size == 5
    texts = [en.character.text for en in row.fiber]
    assert texts == ["chi_{9,1}", "chi_{2,1}", "chi_{2,3}", "theta", "1"]


def test_component_group_examples():
    assert component_group(parse_type("F4"), "chi_{12}", 3) == "S4"
    assert component_group(parse_type("F4"), "chi_{12}", 2) == "S3"
    assert component_group(parse_type("E8"), "1_0", 5) == "C5"
    assert component_group(parse_type("E8"), "1_0", 0) == "1"
    assert component_group(parse_type("G2"), "eps_l", 2) is None
    assert component_group(parse_type("G2"), "eps_l", 3) == "1"
    # full-membership rows repeat the characteristic-0 group at r=5
    assert component_group(parse_type("F4"), "chi_{1,1}", 5) == "1"
    assert component_group(parse_type("E8"), "112_3", 5) == "C2"
    with pytest.raises(UnknownStratum):
        component_group(parse_type("G2"), "nope", 2)
    with pytest.raises(TableFormatError):
        component_group(parse_type("G2"), "eps", 7)


def test_membership_and_boxed_flags():
    g2 = parse_type("G2")
    assert find_row(g2, "eps_l").membership == Membership("singleton", 3)
    assert find_row(g2, "eps").boxed == frozenset({"single"})
    assert find_row(g2, "theta'").boxed == frozenset({3})
    f4 = parse_type("F4")
    assert find_row(f4, "chi_{2,2}").membership == Membership("singleton", 2)
    e8 = parse_type("E8")
    assert find_row(e8, "175_12").membership == Membership("singleton", 3)
    assert find_row(e8, "1_0").boxed == frozenset({2, 3, 5})
    assert dict(find_row(e8, "1_0").groups) == {2: "C4", 3: "C3", 5: "C5", 0: "1"}


def test_annotation_parser_s2_normalizes():
    groups, boxed, mem = parse_annotation("[S2],1,(1)")
    assert groups == {2: "C2", 3: "1", 0: "1"}
    assert boxed == frozenset({2})
    assert mem.kind == "full"


def test_annotation_parser_rejects_garbage():
    with pytest.raises(TableFormatError):
        parse_annotation("C2,C3,(1)")  # nothing boxed
    with pytest.raises(TableFormatError):
        parse_annotation("[C2],C3")  # truncated
    with pytest.raises(TableFormatError):
        parse_annotation("-,-,(-)")


def test_centralizer_profile_examples():
    e8 = parse_type("E8")
    generic = centralizer_profile(e8, 0, "generic")
    assert {(s.name if s else "full"): c for s, c in generic.entries} == {
        "A4xA4": 4, "A5xA2xA1": 2,
    }
    r2 = centralizer_profile(e8, 0, 2)
    assert {(s.name if s else "full"): c for s, c in r2.entries} == {
        "A4xA4": 4, "E6xA2": 2,
    }
    r5 = centralizer_profile(e8, 0, 5)
    assert {(s.name if s else "full"): c for s, c in r5.entries} == {
        "full": 4, "A5xA2xA1": 2,
    }
    f4 = centralizer_profile(parse_type("F4"), 1, 2)
    assert f4.entries == ((None, 1),)
    g2 = centralizer_profile(parse_type("G2"), 0, 3)
    assert {(s.name if s else "full"): c for s, c in g2.entries} == {"full": 2, "A1xA1": 1}
    # characteristic 0 falls back to the generic class
    assert centralizer_profile(e8, 3, 0).entries == ((Subsystem.parse("E6xA2"), 2),)


def test_e8_d0_note_attached():
    prof = centralizer_profile(parse_type("E8"), 0, "generic")
    assert prof.note and "A5xA2xA1" in prof.note


def test_classical_profiles_match_stated_shapes():
    expected_generic = {
        "C2": "A1xA1",
        "C6": "C3xC3",
        "C12": "C6xC6",
        "B2": "A1xA1",
        "B6": "B4xA1xA1",
        "B12": "B4xD8",
        "D4": "A1xA1xA1xA1",
        "D16": "D8xD8",
        "B20": "B12xD8",
        "B30": "B12xD18",
        "C20": "C10xC10",
        "C30": "C15xC15",
        "D36": "D18xD18",
        "D64": "D32xD32",
    }
    for name, sub in expected_generic.items():
        t = parse_type(name)
        prof = centralizer_profile(t, None, "generic")
        assert prof.entries == ((Subsystem.parse(sub), 1),), name
        assert centralizer_profile(t, None, 2).entries == ((None, 1),)


def test_profiles_sum_to_counts():
    for name in ["G2", "F4", "E6", "E7", "E8", "B2", "B6", "C6", "D4"]:
        t = parse_type(name)
        counts = cuspidal_counts(t).as_dict()
        profs = centralizer_profiles(t)
        assert profs
        for p in profs:
            assert p.total == counts[p.d], (name, p.d, p.characteristic_class)


def test_no_profile_data_errors():
    with pytest.raises(CartanError):
        centralizer_profile(parse_type("A3"), 0, "generic")
    with pytest.raises(CartanError):
        centralizer_profile(parse_type("G2"), 5, "generic")
    assert centralizer_profiles(parse_type("B5")) == ()


def test_s4_is_annotation_only_never_boxed():
    for name in ROW_COUNTS:
        t = parse_type(name)
        for row in DEFAULT_STORE.table(t):
            groups = dict(row.groups)
            for slot in row.boxed:
                if slot == "single":
                    assert groups[2] != "S4"
                else:
                    assert groups[slot] != "S4", row.stratum.text
    # S4 does occur unboxed
    assert component_group(parse_type("F4"), "chi_{12}", 3) == "S4"


def test_characteristic_5_only_on_e8_unit_row():
    for name in ROW_COUNTS:
        t = parse_type(name)
        for row in DEFAULT_STORE.table(t):
            has5 = any(slot == 5 for slot, _ in row.groups)
            if has5:
                assert (name, row.stratum.text) == ("E8", "1_0")


@pytest.mark.parametrize(
    "groups,accepted",
    [
        ({"0": "1", "2": "C4", "3": "C3"}, True),
        ({"0": "1", "2": "C3", "3": "C2"}, False),
        ({"0": "1", "2": "C4", "3": "C3", "5": "C5"}, True),
        ({"0": "1", "2": "C3", "3": "C4", "5": "C5"}, False),
    ],
)
def test_deviations_at_two_or_three_primes_are_checked_at_parse(
    synthetic_b3_doc, groups, accepted
):
    unit_row = synthetic_b3_doc["rows"][0]
    unit_row["groups"] = groups
    unit_row["boxed"] = sorted(k for k in groups if k != "0")
    if accepted:
        _, rows = parse_table_document(synthetic_b3_doc)
        assert rows[0].deviating == tuple(groups[k] for k in sorted(groups) if k != "0")
    else:
        with pytest.raises(TableFormatError, match=r"unexpected deviating (pair|triple)"):
            parse_table_document(synthetic_b3_doc)


@pytest.mark.parametrize(
    "text", ["singleton:٢", "singleton:+2", "singleton: 2", "singleton:0_2"]
)
def test_singleton_membership_takes_ascii_decimal_only(text):
    with pytest.raises(TableFormatError, match=rf"^bad membership {re.escape(repr(text))}$"):
        Membership.parse(text)
