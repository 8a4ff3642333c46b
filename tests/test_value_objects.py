"""Semantics of the value objects every query hashes and compares:
CartanType, CuspidalLevi, SheafTriple and FiberEntry.  Equality, hash,
ordering, repr and immutability are part of the API; the derived
identity fields (name, levi_name, d_semantic, key) must agree with the
stored fields they are computed from."""

import dataclasses

import pytest

from charstrata.cartan import TORUS, CartanType, parse_type
from charstrata.cuspidal import CuspidalLevi, SheafTriple, cuspidal_levis, enumerate_cs_prime
from charstrata.labels import NamedLabel, PartitionLabel, TrivialLabel
from charstrata.tables import FiberEntry, TableStore, placement
from charstrata.verify import register_external_table
from conftest import synthetic_b3_table, synthetic_c4_table, synthetic_d6_table

E8 = CartanType("E", 8)
D4 = CartanType("D", 4)
F4 = CartanType("F", 4)
D4_LEVI = CuspidalLevi(E8, D4, F4)
EMPTY_LEVI = CuspidalLevi(E8, None, E8)

VALUE_IDS = ["CartanType", "CuspidalLevi", "SheafTriple", "FiberEntry"]
FIXTURES = {"B3": synthetic_b3_table, "C4": synthetic_c4_table, "D6": synthetic_d6_table}


def _rows(name):
    t = parse_type(name)
    if name not in FIXTURES:
        return placement(t).rows
    store = TableStore()
    register_external_table(FIXTURES[name](), store)
    return placement(t, store).rows


def test_cartan_type_equality_hash_order_and_repr():
    assert CartanType("E", 8) == parse_type("E8") == E8
    assert CartanType("E", 8) != CartanType("E", 7)
    assert hash(parse_type("e_8")) == hash(E8) == hash(("E", 8))
    assert hash(TORUS) == hash(("Torus", 0))
    types = [parse_type(n) for n in ("Torus", "E8", "B12", "A1", "B3", "G2", "E6", "D4")]
    assert [t.name for t in sorted(types)] == ["A1", "B3", "B12", "D4", "E6", "E8", "G2", "Torus"]
    assert CartanType("B", 3) < CartanType("B", 12) < CartanType("C", 2)
    assert repr(E8) == "CartanType(series='E', rank=8)"
    assert repr(TORUS) == "CartanType(series='Torus', rank=0)"
    assert str(E8) == "E8" and str(TORUS) == "Torus"
    assert {E8: 1}[parse_type("E8")] == 1


def test_cuspidal_levi_equality_hash_and_repr():
    assert cuspidal_levis(E8)[1] == D4_LEVI
    assert cuspidal_levis(E8)[0] == EMPTY_LEVI
    assert D4_LEVI != CuspidalLevi(E8, D4, None)
    assert hash(D4_LEVI) == hash((E8, D4, F4))
    assert repr(D4_LEVI) == (
        "CuspidalLevi(ambient=CartanType(series='E', rank=8), "
        "levi_weyl_type=CartanType(series='D', rank=4), "
        "relative_weyl_type=CartanType(series='F', rank=4))"
    )
    assert (D4_LEVI.levi_name, EMPTY_LEVI.levi_name) == ("D4", "-")
    assert CuspidalLevi(TORUS, None, None).levi_name == "-"


def test_sheaf_triple_equality_hash_and_repr():
    tr = SheafTriple(D4_LEVI, NamedLabel("chi_{1,4}"), None, 0)
    assert tr in enumerate_cs_prime(E8)
    assert tr == SheafTriple(CuspidalLevi(E8, D4, F4), NamedLabel("chi_{1,4}"), None, 0)
    assert tr != SheafTriple(D4_LEVI, NamedLabel("chi_{1,4}"), None, 1)
    assert hash(tr) == hash((D4_LEVI, NamedLabel("chi_{1,4}"), None, 0))
    assert repr(tr) == (
        "SheafTriple(levi=CuspidalLevi(ambient=CartanType(series='E', rank=8), "
        "levi_weyl_type=CartanType(series='D', rank=4), "
        "relative_weyl_type=CartanType(series='F', rank=4)), "
        "character=NamedLabel(name='chi_{1,4}'), d=None, index=0)"
    )
    assert tr.key == ("D4", "chi_{1,4}", None)


def test_fiber_entry_equality_hash_and_repr():
    en = FiberEntry(CartanType("E", 7), NamedLabel("1"), 0, 2, "a")
    assert en == FiberEntry(CartanType("E", 7), NamedLabel("1"), 0, 2, "a")
    assert en != FiberEntry(CartanType("E", 7), NamedLabel("1"), 0, 2)
    assert hash(en) == hash((CartanType("E", 7), NamedLabel("1"), 0, 2, "a"))
    assert repr(en) == (
        "FiberEntry(levi=CartanType(series='E', rank=7), character=NamedLabel(name='1'), "
        "d_printed=0, mult=2, disamb='a')"
    )
    assert (en.levi_name, en.d_semantic, en.key) == ("E7", 0, ("E7", "1", 0))
    head = FiberEntry(None, TrivialLabel(), 0, 1)
    assert repr(head) == (
        "FiberEntry(levi=None, character=TrivialLabel(), d_printed=0, mult=1, disamb=None)"
    )
    assert (head.levi_name, head.d_semantic, head.key) == ("-", 0, ("-", "1", 0))
    classical = FiberEntry(CartanType("B", 2), PartitionLabel((2,)), 0, 1)
    assert (classical.d_semantic, classical.key) == (None, ("B2", "(2)", None))
    assert classical in _rows("B3")[0].fiber


@pytest.mark.parametrize("value", [
    D4_LEVI, SheafTriple(D4_LEVI, NamedLabel("chi_{1,4}"), None, 0),
    FiberEntry(D4, NamedLabel("1"), 0, 1),
], ids=VALUE_IDS[1:])
def test_value_objects_other_than_cartan_type_are_unordered(value):
    with pytest.raises(TypeError):
        value < value
    with pytest.raises(TypeError):
        sorted([value, value])


@pytest.mark.parametrize("value, attrs", [
    (E8, ("series", "rank", "name")),
    (D4_LEVI, ("ambient", "levi_weyl_type", "levi_name")),
    (SheafTriple(D4_LEVI, NamedLabel("chi_{1,4}"), None, 0), ("levi", "d", "key")),
    (FiberEntry(D4, NamedLabel("1"), 0, 1), ("levi", "mult", "levi_name", "d_semantic", "key")),
], ids=VALUE_IDS)
def test_assigning_any_field_raises_frozen_instance_error(value, attrs):
    for attr in attrs:
        before = getattr(value, attr)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, attr, before)
        assert getattr(value, attr) == before


@pytest.mark.parametrize("name", ["G2", "F4", "E6", "E7", "E8", "B3", "C4", "D6"])
def test_keys_agree_with_the_fields_they_name(name):
    t = parse_type(name)
    assert t.name == name
    for tr in enumerate_cs_prime(t):
        assert tr.key == (tr.levi.levi_name, tr.character.text, tr.d)
        levi = tr.levi.levi_weyl_type
        assert tr.levi.levi_name == ("-" if levi is None else levi.name)
    for row in _rows(name):
        for en in row.fiber:
            assert en.levi_name == ("-" if en.levi is None else en.levi.name)
            classical = en.levi is not None and en.levi.is_classical
            assert en.d_semantic == (None if classical else en.d_printed)
            assert en.key == (en.levi_name, en.character.text, en.d_semantic)
