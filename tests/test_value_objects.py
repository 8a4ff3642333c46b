"""Semantics of the value objects every query hashes and compares.
Equality, hash, ordering, repr, immutability and pickling are part of
the API for every value class of the package; the derived identity
fields (name, levi_name, key) must agree with the stored
fields they are computed from."""

import ast
import copy
import dataclasses
import functools
import operator
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import charstrata
from charstrata.cartan import (
    TORUS, CartanDatum, CartanError, CartanType, Subsystem, ValueObject, datum, parse_type,
    pseudo_levi_types,
)
from charstrata.cuspidal import (
    CentralizerProfile, CuspidalCounts, CuspidalLevi, SheafTriple, SupportCase,
    centralizer_profiles, cuspidal_counts, cuspidal_levis, enumerate_cs_prime, support_case,
)
from charstrata.labels import (
    BipartitionLabel, CharacterLabel, DPairLabel, IrrRegistry, LabelError, NamedLabel,
    PartitionLabel, TrivialLabel, enumerate_irr,
)
from charstrata.strata import (
    CStarElement, GroupCollection, RootOfUnityLabel, c_collection, c_star,
    regular_fiber_labels,
)
from charstrata.tables import (
    Annotation, FiberEntry, Placement, StrataRow, TableStore, UnknownStratum, placement,
)
from charstrata.verify import VerificationReport, register_external_table, run_all
from conftest import source_nodes, synthetic_b3_table, synthetic_c4_table, synthetic_d6_table

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
    assert (en.levi_name, en.key[2], en.key) == ("E7", 0, ("E7", "1", 0))
    head = FiberEntry(None, TrivialLabel(), 0, 1)
    assert repr(head) == (
        "FiberEntry(levi=None, character=TrivialLabel(), d_printed=0, mult=1, disamb=None)"
    )
    assert (head.levi_name, head.key[2], head.key) == ("-", 0, ("-", "1", 0))
    classical = FiberEntry(CartanType("B", 2), PartitionLabel((2,)), 0, 1)
    assert (classical.key[2], classical.key) == (None, ("B2", "(2)", None))
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
    (FiberEntry(D4, NamedLabel("1"), 0, 1), ("levi", "mult", "levi_name", "key")),
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
            assert en.key[2] == (None if classical else en.d_printed)
            assert en.key[:2] == (en.levi_name, en.character.text)


# ---------------------------------------------------------------------------
# Every value class of the package: the fields its ==, hash and repr are
# made of, in constructor order.  The contract below holds for all of them.

COMPARED = {
    CartanType: ("series", "rank"),
    Subsystem: ("factors",),
    CartanDatum: ("cartan_type", "weyl_order", "degrees", "bad_primes",
                  "highest_root_coeffs", "z_value"),
    CuspidalLevi: ("ambient", "levi_weyl_type", "relative_weyl_type"),
    CuspidalCounts: ("ambient", "counts"),
    SheafTriple: ("levi", "character", "d", "index"),
    SupportCase: ("tag", "r0"),
    CharacterLabel: (),
    TrivialLabel: (),
    PartitionLabel: ("parts",),
    BipartitionLabel: ("alpha", "beta"),
    DPairLabel: ("alpha", "beta", "split"),
    NamedLabel: ("name",),
    IrrRegistry: ("cartan_type", "labels"),
    FiberEntry: ("levi", "character", "d_printed", "mult", "disamb"),
    Annotation: ("groups", "boxed"),
    StrataRow: ("stratum", "fiber", "annotation"),
    Placement: ("type_name", "triples", "rows", "relabelled", "row_of_head",
                "stratum_of_triple", "fiber_pairs", "fiber_expanded", "row_kinds"),
    CentralizerProfile: ("ambient", "d", "characteristic_class", "entries", "note"),
    GroupCollection: ("kind", "tags", "quotient"),
    CStarElement: ("group", "irrep", "origin"),
    RootOfUnityLabel: ("m", "k"),
    VerificationReport: ("type_name", "checks", "errata"),
}

# Attributes computed at construction from the compared fields.
DERIVED = {
    CartanType: ("name",),
    CuspidalLevi: ("levi_name",),
    SheafTriple: ("key",),
    PartitionLabel: ("text",),
    BipartitionLabel: ("text",),
    DPairLabel: ("text",),
    NamedLabel: ("text",),
    TrivialLabel: ("text",),
    IrrRegistry: ("_by_text",),
    FiberEntry: ("levi_name", "key"),
    Annotation: ("r0", "group_of", "collection", "deviation"),
    GroupCollection: ("labels",),
}

CLASSES = list(COMPARED)
CLASS_IDS = [cls.__name__ for cls in CLASSES]


def _fields(value):
    return tuple(getattr(value, f) for f in COMPARED[type(value)])


@functools.lru_cache(maxsize=None)
def _samples():
    """Instances of every class, as the package builds them: E8, G2 and
    the B3/D6 fixtures (D6 for the split D-pair labels)."""
    b3, d6, g2 = parse_type("B3"), parse_type("D6"), parse_type("G2")
    store = TableStore()
    register_external_table(synthetic_b3_table(), store)
    register_external_table(synthetic_d6_table(), store)
    e8_rows = placement(E8).rows
    e8_strata = [row.stratum for row in e8_rows]
    out = [
        E8, TORUS, b3, d6, g2, CartanType("B", 12),
        Subsystem.parse("E7xA1"), Subsystem(()), *sorted(pseudo_levi_types(g2), key=repr),
        datum(E8), datum(TORUS), datum(b3),
        *cuspidal_levis(E8), *cuspidal_levis(b3), *cuspidal_levis(TORUS),
        cuspidal_counts(E8), cuspidal_counts(b3), cuspidal_counts(d6),
        *enumerate_cs_prime(E8)[100:140], *enumerate_cs_prime(b3), *enumerate_cs_prime(TORUS),
        *(support_case(E8, d) for d, _ in cuspidal_counts(E8).counts),
        support_case(g2, 0), support_case(CartanType("B", 2), None),
        CharacterLabel(), TrivialLabel(), PartitionLabel((2, 1)), PartitionLabel(()),
        *enumerate_irr(b3), *enumerate_irr(d6), *enumerate_irr(g2), *e8_strata[:10],
        enumerate_irr(b3), enumerate_irr(d6), enumerate_irr(g2),
        *e8_rows[:12], *placement(b3, store).rows, *placement(d6, store).rows[:8],
        *(en for row in e8_rows[:12] for en in row.fiber),
        *(row.annotation for row in e8_rows),
        placement(g2), placement(b3, store),
        *centralizer_profiles(E8), *centralizer_profiles(parse_type("B6")),
        *(c_collection(E8, s) for s in e8_strata),
        *c_star(E8, "1_0"), *c_star(E8, e8_strata[0]), *c_star(d6, "{3|3}:I", store),
        *regular_fiber_labels(E8), *regular_fiber_labels(TORUS),
        run_all(g2), run_all(b3, store), VerificationReport("B3"),
    ]
    return out


def _of(cls):
    values = [v for v in _samples() if type(v) is cls]
    assert values, cls
    return values


def test_samples_cover_every_kind():
    kinds = {(type(v).__name__, getattr(v, "kind", None)) for v in _samples()}
    assert {("GroupCollection", k) for k in ("single", "pair", "triple")} <= kinds
    assert {a.r0 for a in _of(Annotation)} == {None, 2, 3}
    assert {lab.split for lab in _of(DPairLabel)} == {None, "I", "II"}


@pytest.mark.parametrize("cls", CLASSES, ids=CLASS_IDS)
def test_equality_is_by_compared_fields_within_one_class(cls):
    values = _of(cls)
    for v in values:
        rebuilt = cls(*_fields(v))
        assert rebuilt == v and not (rebuilt != v) and rebuilt is not v
        assert v.__eq__(_fields(v)) is NotImplemented
        assert v != _fields(v) and not (v == _fields(v))
        assert v.__eq__(object()) is NotImplemented
    for v in values[:12]:
        for w in values[:12]:
            assert (v == w) is (_fields(v) == _fields(w))
            assert (v != w) is (_fields(v) != _fields(w))


def test_equality_never_crosses_classes():
    assert NamedLabel("1") != TrivialLabel() and TrivialLabel() != NamedLabel("1")
    assert CharacterLabel() != TrivialLabel() and TrivialLabel() == TrivialLabel()
    assert PartitionLabel((2, 1)) != BipartitionLabel((2, 1), ())
    assert DPairLabel((2,), (1,)) != BipartitionLabel((2,), (1,))
    assert CartanType("E", 8) != ("E", 8) and ("E", 8) != CartanType("E", 8)
    assert Subsystem((E8,)) != (E8,)
    assert RootOfUnityLabel(2, 1) != (2, 1)
    assert VerificationReport("G2") != ("G2", [], [])
    assert len({NamedLabel("1"), TrivialLabel(), CharacterLabel()}) == 3


@pytest.mark.parametrize("cls", CLASSES, ids=CLASS_IDS)
def test_hash_is_the_hash_of_the_compared_fields(cls):
    if cls is VerificationReport:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(_of(cls)[0])
        return
    for v in _of(cls):
        try:
            expected = hash(_fields(v))
        except TypeError:  # a Placement holds dicts
            with pytest.raises(TypeError):
                hash(v)
            continue
        assert hash(v) == expected
        assert hash(cls(*_fields(v))) == expected


@pytest.mark.parametrize("cls", CLASSES, ids=CLASS_IDS)
def test_repr_names_the_class_and_its_compared_fields(cls):
    for v in _of(cls):
        body = ", ".join(f"{f}={getattr(v, f)!r}" for f in COMPARED[cls])
        assert repr(v) == f"{cls.__name__}({body})"


def test_repr_is_exact():
    assert repr(Subsystem.parse("E7xA1")) == (
        "Subsystem(factors=(CartanType(series='A', rank=1), CartanType(series='E', rank=7)))"
    )
    assert repr(CharacterLabel()) == "CharacterLabel()"
    assert repr(PartitionLabel((2, 1))) == "PartitionLabel(parts=(2, 1))"
    assert repr(BipartitionLabel((1,), ())) == "BipartitionLabel(alpha=(1,), beta=())"
    assert repr(DPairLabel((3,), (3,), "I")) == "DPairLabel(alpha=(3,), beta=(3,), split='I')"
    assert repr(DPairLabel((2,), (1,))) == "DPairLabel(alpha=(2,), beta=(1,), split=None)"
    assert repr(cuspidal_counts(E8)) == (
        "CuspidalCounts(ambient=CartanType(series='E', rank=8), "
        "counts=((16, 1), (7, 1), (6, 1), (3, 2), (1, 2), (0, 6)))"
    )
    assert repr(support_case(E8, 3)) == "SupportCase(tag='unique-prime', r0=3)"
    assert repr(support_case(E8, 0)) == "SupportCase(tag='no-prime', r0=None)"
    assert repr(c_collection(E8, "1_0")) == (
        "GroupCollection(kind='triple', tags=('C4', 'C3', 'C5'), quotient=None)"
    )
    assert repr(c_star(E8, "1_0")[0]) == (
        "CStarElement(group='1', irrep='1', origin='faithful-C1')"
    )
    assert repr(RootOfUnityLabel(6, 5)) == "RootOfUnityLabel(m=6, k=5)"
    assert repr(VerificationReport("B3")) == (
        "VerificationReport(type_name='B3', checks=[], errata=[])"
    )
    registry = enumerate_irr(CartanType("A", 2))
    assert repr(registry) == (
        "IrrRegistry(cartan_type=CartanType(series='A', rank=2), "
        "labels=(PartitionLabel(parts=(3,)), PartitionLabel(parts=(2, 1)), "
        "PartitionLabel(parts=(1, 1, 1))))"
    )
    assert repr(datum(TORUS)) == (
        "CartanDatum(cartan_type=CartanType(series='Torus', rank=0), weyl_order=1, "
        "degrees=(), bad_primes=frozenset(), highest_root_coeffs=(), z_value=1)"
    )


@pytest.mark.parametrize("cls", [c for c in CLASSES if c is not CartanType],
                         ids=[n for n in CLASS_IDS if n != "CartanType"])
def test_only_cartan_type_is_ordered(cls):
    v = _of(cls)[0]
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(v, v)


def test_cartan_type_orders_by_series_then_rank_in_every_comparison():
    types = _of(CartanType)
    for a in types:
        for b in types:
            ka, kb = (a.series, a.rank), (b.series, b.rank)
            assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb)
    for method in (E8.__lt__, E8.__le__, E8.__gt__, E8.__ge__):
        assert method(("E", 9)) is NotImplemented
    with pytest.raises(TypeError):
        E8 < ("E", 9)


# Classes that build their instances in their own __init__; every other
# value class uses the shared constructor, directly or through an
# __init__ that only forwards a default to it.
OWN_CONSTRUCTOR = {
    SheafTriple, FiberEntry, StrataRow, PartitionLabel, BipartitionLabel, DPairLabel,
    VerificationReport,
}
FORWARDING = {SupportCase, GroupCollection}
SHARED_CONSTRUCTOR = [
    Placement, CartanDatum, CStarElement, CuspidalCounts, RootOfUnityLabel, CartanType,
    Subsystem, CuspidalLevi, NamedLabel, IrrRegistry, Annotation, CentralizerProfile,
]


def _value_classes(cls=ValueObject):
    for sub in cls.__subclasses__():
        yield sub
        yield from _value_classes(sub)


def test_shared_constructor_fills_every_slot_from_the_fields_and_derive():
    # The shared constructor stores the fields and what _derive returns
    # through _setters, which follow __slots__: the fields come first,
    # and _derive gives one value per remaining slot.
    own = {cls for cls in _value_classes() if "__init__" in cls.__dict__}
    assert own == OWN_CONSTRUCTOR | FORWARDING
    shared = set(_value_classes()) - OWN_CONSTRUCTOR
    assert shared == {*SHARED_CONSTRUCTOR, *FORWARDING, CharacterLabel, TrivialLabel}
    for cls in shared:
        slots, fields = cls.__dict__["__slots__"], cls._fields
        assert slots[:len(fields)] == fields, cls
        for v in _of(cls):
            derived = cls._derive(*_fields(v))
            assert type(derived) is tuple and len(derived) == len(slots) - len(fields), cls
            assert derived == tuple(getattr(v, name) for name in slots[len(fields):]), cls


def test_only_the_labels_build_instances_around_their_init():
    # object.__new__ and _fill live in labels.py alone, where skipping
    # __init__'s checks pays for generated partitions.  A class's
    # _setters are read only by its own __init__ or _fill, through self,
    # and set once, by ValueObject.__init_subclass__.
    readers = set()
    for module, scope, node in source_nodes():
        if isinstance(node, ast.FunctionDef) and node.name == "_fill" or isinstance(
                node, ast.Attribute) and (node.attr == "_fill" or node.attr == "__new__"
                                          and getattr(node.value, "id", None) == "object"):
            assert module == "labels", (module, scope)
        if isinstance(node, ast.Attribute) and node.attr == "_setters":
            if (module, scope) == ("cartan", "ValueObject.__init_subclass__"):
                assert isinstance(node.ctx, ast.Store)
                continue
            cls, _, method = scope.partition(".")
            assert method in ("__init__", "_fill") and getattr(node.value, "id", None) == "self", (
                module, scope)
            readers.add(cls)
    assert {"ValueObject", "SheafTriple", "FiberEntry", "StrataRow", "DPairLabel"} <= readers


@pytest.mark.parametrize("cls", SHARED_CONSTRUCTOR, ids=lambda cls: cls.__name__)
def test_shared_constructor_takes_exactly_the_fields(cls):
    values = _fields(_of(cls)[0])
    message = rf"{cls.__name__}\(\) takes {len(values)} values \({', '.join(cls._fields)}\), got"
    with pytest.raises(TypeError, match=f"{message} {len(values) - 1}$"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=f"{message} {len(values) + 1}$"):
        cls(*values, values[-1])


def test_checks_in_derive_raise_with_their_messages():
    with pytest.raises(CartanError, match=r"^unknown series 'Q'$"):
        CartanType("Q", 1)
    with pytest.raises(CartanError, match=r"^non-canonical type E9$"):
        CartanType("E", 9)
    lab = NamedLabel("1_0")
    with pytest.raises(LabelError, match=r"^duplicate labels in registry for E8$"):
        IrrRegistry(E8, (lab, NamedLabel("8_z"), lab))


def test_value_objects_are_not_sequences():
    with pytest.raises(TypeError):
        iter(E8)
    with pytest.raises(TypeError):
        len(RootOfUnityLabel(2, 1))


@pytest.mark.parametrize("cls", [c for c in CLASSES if c is not VerificationReport],
                         ids=[n for n in CLASS_IDS if n != "VerificationReport"])
def test_assigning_or_deleting_any_attribute_raises_frozen_instance_error(cls):
    v = _of(cls)[-1]
    for attr in COMPARED[cls] + DERIVED.get(cls, ()) + ("not_a_field",):
        before = getattr(v, attr, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{attr}'"):
            setattr(v, attr, before)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{attr}'"):
            delattr(v, attr)
        assert getattr(v, attr, None) == before


def test_verification_report_is_mutable():
    report = VerificationReport("G2")
    report.type_name = "F4"
    report.checks.append(("x", "pass", ""))
    assert report == VerificationReport("F4", [("x", "pass", "")], [])
    assert VerificationReport("G2").checks is not VerificationReport("G2").checks
    del report.errata
    with pytest.raises(AttributeError):
        report.errata


@pytest.mark.parametrize("cls", CLASSES, ids=CLASS_IDS)
def test_pickle_and_copy_round_trips_give_equal_objects(cls):
    for v in _of(cls)[:6]:
        copies = [pickle.loads(pickle.dumps(v, proto))
                  for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(v), copy.deepcopy(v)]
        for c in copies:
            assert type(c) is cls and c == v and repr(c) == repr(v)
            for attr in DERIVED.get(cls, ()):
                assert getattr(c, attr) == getattr(v, attr)
            if cls.__hash__ is not None and cls is not Placement:
                assert hash(c) == hash(v)


def test_copies_keep_working():
    registry = copy.deepcopy(enumerate_irr(CartanType("D", 6)))
    assert registry.by_text("{3|3}:II") == DPairLabel((3,), (3,), "II")
    row = pickle.loads(pickle.dumps(placement(E8).rows[0]))
    assert row.annotation.group_at(5) == placement(E8).rows[0].annotation.group_at(5)
    report = copy.deepcopy(run_all(CartanType("G", 2)))
    report.add("x", "fail", "")
    assert report.failed and not run_all(CartanType("G", 2)).failed


def test_copied_placements_refuse_an_unknown_stratum():
    pl = placement(E8)
    copies = [pickle.loads(pickle.dumps(pl, proto))
              for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies + [copy.copy(pl), copy.deepcopy(pl)]:
        assert c.row_of_head["1_0"] == pl.row_of_head["1_0"]
        with pytest.raises(UnknownStratum, match=r"^'nope' is not a stratum of E8$"):
            c.row_of_head["nope"]


def test_import_loads_no_class_building_machinery():
    # The value classes are plain slotted classes: importing the package
    # and its CLI must not load dataclasses or what it pulls in.
    src = str(Path(charstrata.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    script = (
        "import sys, charstrata, charstrata.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')"
        " if m in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"
