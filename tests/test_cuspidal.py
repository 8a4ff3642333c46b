import pytest

from charstrata import cuspidal, labels, tabledata
from charstrata.cartan import CartanType, Subsystem, TORUS, datum, parse_type
from charstrata.cuspidal import (
    CuspidalError,
    CuspidalLevi,
    centralizer_profile,
    centralizer_profiles,
    cuspidal_counts,
    cuspidal_levis,
    enumerate_cs_prime,
    irr_count,
    support_case,
    triple_count,
)
from charstrata.labels import enumerate_irr, relative_character_labels
from oracle_reflection import relative_weyl_order, root_system


def _levi_names(name):
    return [l.levi_name for l in cuspidal_levis(parse_type(name))]


def test_cuspidal_levi_lists():
    assert _levi_names("E7") == ["-", "D4", "E6", "E7"]
    assert _levi_names("E8") == ["-", "D4", "E6", "E7", "E8"]
    assert _levi_names("E6") == ["-", "D4", "E6"]
    assert _levi_names("F4") == ["-", "B2", "F4"]
    assert _levi_names("G2") == ["-", "G2"]
    assert _levi_names("A7") == ["-"]
    assert _levi_names("B30") == ["-", "B2", "B6", "B12", "B20", "B30"]
    assert _levi_names("C12") == ["-", "B2", "B6", "B12"]
    assert _levi_names("D4") == ["-", "D4"]
    assert _levi_names("D16") == ["-", "D4", "D16"]
    assert _levi_names("Torus") == ["-"]


def test_relative_weyl_types():
    relatives = {
        l.levi_name: (l.relative_weyl_type.name if l.relative_weyl_type else "1")
        for l in cuspidal_levis(parse_type("E8"))
    }
    assert relatives == {"-": "E8", "D4": "F4", "E6": "G2", "E7": "A1", "E8": "1"}
    e7 = {
        l.levi_name: (l.relative_weyl_type.name if l.relative_weyl_type else "1")
        for l in cuspidal_levis(parse_type("E7"))
    }
    assert e7 == {"-": "E7", "D4": "B3", "E6": "A1", "E7": "1"}
    b30 = {
        l.levi_name: (l.relative_weyl_type.name if l.relative_weyl_type else "1")
        for l in cuspidal_levis(parse_type("B30"))
    }
    assert b30["B2"] == "B28" and b30["B30"] == "1" and b30["B20"] == "B10"
    # rank-1 remainder normalizes to A1
    d5 = {l.levi_name: l.relative_weyl_type.name if l.relative_weyl_type else "1"
          for l in cuspidal_levis(parse_type("D5"))}
    assert d5["D4"] == "A1"


# Bourbaki's nodes, from 0, of each proper cuspidal Levi of an
# exceptional type; every other cuspidal Levi of rank m is the last m
# nodes.
_EXCEPTIONAL_NODES = {
    ("E", "D4"): (1, 2, 3, 4), ("E", "E6"): tuple(range(6)), ("E", "E7"): tuple(range(7)),
    ("F", "B2"): (1, 2),
}


@pytest.mark.parametrize("name", ["G2", "F4", "E6", "E7", "E8"] + [
    f"{series}{n}" for series, low in (("B", 2), ("C", 2), ("D", 4)) for n in range(low, 11)])
def test_relative_weyl_groups_have_the_order_the_root_system_gives(name):
    """|N_W(W_J)/W_J|, derived from the integer root system, is the Weyl
    order of the relative type cuspidal_levis states, 1 if trivial."""
    t = parse_type(name)
    for levi in cuspidal_levis(t):
        lt, rel = levi.levi_weyl_type, levi.relative_weyl_type
        m = 0 if lt is None else lt.rank
        nodes = _EXCEPTIONAL_NODES.get((t.series, levi.levi_name), range(t.rank - m, t.rank))
        positive, _ = root_system(t.series, t.rank)
        on_nodes = [beta for beta in positive if all(beta[i] == 0 for i in range(t.rank)
                                                     if i not in nodes)]
        assert len(on_nodes) == (0 if lt is None else len(root_system(lt.series, lt.rank)[0]))
        order = relative_weyl_order(t.series, t.rank, nodes)
        assert order == (1 if rel is None else datum(rel).weyl_order), levi.levi_name


def _relative_series(name, levi):
    """The relative group of the named type's series with this Levi, and
    the squares of the dimensions of its relative characters."""
    t = parse_type(name)
    (series,) = [l for l in cuspidal_levis(t) if l.levi_name == levi]
    labels = relative_character_labels(t, series.relative_weyl_type)
    return series.relative_weyl_type, [lab.dim ** 2 for lab in labels]


@pytest.mark.parametrize(("name", "levi", "order"), [
    ("E8", "D4", 1152), ("F4", "-", 1152), ("E6", "-", 51_840), ("E7", "-", 2_903_040),
])
def test_relative_characters_square_sum_to_the_relative_group_order(name, levi, order):
    """End(ind A') is the group algebra of N_W(W_J)/W_J, so the squares
    of the dimensions of a series' relative characters sum to its order
    (Geck-Pfeiffer 2000): E8's D4 series lists the 25 characters of
    W(F4), and an empty-Levi series Irr(W)."""
    relative, squares = _relative_series(name, levi)
    assert sum(squares) == datum(relative).weyl_order == order


def test_e8_empty_levi_square_sum_falls_short_by_the_two_label_anomalies():
    """E8's registry lacks 84_64 and prints 79_32 for 70_32 (README,
    "Known data anomalies"), so its squares fall short of |W(E8)| by
    exactly 84^2 + 70^2 - 79^2."""
    relative, squares = _relative_series("E8", "-")
    assert len(squares) == 111
    assert datum(relative).weyl_order - sum(squares) == 84**2 + 70**2 - 79**2 == 5_715


def test_count_tables():
    assert cuspidal_counts(parse_type("G2")).as_dict() == {1: 1, 0: 3}
    assert cuspidal_counts(parse_type("F4")).as_dict() == {4: 1, 2: 1, 1: 1, 0: 4}
    assert cuspidal_counts(parse_type("E6")).as_dict() == {0: 2}
    assert cuspidal_counts(parse_type("E7")).as_dict() == {0: 2}
    assert cuspidal_counts(parse_type("E8")).as_dict() == {
        16: 1, 7: 1, 6: 1, 3: 2, 1: 2, 0: 6,
    }
    assert cuspidal_counts(parse_type("A4")).as_dict() == {}
    assert cuspidal_counts(TORUS).as_dict() == {0: 1}
    for name in ["B2", "B6", "C2", "C6", "D4", "D16"]:
        assert cuspidal_counts(parse_type(name)).as_dict() == {None: 1}
    for name in ["B3", "B5", "C4", "D5", "D6"]:
        assert cuspidal_counts(parse_type(name)).as_dict() == {}


def _expected_total(t: CartanType) -> int:
    total = 0
    for levi in cuspidal_levis(t):
        chars = len(relative_character_labels(t, levi.relative_weyl_type))
        if levi.is_empty and not t.is_torus:
            total += chars
        else:
            inner = t if levi.is_empty else levi.levi_weyl_type
            total += chars * cuspidal_counts(inner).total
    return total


@pytest.mark.parametrize(
    "name,total",
    [("G2", 10), ("F4", 37), ("E6", 30), ("E7", 76), ("E8", 165), ("Torus", 1), ("A7", 22)],
)
def test_enumeration_totals(name, total):
    t = parse_type(name)
    triples = enumerate_cs_prime(t)
    assert len(triples) == total
    assert len(triples) == _expected_total(t)
    assert len({(x.levi.levi_name, x.character.text, x.d, x.index) for x in triples}) == total


# The unipotent characters of the split exceptional groups, and the
# cuspidal ones among them (Lusztig, Characters of Reductive Groups over
# a Finite Field, 1984, section 4; Carter, Finite Groups of Lie Type,
# 1985, section 13.9).  The triples are in bijection with the unipotent
# characters, and these numbers come from the literature, not from the
# tables: a head row missing from the data shows as a recorded erratum.
UNIPOTENT_CHARACTERS = {
    "G2": (10, 4), "F4": (37, 7), "E6": (30, 2), "E7": (76, 2), "E8": (166, 13),
}


@pytest.mark.parametrize("name", sorted(UNIPOTENT_CHARACTERS))
def test_triple_count_is_the_unipotent_character_count(name):
    t = parse_type(name)
    unipotent, cuspidal = UNIPOTENT_CHARACTERS[name]
    missing = [e["id"] for e in tabledata.errata_for(name) if e["kind"] == "missing-row"]
    assert missing == (["E8-missing-112th"] if name == "E8" else [])
    assert triple_count(t) == unipotent - len(missing)
    assert sum(n for _, n in cuspidal_counts(t).counts) == cuspidal


def test_a_series_is_empty_levi_only():
    t = parse_type("A4")
    assert all(tr.levi.is_empty for tr in enumerate_cs_prime(t))
    assert len(enumerate_cs_prime(t)) == len(enumerate_irr(t))


@pytest.mark.parametrize("name", [
    *(f"A{n}" for n in range(1, 15)), *(f"B{n}" for n in range(2, 15)),
    *(f"C{n}" for n in range(2, 15)), *(f"D{n}" for n in range(4, 15)),
    "G2", "F4", "E6", "E7", "E8", "Torus",
])
def test_irr_count_is_the_registry_size(name):
    t = parse_type(name)
    assert irr_count(t) == len(enumerate_irr(t))


def test_irr_count_builds_no_registry(monkeypatch):
    """|Irr W(A200)| = p(201), counted in closed form: a registry of
    that size could never be built."""
    def refuse(t):
        raise AssertionError(f"built the registry of {t.name}")

    monkeypatch.setattr(cuspidal, "enumerate_irr", refuse)
    monkeypatch.setattr(labels, "enumerate_irr", refuse)
    assert irr_count(parse_type("A200")) == 4328363658647


def test_full_levi_forces_trivial_character():
    for name in ["G2", "F4", "E6", "E7", "E8", "B6", "C2", "C6", "D4"]:
        for tr in enumerate_cs_prime(parse_type(name)):
            if tr.levi.relative_weyl_type is None:
                assert tr.character.text == "1"
    # C_n records its full cuspidal Levi by the Weyl type B_n.
    full = cuspidal_levis(parse_type("C6"))[-1]
    assert full.levi_name == "B6" and full.relative_weyl_type is None
    assert cuspidal_levis(parse_type("C6"))[-2].relative_weyl_type is not None


def test_indices_stay_below_counts():
    t = parse_type("E8")
    for tr in enumerate_cs_prime(t):
        if tr.levi.is_empty:
            assert tr.index == 0
            continue
        counts = cuspidal_counts(tr.levi.levi_weyl_type).as_dict()
        assert 0 <= tr.index < counts[tr.d]


def test_support_cases():
    assert support_case(parse_type("E6"), 0).r0 == 3
    assert support_case(parse_type("E7"), 0).r0 == 2
    assert support_case(parse_type("F4"), 4).tag == "all-primes"
    assert support_case(parse_type("F4"), 2).r0 == 2
    assert support_case(parse_type("E8"), 16).tag == "all-primes"
    assert support_case(parse_type("E8"), 3).r0 == 3
    assert support_case(parse_type("E8"), 0).tag == "no-prime"
    assert support_case(parse_type("G2"), 1).tag == "all-primes"
    assert support_case(parse_type("G2"), 0).tag == "mixed"
    assert support_case(TORUS, 0).tag == "torus"
    assert support_case(parse_type("B6"), None) .r0 == 2
    with pytest.raises(CuspidalError):
        support_case(parse_type("A4"), 0)
    with pytest.raises(CuspidalError):
        support_case(parse_type("E8"), 2)


def test_levi_relative_invariants():
    for name in ["A5", "B6", "C6", "D5", "G2", "F4", "E6", "E7", "E8", "Torus"]:
        t = parse_type(name)
        for levi in cuspidal_levis(t):
            if levi.is_empty:
                expected = None if t.is_torus else t
                assert levi.relative_weyl_type == expected
            if levi.levi_weyl_type == t:
                assert levi.relative_weyl_type is None


# ---------------------------------------------------------------------------
# An independent statement of the classical rule: B_n and C_n carry a
# cuspidal Levi of Weyl type B_m for each m = k(k+1) <= n, D_n one of
# type D_m for each m = 4k^2 <= n, with relative group B_{n-m} (B1 = A1,
# trivial for m = n).  The generic centralizer of the cuspidal object
# is spelled out factor by factor with its low-rank aliases.


def _oracle_relative(m):
    if m == 0:
        return None
    return CartanType("A", 1) if m == 1 else CartanType("B", m)


def _oracle_levi_ranks(t):
    step = (lambda k: k * (k + 1)) if t.series in ("B", "C") else (lambda k: 4 * k * k)
    k, out = 1, []
    while step(k) <= t.rank:
        out.append(step(k))
        k += 1
    return out


def _oracle_generic_factors(t):
    n = t.rank
    if t.series == "C":
        half = n // 2
        if half == 1:
            return [CartanType("A", 1)] * 2
        return [CartanType("B", 2) if half == 2 else CartanType("C", half)] * 2
    if t.series == "D":
        half = n // 2
        return [CartanType("A", 1)] * 4 if half == 2 else [CartanType("D", half)] * 2
    k = next(k for k in range(1, n) if k * (k + 1) == n)
    if k % 2 == 0:
        a, b = ((k + 1) ** 2 - 1) // 2, k * k // 2
    else:
        a, b = (k * k - 1) // 2, (k + 1) ** 2 // 2
    factors = []
    if a == 1:
        factors.append(CartanType("A", 1))
    elif a >= 2:
        factors.append(CartanType("B", a))
    if b == 2:
        factors.extend([CartanType("A", 1), CartanType("A", 1)])
    elif b == 3:
        factors.append(CartanType("A", 3))
    elif b >= 4:
        factors.append(CartanType("D", b))
    return factors


CLASSICAL_TYPES_TO_200 = [
    CartanType(series, n)
    for series, low in (("B", 2), ("C", 2), ("D", 4))
    for n in range(low, 201)
]


def test_classical_rule_matches_the_oracle_to_rank_200():
    cuspidal = 0
    for t in CLASSICAL_TYPES_TO_200:
        levi_series = "D" if t.series == "D" else "B"
        expected = [CuspidalLevi(t, None, t)] + [
            CuspidalLevi(t, CartanType(levi_series, m), _oracle_relative(t.rank - m))
            for m in _oracle_levi_ranks(t)
        ]
        assert list(cuspidal_levis(t)) == expected, t.name
        is_cuspidal = t.rank in _oracle_levi_ranks(t)
        assert cuspidal_counts(t).counts == (((None, 1),) if is_cuspidal else ()), t.name
        if not is_cuspidal:
            assert centralizer_profiles(t) == (), t.name
            continue
        cuspidal += 1
        generic = Subsystem(tuple(sorted(_oracle_generic_factors(t))))
        assert centralizer_profile(t, None, "generic").entries == ((generic, 1),), t.name
        assert centralizer_profile(t, None, 2).entries == ((None, 1),), t.name
    # B/C: k(k+1) <= 200 for k = 1..13; D: 4k^2 <= 200 for k = 1..7.
    assert cuspidal == 13 + 13 + 7
