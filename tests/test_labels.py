import re

import pytest

from charstrata.cartan import CartanType, TORUS, parse_type
from charstrata.labels import (
    BipartitionLabel,
    DPairLabel,
    LabelError,
    NamedLabel,
    PartitionLabel,
    TrivialLabel,
    enumerate_irr,
    _partition_memo,
    parse_label,
    relative_character_labels,
    unit_label,
)
from oracle_partitions import oracle_partitions
from oracle_reflection import root_system, weyl_group


def _p(n: int) -> int:
    return sum(1 for _ in oracle_partitions(n))


def test_a2_has_three_labels():
    assert len(enumerate_irr(parse_type("A2"))) == 3


def test_b2_exact_enumeration_order():
    texts = [lab.text for lab in enumerate_irr(parse_type("B2"))]
    assert texts == ["(2|)", "(1,1|)", "(1|1)", "(|2)", "(|1,1)"]


def test_b3_count_by_partition_convolution():
    assert len(enumerate_irr(parse_type("B3"))) == sum(_p(a) * _p(3 - a) for a in range(4))
    assert len(enumerate_irr(parse_type("B3"))) == 10


def _d_series_bruteforce(n: int) -> int:
    # unordered bipartitions, symmetric ones doubled
    seen = set()
    extra = 0
    for a in range(n + 1):
        for alpha in oracle_partitions(a):
            for beta in oracle_partitions(n - a):
                key = tuple(sorted((alpha, beta)))
                if alpha == beta and key not in seen:
                    extra += 1
                seen.add(key)
    return len(seen) + extra


@pytest.mark.parametrize("n", range(4, 11))
def test_d_series_matches_bruteforce_and_formula(n):
    brute = _d_series_bruteforce(n)
    assert len(enumerate_irr(CartanType("D", n))) == brute
    conv = sum(_p(a) * _p(n - a) for a in range(n + 1))
    correction = 3 * _p(n // 2) if n % 2 == 0 else 0
    assert brute == (conv + correction) // 2


@pytest.mark.parametrize("n", range(2, 11))
def test_b_series_count_formula(n):
    assert len(enumerate_irr(CartanType("B", n))) == sum(
        _p(a) * _p(n - a) for a in range(n + 1))


def test_d4_thirteen_labels_with_two_split_pairs():
    labs = enumerate_irr(parse_type("D4"))
    assert len(labs) == 13
    split = [lab for lab in labs if isinstance(lab, DPairLabel) and lab.split]
    assert sorted(lab.text for lab in split) == [
        "{1,1|1,1}:I", "{1,1|1,1}:II", "{2|2}:I", "{2|2}:II",
    ]


def test_exceptional_counts():
    assert len(enumerate_irr(parse_type("G2"))) == 6
    assert len(enumerate_irr(parse_type("F4"))) == 25
    assert len(enumerate_irr(parse_type("E6"))) == 25
    assert len(enumerate_irr(parse_type("E7"))) == 60
    # the embedded E8 table carries 111 distinct empty-Levi labels
    assert len(enumerate_irr(parse_type("E8"))) == 111


def test_g2_registry_names():
    assert [lab.text for lab in enumerate_irr(parse_type("G2"))] == [
        "eps", "eps_l", "eps_c", "theta''", "theta'", "1",
    ]


def test_a_relative_character_name_has_no_dim():
    """E7's relative A1 characters are named 1 and eps, neither a
    dim_b name nor a chi name."""
    one, eps = relative_character_labels(parse_type("E7"), parse_type("A1"))
    assert (eps.text, eps.dim, eps.b_value) == ("eps", None, None)
    assert isinstance(eps, NamedLabel) and one.dim is None


def test_e_series_dim_b_parse():
    lab = parse_label(parse_type("E8"), "4480_16")
    assert isinstance(lab, NamedLabel)
    assert lab.dim == 4480
    assert lab.b_value == 16
    chi = parse_label(parse_type("F4"), "chi_{9,1}")
    assert chi.dim == 9 and chi.b_value is None


def test_f4_dimensions_sum_to_the_involutions_of_its_weyl_group():
    """Every character of a Weyl group is rational with Frobenius-Schur
    indicator +1 (Geck-Pfeiffer 2000), so the degrees of Irr W(F4) sum
    to the number of g in W(F4) with g^2 = 1, counted on the roots."""
    _, reflections = root_system("F", 4)
    involutions = sum(
        all(g[g[k]] == k for k in range(len(g))) for g in weyl_group(reflections))
    assert sum(lab.dim for lab in enumerate_irr(parse_type("F4"))) == involutions == 140


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_dim_b_pairs_are_distinct(name):
    labs = enumerate_irr(parse_type(name))
    pairs = [(lab.dim, lab.b_value) for lab in labs]
    assert len(set(pairs)) == len(pairs)


@pytest.mark.parametrize(
    "name", ["A3", "A6", "B2", "B5", "C4", "D4", "D7", "G2", "F4", "E6", "E7", "E8", "Torus"]
)
def test_parse_format_roundtrip_everywhere(name):
    t = parse_type(name)
    for lab in enumerate_irr(t):
        assert parse_label(t, lab.text) == lab


def test_parse_errors():
    with pytest.raises(LabelError):
        parse_label(parse_type("E8"), "9999_99")
    with pytest.raises(LabelError):
        parse_label(parse_type("A3"), "(1,2,1)")  # not weakly decreasing
    with pytest.raises(LabelError):
        parse_label(parse_type("A3"), "(2,1)")  # wrong weight
    with pytest.raises(LabelError):
        parse_label(parse_type("B3"), "(2,1)")  # missing separator
    with pytest.raises(LabelError):
        parse_label(parse_type("D4"), "{2|2}")  # missing split tag
    with pytest.raises(LabelError):
        parse_label(parse_type("D4"), "{2,1|1}:I")  # split on asymmetric pair
    with pytest.raises(LabelError):
        parse_label(TORUS, "eps")


@pytest.mark.parametrize("name, text, message", [
    ("A3", "2,1,1", "expected partition label (..) for A3, got '2,1,1'"),
    ("B3", "(2|2)", "bipartition (2|2) has wrong total weight for B3"),
    ("D4", "(2|2)", "expected D-pair label {..|..} for D4, got '(2|2)'"),
    ("D4", "{2|1}", "D-pair {2|1} has wrong total weight for D4"),
], ids=["A-no-parentheses", "BC-weight", "D-no-braces", "D-weight"])
def test_parse_label_names_each_malformed_shape(name, text, message):
    with pytest.raises(LabelError) as exc:
        parse_label(parse_type(name), text)
    assert str(exc.value) == message


def test_parse_label_stores_a_d_pair_larger_partition_first():
    d4 = parse_type("D4")
    label = parse_label(d4, "{1|3}")
    assert (label.alpha, label.beta, label.text) == ((3,), (1,), "{3|1}")
    assert label == parse_label(d4, "{3|1}")
    with pytest.raises(LabelError, match=r"^D-pair stored with alpha >= beta$"):
        DPairLabel((1,), (3,))


def test_relative_label_conventions():
    f4, e6, e7, e8 = map(parse_type, ["F4", "E6", "E7", "E8"])
    b2 = CartanType("B", 2)
    assert [l.text for l in relative_character_labels(f4, b2)] == [
        "1", "eps", "eps_l", "eps_c", "theta",
    ]
    assert [l.text for l in relative_character_labels(e6, CartanType("A", 2))] == [
        "1", "phi", "eps",
    ]
    assert [l.text for l in relative_character_labels(e7, CartanType("A", 1))] == ["1", "eps"]
    # relative B3 inside E7 keeps bipartition labels
    assert [l.text for l in relative_character_labels(e7, CartanType("B", 3))][:2] == [
        "(3|)", "(2,1|)",
    ]
    # relative F4/G2 inside E8 reuse the named registries
    assert len(relative_character_labels(e8, parse_type("F4"))) == 25
    assert len(relative_character_labels(e8, parse_type("G2"))) == 6
    # classical ambient: normalized A1 relative uses partition labels
    assert [l.text for l in relative_character_labels(parse_type("B3"), CartanType("A", 1))] == [
        "(2)", "(1,1)",
    ]
    assert [l.text for l in relative_character_labels(f4, None)] == ["1"]


def test_unit_labels():
    assert unit_label(parse_type("A4")).text == "(5)"
    assert unit_label(parse_type("B3")).text == "(3|)"
    assert unit_label(parse_type("E8")).text == "1_0"
    assert unit_label(parse_type("F4")).text == "chi_{1,1}"
    assert unit_label(TORUS) == TrivialLabel()


def _oracle_texts(t: CartanType) -> list[str]:
    def parts(p):
        return ",".join(map(str, p))

    n = t.rank
    if t.series == "A":
        return [f"({parts(p)})" for p in oracle_partitions(n + 1)]
    pairs = [(alpha, beta) for a in range(n, -1, -1)
             for alpha in oracle_partitions(a) for beta in oracle_partitions(n - a)]
    if t.series in ("B", "C"):
        return [f"({parts(a)}|{parts(b)})" for a, b in pairs]
    out = []
    for alpha, beta in pairs:
        if alpha < beta:
            continue
        base = f"{{{parts(alpha)}|{parts(beta)}}}"
        out.extend([f"{base}:I", f"{base}:II"] if alpha == beta else [base])
    return out


@pytest.mark.parametrize(
    "name",
    [f"A{n}" for n in range(1, 15)] + [f"B{n}" for n in range(2, 15)]
    + [f"C{n}" for n in range(3, 15)] + [f"D{n}" for n in range(4, 15)],
)
def test_registry_order_matches_the_recursive_enumeration(name):
    t = parse_type(name)
    assert [lab.text for lab in enumerate_irr(t)] == _oracle_texts(t)


@pytest.mark.parametrize("n", range(0, 13))
def test_partitions_match_the_recursive_enumeration(n):
    # The memo one registry build reads its partitions and texts from.
    expected = list(oracle_partitions(n))
    pairs = _partition_memo()(n)
    assert [parts for parts, _ in pairs] == expected
    assert [text for _, text in pairs] == [",".join(map(str, p)) for p in expected]


def test_malformed_partitions_are_rejected_with_their_parts():
    with pytest.raises(LabelError, match=r"^partition parts must be positive: \(0, 1\)$"):
        PartitionLabel((0, 1))
    with pytest.raises(LabelError, match=r"^partition parts must be positive: \(2, -1\)$"):
        BipartitionLabel((1,), (2, -1))
    with pytest.raises(LabelError, match=r"^partition must be weakly decreasing: \(1, 2\)$"):
        PartitionLabel((1, 2))
    with pytest.raises(LabelError, match=r"^partition must be weakly decreasing: \(1, 3\)$"):
        DPairLabel((2, 2), (1, 3))


@pytest.mark.parametrize(
    "name,text,parts",
    [
        ("A9", "(1_0)", "1_0"),
        ("A2", "(٣)", "٣"),
        ("A2", "(+3)", "+3"),
        ("A2", "(2, 1)", "2, 1"),
        ("B3", "(2|+1)", "+1"),
        ("D4", "{٣|1}", "٣"),
    ],
)
def test_partition_parts_are_ascii_decimal_only(name, text, parts):
    with pytest.raises(LabelError, match=rf"^cannot parse partition {re.escape(repr(parts))}$"):
        parse_label(parse_type(name), text)


@pytest.mark.parametrize("name", [f"A{n}" for n in range(1, 10)] + [
    f"{series}{n}" for series in "BCD" for n in range(2 if series != "D" else 4, 11)
])
def test_enumerated_labels_equal_their_parsed_text(name):
    # The registry builds its labels without re-checking the parts that
    # the partition memo generated; parsing each text runs every check.
    t = parse_type(name)
    for lab in enumerate_irr(t):
        parsed = parse_label(t, lab.text)
        assert parsed == lab
        assert parsed.text == lab.text == str(parsed)
        assert hash(parsed) == hash(lab)
