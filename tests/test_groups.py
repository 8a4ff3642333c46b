import pytest

import itertools

from charstrata.groups import (
    GROUP_TAGS,
    GroupError,
    _model,
    _perm_mul,
    conjugacy_class_count,
    faithful_cyclic_inventory,
    inventory,
    normalize_tag,
    pullback_inventory,
)
from oracle_groups import all_conjugators_class_count, generated_subgroup, inverse_by_powers


def group_order(tag: str) -> int:
    """The number of elements of the group's explicit element model."""
    return len(_model(tag)[0])


@pytest.mark.parametrize("tag", GROUP_TAGS)
def test_inventory_size_equals_class_count(tag):
    assert len(inventory(tag)) == conjugacy_class_count(tag)


@pytest.mark.parametrize("tag", GROUP_TAGS)
def test_class_count_matches_all_conjugators_oracle(tag):
    assert conjugacy_class_count(tag) == all_conjugators_class_count(tag)


@pytest.mark.parametrize("tag", GROUP_TAGS)
def test_stated_generators_close_to_the_element_list(tag):
    els, gens = _model(tag)
    identity = next(g for g in els if _perm_mul(g, g) == g)
    assert set(gens) <= set(els)
    assert len(set(els)) == len(els)
    assert generated_subgroup(gens, identity, _perm_mul) == set(els)


@pytest.mark.parametrize("tag", GROUP_TAGS)
def test_models_list_distinct_permutations_of_one_degree(tag):
    """Every model lists distinct permutations of the points 0..n-1,
    one n per model, with the identity and the stated generators among
    them."""
    els, gens = _model(tag)
    points = tuple(range(len(els[0])))
    assert len(set(els)) == len(els)
    assert all(tuple(sorted(g)) == points for g in els)
    assert points in els and set(gens) <= set(els)
    assert _perm_mul(points, points) == points


def test_d8_lists_the_symmetries_of_a_square():
    """The permutations of the corners 0..3 that map the edges
    {i, i+1 mod 4} to edges, read independently of D8's model."""
    edges = {frozenset((i, (i + 1) % 4)) for i in range(4)}
    symmetries = [
        p for p in itertools.permutations(range(4))
        if {frozenset(p[i] for i in edge) for edge in edges} == edges
    ]
    assert sorted(_model("D8")[0]) == sorted(symmetries)


def test_permutation_product_composes_right_to_left():
    perms = list(itertools.permutations(range(4)))
    for p in perms:
        for q in perms:
            assert _perm_mul(p, q) == tuple(p[q[i]] for i in range(4))


@pytest.mark.parametrize("tag", GROUP_TAGS)
def test_inverse_by_powers_matches_scan(tag):
    """Each element's powers return to the identity through the right
    inverse that the all-conjugators oracle scans for, so that inverse
    is two-sided in every model."""
    els, _ = _model(tag)
    identity = next(g for g in els if _perm_mul(g, g) == g)
    for g in els:
        scanned = next(h for h in els if _perm_mul(g, h) == identity)
        assert inverse_by_powers(g, identity, _perm_mul) == scanned


def test_explicit_class_counts():
    assert conjugacy_class_count("S5") == 7
    assert conjugacy_class_count("D8") == 5
    assert conjugacy_class_count("C2xC3") == 6
    assert conjugacy_class_count("S4") == 5
    assert conjugacy_class_count("S3xC2") == 6


def test_orders():
    assert group_order("S5") == 120
    assert group_order("D8") == 8
    assert max(group_order(t) for t in GROUP_TAGS) == 120


def test_faithful_cyclic_counts_are_euler_phi():
    phi = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2}
    for m, expected in phi.items():
        assert len(faithful_cyclic_inventory(m)) == expected
    assert sum(phi.values()) == 12


def test_pullbacks_are_inventory_sublists():
    assert pullback_inventory("C3", "1") == ("1",)
    assert set(pullback_inventory("C2xC3", "C2")) <= set(inventory("C2xC3"))
    assert len(pullback_inventory("C2xC3", "C2")) == 2
    with pytest.raises(GroupError):
        pullback_inventory("S3", "C2")


def test_tag_normalization():
    assert normalize_tag("S2") == "C2"
    assert normalize_tag("1") == "1"
    with pytest.raises(GroupError):
        normalize_tag("Q8")
