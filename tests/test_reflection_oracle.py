"""Self-tests of the integer root-system oracle against the literature
(Bourbaki, Lie Groups and Lie Algebras, ch. VI, plates I-IX), not
against the package."""

from math import factorial, prod

import pytest

from oracle_reflection import cartan_matrix, class_count, degrees_from_heights, root_system, weyl_group


@pytest.mark.parametrize(("series", "n", "roots"), [
    ("G", 2, 12), ("F", 4, 48), ("E", 6, 72), ("E", 7, 126), ("E", 8, 240),
    *(("A", n, n * (n + 1)) for n in range(1, 11)),
    *(("B", n, 2 * n * n) for n in range(2, 11)),
    *(("C", n, 2 * n * n) for n in range(2, 11)),
    *(("D", n, 2 * n * (n - 1)) for n in range(4, 11)),
])
def test_root_counts(series, n, roots):
    positive, reflections = root_system(series, n)
    assert 2 * len(positive) == roots
    assert len(reflections) == n and all(sorted(s) == list(range(roots)) for s in reflections)


@pytest.mark.parametrize(("series", "n", "highest"), [
    ("G", 2, (3, 2)),
    ("F", 4, (2, 3, 4, 2)),
    ("E", 6, (1, 2, 2, 3, 2, 1)),
    ("E", 7, (2, 2, 3, 4, 3, 2, 1)),
    ("E", 8, (2, 3, 4, 6, 5, 4, 3, 2)),
    ("B", 5, (1, 2, 2, 2, 2)),
    ("C", 5, (2, 2, 2, 2, 1)),
    ("D", 6, (1, 2, 2, 2, 1, 1)),
])
def test_the_root_of_greatest_height_is_bourbakis_highest_root(series, n, highest):
    positive, _ = root_system(series, n)
    assert positive[-1] == highest
    assert [beta for beta in positive if sum(beta) == sum(highest)] == [highest]


def test_short_simple_roots_sit_where_bourbaki_numbers_them():
    # a[i][j] = -m exactly when alpha_i is short and alpha_j long across a bond of multiplicity m
    assert cartan_matrix("G", 2) == [[2, -3], [-1, 2]]
    assert cartan_matrix("F", 4)[2][1] == -2 and cartan_matrix("F", 4)[1][2] == -1
    assert cartan_matrix("B", 3)[2][1] == -2 and cartan_matrix("C", 3)[1][2] == -2


@pytest.mark.parametrize(("series", "n", "order"), [
    ("G", 2, 12), ("F", 4, 1152), ("A", 4, factorial(5)),
    ("B", 3, 2**3 * factorial(3)), ("C", 3, 2**3 * factorial(3)), ("D", 4, 2**3 * factorial(4)),
])
def test_the_enumerated_group_has_the_order_of_the_degrees_from_root_heights(series, n, order):
    positive, reflections = root_system(series, n)
    elements = weyl_group(reflections)
    assert len(elements) == prod(degrees_from_heights(positive)) == order


@pytest.mark.parametrize(("series", "n", "degrees"), [
    ("G", 2, (2, 6)),
    ("F", 4, (2, 6, 8, 12)),
    ("E", 6, (2, 5, 6, 8, 9, 12)),
    ("E", 7, (2, 6, 8, 10, 12, 14, 18)),
    ("E", 8, (2, 8, 12, 14, 18, 20, 24, 30)),
    ("D", 5, (2, 4, 5, 6, 8)),
])
def test_degrees_from_root_heights_are_bourbakis(series, n, degrees):
    positive, _ = root_system(series, n)
    assert degrees_from_heights(positive) == degrees


def test_class_counts_of_small_groups():
    # S3 = W(A2) has 3 classes, W(B2), the dihedral group of order 8, has 5
    for series, n, classes in [("A", 2, 3), ("B", 2, 5)]:
        _, reflections = root_system(series, n)
        assert class_count(weyl_group(reflections), reflections) == classes
