"""Self-tests of the integer root-system oracle against the literature
(Bourbaki, Lie Groups and Lie Algebras, ch. VI, plates I-IX), not
against the package, and a pin of what every test oracle imports from
the package."""

import ast
from itertools import combinations
from math import factorial, prod
from pathlib import Path

import pytest

from oracle_reflection import (
    cartan_matrix, class_count, degrees_from_heights, extended_diagram, root_system, weyl_group)

UP_TO_RANK_10 = [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)] + [
    (series, n) for series, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4)) for n in range(low, 11)]


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


def test_root_systems_are_built_once_and_immutable():
    positive, reflections = root_system("E", 8)
    assert root_system("E", 8)[0] is positive
    assert isinstance(positive, tuple) and isinstance(reflections, tuple)
    assert all(isinstance(s, tuple) for s in reflections)


def _affine_bonds(series, n):
    """The bonds at node 0 of the extended diagram, as Bourbaki's
    plates I-IX draw them: (0, v, multiplicity, short node)."""
    if series == "A":
        return {(0, 1, 4, None)} if n == 1 else {(0, 1, 1, None), (0, n, 1, None)}
    if series == "C":
        return {(0, 1, 2, 1)}
    if (series, n) == ("B", 2):
        return {(0, 2, 2, 2)}
    return {(0, {"F": 1, "E": {6: 2, 7: 1, 8: 8}.get(n)}.get(series, 2), 1, None)}


@pytest.mark.parametrize(("series", "n"), UP_TO_RANK_10)
def test_extended_diagrams_are_bourbakis(series, n):
    """Node 0 bonds as the plates draw it, and deleting it gives back
    the bonds of the Cartan matrix: multiplicity a_ij a_ji, short node
    the i whose row holds the more negative entry."""
    diagram = extended_diagram(series, n)
    a = cartan_matrix(series, n)
    finite = {
        (i + 1, j + 1, a[i][j] * a[j][i],
         None if a[i][j] == a[j][i] else i + 1 if a[i][j] < a[j][i] else j + 1)
        for i, j in combinations(range(n), 2) if a[i][j]}
    assert {bond for bond in diagram if bond[0] == 0} == _affine_bonds(series, n)
    assert {bond for bond in diagram if bond[0] > 0} == finite


# What each oracle module imports from the package (README, "Install and
# test"): the reflection oracle nothing, the diagram oracle no typed data.
ORACLE_IMPORTS = {
    "oracle_reflection": set(),
    "oracle_cartan": {"CartanError", "CartanType", "Subsystem", "simple_type"},
    "oracle_groups": {"_model"},
    "oracle_strata": {
        "enumerate_cs_prime", "faithful_cyclic_inventory", "inventory", "pullback_inventory"},
}


def test_oracles_import_from_the_package_only_what_they_are_listed_with():
    found = {}
    for path in sorted(Path(__file__).parent.glob("oracle_*.py")):
        names = found.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "charstrata":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names
                             if alias.name.split(".")[0] == "charstrata")
    assert found == ORACLE_IMPORTS
