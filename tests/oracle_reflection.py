"""Independent brute-force oracle: the root system of every Dynkin type,
built in integers from its diagram in Bourbaki's numbering (Lie Groups
and Lie Algebras, ch. VI, plates I-IX), and its Weyl group as a
permutation group on the roots.  Nothing is read from the package, so
the root counts, highest roots, degrees, group orders and class counts
found here confirm the package's without touching its code.
"""

from __future__ import annotations


def cartan_matrix(series: str, n: int) -> list[list[int]]:
    """a[i][j] = <alpha_j, alpha_i^vee> on nodes 0..n-1, Bourbaki's 1..n
    (alpha_1 short in G2, alpha_3 and alpha_4 short in F4, alpha_n short
    in B_n and long in C_n): 2 on the diagonal, -m from a short node i
    to a long neighbour j across a bond of multiplicity m, -1 across
    every other bond."""
    bonds, short = [(i, i + 1, 1) for i in range(n - 1)], set()
    if series in ("B", "C"):
        bonds[-1] = (n - 2, n - 1, 2)
        short = {n - 1} if series == "B" else set(range(n - 1))
    elif series == "D":
        bonds[-1] = (n - 3, n - 1, 1)
    elif series == "G":
        bonds, short = [(0, 1, 3)], {0}
    elif series == "F":
        bonds[1], short = (1, 2, 2), {2, 3}
    elif series == "E":  # the chain 1-3-4-...-n, with node 2 bonded to node 4
        bonds[:2] = [(0, 2, 1), (1, 3, 1)]
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j, m in bonds:
        a[i][j] = -m if i in short and j not in short else -1
        a[j][i] = -m if j in short and i not in short else -1
    return a


def _pair(a, beta, i) -> int:  # <beta, alpha_i^vee>, beta in simple-root coordinates
    return sum(b * c for b, c in zip(beta, a[i]))


def _shift(beta, i, k):  # beta + k alpha_i
    return beta[:i] + (beta[i] + k,) + beta[i + 1:]


def root_system(series: str, n: int):
    """(positive roots, simple reflections).  The positive roots are in
    simple-root coordinates, by height: the alpha_i-string through a
    root beta runs from beta - p alpha_i to beta + q alpha_i with
    p - q = <beta, alpha_i^vee>, and every root of height h + 1 is some
    beta + alpha_i with beta of height h, so the roots grow one height
    at a time, p read off the lower heights already found.  Each simple
    reflection s_i beta = beta - <beta, alpha_i^vee> alpha_i is the
    permutation of root indices it induces, the positive roots first and
    then their negatives in the same order."""
    a = cartan_matrix(series, n)
    positive = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    known = set(positive)
    for beta in positive:  # the list grows behind the walk
        for i in range(n):
            p = 0
            while _shift(beta, i, -p - 1) in known:
                p += 1
            up = _shift(beta, i, 1)
            if p > _pair(a, beta, i) and up not in known:
                known.add(up)
                positive.append(up)
    roots = positive + [tuple(-c for c in beta) for beta in positive]
    index = {beta: k for k, beta in enumerate(roots)}
    return positive, [
        tuple(index[_shift(beta, i, -_pair(a, beta, i))] for beta in roots) for i in range(n)]


def degrees_from_heights(roots) -> tuple[int, ...]:
    """The degrees of W, ascending, read off the heights of its positive
    roots: as many positive roots have height k as exponents are at
    least k (Humphreys, Reflection Groups and Coxeter Groups, 3.20), and
    each degree is an exponent plus one."""
    heights = [sum(beta) for beta in roots]
    at_least = [heights.count(k) for k in range(1, max(heights) + 2)]
    return tuple(
        k + 1 for k in range(1, len(at_least)) for _ in range(at_least[k - 1] - at_least[k]))


def weyl_group(reflections) -> set[tuple[int, ...]]:
    """Every element of the group the reflections generate, walked from
    the identity, each element multiplied once by each reflection."""
    elements = [tuple(range(len(reflections[0])))]
    seen = set(elements)
    for g in elements:  # the list grows behind the walk
        for s in reflections:
            h = tuple(map(s.__getitem__, g))
            if h not in seen:
                seen.add(h)
                elements.append(h)
    return seen


def class_count(elements, reflections) -> int:
    """The conjugacy classes of the group, the orbits of x -> s x s for
    the reflections s that generate it."""
    remaining, classes = set(elements), 0
    while remaining:
        classes += 1
        orbit = [remaining.pop()]
        for x in orbit:
            for s in reflections:
                y = tuple(s[x[j]] for j in s)
                if y in remaining:
                    remaining.remove(y)
                    orbit.append(y)
    return classes


def order_and_classes(series: str, n: int) -> tuple[int, int]:
    """(group order, conjugacy class count) of the Weyl group of the
    type, enumerated on its roots."""
    _, reflections = root_system(series, n)
    elements = weyl_group(reflections)
    return len(elements), class_count(elements, reflections)


def g2_order_and_classes() -> tuple[int, int]:
    return order_and_classes("G", 2)


def f4_order_and_classes() -> tuple[int, int]:
    return order_and_classes("F", 4)


classical_order_and_classes = order_and_classes  # W(B_n) = W(C_n) and W(D_n)
