"""The finitely many component groups appearing in the tables, with
their irreducible-representation inventories, the group collections
c(E) a stratum carries and their label sets c*(E), and explicit
element models.

The inventories are data; the element models exist so that the
inventory sizes can be re-derived by brute force (conjugacy classes
counted over explicit lists of permutations, all orders <= 120, as the
orbits of conjugation by a small generating set each model states; one
walk along the products of each element with each generator certifies
that the set generates exactly the listed elements).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import gcd
from operator import itemgetter

from .cartan import CharstrataError, ValueObject

class GroupError(CharstrataError, ValueError):
    pass


GROUP_TAGS = (
    "1", "C2", "C3", "C4", "C5", "C6",
    "C2xC2", "C2xC3", "S3", "S4", "S5", "D8", "S3xC2",
)

# Aliases seen in annotations; S2 is the same group as C2.
_ALIASES = {"S2": "C2", "Triv": "1"}


def normalize_tag(tag: str) -> str:
    tag = tag.strip()
    tag = _ALIASES.get(tag, tag)
    if tag not in GROUP_TAGS:
        raise GroupError(f"unknown component group {tag!r}")
    return tag


def _cyclic_inventory(m: int) -> tuple[str, ...]:
    return ("1",) + tuple(f"e({k}/{m})" for k in range(1, m))


_INVENTORIES: dict[str, tuple[str, ...]] = {
    "1": ("1",),
    "C2": _cyclic_inventory(2),
    "C3": _cyclic_inventory(3),
    "C4": _cyclic_inventory(4),
    "C5": _cyclic_inventory(5),
    "C6": _cyclic_inventory(6),
    "C2xC2": ("(0,0)", "(1,0)", "(0,1)", "(1,1)"),
    "C2xC3": ("(0,0)", "(1,0)", "(0,1)", "(1,1)", "(0,2)", "(1,2)"),
    "S3": ("1", "sgn", "std"),
    "S4": ("1", "sgn", "deg2", "deg3", "deg3'"),
    "S5": ("1", "sgn", "deg4", "deg4'", "deg5", "deg5'", "deg6"),
    "D8": ("1", "chi_r", "chi_f", "chi_rf", "deg2"),
    "S3xC2": ("(1,+)", "(sgn,+)", "(std,+)", "(1,-)", "(sgn,-)", "(std,-)"),
}


def inventory(tag: str) -> tuple[str, ...]:
    return _INVENTORIES[normalize_tag(tag)]


def faithful_cyclic_inventory(m: int) -> tuple[str, ...]:
    """Faithful irreducibles of C_m; for m=1 the trivial one (vacuously)."""
    if m == 1:
        return ("1",)
    return tuple(f"e({k}/{m})" for k in range(1, m + 1) if gcd(k, m) == 1)


# Irreducibles of the second group of a deviating pair that are pulled
# back from the common characteristic-0 group along the unique
# surjection; these are excluded when the pair is flattened to a label
# set.  Keyed by (pair-second, quotient).
_PULLBACKS: dict[tuple[str, str], tuple[str, ...]] = {
    ("C3", "1"): ("1",),
    ("C2xC3", "C2"): ("(0,0)", "(1,0)"),
}


def pullback_inventory(second: str, quotient: str) -> tuple[str, ...]:
    key = (normalize_tag(second), normalize_tag(quotient))
    try:
        return _PULLBACKS[key]
    except KeyError as exc:
        raise GroupError(f"no recorded surjection {key[0]} -> {key[1]}") from exc


# ---------------------------------------------------------------------------
# Group collections and their label sets.

# The deviations from the characteristic-0 group that a full-membership
# row may carry at two or three primes: the pairs at (2, 3) and the
# cyclic triple at (2, 3, 5).
_ALLOWED_PAIRS = {("C2", "C3"), ("C4", "C3"), ("C2xC2", "C2xC3")}
_TRIPLE = ("C4", "C3", "C5")


class CStarElement(ValueObject):
    """One irrep of one group of c*(E); origin is "single", "first",
    "second" or "faithful-Cm"."""

    __slots__ = _fields = ("group", "irrep", "origin")


class GroupCollection(ValueObject):
    """c(E): a single group, the deviating pair, or the full cyclic
    triple of the unit stratum in E8 (kind "single", "pair" or
    "triple"); quotient is the characteristic-0 group under a pair.

    Its label set c*(E) is derived once, at construction: the
    inventories of c(E), with the pulled-back part of a pair's second
    group removed, or the faithful cyclic characters for the triple.
    A pair or triple outside the allowed deviations, or a pair whose
    surjection onto the characteristic-0 group is not recorded, raises
    GroupError.
    """

    __slots__ = ("kind", "tags", "quotient", "labels")
    _fields = ("kind", "tags", "quotient")

    def __init__(self, kind: str, tags: tuple[str, ...], quotient: str | None = None) -> None:
        super().__init__(kind, tags, quotient)

    @staticmethod
    def _derive(kind: str, tags: tuple[str, ...], quotient: str | None) -> tuple:
        return (_label_set(kind, tags, quotient),)

    @property
    def text(self) -> str:
        body = ",".join(self.tags)
        return body if self.kind == "single" else f"({body})"


def _label_set(
    kind: str, tags: tuple[str, ...], quotient: str | None
) -> tuple[CStarElement, ...]:
    if kind == "single":
        g = tags[0]
        return tuple(CStarElement(g, name, "single") for name in inventory(g))
    if kind == "pair":
        if tags not in _ALLOWED_PAIRS:
            raise GroupError(f"unexpected deviating pair {tags}")
        first, second = tags
        excluded = set(pullback_inventory(second, quotient))
        return tuple(
            [CStarElement(first, name, "first") for name in inventory(first)]
            + [CStarElement(second, name, "second")
               for name in inventory(second) if name not in excluded]
        )
    if tags != _TRIPLE:
        raise GroupError(f"unexpected deviating triple {tags}")
    return tuple(
        CStarElement("1" if m == 1 else f"C{m}", name, f"faithful-C{m}")
        for m in range(1, 7)
        for name in faithful_cyclic_inventory(m)
    )


@lru_cache(maxsize=None)
def group_collection(
    kind: str, tags: tuple[str, ...], quotient: str | None = None
) -> GroupCollection:
    """The GroupCollection of these fields.  Only a few of them occur,
    so every row that carries one shares it and its label set."""
    return GroupCollection(kind, tags, quotient)


# ---------------------------------------------------------------------------
# Element models and the conjugacy-class oracle.


def _perm_mul(p, q):
    # (p*q)(i) = p(q(i)), a tuple also on one point
    return tuple(map(p.__getitem__, q))


def _rotations(m: int):
    # C_m: the rotations i -> i+k of m points, k = 0, ..., m-1
    return [tuple((i + k) % m for i in range(m)) for k in range(m)]


def _on_disjoint_points(first, second):
    # each pair (a, b) of permutations, b moving the points after a's
    return [a + tuple(len(a) + i for i in b) for a in first for b in second]


@lru_cache(maxsize=None)
def _model(tag: str):
    """The group of a tag as (elements, stated generators): permutations
    of a few points, the tuples of the images of 0, 1, ..., composed by
    _perm_mul."""
    tag = normalize_tag(tag)
    if tag == "1":
        els, gens = [(0,)], ()
    elif tag.startswith("C") and "x" not in tag:
        els = _rotations(int(tag[1:]))
        gens = (els[1],)  # the rotation by one point
    elif tag == "C2xC2":
        els, gens = _on_disjoint_points(_rotations(2), _rotations(2)), ((1, 0, 2, 3), (0, 1, 3, 2))
    elif tag == "C2xC3":
        els, gens = _on_disjoint_points(_rotations(2), _rotations(3)), ((1, 0, 3, 4, 2),)
    elif tag in ("S3", "S4", "S5"):
        # generated by the transposition of 0 and 1 and the n-cycle i -> i+1
        n = int(tag[1:])
        els = list(permutations(range(n)))
        gens = ((1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,))
    elif tag == "D8":
        # a square's corners 0..3 in order, opposite corners kept opposite
        els = [p for p in permutations(range(4)) if abs(p[0] - p[2]) == abs(p[1] - p[3]) == 2]
        gens = ((1, 2, 3, 0), (0, 3, 2, 1))
    else:  # S3xC2, the one tag of GROUP_TAGS left
        els = _on_disjoint_points(permutations(range(3)), _rotations(2))
        gens = ((1, 2, 0, 4, 3), (1, 0, 2, 3, 4))
    return els, gens


def conjugacy_class_count(tag: str) -> int:
    """Brute-force class count over the explicit element list, by index.
    One product per (element x, stated generator s) tabulates x*s; a
    walk from the identity along those tables certifies that the
    generators generate exactly the listed elements (GroupError if
    not, or if a product is not listed), and gives s*y on each step
    y = p*u as (s*p)*u.  The classes are the orbits of x -> s^-1 x s,
    the y with s*y = x*s, counted with no further product."""
    els, gens = _model(tag)
    n = len(els)
    index = {g: i for i, g in enumerate(els)}
    try:
        # x*s for every x: itemgetter(*s)(x) is _perm_mul(x, s)
        right = [list(map(index.__getitem__, map(itemgetter(*s), els))) for s in gens]
        identity = index[tuple(range(len(els[0])))]
    except KeyError:
        raise GroupError(f"{tag}: a product of its elements is not listed") from None
    left = [[index[s]] * n for s in gens]  # s*y by y; s*identity = s
    order, seen = [identity], [False] * n
    seen[identity] = True
    for p in order:
        for row in right:
            y = row[p]
            if not seen[y]:
                seen[y] = True
                order.append(y)
                for sy in left:
                    sy[y] = row[sy[p]]
    if len(order) != n:
        raise GroupError(f"{tag}: the stated generators do not generate its {n} elements")
    conjugators = []
    for row, sy in zip(right, left):
        of = sorted(range(n), key=sy.__getitem__)  # of[s*y] = y
        conjugators.append([of[xs] for xs in row])  # x -> s^-1 x s
    classes = 0
    unclassed = [True] * n
    for x in range(n):
        if unclassed[x]:
            classes += 1
            unclassed[x] = False
            work = [x]
            while work:
                z = work.pop()
                for conjugate in conjugators:
                    y = conjugate[z]
                    if unclassed[y]:
                        unclassed[y] = False
                        work.append(y)
    return classes
