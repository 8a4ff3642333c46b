"""The finitely many component groups appearing in the tables, with
their irreducible-representation inventories and explicit element
models.

The inventories are data; the element models exist so that the
inventory sizes can be re-derived by brute force (conjugacy-class
counting over explicit element lists, all orders <= 120).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd


class GroupError(ValueError):
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
# Element models and the conjugacy-class oracle.


def _perms(n: int):
    return [tuple(p) for p in itertools.permutations(range(n))]


def _perm_mul(p, q):
    # (p*q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(p)))


def _cyclic(m: int):
    els = list(range(m))
    mul = lambda a, b: (a + b) % m  # noqa: E731
    return els, mul


def _product(els1, mul1, els2, mul2):
    els = [(a, b) for a in els1 for b in els2]
    mul = lambda x, y: (mul1(x[0], y[0]), mul2(x[1], y[1]))  # noqa: E731
    return els, mul


def _dihedral8():
    # (rotation mod 4, flip mod 2); flips conjugate rotations to inverses
    els = [(r, f) for r in range(4) for f in range(2)]

    def mul(x, y):
        r1, f1 = x
        r2, f2 = y
        r = (r1 + (r2 if f1 == 0 else -r2)) % 4
        return (r, (f1 + f2) % 2)

    return els, mul


@lru_cache(maxsize=None)
def _model(tag: str):
    tag = normalize_tag(tag)
    if tag == "1":
        return [0], lambda a, b: 0
    if tag.startswith("C") and "x" not in tag:
        return _cyclic(int(tag[1:]))
    if tag == "C2xC2":
        return _product(*_cyclic(2), *_cyclic(2))
    if tag == "C2xC3":
        return _product(*_cyclic(2), *_cyclic(3))
    if tag in ("S3", "S4", "S5"):
        n = int(tag[1:])
        return _perms(n), _perm_mul
    if tag == "D8":
        return _dihedral8()
    if tag == "S3xC2":
        els1, mul1 = _perms(3), _perm_mul
        return _product(els1, mul1, *_cyclic(2))
    raise GroupError(tag)


def _inverse(g, identity, mul):
    """g^(m-1) for the order m of g: its inverse, in m products."""
    power, following = g, mul(g, g)
    while following != identity:
        power, following = following, mul(following, g)
    return power


def conjugacy_class_count(tag: str) -> int:
    """Brute-force class count over the explicit element list."""
    els, mul = _model(tag)
    identity = next(g for g in els if mul(g, g) == g)
    inv = {g: _inverse(g, identity, mul) for g in els}
    remaining = set(els)
    classes = 0
    while remaining:
        g = remaining.pop()
        classes += 1
        for h in els:
            remaining.discard(mul(mul(inv[h], g), h))
    return classes
