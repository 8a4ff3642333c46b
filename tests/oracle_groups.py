"""Reference class counts, computed the way the package once did: each
class representative conjugated by every element of the group.

Inverses come from a scan of the element list, so neither the
generators each model states nor the package's power-based inverses
are trusted.
"""

from __future__ import annotations

from charstrata.groups import _model


def all_conjugators_class_count(tag: str) -> int:
    """The number of orbits of the group's explicit element model under
    conjugation by all of its elements."""
    els, mul, _ = _model(tag)
    identity = next(g for g in els if mul(g, g) == g)
    inv = {g: next(h for h in els if mul(g, h) == identity) for g in els}
    remaining = set(els)
    classes = 0
    while remaining:
        g = remaining.pop()
        classes += 1
        for h in els:
            remaining.discard(mul(mul(inv[h], g), h))
    return classes
