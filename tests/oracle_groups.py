"""Test-side references for the group oracle.

`all_conjugators_class_count` conjugates each class representative by
every element of the group, with inverses from a scan of the element
list, so it trusts neither the generators each model states nor the
package's index tables.  `generated_subgroup` and `inverse_by_powers`
check the models themselves: that the stated generators generate the
listed elements, and that each scanned inverse is a power of its
element.
"""

from __future__ import annotations

from charstrata.groups import _model, _perm_mul as mul


def all_conjugators_class_count(tag: str) -> int:
    """The number of orbits of the group's explicit element model under
    conjugation by all of its elements."""
    els, _ = _model(tag)
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


def generated_subgroup(gens, identity, mul) -> set:
    """The subgroup that gens generate: every product of them, walked
    from the identity, each element multiplied once per generator."""
    subgroup = {identity}
    work = [identity]
    while work:
        h = work.pop()
        for s in gens:
            x = mul(h, s)
            if x not in subgroup:
                subgroup.add(x)
                work.append(x)
    return subgroup


def inverse_by_powers(g, identity, mul):
    """g^(m-1) for the order m of g: its inverse, in m products."""
    power, following = g, mul(g, g)
    while following != identity:
        power, following = following, mul(following, g)
    return power
