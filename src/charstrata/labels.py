"""Label system for the irreducible characters of Weyl groups.

Classical types are enumerated combinatorially (partitions,
bipartitions, unordered pairs with split labels for D).  Exceptional
types use named labels; by construction their registries are exactly
the empty-Levi labels of the embedded strata tables, in order of first
occurrence, so the identity "table heads enumerate Irr(W)" is a
checkable statement rather than an assumption.

Canonical spellings are ASCII: "chi_{9,1}", "eps_l", "theta'",
"4096_11", "(2,1|)", "{2|2}:I".  The grammar is documented in the
README.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .cartan import CartanType, ValueObject, ascii_decimal
from . import tabledata

_set = object.__setattr__


class LabelError(ValueError):
    """Malformed or unknown character label."""


Partition = tuple[int, ...]


def partitions(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """Partitions of n, largest part first, in descending lex order."""
    return _partitions(n, n if max_part is None else min(n, max_part))


@lru_cache(maxsize=None)
def _partitions(n: int, top: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(top, 0, -1)
        for rest in _partitions(n - first, min(n - first, first))
    )


def _check_partition(parts: Partition) -> Partition:
    # One sort decides the common case; the scans below only name the fault.
    if list(parts) != sorted(parts, reverse=True) or (parts and parts[-1] <= 0):
        if any(p <= 0 for p in parts):
            raise LabelError(f"partition parts must be positive: {parts}")
        raise LabelError(f"partition must be weakly decreasing: {parts}")
    return tuple(parts)


def _parts_text(parts: Partition) -> str:
    return ",".join(map(str, parts))


def _parse_parts(text: str) -> Partition:
    text = text.strip()
    if not text:
        return ()
    parts = tuple(map(ascii_decimal, text.split(",")))
    if None in parts:
        raise LabelError(f"cannot parse partition {text!r}")
    return _check_partition(parts)


class CharacterLabel(ValueObject):
    """Base class; concrete labels compare by their fields within one
    class and carry their canonical text, fixed at construction."""

    __slots__ = ()

    @property
    def text(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - repr helper
        return self.text


class TrivialLabel(CharacterLabel):
    __slots__ = ()
    text = "1"


class PartitionLabel(CharacterLabel):
    __slots__ = ("parts", "text")
    _fields = ("parts",)

    def __init__(self, parts: Partition) -> None:
        _check_partition(parts)
        _set(self, "parts", parts)
        _set(self, "text", f"({_parts_text(parts)})")


class BipartitionLabel(CharacterLabel):
    __slots__ = ("alpha", "beta", "text")
    _fields = ("alpha", "beta")

    def __init__(self, alpha: Partition, beta: Partition) -> None:
        _check_partition(alpha)
        _check_partition(beta)
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)
        _set(self, "text", f"({_parts_text(alpha)}|{_parts_text(beta)})")


class DPairLabel(CharacterLabel):
    """Unordered pair {alpha, beta}; split I/II is mandatory iff alpha==beta."""

    __slots__ = ("alpha", "beta", "split", "text")
    _fields = ("alpha", "beta", "split")

    def __init__(self, alpha: Partition, beta: Partition, split: str | None = None) -> None:
        _check_partition(alpha)
        _check_partition(beta)
        if alpha < beta:
            raise LabelError("D-pair stored with alpha >= beta")
        if alpha == beta:
            if split not in ("I", "II"):
                raise LabelError("symmetric D-pair needs split tag I or II")
        elif split is not None:
            raise LabelError("split tag only allowed on symmetric pairs")
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)
        _set(self, "split", split)
        base = f"{{{_parts_text(alpha)}|{_parts_text(beta)}}}"
        _set(self, "text", f"{base}:{split}" if split else base)


_DB_NAME = re.compile(r"^(\d+)_(\d+)$")
_CHI_NAME = re.compile(r"^chi_\{(\d+)(?:,(\d+))?\}$|^chi_(\d+)$")


class NamedLabel(CharacterLabel):
    __slots__ = ("name", "text")
    _fields = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)
        _set(self, "text", name)

    @property
    def dim(self) -> int | None:
        m = _DB_NAME.match(self.name)
        if m:
            return int(m.group(1))
        m = _CHI_NAME.match(self.name)
        if m:
            return int(m.group(1) or m.group(3))
        return None

    @property
    def b_value(self) -> int | None:
        m = _DB_NAME.match(self.name)
        return int(m.group(2)) if m else None


class IrrRegistry(ValueObject):
    __slots__ = ("cartan_type", "labels", "_by_text")
    _fields = ("cartan_type", "labels")

    def __init__(self, cartan_type: CartanType, labels: tuple[CharacterLabel, ...]) -> None:
        by_text = {lab.text: lab for lab in labels}
        if len(by_text) != len(labels):
            raise LabelError(f"duplicate labels in registry for {cartan_type}")
        _set(self, "cartan_type", cartan_type)
        _set(self, "labels", labels)
        _set(self, "_by_text", by_text)

    @property
    def texts(self) -> tuple[str, ...]:
        return tuple(self._by_text)

    def by_text(self, text: str) -> CharacterLabel:
        try:
            return self._by_text[text]
        except KeyError:
            raise LabelError(f"unknown label {text!r} for {self.cartan_type}") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)


def _bipartitions(n: int):
    for a in range(n, -1, -1):
        for alpha in partitions(a):
            for beta in partitions(n - a):
                yield alpha, beta


def _exceptional_names(type_name: str) -> tuple[str, ...]:
    """Empty-Levi labels of the embedded table, first occurrence order."""
    seen: list[str] = []
    for head, entries, _ann in tabledata.TABLES[type_name]:
        for name in [head] + [en[1] for en in entries if en[0] == ""]:
            if name not in seen:
                seen.append(name)
    return tuple(seen)


@lru_cache(maxsize=None)
def enumerate_irr(t: CartanType) -> IrrRegistry:
    """The character registry of W(t), in the canonical order."""
    if t.is_torus:
        return IrrRegistry(t, (TrivialLabel(),))
    if t.series == "A":
        labs = tuple(PartitionLabel(p) for p in partitions(t.rank + 1))
        return IrrRegistry(t, labs)
    if t.series in ("B", "C"):
        labs = tuple(BipartitionLabel(a, b) for a, b in _bipartitions(t.rank))
        return IrrRegistry(t, labs)
    if t.series == "D":
        out: list[CharacterLabel] = []
        for alpha, beta in _bipartitions(t.rank):
            if alpha < beta:
                continue  # unordered: keep the alpha >= beta representative
            if alpha == beta:
                out.append(DPairLabel(alpha, beta, "I"))
                out.append(DPairLabel(alpha, beta, "II"))
            else:
                out.append(DPairLabel(alpha, beta))
        return IrrRegistry(t, tuple(out))
    names = _exceptional_names(t.name)
    return IrrRegistry(t, tuple(NamedLabel(n) for n in names))


def irr_count(t: CartanType) -> int:
    return len(enumerate_irr(t))


def parse_label(t: CartanType, text: str) -> CharacterLabel:
    """Parse a canonical label string in the context of type t."""
    text = text.strip()
    if t.is_torus:
        if text == "1":
            return TrivialLabel()
        raise LabelError(f"torus has only the label '1', got {text!r}")
    if t.series == "A":
        if not (text.startswith("(") and text.endswith(")")):
            raise LabelError(f"expected partition label (..) for {t}, got {text!r}")
        parts = _parse_parts(text[1:-1])
        if sum(parts) != t.rank + 1:
            raise LabelError(f"partition {text} has weight {sum(parts)}, needs {t.rank + 1}")
        return PartitionLabel(parts)
    if t.series in ("B", "C"):
        if not (text.startswith("(") and text.endswith(")") and "|" in text):
            raise LabelError(f"expected bipartition label (..|..) for {t}, got {text!r}")
        left, right = text[1:-1].split("|", 1)
        alpha, beta = _parse_parts(left), _parse_parts(right)
        if sum(alpha) + sum(beta) != t.rank:
            raise LabelError(f"bipartition {text} has wrong total weight for {t}")
        return BipartitionLabel(alpha, beta)
    if t.series == "D":
        split: str | None = None
        base = text
        if ":" in text:
            base, tag = text.rsplit(":", 1)
            split = tag
        if not (base.startswith("{") and base.endswith("}") and "|" in base):
            raise LabelError(f"expected D-pair label {{..|..}} for {t}, got {text!r}")
        left, right = base[1:-1].split("|", 1)
        alpha, beta = _parse_parts(left), _parse_parts(right)
        if sum(alpha) + sum(beta) != t.rank:
            raise LabelError(f"D-pair {text} has wrong total weight for {t}")
        if alpha < beta:
            alpha, beta = beta, alpha
        return DPairLabel(alpha, beta, split)
    return enumerate_irr(t).by_text(text)


# ---------------------------------------------------------------------------
# Labels of relative Weyl groups as they appear inside fiber entries.
#
# For the low-rank relative groups occurring inside exceptional types the
# source tables use dihedral/S3-style names rather than bipartitions;
# these name lists are fixed conventions, ordered deterministically.

RELATIVE_A1 = ("1", "eps")
RELATIVE_A2 = ("1", "phi", "eps")
RELATIVE_B2 = ("1", "eps", "eps_l", "eps_c", "theta")


def relative_character_labels(
    ambient: CartanType, relative: CartanType | None
) -> tuple[CharacterLabel, ...]:
    """Character labels for a relative Weyl group in fiber-entry context.

    relative=None means the trivial group (full-type Levi).
    """
    if relative is None:
        return (TrivialLabel(),)
    if ambient.is_exceptional:
        if relative == CartanType("A", 1):
            return tuple(NamedLabel(n) for n in RELATIVE_A1)
        if relative == CartanType("A", 2):
            return tuple(NamedLabel(n) for n in RELATIVE_A2)
        if relative == CartanType("B", 2) and ambient == CartanType("F", 4):
            return tuple(NamedLabel(n) for n in RELATIVE_B2)
    return tuple(enumerate_irr(relative).labels)


def unit_label(t: CartanType) -> CharacterLabel:
    """The label of the unit character (head of the regular stratum)."""
    if t.is_torus:
        return TrivialLabel()
    if t.series == "A":
        return PartitionLabel((t.rank + 1,))
    if t.series in ("B", "C"):
        return BipartitionLabel((t.rank,), ())
    if t.series == "D":
        return DPairLabel((t.rank,), ())
    return enumerate_irr(t).by_text(tabledata.UNIT_STRATUM[t.name])
