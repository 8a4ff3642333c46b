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

from .cartan import CartanType, CharstrataError, ValueObject, ascii_decimal
from . import tabledata

class LabelError(CharstrataError, ValueError):
    """Malformed or unknown character label."""


Partition = tuple[int, ...]


def _partition_memo():
    """m -> the partitions of m in descending lex order, as (parts, text)
    pairs, from a memo local to one registry build, which builds those
    of m with parts at most top once per (m, top)."""
    memo = {}

    def bounded(m: int, top: int):
        pairs = memo.get((m, top))
        if pairs is None:
            pairs = memo[m, top] = (((), ""),) if m == 0 else tuple(
                ((first,) + rest, f"{first},{text}" if rest else str(first))
                for first in range(top, 0, -1)
                for rest, text in bounded(m - first, min(m - first, first))
            )
        return pairs

    return lambda m: bounded(m, m)


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

    def __str__(self) -> str:
        return self.text


class TrivialLabel(CharacterLabel):
    __slots__ = ()
    text = "1"


class PartitionLabel(CharacterLabel):
    __slots__ = ("parts", "text")
    _fields = ("parts",)

    def __init__(self, parts: Partition) -> None:
        _check_partition(parts)
        self._fill(parts, _parts_text(parts))

    def _fill(self, parts: Partition, parts_text: str) -> PartitionLabel:
        set_parts, set_text = self._setters
        set_parts(self, parts)
        set_text(self, f"({parts_text})")
        return self


class BipartitionLabel(CharacterLabel):
    __slots__ = ("alpha", "beta", "text")
    _fields = ("alpha", "beta")

    def __init__(self, alpha: Partition, beta: Partition) -> None:
        _check_partition(alpha)
        _check_partition(beta)
        self._fill(alpha, beta, _parts_text(alpha), _parts_text(beta))

    def _fill(self, alpha, beta, alpha_text: str, beta_text: str) -> BipartitionLabel:
        set_alpha, set_beta, set_text = self._setters
        set_alpha(self, alpha)
        set_beta(self, beta)
        set_text(self, f"({alpha_text}|{beta_text})")
        return self


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
        self._fill(alpha, beta, split, _parts_text(alpha), _parts_text(beta))

    def _fill(self, alpha, beta, split, alpha_text: str, beta_text: str) -> DPairLabel:
        set_alpha, set_beta, set_split, set_text = self._setters
        set_alpha(self, alpha)
        set_beta(self, beta)
        set_split(self, split)
        base = f"{{{alpha_text}|{beta_text}}}"
        set_text(self, f"{base}:{split}" if split else base)
        return self


# Patterns of dim/b names, compiled (and cached by re) on first use.
_DB_NAME = r"^(\d+)_(\d+)$"
_CHI_NAME = r"^chi_\{(\d+)(?:,(\d+))?\}$|^chi_(\d+)$"


class NamedLabel(CharacterLabel):
    __slots__ = ("name", "text")
    _fields = ("name",)

    @staticmethod
    def _derive(name: str) -> tuple:
        return (name,)

    @property
    def dim(self) -> int | None:
        m = re.match(_DB_NAME, self.name)
        if m:
            return int(m.group(1))
        m = re.match(_CHI_NAME, self.name)
        if m:
            return int(m.group(1) or m.group(3))
        return None

    @property
    def b_value(self) -> int | None:
        m = re.match(_DB_NAME, self.name)
        return int(m.group(2)) if m else None


class IrrRegistry(ValueObject):
    __slots__ = ("cartan_type", "labels", "_by_text")
    _fields = ("cartan_type", "labels")

    @staticmethod
    def _derive(cartan_type: CartanType, labels: tuple[CharacterLabel, ...]) -> tuple:
        by_text = {lab.text: lab for lab in labels}
        if len(by_text) != len(labels):
            raise LabelError(f"duplicate labels in registry for {cartan_type}")
        return (by_text,)

    def by_text(self, text: str) -> CharacterLabel:
        try:
            return self._by_text[text]
        except KeyError:
            raise LabelError(f"unknown label {text!r} for {self.cartan_type}") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)


def _bipartitions(n: int, partitions_of):
    for a in range(n, -1, -1):
        for alpha in partitions_of(a):
            for beta in partitions_of(n - a):
                yield alpha, beta


@lru_cache(maxsize=None)
def _exceptional_registry(t: CartanType) -> IrrRegistry:
    """The empty-Levi labels of t's embedded table, first occurrence
    order: static data, kept for the five exceptional types."""
    seen: dict[str, None] = {}
    for head, entries, _ann in tabledata.TABLES[t.name]:
        seen[head] = None
        seen.update((en[1], None) for en in entries if en[0] == "")
    return IrrRegistry(t, tuple(map(NamedLabel, seen)))


def enumerate_irr(t: CartanType) -> IrrRegistry:
    """The character registry of W(t), in the canonical order.  An
    exceptional registry is kept; any other is built on each call."""
    if t.is_exceptional:
        return _exceptional_registry(t)
    if t.is_torus:
        return IrrRegistry(t, (TrivialLabel(),))
    # Labels of generated partitions are valid by construction: _fill
    # builds them without __init__'s checks, with the memo's texts.
    new, partitions_of = object.__new__, _partition_memo()
    if t.series == "A":
        fill = PartitionLabel._fill
        labs = tuple(
            fill(new(PartitionLabel), p, text) for p, text in partitions_of(t.rank + 1))
        return IrrRegistry(t, labs)
    if t.series in ("B", "C"):
        fill = BipartitionLabel._fill
        labs = tuple(
            fill(new(BipartitionLabel), a, b, a_text, b_text)
            for (a, a_text), (b, b_text) in _bipartitions(t.rank, partitions_of)
        )
        return IrrRegistry(t, labs)
    fill = DPairLabel._fill
    out: list[CharacterLabel] = []
    for (alpha, a_text), (beta, b_text) in _bipartitions(t.rank, partitions_of):
        if alpha < beta:
            continue  # unordered: keep the alpha >= beta representative
        for split in ("I", "II") if alpha == beta else (None,):
            out.append(fill(new(DPairLabel), alpha, beta, split, a_text, b_text))
    return IrrRegistry(t, tuple(out))


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
