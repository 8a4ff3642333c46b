"""Typed access to the strata tables: rows, their placement against
the cuspidal-support enumeration and the indexes built from it,
component-group annotations, centralizer profiles, the built-in
identity table of series A and the torus, and the session table store
that holds plug-in tables for classical types.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from . import tabledata
from .cartan import CartanError, CartanType, Subsystem, ValueObject, ascii_decimal, parse_type
from .cuspidal import cuspidal_levis, cuspidal_counts, enumerate_cs_prime
from .groups import normalize_tag
from .labels import (
    CharacterLabel,
    enumerate_irr,
    relative_character_labels,
    unit_label,
)


_set = object.__setattr__


class NoTableAvailable(LookupError):
    """No strata table embedded or registered for the requested type."""


class UnknownStratum(LookupError):
    pass


class TableFormatError(ValueError):
    pass


PRIME_SLOTS = (0, 2, 3, 5)

# The deviations from the characteristic-0 group that a full-membership
# row may carry at two or three primes: the pairs at (2, 3) and the
# cyclic triple at (2, 3, 5).
_ALLOWED_PAIRS = {("C2", "C3"), ("C4", "C3"), ("C2xC2", "C2xC3")}
_TRIPLE = ("C4", "C3", "C5")


class Membership(ValueObject):
    """Which characteristics the stratum's class exists in: all of them,
    or a single prime r0."""

    __slots__ = _fields = ("kind", "r0")

    def __init__(self, kind: str, r0: int | None = None) -> None:
        _set(self, "kind", kind)  # "full" | "singleton"
        _set(self, "r0", r0)

    @property
    def text(self) -> str:
        return "full" if self.kind == "full" else f"singleton:{self.r0}"

    @staticmethod
    def parse(text: str) -> "Membership":
        if text == "full":
            return Membership("full")
        if text.startswith("singleton:"):
            r0 = ascii_decimal(text[len("singleton:"):])
            if r0 is None:
                raise TableFormatError(f"bad membership {text!r}")
            if r0 not in (2, 3, 5):
                raise TableFormatError(f"bad singleton characteristic {r0}")
            return Membership("singleton", r0)
        raise TableFormatError(f"bad membership {text!r}")


def _split_annotation(ann: str) -> list[str]:
    tokens, depth, cur = [], 0, []
    for ch in ann:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if ch == "," and depth == 0:
            tokens.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tokens.append("".join(cur).strip())
    return tokens


def parse_annotation(ann: str) -> tuple[dict[int, str], frozenset, Membership]:
    """Parse the printed group datum into (groups by characteristic,
    boxed flags, membership).  Boxed flags are primes, or {'single'}
    for the constant case."""
    tokens = _split_annotation(ann)
    if len(tokens) == 1:
        tok = tokens[0]
        if not (tok.startswith("[") and tok.endswith("]")):
            raise TableFormatError(f"constant annotation must be boxed: {ann!r}")
        g = normalize_tag(tok[1:-1])
        return {2: g, 3: g, 0: g}, frozenset({"single"}), Membership("full")
    first = tokens[0]
    if first.startswith("[") and "," in first:
        # boxed pair or triple, then the parenthesized characteristic-0 group
        names = [normalize_tag(x) for x in first[1:-1].split(",")]
        last = tokens[-1]
        if len(tokens) != 2 or not (last.startswith("(") and last.endswith(")")):
            raise TableFormatError(f"bad boxed-collection annotation: {ann!r}")
        g0 = normalize_tag(last[1:-1])
        if len(names) == 2:
            groups = {2: names[0], 3: names[1], 0: g0}
            return groups, frozenset({2, 3}), Membership("full")
        if len(names) == 3:
            groups = {2: names[0], 3: names[1], 5: names[2], 0: g0}
            return groups, frozenset({2, 3, 5}), Membership("full")
        raise TableFormatError(f"boxed collection of size {len(names)}: {ann!r}")
    if len(tokens) != 3:
        raise TableFormatError(f"expected 3 entries: {ann!r}")
    groups: dict[int, str] = {}
    boxed: set[int] = set()
    for slot, tok in zip((2, 3, 0), tokens):
        if tok in ("-", "(-)"):
            continue
        inner = tok
        if slot == 0:
            if not (inner.startswith("(") and inner.endswith(")")):
                raise TableFormatError(f"characteristic-0 entry must be (..): {ann!r}")
            inner = inner[1:-1]
        if inner.startswith("[") and inner.endswith("]"):
            boxed.add(slot)
            inner = inner[1:-1]
        groups[slot] = normalize_tag(inner)
    defined = set(groups)
    if defined == {2, 3, 0}:
        if not boxed:
            raise TableFormatError(f"no boxed entry: {ann!r}")
        return groups, frozenset(boxed), Membership("full")
    if len(defined) == 1:
        (r0,) = defined
        if r0 == 0 or boxed != {r0}:
            raise TableFormatError(f"bad singleton annotation: {ann!r}")
        return groups, frozenset(boxed), Membership("singleton", r0)
    raise TableFormatError(f"partial annotation is neither full nor singleton: {ann!r}")


class FiberEntry(ValueObject):
    """One printed fiber symbol: Levi (None = empty subset), character of
    the relative group, the printed d, its multiplicity, and the
    occurrence disambiguator for labels printed identically in two rows."""

    __slots__ = (
        "levi", "character", "d_printed", "mult", "disamb", "levi_name", "d_semantic", "key",
    )
    _fields = ("levi", "character", "d_printed", "mult", "disamb")

    def __init__(
        self,
        levi: CartanType | None,
        character: CharacterLabel,
        d_printed: int,
        mult: int,
        disamb: str | None = None,
    ) -> None:
        _set(self, "levi", levi)
        _set(self, "character", character)
        _set(self, "d_printed", d_printed)
        _set(self, "mult", mult)
        _set(self, "disamb", disamb)
        # Derived once: the Levi's name ('-' when empty), the d of the
        # triple it stands for (None, opaque, for classical Levis) and
        # the triple key (Levi name, character text, d).
        levi_name = "-" if levi is None else levi.name
        d = None if levi is not None and levi.is_classical else d_printed
        _set(self, "levi_name", levi_name)
        _set(self, "d_semantic", d)
        _set(self, "key", (levi_name, character.text, d))

    def describe(self) -> str:
        if self.levi is None:
            return self.character.text
        s = f"({self.levi.name},{self.character.text},{self.d_printed})"
        if self.mult != 1:
            s += f"#{self.mult}"
        if self.disamb:
            s += f"@{self.disamb}"
        return s


class StrataRow(ValueObject):
    __slots__ = ("stratum", "fiber", "groups", "boxed", "membership", "group_of", "deviating")
    _fields = ("stratum", "fiber", "groups", "boxed", "membership")

    def __init__(
        self,
        stratum: CharacterLabel,
        fiber: tuple[FiberEntry, ...],  # first entry is (empty, stratum, 0, 1)
        groups: tuple[tuple[int, str], ...],  # (characteristic, group tag)
        boxed: frozenset,
        membership: Membership,
    ) -> None:
        _set(self, "stratum", stratum)
        _set(self, "fiber", fiber)
        _set(self, "groups", groups)
        _set(self, "boxed", boxed)
        _set(self, "membership", membership)
        # Derived once: the groups by characteristic, and for full
        # membership the groups at 2, 3, 5 that differ from the
        # characteristic-0 group, in that order (() for singleton rows).
        _set(self, "group_of", dict(groups))
        deviating: tuple[str, ...] = ()
        if membership.kind == "full":
            g0 = self.group_of[0]
            deviating = tuple(g for g in map(self.group_at, (2, 3, 5)) if g != g0)
        _set(self, "deviating", deviating)

    def group_at(self, r: int) -> str | None:
        """Annotation at characteristic r; full-membership rows repeat
        the characteristic-0 group at r=5 unless 5 is explicit."""
        g = self.group_of
        if r in g:
            return g[r]
        if self.membership.kind == "full" and r == 5:
            return g[0]
        return None

    @property
    def fiber_size(self) -> int:
        return sum(en.mult for en in self.fiber)


@lru_cache(maxsize=None)
def _fiber_levis(t: CartanType) -> dict[str, tuple[CartanType, dict[str, CharacterLabel]]]:
    """Each nonempty cuspidal Levi of t by its canonical name: its Weyl
    type and the characters of its relative group by text."""
    return {
        levi.levi_name: (
            levi.levi_weyl_type,
            {lab.text: lab for lab in relative_character_labels(t, levi.relative_weyl_type)},
        )
        for levi in cuspidal_levis(t)
        if levi.levi_weyl_type is not None
    }


def validate_row_annotation(
    groups: dict[int, str], boxed: frozenset, mem: Membership
) -> None:
    defined = set(groups)
    if not boxed:
        raise TableFormatError("a row must box at least one group")
    if mem.kind == "singleton":
        if defined != {mem.r0} or boxed != {mem.r0}:
            raise TableFormatError(
                f"singleton row must define and box exactly characteristic {mem.r0}"
            )
        return
    if not {0, 2, 3} <= defined:
        raise TableFormatError("full-membership row must define characteristics 0, 2, 3")
    if boxed == frozenset({"single"}):
        if len({groups[r] for r in defined}) != 1:
            raise TableFormatError("constant row carries differing groups")
        return
    if not boxed <= {2, 3, 5}:
        raise TableFormatError(f"bad boxed flags {sorted(map(str, boxed))}")


def build_rows(t: CartanType, raw_rows) -> tuple[StrataRow, ...]:
    """Typed rows from raw (head, entries, annotation) triples."""
    return assemble_rows(
        t, ((head, entries, *parse_annotation(ann)) for head, entries, ann in raw_rows)
    )


def assemble_rows(t: CartanType, structured) -> tuple[StrataRow, ...]:
    """Typed rows from structured (head, entries, groups, boxed,
    membership) tuples with normalized group tags, as produced by the
    JSON loader and by parse_annotation."""
    label_of = enumerate_irr(t).by_text
    levis = _fiber_levis(t)
    rows: list[StrataRow] = []
    for head, entries, groups, boxed, mem in structured:
        head_label = label_of(head)
        fiber = [FiberEntry(None, head_label, 0, 1)]
        for levi_name, char, d, mult, disamb in entries:
            if levi_name in ("", "-"):
                fiber.append(FiberEntry(None, label_of(char), int(d), int(mult), disamb))
                continue
            # Canonical names hit at once; other spellings are parsed.
            found = levis.get(levi_name) or levis.get(parse_type(levi_name).name)
            if found is None:
                raise TableFormatError(f"{levi_name} is not a cuspidal Levi of {t.name}")
            levi, characters = found
            lab = characters.get(char)
            if lab is None:
                raise TableFormatError(
                    f"{char!r} is not a character of the relative group of {levi.name} "
                    f"in {t.name}"
                )
            fiber.append(FiberEntry(levi, lab, int(d), int(mult), disamb))
        validate_row_annotation(groups, boxed, mem)
        rows.append(StrataRow(head_label, tuple(fiber), tuple(sorted(groups.items())), boxed, mem))
    _validate_rows(t, rows)
    return tuple(rows)


def _validate_rows(t: CartanType, rows: list[StrataRow]) -> None:
    heads = [r.stratum.text for r in rows]
    if len(set(heads)) != len(heads):
        dup = next(h for h in heads if heads.count(h) > 1)
        raise TableFormatError(f"duplicate stratum head {dup!r} in table for {t.name}")
    unit = unit_label(t).text
    for r in rows:
        if 5 in r.group_of and r.stratum.text != unit:
            raise TableFormatError(
                f"characteristic-5 annotation outside the unit stratum ({r.stratum.text})"
            )
        tags = r.deviating
        if len(tags) == 2 and tags not in _ALLOWED_PAIRS:
            raise TableFormatError(
                f"unexpected deviating pair {tags} in row {r.stratum.text!r} of {t.name}"
            )
        if len(tags) == 3 and tags != _TRIPLE:
            raise TableFormatError(
                f"unexpected deviating triple {tags} in row {r.stratum.text!r} of {t.name}"
            )


class PlacementMismatch(ValueError):
    """A table's fiber entries do not match the enumerated triples."""

    def __init__(self, message: str, offending: str | None = None) -> None:
        super().__init__(message)
        self.offending = offending


class Placement(ValueObject):
    """A table matched against the enumeration, with the indexes every
    query reads.

    resolved maps (row index, fiber position) to the character text the
    entry stands for; for entries printed with a duplicated label this
    may differ from the printed text (the assignment is the documented
    row-order/registry-order convention, recorded in notes).
    row_of_head maps each stratum's text to its row index, and
    row_of_triple each triple key (Levi name, character text, d) to the
    first row, in resolved order, whose fiber holds that triple.
    """

    __slots__ = _fields = (
        "type_name", "rows", "total", "resolved", "notes", "row_of_head", "row_of_triple",
    )

    def __init__(
        self,
        type_name: str,
        rows: tuple[StrataRow, ...],
        total: int,
        resolved: dict[tuple[int, int], str],
        notes: tuple[str, ...],
        row_of_head: dict[str, int],
        row_of_triple: dict[tuple, int],
    ) -> None:
        _set(self, "type_name", type_name)
        _set(self, "rows", rows)
        _set(self, "total", total)
        _set(self, "resolved", resolved)
        _set(self, "notes", notes)
        _set(self, "row_of_head", row_of_head)
        _set(self, "row_of_triple", row_of_triple)

    def row_index(self, stratum: CharacterLabel | str) -> int:
        text = stratum if isinstance(stratum, str) else stratum.text
        try:
            return self.row_of_head[text]
        except KeyError:
            raise UnknownStratum(f"{text!r} is not a stratum of {self.type_name}") from None


def resolve_placement(t: CartanType, rows: tuple[StrataRow, ...]) -> Placement:
    """Match every fiber entry to enumerated triples, or raise
    PlacementMismatch naming the first offending entry."""
    enum = enumerate_cs_prime(t)
    enum_families: dict[tuple, dict[str, int]] = {}
    for tr in enum:
        levi_name, txt, d = tr.key
        fam = enum_families.setdefault((levi_name, d), {})
        fam[txt] = fam.get(txt, 0) + 1

    table_families: dict[tuple, list[tuple[int, int, FiberEntry, str]]] = {}
    total = 0
    for ri, row in enumerate(rows):
        for pi, en in enumerate(row.fiber):
            levi_name, txt, d = en.key
            table_families.setdefault((levi_name, d), []).append((ri, pi, en, txt))
            total += en.mult

    extra = table_families.keys() - enum_families.keys()
    if extra:
        key = sorted(extra)[0]
        raise PlacementMismatch(
            f"table for {t.name} places entries with Levi/d {key} "
            "outside the cuspidal-support enumeration",
            offending=str(key),
        )

    resolved: dict[tuple[int, int], str] = {}
    row_of_triple: dict[tuple, int] = {}
    notes: list[str] = []
    for key, fam in enum_families.items():
        levi_name, d = key
        remaining = dict(fam)
        deferred: list[tuple[int, int, FiberEntry, str]] = []
        for item in table_families.get(key, ()):
            ri, pi, en, txt = item
            if remaining.get(txt, 0) >= en.mult:
                remaining[txt] -= en.mult
                resolved[(ri, pi)] = txt
                row_of_triple.setdefault((levi_name, txt, d), ri)
            else:
                deferred.append(item)
        # fam lists each character text once, in enumeration order
        leftovers = [txt for txt in fam if remaining[txt] > 0]
        for ri, pi, en, txt in deferred:
            if en.disamb is None:
                raise PlacementMismatch(
                    f"entry {en.describe()} in row {rows[ri].stratum.text!r} does not "
                    f"match the enumeration for {t.name}",
                    offending=en.describe(),
                )
            match = next(
                (cand for cand in leftovers if remaining[cand] == en.mult), None
            )
            if match is None:
                raise PlacementMismatch(
                    f"duplicated entry {en.describe()} in row {rows[ri].stratum.text!r} "
                    "cannot be assigned a remaining character",
                    offending=en.describe(),
                )
            remaining[match] -= en.mult
            leftovers.remove(match)
            resolved[(ri, pi)] = match
            row_of_triple.setdefault((levi_name, match, d), ri)
            if match != txt:
                notes.append(
                    f"entry {en.describe()} in row {rows[ri].stratum.text!r} "
                    f"stands for character {match!r}"
                )
        missing = {txt: c for txt, c in remaining.items() if c}
        if missing:
            txt = next(iter(missing))
            raise PlacementMismatch(
                f"table for {t.name} misses {missing[txt]} triple(s) "
                f"({levi_name}, {txt}, d={d})",
                offending=f"({levi_name},{txt},{d})",
            )
    if total != len(enum):
        raise PlacementMismatch(
            f"table for {t.name} places {total} triples, enumeration has {len(enum)}"
        )
    row_of_head = {row.stratum.text: ri for ri, row in enumerate(rows)}
    return Placement(t.name, rows, total, resolved, tuple(notes), row_of_head, row_of_triple)


@lru_cache(maxsize=None)
def embedded_table(t: CartanType) -> tuple[StrataRow, ...]:
    if t.name not in tabledata.TABLES:
        raise NoTableAvailable(f"no embedded table for {t.name}")
    return build_rows(t, tabledata.TABLES[t.name])


@lru_cache(maxsize=None)
def _embedded_placement(t: CartanType) -> Placement:
    return resolve_placement(t, embedded_table(t))


def is_identity(t: CartanType) -> bool:
    """Whether t's only cuspidal Levi is the empty one (series A and the
    torus), so that each character is its own stratum and fiber."""
    return len(cuspidal_levis(t)) == 1


@lru_cache(maxsize=None)
def _identity_placement(t: CartanType) -> Placement:
    """The built-in table of an identity type: one constant row with
    trivial groups per character, its fiber the row's own triple."""
    trivial = {0: "1", 2: "1", 3: "1"}
    single, full = frozenset({"single"}), Membership("full")
    structured = ((lab.text, (), trivial, single, full) for lab in enumerate_irr(t).labels)
    return resolve_placement(t, assemble_rows(t, structured))


class TableStore:
    """Embedded tables plus any tables registered for classical types,
    each registered one held as its resolved placement.  Identity types
    answer from their built-in table, which is never stored.

    Registration is expected at startup, before queries; lookups never
    mutate the store.
    """

    def __init__(self) -> None:
        self._registered: dict[str, Placement] = {}

    def has_table(self, t: CartanType) -> bool:
        return t.name in tabledata.TABLES or t.name in self._registered

    def table(self, t: CartanType) -> tuple[StrataRow, ...]:
        if t.name in tabledata.TABLES:
            return embedded_table(t)
        return placement(t, self).rows

    def install(self, placed: Placement) -> None:
        if placed.type_name in tabledata.TABLES:
            raise TableFormatError(
                f"{placed.type_name} is embedded; external copies are only checked"
            )
        self._registered[placed.type_name] = placed


DEFAULT_STORE = TableStore()


def placement(t: CartanType, store: TableStore = DEFAULT_STORE) -> Placement:
    """The resolved table of t: built once per process for an embedded
    or identity type, at registration for a registered one."""
    name = t.name
    if name in tabledata.TABLES:
        return _embedded_placement(t)
    try:
        return store._registered[name]
    except KeyError:
        if is_identity(t):
            return _identity_placement(t)
        raise NoTableAvailable(
            f"no strata table for {name}; register one for classical types"
        ) from None


def component_group(
    t: CartanType, stratum: CharacterLabel | str, r: int, store: TableStore = DEFAULT_STORE
) -> str | None:
    """The component-group annotation at characteristic r (0,2,3,5);
    None where the table prints a dash."""
    if r not in PRIME_SLOTS:
        raise TableFormatError(f"characteristic must be one of {PRIME_SLOTS}")
    row = find_row(t, stratum, store)
    return row.group_at(r)


def find_row(
    t: CartanType, stratum: CharacterLabel | str, store: TableStore = DEFAULT_STORE
) -> StrataRow:
    pl = placement(t, store)
    return pl.rows[pl.row_index(stratum)]


# ---------------------------------------------------------------------------
# Centralizer profiles.


class CentralizerProfile(ValueObject):
    __slots__ = _fields = ("ambient", "d", "characteristic_class", "entries", "note")

    def __init__(
        self,
        ambient: CartanType,
        d: int | None,
        characteristic_class: str,  # "generic" or the prime as a string
        entries: tuple[tuple[Subsystem | None, int], ...],  # None = full group
        note: str | None = None,
    ) -> None:
        _set(self, "ambient", ambient)
        _set(self, "d", d)
        _set(self, "characteristic_class", characteristic_class)
        _set(self, "entries", entries)
        _set(self, "note", note)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.entries)

    def describe_entries(self) -> str:
        return ", ".join(
            f"{'full' if s is None else s.name} x{c}" for s, c in self.entries
        )


def _classical_profiles(t: CartanType) -> tuple[CentralizerProfile, ...]:
    """The generic and characteristic-2 profiles of a cuspidal classical
    type.  The generic centralizer is B_a x D_b in B_n (n = k(k+1), B_0
    trivial), and two equal factors of half the rank in C_n and D_n."""
    n = t.rank
    if t.series == "B":
        k = isqrt(n)
        if k % 2 == 0:
            a, b = ((k + 1) ** 2 - 1) // 2, k * k // 2
        else:
            a, b = (k * k - 1) // 2, (k + 1) ** 2 // 2
        generic = f"B{a}xD{b}" if a else f"D{b}"
    else:
        generic = f"{t.series}{n // 2}x{t.series}{n // 2}"
    return (
        CentralizerProfile(t, None, "generic", ((Subsystem.parse(generic), 1),)),
        CentralizerProfile(t, None, "2", ((None, 1),)),
    )


def centralizer_profiles(t: CartanType) -> tuple[CentralizerProfile, ...]:
    """All recorded profiles for t (every cuspidal d, every class)."""
    if t.is_exceptional:
        out = []
        for (name, d), classes in tabledata.CENTRALIZER_PROFILES.items():
            if name != t.name:
                continue
            for char_class, entries in classes:
                typed = tuple(
                    (None if s == tabledata.FULL else Subsystem.parse(s), c)
                    for s, c in entries
                )
                note = tabledata.E8_D0_NOTE if (name, d) == ("E8", 0) else None
                out.append(
                    CentralizerProfile(t, d, str(char_class), typed, note)
                )
        return tuple(out)
    if t.is_classical and cuspidal_counts(t).counts:
        return _classical_profiles(t)
    return ()


def centralizer_profile(
    t: CartanType, d: int | None, r: int | str
) -> CentralizerProfile:
    """The profile for (t, d) in characteristic r; r may be 0, a prime,
    or 'generic'."""
    candidates = [p for p in centralizer_profiles(t) if p.d == d]
    if not candidates:
        raise CartanError(f"no centralizer data for {t.name} with d={d}")
    wanted = "generic" if r in (0, "0", "generic") else str(r)
    for p in candidates:
        if p.characteristic_class == wanted:
            return p
    for p in candidates:
        if p.characteristic_class == "generic":
            return p
    raise CartanError(f"no centralizer profile for {t.name}, d={d}, r={r}")
