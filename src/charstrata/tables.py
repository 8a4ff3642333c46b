"""Typed access to the strata tables: rows, their placement against
the cuspidal-support enumeration and the indexes built from it,
component-group annotations, the built-in identity table of series A
and the torus, and the table store that holds, by type name, every
placement a session answers from.  Every table, embedded, identity or
registered, is read through its resolved placement; a store resolves a
built-in one on its first query there.  A placement holds the
enumeration it was resolved against, whose labels its rows share, so
del store[name] and store.clear() release them too.
"""

from __future__ import annotations

from functools import lru_cache

from . import tabledata
from .cartan import CartanError, CartanType, CharstrataError, ValueObject, parse_type
from .cuspidal import SheafTriple, cuspidal_levis, enumerate_cs_prime
from .groups import GroupError, group_collection, normalize_tag
from .labels import CharacterLabel, unit_label


class NoTableAvailable(CharstrataError, LookupError):
    """No strata table embedded or registered for the requested type."""


class UnknownStratum(CharstrataError, LookupError):
    pass


class HeadIndex(dict):
    """A table's row index: the dict from the text of each row's stratum
    to the row's index.  A stratum given as its label misses and is
    looked up by its text; a text that heads no row raises UnknownStratum
    naming the type, as it is no stratum of the type."""

    def __init__(self, type_name: str, row_of_text) -> None:
        super().__init__(row_of_text)
        self.type_name = type_name

    def __missing__(self, stratum: CharacterLabel | str) -> int:
        if isinstance(stratum, str):
            raise UnknownStratum(f"{stratum!r} is not a stratum of {self.type_name}")
        return self[stratum.text]


class TableFormatError(CharstrataError, ValueError):
    pass


PRIME_SLOTS = (0, 2, 3, 5)


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


def parse_annotation(ann: str) -> tuple[dict[int, str], frozenset]:
    """Parse the printed group datum into (groups by characteristic,
    boxed flags), refusing only what breaks its grammar (TableFormatError,
    GroupError for an unknown tag); Annotation checks the rest.  Boxed
    flags are the characteristics printed in brackets, or {'single'}
    for the constant case."""
    tokens = _split_annotation(ann)
    if len(tokens) == 1:
        tok = tokens[0]
        if not (tok.startswith("[") and tok.endswith("]")):
            raise TableFormatError("constant annotation must be boxed")
        g = normalize_tag(tok[1:-1])
        return {2: g, 3: g, 0: g}, frozenset({"single"})
    first = tokens[0]
    if first.startswith("[") and "," in first:
        # boxed pair or triple, then the parenthesized characteristic-0 group
        names = [normalize_tag(x) for x in first[1:-1].split(",")]
        last = tokens[-1]
        if len(tokens) != 2 or not (last.startswith("(") and last.endswith(")")):
            raise TableFormatError("bad boxed-collection annotation")
        g0 = normalize_tag(last[1:-1])
        if len(names) == 2:
            return {2: names[0], 3: names[1], 0: g0}, frozenset({2, 3})
        if len(names) == 3:
            return {2: names[0], 3: names[1], 5: names[2], 0: g0}, frozenset({2, 3, 5})
        raise TableFormatError(f"boxed collection of size {len(names)}")
    if len(tokens) != 3:
        raise TableFormatError("expected 3 entries")
    groups: dict[int, str] = {}
    boxed: set[int] = set()
    for slot, tok in zip((2, 3, 0), tokens):
        if tok in ("-", "(-)"):
            continue
        inner = tok
        if slot == 0:
            if not (inner.startswith("(") and inner.endswith(")")):
                raise TableFormatError("characteristic-0 entry must be (..)")
            inner = inner[1:-1]
        if inner.startswith("[") and inner.endswith("]"):
            boxed.add(slot)
            inner = inner[1:-1]
        groups[slot] = normalize_tag(inner)
    return groups, frozenset(boxed)


class FiberEntry(ValueObject):
    """One printed fiber symbol: Levi (None = empty subset), character of
    the relative group, the printed d, its multiplicity, and the
    occurrence disambiguator for labels printed identically in two rows."""

    __slots__ = ("levi", "character", "d_printed", "mult", "disamb", "key")
    _fields = ("levi", "character", "d_printed", "mult", "disamb")

    def __init__(
        self, levi: CartanType | None, character: CharacterLabel, d_printed: int, mult: int,
        disamb: str | None = None,
    ) -> None:
        set_levi, set_character, set_d, set_mult, set_disamb, set_key = self._setters
        set_levi(self, levi)
        set_character(self, character)
        set_d(self, d_printed)
        set_mult(self, mult)
        set_disamb(self, disamb)
        # Derived once: the triple key (Levi name, '-' when empty,
        # character text, d), d None (opaque) for classical Levis.
        set_key(self, ("-", character.text, d_printed) if levi is None else (
            levi.name, character.text, None if levi.is_classical else d_printed))

    @property
    def levi_name(self) -> str:
        return self.key[0]

    def describe(self) -> str:
        if self.levi is None:
            return self.character.text
        s = f"({self.levi.name},{self.character.text},{self.d_printed})"
        if self.mult != 1:
            s += f"#{self.mult}"
        if self.disamb:
            s += f"@{self.disamb}"
        return s


class Annotation(ValueObject):
    """A row's printed group datum: the groups as sorted
    (characteristic, tag) pairs and the boxed flags.  A source builds
    one per distinct annotation, and every row that prints it shares it.

    _derive alone decides the datum's rules (TableFormatError): a row
    boxes at least one flag; it defines one characteristic r0 among 2,
    3 and 5 and boxes just it (a singleton: the stratum's class exists
    in r0 alone), or it defines 0, 2 and 3 (full: it exists in every
    characteristic); a constant row, boxed {'single'}, has one group,
    and any other full row boxes primes among 2, 3 and 5.  It derives
    r0 (None for a full row), the groups by characteristic, the group
    collection c(E) with its label set, and deviation: the primes among
    2, 3 and 5 whose group differs from the characteristic-0 group
    ({r0} for a singleton).  The tags of a deviating pair or triple are
    those groups, in that order; GroupError if they have no collection."""

    __slots__ = ("groups", "boxed", "r0", "group_of", "collection", "deviation")
    _fields = ("groups", "boxed")

    @staticmethod
    def _derive(groups: tuple, boxed: frozenset) -> tuple:
        group_of = dict(groups)
        if not boxed:
            raise TableFormatError("a row must box at least one group")
        if len(group_of) == 1:
            (r0,) = group_of
            if r0 not in (2, 3, 5) or boxed != {r0}:
                raise TableFormatError("a singleton row must define and box one of 2, 3, 5")
            return r0, group_of, group_collection("single", (group_of[r0],)), boxed
        if not {0, 2, 3} <= group_of.keys():
            raise TableFormatError(
                "a row must define characteristics 0, 2 and 3, or one of 2, 3 and 5 alone"
            )
        if boxed == frozenset({"single"}):
            if len(set(group_of.values())) != 1:
                raise TableFormatError("constant row carries differing groups")
        elif not boxed <= {2, 3, 5}:
            raise TableFormatError(f"bad boxed flags {sorted(map(str, boxed))}")
        g0 = group_of[0]
        at = ((2, group_of[2]), (3, group_of[3]), (5, group_of.get(5, g0)))
        deviating = tuple([g for _, g in at if g != g0])
        if len(deviating) < 2:
            collection = group_collection("single", deviating or (g0,))
        elif len(deviating) == 2:
            collection = group_collection("pair", deviating, g0)
        else:
            collection = group_collection("triple", deviating)
        return None, group_of, collection, frozenset(p for p, g in at if g != g0)

    def group_at(self, r: int) -> str | None:
        """The group at characteristic r; a full row repeats the
        characteristic-0 group at r=5 unless 5 is explicit."""
        g = self.group_of
        if r in g:
            return g[r]
        if self.r0 is None and r == 5:
            return g[0]
        return None


class StrataRow(ValueObject):
    """One table row: the stratum; its fiber, whose first entry is
    (empty, stratum, 0, 1); and its Annotation, the same object in every
    row of the table that prints the same one."""

    __slots__ = _fields = ("stratum", "fiber", "annotation")

    def __init__(self, stratum: CharacterLabel, fiber: tuple, annotation: Annotation) -> None:
        set_stratum, set_fiber, set_annotation = self._setters
        set_stratum(self, stratum)
        set_fiber(self, fiber)
        set_annotation(self, annotation)


def levi_name_of(text: str) -> str:
    """The levi_name a Levi spelling stands for: '-' for '' and '-', else
    the canonical name parse_type reads, or the text if it reads none."""
    try:
        return "-" if text in ("", "-") else parse_type(text).name
    except CartanError:
        return text


def _fiber_levis(triples: tuple[SheafTriple, ...]) -> dict[str, tuple]:
    """Each cuspidal Levi of an enumeration by its canonical name: its
    Weyl type (None for '-', the empty Levi) and its triples'
    characters by text, Irr(t) for '-'.  A Levi's triples are adjacent."""
    levis, levi = {}, None
    for tr in triples:
        if tr.levi is not levi:
            levi, characters = tr.levi, {}
            levis[levi.levi_name] = (levi.levi_weyl_type, characters)
        characters[tr.character.text] = tr.character
    return levis


@lru_cache(maxsize=None)
def _printed_annotation(ann: str) -> Annotation:
    """The Annotation of a printed group datum, once per distinct one;
    a refusal names the printed text."""
    try:
        groups, boxed = parse_annotation(ann)
        return Annotation(tuple(sorted(groups.items())), boxed)
    except (TableFormatError, GroupError) as exc:
        raise TableFormatError(f"{exc}: {ann!r}") from None


def build_rows(t: CartanType, raw_rows, triples) -> tuple[StrataRow, ...]:
    """Typed rows from raw (head, entries, annotation) triples, labelled
    from triples, t's enumeration."""
    return assemble_rows(
        t, ((head, entries, _printed_annotation(ann)) for head, entries, ann in raw_rows), triples
    )


def assemble_rows(t: CartanType, structured, triples) -> tuple[StrataRow, ...]:
    """Typed rows from structured (head, entries, annotation) tuples, as
    produced by the JSON loader and from the printed tables: entries are
    (levi, character, d, mult, disamb) with int d and mult, and each
    Annotation, already checked, is shared by the rows that print it.
    Each label is the object of triples, t's enumeration, that it names.
    The walk that builds the rows refuses (TableFormatError) any other
    label, a head that an earlier row already has, a characteristic-5
    group outside the unit stratum, and an entry of a classical Levi
    that prints a d other than 0, which no triple key reads."""
    levis = _fiber_levis(triples)
    registry = levis["-"][1]
    unit = unit_label(t).text
    rows: list[StrataRow] = []
    seen: set[str] = set()
    for head, entries, annotation in structured:
        head_label = registry.get(head)
        if head_label is None:
            raise TableFormatError(f"unknown label {head!r} for {t.name}")
        text = head_label.text
        if text in seen:
            raise TableFormatError(f"duplicate stratum head {text!r} in table for {t.name}")
        seen.add(text)
        if 5 in annotation.group_of and text != unit:
            raise TableFormatError(
                f"characteristic-5 annotation outside the unit stratum in row {text!r} "
                f"of {t.name}"
            )
        fiber = [FiberEntry(None, head_label, 0, 1)]
        for levi_name, char, d, mult, disamb in entries:
            # Canonical names hit at once; levi_name_of reads other spellings.
            name = levi_name if levi_name in levis else levi_name_of(levi_name)
            try:
                levi, characters = levis[name]
            except KeyError:
                raise TableFormatError(f"{levi_name} is not a cuspidal Levi of {t.name}") from None
            lab = characters.get(char)
            if lab is None:
                if levi is None:
                    raise TableFormatError(f"unknown label {char!r} for {t.name}")
                raise TableFormatError(
                    f"{char!r} is not a character of the relative group of {name} "
                    f"in {t.name}"
                )
            if d and levi is not None and levi.is_classical:
                raise TableFormatError(
                    f"entry ({name},{char},{d}) in row {text!r} of {t.name} must print "
                    "d=0: its Levi is classical"
                )
            fiber.append(FiberEntry(levi, lab, d, mult, disamb))
        rows.append(StrataRow(head_label, tuple(fiber), annotation))
    return tuple(rows)


class PlacementMismatch(CharstrataError, ValueError):
    """A table's fiber entries do not match the enumerated triples."""


class Placement(ValueObject):
    """A table matched against the enumeration, with the indexes every
    query reads.

    type_name names the type, triples is the enumeration the table was
    resolved against, and rows are the table's rows in order.
    They place every triple of the enumeration, each in exactly one
    row, as each fiber entry stands for all the triples of its key, and
    each row's head its own empty-Levi triple; resolve_placement
    returns no placement that breaks either.  relabelled maps (row
    index, fiber position) to the triple key the entry stands for, for
    entries printed with a duplicated label only (the documented
    row-order/registry-order convention); every other entry stands for
    its own key.
    row_of_head, a HeadIndex, maps each stratum, as its text or its
    label, to its row index and raises UnknownStratum for any other, and
    stratum_of_triple each triple key (Levi name, character text, d) to
    the stratum of the row whose fiber holds the triples of that key.
    fiber_pairs holds for each row its fiber as (triple, multiplicity)
    pairs, and fiber_expanded the same fiber with one (triple, 1) pair
    per triple (the same tuple when the two agree, that is when no
    entry has mult > 1), its length the row's fiber size.
    row_kinds lists each row kind once, in the order of its first row:
    (annotation, fiber size, first row index) for each distinct pair of
    an Annotation object and an expanded fiber size.  A table of
    thousands of rows has a handful of kinds, and a fact of the kind,
    such as its group datum or its balance, is checked there once.
    resolve_placement builds all of them in one walk of the enumeration
    and one of the entries, which places them and records each row's
    pairs and kind, and a query answers with one lookup in row_of_head
    or stratum_of_triple (find_triple: one in each per candidate key);
    registry_gaps reads how the empty-Levi entries list Irr(t) off
    relabelled.
    """

    __slots__ = _fields = (
        "type_name", "triples", "rows", "relabelled", "row_of_head", "stratum_of_triple",
        "fiber_pairs", "fiber_expanded", "row_kinds",
    )


def resolve_placement(t: CartanType, rows: tuple[StrataRow, ...], triples=None) -> Placement:
    """Match each fiber entry to all the triples of its key in triples,
    t's enumeration (a fresh one if None), as many as its multiplicity,
    or raise PlacementMismatch naming the first offending entry.  The
    walk that matches the entries records each row's pairs and kind."""
    enum = enumerate_cs_prime(t) if triples is None else triples
    # The triples of one key (Levi name, character text, d) are adjacent
    # in the enumeration, index 0 first (enumerate_cs_prime's order), so
    # the position of the last one gives their number and locates them.
    last_of, remaining = {}, {}
    for i, tr in enumerate(enum):
        last_of[tr.key] = i
        remaining[tr.key] = tr.index + 1

    # In table order, an entry takes all the triples of its own key,
    # enum[last + 1 - mult:last + 1], when none is taken yet and it
    # prints their number; its pair is the first of them and mult.  The
    # others wait for their family (Levi name, d), their pair unset.  A
    # row's expanded fiber differs from its pairs only if some entry has
    # mult > 1, and its size, the sum of the mults, gives the row kind,
    # (Annotation object, fiber size), recorded at its first row.
    stratum_of_triple, waiting = {}, {}
    fiber_pairs, spanning, kinds = [], [], {}
    for ri, row in enumerate(rows):
        pairs, size = [], 0
        for pi, en in enumerate(row.fiber):
            key, mult = en.key, en.mult
            if remaining.get(key) == mult:
                remaining[key] = 0
                stratum_of_triple[key] = row.stratum
                pairs.append((enum[last_of[key] + 1 - mult], mult))
            else:
                waiting.setdefault((key[0], key[2]), []).append((ri, pi, en))
                pairs.append(None)
            size += mult
        fiber_pairs.append(pairs)
        if size != len(pairs):
            spanning.append(ri)
        kind = (id(row.annotation), size)
        if kind not in kinds:
            kinds[kind] = (row.annotation, size, ri)

    # Waiting entries and untaken keys, family by family in enumeration
    # order: an entry printed with a duplicated label takes a remaining
    # character of its family, and its pair is set there.
    relabelled = {}
    if waiting or any(remaining.values()):
        families = {}
        for levi_name, txt, d in remaining:
            families.setdefault((levi_name, d), []).append(txt)
        extra = waiting.keys() - families.keys()
        if extra:
            key = sorted(extra)[0]
            raise PlacementMismatch(
                f"table for {t.name} places entries with Levi/d {key} "
                "outside the cuspidal-support enumeration"
            )
        for (levi_name, d), texts in families.items():
            leftovers = [txt for txt in texts if remaining[levi_name, txt, d] > 0]
            for ri, pi, en in waiting.get((levi_name, d), ()):
                if en.disamb is None:
                    raise PlacementMismatch(
                        f"entry {en.describe()} in row {rows[ri].stratum.text!r} does not "
                        f"match the enumeration for {t.name}"
                    )
                match = next(
                    (cand for cand in leftovers if remaining[levi_name, cand, d] == en.mult),
                    None,
                )
                if match is None:
                    raise PlacementMismatch(
                        f"duplicated entry {en.describe()} in row {rows[ri].stratum.text!r} "
                        "cannot be assigned a remaining character"
                    )
                # It waited as its own key had not exactly mult triples
                # left, and match has: match is never its own.
                key = (levi_name, match, d)
                remaining[key] = 0
                leftovers.remove(match)
                relabelled[ri, pi] = key
                stratum_of_triple[key] = rows[ri].stratum
                fiber_pairs[ri][pi] = (enum[last_of[key] + 1 - en.mult], en.mult)
            for txt in texts:
                left = remaining[levi_name, txt, d]
                if left:
                    raise PlacementMismatch(
                        f"table for {t.name} misses {left} triple(s) "
                        f"({levi_name}, {txt}, d={d})"
                    )
    fiber_pairs = tuple(map(tuple, fiber_pairs))
    fiber_expanded = list(fiber_pairs)
    for ri in spanning:
        expanded = []
        for tr, mult in fiber_pairs[ri]:
            last = last_of[tr.key]
            expanded += [(each, 1) for each in enum[last + 1 - mult:last + 1]]
        fiber_expanded[ri] = tuple(expanded)
    row_of_head = HeadIndex(t.name, {row.stratum.text: ri for ri, row in enumerate(rows)})
    return Placement(
        t.name, enum, rows, relabelled, row_of_head, stratum_of_triple,
        fiber_pairs, tuple(fiber_expanded), tuple(kinds.values()),
    )


def registry_gaps(pl: Placement) -> tuple[list[str], list[str]]:
    """(missing, duplicated), both sorted: the labels of Irr(t) that no
    empty-Levi entry prints, and those printed more than once.  An
    empty-Levi key has one triple, taken by the first entry printing its
    label, so a later print is relabelled to a label none prints, or the
    table does not place."""
    gaps = [(to, pl.rows[ri].fiber[pi].character.text)
            for (ri, pi), (levi, to, _) in pl.relabelled.items() if levi == "-"]
    return sorted(to for to, _ in gaps), sorted({printed for _, printed in gaps})


def embedded_table(t: CartanType) -> tuple[StrataRow, ...]:
    """The rows of t's embedded table, built anew on each call; t must have one."""
    return build_rows(t, tabledata.TABLES[t.name], enumerate_cs_prime(t))


def is_identity(t: CartanType) -> bool:
    """Whether t's only cuspidal Levi is the empty one (series A and the
    torus), so that each character is its own stratum and fiber."""
    return len(cuspidal_levis(t)) == 1


def built_in_source(t: CartanType) -> str | None:
    """Whether t has a built-in table, and whence: "embedded", "built
    in" (the identity table), or None."""
    return "embedded" if t.name in tabledata.TABLES else "built in" if is_identity(t) else None


class TableStore(dict):
    """The placements a session answers from: the dict from type name to
    Placement, and the only holder of each.  install stores each
    registered table; __missing__ resolves an embedded or identity
    type's built-in table on its first query there and stores it, so
    each store resolves its own, and del store[name] or clear()
    releases it.  A failed lookup stores nothing, and every table is
    read through its placement, so store[t.name] is the whole of a
    query's way to its table.

    Registration is expected at startup, before queries.
    """

    __slots__ = ()

    def __missing__(self, name: str) -> Placement:
        """The built-in table of the type, built from and resolved
        against one enumeration: the embedded one, or for an identity
        type one constant row with trivial groups (printed [1]) per
        triple, all of which are empty-Levi ones, its fiber the triple.
        NoTableAvailable for any other type."""
        t = parse_type(name)
        if not (source := built_in_source(t)):
            raise NoTableAvailable(
                f"no strata table for {t.name}; register one for classical types")
        triples = self.triples(t)
        raw = tabledata.TABLES[t.name] if source == "embedded" else (
            (tr.character.text, (), "[1]") for tr in triples)
        placed = self[name] = resolve_placement(t, build_rows(t, raw, triples), triples)
        return placed

    def table(self, t: CartanType) -> tuple[StrataRow, ...]:
        return self[t.name].rows

    def triples(self, t: CartanType) -> tuple[SheafTriple, ...]:
        """t's triples: those its stored placement holds, else a fresh
        enumeration, resolving no table.  find_triple scans only a fresh
        one: a stored placement indexes its own by key."""
        return self[t.name].triples if t.name in self else enumerate_cs_prime(t)

    def install(self, placed: Placement) -> None:
        """Store placed, which resolve_placement returned: verify's checks
        report what it guarantees.  TableFormatError for a built-in type."""
        name = placed.type_name
        if source := built_in_source(parse_type(name)):
            raise TableFormatError(f"{name} is {source}; external copies are only checked")
        self[name] = placed


# The store of the callers that pass none, holding its own placements.
DEFAULT_STORE = TableStore()


def placement(t: CartanType, store: TableStore = DEFAULT_STORE) -> Placement:
    """The resolved table of t, store[t.name]: the registered one, or
    the built-in one, stored on first use."""
    return store[t.name]


def component_group(
    t: CartanType, stratum: CharacterLabel | str, r: int, store: TableStore = DEFAULT_STORE
) -> str | None:
    """The component-group annotation at characteristic r (0,2,3,5);
    None where the table prints a dash."""
    if r not in PRIME_SLOTS:
        raise TableFormatError(f"characteristic must be one of {PRIME_SLOTS}")
    return find_row(t, stratum, store).annotation.group_at(r)


def find_row(
    t: CartanType, stratum: CharacterLabel | str, store: TableStore = DEFAULT_STORE
) -> StrataRow:
    """The row of a stratum given as its text or as its label."""
    pl = store[t.name]
    return pl.rows[pl.row_of_head[stratum]]
