"""The verification suite: per-type invariant checks, report assembly,
and registration of external strata tables for classical types.

The table checks read the type's placement, resolved once per run,
first.  An embedded, a registered and a built-in identity table (series
A and the torus) all go through the same six.  resolve_placement
returns a placement only when every enumerated triple sits in exactly
one row and every head's own triple in the head's row, so
triple-placement and retraction report that guarantee and what it
covers; a table that does not place fails triple-placement through the
PlacementMismatch, and the checks after it report 'skipped'.  The
triple count itself is checked once, by cuspidal-enumeration against
cuspidal.triple_count, on the enumeration the placement holds (a fresh
one without a placement).  A type with more triples than
tables.TRIPLE_BUDGET is enumerated by no check: cuspidal-enumeration
reports 'skipped' with its count, the table checks 'skipped', and
centralizer-profiles and group-inventories still run.
empty-completeness reads the registry gaps off the entries
resolve_placement relabelled, and boxed-recomputation and row-balance
the row kinds its walk of the table recorded, each distinct
(Annotation, fiber size) pair with its first row, so they check a
few kinds instead of every row.  The table checks report 'skipped'
(never 'pass') for types without an available table.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from time import perf_counter

from . import tabledata
from .cartan import CartanType, ValueObject, datum, is_pseudo_levi
from .cuspidal import centralizer_profiles, cuspidal_counts, triple_count
from .groups import GROUP_TAGS, GroupError, conjugacy_class_count, inventory
from .labels import unit_label
from .schema import canonical_json, read_table_document, table_document
from .strata import regular_fiber_labels
from .tables import (
    DEFAULT_STORE,
    NoTableAvailable,
    Placement,
    PlacementMismatch,
    TableFormatError,
    TableStore,
    TripleBudgetExceeded,
    UnknownStratum,
    assemble_rows,
    built_in_source,
    placement,
    registry_gaps,
    resolve_placement,
)

CHECK_IDS = (
    "cuspidal-enumeration",
    "triple-placement",
    "retraction",
    "empty-completeness",
    "boxed-recomputation",
    "row-balance",
    "regular-fiber-phi",
    "centralizer-profiles",
    "group-inventories",
)


class VerificationReport(ValueObject):
    """The checks of one type, in order, and the errata that touch it.
    Unlike the other value classes it is built up in place: mutable and
    unhashable.  seconds holds each added check's wall time, from the
    report's creation or the check before; it is not compared or copied."""

    __slots__ = ("type_name", "checks", "errata", "seconds", "_since")
    _fields = ("type_name", "checks", "errata")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(
        self,
        type_name: str,
        checks: list[tuple[str, str, str]] | None = None,
        errata: list[str] | None = None,
    ) -> None:
        self.type_name = type_name
        self.checks = [] if checks is None else checks
        self.errata = [] if errata is None else errata
        self.seconds: dict[str, float] = {}
        self._since = perf_counter()

    def add(self, check_id: str, status: str, detail: str) -> None:
        now = perf_counter()
        self.checks.append((check_id, status, detail))
        self.seconds[check_id] = now - self._since
        self._since = now

    @property
    def failed(self) -> bool:
        return any(status == "fail" for _, status, _ in self.checks)

    def lines(self) -> list[str]:
        return [check_line(*check) for check in self.checks]


def check_line(check_id: str, status: str, detail: str) -> str:
    """One check as text: 'id: status', then '  [detail]' if it has one."""
    return f"{check_id}: {status}" + (f"  [{detail}]" if detail else "")


def _check_enumeration(t: CartanType, triples: tuple) -> tuple[str, str]:
    enumerated = len(triples)
    expected = triple_count(t)
    if enumerated != expected:
        return "fail", f"enumerated {enumerated}, closed form gives {expected}"
    return "pass", f"{enumerated} triples"


def _check_placement(t: CartanType, pl: Placement) -> tuple[str, str]:
    """Every triple of the enumeration in exactly one row, which
    resolve_placement guarantees of each placement it returns; a table
    that does not place fails this check in run_all, through the
    PlacementMismatch.  The pass names the triples placed and the
    entries printed with a duplicated label that it relabelled."""
    note = f"; {len(pl.relabelled)} duplicated label(s) resolved" if pl.relabelled else ""
    return "pass", f"resolved: {len(pl.triples)} triples, each in one row{note}"


def _check_retraction(t: CartanType, pl: Placement) -> tuple[str, str]:
    """Every stratum's own empty-Levi triple in the stratum's row, which
    resolve_placement guarantees: a head's key has one triple, and a
    head takes it first or, since a head carries no disamb, is refused."""
    return "pass", f"resolved: {len(pl.rows)} heads, each heading the row of its own triple"


def _check_empty_completeness(t: CartanType, pl: Placement) -> tuple[str, str]:
    """Irr(t) listed exactly once by the empty-Levi entries, read from
    the placement's registry gaps; its empty-Levi triples, one per
    character, lead the placement's enumeration."""
    missing, duplicated = registry_gaps(pl)
    if missing or duplicated:
        return "fail", f"missing {missing}, duplicated {duplicated}"
    size = bisect_left(pl.triples, True, key=lambda tr: tr.key[0] != "-")
    return "pass", f"{size} empty-Levi labels exhaust the registry"


def _check_boxed(t: CartanType, pl: Placement) -> tuple[str, str]:
    """Each row's boxed flags against the deviation its Annotation
    derived, and that against the bad primes.  Rows that print the same
    datum share one Annotation, so each distinct object is checked once,
    at its first row, read from the placement's row kinds in the order
    of their first rows; a failure thus names the first faulty row in
    table order, and a pass counts the objects compared.  They are told
    apart by id, which costs less than Annotation's hash of its fields.
    A singleton row deviates at its r0 alone, which Annotation checks
    that it boxes; its r0 need not be a bad prime."""
    bad = datum(t).bad_primes
    checked = set()
    for a, _, ri in pl.row_kinds:
        if id(a) in checked:
            continue
        checked.add(id(a))
        deviation = a.deviation
        if a.boxed != (deviation or {"single"}):
            return (
                "fail",
                f"row {pl.rows[ri].stratum.text!r}: deviation {sorted(map(str, deviation))} vs "
                f"boxed {sorted(map(str, a.boxed))}",
            )
        if not deviation <= bad and a.r0 is None:
            return "fail", f"row {pl.rows[ri].stratum.text!r} deviates outside bad primes"
    return "pass", f"{len(checked)} annotations match their deviation sets"


def _check_row_balance(t: CartanType, pl: Placement) -> tuple[str, str]:
    """The counting witness: each fiber, as many triples as its expanded
    fiber lists, as large as the inventory of its group collection.
    Both sizes are facts of the row's kind, so each of the placement's
    row kinds is checked once; they come in the order of their first
    rows, so a failure names the first faulty row in table order, and a
    pass counts the rows and the kinds that cover them."""
    for a, f, ri in pl.row_kinds:
        c = len(a.collection.labels)
        if f != c:
            return "fail", f"row {pl.rows[ri].stratum.text!r}: fiber {f} != inventory {c}"
    return "pass", f"{len(pl.rows)} rows in {len(pl.row_kinds)} kinds balanced"


def _check_phi(t: CartanType, pl: Placement) -> tuple[str, str]:
    """The unit stratum's fiber, as many triples as its expanded fiber
    lists, against the primitive roots of unity that index it."""
    expected = len(regular_fiber_labels(t))
    try:
        got = len(pl.fiber_expanded[pl.row_of_head[unit_label(t).text]])
    except UnknownStratum as exc:
        return "fail", f"unit stratum not found: {exc}"
    if got != expected:
        return "fail", f"unit stratum fiber {got}, phi-sum {expected}"
    return "pass", f"unit stratum fiber {got} = phi-sum {expected}"


_TABLE_CHECKS = (
    ("triple-placement", _check_placement),
    ("retraction", _check_retraction),
    ("empty-completeness", _check_empty_completeness),
    ("boxed-recomputation", _check_boxed),
    ("row-balance", _check_row_balance),
    ("regular-fiber-phi", _check_phi),
)


def _check_centralizers(t: CartanType) -> tuple[str, str]:
    """The profiles recorded for an exceptional type, or derived in
    closed form for a cuspidal B/C/D type, sum to the cuspidal counts
    and name pseudo-Levi subsystems; the detail says which they are."""
    profiles = centralizer_profiles(t)
    if not profiles:
        return "skipped", "no cuspidal centralizer data for this type"
    counts = cuspidal_counts(t).as_dict()
    for p in profiles:
        if p.total != counts[p.d]:
            return (
                "fail",
                f"profile (d={p.d}, r={p.characteristic_class}) sums to {p.total}, "
                f"count table says {counts[p.d]}",
            )
        for sub, _ in p.entries:
            if sub is None:
                continue
            if not is_pseudo_levi(t, sub):
                return "fail", f"{sub.name} is not a pseudo-Levi subsystem of {t.name}"
    return "pass", f"{len(profiles)} profiles {'verified' if t.is_exceptional else 'derived'}"


@lru_cache(maxsize=None)
def _check_group_inventories() -> tuple[str, str]:
    """The same for every type, so it runs once per process."""
    for tag in GROUP_TAGS:
        try:
            classes = conjugacy_class_count(tag)
        except GroupError as exc:
            return "fail", str(exc)
        if classes != len(inventory(tag)):
            return "fail", f"{tag}: classes {classes} != inventory"
    return "pass", f"{len(GROUP_TAGS)} inventories match brute-force class counts"


def run_all(t: CartanType, store: TableStore = DEFAULT_STORE) -> VerificationReport:
    """Run the full check suite for one type."""
    report = VerificationReport(t.name)
    # The table is resolved once, first; a table that does not place
    # fails the placement check and leaves nothing for the checks that
    # read it.
    try:
        pl, failed = placement(t, store), ()
    except NoTableAvailable:
        pl, skip, failed = None, "no strata table available", ()
    except PlacementMismatch as exc:
        pl, skip = None, "the table does not place"
        failed = (("triple-placement", "fail", str(exc)),)
    except TripleBudgetExceeded:
        pl, skip, failed = None, "over the triple budget", ()
    try:
        report.add("cuspidal-enumeration", *_check_enumeration(t, store.triples(t)))
    except TripleBudgetExceeded as exc:
        report.add("cuspidal-enumeration", "skipped", str(exc))
    for check in failed:
        report.add(*check)
    for cid, check in _TABLE_CHECKS[len(failed):]:
        report.add(cid, *(("skipped", skip) if pl is None else check(t, pl)))

    report.add("centralizer-profiles", *_check_centralizers(t))
    report.add("group-inventories", *_check_group_inventories())

    for entry in tabledata.errata_for(t.name):
        report.errata.append(f"{entry['id']}: {entry['detail']}")
    return report


def _first_table_difference(ours: dict, theirs: dict, source: str) -> str:
    """Human description of the first row/entry where two table
    documents, whose canonical texts differ, disagree; names the
    offending fiber entry when one moved.  source says where ours comes
    from ('embedded', 'built in')."""
    rows_a, rows_b = ours["rows"], theirs["rows"]
    if len(rows_a) != len(rows_b):
        return f"{len(rows_b)} rows submitted, {len(rows_a)} {source}"
    for ra, rb in zip(rows_a, rows_b):
        if ra == rb:
            continue
        if ra["stratum"] != rb["stratum"]:
            return f"row head {rb['stratum']!r} where {ra['stratum']!r} expected"
        fa = [tuple(sorted(en.items())) for en in ra["fiber"]]
        fb = [tuple(sorted(en.items())) for en in rb["fiber"]]
        moved = [dict(en) for en in fb if fb.count(en) > fa.count(en)]
        missing = [dict(en) for en in fa if fa.count(en) > fb.count(en)]
        culprit = (moved or missing)[0] if (moved or missing) else None
        if culprit is not None:
            what = "carries" if moved else "lacks"
            return (
                f"row {ra['stratum']!r} {what} "
                f"({culprit['levi']},{culprit['character']},{culprit['d']})"
            )
        return f"row {ra['stratum']!r} differs in its annotations"
    # Equal rows whose texts differ print the same keys in another order.
    # Only the rows can differ: the caller checked the schema and built
    # the type of both documents from the same parsed type.
    ra = next(ra for ra, rb in zip(rows_a, rows_b) if canonical_json(ra) != canonical_json(rb))
    return f"row {ra['stratum']!r} differs only in the order of its keys"


def register_external_table(doc: dict, store: TableStore = DEFAULT_STORE) -> str:
    """Validate a strata-table/1 document.  A type whose table is built
    in (embedded, or the identity table of series A and the torus) has
    the submission compared byte for byte with that table; any other
    type has it placed and installed.

    Raises TableFormatError (schema problems, or a built-in table that
    differs) or PlacementMismatch (placement problems, its message
    naming the first offending entry or triple).
    """
    t, structured = read_table_document(doc)
    if source := built_in_source(t):
        # Its labels are checked against the enumeration of the store's table.
        assemble_rows(t, structured, store[t.name].triples)
        ours = table_document(t, store)
        theirs = {"schema": doc["schema"], "type": t.name, "rows": doc["rows"]}
        if canonical_json(ours) != canonical_json(theirs):
            raise TableFormatError(
                f"{t.name} is {source} and the submitted table differs: "
                + _first_table_difference(ours, theirs, source)
            )
        if source == "embedded":
            return f"{t.name}: matches the embedded table"
        return f"{t.name}: accepted (the identity parametrization is built in)"
    # placement must hold before the table becomes visible
    triples = store.triples(t)
    placed = resolve_placement(t, assemble_rows(t, structured, triples), triples)
    missing, _ = registry_gaps(placed)
    if missing:
        raise PlacementMismatch(
            f"table for {t.name} does not exhaust the registry; missing {missing}"
        )
    store.install(placed)
    return f"{t.name}: registered ({len(placed.rows)} rows, {len(placed.triples)} triples placed)"
