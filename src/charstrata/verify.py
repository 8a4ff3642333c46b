"""The verification suite: per-type invariant checks, report assembly,
and registration of external strata tables for classical types.

Table-dependent checks report 'skipped' (never 'pass') for types
without an available table.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from . import tabledata
from .cartan import CartanType, ValueObject, datum, is_pseudo_levi
from .cuspidal import cuspidal_counts, cuspidal_levis, enumerate_cs_prime, levi_counts
from .groups import GROUP_TAGS, conjugacy_class_count, inventory
from .labels import enumerate_irr, relative_character_labels
from .schema import canonical_json, parse_table_document, table_document
from .strata import bijection_witness, regular_fiber_labels, unit_stratum_fiber_size
from .tables import (
    DEFAULT_STORE,
    PlacementMismatch,
    StrataRow,
    TableFormatError,
    TableStore,
    centralizer_profiles,
    is_identity,
    placement,
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
    unhashable."""

    __slots__ = _fields = ("type_name", "checks", "errata")
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

    def add(self, check_id: str, status: str, detail: str) -> None:
        self.checks.append((check_id, status, detail))

    @property
    def failed(self) -> bool:
        return any(status == "fail" for _, status, _ in self.checks)

    def lines(self) -> list[str]:
        return [f"{cid}: {status}" + (f"  [{detail}]" if detail else "")
                for cid, status, detail in self.checks]


def _check_enumeration(t: CartanType) -> tuple[str, str]:
    triples = enumerate_cs_prime(t)
    expected = sum(
        len(relative_character_labels(t, levi.relative_weyl_type)) * levi_counts(levi).total
        for levi in cuspidal_levis(t)
    )
    if len(triples) != expected:
        return "fail", f"enumerated {len(triples)}, product formula gives {expected}"
    return "pass", f"{len(triples)} triples"


def _check_placement(t: CartanType, store: TableStore) -> tuple[str, str]:
    try:
        pl = placement(t, store)
    except PlacementMismatch as exc:
        return "fail", str(exc)
    n = len(enumerate_cs_prime(t))
    note = f"; {len(pl.notes)} duplicated label(s) resolved" if pl.notes else ""
    return "pass", f"{pl.total} = {n} triples placed{note}"


def _check_retraction(t: CartanType, store: TableStore) -> tuple[str, str]:
    # Row construction rejects duplicate heads and puts each head first
    # in its own fiber, so the count is the whole report.
    return "pass", f"{len(store.table(t))} distinct heads, each heading its own fiber"


def _registry_gaps(t: CartanType, rows: tuple[StrataRow, ...]) -> tuple[list[str], list[str]]:
    """The registry labels that no empty-Levi fiber entry names, and
    those named more than once, both sorted; two empty lists when the
    empty-Levi entries list Irr(t) exactly once.  Row construction
    parses every empty-Levi entry against the registry, so no other
    label can occur."""
    seen = Counter(en.character.text for r in rows for en in r.fiber if en.levi is None)
    missing = sorted(set(enumerate_irr(t).texts) - set(seen))
    return missing, sorted(txt for txt, n in seen.items() if n > 1)


def _check_empty_completeness(t: CartanType, store: TableStore) -> tuple[str, str]:
    missing, duplicated = _registry_gaps(t, store.table(t))
    if missing or duplicated:
        return "fail", f"missing {missing}, duplicated {duplicated}"
    return "pass", f"{len(enumerate_irr(t))} empty-Levi labels exhaust the registry"


def _check_boxed(t: CartanType, store: TableStore) -> tuple[str, str]:
    bad = datum(t).bad_primes
    for r in store.table(t):
        if r.membership.kind == "singleton":
            if r.boxed != frozenset({r.membership.r0}):
                return "fail", f"singleton row {r.stratum.text!r} boxes {sorted(map(str, r.boxed))}"
            continue
        g0 = r.group_of[0]
        deviation = frozenset(p for p in (2, 3, 5) if r.group_at(p) != g0)
        expected = deviation if deviation else frozenset({"single"})
        if r.boxed != expected:
            return (
                "fail",
                f"row {r.stratum.text!r}: deviation {sorted(map(str, deviation))} vs "
                f"boxed {sorted(map(str, r.boxed))}",
            )
        if not deviation <= bad:
            return "fail", f"row {r.stratum.text!r} deviates outside bad primes"
    return "pass", "boxed flags match recomputed deviation sets"


def _check_row_balance(t: CartanType, store: TableStore) -> tuple[str, str]:
    witness = bijection_witness(t, store)
    bad = [(h, f, c) for h, f, c in witness if f != c]
    if bad:
        h, f, c = bad[0]
        return "fail", f"row {h!r}: fiber {f} != inventory {c}"
    total = sum(f for _, f, _ in witness)
    return "pass", f"{len(witness)} rows balanced; totals {total} = {total}"


def _check_phi(t: CartanType, store: TableStore) -> tuple[str, str]:
    expected = len(regular_fiber_labels(t))
    try:
        got = unit_stratum_fiber_size(t, store)
    except LookupError as exc:
        return "fail", f"unit stratum not found: {exc}"
    if got != expected:
        return "fail", f"unit stratum fiber {got}, phi-sum {expected}"
    return "pass", f"unit stratum fiber {got} = phi-sum {expected}"


def _check_centralizers(t: CartanType) -> tuple[str, str]:
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
    return "pass", f"{len(profiles)} profiles verified"


@lru_cache(maxsize=None)
def _check_group_inventories() -> tuple[str, str]:
    """The same for every type, so it runs once per process."""
    for tag in GROUP_TAGS:
        if conjugacy_class_count(tag) != len(inventory(tag)):
            return "fail", f"{tag}: classes {conjugacy_class_count(tag)} != inventory"
    return "pass", f"{len(GROUP_TAGS)} inventories match brute-force class counts"


def _identity_details(t: CartanType) -> dict[str, str]:
    """The fixed pass details of the checks that hold by construction of
    the built-in identity table: one constant row per character, each
    fibered by itself."""
    n = len(enumerate_irr(t))
    return {
        "triple-placement": "identity parametrization, no table involved",
        "retraction": "every stratum is its own fiber head",
        "empty-completeness": "registry equals the strata by construction",
        "boxed-recomputation": "no annotations in this type",
        "row-balance": "1 = 1" if n == 1 else f"all {n} strata have fiber 1 = inventory 1",
    }


def run_all(t: CartanType, store: TableStore = DEFAULT_STORE) -> VerificationReport:
    """Run the full check suite for one type."""
    report = VerificationReport(t.name)
    status, detail = _check_enumeration(t)
    report.add("cuspidal-enumeration", status, detail)

    fixed = _identity_details(t) if is_identity(t) else {}
    table_backed = bool(fixed) or store.has_table(t)
    table_checks = (
        ("triple-placement", _check_placement),
        ("retraction", _check_retraction),
        ("empty-completeness", _check_empty_completeness),
        ("boxed-recomputation", _check_boxed),
        ("row-balance", _check_row_balance),
        ("regular-fiber-phi", _check_phi),
    )
    for cid, fn in table_checks:
        if cid in fixed:
            report.add(cid, "pass", fixed[cid])
        elif table_backed:
            report.add(cid, *fn(t, store))
        else:
            report.add(cid, "skipped", "no strata table available")

    status, detail = _check_centralizers(t)
    report.add("centralizer-profiles", status, detail)
    status, detail = _check_group_inventories()
    report.add("group-inventories", status, detail)

    for entry in tabledata.errata_for(t.name):
        report.errata.append(f"{entry['id']}: {entry['detail']}")
    return report


def _first_table_difference(ours: dict, theirs: dict) -> str:
    """Human description of the first row/entry where two table
    documents disagree; names the offending fiber entry when one moved."""
    rows_a, rows_b = ours["rows"], theirs["rows"]
    if len(rows_a) != len(rows_b):
        return f"{len(rows_b)} rows submitted, {len(rows_a)} embedded"
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
    return "tables differ"


def register_external_table(doc: dict, store: TableStore = DEFAULT_STORE) -> str:
    """Validate a strata-table/1 document; install it for classical
    types, or check it byte-for-byte against an embedded table.

    Raises TableFormatError (schema problems) or PlacementMismatch
    (placement problems, naming the first offending triple).
    """
    t, rows = parse_table_document(doc)
    if t.name in tabledata.TABLES:
        ours = table_document(t, store)
        theirs = {"schema": doc["schema"], "type": t.name, "rows": doc["rows"]}
        if canonical_json(ours) != canonical_json(theirs):
            raise TableFormatError(
                f"{t.name} is embedded and the submitted table differs: "
                + _first_table_difference(ours, theirs)
            )
        return f"{t.name}: matches the embedded table"
    if t.is_torus:
        raise TableFormatError("the torus needs no table")
    # placement must hold before the table becomes visible
    placed = resolve_placement(t, rows)
    missing, duplicated = _registry_gaps(t, rows)
    if missing or duplicated:
        raise PlacementMismatch(
            f"table for {t.name} does not exhaust the registry; missing {missing}",
            offending=missing[0] if missing else None,
        )
    if is_identity(t):
        return f"{t.name}: accepted (the identity parametrization is built in)"
    store.install(placed)
    return f"{t.name}: registered ({len(rows)} rows, {placed.total} triples placed)"
