"""Canonical JSON documents: the strata-table/1 schema shared by the
embedded tables and classical plug-ins, plus exports for triples,
strata, and verification reports, and the one document of each CLI
command (the CLI prints it with --json and renders its text from it).

Exports are byte-stable: fixed key order, two-space indent, LF line
endings, trailing newline.  import(export(x)) reproduces x exactly.
"""

from __future__ import annotations

import json

from .cartan import CartanType, parse_type, CartanError, ascii_decimal, datum, pseudo_levi_types
from .cuspidal import CentralizerProfile, SheafTriple, cuspidal_counts, cuspidal_levis
from .cuspidal import levi_counts, support_case
from .groups import GroupError, normalize_tag
from .strata import c_collection, fiber, find_triple, regular_fiber_labels, strata, tau
from .tables import (
    DEFAULT_STORE,
    Annotation,
    StrataRow,
    TableFormatError,
    TableStore,
    assemble_rows,
)

TABLE_SCHEMA = "strata-table/1"
TRIPLES_SCHEMA = "cs-triples/1"
STRATA_SCHEMA = "strata-list/1"
REPORT_SCHEMA = "verification-report/1"


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def table_document(t: CartanType, store: TableStore = DEFAULT_STORE) -> dict:
    rows_out = []
    for row in store[t.name].rows:
        a = row.annotation
        fiber = []
        for en in row.fiber:
            item: dict = {
                "levi": en.levi_name,
                "character": en.character.text,
                "d": en.d_printed,
                "mult": en.mult,
            }
            if en.disamb is not None:
                item["disamb"] = en.disamb
            fiber.append(item)
        groups = {str(r): g for r, g in a.groups}
        boxed = sorted((str(b) for b in a.boxed), key=lambda s: (s != "single", s))
        rows_out.append(
            {
                "stratum": row.stratum.text,
                "fiber": fiber,
                "groups": groups,
                "boxed": boxed,
                "membership": _membership(a.r0),
            }
        )
    return {"schema": TABLE_SCHEMA, "type": t.name, "rows": rows_out}


_ROW_KEYS = frozenset({"stratum", "fiber", "groups", "boxed", "membership"})
_ENTRY_KEYS = frozenset({"levi", "character", "d", "mult", "disamb"})
_GROUP_KEYS = {"0": 0, "2": 2, "3": 3, "5": 5}
_BOXED_FLAGS = {"single": "single", "2": 2, "3": 3, "5": 5}


def parse_table_document(doc: dict) -> tuple[CartanType, tuple[StrataRow, ...]]:
    """Validate a strata-table/1 document and build typed rows, labelled
    from DEFAULT_STORE.triples of its type (TableFormatError)."""
    t, structured = read_table_document(doc)
    return t, assemble_rows(t, structured, DEFAULT_STORE.triples(t))


def read_table_document(doc: dict) -> tuple[CartanType, list]:
    """The type and the structured rows of a strata-table/1 document,
    for assemble_rows, which checks the labels.

    Raises TableFormatError on any schema violation; annotation
    problems carry the offending text.  Each check raises inside its
    own branch, so no message is formatted unless it fails.
    """
    if not isinstance(doc, dict):
        raise TableFormatError("document must be a JSON object")
    if doc.get("schema") != TABLE_SCHEMA:
        raise TableFormatError(f"schema must be {TABLE_SCHEMA!r}")
    try:
        t = parse_type(str(doc.get("type", "")))
    except CartanError as exc:
        raise TableFormatError(f"bad type field: {exc}") from exc
    rows_raw = doc.get("rows")
    if not (isinstance(rows_raw, list) and rows_raw):
        raise TableFormatError("rows must be a nonempty list")
    structured = []
    # Raw annotation -> its Annotation, for each distinct annotation
    # that passed its checks: a table repeats a few, and their rows
    # share it.
    annotations: dict = {}
    for i, row in enumerate(rows_raw):
        if not isinstance(row, dict):
            raise TableFormatError(f"row {i} must be an object")
        if not _ROW_KEYS.issuperset(row):
            raise TableFormatError(f"row {i} has unknown keys {sorted(set(row) - _ROW_KEYS)}")
        head = row.get("stratum")
        if not isinstance(head, str):
            raise TableFormatError(f"row {i}: stratum must be a string")
        fiber = row.get("fiber")
        if not (isinstance(fiber, list) and fiber):
            raise TableFormatError(f"row {i}: fiber must be nonempty")
        entries = []
        for j, en in enumerate(fiber):
            if not isinstance(en, dict):
                raise TableFormatError(f"row {i} entry {j} must be an object")
            if not _ENTRY_KEYS.issuperset(en):
                extra = sorted(set(en) - _ENTRY_KEYS)
                raise TableFormatError(f"row {i} entry {j} has unknown keys {extra}")
            levi = en.get("levi")
            char = en.get("character")
            d = en.get("d")
            mult = en.get("mult")
            disamb = en.get("disamb")
            if not isinstance(levi, str):
                raise TableFormatError(f"row {i} entry {j}: levi must be a string")
            if not isinstance(char, str):
                raise TableFormatError(f"row {i} entry {j}: character must be a string")
            # type() rather than isinstance(): JSON true and false are bools,
            # which isinstance() would pass as the integers 1 and 0.
            if not (type(d) is int and d >= 0):
                raise TableFormatError(f"row {i} entry {j}: d must be >= 0")
            if not (type(mult) is int and mult >= 1):
                raise TableFormatError(f"row {i} entry {j}: mult must be >= 1")
            if not (disamb is None or (isinstance(disamb, str) and disamb)):
                raise TableFormatError(f"row {i} entry {j}: disamb must be a nonempty string")
            entries.append((levi, char, d, mult, disamb))
        if entries[0] != ("-", head, 0, 1, None):
            raise TableFormatError(
                f"row {i}: first fiber entry must be ('-', {head!r}, d=0, mult=1)"
            )
        groups_raw = row.get("groups")
        boxed_raw = row.get("boxed")
        mem_raw = row.get("membership", "")
        # An accepted annotation holds only strings, in a dict and a
        # list, so a value of another JSON type (1, true, 1.0) never
        # matches its key; an unhashable key holds a list or an object
        # where a string belongs, which the checks reject.
        key = None
        if isinstance(groups_raw, dict) and isinstance(boxed_raw, list):
            key = (tuple(groups_raw.items()), tuple(boxed_raw), mem_raw)
        try:
            annotation = annotations[key]
        except (KeyError, TypeError):
            groups, boxed = _annotation_fields(i, groups_raw, boxed_raw)
            try:
                annotation = Annotation(groups, boxed)
                _check_membership(mem_raw, annotation.r0)
            except (TableFormatError, GroupError) as exc:
                raise TableFormatError(f"{exc} in row {head!r} of {t.name}") from None
            if key is not None:
                annotations[key] = annotation
        structured.append((head, entries[1:], annotation))
    return t, structured


def _annotation_fields(i: int, groups_raw, boxed_raw) -> tuple[tuple, frozenset]:
    """Row i's groups, as sorted (characteristic, tag) pairs, and boxed
    flags, or TableFormatError if either breaks the JSON shape;
    Annotation checks the datum's rules."""
    if not isinstance(groups_raw, dict):
        raise TableFormatError(f"row {i}: groups must be an object")
    groups: dict[int, str] = {}
    for key, val in groups_raw.items():
        slot = _GROUP_KEYS.get(key)
        if slot is None:
            raise TableFormatError(f"row {i}: bad groups key {key!r}")
        if not isinstance(val, str):
            raise TableFormatError(f"row {i}: group at {key!r} must be a string")
        try:
            groups[slot] = normalize_tag(val)
        except GroupError as exc:
            raise TableFormatError(f"row {i}: {exc}") from exc
    if not isinstance(boxed_raw, list):
        raise TableFormatError(f"row {i}: boxed must be a list")
    boxed: set = set()
    for b in boxed_raw:
        flag = _BOXED_FLAGS.get(b) if isinstance(b, str) else None
        if flag is None:
            raise TableFormatError(f"row {i}: bad boxed flag {b!r}")
        boxed.add(flag)
    return tuple(sorted(groups.items())), frozenset(boxed)


def _membership(r0: int | None) -> str:
    """The membership text of a row with this r0 (None for a full row)."""
    return "full" if r0 is None else f"singleton:{r0}"


def _check_membership(text, r0: int | None) -> None:
    """Refuse a membership other than "full" or "singleton:<ASCII
    decimal>", or one that states another r0 than the groups give."""
    singleton = isinstance(text, str) and text.startswith("singleton:")
    stated = ascii_decimal(text[len("singleton:"):]) if singleton else None
    if stated is None and text != "full":
        raise TableFormatError(f"bad membership {text!r}")
    if stated != r0:
        raise TableFormatError(f"the groups give membership {_membership(r0)!r}, not {text!r}")


def _d_value(d: int | None):
    """A d as the documents hold it: "opaque" for the classical key None."""
    return "opaque" if d is None else d


def _triple_record(tr: SheafTriple) -> dict:
    """A triple's record in the triples and fiber documents."""
    return {
        "levi": tr.levi.levi_name,
        "character": tr.character.text,
        "d": _d_value(tr.d),
        "index": tr.index,
    }


def triples_document(t: CartanType, store: TableStore = DEFAULT_STORE) -> dict:
    return {
        "schema": TRIPLES_SCHEMA,
        "type": t.name,
        "triples": [_triple_record(tr) for tr in store.triples(t)],
    }


def strata_document(t: CartanType, store: TableStore = DEFAULT_STORE) -> dict:
    return {
        "schema": STRATA_SCHEMA,
        "type": t.name,
        "strata": [lab.text for lab in strata(t, store)],
    }


def report_document(report) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "type": report.type_name,
        "checks": [
            {"id": cid, "status": status, "detail": detail}
            for cid, status, detail in report.checks
        ],
        "errata": list(report.errata),
    }


def verify_document(reports: list) -> dict:
    return {"reports": [report_document(r) for r in reports]}


def register_document(message: str) -> dict:
    """register's answer: the line naming the type and how its table was taken."""
    return {"message": message}


def info_document(t: CartanType) -> dict:
    """The static data of t, its cuspidal Levis (relative type "1" for
    the trivial group) with the cuspidal objects on each, the support
    case of each d and the number of regular-stratum labels."""
    d = datum(t)
    cases = [(dd, support_case(t, dd)) for dd, _ in cuspidal_counts(t).counts]
    return {
        "type": t.name,
        "weyl_order": d.weyl_order,
        "degrees": list(d.degrees),
        "highest_root_coeffs": list(d.highest_root_coeffs),
        "bad_primes": sorted(d.bad_primes),
        "z_value": d.z_value,
        "cuspidal_levis": [
            {
                "levi": levi.levi_name,
                "relative": levi.relative_weyl_type.name if levi.relative_weyl_type else "1",
                "counts": [
                    {"d": _d_value(dd), "count": n} for dd, n in levi_counts(levi).counts
                ],
            }
            for levi in cuspidal_levis(t)
        ],
        "support_cases": [
            {"d": _d_value(dd), "case": case.tag, "r0": case.r0} for dd, case in cases
        ],
        "regular_stratum_labels": len(regular_fiber_labels(t)),
    }


def fiber_document(t: CartanType, stratum: str, store: TableStore = DEFAULT_STORE,
                   expand: bool = False) -> dict:
    return {
        "type": t.name,
        "stratum": stratum,
        "fiber": [
            {**_triple_record(tr), "mult": m}
            for tr, m in fiber(t, stratum, store, expand=expand)
        ],
    }


def tau_document(t: CartanType, levi: str, character: str, d: int | None, index: int,
                 store: TableStore = DEFAULT_STORE) -> dict:
    triple = find_triple(t, levi, character, d, index, store)
    return {"type": t.name, "triple": triple.describe(), "stratum": tau(t, triple, store).text}


def cstar_document(t: CartanType, stratum: str, store: TableStore = DEFAULT_STORE) -> dict:
    coll = c_collection(t, stratum, store)
    return {
        "type": t.name,
        "stratum": stratum,
        "collection": list(coll.tags),
        "elements": [
            {"group": e.group, "irrep": e.irrep, "origin": e.origin} for e in coll.labels
        ],
    }


def centralizers_document(t: CartanType, profiles: list[CentralizerProfile]) -> dict:
    """The profiles of t in the given order, each with its note when it
    carries one."""
    return {
        "type": t.name,
        "profiles": [
            {
                "d": _d_value(p.d),
                "class": p.characteristic_class,
                "entries": [
                    {"subsystem": "full" if s is None else s.name, "count": c}
                    for s, c in p.entries
                ],
                **({"note": p.note} if p.note else {}),
            }
            for p in profiles
        ],
    }


def pseudo_levi_document(t: CartanType) -> dict:
    """The pseudo-Levi subsystems of t, largest rank first, then by name."""
    subs = sorted(pseudo_levi_types(t), key=lambda s: (-s.rank, s.name))
    return {"type": t.name, "subsystems": [s.name for s in subs]}
