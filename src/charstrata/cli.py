"""Command-line surface.

Exit codes: 0 success / all checks pass, 1 verification failures,
2 usage or data errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import isqrt
from pathlib import Path

from .cartan import CartanError, CartanType, ascii_decimal, parse_type
from .cuspidal import CuspidalError, cuspidal_counts, cuspidal_levis, levi_counts, support_case
from .labels import LabelError
from .schema import (
    canonical_json,
    centralizers_document,
    cstar_document,
    fiber_document,
    info_document,
    pseudo_levi_document,
    report_document,
    strata_document,
    table_document,
    tau_document,
    triples_document,
    verify_document,
)
from .strata import PlacementMismatch, TripleNotFound, regular_fiber_labels
from .tables import (
    NoTableAvailable,
    TableFormatError,
    TableStore,
    UnknownStratum,
    centralizer_profile,
    centralizer_profiles,
)
from .verify import register_external_table, run_all

TABLES_ENV = "CHARSTRATA_TABLES"

VERIFY_ALL_TYPES = (
    "Torus", "A1", "A2", "A3", "A4", "B2", "B3", "B6", "C2", "C3", "C6",
    "D4", "D5", "G2", "F4", "E6", "E7", "E8",
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="charstrata",
        description="Cuspidal-support triples, strata tables, and their verification.",
    )
    p.add_argument("--json", action="store_true", help="emit canonical JSON")
    p.add_argument(
        "--tables",
        metavar="DIR",
        default=None,
        help=f"directory of strata-table/1 JSON files to register (or ${TABLES_ENV})",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="static data for a type").add_argument("type")
    sub.add_parser("strata", help="list the strata").add_argument("type")

    f = sub.add_parser("fiber", help="fiber over one stratum")
    f.add_argument("type")
    f.add_argument("--stratum", required=True)
    f.add_argument("--expand", action="store_true", help="one line per cuspidal index")

    tmap = sub.add_parser("tau", help="stratum of one cuspidal-support triple")
    tmap.add_argument("type")
    tmap.add_argument("--levi", default="-", help="Levi Weyl type, '-' for the empty subset")
    tmap.add_argument("--char", required=True, help="character of the relative group")
    tmap.add_argument("--d", type=int, default=None)
    tmap.add_argument("--index", type=int, default=0)

    cs = sub.add_parser("cstar", help="representation inventory attached to a stratum")
    cs.add_argument("type")
    cs.add_argument("--stratum", required=True)

    sub.add_parser("triples", help="enumerate the parametrizing set").add_argument("type")

    cz = sub.add_parser("centralizers", help="centralizer profiles")
    cz.add_argument("type")
    cz.add_argument("--d", type=int, default=None)
    cz.add_argument("--char-class", default=None, help="generic, 0, or a prime")

    sub.add_parser("pseudo-levi", help="subsystem closure of a type").add_argument("type")

    v = sub.add_parser("verify", help="run the check suite")
    v.add_argument("type", help="a type name, or 'all'")
    v.add_argument("--timings", action="store_true",
                   help="write each check's wall time to stderr")

    ex = sub.add_parser("export", help="canonical JSON documents")
    ex.add_argument("type")
    ex.add_argument("--what", required=True, choices=["table", "triples", "strata", "report"])
    ex.add_argument("--out", default=None, metavar="PATH")

    reg = sub.add_parser("register", help="validate and register an external table")
    reg.add_argument("--in", dest="path", required=True, metavar="PATH")
    return p


def _read_document(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TableFormatError(f"{path} is not UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except ValueError as exc:  # invalid JSON, or an integer too long to convert
        raise TableFormatError(f"{path}: {exc}") from None
    except RecursionError:
        raise TableFormatError(f"{path}: JSON nested too deeply") from None


def _load_tables(store: TableStore, directory: str, source: str) -> None:
    root = Path(directory)
    if not root.is_dir():
        if root.exists():
            raise NotADirectoryError(f"{source} {directory} is not a directory")
        raise FileNotFoundError(f"{source} {directory} does not exist")
    for path in sorted(root.glob("*.json")):
        doc = _read_document(path)
        try:
            register_external_table(doc, store)
        except (TableFormatError, PlacementMismatch, CartanError) as exc:
            raise TableFormatError(f"{path}: {exc}") from None


def _char_class(text: str) -> str:
    """The profile class that a --char-class value selects ('generic'
    for generic and 0, else the prime itself); CartanError when the
    value is none of these.  Primes are written in decimal without
    leading zeros and, to bound the trial division, below 10^12."""
    if text in ("generic", "0"):
        return "generic"
    n = ascii_decimal(text)
    if n is not None and 1 < n < 10**12 and str(n) == text:
        if all(n % q for q in range(2, isqrt(n) + 1)):
            return text
    raise CartanError(f"bad --char-class {text!r}; expected generic, 0 or a prime")


# Text renderers: each query command's lines, read from its document.
# info and centralizers also print facts the document does not hold,
# from the type and the profiles' notes given beside it.


def _triple_text(record: dict, torus: bool) -> str:
    """SheafTriple.describe of the triple a triples or fiber record holds."""
    if record["levi"] == "-" and not torus:
        return record["character"]
    d = "*" if record["d"] == "opaque" else record["d"]
    return f"({record['levi']},{record['character']},{d})[{record['index']}]"


def _info_text(doc: dict, t: CartanType):
    yield f"type: {doc['type']}"
    yield f"weyl order: {doc['weyl_order']}"
    yield f"degrees: {doc['degrees']}"
    yield f"highest root coefficients: {doc['highest_root_coeffs']}"
    yield f"bad primes: {doc['bad_primes']}"
    yield f"z value: {doc['z_value']}"
    yield "cuspidal levis:"
    for levi in cuspidal_levis(t):
        rel = levi.relative_weyl_type.name if levi.relative_weyl_type else "1"
        if levi.is_empty and not t.is_torus:
            yield f"  {levi.levi_name:>4}  relative {rel}"
            continue
        shown = {("*" if k is None else k): v for k, v in levi_counts(levi).counts}
        yield f"  {levi.levi_name:>4}  relative {rel}  counts {shown}"
    counts = cuspidal_counts(t)
    if counts.counts:
        yield "support cases:"
        for dd, _n in counts.counts:
            case = support_case(t, dd)
            extra = f" (r0={case.r0})" if case.r0 else ""
            yield f"  d={'*' if dd is None else dd}: {case.tag}{extra}"
    yield f"regular-stratum labels: {len(regular_fiber_labels(t))}"


def _fiber_text(doc: dict, _):
    torus = doc["type"] == "Torus"
    for record in doc["fiber"]:
        m = record["mult"]
        yield _triple_text(record, torus) + (f"  x{m}" if m != 1 else "")


def _cstar_text(doc: dict, _):
    tags = doc["collection"]
    yield f"c(E) = {tags[0] if len(tags) == 1 else '(' + ','.join(tags) + ')'}"
    for e in doc["elements"]:
        yield f"  {e['group']:>6}  {e['irrep']:<8} ({e['origin']})"


def _centralizers_text(doc: dict, notes: list):
    for p, note in zip(doc["profiles"], notes):
        dd = "*" if p["d"] == "opaque" else p["d"]
        entries = ", ".join(f"{e['subsystem']} x{e['count']}" for e in p["entries"])
        yield f"d={dd} r={p['class']}: {entries}"
        if note:
            yield f"    note: {note}"


_TEXT = {
    "info": _info_text,
    "strata": lambda doc, _: doc["strata"],
    "fiber": _fiber_text,
    "tau": lambda doc, _: [doc["stratum"]],
    "cstar": _cstar_text,
    "triples": lambda doc, _: (_triple_text(r, doc["type"] == "Torus") for r in doc["triples"]),
    "centralizers": _centralizers_text,
    "pseudo-levi": lambda doc, _: doc["subsystems"],
}


def _cmd(args, store: TableStore) -> int:
    if args.command == "verify":
        names = VERIFY_ALL_TYPES if args.type.lower() == "all" else (args.type,)
        failed = False
        reports = []
        for name in names:
            tt = parse_type(name)
            report = run_all(tt, store)
            failed = failed or report.failed
            if args.timings:
                for cid, seconds in report.seconds.items():
                    print(f"timing {tt.name} {cid}: {1e3 * seconds:.3f} ms", file=sys.stderr)
            if args.json:
                reports.append(report)
            else:
                print(f"== {tt.name}")
                for line in report.lines():
                    print(f"  {line}")
                for err in report.errata:
                    print(f"  erratum: {err}")
        if args.json:
            print(canonical_json(verify_document(reports)), end="")
        return 1 if failed else 0

    if args.command == "register":
        message = register_external_table(_read_document(Path(args.path)), store)
        print(message)
        return 0

    t = parse_type(args.type)
    if args.command == "export":
        if args.what == "table":
            doc = table_document(t, store)
        elif args.what == "triples":
            doc = triples_document(t)
        elif args.what == "strata":
            doc = strata_document(t, store)
        else:
            doc = report_document(run_all(t, store))
        text = canonical_json(doc)
        if args.out:
            Path(args.out).write_text(text)
        else:
            print(text, end="")
        return 0

    beside = None
    if args.command == "info":
        doc, beside = info_document(t), t
    elif args.command == "strata":
        doc = strata_document(t, store)
    elif args.command == "fiber":
        doc = fiber_document(t, args.stratum, store, expand=args.expand)
    elif args.command == "tau":
        doc = tau_document(t, args.levi, args.char, args.d, args.index, store)
    elif args.command == "cstar":
        doc = cstar_document(t, args.stratum, store)
    elif args.command == "triples":
        doc = triples_document(t)
    elif args.command == "centralizers":
        wanted = None if args.char_class is None else _char_class(args.char_class)
        profiles = [p for p in centralizer_profiles(t) if args.d is None or p.d == args.d]
        if not profiles:
            at = "" if args.d is None else f" with d={args.d}"
            raise CartanError(f"no cuspidal centralizer data for {t.name}{at}")
        if wanted is not None:
            ds = dict.fromkeys(p.d for p in profiles)
            profiles = [centralizer_profile(t, d, wanted) for d in ds]
        doc, beside = centralizers_document(t, profiles), [p.note for p in profiles]
    elif args.command == "pseudo-levi":
        doc = pseudo_levi_document(t)
    else:
        raise AssertionError(args.command)
    if args.json:
        print(canonical_json(doc), end="")
    else:
        for line in _TEXT[args.command](doc, beside):
            print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    store = TableStore()
    try:
        env_tables = os.environ.get(TABLES_ENV)
        if args.tables:
            _load_tables(store, args.tables, "--tables")
        elif env_tables:
            _load_tables(store, env_tables, f"${TABLES_ENV}")
        return _cmd(args, store)
    except (
        CartanError,
        CuspidalError,
        LabelError,
        NoTableAvailable,
        UnknownStratum,
        TripleNotFound,
        TableFormatError,
        PlacementMismatch,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
