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

from .cartan import CartanError, CharstrataError, ascii_decimal, parse_type
from .schema import (
    canonical_json, centralizers_document, cstar_document, fiber_document, info_document,
    pseudo_levi_document, register_document, report_document, strata_document, table_document,
    tau_document, triples_document, verify_document,
)
from .cuspidal import centralizer_profile, centralizer_profiles
from .tables import TableFormatError, TableStore
from .verify import check_line, register_external_table, run_all

TABLES_ENV = "CHARSTRATA_TABLES"

VERIFY_ALL_TYPES = (
    "Torus", "A1", "A2", "A3", "A4", "B2", "B3", "B6", "C2", "C3", "C6",
    "D4", "D5", "G2", "F4", "E6", "E7", "E8",
)


def _decimal(text: str) -> int:
    """The argparse type of --d and --index: ASCII decimal digits only,
    as in type ranks."""
    n = ascii_decimal(text)
    if n is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not an ASCII decimal")
    return n


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
    tmap.add_argument("--d", type=_decimal, default=None)
    tmap.add_argument("--index", type=_decimal, default=0)

    cs = sub.add_parser("cstar", help="representation inventory attached to a stratum")
    cs.add_argument("type")
    cs.add_argument("--stratum", required=True)

    sub.add_parser("triples", help="enumerate the parametrizing set").add_argument("type")

    cz = sub.add_parser("centralizers", help="centralizer profiles")
    cz.add_argument("type")
    cz.add_argument("--d", type=_decimal, default=None)
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
        except CharstrataError as exc:
            raise TableFormatError(f"{path}: {exc}") from None


def _char_class(text: str) -> str:
    """The profile class that a --char-class value selects ('generic'
    for generic and 0, else the prime itself); CartanError when the
    value is none of these.  Primes are written in decimal without
    leading zeros; ascii_decimal's 12-digit cap bounds the trial
    division."""
    if text in ("generic", "0"):
        return "generic"
    n = ascii_decimal(text)
    if n is not None and n > 1 and str(n) == text:
        if all(n % q for q in range(2, isqrt(n) + 1)):
            return text
    raise CartanError(f"bad --char-class {text!r}; expected generic, 0 or a prime")


# Text renderers: each command's lines, read from its document alone.


def _d_text(d):
    """A document's d as the text prints it, "*" for "opaque"."""
    return "*" if d == "opaque" else d


def _triple_text(record: dict, torus: bool) -> str:
    """SheafTriple.describe of the triple a triples or fiber record holds."""
    if record["levi"] == "-" and not torus:
        return record["character"]
    return f"({record['levi']},{record['character']},{_d_text(record['d'])})[{record['index']}]"


def _info_text(doc: dict):
    yield f"type: {doc['type']}"
    yield f"weyl order: {doc['weyl_order']}"
    yield f"degrees: {doc['degrees']}"
    yield f"highest root coefficients: {doc['highest_root_coeffs']}"
    yield f"bad primes: {doc['bad_primes']}"
    yield f"z value: {doc['z_value']}"
    yield "cuspidal levis:"
    for levi in doc["cuspidal_levis"]:
        head = f"  {levi['levi']:>4}  relative {levi['relative']}"
        shown = {_d_text(c["d"]): c["count"] for c in levi["counts"]}
        yield head if levi["levi"] == "-" and doc["type"] != "Torus" else f"{head}  counts {shown}"
    if doc["support_cases"]:
        yield "support cases:"
    for case in doc["support_cases"]:
        r0 = f" (r0={case['r0']})" if case["r0"] else ""
        yield f"  d={_d_text(case['d'])}: {case['case']}{r0}"
    yield f"regular-stratum labels: {doc['regular_stratum_labels']}"


def _fiber_text(doc: dict):
    torus = doc["type"] == "Torus"
    for record in doc["fiber"]:
        m = record["mult"]
        yield _triple_text(record, torus) + (f"  x{m}" if m != 1 else "")


def _cstar_text(doc: dict):
    tags = doc["collection"]
    yield f"c(E) = {tags[0] if len(tags) == 1 else '(' + ','.join(tags) + ')'}"
    for e in doc["elements"]:
        yield f"  {e['group']:>6}  {e['irrep']:<8} ({e['origin']})"


def _centralizers_text(doc: dict):
    for p in doc["profiles"]:
        entries = ", ".join(f"{e['subsystem']} x{e['count']}" for e in p["entries"])
        yield f"d={_d_text(p['d'])} r={p['class']}: {entries}"
        if "note" in p:
            yield f"    note: {p['note']}"


def _verify_text(doc: dict):
    for report in doc["reports"]:
        yield f"== {report['type']}"
        for c in report["checks"]:
            yield "  " + check_line(c["id"], c["status"], c["detail"])
        for err in report["errata"]:
            yield f"  erratum: {err}"


_TEXT = {
    "info": _info_text,
    "strata": lambda doc: doc["strata"],
    "fiber": _fiber_text,
    "tau": lambda doc: [doc["stratum"]],
    "cstar": _cstar_text,
    "triples": lambda doc: (_triple_text(r, doc["type"] == "Torus") for r in doc["triples"]),
    "centralizers": _centralizers_text,
    "pseudo-levi": lambda doc: doc["subsystems"],
    "verify": _verify_text,
    "register": lambda doc: [doc["message"]],
}


def _centralizers(t, a, store) -> dict:
    """The profiles of t that --d and --char-class select; CartanError if none."""
    wanted = None if a.char_class is None else _char_class(a.char_class)
    profiles = [p for p in centralizer_profiles(t) if a.d is None or p.d == a.d]
    if not profiles:
        at = "" if a.d is None else f" with d={a.d}"
        raise CartanError(f"no cuspidal centralizer data for {t.name}{at}")
    if wanted is not None:
        ds = dict.fromkeys(p.d for p in profiles)
        profiles = [centralizer_profile(t, d, wanted) for d in ds]
    return centralizers_document(t, profiles)


# The document of each command that names a type, from the type, the
# parsed arguments and the store; export --what names one of them too.
_DOCUMENT = {
    "info": lambda t, a, store: info_document(t),
    "strata": lambda t, a, store: strata_document(t, store),
    "fiber": lambda t, a, store: fiber_document(t, a.stratum, store, expand=a.expand),
    "tau": lambda t, a, store: tau_document(t, a.levi, a.char, a.d, a.index, store),
    "cstar": lambda t, a, store: cstar_document(t, a.stratum, store),
    "triples": lambda t, a, store: triples_document(t, store),
    "centralizers": _centralizers,
    "pseudo-levi": lambda t, a, store: pseudo_levi_document(t),
    "table": lambda t, a, store: table_document(t, store),
    "report": lambda t, a, store: report_document(run_all(t, store)),
}


def _cmd(args, store: TableStore) -> int:
    """Build the command's document and write it: canonical JSON for
    --json and export (to --out when given), else its text."""
    code = 0
    if args.command == "verify":
        names = VERIFY_ALL_TYPES if args.type.lower() == "all" else (args.type,)
        reports = [run_all(parse_type(name), store) for name in names]
        if args.timings:
            for report in reports:
                for cid, seconds in report.seconds.items():
                    sys.stderr.write(f"timing {report.type_name} {cid}: {1e3 * seconds:.3f} ms\n")
        doc = verify_document(reports)
        code = 1 if any(report.failed for report in reports) else 0
    elif args.command == "register":
        doc = register_document(register_external_table(_read_document(Path(args.path)), store))
    else:
        what = args.what if args.command == "export" else args.command
        doc = _DOCUMENT[what](parse_type(args.type), args, store)
    if args.json or args.command == "export":
        out = canonical_json(doc)
    else:
        out = "".join(f"{line}\n" for line in _TEXT[args.command](doc))
    if args.command == "export" and args.out:
        Path(args.out).write_text(out)
    else:
        sys.stdout.write(out)
    return code


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
    except (CharstrataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
