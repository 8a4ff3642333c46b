"""Command-line surface.

Exit codes: 0 success / all checks pass, 1 verification failures,
2 usage or data errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from math import isqrt
from pathlib import Path

from .cartan import (
    CartanError,
    CartanType,
    datum,
    parse_type,
    pseudo_levi_types,
)
from .cuspidal import (
    CuspidalError,
    cuspidal_counts,
    cuspidal_levis,
    enumerate_cs_prime,
    levi_counts,
    support_case,
)
from .labels import LabelError
from .schema import (
    canonical_json,
    report_document,
    strata_document,
    table_document,
    triples_document,
)
from .strata import (
    PlacementMismatch,
    TripleNotFound,
    c_collection,
    c_star,
    fiber,
    find_triple,
    regular_fiber_labels,
    strata,
    tau,
)
from .tables import (
    NoTableAvailable,
    TableFormatError,
    TableStore,
    UnknownStratum,
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
    except json.JSONDecodeError as exc:
        raise TableFormatError(f"{path}: {exc}") from None


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


def _char_class(text: str) -> str | None:
    """The profile class that a --char-class value selects ('generic'
    for generic and 0, else the prime itself), or None when the value is
    none of these.  Primes are written in decimal without leading zeros
    and, to bound the trial division, below 10^12."""
    if text in ("generic", "0"):
        return "generic"
    if re.fullmatch("[1-9][0-9]{0,11}", text):
        n = int(text)
        if n > 1 and all(n % q for q in range(2, isqrt(n) + 1)):
            return text
    return None


def _print_info(t: CartanType) -> None:
    d = datum(t)
    print(f"type: {t.name}")
    print(f"weyl order: {d.weyl_order}")
    print(f"degrees: {list(d.degrees)}")
    print(f"highest root coefficients: {list(d.highest_root_coeffs)}")
    print(f"bad primes: {sorted(d.bad_primes)}")
    print(f"z value: {d.z_value}")
    print("cuspidal levis:")
    for levi in cuspidal_levis(t):
        rel = levi.relative_weyl_type.name if levi.relative_weyl_type else "1"
        if levi.is_empty and not t.is_torus:
            print(f"  {levi.levi_name:>4}  relative {rel}")
            continue
        shown = {("*" if k is None else k): v for k, v in levi_counts(levi).counts}
        print(f"  {levi.levi_name:>4}  relative {rel}  counts {shown}")
    counts = cuspidal_counts(t)
    if counts.counts:
        print("support cases:")
        for dd, _n in counts.counts:
            case = support_case(t, dd)
            extra = f" (r0={case.r0})" if case.r0 else ""
            print(f"  d={'*' if dd is None else dd}: {case.tag}{extra}")
    print(f"regular-stratum labels: {len(regular_fiber_labels(t))}")


def _cmd(args, store: TableStore) -> int:
    t = None
    if args.command not in ("register", "verify") and hasattr(args, "type"):
        t = parse_type(args.type)

    if args.command == "info":
        if args.json:
            d = datum(t)
            doc = {
                "type": t.name,
                "weyl_order": d.weyl_order,
                "degrees": list(d.degrees),
                "highest_root_coeffs": list(d.highest_root_coeffs),
                "bad_primes": sorted(d.bad_primes),
                "z_value": d.z_value,
            }
            print(canonical_json(doc), end="")
        else:
            _print_info(t)
        return 0

    if args.command == "strata":
        labs = strata(t, store)
        if args.json:
            print(canonical_json(strata_document(t, store)), end="")
        else:
            for lab in labs:
                print(lab.text)
        return 0

    if args.command == "fiber":
        pairs = fiber(t, args.stratum, store, expand=args.expand)
        if args.json:
            doc = {
                "type": t.name,
                "stratum": args.stratum,
                "fiber": [
                    {
                        "levi": tr.levi.levi_name,
                        "character": tr.character.text,
                        "d": tr.d if tr.d is not None else "opaque",
                        "index": tr.index,
                        "mult": m,
                    }
                    for tr, m in pairs
                ],
            }
            print(canonical_json(doc), end="")
        else:
            for tr, m in pairs:
                suffix = f"  x{m}" if m != 1 and not args.expand else ""
                print(f"{tr.describe()}{suffix}")
        return 0

    if args.command == "tau":
        triple = find_triple(t, args.levi, args.char, args.d, args.index)
        head = tau(t, triple, store)
        if args.json:
            print(canonical_json({"type": t.name, "triple": triple.describe(),
                                  "stratum": head.text}), end="")
        else:
            print(head.text)
        return 0

    if args.command == "cstar":
        coll = c_collection(t, args.stratum, store)
        elements = c_star(t, args.stratum, store)
        if args.json:
            doc = {
                "type": t.name,
                "stratum": args.stratum,
                "collection": list(coll.tags),
                "elements": [
                    {"group": e.group, "irrep": e.irrep, "origin": e.origin}
                    for e in elements
                ],
            }
            print(canonical_json(doc), end="")
        else:
            print(f"c(E) = {coll.text}")
            for e in elements:
                print(f"  {e.group:>6}  {e.irrep:<8} ({e.origin})")
        return 0

    if args.command == "triples":
        if args.json:
            print(canonical_json(triples_document(t)), end="")
        else:
            for tr in enumerate_cs_prime(t):
                print(tr.describe())
        return 0

    if args.command == "centralizers":
        wanted = None
        if args.char_class is not None:
            wanted = _char_class(args.char_class)
            if wanted is None:
                print(f"error: bad --char-class {args.char_class!r}; "
                      "expected generic, 0 or a prime", file=sys.stderr)
                return 2
        profiles = [
            p
            for p in centralizer_profiles(t)
            if (args.d is None or p.d == args.d)
            and (wanted is None or p.characteristic_class == wanted)
        ]
        if args.json:
            doc = {
                "type": t.name,
                "profiles": [
                    {
                        "d": p.d if p.d is not None else "opaque",
                        "class": p.characteristic_class,
                        "entries": [
                            {"subsystem": "full" if s is None else s.name, "count": c}
                            for s, c in p.entries
                        ],
                    }
                    for p in profiles
                ],
            }
            print(canonical_json(doc), end="")
        else:
            for p in profiles:
                dd = "*" if p.d is None else p.d
                print(f"d={dd} r={p.characteristic_class}: {p.describe_entries()}")
                if p.note:
                    print(f"    note: {p.note}")
        return 0

    if args.command == "pseudo-levi":
        subs = sorted(pseudo_levi_types(t), key=lambda s: (-s.rank, s.name))
        if args.json:
            print(canonical_json({"type": t.name, "subsystems": [s.name for s in subs]}),
                  end="")
        else:
            for s in subs:
                print(s.name)
        return 0

    if args.command == "verify":
        names = VERIFY_ALL_TYPES if args.type.lower() == "all" else (args.type,)
        failed = False
        docs = []
        for name in names:
            tt = parse_type(name)
            report = run_all(tt, store)
            failed = failed or report.failed
            if args.json:
                docs.append(report_document(report))
            else:
                print(f"== {tt.name}")
                for line in report.lines():
                    print(f"  {line}")
                for err in report.errata:
                    print(f"  erratum: {err}")
        if args.json:
            print(canonical_json({"reports": docs}), end="")
        return 1 if failed else 0

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

    if args.command == "register":
        message = register_external_table(_read_document(Path(args.path)), store)
        print(message)
        return 0

    raise AssertionError(args.command)


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
