"""One fresh benchmark process.  Run as `python3 bench/worker.py SPEC`
with the library on PYTHONPATH; SPEC is a JSON file written by run.py.
The last line of stdout is a JSON object with the measurements.

Roles:
  session  set up, run verify once (cold), then time query rounds
  probe    time each library layer on the workload's tables (traced run)
  ladder   time registration and queries over growing ranks (traced run)
"""

import gc
import io
import json
import math
import random
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from statistics import median

import clock

CALIBRATION_AT_START = clock.calibrate()
IMPORT_START = time.perf_counter()
import charstrata  # noqa: E402
IMPORT_END = time.perf_counter()
CALIBRATION_AFTER_IMPORT = clock.calibrate()

from charstrata import cli, groups, tables  # noqa: E402
from charstrata.cartan import parse_type, pseudo_levi_types  # noqa: E402
from charstrata.cuspidal import enumerate_cs_prime  # noqa: E402
from charstrata.labels import enumerate_irr  # noqa: E402
from charstrata.schema import canonical_json, parse_table_document, table_document  # noqa: E402
from charstrata.strata import (  # noqa: E402
    bijection_witness,
    c_star,
    fiber,
    placement,
    resolve_placement,
    strata,
    tau,
)
from charstrata.tables import TableStore  # noqa: E402
from charstrata.verify import register_external_table, run_all  # noqa: E402

from synth import synthetic_table  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_ROUNDS = 3
# Calibrated stretches of query work last about this long: long enough
# that the calibration around them costs little, short enough that the
# CPU's speed hardly drifts within one.
STRETCH_S = 0.1


class Checks:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.total = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.total += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)


def call(fn, *args):
    """fn(*args), or the exception it raised, so that one failing query
    counts as a failure instead of ending the run."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - every error is a failed operation
        return exc


def run_items(items, tracer: Tracer) -> list:
    """Answer (span name, fn, args) items in order.  The untraced loop
    carries no tracing code at all."""
    if not tracer.enabled:
        return [call(fn, *args) for _, fn, args in items]
    out = []
    for name, fn, args in items:
        with tracer.span(name):
            out.append(call(fn, *args))
    return out


def timed_rounds(items, tracer: Tracer, seconds: float, check) -> float:
    """Answer the same items round after round for `seconds` (at least
    MIN_ROUNDS rounds) and return the median calibrated rate in answers
    per second.  check(items, results) checks every answer.

    A first, untimed pass sizes the stretches: items that answer faster
    than STRETCH_S are repeated within a stretch, slower ones are split
    over several stretches, each with its own calibration."""
    start = time.perf_counter()
    check(items, run_items(items, tracer))
    first = time.perf_counter() - start
    reps = max(1, math.ceil(STRETCH_S / first))
    size = math.ceil(len(items) / max(1, round(first / STRETCH_S)))
    chunks = [items[i:i + size] for i in range(0, len(items), size)]
    rates = []
    deadline = time.perf_counter() + seconds
    while len(rates) < MIN_ROUNDS or time.perf_counter() < deadline:
        gc.collect()
        busy = 0.0
        for chunk in chunks:
            before = clock.calibrate()
            raw = 0.0
            for _ in range(reps):
                start = time.perf_counter()
                results = run_items(chunk, tracer)
                raw += time.perf_counter() - start
                check(chunk, results)
            busy += clock.scale(raw, before, clock.calibrate())
        rates.append(len(items) * reps / busy)
    return median(rates)


def load_docs(spec) -> dict[str, dict]:
    return {t: json.loads(Path(p).read_text()) for t, p in spec["tables"].items()}


def load_where(spec) -> dict[str, dict[tuple[str, str], str]]:
    out = {}
    for t, p in spec["where"].items():
        out[t] = {(levi, char): head for levi, char, head in json.loads(Path(p).read_text())}
    return out


# ---------------------------------------------------------------------------
# session


def setup(spec, tracer: Tracer, checks: Checks) -> tuple[TableStore, float]:
    """Register the workload's tables and answer a first query on every
    table, which builds it and its placement.  Returns the store and the
    calibrated set-up time, import included; each step is calibrated on
    its own."""
    seconds = clock.scale(IMPORT_END - IMPORT_START, CALIBRATION_AT_START,
                          CALIBRATION_AFTER_IMPORT)
    store = TableStore()
    for p in spec["tables"].values():
        with clock.Timer() as timer, tracer.span("verify.register_external_table"):
            register_external_table(json.loads(Path(p).read_text()), store)
        seconds += timer.seconds
    for name in spec["types"]:
        with clock.Timer() as timer:
            t = parse_type(name)
            heads = strata(t, store)
            first = heads[0]
            with tracer.span("strata.tau"):
                got_tau = tau(t, enumerate_cs_prime(t)[0], store)
            with tracer.span("strata.fiber"):
                got_fiber = fiber(t, first, store)
            with tracer.span("strata.c_star"):
                got_cstar = c_star(t, first, store)
        seconds += timer.seconds
        checks.check(got_tau in heads, f"tau {name}")
        checks.check(got_fiber[0][0].character == first, f"fiber {name}")
        checks.check(len(got_cstar) > 0, f"c_star {name}")
    return store, seconds


def verify(spec, store, tracer: Tracer, checks: Checks) -> float:
    """Calibrated seconds of run_all over the workload's types, cold,
    each type calibrated on its own."""
    gc.collect()
    seconds = 0.0
    for name in spec["verify"]:
        with clock.Timer() as timer, tracer.span("verify.run_all"):
            rep = run_all(parse_type(name), store)
        seconds += timer.seconds
        bad = [cid for cid, status, _ in rep.checks if status == "fail"]
        checks.check(not bad, f"verify {rep.type_name}: {bad}")
    return seconds


class Reference:
    """What every query on the workload's tables must answer.

    Synthetic tables: the generator's placement and rows.  Embedded
    tables: the expanded fibers must partition enumerate_cs_prime; the
    stratum each triple sits in is then the reference for tau.
    """

    def __init__(self, spec, store, checks: Checks) -> None:
        self.stratum_of: dict[tuple, str] = {}   # (type, triple key + index) -> head
        self.fiber_keys: dict[tuple, list] = {}  # (type, head) -> expanded keys
        self.size: dict[tuple, int] = {}         # (type, head) -> fiber size
        where = load_where(spec)
        docs = load_docs(spec)
        for name in spec["types"]:
            t = parse_type(name)
            triples = enumerate_cs_prime(t)
            if name in docs:
                for tr in triples:
                    head = where[name][(tr.levi.levi_name, tr.character.text)]
                    self.stratum_of[(name, self._key(tr))] = head
                for row in docs[name]["rows"]:
                    keys = [(en["levi"], en["character"]) for en in row["fiber"]]
                    self.fiber_keys[(name, row["stratum"])] = keys
                    self.size[(name, row["stratum"])] = len(keys)
                continue
            seen = []
            for lab in strata(t, store):
                expanded = [tr for tr, _ in fiber(t, lab, store, expand=True)]
                for tr in expanded:
                    self.stratum_of[(name, self._key(tr))] = lab.text
                self.fiber_keys[(name, lab.text)] = [self._key(tr)[:2] for tr in expanded]
                self.size[(name, lab.text)] = len(expanded)
                seen += [self._key(tr) for tr in expanded]
            checks.check(sorted(seen, key=repr) == sorted(map(self._key, triples), key=repr),
                         f"expanded fibers of {name} do not partition the triples")

    @staticmethod
    def _key(tr) -> tuple:
        return (tr.levi.levi_name, tr.character.text, tr.d, tr.index)


def query_phases(spec, store, tracer: Tracer, checks: Checks) -> dict:
    ref = Reference(spec, store, checks)
    r = random.Random(f"{spec['workload']}:{spec['seed']}:queries")
    tau_items, fiber_items, cstar_items = [], [], []

    def sample(pop, n):
        """n items spread evenly over pop from a seeded offset, or all of
        pop when n is 0; evenly spread, so that the seed changes which
        items are asked for but hardly what a round costs."""
        if not n or n >= len(pop):
            return list(pop)
        step = len(pop) / n
        offset = r.random() * step
        return [pop[int(offset + i * step)] for i in range(n)]

    per_type = len(spec["types"])
    for name in spec["types"]:
        t = parse_type(name)
        heads = [lab.text for lab in strata(t, store)]
        for tr in sample(enumerate_cs_prime(t), spec["tau_n"] // per_type):
            tau_items.append(("strata.tau", tau, (t, tr, store)))
        for head in sample(heads, spec["fiber_n"] // per_type):
            fiber_items.append(("strata.fiber", fiber, (t, head, store, False)))
            fiber_items.append(("strata.fiber_expand", fiber, (t, head, store, True)))
        for head in sample(heads, spec["cstar_n"] // per_type):
            cstar_items.append(("strata.c_star", c_star, (t, head, store)))
    for items in (tau_items, fiber_items, cstar_items):
        r.shuffle(items)

    def check_tau(items, results):
        for (_, _, (t, tr, _)), got in zip(items, results):
            want = ref.stratum_of[(t.name, Reference._key(tr))]
            checks.check(getattr(got, "text", None) == want, f"tau {tr.describe()}")

    def check_fiber(items, results):
        for (_, _, (t, head, _, expand)), got in zip(items, results):
            want = ref.fiber_keys[(t.name, head)]
            ok = isinstance(got, list)
            if ok and expand:
                ok = [(tr.levi.levi_name, tr.character.text) for tr, m in got] == want and all(
                    ref.stratum_of[(t.name, Reference._key(tr))] == head for tr, _ in got)
            elif ok:
                ok = got[0][0].character.text == head and sum(m for _, m in got) == len(want)
            checks.check(ok, f"fiber {t.name} {head} expand={expand}")

    def check_cstar(items, results):
        for (_, _, (t, head, _)), got in zip(items, results):
            ok = isinstance(got, list) and len(got) == ref.size[(t.name, head)]
            checks.check(ok, f"c_star {t.name} {head}")

    window = spec["query_seconds"]
    return {
        "tau_per_s": timed_rounds(tau_items, tracer, 0.4 * window, check_tau),
        "fiber_per_s": timed_rounds(fiber_items, tracer, 0.4 * window, check_fiber),
        "cstar_per_s": timed_rounds(cstar_items, tracer, 0.2 * window, check_cstar),
    }


def session(spec, tracer: Tracer, checks: Checks) -> dict:
    with tracer.span("bench.setup"):
        store, setup_s = setup(spec, tracer, checks)
    out = {"setup_s": setup_s}
    with tracer.span("bench.verify"):
        out["verify_s"] = verify(spec, store, tracer, checks)
    if spec["query_seconds"] > 0:
        with tracer.span("bench.queries"):
            out.update(query_phases(spec, store, tracer, checks))
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process.  VmHWM belongs to the
    process image, whereas ru_maxrss on Linux keeps the parent's peak
    across fork and exec."""
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kb = next(line.split()[1] for line in status.splitlines() if line.startswith("VmHWM:"))
    return int(kb) / 1024


# ---------------------------------------------------------------------------
# probe: every named layer metric, timed from outside each call


def measure(tracer: Tracer, name: str, calls) -> tuple[float, list]:
    """Calibrated seconds of answering (fn, args) calls in a row, and the
    answers.  One span covers the loop, so span costs stay out of
    per-call times."""
    with clock.Timer() as timer, tracer.span(name):
        results = [fn(*args) for fn, args in calls]
    return timer.seconds, results


def ms(tracer: Tracer, name: str, calls) -> float:
    return 1e3 * measure(tracer, name, calls)[0]


def us_per_call(tracer: Tracer, name: str, calls) -> float:
    return 1e6 * measure(tracer, name, calls)[0] / len(calls)


def quiet_cli(argv) -> int:
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


def probe(spec, tracer: Tracer, checks: Checks) -> dict:
    m = {"import.charstrata_ms": 1e3 * clock.scale(
        IMPORT_END - IMPORT_START, CALIBRATION_AT_START, CALIBRATION_AFTER_IMPORT)}
    types = [parse_type(n) for n in spec["types"]]
    verify_types = [parse_type(n) for n in spec["verify"]]
    r = random.Random(f"{spec['workload']}:{spec['seed']}:probe")

    def sample(pop, n):
        pop = list(pop)
        return r.sample(pop, min(n, len(pop)))

    # Cold builds, in the order a fresh process meets them.
    m["labels.enumerate_irr_ms"] = ms(
        tracer, "labels.enumerate_irr", [(enumerate_irr, (t,)) for t in types])
    m["cuspidal.enumerate_cs_prime_ms"] = ms(
        tracer, "cuspidal.enumerate_cs_prime", [(enumerate_cs_prime, (t,)) for t in types])
    m["tables.embedded_table_ms"] = ms(
        tracer, "tables.embedded_table",
        [(tables.embedded_table, (parse_type(n),)) for n in ("G2", "F4", "E6", "E7", "E8")])
    m["groups.conjugacy_class_count_ms"] = ms(
        tracer, "groups.conjugacy_class_count",
        [(groups.conjugacy_class_count, (tag,)) for tag in groups.GROUP_TAGS])

    docs = load_docs(spec)
    for t in types:
        if t.name not in docs:  # embedded: its export is the document
            docs[t.name] = json.loads(canonical_json(table_document(t)))
    m["schema.parse_table_document_ms"] = ms(
        tracer, "schema.parse_table_document",
        [(parse_table_document, (docs[t.name],)) for t in types])
    store = TableStore()
    m["verify.register_external_table_ms"] = ms(
        tracer, "verify.register_external_table",
        [(register_external_table, (docs[t.name], store)) for t in types])

    rows = {t: store.table(t) for t in types}
    m["strata.resolve_placement_ms"] = ms(
        tracer, "strata.resolve_placement", [(resolve_placement, (t, rows[t])) for t in types])
    for t in types:
        placement(t, store)
    m["strata.placement_warm_us"] = us_per_call(
        tracer, "strata.placement", [(placement, (t, store)) for t in types for _ in range(20)])
    m["labels.by_text_us"] = us_per_call(
        tracer, "labels.by_text",
        [(enumerate_irr(t).by_text, (lab.text,)) for t in types for lab in enumerate_irr(t)])

    n = spec["probe_n"]
    triples = [(t, tr) for t in types for tr in sample(enumerate_cs_prime(t), n)]
    heads = [(t, h) for t in types for h in sample((row.stratum.text for row in rows[t]), n)]
    m["strata.tau_us"] = us_per_call(
        tracer, "strata.tau", [(tau, (t, tr, store)) for t, tr in triples])
    m["strata.fiber_us"] = us_per_call(
        tracer, "strata.fiber", [(fiber, (t, h, store)) for t, h in heads])
    m["strata.fiber_expand_us"] = us_per_call(
        tracer, "strata.fiber_expand", [(fiber, (t, h, store, True)) for t, h in heads])
    m["tables.find_row_us"] = us_per_call(
        tracer, "tables.find_row", [(tables.find_row, (t, h, store)) for t, h in heads])
    m["strata.c_star_us"] = us_per_call(
        tracer, "strata.c_star", [(c_star, (t, h, store)) for t, h in heads])
    m["strata.bijection_witness_ms"] = ms(
        tracer, "strata.bijection_witness", [(bijection_witness, (t, store)) for t in types])

    # The closure first, while it is cold; run_all then finds it cached.
    seconds, closures = measure(tracer, "cartan.pseudo_levi_types",
                                [(pseudo_levi_types, (t,)) for t in verify_types])
    m["cartan.pseudo_levi_types_ms"] = 1e3 * seconds
    seconds, reports = measure(tracer, "verify.run_all",
                               [(run_all, (t, store)) for t in verify_types])
    m["verify.run_all_ms"] = 1e3 * seconds
    for rep in reports:
        checks.check(not rep.failed, f"run_all {rep.type_name}")
    seconds, codes = measure(tracer, "cli.main", [(quiet_cli, (argv,)) for argv in spec["cli_main"]])
    m["cli.main_ms"] = 1e3 * seconds / len(codes)
    for argv, code in zip(spec["cli_main"], codes):
        checks.check(code == 0, f"cli.main {argv} exited {code}")

    m["cuspidal.triples"] = sum(len(enumerate_cs_prime(t)) for t in types)
    m["labels.registry_size"] = sum(len(enumerate_irr(t)) for t in types)
    m["tables.rows"] = sum(len(rows[t]) for t in types)
    m["cartan.closure_size"] = sum(len(c) for c in closures)
    return m


# ---------------------------------------------------------------------------
# ladder: growth with rank


def ladder(spec, tracer: Tracer, checks: Checks) -> dict:
    m = {}
    n = spec["ladder_n"]
    for name in spec["ladder"]:
        t = parse_type(name)
        doc, where = synthetic_table(name, spec["seed"])
        store = TableStore()
        m[f"verify.register_external_table_ms.{name}"] = ms(
            tracer, "verify.register_external_table", [(register_external_table, (doc, store))])
        r = random.Random(f"ladder:{spec['seed']}:{name}")
        triples = r.sample(list(enumerate_cs_prime(t)), n)
        rows = r.sample(doc["rows"], n)
        tau(t, triples[0], store)  # builds the placement
        seconds, got = measure(tracer, "strata.tau", [(tau, (t, tr, store)) for tr in triples])
        m[f"strata.tau_us.{name}"] = 1e6 * seconds / n
        for tr, head in zip(triples, got):
            checks.check(head.text == where[(tr.levi.levi_name, tr.character.text)],
                         f"tau {name} {tr.describe()}")
        seconds, got = measure(tracer, "strata.fiber",
                               [(fiber, (t, row["stratum"], store)) for row in rows])
        m[f"strata.fiber_us.{name}"] = 1e6 * seconds / n
        for row, pairs in zip(rows, got):
            checks.check(len(pairs) == len(row["fiber"]), f"fiber {name} {row['stratum']}")
        m[f"cartan.pseudo_levi_types_ms.{name}"] = ms(
            tracer, "cartan.pseudo_levi_types", [(pseudo_levi_types, (t,))])
    return m


ROLES = {"session": session, "probe": probe, "ladder": ladder}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    tracer = Tracer(spec["run_id"], spec["trace"])
    tracer.record("import.charstrata", IMPORT_START, IMPORT_END)
    checks = Checks()
    metrics = ROLES[spec["role"]](spec, tracer, checks)
    print(json.dumps({"metrics": metrics, "attempted": checks.total,
                      "failed": checks.failed, "notes": checks.notes,
                      "spans": tracer.spans if tracer.enabled else []}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
