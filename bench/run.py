"""The charstrata benchmark.  Stdlib only; run from the repository root:

    python3 bench/run.py --workload embedded --seed 1 --seconds 10 --trace 0

Each run starts fresh processes for the library session and one
subprocess per CLI call, checks every answer, prints a table of the
metrics and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
makes a separate run that reports the per-layer metrics, the self time
of each layer and the tracing overhead, and writes every span to
.bench_out/trace-<workload>-<seed>.json.  Without the library's sources
under src/ it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Ranks of the traced run's ladder: registration, queries and the
# pseudo-Levi closure at growing table size, so super-linear growth
# shows as a slope.
LADDER = ("B6", "B8", "B10", "B12", "D8", "D10", "D12", "D16")
LADDER_N = 20
# Probe sample per type for per-call layer metrics.
PROBE_N = 100
LAYERS = ("import", "cartan", "labels", "groups", "cuspidal", "tables",
          "strata", "schema", "verify", "cli", "bench")
# End-to-end metrics the traced run compares with an untraced session.
OVERHEAD_OF = ("setup_s", "verify_s", "tau_per_s", "fiber_per_s", "cstar_per_s")
TIMEOUT_S = 170
# Fresh processes per run that time set-up and a cold run_all; the
# metrics are their medians.
WORKERS = 5


class BenchError(RuntimeError):
    pass


def declared() -> tuple[dict[str, dict], dict]:
    """Metric declarations by name, and the whole BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}, doc


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile
    with at least ten samples beyond it.  Below 21 samples no percentile
    above the median has ten beyond it, and the median is returned."""
    s = sorted(samples)
    n = len(s)
    if n < 21:
        return median(s), 50.0, n // 2
    return s[n - 11], 100.0 * (n - 10) / n, 10


class Run:
    """One benchmark run: its inputs, its processes and its checks."""

    def __init__(self, args, workload) -> None:
        self.args = args
        self.w = workload
        self.run_id = f"{workload.name}-{args.seed}-{'traced' if args.trace else 'plain'}"
        self.work = OUT / f"work-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.env.pop("CHARSTRATA_TABLES", None)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.spans: dict[str, list] = {}
        self.n_specs = 0

    def rel(self, path: Path) -> str:
        return str(path.relative_to(ROOT))

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    # -- inputs ------------------------------------------------------------

    def make_inputs(self) -> None:
        from synth import synthetic_table
        from workloads import SyntheticRefs

        tables_dir = self.work / "tables"
        where_dir = self.work / "where"
        tables_dir.mkdir(parents=True)
        where_dir.mkdir()
        docs, where, files, where_files = {}, {}, {}, {}
        for t in self.w.synthetic:
            docs[t], where[t] = synthetic_table(t, self.args.seed)
            files[t] = tables_dir / f"{t}.json"
            files[t].write_text(json.dumps(docs[t], indent=2) + "\n")
            where_files[t] = where_dir / f"{t}.json"
            where_files[t].write_text(json.dumps([[*k, v] for k, v in where[t].items()]))
        self.tables_dir = tables_dir
        self.refs = SyntheticRefs(docs, where, {t: Path(self.rel(p)) for t, p in files.items()})
        self.base_spec = {
            "workload": self.w.name,
            "seed": self.args.seed,
            "run_id": self.run_id,
            "types": list(self.w.types),
            "tables": {t: self.rel(p) for t, p in files.items()},
            "where": {t: self.rel(p) for t, p in where_files.items()},
            "verify": list(self.w.verify),
            "tau_n": self.w.tau_n,
            "fiber_n": self.w.fiber_n,
            "cstar_n": self.w.cstar_n,
        }

    def cli_plan(self) -> list[tuple[list[str], str]]:
        """Every CLI call of the workload with the stdout it must print:
        the generator's answer where there is one, else the in-process
        answer of the same command."""
        from charstrata.cartan import parse_type
        from charstrata.cli import main as cli_main
        from charstrata.strata import strata
        from workloads import cli_commands

        embedded_strata = {n: [lab.text for lab in strata(parse_type(n))] for n in ("F4", "E8")}
        commands = cli_commands(self.w, self.args.seed, Path(self.rel(self.tables_dir)),
                                self.refs, embedded_strata)
        answers: dict[tuple, str] = {}
        plan = []
        for argv in commands:
            key = tuple(argv)
            if key not in answers:
                want = self.refs.answer(argv) if self.w.synthetic else None
                if want is None:
                    sink = io.StringIO()
                    with redirect_stdout(sink):
                        code = cli_main(argv)
                    self.check(code == 0, f"in-process {' '.join(argv)} exited {code}")
                    want = sink.getvalue()
                answers[key] = want
            plan.append((argv, answers[key]))
        return plan

    # -- processes ---------------------------------------------------------

    def worker(self, role: str, trace: bool, **extra) -> dict:
        spec = dict(self.base_spec, role=role, trace=trace, **extra)
        self.n_specs += 1
        path = self.work / f"spec-{self.n_specs}.json"
        path.write_text(json.dumps(spec))
        proc = subprocess.run(
            [sys.executable, self.rel(HERE / "worker.py"), self.rel(path)],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"{role} worker failed:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.notes += result["notes"]
        if trace:
            self.spans[f"{role}-{self.n_specs}"] = result["spans"]
        return result["metrics"]

    def cli_phase(self, plan, tracer) -> list[float]:
        """Calibrated seconds of each CLI call, one subprocess at a time."""
        import clock

        times = []
        before = clock.calibrate()
        for argv, want in plan:
            with tracer.span("cli.subprocess"):
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "charstrata", *argv],
                    cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=TIMEOUT_S,
                )
                raw = time.perf_counter() - start
            after = clock.calibrate()
            times.append(clock.scale(raw, before, after))
            before = after
            ok = proc.returncode == 0 and proc.stdout == want
            self.check(ok, f"cli {' '.join(argv)}: exit {proc.returncode}")
        return times

    def warm_up(self) -> None:
        """Compile the library's bytecode once, so that no timed process
        pays for it."""
        subprocess.run([sys.executable, "-c", "import charstrata.cli"],
                       cwd=ROOT, env=self.env, check=True, timeout=TIMEOUT_S)

    # -- the two kinds of run ----------------------------------------------

    def plain(self) -> tuple[dict, list[str]]:
        from spans import Tracer

        seconds = self.args.seconds
        sessions = [self.worker("session", False, query_seconds=seconds)]
        sessions += [self.worker("session", False, query_seconds=0)
                     for _ in range(WORKERS - 1)]
        cli_times = self.cli_phase(self.cli_plan(), Tracer(self.run_id, False))
        value, pct, beyond = tail(cli_times)
        m = {
            "setup_s": median(s["setup_s"] for s in sessions),
            "verify_s": median(s["verify_s"] for s in sessions),
            "tau_per_s": sessions[0]["tau_per_s"],
            "fiber_per_s": sessions[0]["fiber_per_s"],
            "cstar_per_s": sessions[0]["cstar_per_s"],
            "peak_rss_mb": sessions[0]["peak_rss_mb"],
            "cli_p50_ms": 1e3 * median(cli_times),
            "cli_tail_ms": 1e3 * value,
        }
        info = [
            f"set-up and verify: median of {len(sessions)} fresh processes",
            f"cli: {len(cli_times)} processes; tail is p{pct:.1f} with {beyond} samples beyond it",
        ]
        return m, info

    def traced(self) -> tuple[dict, list[str]]:
        from spans import Tracer, self_times

        half = self.args.seconds / 2
        plain = self.worker("session", False, query_seconds=half)
        traced = self.worker("session", True, query_seconds=half)
        m = {}
        for name in OVERHEAD_OF:
            slower = traced[name] / plain[name] if name.endswith("_s") else plain[name] / traced[name]
            m[f"trace.overhead_pct.{name}"] = 100.0 * (slower - 1.0)
        plan = self.cli_plan()
        probe_cli = list(dict.fromkeys(tuple(argv) for argv, _ in plan))
        m.update(self.worker("probe", True, probe_n=PROBE_N,
                             cli_main=[list(a) for a in probe_cli]))
        m.update(self.worker("ladder", True, ladder=list(LADDER), ladder_n=LADDER_N))
        tracer = Tracer(self.run_id, True)
        with tracer.span("bench.cli"):
            self.cli_phase(plan[: len(plan) // self.w.cli_rounds], tracer)
        self.spans["parent"] = tracer.spans
        totals = dict.fromkeys(LAYERS, 0.0)
        for spans in self.spans.values():
            for layer, seconds in self_times(spans).items():
                totals[layer] += seconds
        m.update({f"self.{layer}_ms": 1e3 * s for layer, s in totals.items()})
        path = OUT / f"trace-{self.w.name}-{self.args.seed}.json"
        path.write_text(json.dumps({"run": self.run_id, "processes": self.spans}))
        return m, [f"spans written to {self.rel(path)}"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="query window of the in-process session")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    # Turn SIGTERM into an exception, so that subprocess.run kills and
    # reaps the child it is waiting for before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One CPU for this process and every process it starts, so that the
    # calibration loop and the timed work run on the same CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "charstrata" / "__init__.py").is_file():
        print(f"error: the charstrata sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    specs, bench = declared()
    wanted = {m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    run = Run(args, WORKLOADS[args.workload])
    try:
        run.work.mkdir(parents=True)
        run.make_inputs()
        run.warm_up()
        metrics, info = run.traced() if args.trace else run.plain()
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    if set(metrics) != wanted:
        print(f"error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ wanted)}", file=sys.stderr)
        return 1
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in info:
        print(f"  {line}")
    for name in sorted(metrics):
        spec = specs[name]
        print(f"  {name:<44} {metrics[name]:>14.4f} {spec['unit']:<6} ({spec['better']} is better)")
    for note in run.notes[:10]:
        print(f"  FAILED: {note}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": specs[k]["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
