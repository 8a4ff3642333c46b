"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m unittest bench/test_bench.py

The smoke runs start the benchmark as a user would and take about a
minute together.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from charstrata.cartan import parse_type  # noqa: E402
from charstrata.tables import TableStore  # noqa: E402
from charstrata.verify import register_external_table, run_all  # noqa: E402

from synth import MAX_EXTRA, synthetic_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every synthetic type a workload or the ladder uses, except D16, whose
# registration and verification alone take most of a minute.
SYNTHETIC = ("B6", "C6", "B8", "B10", "B12", "D8", "D10", "D12")
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def scratch_dir() -> tempfile.TemporaryDirectory:
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=ROOT / ".bench_out")


class SyntheticTables(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for t in ("B6", "C6", "D8"):
            self.assertEqual(canonical(synthetic_table(t, 7)[0]),
                             canonical(synthetic_table(t, 7)[0]))

    def test_bytes_do_not_depend_on_the_process(self):
        code = ("import json, sys; sys.path[:0] = ['bench']; from synth import synthetic_table; "
                "sys.stdout.write(json.dumps(synthetic_table('D8', 7)[0], indent=2) + '\\n')")
        for hash_seed in ("1", "2"):
            out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                                 text=True, check=True,
                                 env=dict(ENV, PYTHONHASHSEED=hash_seed)).stdout
            self.assertEqual(out, canonical(synthetic_table("D8", 7)[0]))

    def test_other_seed_gives_other_layout_that_verifies(self):
        a, _ = synthetic_table("B6", 1)
        b, where = synthetic_table("B6", 2)
        self.assertNotEqual(canonical(a), canonical(b))
        store = TableStore()
        register_external_table(b, store)
        report = run_all(parse_type("B6"), store)
        self.assertFalse(report.failed, report.lines())
        self.assertEqual([s for _, s, _ in report.checks].count("skipped"), 0)
        for row in b["rows"]:
            for en in row["fiber"]:
                self.assertEqual(where[(en["levi"], en["character"])], row["stratum"])

    def test_rows_are_balanced(self):
        doc, _ = synthetic_table("D10", 3)
        unit = next(r for r in doc["rows"] if r["stratum"] == "{10|}")
        self.assertEqual(len(unit["fiber"]), 2)
        self.assertTrue(all(len(r["fiber"]) <= MAX_EXTRA + 1 for r in doc["rows"]))

    def test_every_generated_table_passes_cli_verify(self):
        with scratch_dir() as tmp:
            for t in SYNTHETIC:
                for seed in (1, 2):
                    path = Path(tmp) / f"{t}.json"
                    path.write_text(canonical(synthetic_table(t, seed)[0]))
                    proc = subprocess.run(
                        [sys.executable, "-m", "charstrata", "--tables", tmp, "verify", t],
                        cwd=ROOT, env=ENV, capture_output=True, text=True)
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    self.assertNotIn(": fail", proc.stdout)
                    path.unlink()


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


class Smoke(unittest.TestCase):
    def check_run(self, workload: str, trace: str) -> None:
        proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                         "--trace", trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        declared = {m["name"]: m["unit"]
                    for m in BENCHMARK["per_layer" if trace == "1" else "end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, declared)

    def test_every_workload_untraced(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.check_run(name, "0")

    def test_traced(self):
        self.check_run("embedded", "1")

    def test_refuses_without_the_library(self):
        with scratch_dir() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "embedded", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


class Declarations(unittest.TestCase):
    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))
        for w in BENCHMARK["workloads"]:
            self.assertEqual(w["why"], WORKLOADS[w["name"]].why)

    def test_layer_map_names_declared_metrics(self):
        names = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
        layer_map = json.loads((HERE / "layers.json").read_text())
        for entry in layer_map["mapping"]:
            for name in entry["layer_metrics"]:
                self.assertIn(name, names)
            for move in entry["moves"]:
                self.assertIn(move["metric"], names)
                self.assertIn(move["workload"], WORKLOADS)


if __name__ == "__main__":
    unittest.main()
