"""The benchmark's workloads, and the reference answers its CLI calls are
checked against.

Each workload is a closed loop: one client, one request at a time, in
one process; CLI calls run one subprocess at a time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

VERIFY_ALL = (
    "Torus", "A1", "A2", "A3", "A4", "B2", "B3", "B6", "C2", "C3", "C6",
    "D4", "D5", "G2", "F4", "E6", "E7", "E8",
)

# Inventories of the groups a synthetic row can carry, written out here
# rather than read from the library, so that `cstar` output is checked
# against data the code under test did not produce.
_CYCLIC = {k: ("1",) + tuple(f"e({j}/{k})" for j in range(1, k)) for k in range(2, 7)}
INVENTORY = {"1": ("1",), **{f"C{k}": inv for k, inv in _CYCLIC.items()},
             "S5": ("1", "sgn", "deg4", "deg4'", "deg5", "deg5'", "deg6")}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    embedded: tuple[str, ...]   # embedded tables queried in process
    synthetic: tuple[str, ...]  # synthetic tables registered and queried
    verify: tuple[str, ...]     # types run_all runs over
    tau_n: int                  # triples per query round; 0 means all of them
    fiber_n: int                # strata per fiber round; 0 means all of them
    cstar_n: int                # strata per c_star round; 0 means all of them
    cli_rounds: int

    @property
    def types(self) -> tuple[str, ...]:
        return self.embedded + self.synthetic


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "embedded",
            "the shipped exceptional tables most users query: fixed per-call "
            "overhead and the group oracle dominate, label lookup and registration do not",
            embedded=("G2", "F4", "E6", "E7", "E8"), synthetic=(), verify=VERIFY_ALL,
            tau_n=0, fiber_n=0, cstar_n=0, cli_rounds=5,
        ),
        Workload(
            "classical-large",
            "one synthetic B12 table: the linear scans in labels, strata and tables "
            "and the B12 pseudo-Levi closure grow with table size",
            embedded=(), synthetic=("B12",), verify=("B12",),
            tau_n=60, fiber_n=30, cstar_n=300, cli_rounds=2,
        ),
        Workload(
            "cold-cli",
            "one CLI process per query over mid-size synthetic tables: every process "
            "pays import and registration of the whole table directory",
            embedded=(), synthetic=("B6", "C6", "B8", "D8", "D10"),
            verify=("B6", "C6", "B8", "D8", "D10"),
            tau_n=300, fiber_n=120, cstar_n=0, cli_rounds=1,
        ),
    )
}


# ---------------------------------------------------------------------------
# CLI commands and the stdout each must print.


def _render_fiber(row: dict) -> str:
    lines = [row["stratum"]]
    lines += [f"({en['levi']},{en['character']},*)[0]" for en in row["fiber"][1:]]
    return "".join(line + "\n" for line in lines)


def _render_cstar(row: dict) -> str:
    group = row["groups"]["0"]
    lines = [f"c(E) = {group}"]
    lines += [f"  {group:>6}  {irrep:<8} (single)" for irrep in INVENTORY[group]]
    return "".join(line + "\n" for line in lines)


def _triple_count(doc: dict) -> int:
    return sum(len(row["fiber"]) for row in doc["rows"])


class SyntheticRefs:
    """The generator's documents, their files and its placement, as the
    reference for commands on synthetic tables."""

    def __init__(self, docs: dict[str, dict], where: dict[str, dict], files: dict[str, Path]):
        self.docs = docs
        self.where = where
        self.files = files

    def row(self, type_name: str, stratum: str) -> dict:
        return next(r for r in self.docs[type_name]["rows"] if r["stratum"] == stratum)

    def answer(self, argv: list[str]) -> str | None:
        """The expected stdout, or None where only the in-process CLI can
        answer (verify, info, triples)."""
        if argv[0] == "--tables":
            argv = argv[2:]
        cmd, rest = argv[0], argv[1:]
        if cmd == "register":
            doc = next(self.docs[t] for t, p in self.files.items() if str(p) == rest[1])
            return (f"{doc['type']}: registered ({len(doc['rows'])} rows, "
                    f"{_triple_count(doc)} triples placed)\n")
        type_name = rest[0]
        if cmd == "strata":
            return "".join(r["stratum"] + "\n" for r in self.docs[type_name]["rows"])
        if cmd == "tau":
            levi, char = rest[rest.index("--levi") + 1], rest[rest.index("--char") + 1]
            return self.where[type_name][(levi, char)] + "\n"
        if cmd == "fiber":
            return _render_fiber(self.row(type_name, rest[rest.index("--stratum") + 1]))
        if cmd == "cstar":
            return _render_cstar(self.row(type_name, rest[rest.index("--stratum") + 1]))
        if cmd == "export":
            return json.dumps(self.docs[type_name], indent=2, ensure_ascii=True) + "\n"
        return None


def cli_commands(w: Workload, seed: int, tables_dir: Path, refs: SyntheticRefs,
                 embedded_strata: dict[str, list[str]]) -> list[list[str]]:
    """The workload's CLI calls, in seeded order."""
    r = random.Random(f"{w.name}:{seed}:cli")
    out: list[list[str]] = []
    if w.name == "embedded":
        for _ in range(w.cli_rounds):
            batch = [
                ["verify", "all"],
                ["tau", "E8", "--levi", "D4", "--char", "chi_{4,1}"],
                ["fiber", "F4", "--stratum", r.choice(embedded_strata["F4"]), "--expand"],
                ["cstar", "E8", "--stratum", r.choice(embedded_strata["E8"])],
                ["triples", "E7"],
                ["pseudo-levi", "E8"],
                ["export", "E8", "--what", "table"],
            ]
            r.shuffle(batch)
            out += batch
        return out
    tables = ["--tables", str(tables_dir)]

    def stratum(t: str) -> str:
        return r.choice(refs.docs[t]["rows"])["stratum"]

    def triple(t: str) -> list[str]:
        levi, char = r.choice(sorted(refs.where[t]))
        return ["--levi", levi, "--char", char]

    for _ in range(w.cli_rounds):
        batch = []
        for t in w.synthetic:
            if w.name == "classical-large":
                kinds = [
                    ["register", "--in", str(refs.files[t])],
                    tables + ["tau", t] + triple(t),
                    tables + ["fiber", t, "--stratum", stratum(t)],
                ]
            else:
                kinds = [tables + argv for argv in (
                    ["strata", t],
                    ["tau", t] + triple(t),
                    ["fiber", t, "--stratum", stratum(t)],
                    ["cstar", t, "--stratum", stratum(t)],
                    ["triples", t],
                    ["info", t],
                    ["export", t, "--what", "table"],
                    ["register", "--in", str(refs.files[t])],
                    ["verify", t],
                )]
            batch += kinds
        r.shuffle(batch)
        out += batch
    return out
