"""Run the benchmark on several trees in alternating order and write ``BENCH_<n>.json``.

Usage, from any directory:

    python3 tools/bench_trajectory.py parent=PARENT_TREE change=CHANGE_TREE \\
        --number 31 --seeds 1 2 3 4 5 6 7 8 9 10

Each ``LABEL=PATH`` names a checkout with its own ``perfbench/``, ``src/`` and
``tools/``.  For every seed, and within it for every workload of this
repository's ``BENCHMARK.json``, the script runs each tree's own
``perfbench/run.py --workload W --seed S --seconds T --trace 0``, unchanged,
with the tree as working directory, once per tree; T is the ``run_seconds``
of ``BENCHMARK.json``.  The trees run in the order given at even seed
positions and reversed at odd ones, so every workload's runs alternate which
tree goes first.  After each run it reads
that run's ``.bench_build/perfbench/result-W-seedS-trace0.json`` record,
before the tree's next run at that seed and workload could overwrite it.

Before any run, each tree's own ``perfbench/run.py::cold_sample(W, S)`` is
read inside that tree, so the labels come from the code that times the runs:
the k-th entry of a record's ``cli_cold_runs_s`` is the cold run of that
sample's k-th scenario, labelled by its command and, with a connection, its
rank (``curvature/r3``, ``infinite-wilson``).

``BENCH_<n>.json`` goes to the repository root.  It holds the run order and,
per tree, the distinct ``env`` records of its runs, the lines of its own
``tools/result_digest.py``, and per workload the seeds, for each end-to-end
metric named in ``BENCHMARK.json`` every run's value with their median and
quartiles, and the same per cold-run label (``cold_by_command``), so a
change in ``cli_cold_s`` can be read per command.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = [m["name"] for m in SPEC["end_to_end"]]

#: Run inside a tree, with the (workload, seed) pairs as JSON in argv[1]: per pair, [command, connection rank
#: or null] of each scenario of that tree's cold_sample, in the order its cold runs are timed.
COLD_SAMPLE = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
from run import cold_sample
pairs = json.loads(sys.argv[1])
print(json.dumps([[[s["command"], s.get("connection", {}).get("rank")] for s in cold_sample(*p)] for p in pairs]))
"""


def plan(labels: list[str], seeds: list[int]) -> list[tuple[str, int, str]]:
    """(workload, seed, label) in run order: per seed, per workload, the trees in turn, reversed at odd seeds."""
    return [
        (workload, seed, label)
        for i, seed in enumerate(seeds)
        for workload in WORKLOADS
        for label in (labels if i % 2 == 0 else labels[::-1])
    ]


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of the tree's own perfbench/run.py, and the record it wrote."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(argv + ["--seconds", str(seconds), "--trace", "0"], cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {done.returncode}\n{done.stderr[-2000:]}")
    path = tree / ".bench_build" / "perfbench" / f"result-{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


def cold_label(command: str, rank) -> str:
    """A cold run's label: its command, with /r<rank> where the scenario has a connection."""
    return command if rank is None else f"{command}/r{rank}"


def cold_labels(tree: Path, pairs: list[tuple[str, int]]) -> dict[tuple[str, int], list[str]]:
    """Per (workload, seed), the labels of the cold runs that the tree's own run.cold_sample gives."""
    argv = [sys.executable, "-c", COLD_SAMPLE, json.dumps(pairs)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: cold_sample failed\n{done.stderr[-2000:]}")
    return {pair: [cold_label(*s) for s in sample] for pair, sample in zip(pairs, json.loads(done.stdout))}


def digest(tree: Path) -> list[str]:
    """The lines of the tree's own tools/result_digest.py."""
    argv = [sys.executable, "tools/result_digest.py"]
    return subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True).stdout.splitlines()


def spread(values: list[float]) -> dict:
    """Every value in run order, with their median and quartiles (inclusive; one value is its own quartiles)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def by_command(records: list[dict], labels: dict) -> dict:
    """Each cold-run label's spread over the records (labels in first-seen order), pairing the k-th entry of
    a record's cli_cold_runs_s with the k-th label of its (workload, seed)."""
    runs: dict[str, list[float]] = {}
    for r in records:
        mine, walls = labels[(r["workload"], r["seed"])], r["cli_cold_runs_s"]
        if len(mine) != len(walls):
            raise SystemExit(f"{r['workload']} seed {r['seed']}: {len(mine)} labels for {len(walls)} cold runs")
        for name, wall in zip(mine, walls):
            runs.setdefault(name, []).append(wall)
    return {name: spread(walls) for name, walls in runs.items()}


def summarize(records: list[dict], labels: dict) -> dict:
    """One tree's env records (distinct, in first-seen order) and, per workload, its seeds, metric spreads and
    per-command cold spreads (``labels`` as cold_labels gives them)."""
    envs: list[dict] = []
    for record in records:
        if record["env"] not in envs:
            envs.append(record["env"])
    workloads = {}
    for workload in WORKLOADS:
        mine = [r for r in records if r["workload"] == workload]
        if mine:
            workloads[workload] = {
                "seeds": [r["seed"] for r in mine],
                "metrics": {m: spread([r["metrics"][m]["value"] for r in mine]) for m in METRICS},
                "cold_by_command": by_command(mine, labels),
            }
    return {"env": envs, "workloads": workloads}


def main(argv=None) -> Path:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", metavar="LABEL=PATH", help="a labelled checkout to run")
    parser.add_argument("--number", type=int, required=True, help="n of the BENCH_<n>.json written")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    trees = {}
    for item in args.trees:
        label, sep, path = item.partition("=")
        if not sep or not label or label in trees:
            parser.error(f"each tree is a distinct LABEL=PATH, got {item!r}")
        trees[label] = Path(path).resolve()
    out = {
        "workloads": WORKLOADS,
        "seeds": args.seeds,
        "seconds": SPEC["run_seconds"],
        "order": plan(list(trees), args.seeds),
        "trees": {},
    }
    pairs = [(workload, seed) for seed in args.seeds for workload in WORKLOADS]
    digests = {label: digest(tree) for label, tree in trees.items()}  # a tree that cannot run fails first
    cold = {label: cold_labels(tree, pairs) for label, tree in trees.items()}
    records: dict[str, list[dict]] = {label: [] for label in trees}
    for workload, seed, label in out["order"]:
        records[label].append(run(trees[label], workload, seed, SPEC["run_seconds"]))
        print(f"{workload} seed {seed}: {label} done", file=sys.stderr, flush=True)
    for label in trees:
        out["trees"][label] = {**summarize(records[label], cold[label]), "result_digest": digests[label]}
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return path


if __name__ == "__main__":
    print(main())
