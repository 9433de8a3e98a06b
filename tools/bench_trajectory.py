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

``BENCH_<n>.json`` goes to the repository root.  It holds the run order and,
per tree, the distinct ``env`` records of its runs, the lines of its own
``tools/result_digest.py``, and per workload the seeds and, for each
end-to-end metric named in ``BENCHMARK.json``, every run's value with their
median and quartiles.
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


def digest(tree: Path) -> list[str]:
    """The lines of the tree's own tools/result_digest.py."""
    argv = [sys.executable, "tools/result_digest.py"]
    return subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True).stdout.splitlines()


def spread(values: list[float]) -> dict:
    """Every value in run order, with their median and quartiles (inclusive; one value is its own quartiles)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def summarize(records: list[dict]) -> dict:
    """One tree's env records (distinct, in first-seen order) and, per workload, its seeds and metric spreads."""
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
    digests = {label: digest(tree) for label, tree in trees.items()}  # a tree that cannot run fails first
    records: dict[str, list[dict]] = {label: [] for label in trees}
    for workload, seed, label in out["order"]:
        records[label].append(run(trees[label], workload, seed, SPEC["run_seconds"]))
        print(f"{workload} seed {seed}: {label} done", file=sys.stderr, flush=True)
    for label in trees:
        out["trees"][label] = {**summarize(records[label]), "result_digest": digests[label]}
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return path


if __name__ == "__main__":
    print(main())
