"""Time seeded operations of one workload from two ``src/`` trees, in alternating in-process blocks.

Usage, from any directory:

    python3 tools/interleave.py BASE_SRC NEW_SRC --workload symbolic \\
        [--kind check_transport_axioms/r4 ...] [--seed 1] [--cycles 4] [--rounds 15]

The operations are the first ``--cycles`` cycles of ``perfbench/workloads.py``'s
stream at ``--seed``, each prepared through ``perfbench/calls.py``, as
``tools/result_digest.py`` does.  An operation's kind is its ``call``, which
for a ``cli.run`` operation is ``cli.run:<command>`` (as result_digest.py names
its lines), followed by ``/r<rank>`` when it has a connection:
``check_transport_axioms/r4``, ``cli.run:independence/r4``.  ``--kind``
(repeatable) keeps only the operations of the kinds named, with or without
the rank, or by the plain call: ``--kind cli.run`` keeps every ``cli.run``
operation.

Each round times one block per tree.  A block purges ``nctorus`` and ``calls``
from ``sys.modules``, imports them with the tree first on ``sys.path``, and
every module of the tree's ``nctorus`` package with them, so a module that a
function imports on its first call (``check_transport_axioms`` imports
``nctorus.reports``) is loaded before the timing starts, as it is after the
benchmark's first operation.  It then
prepares every operation and runs them all once, timed as a whole; an
operation that raises counts as run, since its error is its result.  The
tree that runs first alternates between rounds, and one untimed round of both
warms up first.  The output gives each tree's median block time, then NEW/BASE
as the median of the per-round ratios with the rounds in which NEW was faster,
then the quartiles of those ratios: a reading whose interquartile range
straddles 1 is noise.  The median ratio is the headline because a bimodal host
can swing the ratio of the two median block times far from every round's.
Run it with ``OPENBLAS_NUM_THREADS=1``, as the benchmark's children do.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import pkgutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import Stream  # noqa: E402


def load(src: str):
    """perfbench's ``calls`` module on the nctorus under src, imported afresh with every nctorus submodule."""
    for name in [m for m in sys.modules if m in ("calls", "nctorus") or m.startswith("nctorus.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        import calls

        package = sys.modules["nctorus"]
        for module in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"nctorus.{module.name}")
    finally:
        sys.path.remove(src)
    return calls


def kind(spec: dict, scenario_of) -> str:
    """``call`` or ``cli.run:<command>``, and ``/r<rank>`` for an operation on a connection."""
    name, fields = spec["call"], spec
    if name == "cli.run":
        fields = scenario_of(spec)
        name = f"cli.run:{fields['command']}"
    rank = fields.get("connection", {}).get("rank")
    return name if rank is None else f"{name}/r{rank}"


def operations(workload: str, seed: int, cycles: int, kinds: list[str], scenario_of) -> list[dict]:
    stream = Stream(workload, seed)
    specs = [spec for _ in range(cycles) for spec in stream.cycle()]
    names = [kind(spec, scenario_of) for spec in specs]
    kept = [
        spec
        for spec, name in zip(specs, names)
        if not kinds or {spec["call"], name, name.partition("/")[0]} & set(kinds)
    ]
    if not kept:
        raise SystemExit(f"no {workload} operation of kind {', '.join(kinds)} (kinds: {', '.join(sorted(set(names)))})")
    return kept


def block(src: str, specs: list[dict]) -> float:
    """Seconds to run every operation once on the nctorus under src, imported afresh."""
    calls = load(src)
    ops = [calls.prepare(spec) for spec in specs]
    gc.collect()
    start = time.perf_counter()
    for op in ops:
        try:
            op()
        except Exception:  # noqa: BLE001 - an error is the operation's result
            pass
    return time.perf_counter() - start


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the src/ directory of the base tree")
    parser.add_argument("new", help="the src/ directory of the tree compared with it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--kind", action="append", default=[], help="keep only this kind (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    trees = {"base": str(Path(args.base).resolve()), "new": str(Path(args.new).resolve())}
    specs = operations(args.workload, args.seed, args.cycles, args.kind, load(trees["base"]).scenario_of)
    for name in trees:  # warm-up: first imports and first calls
        block(trees[name], specs)
    times: dict[str, list[float]] = {"base": [], "new": []}
    for r in range(args.rounds):
        for name in ("base", "new") if r % 2 == 0 else ("new", "base"):
            times[name].append(block(trees[name], specs))
    medians = {name: statistics.median(t) for name, t in times.items()}
    wins = sum(n < b for b, n in zip(times["base"], times["new"]))
    print(f"{args.workload}: {len(specs)} operations ({', '.join(args.kind) or 'every kind'}), {args.rounds} rounds")
    for name, src in trees.items():
        print(f"{name}: median {medians[name] * 1e3:.3f} ms  ({src})")
    ratios = [n / b for b, n in zip(times["base"], times["new"])]
    print(f"new/base: {statistics.median(ratios):.3f} (median by round)  new faster in {wins} of {args.rounds} rounds")
    quartiles = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    print("new/base by round: quartiles " + " ".join(f"{x:.3f}" for x in quartiles))


if __name__ == "__main__":
    main()
