"""Closed-loop benchmark of nctorus: one client, one process, seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 15 --trace 0

The client sends its next operation only after the previous one returned
and its result was checked by an oracle.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs half the time untraced and half with
every nctorus layer wrapped, and prints the per-layer metrics.  The last
line of standard output is one JSON object; the lines before it are a
readable account of the run, the environment and any failures.  Full
results and spans go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

#: One BLAS thread: keeps expm's tail latency out of the numbers on a small box.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
#: Fresh interpreters timed per run for setup_s and for cli_cold_s.
SETUP_RUNS = 5
COLD_RUNS = 9
#: Closed-loop busy time between two samples of the host-speed kernel.
KERNEL_EVERY_S = 0.01
#: The traced window stops early once it holds this many spans (28 bytes each).
SPAN_CAP = 2_000_000
CHILD_TIMEOUT_S = 60


def child_env() -> dict:
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}


class _Element:
    """Sparse twisted-Laurent element of the calibration kernel."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {key: c for key, c in terms.items() if c != 0}

    def __mul__(self, other: "_Element") -> "_Element":
        out: dict = {}
        for (m, n, k), a in self.terms.items():
            for (p, q, l), b in other.terms.items():
                key = (m + p, n + q, k + l - n * p)
                out[key] = out.get(key, 0j) + a * b
        return _Element(out)

    def __add__(self, other: "_Element") -> "_Element":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0j) + c
        return _Element(out)


class HostSpeed:
    """A fixed pure-Python kernel, timed beside the work to cancel host drift.

    On a shared host the CPU speed one process gets drifts by tens of
    percent over tens of seconds, for the program and this kernel alike.
    Every in-process time is calibrated: measured seconds x NOMINAL_S / the
    kernel's seconds measured next to it.  The kernel is the benchmark's own
    code: a 10 x 10 matrix product over small twisted-Laurent objects, the
    allocation and call pattern of the algebra's hot loop.  A change to
    nctorus moves the measured work and not the kernel.
    """

    #: Calibrated duration of one kernel run, close to its median on a
    #: 2.1 GHz Xeon with Python 3.11.
    NOMINAL_S = 500e-6

    def __init__(self):
        rng = random.Random(0)
        self._entries = [
            _Element({(rng.randint(-1, 1), rng.randint(-1, 1), 0): complex(rng.random(), rng.random())})
            for _ in range(10)
        ]

    def kernel_s(self) -> float:
        """Seconds for one run of the kernel."""
        t0 = time.perf_counter()
        for a in self._entries:
            acc = _Element({})
            for b in self._entries:
                acc = acc + a * b
        return time.perf_counter() - t0


class StartSpeed:
    """Reference child interpreter, timed between the measured children.

    Start-up work (process creation, page faults, loading numpy's and
    scipy's shared objects) drifts differently from in-process arithmetic,
    so children are calibrated against a fresh interpreter that imports
    numpy and scipy.linalg and nothing of nctorus: measured seconds x
    NOMINAL_S / the mean of the reference runs just before and after.
    """

    ARGV = [sys.executable, "-c", "import numpy, scipy.linalg"]
    #: Calibrated duration of one reference child, close to its median on
    #: a 2.1 GHz Xeon with Python 3.11, numpy 2.4 and scipy 1.17.
    NOMINAL_S = 0.4

    def __init__(self):
        self._last = self._reference()

    def _reference(self) -> float:
        wall, done = _run_child(self.ARGV)
        if done.returncode != 0:
            raise RuntimeError(f"reference child failed:\n{done.stderr.decode(errors='replace')}")
        return wall

    def timed(self, argv: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
        """Run a child to completion: (calibrated seconds, calibration factor, process)."""
        wall, done = _run_child(argv)
        after = self._reference()
        scale = self.NOMINAL_S / ((self._last + after) / 2)
        self._last = after
        return wall * scale, scale, done


def _run_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Wall seconds from spawn to exit of a child interpreter, and the process."""
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, done


def probe(workload: str, seed: int, start: StartSpeed, importtime: bool = False) -> tuple[float, float, str]:
    """Time one set-up probe: (calibrated seconds, calibration factor, stderr)."""
    flags = ["-X", "importtime"] if importtime else []
    argv = [sys.executable, *flags, str(HERE / "probe.py"), "--workload", workload, "--seed", str(seed)]
    wall, scale, done = start.timed(argv)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr.decode(errors='replace')}")
    return wall, scale, done.stderr.decode(errors="replace")


def import_times(stderr: str, scale: float) -> dict:
    """numpy and scipy.linalg cumulative, and nctorus self, import ms (calibrated)."""
    cumulative, nctorus_self = {}, 0
    for line in stderr.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        cumulative.setdefault(name, int(fields[1]))
        if name == "nctorus" or name.startswith("nctorus."):
            nctorus_self += int(fields[0])
    return {
        "import.numpy_ms": scale * cumulative.get("numpy", 0) / 1e3,
        "import.scipy_linalg_ms": scale * cumulative.get("scipy.linalg", 0) / 1e3,
        "import.nctorus_self_ms": scale * nctorus_self / 1e3,
    }


def cold_sample(workload: str, seed: int) -> list[dict]:
    """A fixed, seeded sample of the workload's scenarios, as CLI inputs."""
    from calls import scenario_of
    from workloads import Stream

    stream, found = Stream(workload, seed), []
    while len(found) < 2 * COLD_RUNS:
        for spec in stream.cycle():
            if spec["call"] == "cli.run" and "error" not in spec["expect"]:
                found.append(scenario_of(spec))
            elif spec["call"] in ("curvature_form", "is_flat"):
                command = "curvature" if spec["call"] == "curvature_form" else "flat"
                found.append({"v": 1, "command": command, "theta": spec["theta"], "connection": spec["connection"]})
    step = len(found) / COLD_RUNS
    return [found[int(i * step)] for i in range(COLD_RUNS)]


def cold_runs(scenarios: list[dict], start: StartSpeed) -> tuple[list[float], list[str]]:
    """Time ``python -m nctorus.cli --scenario`` on each; check its bytes."""
    from calls import canonical_report

    walls, failures = [], []
    for i, scenario in enumerate(scenarios):
        path = OUT / f"cold-{i}.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        argv = [sys.executable, "-m", "nctorus.cli", "--scenario", str(path.relative_to(ROOT))]
        wall, _, done = start.timed(argv)
        walls.append(wall)
        expected = canonical_report(scenario) + "\n"
        if done.returncode != 0 or done.stdout.decode() != expected:
            failures.append(f"cold run {i}: exit {done.returncode}, report differs from cli.run")
    return walls, failures


class Loop:
    """Closed-loop client over one stream; keeps latencies, verdicts and host speed."""

    def __init__(self, stream, speed: HostSpeed):
        self.stream = stream
        self.speed = speed
        self.latencies: list[float] = []
        #: (operations done when sampled, kernel seconds)
        self.kernel: list[tuple[int, float]] = []
        self.failures: Counter = Counter()
        #: right results outside the acceptance tolerance (oracles.DRIFT)
        self.drift: Counter = Counter()
        self.examples: dict = {}
        self.report_bytes = 0
        self.reports = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def run(self, seconds: float, tracer=None, span_cap: int | None = None) -> range:
        """Whole cycles until ``seconds`` pass; returns the operations run."""
        import calls
        import oracles

        first, since = self.attempted, 0.0
        clock = time.perf_counter
        t_end = clock() + seconds
        while True:
            memo: dict = {}
            for spec in self.stream.cycle():
                fn = calls.prepare(spec)
                t0 = clock()
                try:
                    value, error = (fn() if tracer is None else tracer.run_op(self.attempted, fn)), None
                except Exception as exc:  # a raised error is a result the oracle judges
                    value, error = None, exc
                elapsed = clock() - t0
                self.latencies.append(elapsed)
                if isinstance(value, str):
                    self.report_bytes += len(value)
                    self.reports += 1
                verdict = oracles.check(spec, value, error, memo)
                if verdict is not None:
                    key = (oracles.label(spec), verdict[0])
                    (self.drift if verdict[0] == oracles.DRIFT else self.failures)[key] += 1
                    self.examples.setdefault(key, verdict[1])
                since += elapsed
                if since >= KERNEL_EVERY_S:
                    self.kernel.append((self.attempted, self.speed.kernel_s()))
                    since = 0.0
            if clock() >= t_end or (span_cap is not None and len(tracer) >= span_cap):
                self.kernel.append((self.attempted, self.speed.kernel_s()))
                return range(first, self.attempted)

    def calibrated(self, ops: range) -> list[float]:
        """Calibrated seconds of each operation in ``ops``.

        Each latency is scaled by the median of the five kernel samples
        around the first sample taken after it.
        """
        marks = [m for m, _ in self.kernel]
        runs = [k for _, k in self.kernel]
        out, j = [], bisect.bisect_right(marks, ops.start)
        for i in ops:
            while marks[j] <= i:
                j += 1
            out.append(self.latencies[i] * HostSpeed.NOMINAL_S / statistics.median(runs[max(0, j - 2) : j + 3]))
        return out

    def scale(self, ops: range) -> float:
        """NOMINAL_S over the median kernel time sampled during ``ops``."""
        return HostSpeed.NOMINAL_S / statistics.median(k for m, k in self.kernel if ops.start < m <= ops.stop)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def end_to_end(loop: Loop, ops: range, setup: list[float], cold: list[float]) -> dict:
    lat_ms = [x * 1e3 for x in loop.calibrated(ops)]
    off = sum(loop.failures.values()) + sum(loop.drift.values())
    return {
        "setup_s": (statistics.median(setup), "s"),
        "cli_cold_s": (statistics.median(cold), "s"),
        "ops_per_s": (1e3 * len(lat_ms) / sum(lat_ms), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "ops_ok_ratio": ((loop.attempted - off) / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


#: Per-layer metric -> (span name, field); fields are per operation.
SPAN_METRICS = {
    "cli.run.calls": ("cli.run", "calls"),
    "cli.run.self_ms": ("cli.run", "self_ms"),
    "algebra.mul.calls": ("algebra.TorusElement.__mul__", "calls"),
    "algebra.mul.ms": ("algebra.TorusElement.__mul__", "ms"),
    "algebra.folded.calls": ("algebra.TorusElement.folded", "calls"),
    "algebra.folded.ms": ("algebra.TorusElement.folded", "ms"),
    "algebra.apply_auto.ms": ("algebra.apply_auto", "ms"),
    "forms.matrix_wedge.ms": ("forms.matrix_wedge", "ms"),
    "forms.matrix_d1.ms": ("forms.matrix_d1", "ms"),
    "forms.wedge.calls": ("forms.wedge", "calls"),
    "connections.curvature_form.ms": ("connections.curvature_form", "ms"),
    "connections.is_flat.ms": ("connections.is_flat", "ms"),
    "connections.curvature_commutator.ms": ("connections.curvature_commutator", "ms"),
    "connections.constant_weight_matrix.ms": ("connections.Connection.constant_weight_matrix", "ms"),
    "connections.transport.calls": ("connections.transport", "calls"),
    "connections.transport.self_ms": ("connections.transport", "self_ms"),
    "connections.expm.calls": ("connections.expm", "calls"),
    "connections.expm.ms": ("connections.expm", "ms"),
    "connections.check_transport_axioms.ms": ("connections.check_transport_axioms", "ms"),
    "connections.TransportOperator.apply.ms": ("connections.TransportOperator.apply", "ms"),
    "coverings.wilson.self_ms": ("coverings.wilson", "self_ms"),
    "coverings.check_path_independence.self_ms": ("coverings.check_path_independence", "self_ms"),
    "coverings.classify_path.ms": ("coverings.classify_path", "ms"),
    "coverings.project.ms": ("coverings.project", "ms"),
    "coverings.deck_act.ms": ("coverings.deck_act", "ms"),
    "infinitecover.wilson_relation.ms": ("infinitecover.wilson_relation", "ms"),
    "infinitecover.deck_act.calls": ("infinitecover.deck_act", "calls"),
    "infinitecover.deck_act.ms": ("infinitecover.deck_act", "ms"),
    "infinitecover.matrix_wilson_relation.ms": ("infinitecover.matrix_wilson_relation", "ms"),
}
#: Modules whose summed self time is reported as <module>.self_ms.
SELF_TIME_MODULES = ("algebra", "forms", "connections", "coverings", "infinitecover", "bench")


def per_layer(tracer, loop: Loop, ops: range, base: range, imports: dict) -> dict:
    import numpy as np

    totals = tracer.totals()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    scale, n = loop.scale(ops), len(ops)
    units = {"calls": "calls/op", "ms": "ms/op", "self_ms": "ms/op"}
    out = {name: (value, "ms") for name, value in imports.items()}
    for metric, (span, field) in SPAN_METRICS.items():
        t = totals.get(span, empty)
        value = t["calls"] if field == "calls" else 1e3 * scale * (t["s"] if field == "ms" else t["self_s"])
        out[metric] = (value / n, units[field])
    expm = tracer.durations("connections.expm")
    out["connections.expm.p90_us"] = (float(np.percentile(expm, 90)) * 1e6 * scale if len(expm) else 0.0, "us")
    out["algebra.mul.term_pairs"] = (tracer.term_pairs / n, "pairs/op")
    out["algebra.terms_hwm"] = (tracer.terms_hwm, "terms")
    out["cli.report_bytes"] = (loop.report_bytes / loop.reports if loop.reports else 0.0, "B/report")
    for module in SELF_TIME_MODULES:
        seconds = sum(t["self_s"] for name, t in totals.items() if name.split(".")[0] == module)
        out[f"{module}.self_ms"] = (1e3 * scale * seconds / n, "ms/op")
    out["trace.op_ms"] = (1e3 * scale * totals["bench.op"]["s"] / n, "ms/op")
    out["trace.spans_per_op"] = (len(tracer) / n, "spans/op")
    # traced over untraced operations per calibrated second
    out["trace.overhead_ratio"] = (sum(loop.calibrated(base)) / len(base) * n / sum(loop.calibrated(ops)), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Closed-loop nctorus benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nctorus" / "__init__.py").is_file():
        print(f"perfbench: no nctorus sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads in this process
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(parents=True, exist_ok=True)

    from workloads import WORKLOADS, Stream

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    start = StartSpeed()
    setup, cold, imports, extra_failures = [], [], {}, []
    if args.trace:
        _, scale, stderr = probe(args.workload, args.seed, start, importtime=True)
        imports = import_times(stderr, scale)
    else:
        setup = [probe(args.workload, args.seed, start)[0] for _ in range(SETUP_RUNS)]
        cold, extra_failures = cold_runs(cold_sample(args.workload, args.seed), start)

    loop = Loop(Stream(args.workload, args.seed), HostSpeed())
    if args.trace:
        from spans import Tracer

        base = loop.run(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            ops = loop.run(args.seconds / 2, tracer, SPAN_CAP)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, loop, ops, base, imports)
        tracer.dump(OUT / f"spans-{args.workload}.npz")  # one file per workload bounds disk use
    else:
        metrics = end_to_end(loop, loop.run(args.seconds), setup, cold)

    failed = sum(loop.failures.values()) + len(extra_failures)
    drift = sum(loop.drift.values())
    attempted = loop.attempted + len(cold)
    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "drift": drift,
        "ops_failed_ratio": (failed + drift) / attempted,
        "latency_samples": loop.attempted,
        "failures": [{"op": op, "kind": kind, "count": n, "example": loop.examples[(op, kind)]} for (op, kind), n in sorted(loop.failures.items())]
        + [{"op": "cli-cold", "kind": "bytes", "count": 1, "example": f} for f in extra_failures],
        "drifts": [{"op": op, "kind": kind, "count": n, "example": loop.examples[(op, kind)]} for (op, kind), n in sorted(loop.drift.items())],
        "setup_runs_s": setup,
        "cli_cold_runs_s": cold,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# ops attempted={attempted} failed={failed} drift={drift} ops_failed_ratio={record['ops_failed_ratio']:.6g} latency_samples={loop.attempted}")
    for f in record["failures"]:
        print(f"# failure {f['op']} [{f['kind']}] x{f['count']}: {f['example']}")
    for f in record["drifts"]:
        print(f"# drift {f['op']} x{f['count']}: {f['example']}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
