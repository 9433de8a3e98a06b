"""tools/bench_trajectory.py on canned trees: run order, record reading and aggregation, with no benchmark run."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: A stand-in perfbench/run.py: run as a script, it logs its argv to ../order.log beside the tree, removes
#: every earlier record of its tree (so a record must be read before the next run) and writes its own, each
#: metric the tree's run count plus the metric's position among the names it is given, and three cold runs
#: 10 * count + k.  Its cold_sample gives a curvature scenario at rank seed + the length of the tree's name, an
#: infinite-wilson one and the curvature one again, so a label read in the wrong tree would show.
FAKE_RUN = '''\
import json, sys
from pathlib import Path


def cold_sample(workload, seed):
    curvature = {"v": 1, "command": "curvature", "theta": 0.3, "connection": {"rank": seed + len(Path.cwd().name)}}
    return [curvature, {"v": 1, "command": "infinite-wilson"}, curvature]


if __name__ == "__main__":
    args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    tree = Path.cwd()
    out = tree / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    count = len(list(tree.glob("runs.*"))) + 1
    (tree / f"runs.{count}").touch()
    with open(tree.parent / "order.log", "a") as log:
        log.write(f"{args['--workload']} {args['--seed']} {tree.name} {args['--seconds']} {args['--trace']}\\n")
    for old in out.glob("result-*.json"):
        old.unlink()
    metrics = {name: {"value": count + i, "unit": "u"} for i, name in enumerate(%(metrics)r)}
    record = {"workload": args["--workload"], "seed": int(args["--seed"]), "env": {"tree": tree.name}}
    record.update(metrics=metrics, cli_cold_runs_s=[10 * count + k for k in range(3)])
    (out / f"result-{args['--workload']}-seed{args['--seed']}-trace0.json").write_text(json.dumps(record))
'''


@pytest.fixture
def trajectory(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_trajectory", ROOT / "tools" / "bench_trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_plan_alternates_which_tree_runs_first_within_every_workload(trajectory):
    order = trajectory.plan(["parent", "change"], [7, 8, 9])
    assert len(order) == 3 * 4 * 2
    for workload in trajectory.WORKLOADS:
        mine = [(seed, label) for w, seed, label in order if w == workload]
        assert mine == [(7, "parent"), (7, "change"), (8, "change"), (8, "parent"), (9, "parent"), (9, "change")]
    # each seed runs every workload before the next seed starts
    assert [seed for _, seed, _ in order] == [7] * 8 + [8] * 8 + [9] * 8


def test_spread_keeps_every_run_with_median_and_quartiles(trajectory):
    assert trajectory.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "runs": [4.0, 1.0, 3.0, 2.0, 5.0], "median": 3.0, "q1": 2.0, "q3": 4.0,
    }
    assert trajectory.spread([2.5]) == {"runs": [2.5], "median": 2.5, "q1": 2.5, "q3": 2.5}


def test_cold_label_is_the_command_and_the_connection_rank(trajectory):
    assert trajectory.cold_label("curvature", 3) == "curvature/r3"
    assert trajectory.cold_label("infinite-wilson", None) == "infinite-wilson"


def test_cold_runs_are_grouped_by_their_scenarios_label(trajectory):
    labels = {("symbolic", 1): ["curvature/r2", "flat/r4", "curvature/r2"], ("symbolic", 2): ["flat/r4", "classify"]}
    records = [
        {"workload": "symbolic", "seed": 1, "cli_cold_runs_s": [0.1, 0.2, 0.3]},
        {"workload": "symbolic", "seed": 2, "cli_cold_runs_s": [0.4, 0.5]},
    ]
    out = trajectory.by_command(records, labels)
    assert list(out) == ["curvature/r2", "flat/r4", "classify"]  # first-seen order
    assert out["curvature/r2"] == trajectory.spread([0.1, 0.3])
    assert out["flat/r4"] == trajectory.spread([0.2, 0.4])
    assert out["classify"] == trajectory.spread([0.5])
    with pytest.raises(SystemExit, match="2 labels for 3 cold runs"):
        trajectory.by_command([{**records[0], "seed": 2}], labels)


def test_summarize_groups_by_workload_and_keeps_distinct_envs(trajectory):
    def record(workload, seed, env, base):
        metrics = {m: {"value": base + i, "unit": "u"} for i, m in enumerate(trajectory.METRICS)}
        return {"workload": workload, "seed": seed, "env": env, "metrics": metrics, "cli_cold_runs_s": [base]}

    records = [record("symbolic", 1, {"a": 1}, 10.0), record("symbolic", 2, {"a": 2}, 20.0)]
    records += [record("deep-deck", 1, {"a": 1}, 30.0)]
    labels = {("symbolic", 1): ["curvature/r2"], ("symbolic", 2): ["curvature/r3"]}
    labels[("deep-deck", 1)] = ["infinite-wilson"]
    out = trajectory.summarize(records, labels)
    assert out["env"] == [{"a": 1}, {"a": 2}]
    assert list(out["workloads"]) == ["symbolic", "deep-deck"]  # BENCHMARK.json order; absent ones left out
    first = trajectory.METRICS[0]
    assert out["workloads"]["symbolic"]["seeds"] == [1, 2]
    want = {"runs": [10.0, 20.0], "median": 15.0, "q1": 12.5, "q3": 17.5}
    assert out["workloads"]["symbolic"]["metrics"][first] == want
    assert out["workloads"]["deep-deck"]["metrics"][trajectory.METRICS[1]]["runs"] == [31.0]
    assert out["workloads"]["symbolic"]["cold_by_command"] == {
        "curvature/r2": trajectory.spread([10.0]), "curvature/r3": trajectory.spread([20.0]),
    }


def test_verdict_counts_won_pairs_and_reads_the_parents_spread_and_the_bound(trajectory):
    def records(workload, values):
        """One record per seed 1, 2, ...: the named metrics' values, every other metric 1.0."""
        out = []
        for seed, row in enumerate(zip(*values.values()), start=1):
            metrics = {m: {"value": 1.0, "unit": "u"} for m in trajectory.METRICS}
            metrics.update({m: {"value": v, "unit": "u"} for m, v in zip(values, row)})
            out.append({"workload": workload, "seed": seed, "metrics": metrics})
        return out

    assert trajectory.RULES["op_p50_ms"] == (False, 0.15) and trajectory.RULES["ops_per_s"] == (True, 0.15)
    assert trajectory.RULES["setup_s"] == (False, 0.25)
    parent = records("symbolic", {"op_p50_ms": [10, 11, 12, 13, 14], "ops_per_s": [100] * 5, "setup_s": [1.0] * 5})
    parent += records("deep-deck", {"ops_per_s": [100] * 5})  # the change never ran it: no verdict
    change = records("symbolic", {"op_p50_ms": [9, 10, 12, 9, 9], "ops_per_s": [80, 84, 100, 110, 120],
                                  "setup_s": [1.3] * 5})
    out = trajectory.verdict(parent, change)
    assert list(out) == ["symbolic"] and list(out["symbolic"]) == trajectory.METRICS
    # lower is better: 4 of 5 won, the tie at seed 3 counting for neither; median 12 -> 9 against IQR 11..13
    assert out["symbolic"]["op_p50_ms"] == {
        "pairs": 5, "won": 4, "shift": -3, "parent_iqr": 2, "beyond_parent_iqr": True, "within_bound": True,
    }
    # higher is better: 2 won, 1 tie; the median 100 is no shift beyond an IQR of 0 and within 15%
    assert out["symbolic"]["ops_per_s"] == {
        "pairs": 5, "won": 2, "shift": 0, "parent_iqr": 0, "beyond_parent_iqr": False, "within_bound": True,
    }
    # 1.0 -> 1.3 s is beyond the 25% bound
    assert out["symbolic"]["setup_s"]["within_bound"] is False and out["symbolic"]["setup_s"]["won"] == 0
    assert out["symbolic"]["cli_cold_s"] == {
        "pairs": 5, "won": 0, "shift": 0, "parent_iqr": 0, "beyond_parent_iqr": False, "within_bound": True,
    }
    # a median just past the bound of a higher-is-better metric fails it; only seeds run by both are pairs
    low = records("symbolic", {"ops_per_s": [80, 84, 84, 90, 100, 500]})
    out = trajectory.verdict(parent, low)["symbolic"]["ops_per_s"]
    assert (out["pairs"], out["won"], out["within_bound"]) == (5, 0, True)  # median of 6 runs is 87
    out = trajectory.verdict(parent, low[:5])["symbolic"]["ops_per_s"]
    assert (out["shift"], out["within_bound"]) == (-16, False)


def test_main_runs_each_trees_own_runner_and_writes_the_file(trajectory, tmp_path, monkeypatch):
    for name, line in (("base", "digest of base"), ("new", "digest of new")):
        tree = tmp_path / name
        (tree / "perfbench").mkdir(parents=True)
        (tree / "tools").mkdir()
        (tree / "perfbench" / "run.py").write_text(FAKE_RUN % {"metrics": trajectory.METRICS})
        (tree / "tools" / "result_digest.py").write_text(f"print({line!r})\n")
    monkeypatch.setattr(trajectory, "ROOT", tmp_path)
    argv = [f"a={tmp_path / 'base'}", f"b={tmp_path / 'new'}", "--number", "7", "--seeds", "3", "4"]
    path = trajectory.main(argv)
    assert path == tmp_path / "BENCH_7.json"
    out = json.loads(path.read_text())
    order = [tuple(x) for x in out["order"]]
    assert order == trajectory.plan(["a", "b"], [3, 4])
    names = {"a": "base", "b": "new"}
    logged = (tmp_path / "order.log").read_text().splitlines()
    seconds = trajectory.SPEC["run_seconds"]
    assert logged == [f"{w} {seed} {names[label]} {seconds} 0" for w, seed, label in order]
    assert (out["workloads"], out["seeds"], out["seconds"]) == (trajectory.WORKLOADS, [3, 4], seconds)
    # the first tree is the parent: the other gets a verdict on every workload and metric, two pairs each
    assert list(out["verdict"]) == ["b"] and list(out["verdict"]["b"]) == trajectory.WORKLOADS
    assert {v["pairs"] for w in out["verdict"]["b"].values() for v in w.values()} == {2}
    for label, tree in names.items():
        mine = out["trees"][label]
        assert mine["result_digest"] == [f"digest of {tree}"]
        assert mine["env"] == [{"tree": tree}]
        # the tree's k-th run read k for the first metric: each record was read before the next run removed it
        counts = {w: [] for w in trajectory.WORKLOADS}
        for k, (w, _, run_label) in enumerate([x for x in order if x[2] == label], start=1):
            counts[w].append(k)
        for w in trajectory.WORKLOADS:
            assert mine["workloads"][w]["seeds"] == [3, 4]
            assert mine["workloads"][w]["metrics"][trajectory.METRICS[0]]["runs"] == counts[w]
            assert mine["workloads"][w]["metrics"][trajectory.METRICS[2]]["runs"] == [k + 2 for k in counts[w]]
            # run k's cold walls 10k, 10k + 1, 10k + 2, labelled by the tree's own cold_sample at that seed
            want = {}
            for k, seed in zip(counts[w], mine["workloads"][w]["seeds"]):
                curvature = f"curvature/r{seed + len(tree)}"
                for name, wall in ((curvature, 10 * k), ("infinite-wilson", 10 * k + 1), (curvature, 10 * k + 2)):
                    want.setdefault(name, []).append(wall)
            assert mine["workloads"][w]["cold_by_command"] == {name: trajectory.spread(v) for name, v in want.items()}


@pytest.mark.parametrize("trees", [["nolabel"], ["=x"], ["a=x", "a=y"]])
def test_main_wants_distinct_labelled_trees(trajectory, trees):
    with pytest.raises(SystemExit):
        trajectory.main(["--number", "1", "--seeds", "1", *trees])
