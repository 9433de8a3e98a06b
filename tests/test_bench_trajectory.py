"""tools/bench_trajectory.py on canned trees: run order, record reading and aggregation, with no benchmark run."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: A stand-in perfbench/run.py: it logs its argv to ../order.log beside the tree, removes every earlier
#: record of its tree (so a record must be read before the next run) and writes its own, each metric the
#: tree's run count plus the metric's position among the names it is given.
FAKE_RUN = '''\
import json, sys
from pathlib import Path
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
record = {"workload": args["--workload"], "seed": int(args["--seed"]), "env": {"tree": tree.name}, "metrics": metrics}
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


def test_summarize_groups_by_workload_and_keeps_distinct_envs(trajectory):
    def record(workload, seed, env, base):
        metrics = {m: {"value": base + i, "unit": "u"} for i, m in enumerate(trajectory.METRICS)}
        return {"workload": workload, "seed": seed, "env": env, "metrics": metrics}

    records = [record("symbolic", 1, {"a": 1}, 10.0), record("symbolic", 2, {"a": 2}, 20.0)]
    records += [record("deep-deck", 1, {"a": 1}, 30.0)]
    out = trajectory.summarize(records)
    assert out["env"] == [{"a": 1}, {"a": 2}]
    assert list(out["workloads"]) == ["symbolic", "deep-deck"]  # BENCHMARK.json order; absent ones left out
    first = trajectory.METRICS[0]
    assert out["workloads"]["symbolic"]["seeds"] == [1, 2]
    want = {"runs": [10.0, 20.0], "median": 15.0, "q1": 12.5, "q3": 17.5}
    assert out["workloads"]["symbolic"]["metrics"][first] == want
    assert out["workloads"]["deep-deck"]["metrics"][trajectory.METRICS[1]]["runs"] == [31.0]


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


@pytest.mark.parametrize("trees", [["nolabel"], ["=x"], ["a=x", "a=y"]])
def test_main_wants_distinct_labelled_trees(trajectory, trees):
    with pytest.raises(SystemExit):
        trajectory.main(["--number", "1", "--seeds", "1", *trees])
