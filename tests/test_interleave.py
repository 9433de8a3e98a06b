"""tools/interleave.py: one round of one src/ tree against itself."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_interleave_runs_a_round_of_one_tree_against_itself():
    src = str(ROOT / "src")
    argv = [sys.executable, "-W", "error", str(ROOT / "tools" / "interleave.py"), src, src]
    argv += ["--workload", "symbolic", "--kind", "check_transport_axioms/r4", "--cycles", "1", "--rounds", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == "symbolic: 2 operations (check_transport_axioms/r4), 1 rounds"
    for line, name in zip(lines[1:3], ("base", "new")):
        assert re.fullmatch(rf"{name}: median \d+\.\d{{3}} ms  \({re.escape(src)}\)", line), line
    ratio = re.fullmatch(r"new/base: (\d+\.\d{3}) \(median by round\)  new faster in [01] of 1 rounds", lines[3])
    assert ratio, lines[3]
    # one round: its ratio is every quartile, and their median
    assert lines[4] == f"new/base by round: quartiles {ratio[1]} {ratio[1]} {ratio[1]}"
    assert len(lines) == 5


def test_interleave_names_the_kinds_when_none_match():
    src = str(ROOT / "src")
    argv = [sys.executable, str(ROOT / "tools" / "interleave.py"), src, src, "--workload", "symbolic"]
    proc = subprocess.run(argv + ["--kind", "wilson", "--cycles", "1", "--rounds", "1"], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "no symbolic operation of kind wilson" in proc.stderr and "check_transport_axioms/r4" in proc.stderr


def test_interleave_kinds_name_the_cli_command_and_its_rank():
    # cli.run:<command>/r<rank> keeps one command at one rank, cli.run:<command> it at every rank, and the
    # plain call cli.run still keeps every cli.run operation: all of paper-mix
    src = str(ROOT / "src")
    argv = [sys.executable, "-W", "error", str(ROOT / "tools" / "interleave.py"), src, src, "--workload", "paper-mix"]
    env, counts = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}, {}
    for kinds in (["cli.run:independence/r4"], ["cli.run:independence"], ["cli.run"], []):
        args = [arg for k in kinds for arg in ("--kind", k)] + ["--cycles", "4", "--rounds", "1"]
        proc = subprocess.run(argv + args, capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        line, named = proc.stdout.splitlines()[0], re.escape(", ".join(kinds) or "every kind")
        match = re.fullmatch(rf"paper-mix: (\d+) operations \({named}\), 1 rounds", line)
        assert match, line
        counts[tuple(kinds)] = int(match[1])
    want = [counts[("cli.run:independence/r4",)], counts[("cli.run:independence",)], counts[("cli.run",)]]
    assert 0 < want[0] < want[1] < want[2] == counts[()]


def test_load_imports_every_nctorus_module_of_the_tree():
    # a module that a function imports on its first call (nctorus.reports) loads with the tree, before a
    # block is timed, as it has after the benchmark's first operation
    src = ROOT / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import interleave; interleave.load(sys.argv[2]); "
        "print(sorted(m.partition('.')[2] for m in sys.modules if m.startswith('nctorus.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, str(ROOT / "tools"), str(src)],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    modules = sorted(path.stem for path in (src / "nctorus").glob("*.py") if path.stem != "__init__")
    assert "reports" in modules and proc.stdout.strip() == repr(modules)
