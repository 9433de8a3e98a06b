"""The output invariants: every line of tools/result_digest.py against tests/result_digest.txt.

The digest hashes every library and ``cli.run`` result of fixed benchmark
cycles, one line per workload and one per operation kind, so a change that
moves any result bit fails here and names the kind lines that moved.  A
change that moves lines on purpose updates the pinned file and names each
moved line in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "result_digest.txt"


def _stack() -> str:
    """Python, numpy and scipy versions with the BLAS each was built against."""
    import numpy
    import scipy

    def blas(mod) -> str:
        b = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{b['name']} {b['version']}"

    v = sys.version_info
    return (
        f"python {v.major}.{v.minor}.{v.micro}; numpy {numpy.__version__} ({blas(numpy)}); "
        f"scipy {scipy.__version__} ({blas(scipy)})"
    )


def _digest_lines(monkeypatch) -> list[str]:
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/ and perfbench/
    spec = importlib.util.spec_from_file_location("result_digest", ROOT / "tools" / "result_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        tool.main()
    return out.getvalue().splitlines()


def test_result_digest_is_pinned(monkeypatch):
    text = PINNED.read_text().splitlines()
    pinned_stack = next(line.split(":", 1)[1].strip() for line in text if line.startswith("# stack:"))
    want = [line for line in text if line and not line.startswith("#")]
    got = _digest_lines(monkeypatch)

    def kinds(lines):  # "workload [call] count" -> sha256
        return {line.rsplit(" ", 1)[0]: line.rsplit(" ", 1)[1] for line in lines}

    w, g = kinds(want), kinds(got)
    moved = [key for key in w if g.get(key) != w[key]] + [key for key in g if key not in w]
    stack = _stack()
    note = "" if stack == pinned_stack else f"\npinned on {pinned_stack}\nrunning on {stack}"
    assert not moved, "digest lines moved:\n  " + "\n  ".join(moved) + note
    assert got == want, "digest lines reordered" + note
