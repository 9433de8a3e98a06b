"""Hash every library and ``cli.run`` result of fixed benchmark cycles.

Usage: ``python3 tools/result_digest.py`` from any directory.  It runs 10
paper-mix, 3 rank-sweep, 2 symbolic and 10 deep-deck cycles of
``perfbench/workloads.py`` at seeds 1-6, each operation through
``perfbench/calls.py``, and prints one ``workload count sha256`` line per
workload.  Under it goes one ``workload call count sha256`` line per operation
kind (the spec's ``call``), in order of first use, hashing the same results
of that kind alone; a ``cli.run`` operation also counts under the kind
``cli.run:<command>`` of its scenario.  Two checkouts that print the same
lines give byte-identical results on all of these operations; a moved kind
line tells which entry point, or which CLI command, changed them.

A result is serialized as sorted-key ``to_dict()`` JSON when it has
``to_dict``, elementwise for a tuple or list (a constant matrix is a tuple of
complex rows), as ``repr`` otherwise, and as ``"<class name>: <message>"``
when the call raised.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import calls  # noqa: E402
from workloads import Stream  # noqa: E402

CYCLES = {"paper-mix": 10, "rank-sweep": 3, "symbolic": 2, "deep-deck": 10}
SEEDS = range(1, 7)


def chunks(value):
    """The bytes that stand for one result, in hashing order."""
    if hasattr(value, "to_dict"):
        yield json.dumps(value.to_dict(), sort_keys=True).encode()
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from chunks(item)
    else:
        yield repr(value).encode()


def main() -> None:
    for workload, cycles in CYCLES.items():
        digest, count = hashlib.sha256(), 0
        kinds: dict[str, list] = {}  # call -> [count, sha256 of its results]
        for seed in SEEDS:
            stream = Stream(workload, seed)
            for _ in range(cycles):
                for spec in stream.cycle():
                    try:
                        value = calls.prepare(spec)()
                    except Exception as exc:  # every error class and message is part of the result
                        value = f"{type(exc).__name__}: {exc}"
                    names = [spec["call"]]
                    if spec["call"] == "cli.run":
                        names.append("cli.run:" + calls.scenario_of(spec)["command"])
                    own = [kinds.setdefault(name, [0, hashlib.sha256()]) for name in names]
                    for chunk in chunks(value):
                        digest.update(chunk)
                        for kind in own:
                            kind[1].update(chunk)
                    count += 1
                    for kind in own:
                        kind[0] += 1
        print(workload, count, digest.hexdigest())
        for call, (n, kind_digest) in kinds.items():
            print(workload, call, n, kind_digest.hexdigest())


if __name__ == "__main__":
    main()
