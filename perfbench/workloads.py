"""Seeded operation streams for the benchmark workloads.

An operation is a plain JSON dict ("spec") that names one public nctorus
entry point, its inputs, and under "expect" what the oracles need to know
about how those inputs were built.  Generation never imports nctorus: the
program only ever sees the generated inputs.

Every workload repeats a fixed cycle of operation kinds and the seed picks
every numeric parameter.  The fixed cycle keeps the mixture of kinds, and
with it the latency percentiles, the same from seed to seed; log-uniform
magnitudes are drawn from a seeded low-discrepancy sequence for the same
reason.
"""

from __future__ import annotations

import math
import random

import numpy as np

WORKLOADS = ("paper-mix", "rank-sweep", "symbolic", "deep-deck")

#: Fractional parts of these irrationals step the low-discrepancy sequences.
_STEPS = ((math.sqrt(5) - 1) / 2, math.sqrt(2) - 1, math.sqrt(3) - 1, math.pi - 3)

#: Samples per check_transport_axioms call on the symbolic workload.
AXIOM_SAMPLES = 5


def _c(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix(a) -> list:
    return [[_c(z) for z in row] for row in np.asarray(a, dtype=complex)]


class Stream:
    """Endless, seeded sequence of operation cycles for one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r} (choose from: {', '.join(WORKLOADS)})")
        self.workload = workload
        self.rng = random.Random(f"{workload}/{seed}")
        self._phase = [self.rng.random() for _ in _STEPS]
        self._cycle = getattr(self, "_cycle_" + workload.replace("-", "_"))
        self._conn_ids = 0

    def cycle(self) -> list[dict]:
        """The next cycle of operation specs."""
        return self._cycle()

    # -- shared generators ---------------------------------------------

    def _log_uniform(self, lane: int, top: float) -> int:
        """Integer in [1, top], log-uniform, from low-discrepancy lane ``lane``."""
        self._phase[lane] = (self._phase[lane] + _STEPS[lane]) % 1.0
        return max(1, int(top ** self._phase[lane]))

    def _signed(self, magnitude: int) -> int:
        return magnitude if self.rng.random() < 0.5 else -magnitude

    def _theta(self) -> float:
        return self.rng.uniform(0.01, 0.99)

    def _coupling(self) -> float:
        return self.rng.uniform(-1.0, 1.0)

    def _degrees(self, top: int = 4) -> list[int]:
        return [self.rng.randint(1, top), self.rng.randint(1, top)]

    def _scalar_model(self) -> dict:
        return {"model": "scalar", "c_u": self._coupling(), "c_v": self._coupling()}

    def _block_model(self) -> dict:
        return {"model": "block", "c_u": self._coupling(), "c_v": self._coupling()}

    def _unitary_model(self, rank: int) -> dict:
        """Theta_X = i Q D_X Q* with Q Haar-random unitary: antihermitian, flat."""
        gen = np.random.default_rng(self.rng.getrandbits(64))
        z = gen.standard_normal((rank, rank)) + 1j * gen.standard_normal((rank, rank))
        q, r = np.linalg.qr(z)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        return {
            "model": "unitary",
            "q": _matrix(q),
            "d_u": [self._coupling() for _ in range(rank)],
            "d_v": [self._coupling() for _ in range(rank)],
        }

    def _element(self, theta: float, terms: int, max_exp: int, max_lk: int) -> dict:
        keys = set()
        while len(keys) < terms:
            keys.add(
                (
                    self.rng.randint(-max_exp, max_exp),
                    self.rng.randint(-max_exp, max_exp),
                    self.rng.randint(-max_lk, max_lk),
                )
            )
        return {
            "theta": theta,
            "terms": [
                {"m": m, "n": n, "re": self.rng.uniform(-1, 1), "im": self.rng.uniform(-1, 1), "lk": k}
                for m, n, k in sorted(keys)
            ],
        }

    def _closed_weights(self, degrees: list[int], count: int) -> list[list[int]]:
        """Distinct closed-path weights that share one deck element.

        The first weight is coprime, so it is a closed path; the others add
        multiples of the degrees, which keeps the deck element.
        """
        k1, k2 = degrees
        first = [0, 0]
        while math.gcd(*first) != 1:
            first = [self.rng.randint(-4, 4), self.rng.randint(-4, 4)]
        out = [first]
        while len(out) < count:
            w = [first[0] + k1 * self.rng.randint(-2, 2), first[1] + k2 * self.rng.randint(-2, 2)]
            if math.gcd(*w) == 1 and w not in out:
                out.append(w)
        return out

    # -- CLI scenarios -------------------------------------------------

    @staticmethod
    def _connection(model: dict) -> dict:
        """Scenario connection payload for a constant-coefficient model."""
        kind = model["model"]
        if kind == "scalar":
            return {
                "rank": 1,
                "theta_u": [[[0.0, model["c_u"]]]],
                "theta_v": [[[0.0, model["c_v"]]]],
                "constant": True,
            }
        if kind == "block":
            tu = np.zeros((4, 4), dtype=complex)
            tv = np.zeros((4, 4), dtype=complex)
            tu[0, 1], tu[1, 0] = -model["c_u"], model["c_u"]
            tv[2, 3], tv[3, 2] = -model["c_v"], model["c_v"]
        else:
            q = np.array([[complex(*z) for z in row] for row in model["q"]])
            tu = 1j * (q * np.array(model["d_u"])) @ q.conj().T
            tv = 1j * (q * np.array(model["d_v"])) @ q.conj().T
        return {"rank": len(tu), "theta_u": _matrix(tu), "theta_v": _matrix(tv), "constant": True}

    def _cli(self, command: str, model: dict | None = None, **fields) -> dict:
        scenario = {"v": 1, "command": command, "theta": self._theta()}
        if model is not None:
            scenario["connection"] = self._connection(model)
        scenario.update(fields)
        return {"call": "cli.run", "scenario": scenario, "expect": model or {}}

    def _wilson(self, model: dict) -> dict:
        degrees = self._degrees(3)
        deck = [self.rng.randint(-3, 5), self.rng.randint(-3, 5)]
        return self._cli("wilson", model, covering={"degrees": degrees}, params={"deck": deck})

    def _transport(self, model: dict) -> dict:
        weight = [round(self.rng.uniform(-2, 2), 6), round(self.rng.uniform(-2, 2), 6)]
        tau = round(self.rng.uniform(-1.5, 1.5), 6)
        return self._cli("transport", model, paths=[weight], params={"tau": tau})

    def _independence(self, model: dict) -> dict:
        degrees = self._degrees(3)
        paths = self._closed_weights(degrees, self.rng.randint(2, 3))
        deck = [paths[0][0] % degrees[0], paths[0][1] % degrees[1]]
        return self._cli(
            "independence", model, covering={"degrees": degrees}, paths=paths, params={"deck": deck}
        )

    def _classify(self, top: int, degrees_top: int, count: int) -> dict:
        paths = []
        while len(paths) < count:
            w = [self.rng.randint(-top, top), self.rng.randint(-top, top)]
            if w != [0, 0]:
                paths.append(w)
        return self._cli("classify", covering={"degrees": self._degrees(degrees_top)}, paths=paths)

    def _infinite_wilson(self, p: int, q: int) -> dict:
        return self._cli(
            "infinite-wilson", params={"c_u": self._coupling(), "c_v": self._coupling(), "deck": [p, q]}
        )

    def _invalid(self) -> dict:
        """A scenario the CLI must reject; ``expect.error`` is its exit code."""
        pick = self.rng.randrange(8)
        if pick == 0:
            op = self._classify(8, 4, 2)
            del op["scenario"]["theta"]
            code = 2
        elif pick == 1:
            op = self._cli("holonomy")
            code = 2
        elif pick == 2:
            op = self._wilson(self._scalar_model())
            op["scenario"]["theta"] = 1.0 + self.rng.random()
            code = 2
        elif pick == 3:
            op = self._wilson(self._scalar_model())
            op["scenario"]["params"]["deck"] = [0.5, 1]
            code = 2
        elif pick == 4:
            op = self._wilson(self._block_model())
            op["scenario"]["connection"]["rank"] = 3
            code = 2
        elif pick == 5:
            # Pauli-type Theta_u, Theta_v do not commute: curvature is nonzero
            c = self._coupling()
            op = self._wilson(self._scalar_model())
            op["scenario"]["connection"] = {
                "rank": 2,
                "theta_u": [[[0.0, 0.0], [0.0, c]], [[0.0, c], [0.0, 0.0]]],
                "theta_v": [[[0.0, 0.0], [c, 0.0]], [[-c, 0.0], [0.0, 0.0]]],
                "constant": True,
            }
            code = 3
        elif pick == 6:
            op = self._transport(self._scalar_model())
            theta = op["scenario"]["theta"]
            op["scenario"]["connection"]["theta_u"] = [[self._element(theta, 3, 3, 2)]]
            code = 3
        else:
            op = self._classify(8, 4, 2)
            op["scenario"]["paths"].append([0, 0])
            code = 3
        op["expect"] = {"error": code}
        return op

    # -- workload cycles -------------------------------------------------

    def _cycle_paper_mix(self) -> list[dict]:
        r = self.rng

        def small():
            return r.randint(-8, 8)

        models = (self._scalar_model, self._block_model)
        return [
            self._builtin("paper-scalar"),
            self._wilson(self._scalar_model()),
            self._wilson(self._block_model()),
            self._infinite_wilson(small(), small()),
            self._classify(8, 4, r.randint(1, 4)),
            self._builtin("paper-4x4"),
            self._transport(self._scalar_model()),
            self._transport(self._block_model()),
            self._independence(r.choice(models)()),
            self._infinite_wilson(small(), small()),
            self._builtin("paper-cover"),
            self._cli("flat", self._scalar_model()),
            self._cli("flat", self._block_model()),
            self._classify(8, 4, r.randint(1, 4)),
            self._invalid(),
            self._builtin("paper-infinite"),
            self._cli("curvature", self._scalar_model()),
            self._cli("curvature", self._block_model()),
            self._independence(r.choice(models)()),
            self._infinite_wilson(small(), small()),
        ]

    @staticmethod
    def _builtin(name: str) -> dict:
        """A bundled scenario, looked up by name as ``nctorus --builtin`` does."""
        return {"call": "cli.run", "builtin": name, "expect": {"model": "builtin", "name": name}}

    def _rank_op(self, command: str, rank: int) -> dict:
        model = self._unitary_model(rank)
        if command == "wilson":
            return self._wilson(model)
        if command == "transport":
            return self._transport(model)
        if command == "independence":
            return self._independence(model)
        return self._cli(command, model)

    def _cycle_rank_sweep(self) -> list[dict]:
        order = (
            ("curvature", 16), ("curvature", 8), ("flat", 8), ("transport", 16), ("wilson", 8),
            ("independence", 8), ("flat", 16), ("transport", 8), ("curvature", 8), ("wilson", 16),
            ("flat", 8), ("independence", 16), ("wilson", 8), ("transport", 8), ("independence", 8),
        )  # fmt: skip
        return [self._rank_op(command, rank) for command, rank in order]

    def _symbolic_connection(self, rank: int) -> dict:
        theta = self._theta()
        self._conn_ids += 1

        def entries():
            return [
                [self._element(theta, self.rng.randint(3, 4), 3, 2) for _ in range(rank)]
                for _ in range(rank)
            ]

        return {
            "theta": theta,
            "connection": {"rank": rank, "theta_u": entries(), "theta_v": entries(), "constant": False},
            "conn": self._conn_ids,
        }

    def _antihermitian(self, rank: int) -> list:
        h = np.array([[complex(self._coupling(), self._coupling()) for _ in range(rank)] for _ in range(rank)])
        return _matrix(0.5j * (h + h.conj().T))

    def _axioms(self, rank: int) -> dict:
        if rank == 1:
            conn = self._connection(self._scalar_model())
        else:
            conn = {
                "rank": rank,
                "theta_u": self._antihermitian(rank),
                "theta_v": self._antihermitian(rank),
                "constant": True,
            }
        return {
            "call": "check_transport_axioms",
            "theta": self._theta(),
            "connection": conn,
            "weight": [self.rng.randint(-2, 2), self.rng.randint(1, 2)],
            "samples": AXIOM_SAMPLES,
            "seed": self.rng.getrandbits(32),
        }

    def _cycle_symbolic(self) -> list[dict]:
        # The two rank-4 axiom checks are the slowest kind and a tight one:
        # p90 falls inside them rather than in a tail of the curvature times.
        ops = []
        for rank, axioms in ((2, (1,)), (3, (1, 4)), (4, (4,))):
            conn = self._symbolic_connection(rank)
            for call in ("curvature_form", "curvature_commutator", "is_flat"):
                ops.append({"call": call, **conn})
            ops.extend(self._axioms(r) for r in axioms)
        return ops

    def _deep_wilson(self) -> dict:
        return self._infinite_wilson(
            self._signed(self._log_uniform(0, 1e5)), self._signed(self._log_uniform(1, 1e5))
        )

    def _deep_matrix(self) -> dict:
        return {
            "call": "matrix_wilson_relation",
            "p": self._signed(self._log_uniform(2, 1e4)),
            "q": self._signed(self._log_uniform(3, 1e4)),
            "c_u": self._coupling(),
            "c_v": self._coupling(),
        }

    def _deep_cover(self, call: str) -> dict:
        degrees = [self._log_uniform(2, 1e3), self._log_uniform(3, 1e3)]
        theta = self._theta()
        op = {"call": call, "theta": theta, "degrees": degrees}
        if call == "project":
            op["element"] = self._element(theta, 64, 50, 5)
        elif call == "deck_act":
            op["deck"] = [self.rng.randrange(degrees[0]), self.rng.randrange(degrees[1])]
            op["element"] = self._element(theta / (degrees[0] * degrees[1]), 64, 5000, 5)
        else:
            w = [0, 0]
            while w == [0, 0]:
                w = [self.rng.randint(-1000, 1000), self.rng.randint(-1000, 1000)]
            op["weight"] = w
        return op

    def _cycle_deep_deck(self) -> list[dict]:
        # As many classify_path and project below deck_act's tight latency
        # band as Wilson relations above it: p50 falls inside that band
        # rather than in the steep low tail of the |p|-linear Wilson times.
        return [
            self._deep_wilson(),
            self._deep_matrix(),
            self._deep_cover("project"),
            self._deep_cover("classify_path"),
            self._deep_wilson(),
            self._deep_cover("deck_act"),
            self._deep_cover("classify_path"),
            self._deep_wilson(),
            self._deep_cover("deck_act"),
            self._deep_cover("classify_path"),
            self._deep_wilson(),
            self._deep_matrix(),
            self._deep_cover("deck_act"),
        ]
