"""Seeded inputs and the fixed round of CLI calls for each workload.

Every input is made here from the benchmark seed: hypergraphs are drawn with
Python's ``random.Random`` seeded by a string, written as ``.hg`` text with
permuted ``v<i>`` labels, and redrawn until connected so that every check
(and every sweep cut) applies.  The program only ever sees that text or
``verify --random`` arguments derived from the seed.

A round is a fixed list of operations.  A run repeats whole rounds, so the
share of failed operations is the same in every run.
"""

import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# The one operation kept although it fails today: `spectrum` on a file that
# is not UTF-8 must exit 1 with one `error:` line, but UnicodeDecodeError
# escapes `cli.run` instead.  The bytes are fixed, not drawn from the seed.
BAD_UTF8 = b"\xff\xfe a b\n"


@dataclass
class Input:
    """One generated hypergraph: edges over this module's vertex indices,
    the label of each vertex, and the oracle quantities the checks use."""

    name: str
    n: int
    edges: list
    labels: list
    text: str

    @cached_property
    def index(self) -> dict:
        return {lab: v for v, lab in enumerate(self.labels)}

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.array([len(e) for e in self.edges], dtype=np.int64)

    @cached_property
    def laplacian(self) -> np.ndarray:
        """L = diag(delta) - A with A = B B^T - diag(d), B the incidence
        matrix; exact in int64."""
        b = np.zeros((self.n, len(self.edges)), dtype=np.int64)
        for j, edge in enumerate(self.edges):
            b[list(edge), j] = 1
        adj = b @ b.T
        np.fill_diagonal(adj, 0)
        lap = -adj
        np.fill_diagonal(lap, adj.sum(axis=1))
        return lap

    @cached_property
    def delta(self) -> np.ndarray:
        return np.diagonal(self.laplacian).copy()

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigh(self.laplacian.astype(np.float64))[0]

    @cached_property
    def fro(self) -> float:
        return float(np.linalg.norm(self.laplacian.astype(np.float64)))

    @cached_property
    def connected(self) -> bool:
        return is_connected(self.n, self.edges)

    @cached_property
    def brute_force(self) -> tuple:
        return checks.brute_force_cuts(self.n, self.edges)

    def boundary(self, vertices) -> list:
        """Edges split by a vertex set, in this module's order."""
        inside = set(vertices)
        return [e for e in self.edges if 0 < sum(v in inside for v in e) < len(e)]


@dataclass
class Op:
    """One CLI call: its argv, how many analyses it completes when it
    succeeds (0 for a call that must reject its input), and the check that
    judges (exit code, stdout, stderr)."""

    label: str
    argv: list
    analyses: int
    check: Callable = field(repr=False)


def is_connected(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in edges:
        for v in edge[1:]:
            parent[find(v)] = find(edge[0])
    return len({find(v) for v in range(n)}) == 1


def make_input(name: str, seed: int, n: int, m: int, k_min: int, k_max: int) -> Input:
    """m distinct edges with sizes uniform on [k_min, k_max], redrawn until
    the hypergraph is connected.  Same (name, seed) -> same bytes."""
    rng = random.Random(f"perfbench/{name}/{seed}")
    while True:
        chosen = set()
        while len(chosen) < m:
            k = rng.randint(k_min, k_max)
            chosen.add(tuple(sorted(rng.sample(range(n), k))))
        edges = sorted(chosen)
        if is_connected(n, edges):
            break
    labels = [f"v{i}" for i in range(n)]
    universe = labels[:]
    rng.shuffle(universe)
    lines = [f"# perfbench {name} seed={seed} n={n} m={m} k={k_min}..{k_max}"]
    lines.append("!vertices " + " ".join(universe))
    rows = [list(e) for e in edges]
    rng.shuffle(rows)
    for row in rows:
        rng.shuffle(row)
        lines.append(" ".join(labels[v] for v in row))
    return Input(name, n, edges, labels, "\n".join(lines) + "\n")


def _write(inp: Input, directory: Path) -> str:
    path = directory / f"{inp.name}.hg"
    path.write_text(inp.text, encoding="utf-8")
    return str(path)


def _battery_ops(seed: int, directory: Path) -> list:
    # (n, m, count): the median call is the middle one in time.
    shapes = ((8, 6, 40), (12, 20, 20), (12, 20, 40))
    ops = []
    for slot, (n, m, count) in enumerate(shapes):
        base = random.Random(f"perfbench/battery/{seed}/{slot}").randrange(1 << 31)
        argv = ["verify", "--random", str(n), str(m), "2", "4", str(count), str(base)]
        ops.append(
            Op(f"battery-n{n}-x{count}", argv, count,
               checks.verify_random(count))
        )
    return ops


def _exact_ops(seed: int, directory: Path) -> list:
    # Seven calls, so the median call is `verify` at n=17.
    ops = []
    for n, m in ((16, 36), (17, 38), (18, 40), (19, 44)):
        inp = make_input(f"exact-n{n}-m{m}", seed, n, m, 2, 4)
        path = _write(inp, directory)
        ops.append(_file_op("verify", inp, path))
        if n >= 17:
            ops.append(_file_op("exact", inp, path))
    return ops


def _spectral_ops(seed: int, directory: Path) -> list:
    ops = []
    for n, m, commands in (
        (64, 400, ("spectrum", "bounds", "sweep", "verify")),
        (96, 800, ("spectrum", "bounds", "sweep", "verify")),
        (128, 1200, ("spectrum",)),
    ):
        inp = make_input(f"spectral-n{n}-m{m}", seed, n, m, 2, 4)
        path = _write(inp, directory)
        for command in commands:
            ops.append(_file_op(command, inp, path))
    return ops


def _file_op(command: str, inp: Input, path: str) -> Op:
    n = inp.n
    if command == "spectrum":
        return Op(f"spectrum-n{n}", ["spectrum", path], 1, checks.spectrum(inp))
    if command == "bounds":
        return Op(f"bounds-n{n}", ["bounds", path], 1, checks.bounds(inp))
    if command == "sweep":
        return Op(f"cuts-sweep-n{n}", ["cuts", path, "--sweep"], 1,
                  checks.cuts_sweep(inp))
    if command == "exact":
        return Op(f"cuts-exact-n{n}", ["cuts", path, "--exact"], 1,
                  checks.cuts_exact(inp))
    return Op(f"verify-n{n}", ["verify", path], 1, checks.verify_file(inp))


def _dense_ops(seed: int, directory: Path) -> list:
    n = 40
    inp = make_input("dense-n40-m20000", seed, n, 20000, 2, 8)
    path = _write(inp, directory)
    rng = random.Random(f"perfbench/dense-subsets/{seed}")
    half = [inp.labels[v] for v in sorted(rng.sample(range(n), n // 2))]
    few = [inp.labels[v] for v in sorted(rng.sample(range(n), 5))]
    bad = directory / "not-utf8.hg"
    bad.write_bytes(BAD_UTF8)
    return [
        _file_op("spectrum", inp, path),
        _file_op("bounds", inp, path),
        Op("cuts-subset-half", ["cuts", path, "--subset", ",".join(half)], 1,
           checks.cuts_subset(inp, half)),
        Op("cuts-subset-five", ["cuts", path, "--subset", ",".join(few)], 1,
           checks.cuts_subset(inp, few)),
        _file_op("verify", inp, path),
        Op("spectrum-not-utf8", ["spectrum", str(bad)], 0, checks.rejected),
    ]


WORKLOADS = {
    "battery": _battery_ops,
    "exact": _exact_ops,
    "spectral": _spectral_ops,
    "dense": _dense_ops,
}

# Operations that fail today because of a known fault in the program; any
# other failure makes the run incorrect.
KNOWN_FAULTS = {"spectrum-not-utf8"}


def build_ops(workload: str, seed: int, directory: Path) -> list:
    """The round for one workload, with its inputs written to directory."""
    return WORKLOADS[workload](seed, Path(directory))


def warm_up_ops(directory: Path) -> list:
    """Every subcommand once on a tiny input, run untimed before a run."""
    inp = make_input("warm-up", 0, 6, 5, 2, 3)
    path = _write(inp, Path(directory))
    ops = [_file_op(c, inp, path) for c in ("spectrum", "bounds", "sweep", "exact", "verify")]
    ops.append(Op("battery", ["verify", "--random", "6", "4", "2", "3", "2", "1"], 2,
                  checks.verify_random(2)))
    return ops
