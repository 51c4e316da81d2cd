"""Seeded inputs and output checks for the three benchmark workloads.

Every workload turns the benchmark seed into a pool of ``qnt`` command
lines (and, for ``etch-tree``, ``.topo`` files); the program sees only
those generated inputs.  Each :class:`Op` carries what its CSV must
contain, and :func:`check_csv` raises :class:`CheckFailure` when it does
not.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

FULL_GRID = tuple(range(100, 20001, 100))  # the --full-scale sample-size grid
# (command, truth, unicast probability) at the CLI defaults q = (0.5, 0.25, 0.35),
# s = m = 1: the truth is q_Z of link 1, s or m, and the denominator's unicast
# runs with probability (1 + q2 q3)/2 for star and (1 + q1 q2)/2 for spam-s and spam-m.
RATIO_EXPERIMENTS = (("star", 0.5, 0.54375), ("spam-s", 1.0, 0.5625), ("spam-m", 1.0, 0.5625))
RATIO_TRIALS = 1000
# A cell whose chance of a zero denominator (an EstimationError that aborts it,
# ROADMAP item 2) is at least this goes to the degenerate probe, not the timed pool.
DEGENERATE_RISK = 1e-12
PROBE_CELLS = 30
ETCH_SAMPLES = 10000
# Edges per tree, interleaved so that a partial pass stays balanced.  Odd
# counts of sizes and of trees per size put the median latency inside one
# size class, on one tree, rather than in the gap between two.
ETCH_SIZES = (200, 300, 250)
ETCH_TREES_PER_SIZE = 5
FLIP_PROB_RANGE = (0.0025, 0.025)  # per-Pauli flip probability, so every q lies in [0.9, 0.99]
# (send interval, cutoff), heavy and light cells alternating.  Cutoffs below
# the interval (0.05 at 0.1 s, 0.35 at 0.5 s) give a single wait pair, the
# others many.  An odd number of cells, whose costs do not overlap, puts the
# median latency inside one cell rather than in the gap between two.
LOSS_CELLS = (
    (0.1, 0.05), (0.5, 5.0), (0.1, 0.35), (0.5, 0.75),
    (0.1, 0.75), (0.5, 0.35), (0.1, 5.0),
)
LOSS_TRUTH = 0.5  # q_Z of link 1 at the CLI's default --q


class CheckFailure(AssertionError):
    """An operation's CSV does not hold what its inputs imply."""


class BenchmarkError(RuntimeError):
    """Generated inputs are unusable; the run stops without a result."""


@dataclass(frozen=True)
class Op:
    """One ``qnt`` command line and what its output must contain."""

    argv: tuple[str, ...]
    estimates: int  # parameter estimates one completed run produces
    truths: dict  # CSV target -> expected truth column


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trace_ops: int  # the fixed operation set of a traced run, and of the output digest
    build: Callable[[random.Random, Path], list[Op]]
    warmup: tuple[tuple[str, ...], ...]
    probe: Optional[Callable[[random.Random], list[Op]]] = None  # cells that may raise


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def degenerate_risk(p_uni: float, n_size: int, trials: int) -> float:
    """Chance that a cell of ``trials`` trials raises EstimationError: some trial's
    unicast count is exactly N/2, so 2p - 1 = 0 (the next value, 2/N, is far above
    the program's tolerance)."""
    half = n_size // 2
    log_pmf = (math.lgamma(n_size + 1) - 2.0 * math.lgamma(half + 1)
               + half * math.log(p_uni * (1.0 - p_uni)))
    return -math.expm1(trials * math.log1p(-math.exp(log_pmf)))


def _ratio_ops(rng: random.Random, count: int, degenerate: bool) -> list[Op]:
    """``count`` cells taken in turn from RATIO_EXPERIMENTS, M from the full grid and N
    from the grid values whose degenerate risk is below DEGENERATE_RISK, or, with
    ``degenerate``, at or above it."""
    n_grids = [[n for n in FULL_GRID
                if (degenerate_risk(p_uni, n, RATIO_TRIALS) >= DEGENERATE_RISK) == degenerate]
               for _, _, p_uni in RATIO_EXPERIMENTS]
    ops = []
    for i in range(count):
        command, truth, _ = RATIO_EXPERIMENTS[i % len(RATIO_EXPERIMENTS)]
        m_size = rng.choice(FULL_GRID)
        n_size = rng.choice(n_grids[i % len(RATIO_EXPERIMENTS)])
        argv = (command, "--m-samples", str(m_size), "--n-samples", str(n_size),
                "--trials", str(RATIO_TRIALS), "--seed", _seed(rng))
        target = {"star": "qZ1", "spam-s": "s", "spam-m": "m"}[command]
        ops.append(Op(argv, RATIO_TRIALS, {target: truth}))
    return ops


def build_ratio_grid(rng: random.Random, work_dir: Path) -> list[Op]:
    # A 40 s run takes about 700 cells, so the pool cycles only past about 4x that
    # speed; a repeated cell costs what it did the first time, since no state
    # carries from one CLI call to the next.
    return _ratio_ops(rng, 3000, degenerate=False)


def build_degenerate_probe(rng: random.Random) -> list[Op]:
    return _ratio_ops(rng, PROBE_CELLS, degenerate=True)


def random_tree(rng: random.Random, n_edges: int) -> tuple[str, dict]:
    """A random tree in the ``.topo`` schema, and each edge's q_Z.

    Grown from a degree-3 root by turning a random leaf into an internal
    node with two or three new leaves, so every internal node has degree
    >= 3 and every leaf is a monitor.  Each edge draws its three flip
    probabilities from FLIP_PROB_RANGE.
    """
    kinds = {"N0": "internal"}
    internal = ["N0"]
    leaves: list[str] = []
    edges: list[tuple[str, str]] = []

    def attach(parent: str) -> None:
        child = f"N{len(kinds)}"
        kinds[child] = "monitor"
        leaves.append(child)
        edges.append((parent, child))

    for _ in range(3):
        attach("N0")
    while len(edges) < n_edges:
        left = n_edges - len(edges)
        if left == 1:
            attach(rng.choice(internal))  # raises a degree that is already >= 3
            continue
        pick = rng.randrange(len(leaves))
        leaves[pick], leaves[-1] = leaves[-1], leaves[pick]
        node = leaves.pop()
        kinds[node] = "internal"
        internal.append(node)
        for _ in range(min(rng.choice((2, 3)), left)):
            attach(node)

    lines = [f"node {node} {kind}" for node, kind in kinds.items()]
    truths = {}
    for i, (node_a, node_b) in enumerate(edges):
        p_x, p_y, p_z = (rng.uniform(*FLIP_PROB_RANGE) for _ in range(3))
        q_x, q_y, q_z = 1.0 - 2.0 * (p_y + p_z), 1.0 - 2.0 * (p_x + p_z), 1.0 - 2.0 * (p_x + p_y)
        lines.append(f"edge E{i} {node_a} {node_b} {q_x!r} {q_y!r} {q_z!r}")
        truths[f"E{i}"] = q_z
    return "\n".join(lines) + "\n", truths


def _require_etchable(path: Path, n_edges: int) -> None:
    """Reject a generated file that the program would not etch as written."""
    from qnt import network, topo_io

    simplified, _ = network.simplify_degree2(topo_io.load_topology(str(path)))
    problems = network.validate(simplified, require_simplified=True)
    if problems or len(simplified.edges) != n_edges:
        detail = "; ".join(map(str, problems)) or f"{len(simplified.edges)} edges after simplification"
        raise BenchmarkError(f"generated topology {path} is not etchable: {detail}")


def build_etch_tree(rng: random.Random, work_dir: Path) -> list[Op]:
    work_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i in range(ETCH_TREES_PER_SIZE * len(ETCH_SIZES)):
        n_edges = ETCH_SIZES[i % len(ETCH_SIZES)]
        text, truths = random_tree(rng, n_edges)
        path = work_dir / f"tree-{i:02d}.topo"
        path.write_text(text, encoding="utf-8")
        _require_etchable(path, n_edges)
        argv = ("etch", "--topology", path.as_posix(), "--trials", "1",
                "--m-samples", str(ETCH_SAMPLES), "--seed", _seed(rng))
        ops.append(Op(argv, n_edges, truths))
    return ops


def build_loss_memory(rng: random.Random, work_dir: Path) -> list[Op]:
    ops = []
    for i in range(8 * len(LOSS_CELLS)):  # eight seeds per cell
        t_send, t_cutoff = LOSS_CELLS[i % len(LOSS_CELLS)]
        argv = ("loss", "--t-send", repr(t_send), "--t-cutoff", repr(t_cutoff),
                "--trials", "1", "--seed", _seed(rng))
        ops.append(Op(argv, 1, {"qZ1": LOSS_TRUTH}))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ratio-grid",
            why="star, spam-s and spam-m cells at 1000 trials on the full-scale (M, N) grid: the "
                "per-trial substream, sampling and estimator loop; cells that may hit the "
                "zero-denominator defect go to a probe",
            trace_ops=30,
            build=build_ratio_grid,
            warmup=tuple((cmd, "--m-samples", "10000", "--n-samples", "10000",
                          "--trials", "10", "--seed", "1") for cmd, _, _ in RATIO_EXPERIMENTS),
            probe=build_degenerate_probe,
        ),
        Workload(
            name="etch-tree",
            why="qnt etch on seeded random trees of 200-300 edges (internal degree >= 3, "
                "monitors on the leaves): quadratic branch selection in network dominates",
            trace_ops=15,
            build=build_etch_tree,
            warmup=(("etch", "--trials", "1", "--m-samples", "10000", "--seed", "1"),),
        ),
        Workload(
            name="loss-memory",
            why="qnt loss cells at send intervals 0.1 and 0.5 s over 1 h, cutoffs below and above "
                "the interval (one vs many wait pairs): the lossy slot loop and pauli merges",
            trace_ops=14,
            build=build_loss_memory,
            warmup=(("loss", "--t-send", "0.1", "--t-cutoff", "5.0", "--horizon", "60",
                     "--trials", "1", "--seed", "1"),),
        ),
    )
}


def _arg(argv: tuple[str, ...], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def check_csv(op: Op, text: str) -> None:
    """Raise CheckFailure unless ``text`` is the CSV ``op`` should print."""
    lines = text.splitlines()
    _require(len(lines) >= 2 and lines[0].startswith("# config "), "missing config header")
    columns = lines[1].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in lines[2:]]
    _require(len(rows) == len(op.truths),
             f"{len(rows)} rows, expected {len(op.truths)}")
    _require({row["target"] for row in rows} == set(op.truths), "row targets differ from the inputs")
    command = op.argv[0]
    for row in rows:
        _require(row["experiment"] == command.replace("-", "_"), f"experiment {row['experiment']!r}")
        _require(row["seed"] == _arg(op.argv, "--seed"), f"seed {row['seed']!r}")
        for column in ("mse", "mse_std"):
            _require(math.isfinite(float(row[column])), f"{column} = {row[column]} is not finite")
        _require(float(row["truth"]) == op.truths[row["target"]],
                 f"truth {row['truth']} for {row['target']}, expected {op.truths[row['target']]}")
        if command == "loss":
            _require(float(row["N"]) <= float(row["M"]),
                     f"received {row['N']} exceeds merged {row['M']}")
            _require(float(row["t_send_s"]) == float(_arg(op.argv, "--t-send")), "t_send_s differs")
            _require(float(row["t_cutoff_s"]) == float(_arg(op.argv, "--t-cutoff")), "t_cutoff_s differs")
        elif command != "etch":
            _require(row["M"] == _arg(op.argv, "--m-samples"), f"M = {row['M']}")
            _require(row["N"] == _arg(op.argv, "--n-samples"), f"N = {row['N']}")


def blank_runtime(text: str) -> str:
    """The CSV with its runtime_ms cells emptied: equal for equal config and seed."""
    lines = text.splitlines()
    out = lines[:2]
    runtime = lines[1].split(",").index("runtime_ms")
    for line in lines[2:]:
        cells = line.split(",")
        cells[runtime] = ""
        out.append(",".join(cells))
    return "\n".join(out) + "\n"
