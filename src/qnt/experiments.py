"""Experiment drivers: seeded Monte Carlo grids with CSV output.

Each driver sweeps a sample-size (or timing) grid, estimates ``trials``
times per cell (a ratio cell draws them from one substream per protocol,
etching from one per round, basis and protocol, ``loss`` from one seed per
trial), and emits one CSV row per cell (per edge, for etching).  The
header is the fields of :class:`Row`, a fixed prefix

    experiment,M,N,s,m,truth,mse,mse_std,n_degenerate,crb,runtime_ms,seed

followed by context columns ``target,step,t_send_s,t_cutoff_s`` that are
blank where they do not apply.  ``n_degenerate`` counts a cell's NaN trials
(those that could not divide, or ``loss`` trials that received nothing), and
``mse`` and ``mse_std`` are over the others.  The first line of every file is a
``#`` comment embedding the experiment, the config fields it reads (the ``reads``
of its ``EXPERIMENTS`` entry) and ``VERSIONS``.  Apart from the ``runtime_ms``
column and the versions, output is byte-identical for identical config and seed.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import numbers
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__, lossy, network, protocols, stats, topo_io
from .pauli import ChannelValidationError, PauliChannel
from .protocols import SpamModel

# The most trials a cell may have, and the most trials times edges an etch run may
# have: a ratio cell holds its trials' counts, estimates and squared errors at once,
# about 66 bytes per trial, and an etch run about 57 bytes per trial and edge, so at
# most 0.7 GB at the cap.
MAX_TRIALS = 10**7
DESK_GRID = tuple(range(1000, 20001, 1000))
FULL_GRID = tuple(range(100, 20001, 100))
# The loss experiment's fixed hardware: a 10 km fiber and the merge node's memory.
LOSS_FIBER = lossy.FiberParams(length_km=10.0, speed_km_per_s=2.0e5, p0=0.5, alpha_per_km=0.05)
LOSS_MEMORY_T1_S = 10.0
LOSS_MEMORY_T2_S = 1.0
# The (s, m) pairs a sweep runs when no ``spam_grid`` is given.
SWEEP_GRID = ((1.0, 1.0), (0.95, 0.95), (0.8, 0.8), (0.5, 0.5))
# The versions that a CSV's ``# config`` line records.
VERSIONS = {"qnt": __version__, "numpy": np.__version__, "python": platform.python_version()}


# The real numbers, float and int first: they pass without the slower ABC check.
_REAL = (float, int, numbers.Real)


def _whole(field: str, value) -> int:
    """``value`` as an int; a value that is not a real number, a fraction, NaN or infinity
    raises ``ValueError`` naming ``field``."""
    if not isinstance(value, _REAL):  # "5" % 1 would be string formatting
        raise ValueError(f"{field} must be a number, got {value!r}")
    if value % 1:  # NaN for a NaN or an infinity
        raise ValueError(f"{field} must be whole, got {value!r}")
    return int(value)


def _real(field: str, value) -> float:
    """``value`` as a float; a value that is not a real number raises ``ValueError`` naming ``field``."""
    if not isinstance(value, _REAL):  # float("0.5") would parse a string
        raise ValueError(f"{field} must be a number, got {value!r}")
    return float(value)


@dataclass
class ExperimentConfig:
    """Everything a driver needs; unset grids and trials fall back to scale defaults, an
    unset ``spam_grid`` to ``SWEEP_GRID``, unset ``q_params`` to the ``q_defaults`` of
    its ``EXPERIMENTS`` entry, and ``experiment`` to that entry's key (``spam-s`` is
    ``spam_s``).  ``s``, ``m``, each ``spam_grid`` pair, the q values and the loss
    timings are stored as floats and ``seed``, ``trials`` and the sample sizes as ints,
    since stream labels and the ``# config`` line spell them, so that ``s=1`` and
    ``s=1.0`` give one output.  ``channels``, not a field, holds the depolarizing
    channels of the q values.  An unknown experiment, a field outside the entry's
    ``reads`` set away from its default, a value that is not a number (a ``spam_grid``
    item that is not a pair), and out-of-range values, including a negative
    seed, a seed, trials or sample size that is not a whole number, more than
    ``MAX_TRIALS`` trials (or trials times etch edges), a q count other than the
    length of ``q_defaults``, a q with |q| above 1 (``PauliChannel`` allows rounding
    slack past it), a zero SPAM parameter or q divisor, loss timings that
    :mod:`qnt.lossy` rejects (more than ``lossy.MAX_SLOTS`` slots too), an etch topology
    that cannot be read or etched, an etch ``s`` too small to divide by, and an output
    path that is a directory or in no existing directory raise ``ValueError``."""

    experiment: str
    seed: int = 12345
    trials: Optional[int] = None
    s: float = 1.0
    m: float = 1.0
    m_samples: tuple[int, ...] = ()
    n_samples: tuple[int, ...] = ()
    q_params: tuple[float, ...] = ()
    topology_path: Optional[str] = None
    spam_grid: tuple[tuple[float, float], ...] = ()
    t_send_s: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    t_cutoff_s: tuple[float, ...] = (0.05, 0.35, 0.75, 5.0, 10.0)
    horizon_s: float = 3600.0
    full_scale: bool = False
    output_path: Optional[str] = None

    def __post_init__(self):
        typed, self.experiment = self.experiment, self.experiment.replace("-", "_")
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {typed!r}")
        _, reads, _, q_defaults = EXPERIMENTS[self.experiment]
        for field in dataclasses.fields(self)[1:]:  # the fields after experiment
            if field.name not in reads and getattr(self, field.name) != field.default:
                raise ValueError(f"{typed} does not read {field.name}; leave it at {field.default!r}")
        if self.trials is None:
            self.trials = 1000 if self.full_scale else 100
        self.seed, self.trials = _whole("seed", self.seed), _whole("trials", self.trials)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must be in [1, {MAX_TRIALS:.0e}], got {self.trials}")
        grid = FULL_GRID if self.full_scale else DESK_GRID
        for name, default in (("m_samples", grid), ("n_samples", grid), ("spam_grid", SWEEP_GRID),
                              ("q_params", q_defaults)):
            if name in reads and not getattr(self, name):
                setattr(self, name, default)
        self.s, self.m = _real("s", self.s), _real("m", self.m)
        self.horizon_s = _real("horizon_s", self.horizon_s)
        self.q_params, self.t_send_s, self.t_cutoff_s = (
            tuple(map(_real, itertools.repeat(name), getattr(self, name)))
            for name in ("q_params", "t_send_s", "t_cutoff_s"))
        try:
            pairs = [(s, m) for s, m in self.spam_grid]
        except (TypeError, ValueError):  # an item that is not a pair
            raise ValueError(f"spam_grid must hold (s, m) pairs, got {self.spam_grid!r}") from None
        self.spam_grid = tuple((_real("spam_grid", s), _real("spam_grid", m)) for s, m in pairs)
        self.m_samples = tuple(_whole("m_samples", size) for size in self.m_samples)
        self.n_samples = tuple(_whole("n_samples", size) for size in self.n_samples)
        if min(self.m_samples + self.n_samples, default=1) < 1:
            raise ValueError("sample sizes must be at least 1")
        if max(self.m_samples + self.n_samples, default=1) > 2**63 - 1:  # numpy draws int64 counts
            raise ValueError("sample sizes must be at most 2**63 - 1")
        if self.output_path and os.path.isdir(self.output_path):
            raise ValueError(f"output path {self.output_path!r} is a directory")
        if self.output_path and not os.path.isdir(os.path.dirname(self.output_path) or "."):
            raise ValueError(f"output path {self.output_path!r} is in no existing directory")
        if len(self.q_params) != len(q_defaults):
            raise ValueError(f"{typed} needs {len(q_defaults)} q values, got {len(self.q_params)}")
        self.channels = ()
        for index, q in enumerate(self.q_params, start=1):
            if abs(q) > 1:  # PauliChannel allows rounding slack past 1, which a sampled probability cannot
                raise ValueError(f"q{index} = {q!r} is not a channel: |q| exceeds 1")
            try:
                self.channels += (PauliChannel(q, q, q),)  # a depolarizing channel needs q in [-1/3, 1]
            except ChannelValidationError as err:
                raise ValueError(f"q{index} = {q!r} is not a channel: {err}") from None
            if q == 0 and (self.experiment != "loss" or index > 1):
                # every estimator divides by these q; loss divides by q2 q3 only
                raise ValueError(f"q values must be nonzero, got q{index} = {q!r}")
        for s, m in ((self.s, self.m), *self.spam_grid):
            SpamModel(s, m)  # raises ProtocolError, a ValueError, outside [0, 1]
            if s == 0 or m == 0:
                # every estimator divides by s, m or their product
                raise ValueError(f"SPAM parameters must be nonzero, got s={s!r}, m={m!r}")
        if "horizon_s" in reads:
            for t_send in self.t_send_s:
                lossy.Schedule(t_send, self.horizon_s)
            for t_cutoff in self.t_cutoff_s:
                lossy.MemoryParams(LOSS_MEMORY_T1_S, LOSS_MEMORY_T2_S, t_cutoff)
        if "topology_path" in reads:
            if self.s < protocols.DEGENERATE_DENOMINATOR_TOL:  # first-round edges divide by s alone
                raise ValueError(f"etch divides by s, so s must be at least "
                                 f"{protocols.DEGENERATE_DENOMINATOR_TOL:g}, got s={self.s!r}")
            edges = len(self.plan.topology.edges)  # planned here, so what cannot be etched is a usage error
            if self.trials * edges > MAX_TRIALS:  # an etch run holds every edge's trials at once
                raise ValueError(f"etch holds trials x edges = {self.trials} x {edges} estimates "
                                 f"at once, at most {MAX_TRIALS:.0e}")

    @functools.cached_property
    def plan(self) -> protocols.EtchingPlan:
        """The Z-basis etching plan of the simplified etch topology (the bundled ``fig1``
        without a path), built once.  A file that cannot be read, parsed, simplified or
        planned, or whose simplified edges include a zero q_Z or any |q| above 1, raises ``ValueError``."""
        where = self.topology_path or "fig1"
        try:
            if self.topology_path:
                raw = topo_io.load_topology(self.topology_path)
            else:
                raw = topo_io.bundled_topology("fig1")
            simplified, _ = network.simplify_degree2(raw)
            edges = simplified.edges
            for edge_id in simplified.sorted_edge_ids():
                q_x, q_y, q_z = edges[edge_id].channel.q
                if not (-1 <= q_x <= 1 and -1 <= q_y <= 1 and -1 <= q_z <= 1):  # as for --q values
                    raise protocols.ProtocolError(f"edge {edge_id!r} has a |q| above 1")
                if q_z == 0:  # run_etch estimates q_Z by dividing by it
                    raise protocols.ProtocolError(f"edge {edge_id!r} has q_Z = 0, which etching cannot estimate")
            return protocols.plan_etching(simplified, self.spam, ("Z",))
        except OSError as err:  # its str() names the path a second time
            raise ValueError(f"topology {where}: {err.strerror}") from None
        except (UnicodeDecodeError, topo_io.TopologyParseError, network.TopologyError,
                protocols.ProtocolError, network.BranchSelectionError) as err:
            raise ValueError(f"topology {where}: {err}") from None

    @property
    def spam(self) -> SpamModel:
        return SpamModel(self.s, self.m)


class Row(NamedTuple):
    experiment: str
    M: float
    N: float
    s: float
    m: float
    truth: float
    mse: float
    mse_std: float
    n_degenerate: int
    crb: Optional[float]
    runtime_ms: float
    seed: int
    target: str = ""
    step: Optional[int] = None
    t_send_s: Optional[float] = None
    t_cutoff_s: Optional[float] = None


CSV_COLUMNS = Row._fields


def rows_to_csv(cfg: ExperimentConfig, rows: Sequence[Row]) -> str:
    config = {name: getattr(cfg, name) for name in ("experiment", *EXPERIMENTS[cfg.experiment].reads)}
    config["versions"] = VERSIONS
    lines = ["# config " + json.dumps(config, sort_keys=True), ",".join(CSV_COLUMNS)]
    columns = []
    for column in zip(*rows):
        # A run of one object is formatted once.  Only ``is`` finds a run: 0.0 == -0.0
        # and 1 == 1.0 == True, but each prints differently.
        texts, last, text = [], None, ""
        for cell in column:
            if cell is not last:  # a numpy float64 is a float, and a NaN prints as nan
                last = cell
                text = "" if cell is None else f"{cell:.17g}" if isinstance(cell, float) else str(cell)
            texts.append(text)
        columns.append(texts)
    lines += map(",".join, zip(*columns))
    return "\n".join(lines) + "\n"


def _trial_seed(cfg: ExperimentConfig, label: str, trial: int) -> int:
    return int(stats.substream(cfg.seed, label, trial).integers(0, 2**63))


def _row(
    cfg: ExperimentConfig,
    spam: SpamModel,
    samples: tuple[float, float],
    agg: stats.TrialAggregate,
    runtime_ms: float,
    crb: Optional[float],
    *context,
) -> Row:
    """A cell's row: the truth and MSE of its trials' aggregate ``agg``, with
    ``samples`` as (M, N) and ``context`` for the columns after ``seed`` in order
    (``target``, ``step``, ``t_send_s``, ``t_cutoff_s``)."""
    # the fields of a TrialAggregate are the columns truth to n_degenerate
    return Row(cfg.experiment, *samples, spam.s, spam.m, *agg, crb, runtime_ms, cfg.seed, *context)


def _ratio_rows(
    cfg: ExperimentConfig,
    spam: SpamModel,
    stream: str,
    *,
    numerator: str,
    p_num: float,
    p_uni: float,
    divisor: float,
    truth: float,
    target: str,
    crb: Callable[[int, int], float],
) -> list[Row]:
    """One row per (M, N) cell of a two-protocol ratio estimate of ``truth``.

    Each cell draws all its trials with :func:`protocols.sample_ratio` under
    the label ``{stream}|{M}|{N}``, and each trial estimates
    ``(2 p_num_hat - 1)/(2 p_uni_hat - 1) / divisor``.  A ``crb`` that cannot divide is blank.
    """
    rows = []
    for samples in itertools.product(cfg.m_samples, cfg.n_samples):
        start = time.perf_counter()
        estimates = protocols.sample_ratio(p_num, p_uni, samples, cfg.seed,
                                           f"{stream}|{samples[0]}|{samples[1]}", cfg.trials, numerator)
        runtime = (time.perf_counter() - start) * 1e3
        try:
            bound = crb(*samples)
        except ZeroDivisionError:  # spam-s and spam-m at m s q1 q2 = 1: every estimate is exact, the bound 0/0
            bound = None
        rows.append(_row(cfg, spam, samples, stats.aggregate_mse(estimates / divisor, truth),
                         runtime, bound, target))
    return rows


def run_star(cfg: ExperimentConfig) -> list[Row]:
    """Star rows over the (M, N) grid at each (s, m) of ``cfg.spam_grid``, or at (s, m) if it is empty."""
    ch1, ch2, ch3 = cfg.channels
    rows = []
    for spam in [SpamModel(s, m) for s, m in cfg.spam_grid] or [cfg.spam]:
        p_num, p_uni = protocols.merge_and_unicast_probs([ch1], [ch2], [ch3], spam)
        rows += _ratio_rows(
            cfg,
            spam,
            f"star|{spam.s}|{spam.m}",
            numerator="merge",
            p_num=p_num,
            p_uni=p_uni,
            divisor=spam.s,
            truth=ch1.q_z,
            target="qZ1",
            crb=functools.partial(
                stats.crb_mergecast, q1=ch1.q_z, q2=ch2.q_z, q3=ch3.q_z, s=spam.s, m=spam.m
            ),
        )
    return rows


def run_spam_s(cfg: ExperimentConfig) -> list[Row]:
    path = cfg.channels
    spam = cfg.spam
    p_num, p_uni = protocols.merge_and_unicast_probs([], [], path, spam)  # the s protocol over path
    return _ratio_rows(
        cfg,
        spam,
        "spam-s",
        numerator="root",
        p_num=p_num,
        p_uni=p_uni,
        divisor=1.0,
        truth=spam.s,
        target="s",
        crb=functools.partial(stats.crb_spam_s, q1=path[0].q_z, q2=path[1].q_z, s=spam.s, m=spam.m),
    )


def run_spam_m(cfg: ExperimentConfig) -> list[Row]:
    path = cfg.channels
    spam = cfg.spam
    return _ratio_rows(
        cfg,
        spam,
        "spam-m",
        numerator="pair",
        p_num=protocols.spam_m_protocol_probs(path, path, spam)[4],
        p_uni=protocols.unicast_prob(path, spam),
        divisor=1.0,
        truth=spam.m,
        target="m",
        crb=functools.partial(stats.crb_spam_m, q1=path[0].q_z, q2=path[1].q_z, s=spam.s, m=spam.m),
    )


def run_etch(cfg: ExperimentConfig) -> list[Row]:
    """Progressive etching MSE per edge, all trials of an M in one sweep.

    N is tied to M: the near-diagonal is where the ratio estimator works
    best, so sweeping one size covers the interesting regime.  The edges of an
    M share that sweep's runtime, which leaves out the plan: the config builds it once."""
    topology = cfg.plan.topology
    spam = cfg.spam
    edge_ids = topology.sorted_edge_ids()
    truths = [topology.edges[edge_id].channel.q_z for edge_id in edge_ids]
    rows = []
    for m_size in cfg.m_samples:
        start = time.perf_counter()
        run = protocols.sample_etching(cfg.plan, (m_size, m_size), _trial_seed(cfg, f"etch|{m_size}", 0),
                                       cfg.trials)
        runtime = (time.perf_counter() - start) * 1e3
        aggs = stats.aggregate_mse_rows([run.estimates[edge_id].q_z for edge_id in edge_ids], truths)
        samples = (m_size, m_size)
        rows += [_row(cfg, spam, samples, agg, runtime, None, edge_id, run.steps[edge_id])
                 for edge_id, agg in zip(edge_ids, aggs)]
    return rows


def run_loss(cfg: ExperimentConfig) -> list[Row]:
    rows = []
    for t_send, t_cutoff in itertools.product(cfg.t_send_s, cfg.t_cutoff_s):
        schedule = lossy.Schedule(send_interval_s=t_send, horizon_s=cfg.horizon_s)
        memory = lossy.MemoryParams(LOSS_MEMORY_T1_S, LOSS_MEMORY_T2_S, cutoff_s=t_cutoff)
        start = time.perf_counter()
        results = [
            lossy.run_loss_experiment(cfg.channels, LOSS_FIBER, memory, schedule, cfg.spam,
                                      seed=_trial_seed(cfg, "loss", trial))
            for trial in range(cfg.trials)
        ]
        runtime = (time.perf_counter() - start) * 1e3
        samples = (sum(r.merged_count for r in results) / cfg.trials,
                   sum(r.received_count for r in results) / cfg.trials)
        agg = stats.aggregate_mse([r.estimate for r in results], cfg.channels[0].q_z)
        rows.append(_row(cfg, cfg.spam, samples, agg, runtime, None, "qZ1", None, t_send, t_cutoff))
    return rows


class Experiment(NamedTuple):
    """A subcommand: its driver, the config fields it reads in CLI option order (the others
    keep their defaults), its help line, and its default ``q_params``, also how many it reads."""

    driver: Callable[[ExperimentConfig], list[Row]]
    reads: tuple[str, ...]
    help: str
    q_defaults: tuple[float, ...] = ()


_RUN = ("trials", "seed", "full_scale", "output_path")
_RATIO = ("s", "m", "q_params", "m_samples", "n_samples", *_RUN)
_Q2, _Q3 = (0.5, 0.25), (0.5, 0.25, 0.35)
# The experiments by config spelling, in subcommand order; ``spam_s`` is ``qnt spam-s``.
EXPERIMENTS = {
    "star": Experiment(run_star, _RATIO, "merge-protocol MSE on a 3-link star over an (M, N) grid", _Q3),
    "sweep": Experiment(run_star, ("q_params", "m_samples", "n_samples", "spam_grid", *_RUN),
                        "star experiment over a SPAM grid", _Q3),
    "spam_s": Experiment(run_spam_s, _RATIO, "preparation-error estimation MSE over an (M, N) grid", _Q2),
    "spam_m": Experiment(run_spam_m, _RATIO, "measurement-error estimation MSE over an (M, N) grid", _Q2),
    "etch": Experiment(run_etch, ("topology_path", "s", "m", "m_samples", *_RUN),
                       "progressive etching MSE per edge on a general topology"),
    "loss": Experiment(run_loss, ("s", "m", "q_params", "t_send_s", "t_cutoff_s", "horizon_s", *_RUN),
                       "lossy-fiber merge protocol with memory decoherence", _Q3),
}


def run_experiment(cfg: ExperimentConfig) -> list[Row]:
    """Dispatch to the configured driver; rows come back in grid order."""
    return EXPERIMENTS[cfg.experiment].driver(cfg)


def write_experiment(cfg: ExperimentConfig) -> str:
    """Run and serialize; writes to ``output_path`` when set, else stdout."""
    text = rows_to_csv(cfg, run_experiment(cfg))
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return text
