"""Tomography protocols: analytic outcome probabilities, Monte Carlo
sampling, ratio estimators, SPAM estimation, phase cycling, and the
progressive-etching driver.

Every probability here is computed by running the actual state pipeline
(preparation, channels, CNOT merge, partial trace, measurement) in the
Pauli-Liouville representation, never by a closed-form shortcut; the
closed forms quoted in the tests serve as independent pins.  Every
pipeline runs on rows: ``(k, 4)`` states, sent through ``(k, L, 4)`` PTM
diagonals padded with rows of ones, so that one call computes a whole
etching round.  Unicast, mergecast and the s and bypass protocols are
one-row calls of it (a bypassed channel is a row dressed by its
``bypass_dressing``); the m protocol sends rows and merges them by ``_cnot``.

Conventions:

* State preparation with error parameter ``s`` produces ``[1, 0, 0, s]``;
  measurement with error parameter ``m`` uses the effect ``[1, 0, 0, m]``
  for outcome 0, so a bare prepare-and-measure sees ``(1 + ms)/2``.
* ``basis`` selects which Pauli parameter is estimated.  Estimating q_X or
  q_Y reuses the Z-basis machinery by dressing every channel on the wire
  (diag permutation, so a column order of the diagonals), which is the same
  arithmetic as preparing and measuring in the rotated basis.
* In the merge step the target-side qubit is the CNOT control and is the
  one discarded; the relayed qubit is the target.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import network
from .network import Topology
from .pauli import (
    _CNOT_GATHER_FIRST,
    _Q_MAX,
    ATOL,
    NonPhysicalStateError,
    PauliChannel,
    PauliVector1Q,
    PauliVector2Q,
    bypass_dressing,
    dress_channel,
    joint_z_measurement_probs,
)
from .stats import substream

DEGENERATE_DENOMINATOR_TOL = 1e-9

# The columns of a diagonal (1, q_X, q_Y, q_Z) in the order that the basis's
# dressing puts them (see pauli.dress_channel), so the estimated one is last.
_BASIS_COLUMNS = {"Z": slice(None), "X": [0, 3, 2, 1], "Y": [0, 3, 1, 2]}


class ProtocolError(ValueError):
    """A protocol precondition is violated (empty path, zero parameter, ...)."""


@dataclass(frozen=True)
class SpamModel:
    """State-preparation and measurement error parameters.

    ``s = m = 1`` is the error-free case; ``s = m = 0`` yields completely
    random outcomes (maximally mixed preparation, uninformative readout).
    """

    s: float = 1.0
    m: float = 1.0

    def __post_init__(self):
        for name, value in (("s", self.s), ("m", self.m)):
            if not 0.0 <= value <= 1.0:
                raise ProtocolError(f"{name} = {value} outside [0, 1]")

    def prepared_state(self) -> PauliVector1Q:
        return PauliVector1Q.from_bloch(0.0, 0.0, self.s)


PERFECT_SPAM = SpamModel(1.0, 1.0)


@dataclass(frozen=True)
class ProtocolOutcome:
    """Observed counts from repeating one protocol."""

    n0: int
    n_total: int

    def __post_init__(self):
        if self.n_total < 1:
            raise ProtocolError(f"n_total = {self.n_total} must be at least 1")
        if not 0 <= self.n0 <= self.n_total:
            raise ProtocolError(f"n0 = {self.n0} outside [0, {self.n_total}]")

    @property
    def empirical_p(self) -> float:
        return self.n0 / self.n_total


class ChannelEstimate(NamedTuple):
    """Raw per-basis estimates of a channel's (q_X, q_Y, q_Z).

    Estimates (floats, NaN for a basis not run, or arrays of one per trial) are
    unclamped, so sampling noise can push them outside [-1, 1]; not a PauliChannel.
    """

    q_x: Union[float, np.ndarray]
    q_y: Union[float, np.ndarray]
    q_z: Union[float, np.ndarray]


def _diagonals(channels: Iterable[PauliChannel]) -> np.ndarray:
    """A row (1, q_X, q_Y, q_Z) per channel, then the row of ones that pads index paths."""
    return np.array([(1.0, ch.q_x, ch.q_y, ch.q_z) for ch in channels] + [(1.0, 1.0, 1.0, 1.0)])


def _index_paths(paths: Sequence[Sequence[str]], index: dict) -> np.ndarray:
    """The table rows ``index[e]`` of the edges of each path, one path per row, padded at
    its end with the pad row ``len(index)``."""
    lengths = np.fromiter(map(len, paths), int, len(paths))
    rows = np.full((len(paths), lengths.max()), len(index))
    # a boolean mask assigns in row-major order, so the edges fill each row's first entries
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = np.fromiter(
        map(index.__getitem__, itertools.chain.from_iterable(paths)), int)
    return rows


def _physical(states: np.ndarray) -> None:
    """Raise unless every row of ``states`` passes the checks that ``PauliVector1Q`` makes of one."""
    # written so that NaN fails every check
    if not (np.abs(states[..., 0] - 1.0) <= ATOL).all():
        raise NonPhysicalStateError(f"x_I must be 1 for a normalized state, got {states[..., 0]}")
    r2 = (states * states) @ _BLOCH_SQUARES
    if not (r2 <= 1.0 + ATOL).all():
        raise NonPhysicalStateError(f"Bloch vector norm^2 = {r2.max()} exceeds 1")


def _send(states: np.ndarray, channels: np.ndarray, visited: list) -> np.ndarray:
    """Row j of ``states`` sent through the diagonals ``channels[j]`` in path order; each
    state it passes through is appended to ``visited``, to be checked in one go."""
    for step in range(channels.shape[1]):
        states = states * channels[:, step]
        visited.append(states)
    return states


def _prob_zero(states: np.ndarray, m: float) -> np.ndarray:
    return (1.0 + m * states[..., 3]) / 2.0


def _cnot(control: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The 16 coefficients per row of the product of ``control`` and ``target`` after a
    CNOT from the first onto the second, as :func:`pauli.apply_cnot` of their ``tensor``."""
    source, sign = _CNOT_GATHER_FIRST
    return sign * (control[:, :, None] * target[:, None, :]).reshape(-1, 16)[:, source]


def _merge_prob(control: np.ndarray, target: np.ndarray, relay: np.ndarray, m: float,
                visited: list) -> np.ndarray:
    """P(outcome 0) per row after the merge step: CNOT from ``control`` onto ``target``,
    discard the control, send the target down ``relay`` (diagonals) and measure it.
    The states it passes through are appended to ``visited``, for the caller to check."""
    merged = _cnot(control, target)[:, :4]  # the partial trace keeps the I (x) Q coefficients
    visited.append(merged)
    return _prob_zero(_send(merged, relay, visited), m)


_BLOCH_SQUARES = np.array([0.0, 1.0, 1.0, 1.0])  # squared coefficients @ this = Bloch norm^2
# (1, q_X, q_Y, q_Z) @ _KRAUS_SIGNS is 4 (p_I, p_X, p_Y, p_Z), as in PauliChannel.probabilities.
_KRAUS_SIGNS = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0],
                         [1.0, -1.0, 1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]).T


def _pipeline(table: np.ndarray, paths: tuple, spam: SpamModel, basis: str,
              context: str = "mergecast", labels: Optional[Sequence[str]] = None) -> tuple[np.ndarray, ...]:
    """``(p_merge, p_uni)`` of each row of the ``paths`` (target, a2, b) into ``table``.

    ``table`` holds channel diagonals and the pad; each path is an index into it, such as
    a ``(k, L)`` array padded at its end, giving ``(k, L, 4)`` diagonals.  Row j's merge
    protocol sends one prepared qubit through ``target[j]``, composed into one channel
    from 1.0 in path order as :func:`pauli.compose_channels` does, and the other through
    ``a2[j]``; the merged qubit crosses ``b[j]``.  Its unicast sends one qubit through
    ``a2[j]``, then ``b[j]``.  No path is empty, and a pad multiplies by 1.0, which
    changes no bit.  The composite target channel is checked as ``PauliChannel`` checks
    one.  A zero parameter in ``basis`` raises for the first such row, naming
    ``labels[j]``; every state of the call is checked once, at its end.
    """
    dressed = table[:, _BASIS_COLUMNS[basis]]
    target, a2, b = dressed[paths[0]], dressed[paths[1]], dressed[paths[2]]
    composite = target[:, 0]  # 1.0 times the first factor, exactly
    for step in range(1, target.shape[1]):
        composite = composite * target[:, step]
    if np.abs(composite).max() > _Q_MAX or (composite @ _KRAUS_SIGNS).min() < -4.0 * ATOL:
        for row in composite:  # the constructor decides, and names what failed
            PauliChannel(*row[1:].tolist())
    rows = (composite[:, 3] == 0.0) | (a2[..., 3] == 0.0).any(axis=1) | (b[..., 3] == 0.0).any(axis=1)
    if rows.any():
        where = f"edge {labels[rows.argmax()]!r}, basis {basis}: " if labels else ""
        raise ProtocolError(f"{where}{context}: channel with zero {basis} parameter cannot be characterized")
    prepared = np.array([[1.0, 0.0, 0.0, spam.s]])  # broadcast over the rows
    visited = [prepared * composite]
    merged = _send(prepared, a2, visited)
    p_merge = _merge_prob(visited[0], merged, b, spam.m, visited)
    p_uni = _prob_zero(_send(merged, b, visited), spam.m)
    _physical(np.concatenate(visited))
    return p_merge, p_uni


def _one_row(target_path: Sequence[PauliChannel], branch_a2: Sequence[PauliChannel],
             branch_b: Sequence[PauliChannel], spam: SpamModel, basis: str, context: str) -> tuple[float, float]:
    """:func:`_pipeline` on one row, ``(p_merge, p_uni)`` as floats; an empty path is the pad."""
    channels = [*target_path, *branch_a2, *branch_b]
    bounds = (0, len(target_path), len(target_path) + len(branch_a2), len(channels))
    paths = tuple(np.s_[None, lo:hi] if hi > lo else np.s_[None, -1:] for lo, hi in zip(bounds, bounds[1:]))
    p_merge, p_uni = _pipeline(_diagonals(channels), paths, spam, basis, context)
    return float(p_merge[0]), float(p_uni[0])


def merge_and_unicast_probs(target_path: Sequence[PauliChannel], branch_a2: Sequence[PauliChannel],
                            branch_b: Sequence[PauliChannel], spam: SpamModel = PERFECT_SPAM,
                            basis: str = "Z") -> tuple[float, float]:
    """P(outcome 0) of the merge protocol and of its unicast reference, from one run of the pipeline.

    The control qubit crosses ``target_path`` composed into one channel, the target
    qubit ``branch_a2``, the merged qubit ``branch_b``; the unicast qubit crosses
    ``branch_a2``, then ``branch_b``.  An empty path leaves its qubit as prepared, so
    ``([], [], path)`` gives the preparation-error protocol over ``path`` and its unicast.
    """
    if not branch_b:
        raise ProtocolError("the measured branch must be nonempty")
    return _one_row(target_path, branch_a2, branch_b, spam, basis, "mergecast")


def unicast_prob(
    path: Sequence[PauliChannel], spam: SpamModel = PERFECT_SPAM, basis: str = "Z"
) -> float:
    """P(outcome 0) for a single qubit sent down ``path`` and measured.

    Equals (1 + ms * prod_l q_l)/2 with q taken in the dressed basis.
    """
    if not path:
        raise ProtocolError("unicast path must be nonempty")
    return _one_row((), (), path, spam, basis, "unicast")[1]


def mergecast_prob(
    target: PauliChannel,
    branch_a2: Sequence[PauliChannel],
    branch_b: Sequence[PauliChannel],
    spam: SpamModel = PERFECT_SPAM,
    basis: str = "Z",
) -> float:
    """P(outcome 0) for the merge protocol.

    Two qubits are prepared, one crosses ``target`` (CNOT control, then
    discarded), the other crosses ``branch_a2`` (CNOT target); the merged
    qubit crosses ``branch_b`` and is measured.  Equals
    (1 + m s^2 * q_target * Q_A2 * Q_B)/2 with branch products Q in the
    dressed basis.
    """
    if not branch_a2 or not branch_b:
        raise ProtocolError("mergecast branches must be nonempty")
    return _one_row((target,), branch_a2, branch_b, spam, basis, "mergecast")[0]


def bypass_unicast_prob(
    bypassed: Sequence[PauliChannel],
    target: PauliChannel,
    spam: SpamModel = PERFECT_SPAM,
) -> float:
    """P(outcome 0) when every non-target channel on the route is bypassed.

    Each bypassed channel is sandwiched by the gates that move its unit
    Pauli parameter into the Z slot, so the Z-axis qubit traverses it
    unchanged and only the target attenuates: p = (1 + m s q_Z,target)/2.
    Raises for non-bypassable channels in ``bypassed`` and for a zero q_Z target.
    """
    dressed = [dress_channel(ch, bypass_dressing(ch)) for ch in bypassed]
    return _one_row((), (), [*dressed, target], spam, "Z", "bypass unicast")[1]


def spam_s_protocol_prob(path: Sequence[PauliChannel], spam: SpamModel) -> float:
    """P(outcome 0) for the preparation-error protocol.

    Two erroneous preparations are merged by a CNOT at the sending node and
    the control discarded, leaving [1, 0, 0, s^2] on the wire; after
    ``path`` the measured probability is (1 + m s^2 * prod q_Z)/2.
    """
    if not path:
        raise ProtocolError("path must be nonempty")
    return _one_row((), (), path, spam, "Z", "spam-s protocol")[0]


def spam_m_protocol_probs(
    path_a: Sequence[PauliChannel],
    path_b: Sequence[PauliChannel],
    spam: SpamModel,
) -> tuple[float, float, float, float, float]:
    """Joint outcome probabilities for the measurement-error protocol.

    Each branch sends an erroneous preparation to the measuring node, where
    a CNOT entangles them (``path_b``'s qubit is the control) and both are
    measured with error.  Returns (p00, p01, p10, p11, p_sum) with
    p_sum = p00 + p11 = (1 + m^2 s * prod_{path_a} q_Z)/2.
    """
    if not path_a or not path_b:
        raise ProtocolError("both paths must be nonempty")
    visited: list = []
    prepared = np.array([[1.0, 0.0, 0.0, spam.s]])
    qubit_a, qubit_b = (_send(prepared, _diagonals(path)[None, :-1], visited) for path in (path_a, path_b))
    _physical(np.concatenate(visited))
    p00, p01, p10, p11 = joint_z_measurement_probs(PauliVector2Q(_cnot(qubit_b, qubit_a)[0]), m=spam.m)
    return (p00, p01, p10, p11, p00 + p11)


def spam_ms_bypass_prob(bypassed_path: Sequence[PauliChannel], spam: SpamModel) -> float:
    """P(outcome 0) when the whole route is bypassed: (1 + ms)/2.

    Requires every channel on the path to be bypassable; the result is then
    independent of their flip probabilities.
    """
    return bypass_unicast_prob(bypassed_path, PauliChannel.identity(), spam)


def sample_protocol(
    p0: float,
    n: int,
    seed: Union[int, np.random.Generator],
) -> ProtocolOutcome:
    """Run a protocol ``n`` times: seeded Bernoulli(p0) trials, counted."""
    if not 0.0 <= p0 <= 1.0:
        raise ProtocolError(f"p0 = {p0} outside [0, 1]")
    if n < 1:
        raise ProtocolError("n must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed, "protocol", 0)
    return ProtocolOutcome(n0=int(rng.binomial(n, p0)), n_total=n)


# An array holds one empirical probability per trial; the estimators then
# return one estimate per trial.
ProbabilityLike = Union[ProtocolOutcome, float, np.ndarray]


def sample_ratio(
    p_num: float | Sequence[float], p_uni: float | Sequence[float], samples: tuple[int, int],
    seed: int, label: str, trials: Optional[int], numerator: str = "merge",
) -> Union[float, np.ndarray]:
    """The :func:`_ratio` (2 p_num_hat - 1)/(2 p_uni_hat - 1) over ``samples = (M, N)`` runs of
    two protocols, NaN wherever it cannot divide.

    Each protocol is one ``binomial`` draw of shape ``(trials, *shape(p))`` from the substream
    ``{label}|{numerator}`` or ``{label}|uni`` at index 0; ``trials=None`` draws once per p.
    """
    m_size, n_size = samples
    if min(samples) < 1:
        raise ProtocolError(f"sample sizes must be at least 1, got {samples}")
    size = None if trials is None else (trials, *np.shape(p_num))
    num = substream(seed, f"{label}|{numerator}", 0).binomial(m_size, p_num, size=size)
    uni = substream(seed, f"{label}|uni", 0).binomial(n_size, p_uni, size=size)
    return _ratio(num / m_size, uni / n_size)


def _p_hat(value: ProbabilityLike) -> Union[float, np.ndarray]:
    if isinstance(value, ProtocolOutcome):
        return value.empirical_p
    return value if isinstance(value, np.ndarray) else float(value)


def _divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den``, NaN wherever ``|den|`` is below ``DEGENERATE_DENOMINATOR_TOL``."""
    return num / np.where(np.abs(den) < DEGENERATE_DENOMINATOR_TOL, np.nan, den)


def _ratio(numerator: ProbabilityLike, denominator: ProbabilityLike) -> Union[float, np.ndarray]:
    """(2 p_numerator - 1)/(2 p_denominator - 1), NaN wherever it cannot divide (see
    :func:`_divide`), for a scalar call as for each entry of an array."""
    return _divide(2.0 * _p_hat(numerator) - 1.0, 2.0 * _p_hat(denominator) - 1.0)


def estimate_q_mergecast(merge: ProbabilityLike, uni: ProbabilityLike) -> Union[float, np.ndarray]:
    """Ratio estimator (2 p_merge - 1)/(2 p_uni - 1).

    On exact probabilities this returns s * q_target; with known SPAM the
    caller divides by the prefactor ratio f_merge/f_uni = s to isolate the
    target parameter.
    """
    return _ratio(merge, uni)


def estimate_s(p1: ProbabilityLike, p0: ProbabilityLike) -> Union[float, np.ndarray]:
    """Preparation-error estimator (2 p_SPAM,1 - 1)/(2 p_SPAM,0 - 1)."""
    return _ratio(p1, p0)


def estimate_m(p2: ProbabilityLike, p0: ProbabilityLike) -> Union[float, np.ndarray]:
    """Measurement-error estimator (2 p_SPAM,2 - 1)/(2 p_SPAM,0 - 1)."""
    return _ratio(p2, p0)


# ---------------------------------------------------------------------------
# Progressive etching
# ---------------------------------------------------------------------------


class EtchingRun(NamedTuple):
    """Output of one etching sweep over a topology.

    ``estimates`` holds the raw per-basis estimate triple for each edge
    (arrays when the sweep ran ``trials``) and ``steps`` the 1-based round in
    which the edge was identified.
    """

    estimates: dict
    steps: dict


class EtchingPlan(NamedTuple):
    """Etching ``topology`` at any sample size and seed: per round, ``(targets, rows, heads,
    probs)``, its frontier, their table rows, each one's chain-head row (the pad row for an
    empty chain) and ``(p_merge, p_uni)`` by basis.  ``pad``, an empty chain's ratio, is s."""

    topology: Topology
    pad: float
    bases: tuple[str, ...]
    rounds: tuple[tuple[list, list, list, dict], ...]


def plan_etching(topology: Topology, spam: SpamModel, bases: Sequence[str] = ("Z", "X", "Y")) -> EtchingPlan:
    """The plan of etching a simplified topology periphery inward, one state-pipeline call
    per round of :func:`network.etching_rounds` and basis.  A topology that ``validate``
    rejects raises ``ProtocolError``, a target with no two branches ``BranchSelectionError``,
    and a zero parameter ``ProtocolError`` naming its first edge in frontier order, within
    the first such basis of ``bases``."""
    problems = network.validate(topology, require_simplified=True)
    if problems:
        raise ProtocolError("cannot be etched: " + "; ".join(map(str, problems)))
    index = dict(zip(topology.edges, itertools.count()))
    pad = len(index)
    table = _diagonals(edge.channel for edge in topology.edges.values())
    rounds = []
    for selections in network.etching_rounds(topology):
        targets, heads, routes = [], [], []
        for target, (_, chain, path_a2, chain_a2, path_b, chain_b) in selections:
            targets.append(target)
            heads.append(index[chain[0]] if chain else pad)
            routes.append(((*chain, target), path_a2 + chain_a2, path_b + chain_b))
        paths = tuple(_index_paths(part, index) for part in zip(*routes))  # chain then target, a2, b
        probs = {basis: _pipeline(table, paths, spam, basis, labels=targets) for basis in bases}
        rounds.append((targets, [index[target] for target in targets], heads, probs))
    return EtchingPlan(topology, spam.s, tuple(bases), tuple(rounds))


def sample_etching(plan: EtchingPlan, samples: tuple[int, int], seed: int,
                   trials: Optional[int] = None) -> EtchingRun:
    """Estimate every channel of ``plan`` from ``samples = (M, N)`` runs per protocol: per
    round and basis, one :func:`sample_ratio` call draws every target (column j is target j)
    from ``etch|{round}|{basis}|merge``/``|uni``.  A chain's head was reached through the rest
    of the chain, so its raw ratio estimates s times the chain's product: dividing by it (by s
    for an empty chain) leaves the target's q, and propagates earlier errors as a real
    deployment would.  A trial whose unicast denominator or chain correction is degenerate
    (see :func:`_divide`) is NaN for that edge, and for every edge divided by its ratio.
    ``trials`` follows numpy's ``size``: ``None`` gives floats, an int arrays whose row k is
    the k-th of successive scalar sweeps on the same streams."""
    unmeasured = math.nan if trials is None else np.full(trials, math.nan)
    estimates, steps = {}, {}
    # Per basis, the raw ratios so far by table row; the pad, an empty chain's, is s.
    ratios = {basis: np.full((*np.shape(unmeasured), len(plan.topology.edges) + 1), plan.pad, dtype=float)
              for basis in plan.bases}

    for round_num, (targets, rows, heads, probs) in enumerate(plan.rounds, start=1):
        by_basis = {}
        for basis, (p_merge, p_uni) in probs.items():
            ratio = sample_ratio(p_merge, p_uni, samples, seed, f"etch|{round_num}|{basis}", trials)
            estimate = _divide(ratio, ratios[basis][..., heads])
            ratios[basis][..., rows] = ratio
            by_basis[basis] = estimate.tolist() if trials is None else estimate.T

        steps.update(dict.fromkeys(targets, round_num))
        columns = (by_basis.get(b, itertools.repeat(unmeasured)) for b in "XYZ")
        estimates.update(zip(targets, map(ChannelEstimate._make, zip(*columns))))

    return EtchingRun(estimates, steps)


def run_progressive_etching(
    topology: Topology,
    spam: SpamModel,
    samples: tuple[int, int],
    seed: int,
    bases: Sequence[str] = ("Z", "X", "Y"),
    trials: Optional[int] = None,
) -> EtchingRun:
    """Identify every channel of a simplified topology: :func:`sample_etching` of :func:`plan_etching`."""
    return sample_etching(plan_etching(topology, spam, bases), samples, seed, trials)


# ---------------------------------------------------------------------------
# Phase cycling: reducing general diagonal SPAM to the two-parameter model
# ---------------------------------------------------------------------------

X_GATE_DIAG = np.array([1.0, 1.0, -1.0, -1.0])
Z_GATE_DIAG = np.array([1.0, -1.0, -1.0, 1.0])


@dataclass(frozen=True)
class RawSpamVectors:
    """Un-cycled SPAM: preparation [1, s_X, s_Y, s_Z], effect [m_I, m_X, m_Y, m_Z]."""

    prep: np.ndarray
    meas: np.ndarray

    def __post_init__(self):
        prep = np.asarray(self.prep, dtype=float)
        meas = np.asarray(self.meas, dtype=float)
        if prep.shape != (4,) or meas.shape != (4,):
            raise ProtocolError("SPAM vectors must each have 4 components")
        if abs(prep[0] - 1.0) > 1e-12:
            raise ProtocolError("preparation vector must be trace normalized (first entry 1)")
        prep.flags.writeable = False
        meas.flags.writeable = False
        object.__setattr__(self, "prep", prep)
        object.__setattr__(self, "meas", meas)


@dataclass(frozen=True)
class CyclingVariant:
    """One randomized compilation: I/Z after preparation, I/X then I/Z before
    measurement.  Choosing the X gate flips the recorded outcome bit."""

    prep_z: bool
    meas_x: bool
    meas_z: bool


ALL_CYCLING_VARIANTS = tuple(
    CyclingVariant(p, x, z) for p in (False, True) for x in (False, True) for z in (False, True)
)


def phase_cycling_compile(n_variants: int, seed: int) -> tuple[CyclingVariant, ...]:
    """Draw uniformly random cycling variants for randomized compilation."""
    rng = substream(seed, "phase-cycling", 0)
    bits = rng.integers(0, 2, size=(n_variants, 3))
    return tuple(CyclingVariant(bool(a), bool(b), bool(c)) for a, b, c in bits)


def cycled_zero_prob(
    raw: RawSpamVectors,
    path: Sequence[PauliChannel],
    variant: CyclingVariant,
) -> float:
    """Probability that the *recorded* outcome is 0 under one variant."""
    vec = raw.prep.copy()
    if variant.prep_z:
        vec = Z_GATE_DIAG * vec
    for ch in path:
        vec = np.array([1.0, ch.q_x, ch.q_y, ch.q_z]) * vec
    if variant.meas_x:
        vec = X_GATE_DIAG * vec
    if variant.meas_z:
        vec = Z_GATE_DIAG * vec
    p0 = 0.5 * float(raw.meas @ vec)
    return 1.0 - p0 if variant.meas_x else p0


def effective_spam_after_cycling(raw: RawSpamVectors) -> SpamModel:
    """The two-parameter model reached by averaging over all variants.

    Averaging the 8 variants cancels every off-diagonal SPAM component,
    leaving preparation [1, 0, 0, s_Z] and effect [1, 0, 0, m_Z]; the tests
    verify this by exhaustive enumeration against :func:`cycled_zero_prob`.
    """
    return SpamModel(s=float(raw.prep[3]), m=float(raw.meas[3]))


# ---------------------------------------------------------------------------
# Sign ambiguity of pairwise products
# ---------------------------------------------------------------------------


def consistent_sign_assignments(
    magnitudes: Sequence[float],
    pair_products: Sequence[float],
    triple_product: Optional[float] = None,
    tol: float = 1e-9,
) -> list[tuple[int, int, int]]:
    """Sign vectors (s1, s2, s3) consistent with measured products.

    ``pair_products`` is (q1 q2, q2 q3, q1 q3) and ``magnitudes`` the known
    absolute values.  Without the triple product the answer always comes in
    antipodal pairs; adding q1 q2 q3 from the merge protocol breaks the
    symmetry.
    """
    a1, a2, a3 = (abs(v) for v in magnitudes)
    p12, p23, p13 = pair_products
    solutions = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                if abs(s1 * s2 * a1 * a2 - p12) > tol:
                    continue
                if abs(s2 * s3 * a2 * a3 - p23) > tol:
                    continue
                if abs(s1 * s3 * a1 * a3 - p13) > tol:
                    continue
                if triple_product is not None and abs(s1 * s2 * s3 * a1 * a2 * a3 - triple_product) > tol:
                    continue
                solutions.append((s1, s2, s3))
    return solutions
