"""Merge protocol over lossy fibers with quantum-memory decoherence.

Reproduces the realistic three-channel star experiment: both roots transmit
simultaneously every ``send_interval_s``; each photon independently survives
its fiber with probability ``(1 - p0) exp(-alpha L)``.  A lone survivor
waits at the merge node in a memory that relaxes (T1) and dephases (T2),
and is discarded once its age exceeds the cutoff ``T_c``.  When one qubit
from each root is present they are merged immediately (CNOT, discard the
root-1 qubit) and the survivor is relayed down the third fiber to the
measuring node.

Because the fibers have equal length and sends are synchronized, qubits of
the same slot arrive together; waiting only happens across slots, in
multiples of the send interval.  Consequently every cutoff below the send
interval produces the *same* merge pattern for a given seed: arrival
randomness is drawn per slot independently of the cutoff, so those runs are
bitwise identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliChannel, PauliVector1Q
from .protocols import PERFECT_SPAM, SpamModel, _diagonals, _merge_prob, _physical
from .stats import substream

TIME_EPS = 1e-9
# The most send slots a schedule may have: with its uniform draws and the pairing's
# counts, one `loss` trial peaks at about 25 bytes per slot, so 2.5 GB at the cap.
MAX_SLOTS = 10**8


@dataclass(frozen=True)
class FiberParams:
    """Lossy fiber: initial loss probability plus exponential attenuation."""

    length_km: float
    speed_km_per_s: float
    p0: float
    alpha_per_km: float

    def __post_init__(self):
        # written so that NaN fails every check
        if not (self.length_km >= 0 and self.alpha_per_km >= 0):
            raise ValueError("length and attenuation must be nonnegative")
        if not self.speed_km_per_s > 0:
            raise ValueError("propagation speed must be positive")
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError(f"p0 = {self.p0} outside [0, 1]")


@dataclass(frozen=True)
class MemoryParams:
    """Quantum memory with relaxation T1, dephasing T2, and cutoff T_c."""

    t1_s: float
    t2_s: float
    cutoff_s: float

    def __post_init__(self):
        # written so that NaN fails every check
        if not (self.t1_s > 0 and self.t2_s > 0):
            raise ValueError("T1 and T2 must be positive")
        if self.t2_s > 2.0 * self.t1_s + TIME_EPS:
            raise ValueError("physicality requires T2 <= 2 T1")
        if not self.cutoff_s >= 0:
            raise ValueError(f"cutoff must be nonnegative, got {self.cutoff_s}")


@dataclass(frozen=True)
class Schedule:
    """Periodic simultaneous sending over a fixed wall-clock horizon, in at most ``MAX_SLOTS`` slots."""

    send_interval_s: float
    horizon_s: float

    def __post_init__(self):
        if not 0 < self.send_interval_s <= self.horizon_s < math.inf:
            raise ValueError(
                f"need 0 < send interval <= horizon < inf, got {self.send_interval_s} "
                f"and {self.horizon_s}"
            )
        # a float quotient, so a count past the float range reads inf
        slots = self.horizon_s / self.send_interval_s
        if slots >= MAX_SLOTS + 1:
            raise ValueError(f"send interval {self.send_interval_s!r} over a {self.horizon_s!r} s horizon "
                             f"gives {slots:.10g} send slots, more than the cap of {MAX_SLOTS:.0e}")

    @property
    def n_slots(self) -> int:
        return int(math.floor(self.horizon_s / self.send_interval_s + TIME_EPS))


def survival_prob(fiber: FiberParams) -> float:
    """Per-transmission survival probability (1 - p0) exp(-alpha L)."""
    return (1.0 - fiber.p0) * math.exp(-fiber.alpha_per_km * fiber.length_km)


_exp = np.vectorize(math.exp, otypes=[float])  # libm's exp, which np.exp may miss by a last bit


def _decay(states: np.ndarray, waits: np.ndarray, memory: MemoryParams) -> np.ndarray:
    """:func:`decohere` of ``(..., 4)`` states over ``(..., 1)`` waits (s); each state out is checked once."""
    if (waits < 0).any():
        raise ValueError("dt must be nonnegative")
    transverse, longitudinal = _exp(-waits / memory.t2_s), _exp(-waits / memory.t1_s)
    decayed = states * np.concatenate((np.ones_like(transverse), transverse, transverse, longitudinal), axis=-1)
    decayed[..., 3:] += 1.0 - longitudinal
    _physical(decayed)
    return decayed


def decohere(state: PauliVector1Q, dt_s: float, memory: MemoryParams) -> PauliVector1Q:
    """T1/T2 evolution over a storage interval.

    Transverse components decay as exp(-dt/T2); the longitudinal component
    relaxes toward the ground state, z -> z exp(-dt/T1) + (1 - exp(-dt/T1)).
    The map is a semigroup in dt and fixes [1, 0, 0, 1] as dt -> infinity.
    """
    return PauliVector1Q(_decay(state.coeffs, np.array([dt_s], dtype=float), memory))


@dataclass(frozen=True)
class LossExperimentResult:
    """Counts and estimate from one lossy run.

    ``merged_count`` merges performed at the middle node; ``received_count``
    merged qubits surviving the third fiber; ``zero_count`` observed |0>
    outcomes among those.  ``estimate`` is the q_Z,1 estimate formed by
    dividing the observed correlator by the analytic ideal reference
    m s^2 q_Z,2 q_Z,3 (NaN when nothing was received).
    """

    merged_count: int
    received_count: int
    zero_count: int
    estimate: float


def _merge_outcome_prob(
    channels: tuple[PauliChannel, PauliChannel, PauliChannel],
    waits: np.ndarray,
    memory: MemoryParams,
    spam: SpamModel,
) -> np.ndarray:
    """P(outcome 0) per merge, from one merge step over the rows of ``waits``: the
    per-root storage waits ``(wait_0, wait_1)`` of each merge (one pair is one row)."""
    diagonals = _diagonals(channels)
    fresh = np.array([1.0, 0.0, 0.0, spam.s]) * diagonals[:2]  # a qubit from each root, arrived
    stored = _decay(fresh, np.reshape(waits, (-1, 2, 1)), memory)
    visited: list = []
    probs = _merge_prob(stored[:, 0], stored[:, 1], diagonals[None, 2:3], spam.m, visited)
    _physical(np.concatenate(visited))
    return probs


def _pair_gaps(arrived: np.ndarray, k: int) -> np.ndarray:
    """Root 1's slot minus root 0's for every merge, in merge order (int64).

    ``arrived`` has one row per slot and one column per root.  Arrivals pair
    first in, first out; a qubit more than ``k`` slots from its partner is
    dropped.  Root 1's j-th arrival meets root 0's queue at index u_j between
    lo_j, root 0's arrivals before its slot minus k, and hi_j, those up to its
    slot plus k, and merges exactly when u_j < hi_j: u_0 = lo_0 and
    u_{j+1} = max(min(u_j + 1, hi_j), lo_{j+1}).  Maps x -> max(min(x + s, A), B)
    compose into maps of that form, so a doubling scan finds every u_j in at
    most log2(arrivals) rounds.  It stops once every composite is a constant
    (B >= A); at k = 0 all of them are from the start, as lo_{j+1} >= hi_j.
    """
    first, second = (np.flatnonzero(arrived[:, root]) for root in (0, 1))
    n_slots = len(arrived)
    before = np.zeros(n_slots + 1, dtype=np.int32)  # root-0 arrivals before each slot; < 2^31 slots
    np.cumsum(arrived[:, 0], dtype=np.int32, out=before[1:])
    hi = before[np.clip(second + k + 1, 0, n_slots)]
    # (shift, upper, lower) of the map from u_{j-1} to u_j; row 0's is the constant lo_0
    lower = before[np.clip(second - k, 0, n_slots)]
    upper = np.concatenate((lower[:1], hi[:-1]))
    shift = np.ones_like(lower)
    shift[:1] = 0
    width = 1
    while (lower < upper).any():
        # row j's map after row j - width's; a constant map is left as it is
        s, a = shift[width:], upper[width:]
        composed = (
            shift[:-width] + s,
            np.minimum(upper[:-width] + s, a),
            np.maximum(np.minimum(lower[:-width] + s, a), lower[width:]),
        )
        shift[width:], upper[width:], lower[width:] = composed
        width *= 2
    merges = lower < hi
    return second[merges] - first[lower[merges]]


def run_loss_experiment(
    channels: tuple[PauliChannel, PauliChannel, PauliChannel],
    fiber: FiberParams,
    memory: MemoryParams,
    schedule: Schedule,
    spam: SpamModel = PERFECT_SPAM,
    seed: int = 0,
) -> LossExperimentResult:
    """Simulate the lossy merge protocol over the schedule horizon.

    Arrivals pair first-in first-out; a qubit that would wait past the
    cutoff is dropped.  k, the largest wait in slots that the cutoff keeps
    (``k dt <= cutoff + TIME_EPS``), is computed once, and one prefix scan
    (:func:`_pair_gaps`) pairs the arrival slots of all merges against it as
    integer slot gaps.  Randomness is split into three substreams
    (arrivals, relay-fiber loss, measurement outcomes) that are consumed
    independently of the cutoff, so for all cutoffs below the send interval
    the counts coincide exactly.  One batched call of the state pipeline
    computes the outcome probability of every distinct received gap.
    """
    p_s = survival_prob(fiber)
    dt = schedule.send_interval_s
    n_slots = schedule.n_slots
    arrived = substream(seed, "loss-arrivals", 0).random((n_slots, 2)) < p_s

    # k is the largest g with g * dt <= limit.  The quotient may round across
    # an integer, so that float test corrects it; no gap reaches n_slots, which
    # caps k for an infinite or huge cutoff.  As dt > 0, g * dt grows with g,
    # so -k <= gap <= k keeps exactly the waits with |gap| * dt <= limit.
    limit = memory.cutoff_s + TIME_EPS
    k = int(min(limit / dt, n_slots))
    while k < n_slots and (k + 1) * dt <= limit:
        k += 1
    while k > 0 and k * dt > limit:
        k -= 1

    gaps = _pair_gaps(arrived, k)
    relayed = substream(seed, "loss-relay", 0).random(gaps.size) < p_s
    received = gaps[relayed]
    outcomes = substream(seed, "loss-outcomes", 0).random(received.size)
    distinct, inverse = np.unique(received, return_inverse=True)
    waits = np.column_stack((np.maximum(distinct, 0) * dt, np.maximum(-distinct, 0) * dt))
    probs = _merge_outcome_prob(channels, waits, memory, spam)
    zeros = int(np.count_nonzero(outcomes < probs[inverse]))
    n_received = received.size

    reference = spam.m * spam.s * spam.s * channels[1].q_z * channels[2].q_z
    if n_received == 0 or reference == 0.0:
        estimate = math.nan
    else:
        estimate = (2.0 * zeros / n_received - 1.0) / reference
    return LossExperimentResult(
        merged_count=gaps.size,
        received_count=n_received,
        zero_count=zeros,
        estimate=estimate,
    )
