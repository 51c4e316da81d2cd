"""Seeded random substreams, MSE aggregation, and closed-form Cramer-Rao
reference bounds for the estimation experiments.

Random numbers come from counter-based Philox generators keyed by
(master seed, label, index) through ``SeedSequence`` spawn keys, so any
number of trials or grid cells can run in parallel with reproducible,
non-overlapping streams.
"""

from __future__ import annotations

import math
import zlib
from typing import NamedTuple, Sequence, Union

import numpy as np


def _label_key(label: str) -> int:
    # Stable 32-bit key for a stream label; crc32 is deterministic across runs.
    return zlib.crc32(label.encode("utf-8"))


def substream(master_seed: int, label: str, index: int) -> np.random.Generator:
    """Independent generator for (seed, label, index).

    Distinct triples give statistically independent Philox streams; the same
    triple always reproduces the same draws.
    """
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(_label_key(label), int(index)))
    return np.random.Generator(np.random.Philox(seq))


class TrialAggregate(NamedTuple):
    """Per-experiment error summary across repeated trials.

    ``mse`` is the mean of squared errors over the trials with a finite estimate,
    ``sq_err_std`` their standard deviation, and ``mse_std = sq_err_std / sqrt(count)``
    the resulting uncertainty of the MSE itself (both are exposed since plotting
    conventions differ).  ``n_degenerate`` counts the other trials; with none
    left, all three are NaN.
    """

    truth: float
    mse: float
    sq_err_std: float
    mse_std: float
    n_trials: int
    n_degenerate: int


def aggregate_mse(estimates: Union[Sequence[float], np.ndarray], truth: float) -> TrialAggregate:
    """Mean squared error of ``estimates`` against ``truth``."""
    return aggregate_mse_rows(np.reshape(np.asarray(estimates, dtype=float), (1, -1)), [truth])[0]


def aggregate_mse_rows(
    estimates: Union[Sequence[Sequence[float]], np.ndarray], truths: Sequence[float]
) -> list[TrialAggregate]:
    """One :class:`TrialAggregate` per row of a ``(cells, trials)`` matrix,
    row ``i`` against ``truths[i]``.

    Reducing over the last, contiguous axis sums each row in the same order
    as a 1-D array, so every aggregate is bit for bit that of its row alone;
    reducing axis 0 of the transposed matrix is not.
    """
    values = np.ascontiguousarray(estimates, dtype=float)
    truth = np.asarray(truths, dtype=float)
    if values.ndim != 2 or values.shape[0] != truth.size:
        raise ValueError(f"need one truth per row of a matrix, got {values.shape} and {truth.size}")
    n_trials = values.shape[1]
    if not n_trials:
        raise ValueError("estimates must be nonempty")
    # float_power squares through libm pow, like Python's float ``**``, so each
    # squared error is bit for bit that of a scalar loop; ``**`` on an array
    # multiplies instead and differs in the last bit now and then.
    sq = np.float_power(values - truth[:, np.newaxis], 2)
    finite = np.isfinite(sq)
    if finite.all():
        moments = zip(sq.mean(axis=-1).tolist(), sq.std(axis=-1).tolist(), [n_trials] * truth.size)
    else:  # a row alone over its finite trials; one with none is NaN, with no empty-mean warning
        kept = [row[keep] for row, keep in zip(sq, finite)]
        moments = [(float(k.mean()), float(k.std()), k.size) if k.size else (math.nan, math.nan, 0) for k in kept]
    return [
        TrialAggregate(t, mse, sq_std, sq_std / math.sqrt(n) if n else math.nan, n_trials, n_trials - n)
        for t, (mse, sq_std, n) in zip(truth.tolist(), moments)
    ]


def crb_mergecast(
    m_samples: int, n_samples: int, q1: float, q2: float, q3: float, s: float = 1.0, m: float = 1.0
) -> float:
    """Reference Cramer-Rao bound for the merge-protocol estimate of q1.

    CRB(M, N) = q1 (1 - ms q1 q2 q3) / (M ms q2 q3)
              + q1^2 (1 - ms q2 q3) / (N ms q2 q3)
    """
    if m_samples < 1 or n_samples < 1:
        raise ValueError("sample sizes must be at least 1")
    denom = m * s * q2 * q3
    if denom == 0.0:
        raise ZeroDivisionError("ms * q2 * q3 must be nonzero")
    term_merge = q1 * (1.0 - m * s * q1 * q2 * q3) / (m_samples * denom)
    term_uni = q1 * q1 * (1.0 - m * s * q2 * q3) / (n_samples * denom)
    return term_merge + term_uni


def crb_spam_s(
    m_samples: int, n_samples: int, q1: float, q2: float, s: float, m: float
) -> float:
    """Reference bound for estimating the preparation parameter s.

    CRB(M, N) = s (1 - ms q1 q2) / (N (1 - m s^2 q1 q2) m q1 q2)
              + (1 - m s^2 q1 q2) / (M (1 - ms q1 q2) m q1 q2)
    """
    if m_samples < 1 or n_samples < 1:
        raise ValueError("sample sizes must be at least 1")
    qq = q1 * q2
    uni = 1.0 - m * s * qq
    merged = 1.0 - m * s * s * qq
    if m * qq == 0.0 or uni == 0.0 or merged == 0.0:
        raise ZeroDivisionError("degenerate parameters for the s bound")
    return s * uni / (n_samples * merged * m * qq) + merged / (m_samples * uni * m * qq)


def crb_spam_m(
    m_samples: int, n_samples: int, q1: float, q2: float, s: float, m: float
) -> float:
    """Reference bound for estimating the measurement parameter m.

    Mirror image of :func:`crb_spam_s` with the roles of s and m swapped:

    CRB(M, N) = m (1 - ms q1 q2) / (N (1 - m^2 s q1 q2) s q1 q2)
              + (1 - m^2 s q1 q2) / (M (1 - ms q1 q2) s q1 q2)
    """
    if m_samples < 1 or n_samples < 1:
        raise ValueError("sample sizes must be at least 1")
    qq = q1 * q2
    uni = 1.0 - m * s * qq
    summed = 1.0 - m * m * s * qq
    if s * qq == 0.0 or uni == 0.0 or summed == 0.0:
        raise ZeroDivisionError("degenerate parameters for the m bound")
    return m * uni / (n_samples * summed * s * qq) + summed / (m_samples * uni * s * qq)
