import math
from collections import deque

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qnt import lossy, oracle
from qnt.lossy import (
    TIME_EPS,
    FiberParams,
    LossExperimentResult,
    MemoryParams,
    Schedule,
    decohere,
    run_loss_experiment,
    survival_prob,
)
from qnt.pauli import ATOL, PauliChannel, PauliVector1Q, apply_channel
from qnt.protocols import DEGENERATE_DENOMINATOR_TOL, PERFECT_SPAM, SpamModel
from qnt.stats import substream

from conftest import random_channel, random_state
from test_protocols import bits, reference_merge_prob

STAR = (
    PauliChannel(0.5, 0.5, 0.5),
    PauliChannel(0.25, 0.25, 0.25),
    PauliChannel(0.35, 0.35, 0.35),
)
REFERENCE_FIBER = FiberParams(length_km=10.0, speed_km_per_s=2.0e5, p0=0.5, alpha_per_km=0.05)


def memory(cutoff: float) -> MemoryParams:
    return MemoryParams(t1_s=10.0, t2_s=1.0, cutoff_s=cutoff)


class TestParams:
    def test_fiber_validation(self):
        with pytest.raises(ValueError):
            FiberParams(10, 2e5, 1.5, 0.05)
        with pytest.raises(ValueError):
            FiberParams(-1, 2e5, 0.5, 0.05)

    def test_memory_validation(self):
        with pytest.raises(ValueError):
            MemoryParams(t1_s=1.0, t2_s=3.0, cutoff_s=0.1)  # T2 > 2 T1
        with pytest.raises(ValueError):
            MemoryParams(t1_s=1.0, t2_s=1.0, cutoff_s=-0.1)

    @pytest.mark.parametrize("make", [
        lambda: MemoryParams(t1_s=1.0, t2_s=1.0, cutoff_s=math.nan),
        lambda: MemoryParams(t1_s=math.nan, t2_s=1.0, cutoff_s=0.1),
        lambda: MemoryParams(t1_s=1.0, t2_s=math.nan, cutoff_s=0.1),
        lambda: FiberParams(math.nan, 2e5, 0.5, 0.05),
        lambda: FiberParams(10, math.nan, 0.5, 0.05),
        lambda: FiberParams(10, 2e5, 0.5, math.nan),
    ])
    def test_nan_rejected(self, make):
        # every comparison with NaN is False, so a NaN cutoff would never expire
        with pytest.raises(ValueError):
            make()

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            Schedule(send_interval_s=2.0, horizon_s=1.0)
        assert Schedule(0.5, 3600.0).n_slots == 7200

    @pytest.mark.parametrize("send_interval_s, horizon_s", [(1e-300, 1e300), (1e-9, 3600.0), (0.5, 5e7 + 0.5)])
    def test_schedule_past_the_slot_cap_rejected(self, send_interval_s, horizon_s):
        # the arrival draws would not fit in memory; 1e300 / 1e-300 overflows to inf
        with pytest.raises(ValueError, match="send slots, more than the cap of 1e\\+08"):
            Schedule(send_interval_s, horizon_s)


class TestSurvival:
    def test_reference_loss_level(self):
        p = survival_prob(REFERENCE_FIBER)
        assert p == pytest.approx(0.5 * math.exp(-0.5), abs=1e-15)
        assert 1 - p == pytest.approx(0.697, abs=1e-3)

    def test_no_attenuation(self):
        assert survival_prob(FiberParams(10, 2e5, 0.3, 0.0)) == pytest.approx(0.7, abs=1e-15)

    def test_zero_length(self):
        assert survival_prob(FiberParams(0, 2e5, 0.3, 0.05)) == pytest.approx(0.7, abs=1e-15)


class TestDecohere:
    def test_zero_time_identity(self, rng):
        state = random_state(rng)
        assert_allclose(decohere(state, 0.0, memory(1.0)).coeffs, state.coeffs, atol=ATOL)

    def test_long_time_ground_state(self, rng):
        state = random_state(rng)
        out = decohere(state, 1e6, memory(1.0))
        assert_allclose(out.coeffs, [1, 0, 0, 1], atol=1e-9)

    def test_plus_state_at_t2(self):
        mem = memory(1.0)
        out = decohere(PauliVector1Q.plus(), mem.t2_s, mem)
        assert_allclose(
            out.coeffs,
            [1, math.exp(-1), 0, 1 - math.exp(-mem.t2_s / mem.t1_s)],
            atol=ATOL,
        )

    def test_semigroup(self, rng):
        mem = memory(1.0)
        for _ in range(20):
            state = random_state(rng)
            a, b = rng.random(2)
            chained = decohere(decohere(state, a, mem), b, mem)
            direct = decohere(state, a + b, mem)
            assert_allclose(chained.coeffs, direct.coeffs, atol=ATOL)

    def test_preserves_physicality(self, rng):
        mem = memory(1.0)
        for _ in range(50):
            decohere(random_state(rng), float(rng.random() * 5), mem)  # constructor validates

    def test_matches_damping_kraus_composition(self, rng):
        # amplitude damping gamma = 1 - e^{-t/T1} composed with phase damping
        # lambda chosen to land the transverse decay at e^{-t/T2}
        mem = memory(1.0)
        for _ in range(20):
            state = random_state(rng)
            dt = float(rng.random() * 2)
            gamma = 1 - math.exp(-dt / mem.t1_s)
            lam = 1 - math.exp(-2 * dt / mem.t2_s) * math.exp(dt / mem.t1_s)
            rho = oracle.pauli_to_density(state)
            rho = oracle.evolve_kraus(rho, oracle.amplitude_damping_kraus(gamma))
            rho = oracle.evolve_kraus(rho, oracle.phase_damping_kraus(lam))
            expected = oracle.density_to_pauli(rho)
            assert_allclose(decohere(state, dt, mem).coeffs, expected.coeffs, atol=ATOL)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            decohere(PauliVector1Q.ket0(), -0.1, memory(1.0))

    def test_nan_time_rejected(self):
        # a NaN wait would decay every coefficient to NaN
        with pytest.raises(ValueError, match="^dt must be nonnegative$"):
            decohere(PauliVector1Q.ket0(), math.nan, MemoryParams(10, 1, 5))


class TestRunLossExperiment:
    def test_no_loss_perfect_synchrony(self):
        fiber = FiberParams(10, 2e5, 0.0, 0.0)  # survival = 1
        sched = Schedule(0.5, 10000.0)
        result = run_loss_experiment(STAR, fiber, memory(5.0), sched, seed=1)
        assert result.merged_count == sched.n_slots
        assert result.received_count == sched.n_slots
        # every merge is wait-free, so outcomes follow the ideal merge
        # distribution; the ratio estimate has std ~ 0.08 at 20000 samples
        assert result.estimate == pytest.approx(0.5, abs=0.3)

    def test_counts_coincide_below_send_interval(self):
        sched = Schedule(0.5, 1200.0)
        runs = [
            run_loss_experiment(STAR, REFERENCE_FIBER, memory(tc), sched, seed=4)
            for tc in (0.05, 0.2, 0.35, 0.49)
        ]
        reference = (runs[0].merged_count, runs[0].received_count, runs[0].zero_count)
        for run in runs[1:]:
            assert (run.merged_count, run.received_count, run.zero_count) == reference

    def test_larger_cutoff_weakly_increases_merges(self):
        sched = Schedule(0.5, 1200.0)
        for seed in (1, 2, 3):
            counts = [
                run_loss_experiment(STAR, REFERENCE_FIBER, memory(tc), sched, seed=seed).merged_count
                for tc in (0.05, 0.75, 5.0, 10.0)
            ]
            assert counts == sorted(counts)

    def test_expected_counts_within_binomial_bands(self):
        # with T_c < T_send: merges ~ Binomial(slots, p_s^2), received adds p_s
        p_s = survival_prob(REFERENCE_FIBER)
        sched = Schedule(0.1, 3600.0)
        result = run_loss_experiment(STAR, REFERENCE_FIBER, memory(0.05), sched, seed=8)
        n = sched.n_slots
        mean_merge = n * p_s**2
        sd_merge = math.sqrt(n * p_s**2 * (1 - p_s**2))
        assert abs(result.merged_count - mean_merge) <= 5 * sd_merge
        mean_recv = result.merged_count * p_s
        sd_recv = math.sqrt(result.merged_count * p_s * (1 - p_s))
        assert abs(result.received_count - mean_recv) <= 5 * sd_recv

    def test_same_slot_merges_have_ideal_outcome_probability(self):
        # with cutoff below the slot spacing every merge is wait-free, so the
        # per-merge outcome probability equals the ideal merge value exactly
        from qnt.lossy import _merge_outcome_prob

        ideal = 0.521875
        got = _merge_outcome_prob(STAR, (0.0, 0.0), memory(0.05), SpamModel(1, 1))
        assert got == pytest.approx(ideal, abs=1e-12)

    def test_decohered_merge_limits(self):
        # relaxation drives the stored qubit to the ground state, which makes
        # its Z contribution saturate at 1: the merge probability tends to
        # the bare branch product, biasing the estimate upward
        mem = memory(10.0)
        from qnt.lossy import _merge_outcome_prob

        fresh = _merge_outcome_prob(STAR, (0.0, 0.0), mem, SpamModel(1, 1))
        assert fresh == pytest.approx(0.521875, abs=1e-12)
        control_relaxed = _merge_outcome_prob(STAR, (1e9, 0.0), mem, SpamModel(1, 1))
        assert control_relaxed == pytest.approx((1 + 0.25 * 0.35) / 2, abs=1e-9)
        target_relaxed = _merge_outcome_prob(STAR, (0.0, 1e9), mem, SpamModel(1, 1))
        assert target_relaxed == pytest.approx((1 + 0.5 * 0.35) / 2, abs=1e-9)

    def test_deterministic(self):
        sched = Schedule(0.5, 600.0)
        a = run_loss_experiment(STAR, REFERENCE_FIBER, memory(0.75), sched, seed=12)
        b = run_loss_experiment(STAR, REFERENCE_FIBER, memory(0.75), sched, seed=12)
        assert a == b

    def test_zero_reference_gives_nan(self):
        # q_Z,2 = 0 makes the reference m s^2 q_Z,2 q_Z,3 zero: qubits arrive, but nothing divides
        channels = (STAR[0], PauliChannel(0.0, 0.0, 0.0), STAR[2])
        result = run_loss_experiment(channels, REFERENCE_FIBER, memory(0.75), Schedule(0.5, 600.0), seed=12)
        assert result.received_count > 0
        assert math.isnan(result.estimate)


def reference_decohere(state, dt_s, memory):
    """T1/T2 decay of one ``PauliVector1Q``, the formula that the row decay replaces."""
    transverse = math.exp(-dt_s / memory.t2_s)
    longitudinal = math.exp(-dt_s / memory.t1_s)
    return PauliVector1Q.from_bloch(state.x * transverse, state.y * transverse,
                                    state.z * longitudinal + (1.0 - longitudinal))


def reference_merge_outcome_prob(channels, waits, memory, spam):
    """The per-merge object pipeline that the row merge step replaces: each root's qubit
    crosses its channel, decays over its wait unless that is zero, and one merge step
    per pair relays the result down the third channel."""
    ch1, ch2, ch3 = channels
    fresh = (apply_channel(ch1, spam.prepared_state()), apply_channel(ch2, spam.prepared_state()))
    return np.array([
        reference_merge_prob(*(reference_decohere(qubit, wait, memory) if wait > 0 else qubit
                               for qubit, wait in zip(fresh, pair)), [ch3], spam.m)
        for pair in np.reshape(waits, (-1, 2)).tolist()
    ])


def random_memory(rng) -> MemoryParams:
    t1 = 0.05 + 2.0 * rng.random()
    return MemoryParams(t1_s=t1, t2_s=2.0 * t1 * (0.01 + 0.99 * rng.random()), cutoff_s=1.0)


class TestRowDecayMatchesObjectReference:
    def test_decohere_bit_for_bit(self):
        rng = np.random.default_rng(2203)
        for case in range(400):
            state, mem = random_state(rng), random_memory(rng)
            dt = (0.0, rng.random(), 10.0 * rng.random(), 1e9)[case % 4]
            assert decohere(state, dt, mem).coeffs.tobytes() == reference_decohere(state, dt, mem).coeffs.tobytes()

    def test_merge_outcome_prob_bit_for_bit(self):
        rng = np.random.default_rng(2207)
        zero_waits = 0
        for case in range(200):
            channels = tuple(random_channel(rng, nonzero=True) for _ in range(3))
            spam = SpamModel(rng.random(), rng.random()) if case % 3 else PERFECT_SPAM
            gaps = rng.integers(-30, 31, rng.integers(1, 40))  # gap 0: neither qubit waits
            dt = (0.01, 0.1, 0.5)[case % 3]
            waits = np.column_stack((np.maximum(gaps, 0) * dt, np.maximum(-gaps, 0) * dt))
            zero_waits += int(np.count_nonzero(gaps == 0))
            mem = random_memory(rng)
            got = lossy._merge_outcome_prob(channels, waits, mem, spam)
            assert got.shape == (len(gaps),)
            assert list(map(bits, got)) == list(map(bits, reference_merge_outcome_prob(channels, waits, mem, spam)))
        assert zero_waits > 50

    def test_no_waits_give_no_probabilities(self):
        # a trial that receives nothing passes a size-0 waits array
        got = lossy._merge_outcome_prob(STAR, np.zeros((0, 2)), memory(1.0), SpamModel(0.9, 0.8))
        assert got.shape == (0,) and got.dtype == np.float64


def reference_pair_gaps(arrived, k):
    """The two-pointer walk that the prefix scan replaces: root 1's slot minus
    root 0's per merge, dropping the earlier qubit of a pair more than k
    slots apart."""
    first, second = (np.flatnonzero(arrived[:, root]).tolist() for root in (0, 1))
    gaps = []
    i = j = 0
    while i < len(first) and j < len(second):
        gap = second[j] - first[i]
        if gap > k:  # root 0's qubit expired
            i += 1
        elif gap < -k:  # root 1's qubit expired
            j += 1
        else:
            gaps.append(gap)
            i += 1
            j += 1
    return np.array(gaps, dtype=np.int64)


def seeded_pairing_cases():
    """(arrived, k) inputs: a few hundred seeded (n_slots, p0, p1, k) draws,
    then no arrivals, certain arrivals, k = 0, k >= n_slots and one slot."""
    rng = np.random.default_rng(2024)
    cases = []
    for index in range(300):
        n_slots = int(rng.integers(1, 40 if index % 2 else 2000))
        p0, p1 = rng.random(2)
        if index % 5 == 0:  # a root that never, always or rarely delivers
            p0 = rng.choice([0.0, 1.0, 0.05])
        k = int(rng.choice([0, 1, rng.integers(0, 60), rng.integers(0, n_slots + 2)]))
        cases.append((np.column_stack((rng.random(n_slots) < p0, rng.random(n_slots) < p1)), k))
    full, empty = np.ones(500, dtype=bool), np.zeros(500, dtype=bool)
    half = rng.random(500) < 0.5
    for columns in ((empty, empty), (empty, half), (half, empty), (full, full), (full, half), (half, full)):
        for k in (0, 3, 499, 500, 10**9):
            cases.append((np.column_stack(columns), k))
    for arrived in ([[True, True]], [[True, False]], [[False, True]], [[False, False]]):
        for k in (0, 1, 10**9):
            cases.append((np.array(arrived, dtype=bool).reshape(1, 2), k))
    cases.append((np.zeros((0, 2), dtype=bool), 0))
    return cases


class TestPairGaps:
    def test_matches_the_walk(self):
        for arrived, k in seeded_pairing_cases():
            got, want = lossy._pair_gaps(arrived, k), reference_pair_gaps(arrived, k)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want, err_msg=f"n_slots={len(arrived)}, k={k}")

    def test_cases_reach_drops_and_long_waits(self):
        # the inputs above must drop qubits of both roots in one run, wait on
        # either root and merge across many slots, or they would not pin the
        # scan's rounds
        cases = seeded_pairing_cases()
        merges = [reference_pair_gaps(arrived, k) for arrived, k in cases]
        assert sum(gaps.size < min(arrived.sum(axis=0)) for gaps, (arrived, _) in zip(merges, cases)) > 50
        assert sum((gaps > 0).any() and (gaps < 0).any() for gaps in merges) > 50
        assert sum(abs(gaps).max(initial=0) > 20 for gaps in merges) > 20
        assert any(gaps.size == 0 for gaps in merges)

    def test_k_zero_merges_exactly_the_slots_where_both_roots_arrived(self):
        arrived = substream(9, "pairing", 0).random((5000, 2)) < 0.3
        gaps = lossy._pair_gaps(arrived, 0)
        assert gaps.size == np.count_nonzero(arrived.all(axis=1))
        assert not gaps.any()


def reference_loss(channels, fiber, memory, schedule, spam=PERFECT_SPAM, seed=0):
    """The slot-by-slot simulation that pairing arrivals replaces: a queue of
    waiting qubits per root, aged out at every slot, and one relay draw,
    state pipeline and outcome draw per merge."""
    p_s = survival_prob(fiber)
    n_slots = schedule.n_slots
    dt = schedule.send_interval_s
    arrivals = substream(seed, "loss-arrivals", 0).random((n_slots, 2))
    relay_rng = substream(seed, "loss-relay", 0)
    outcome_rng = substream(seed, "loss-outcomes", 0)

    waiting = (deque(), deque())
    merges = []
    for slot in range(n_slots):
        for root in (0, 1):
            queue = waiting[root]
            while queue and (slot - queue[0]) * dt > memory.cutoff_s + TIME_EPS:
                queue.popleft()
            if arrivals[slot, root] < p_s:
                queue.append(slot)
        while waiting[0] and waiting[1]:
            s1 = waiting[0].popleft()
            s2 = waiting[1].popleft()
            merges.append(((slot - s1) * dt, (slot - s2) * dt))

    received = zeros = 0
    for waits in merges:
        if relay_rng.random() >= p_s:
            continue
        received += 1
        if outcome_rng.random() < lossy._merge_outcome_prob(channels, waits, memory, spam):
            zeros += 1
    reference = spam.m * spam.s * spam.s * channels[1].q_z * channels[2].q_z
    if received == 0 or abs(reference) < DEGENERATE_DENOMINATOR_TOL:
        estimate = math.nan
    else:
        estimate = (2.0 * zeros / received - 1.0) / reference
    return LossExperimentResult(len(merges), received, zeros, estimate)


LOSSLESS_FIBER = FiberParams(10, 2e5, 0.0, 0.0)
DEAD_FIBER = FiberParams(10, 2e5, 1.0, 0.05)
SPARSE_FIBER = FiberParams(10, 2e5, 0.95, 0.0)  # survival 0.05, so waits of tens of slots
# (fiber, send interval, horizon, cutoff, spam); a cutoff of k dt - TIME_EPS
# keeps a qubit whose wait is exactly k dt, since only waits beyond
# cutoff + TIME_EPS expire; an infinite or huge cutoff keeps every wait
REFERENCE_CASES = [
    *((REFERENCE_FIBER, 0.5, 600.0, cutoff, PERFECT_SPAM)
      for cutoff in (0.0, 0.05, 0.35, 0.5, 1.0 - 1e-10, 1.0, 1.0 + 1e-10, 1.0 - TIME_EPS, 5.0,
                     1e300, math.inf)),
    *((REFERENCE_FIBER, 0.1, 300.0, cutoff, PERFECT_SPAM)
      for cutoff in (3 * 0.1 - 1e-10, 3 * 0.1, 3 * 0.1 + 1e-10, 3 * 0.1 - TIME_EPS, 10.0)),
    # floor((cutoff + TIME_EPS) / dt) is 17 where the largest kept wait is 16
    # slots, and 42 where it is 43
    *((SPARSE_FIBER, 0.1, 300.0, cutoff, PERFECT_SPAM) for cutoff in (1.6999999989999999, 4.299999999)),
    (REFERENCE_FIBER, 0.5, 600.0, 2.0, SpamModel(0.9, 0.8)),
    (LOSSLESS_FIBER, 0.5, 100.0, 0.75, PERFECT_SPAM),
    (DEAD_FIBER, 0.5, 100.0, 0.75, PERFECT_SPAM),
    *((fiber, 0.5, 0.5, 0.75, PERFECT_SPAM) for fiber in (REFERENCE_FIBER, LOSSLESS_FIBER)),
]


class TestMatchesSlotReference:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("fiber, t_send, horizon, cutoff, spam", REFERENCE_CASES)
    def test_same_result_as_slot_loop(self, fiber, t_send, horizon, cutoff, spam, seed):
        args = (STAR, fiber, memory(cutoff), Schedule(t_send, horizon), spam, seed)
        got, want = run_loss_experiment(*args), reference_loss(*args)
        assert (got.merged_count, got.received_count, got.zero_count) == (
            want.merged_count, want.received_count, want.zero_count)
        assert got.estimate == want.estimate or (math.isnan(got.estimate) and math.isnan(want.estimate))
        assert all(type(count) is int for count in (got.merged_count, got.received_count, got.zero_count))

    def test_boundary_cases_exercise_drops_and_edges(self):
        # the cases above must reach the behaviour they pin: dropped qubits
        # at the exact k dt boundary, an empty run, and a one-slot horizon
        sched = Schedule(0.5, 600.0)
        at_boundary = reference_loss(STAR, REFERENCE_FIBER, memory(1.0 - TIME_EPS), sched, seed=3)
        below = reference_loss(STAR, REFERENCE_FIBER, memory(1.0 - 2 * TIME_EPS), sched, seed=3)
        assert at_boundary.merged_count > below.merged_count
        assert reference_loss(STAR, DEAD_FIBER, memory(0.75), sched, seed=3).merged_count == 0
        one_slot = reference_loss(STAR, LOSSLESS_FIBER, memory(0.75), Schedule(0.5, 0.5), seed=3)
        assert (one_slot.merged_count, one_slot.received_count) == (1, 1)

    @pytest.mark.parametrize("t_send, cutoff", [(0.5, 0.35), (0.5, 5.0), (0.1, 10.0)])
    def test_one_merge_call_per_trial_with_a_row_per_distinct_received_gap(self, t_send, cutoff, monkeypatch):
        calls = []  # per merge-step call, its rows of (control, target) states
        real = lossy._merge_prob

        def recording(control, target, relay, m, visited):
            calls.append([row.tobytes() for row in np.concatenate((control, target), axis=1)])
            return real(control, target, relay, m, visited)

        monkeypatch.setattr(lossy, "_merge_prob", recording)
        args = (STAR, REFERENCE_FIBER, memory(cutoff), Schedule(t_send, 300.0))
        reference_loss(*args, seed=5)  # one one-row call per received merge
        per_merge = [row for call in calls for row in call]
        assert all(len(call) == 1 for call in calls)
        calls.clear()
        run_loss_experiment(*args, seed=5)
        assert len(calls) == 1
        (rows,) = calls
        assert len(rows) == len(set(rows))
        assert set(rows) == set(per_merge)
        assert len(rows) < len(per_merge)
        if cutoff < t_send:  # every merge is wait-free
            assert len(rows) == 1
