import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qnt import network, oracle, protocols
from qnt.experiments import ExperimentConfig, run_experiment
from qnt.network import Edge, Topology
from qnt.network import BranchSelectionError
from qnt.pauli import (
    ATOL,
    ChannelValidationError,
    Dressing,
    NonPhysicalStateError,
    PauliChannel,
    PauliVector1Q,
    apply_channel,
    apply_cnot,
    bypass_dressing,
    compose_channels,
    dress_channel,
    joint_z_measurement_probs,
    partial_trace,
    tensor,
)
from qnt.protocols import (
    ALL_CYCLING_VARIANTS,
    CyclingVariant,
    EstimationError,
    ProtocolError,
    ProtocolOutcome,
    RawSpamVectors,
    SpamModel,
    bypass_unicast_prob,
    consistent_sign_assignments,
    cycled_zero_prob,
    effective_spam_after_cycling,
    estimate_m,
    estimate_q_mergecast,
    estimate_s,
    merge_and_unicast_probs,
    mergecast_prob,
    phase_cycling_compile,
    plan_etching,
    run_progressive_etching,
    sample_etching,
    sample_protocol,
    spam_m_protocol_probs,
    spam_ms_bypass_prob,
    spam_s_protocol_prob,
    unicast_prob,
)
from qnt.stats import aggregate_mse, substream
from qnt.topo_io import bundled_topology, format_topology

from conftest import random_channel, random_state
from test_network import random_mesh, random_tree

STAR = (
    PauliChannel(0.5, 0.5, 0.5),
    PauliChannel(0.25, 0.25, 0.25),
    PauliChannel(0.35, 0.35, 0.35),
)


def uniform_channel(q: float) -> PauliChannel:
    return PauliChannel(q, q, q)


def oracle_effect_prob(rho: oracle.DensityMatrix, m: float) -> float:
    """P(outcome 0) via the effect matrix (I + m Z)/2 on the oracle state."""
    effect = (oracle.I2 + m * oracle.Z) / 2.0
    return float(np.trace(effect @ rho.matrix).real)


class TestUnicastProb:
    def test_plain_product(self):
        assert unicast_prob([STAR[0], STAR[1]]) == pytest.approx(0.5625, abs=ATOL)

    def test_noiseless_path(self):
        path = [PauliChannel.identity(), PauliChannel.identity()]
        assert unicast_prob(path) == pytest.approx(1.0, abs=ATOL)

    def test_with_spam(self):
        spam = SpamModel(0.9, 0.9)
        assert unicast_prob([STAR[0], STAR[1]], spam) == pytest.approx(
            (1 + 0.81 * 0.125) / 2, abs=ATOL
        )

    def test_empty_path_rejected(self):
        with pytest.raises(ProtocolError):
            unicast_prob([])

    def test_zero_parameter_rejected(self):
        with pytest.raises(ProtocolError):
            unicast_prob([PauliChannel(0.5, 0.5, 0.0)], basis="Z")
        # fine in a basis where the parameter is nonzero
        unicast_prob([PauliChannel(0.5, 0.5, 0.0)], basis="X")

    def test_matches_oracle_pipeline(self, rng):
        for _ in range(25):
            path = [random_channel(rng) for _ in range(rng.integers(1, 4))]
            spam = SpamModel(rng.random(), rng.random())
            rho = oracle.pauli_to_density(PauliVector1Q.from_bloch(0, 0, spam.s))
            for ch in path:
                rho = oracle.evolve_kraus(rho, oracle.kraus_of_channel(ch))
            expected = oracle_effect_prob(rho, spam.m)
            got = unicast_prob(path, spam) if all(ch.q_z != 0 for ch in path) else None
            if got is not None:
                assert got == pytest.approx(expected, abs=ATOL)

    def test_dressed_basis_reads_other_component(self):
        ch = PauliChannel(0.5, 0.3, 0.2)
        spam = SpamModel(0.8, 0.9)
        assert unicast_prob([ch], spam, basis="X") == pytest.approx(
            (1 + 0.72 * ch.q_x) / 2, abs=ATOL
        )
        assert unicast_prob([ch], spam, basis="Y") == pytest.approx(
            (1 + 0.72 * ch.q_y) / 2, abs=ATOL
        )


class TestMergecastProb:
    def test_star_pin(self):
        assert mergecast_prob(STAR[0], [STAR[1]], [STAR[2]]) == pytest.approx(
            0.521875, abs=ATOL
        )

    def test_zero_preparation_is_uninformative(self):
        spam = SpamModel(s=0.0, m=1.0)
        assert mergecast_prob(STAR[0], [STAR[1]], [STAR[2]], spam) == pytest.approx(
            0.5, abs=ATOL
        )

    def test_generalized_branch_products(self):
        target = uniform_channel(0.8)
        branch_a2 = [uniform_channel(0.8), uniform_channel(0.8)]
        branch_b = [uniform_channel(0.8)] * 3
        expected = (1 + 0.8 * 0.8**2 * 0.8**3) / 2
        assert mergecast_prob(target, branch_a2, branch_b) == pytest.approx(expected, abs=ATOL)

    def test_closed_form_with_spam(self, rng):
        for _ in range(50):
            target = random_channel(rng, nonzero=True)
            branch_a2 = [random_channel(rng, nonzero=True) for _ in range(rng.integers(1, 3))]
            branch_b = [random_channel(rng, nonzero=True) for _ in range(rng.integers(1, 3))]
            spam = SpamModel(rng.random(), rng.random())
            for basis in ("Z", "X", "Y"):
                dressing = {"Z": Dressing.NONE, "X": Dressing.HADAMARD, "Y": Dressing.HADAMARD_PHASE}[basis]
                product = dress_channel(target, dressing).q_z
                for ch in branch_a2 + branch_b:
                    product *= dress_channel(ch, dressing).q_z
                expected = (1 + spam.m * spam.s**2 * product) / 2
                got = mergecast_prob(target, branch_a2, branch_b, spam, basis)
                assert got == pytest.approx(expected, abs=ATOL)

    def test_matches_oracle_two_qubit_pipeline(self, rng):
        for _ in range(20):
            target = random_channel(rng, nonzero=True)
            mid = random_channel(rng, nonzero=True)
            out = random_channel(rng, nonzero=True)
            spam = SpamModel(rng.random(), rng.random())
            prep = oracle.pauli_to_density(PauliVector1Q.from_bloch(0, 0, spam.s))
            pair = oracle.DensityMatrix(np.kron(prep.matrix, prep.matrix))
            pair = oracle.evolve_channel_on_qubit(pair, target, "first")
            pair = oracle.evolve_channel_on_qubit(pair, mid, "second")
            pair = oracle.evolve_unitary(pair, "CNOT")
            relay = oracle.partial_trace_density(pair, "first")
            relay = oracle.evolve_kraus(relay, oracle.kraus_of_channel(out))
            expected = oracle_effect_prob(relay, spam.m)
            got = mergecast_prob(target, [mid], [out], spam)
            assert got == pytest.approx(expected, abs=ATOL)


class TestBypassUnicast:
    def test_bit_flip_then_target(self):
        assert bypass_unicast_prob(
            [PauliChannel.bit_flip(0.3)], uniform_channel(0.25)
        ) == pytest.approx(0.625, abs=ATOL)

    def test_perfect_target(self):
        assert bypass_unicast_prob(
            [PauliChannel.bit_flip(0.3)], PauliChannel.identity()
        ) == pytest.approx(1.0, abs=ATOL)

    def test_depolarizing_in_bypass_rejected(self):
        with pytest.raises(Exception):
            bypass_unicast_prob([PauliChannel.depolarizing(0.3)], STAR[0])

    def test_invariant_to_bypassed_parameters(self):
        # Sweep the bypassed channels' flip probabilities; p never moves.
        target = uniform_channel(0.25)
        reference = bypass_unicast_prob([PauliChannel.bit_flip(0.1)], target)
        for p in np.linspace(0.0, 1.0, 21):
            for make in (PauliChannel.bit_flip, PauliChannel.phase_flip, PauliChannel.bit_phase_flip):
                got = bypass_unicast_prob([make(p), make(1 - p)], target, SpamModel(1, 1))
                assert got == pytest.approx(reference, abs=ATOL)

    def test_with_spam(self):
        spam = SpamModel(0.9, 0.8)
        got = bypass_unicast_prob([PauliChannel.bit_flip(0.2)], uniform_channel(0.4), spam)
        assert got == pytest.approx((1 + 0.9 * 0.8 * 0.4) / 2, abs=ATOL)

    def test_target_with_zero_q_z_rejected(self):
        # the route runs through the state pipeline, which rejects a zero parameter as unicast does
        expected = r"^bypass unicast: channel with zero Z parameter cannot be characterized$"
        for bypassed in ([], [PauliChannel.bit_flip(0.2)]):
            with pytest.raises(ProtocolError, match=expected):
                bypass_unicast_prob(bypassed, PauliChannel(0.5, 0.5, 0.0), SpamModel(0.9, 0.8))


class TestSpamProtocols:
    def test_spam_s_pin(self):
        spam = SpamModel(0.9, 0.9)
        got = spam_s_protocol_prob([STAR[0], STAR[1]], spam)
        assert got == pytest.approx((1 + 0.9 * 0.81 * 0.125) / 2, abs=ATOL)
        assert got == pytest.approx(0.5455625, abs=ATOL)

    def test_spam_s_reduces_to_unicast_when_perfect_prep(self):
        spam = SpamModel(1.0, 0.77)
        assert spam_s_protocol_prob([STAR[0], STAR[1]], spam) == pytest.approx(
            unicast_prob([STAR[0], STAR[1]], spam), abs=ATOL
        )

    def test_root_state_after_merge_is_s_squared(self):
        # the traced-out root state carries s^2 on its Z component
        from qnt.pauli import apply_cnot, partial_trace, tensor

        spam = SpamModel(0.83, 1.0)
        pair = apply_cnot(tensor(spam.prepared_state(), spam.prepared_state()), "first")
        root = partial_trace(pair, "first")
        assert_allclose(root.coeffs, [1, 0, 0, spam.s**2], atol=ATOL)

    def test_spam_m_displayed_polynomial(self, rng):
        # P(00) = (1 + m s^2 qq q'q' + m s q'q' + m^2 s qq)/4 on a grid
        for s in (0.2, 0.5, 0.7, 0.9, 1.0):
            for m in (0.2, 0.5, 0.7, 0.9, 1.0):
                spam = SpamModel(s, m)
                qa = 0.5 * 0.25
                qb = 0.35 * 0.8
                p00, p01, p10, p11, p_sum = spam_m_protocol_probs(
                    [uniform_channel(0.5), uniform_channel(0.25)],
                    [uniform_channel(0.35), uniform_channel(0.8)],
                    spam,
                )
                assert p00 == pytest.approx(
                    (1 + m * s**2 * qa * qb + m * s * qb + m**2 * s * qa) / 4, abs=ATOL
                )
                assert p11 == pytest.approx(
                    (1 - m * s**2 * qa * qb - m * s * qb + m**2 * s * qa) / 4, abs=ATOL
                )
                assert p_sum == pytest.approx((1 + m**2 * s * qa) / 2, abs=ATOL)
                assert p00 + p01 + p10 + p11 == pytest.approx(1.0, abs=ATOL)

    def test_spam_m_pin(self):
        spam = SpamModel(0.7, 0.7)
        *_, p_sum = spam_m_protocol_probs(
            [STAR[0], STAR[1]], [STAR[0], STAR[1]], spam
        )
        assert p_sum == pytest.approx(0.5214375, abs=ATOL)

    def test_spam_m_noiseless_all_zeros(self):
        identity_path = [PauliChannel.identity(), PauliChannel.identity()]
        p00, p01, p10, p11, p_sum = spam_m_protocol_probs(identity_path, identity_path, SpamModel(1, 1))
        assert_allclose([p00, p01, p10, p11], [1, 0, 0, 0], atol=ATOL)
        assert p_sum == pytest.approx(1.0, abs=ATOL)

    def test_spam_ms_bypass(self):
        spam = SpamModel(0.9, 0.9)
        path = [PauliChannel.bit_flip(0.2), PauliChannel.bit_flip(0.45)]
        assert spam_ms_bypass_prob(path, spam) == pytest.approx(0.905, abs=ATOL)
        # independent of the flip probabilities on the path
        other = [PauliChannel.bit_flip(0.01), PauliChannel.phase_flip(0.99)]
        assert spam_ms_bypass_prob(other, spam) == pytest.approx(0.905, abs=ATOL)

    def test_spam_ms_perfect(self):
        assert spam_ms_bypass_prob([PauliChannel.bit_flip(0.2)], SpamModel(1, 1)) == pytest.approx(
            1.0, abs=ATOL
        )


class TestSampleProtocol:
    def test_certain_outcomes(self):
        assert sample_protocol(1.0, 100, seed=1).n0 == 100
        assert sample_protocol(0.0, 100, seed=1).n0 == 0

    def test_seed_reproducibility(self):
        a = sample_protocol(0.6, 10_000, seed=42)
        b = sample_protocol(0.6, 10_000, seed=42)
        assert a.n0 == b.n0
        c = sample_protocol(0.6, 10_000, seed=43)
        assert c.n0 != a.n0  # overwhelmingly likely for distinct streams

    def test_invalid_inputs(self):
        with pytest.raises(ProtocolError):
            sample_protocol(1.5, 10, seed=0)
        with pytest.raises(ProtocolError):
            sample_protocol(0.5, 0, seed=0)

    def test_five_sigma_convergence(self):
        # |p_hat - p| <= 5 sqrt(p(1-p)/n) must hold in >= 99% of seeded runs.
        violations = 0
        runs = 400
        for i in range(runs):
            p = 0.1 + 0.8 * (i / runs)
            out = sample_protocol(p, 2000, substream(777, "convergence", i))
            bound = 5 * math.sqrt(p * (1 - p) / out.n_total)
            if abs(out.empirical_p - p) > bound:
                violations += 1
        assert violations / runs <= 0.01


class TestEstimators:
    def test_mergecast_ratio_pin(self):
        assert estimate_q_mergecast(0.521875, 0.54375) == pytest.approx(0.5, abs=ATOL)

    def test_all_ones(self):
        assert estimate_q_mergecast(1.0, 1.0) == pytest.approx(1.0, abs=ATOL)

    def test_spam_prefactor_division(self):
        spam = SpamModel(0.9, 0.9)
        p_merge = mergecast_prob(STAR[0], [STAR[1]], [STAR[2]], spam)
        p_uni = unicast_prob([STAR[1], STAR[2]], spam)
        raw = estimate_q_mergecast(p_merge, p_uni)
        assert raw == pytest.approx(0.9 * 0.5, abs=ATOL)
        assert raw / spam.s == pytest.approx(0.5, abs=ATOL)

    def test_counts_interface(self):
        merge = ProtocolOutcome(n0=521875, n_total=1_000_000)
        uni = ProtocolOutcome(n0=543750, n_total=1_000_000)
        assert estimate_q_mergecast(merge, uni) == pytest.approx(0.5, abs=ATOL)

    def test_degenerate_denominator(self):
        # a scalar call has no trial to give NaN, so it raises
        expected = r"^mergecast estimator: denominator 2\*p-1 = 0\.0 is degenerate$"
        with pytest.raises(EstimationError, match=expected):
            estimate_q_mergecast(0.7, 0.5)

    @pytest.mark.parametrize("merge, uni, degenerate", [
        (np.full((2, 3), 0.7), np.array([[0.6, 0.6, 0.5], [0.6, 0.5 + 1e-10, 0.6]]),
         [[False, False, True], [False, True, False]]),
        (np.array([0.7, 0.4, 0.7, 0.9]), np.array([0.6, 0.6, 0.5, 0.5]), [False, False, True, True]),
        (0.7, np.array([0.5, 0.3, 0.5 - 4e-10]), [True, False, True]),
    ])
    def test_degenerate_entries_are_nan_and_the_rest_divide(self, merge, uni, degenerate):
        got = estimate_q_mergecast(merge, uni)
        degenerate = np.array(degenerate)
        assert np.isnan(got).tolist() == degenerate.tolist()
        num, den = np.broadcast_arrays(2.0 * np.asarray(merge) - 1.0, 2.0 * uni - 1.0)
        assert got[~degenerate].tolist() == (num[~degenerate] / den[~degenerate]).tolist()

    def test_s_and_m_exact_identities(self):
        for s in (0.3, 0.7, 0.9, 1.0):
            for m in (0.3, 0.7, 0.9, 1.0):
                spam = SpamModel(s, m)
                path = [STAR[0], STAR[1]]
                p0 = unicast_prob(path, spam)
                p1 = spam_s_protocol_prob(path, spam)
                p2 = spam_m_protocol_probs(path, path, spam)[4]
                assert estimate_s(p1, p0) == pytest.approx(s, abs=1e-12)
                assert estimate_m(p2, p0) == pytest.approx(m, abs=1e-12)

    def test_exact_identification_random_grid(self, rng):
        # estimators recover the truth from analytic probabilities for every
        # basis dressing and SPAM in (0, 1]^2; parameters stay bounded away
        # from zero so the 2p-1 cancellation cannot eat the tolerance
        for _ in range(200):
            target = random_channel(rng, nonzero=True, min_q=0.1)
            branch_a2 = [random_channel(rng, nonzero=True, min_q=0.1)]
            branch_b = [random_channel(rng, nonzero=True, min_q=0.1)]
            spam = SpamModel(0.2 + 0.8 * rng.random(), 0.2 + 0.8 * rng.random())
            for basis, truth in (("Z", target.q_z), ("X", target.q_x), ("Y", target.q_y)):
                p_merge = mergecast_prob(target, branch_a2, branch_b, spam, basis)
                p_uni = unicast_prob(branch_a2 + branch_b, spam, basis)
                got = estimate_q_mergecast(p_merge, p_uni) / spam.s
                assert got == pytest.approx(truth, abs=1e-12)


class TestSignAmbiguity:
    def test_pairwise_products_leave_two_solutions(self, rng):
        for _ in range(100):
            mags = 0.05 + 0.95 * rng.random(3)
            signs = rng.choice([-1, 1], size=3)
            q = mags * signs
            pairs = (q[0] * q[1], q[1] * q[2], q[0] * q[2])
            solutions = consistent_sign_assignments(mags, pairs)
            assert len(solutions) == 2
            assert tuple(signs) in solutions
            assert tuple(-signs) in solutions
            resolved = consistent_sign_assignments(mags, pairs, triple_product=float(np.prod(q)))
            assert resolved == [tuple(signs)]

    def test_products_recovered_from_exact_protocol_probabilities(self, rng):
        # the same conclusion when the products come out of the actual
        # protocol pipelines instead of direct arithmetic
        for _ in range(50):
            mags = 0.1 + 0.85 * rng.random(3)
            signs = rng.choice([-1, 1], size=3)
            chans = [PauliChannel(0.0, 0.0, float(m * s)) for m, s in zip(mags, signs)]
            pairs = tuple(
                2 * unicast_prob([chans[i], chans[j]]) - 1 for i, j in ((0, 1), (1, 2), (0, 2))
            )
            triple = 2 * mergecast_prob(chans[0], [chans[1]], [chans[2]]) - 1
            ambiguous = consistent_sign_assignments(mags, pairs, tol=1e-9)
            assert len(ambiguous) == 2
            resolved = consistent_sign_assignments(mags, pairs, triple_product=triple, tol=1e-9)
            assert resolved == [tuple(signs)]


class TestPhaseCycling:
    def test_compile_is_seeded_and_uniformish(self):
        variants = phase_cycling_compile(64, seed=5)
        assert variants == phase_cycling_compile(64, seed=5)
        assert len(set(variants)) == 8  # all combinations appear in 64 draws

    def test_prep_averaging_cancels_transverse(self):
        raw = np.array([1.0, 0.3, -0.2, 0.9])
        z_flipped = raw * np.array([1, -1, -1, 1])
        assert_allclose((raw + z_flipped) / 2, [1, 0, 0, 0.9], atol=ATOL)

    def test_exhaustive_average_reduces_to_two_parameters(self, rng):
        # averaging the 8 variants equals the two-parameter model exactly
        for _ in range(30):
            prep = np.array([1.0, *(0.5 * rng.normal(size=2)), rng.random()])
            if prep[1] ** 2 + prep[2] ** 2 + prep[3] ** 2 > 1:
                continue
            meas = np.array([1.0, *(0.5 * rng.normal(size=2)), rng.random()])
            raw = RawSpamVectors(prep, meas)
            path = [random_channel(rng) for _ in range(2)]
            avg = np.mean([cycled_zero_prob(raw, path, v) for v in ALL_CYCLING_VARIANTS])
            spam = effective_spam_after_cycling(raw)
            expected = (1 + spam.m * spam.s * path[0].q_z * path[1].q_z) / 2
            assert avg == pytest.approx(expected, abs=ATOL)

    def test_already_diagonal_spam_unchanged(self, rng):
        raw = RawSpamVectors(np.array([1.0, 0, 0, 0.9]), np.array([1.0, 0, 0, 0.8]))
        path = [random_channel(rng)]
        avg = np.mean([cycled_zero_prob(raw, path, v) for v in ALL_CYCLING_VARIANTS])
        plain = cycled_zero_prob(raw, path, CyclingVariant(False, False, False))
        assert avg == pytest.approx(plain, abs=ATOL)

    def test_outcome_flip_bookkeeping(self, rng):
        # an X insertion alone flips the outcome; the flip restores p
        raw = RawSpamVectors(np.array([1.0, 0, 0, 1.0]), np.array([1.0, 0, 0, 1.0]))
        path = [random_channel(rng)]
        flipped = cycled_zero_prob(raw, path, CyclingVariant(False, True, False))
        plain = cycled_zero_prob(raw, path, CyclingVariant(False, False, False))
        assert flipped == pytest.approx(plain, abs=ATOL)


class TestProgressiveEtching:
    def test_fig1_steps_and_accuracy(self):
        topo = bundled_topology("fig1")
        spam = SpamModel(1.0, 1.0)
        run = run_progressive_etching(topo, spam, samples=(5_000_000, 5_000_000), seed=11)
        assert set(run.estimates) == set(topo.edges)
        by_step = {}
        for edge_id, step in run.steps.items():
            by_step.setdefault(step, set()).add(edge_id)
        assert by_step[1] == {f"P{i}" for i in range(12, 20)}
        assert by_step[2] == {f"P{i}" for i in range(2, 12)}
        assert by_step[3] == {"P1"}
        for est in run.estimates.values():
            for value in (est.q_x, est.q_y, est.q_z):
                assert value == pytest.approx(0.8, abs=0.05)

    def test_star_base_case(self):
        topo = bundled_topology("star3")
        run = run_progressive_etching(topo, SpamModel(1, 1), samples=(4_000_000, 4_000_000), seed=3)
        assert run.steps == {"P1": 1, "P2": 1, "P3": 1}
        assert run.estimates["P1"].q_z == pytest.approx(0.5, abs=0.05)
        assert run.estimates["P2"].q_z == pytest.approx(0.25, abs=0.05)
        assert run.estimates["P3"].q_z == pytest.approx(0.35, abs=0.05)

    def test_deterministic_for_fixed_seed(self):
        topo = bundled_topology("fig1")
        first = run_progressive_etching(topo, SpamModel(1, 1), samples=(2000, 2000), seed=99)
        second = run_progressive_etching(topo, SpamModel(1, 1), samples=(2000, 2000), seed=99)
        assert first.estimates == second.estimates
        assert first.steps == second.steps

    def test_spam_corrected(self):
        topo = bundled_topology("star3")
        spam = SpamModel(0.9, 0.9)
        run = run_progressive_etching(topo, spam, samples=(4_000_000, 4_000_000), seed=5)
        assert run.estimates["P1"].q_z == pytest.approx(0.5, abs=0.05)

    def test_unsimplified_topology_rejected(self):
        from qnt.network import Edge, Topology

        nodes = {"M1": "monitor", "A": "internal", "B": "internal", "M2": "monitor"}
        edges = [
            Edge("E1", "M1", "A", uniform_channel(0.9)),
            Edge("E2", "A", "B", uniform_channel(0.8)),
            Edge("E3", "B", "M2", uniform_channel(0.7)),
        ]
        with pytest.raises(ProtocolError):
            run_progressive_etching(Topology(nodes, edges), SpamModel(1, 1), (100, 100), seed=0)


# ---------------------------------------------------------------------------
# One etching sweep for all trials, checked against the per-trial scalar sweep
# ---------------------------------------------------------------------------


def reference_sweep(topology, spam, samples, bases, rng_for):
    """The per-trial scalar sweep that one batched sweep replaces: a
    ``sample_protocol`` draw and a scalar ratio estimate per protocol.
    ``rng_for(label)`` gives the generator of a stream label.  Yields
    ``(round_num, target, target_chain, ratios)`` in sweep order, with
    ``ratios[basis]`` the target's raw ratio."""
    assert network.validate(topology, require_simplified=True) == []
    m_samples, n_samples = samples
    edges = topology.edges
    for round_num, selections in enumerate(network.etching_rounds(topology), start=1):
        for target, selection in selections:
            chain_true = [edges[e].channel for e in selection.target_chain]
            target_true = compose_channels([*chain_true, edges[target].channel])
            a2_true = [edges[e].channel for e in selection.full_a2]
            b_true = [edges[e].channel for e in selection.full_b]
            ratios = {}
            for basis in bases:
                p_merge = mergecast_prob(target_true, a2_true, b_true, spam, basis)
                p_uni = unicast_prob([*a2_true, *b_true], spam, basis)
                merge_out = sample_protocol(p_merge, m_samples, rng_for(f"etch|{round_num}|{basis}|merge"))
                uni_out = sample_protocol(p_uni, n_samples, rng_for(f"etch|{round_num}|{basis}|uni"))
                try:
                    ratios[basis] = estimate_q_mergecast(merge_out, uni_out)
                except EstimationError:  # a batched sweep gives this trial NaN
                    ratios[basis] = math.nan
            yield round_num, target, selection.target_chain, ratios


def reference_etch(topology, spam, samples, bases, rng_for):
    """:func:`reference_sweep` with each raw ratio divided by the raw ratio of its
    chain's head, recorded in an earlier round, or by s for an empty chain; NaN
    where that divisor is NaN or below 1e-9.  Returns (estimates[edge][basis], steps)."""
    raw, estimates, steps = {}, {}, {}
    for round_num, target, chain, ratios in reference_sweep(topology, spam, samples, bases, rng_for):
        per_basis = {}
        for basis, ratio in ratios.items():
            correction = raw[chain[0]][basis] if chain else spam.s
            per_basis[basis] = ratio / correction if abs(correction) >= 1e-9 else math.nan
        raw[target] = ratios
        estimates[target] = per_basis
        steps[target] = round_num
    return estimates, steps


def chain_product_etch(topology, spam, samples, bases, rng_for):
    """:func:`reference_sweep` with each raw ratio divided by s times the estimates
    of its chain's edges, in chain order.  Returns (estimates[edge][basis], chain lengths)."""
    estimates, lengths = {}, {}
    for _, target, chain, ratios in reference_sweep(topology, spam, samples, bases, rng_for):
        estimates[target] = {
            basis: ratio / math.prod((estimates[e][basis] for e in chain), start=spam.s)
            for basis, ratio in ratios.items()
        }
        lengths[target] = len(chain)
    return estimates, lengths


def shared_streams(seed):
    """One generator per label, drawn from by each target of a round and again by
    each successive sweep."""
    streams = {}

    def rng_for(label):
        if label not in streams:
            streams[label] = substream(seed, label, 0)
        return streams[label]

    return rng_for


def with_flip_channels(topology: Topology, seed: int) -> Topology:
    """``topology`` with seeded channels that all differ, so an estimate divided
    by the wrong chain shows."""
    rng = np.random.default_rng(seed)
    edges = [
        Edge(e.edge_id, e.node_a, e.node_b, PauliChannel.from_probabilities(*rng.uniform(0.005, 0.04, 3)))
        for e in topology.edges.values()
    ]
    return Topology(dict(topology.nodes), edges)


def flip_tree(seed: int, n_edges: int) -> Topology:
    """A seeded tree (internal degree >= 3, monitors on the leaves) with flip channels."""
    return with_flip_channels(random_tree(seed, n_edges), seed)


ETCH_SPAM = SpamModel(0.9, 0.95)
ETCH_SAMPLES = (20_000, 20_000)
ETCH_CASES = [
    ("fig1", lambda: bundled_topology("fig1"), ("Z", "X", "Y")),
    ("tree0", lambda: flip_tree(0, 20), ("Z",)),
    ("tree1", lambda: flip_tree(1, 35), ("Z", "Y")),
    ("tree2", lambda: flip_tree(2, 50), ("X",)),
    ("tree3", lambda: flip_tree(3, 80), ("Z",)),
]


def field_values(estimate):
    return {"X": estimate.q_x, "Y": estimate.q_y, "Z": estimate.q_z}


class TestEtchingMatchesReference:
    @pytest.mark.parametrize("make, bases", [c[1:] for c in ETCH_CASES], ids=[c[0] for c in ETCH_CASES])
    def test_one_trial_equals_scalar_sweep(self, make, bases):
        topology = make()
        run = run_progressive_etching(topology, ETCH_SPAM, ETCH_SAMPLES, seed=31, bases=bases)
        expected, steps = reference_etch(topology, ETCH_SPAM, ETCH_SAMPLES, bases, shared_streams(31))
        assert run.steps == steps
        assert set(run.estimates) == set(expected) == set(topology.edges)
        for edge_id, per_basis in expected.items():
            for basis, value in field_values(run.estimates[edge_id]).items():
                assert isinstance(value, float)
                if basis in bases:
                    assert value == per_basis[basis]
                else:
                    assert math.isnan(value)

    @pytest.mark.parametrize("make, bases", [c[1:] for c in ETCH_CASES], ids=[c[0] for c in ETCH_CASES])
    def test_trial_k_equals_kth_successive_scalar_sweep(self, make, bases):
        topology = make()
        trials = 6
        run = run_progressive_etching(
            topology, ETCH_SPAM, ETCH_SAMPLES, seed=32, bases=bases, trials=trials
        )
        rng_for = shared_streams(32)
        for k in range(trials):
            expected, steps = reference_etch(topology, ETCH_SPAM, ETCH_SAMPLES, bases, rng_for)
            assert run.steps == steps
            for edge_id, per_basis in expected.items():
                for basis, values in field_values(run.estimates[edge_id]).items():
                    assert values.shape == (trials,)
                    if basis in bases:
                        assert values[k] == per_basis[basis]
                    else:
                        assert math.isnan(values[k])

    def test_run_etch_rows_are_the_mse_of_successive_scalar_sweeps(self):
        cfg = ExperimentConfig("etch", seed=8, trials=7, s=0.9, m=0.95, m_samples=(3000, 9000))
        rows = run_experiment(cfg)
        topology = cfg.plan.topology
        assert len(rows) == 2 * len(topology.edges)
        for m_size in cfg.m_samples:
            seed = int(substream(cfg.seed, f"etch|{m_size}", 0).integers(0, 2**63))
            rng_for = shared_streams(seed)
            sweeps = [
                reference_etch(topology, cfg.spam, (m_size, m_size), ("Z",), rng_for)
                for _ in range(cfg.trials)
            ]
            for row in (r for r in rows if r.M == m_size):
                truth = topology.edges[row.target].channel.q_z
                reference = aggregate_mse([est[row.target]["Z"] for est, _ in sweeps], truth)
                assert (row.N, row.truth, row.step) == (m_size, truth, sweeps[0][1][row.target])
                assert row.mse == reference.mse
                assert row.mse_std == reference.mse_std

    def test_head_ratio_telescopes_the_chain_product(self):
        # The head's raw ratio estimates s times the chain's product, so dividing by
        # it agrees with dividing by s times the chain's estimates up to the rounding
        # of that product, on trees and on the seeded meshes that etch.
        topologies = [flip_tree(seed, n_edges) for seed, n_edges in ((0, 20), (1, 35), (2, 50), (3, 80), (4, 120))]
        for seed in range(40):
            mesh = with_flip_channels(random_mesh(seed, 6 + seed % 15, 1 + seed % 5), seed)
            try:
                list(network.etching_rounds(mesh))
            except BranchSelectionError:
                continue
            topologies.append(mesh)
        assert len(topologies) >= 30
        longest = 0
        for topology in topologies:
            run = run_progressive_etching(topology, ETCH_SPAM, ETCH_SAMPLES, seed=33)
            expected, lengths = chain_product_etch(topology, ETCH_SPAM, ETCH_SAMPLES, ("Z", "X", "Y"),
                                                   shared_streams(33))
            for edge_id, per_basis in expected.items():
                got = field_values(run.estimates[edge_id])
                for basis, value in per_basis.items():
                    if lengths[edge_id] == 0:  # both divide by s
                        assert got[basis] == value
                    assert got[basis] == pytest.approx(value, rel=1e-14, abs=0)
            longest = max(longest, *lengths.values())
        assert longest >= 3


def estimate_bits(run) -> dict:
    """Each edge's (q_X, q_Y, q_Z) estimates as bytes, so that NaN equals NaN."""
    return {edge_id: [np.asarray(value).tobytes() for value in estimate] for edge_id, estimate in run.estimates.items()}


def etchable(topology: Topology) -> bool:
    try:
        list(network.etching_rounds(topology))
    except BranchSelectionError:
        return False
    return True


class TestPlanReuse:
    def test_one_plan_sampled_at_two_sizes_equals_fresh_runs(self):
        # sampling must leave the plan as it found it, so that every M cell of a run can share it
        meshes = [random_channel_mesh(seed) for seed in range(50)]
        topologies = [flip_tree(seed, 20 + 15 * seed) for seed in range(4)] + list(filter(etchable, meshes))
        assert len(topologies) >= 4 + 30
        for topology in topologies:
            plan = plan_etching(topology, ETCH_SPAM)
            for trials in (None, 5):
                for samples in ((2000, 2000), (30_000, 30_000)):
                    got = sample_etching(plan, samples, 21, trials)
                    want = run_progressive_etching(topology, ETCH_SPAM, samples, seed=21, trials=trials)
                    assert got.steps == want.steps
                    assert estimate_bits(got) == estimate_bits(want)

    def test_run_etch_plans_once_for_every_m(self, monkeypatch):
        calls = {"rounds": 0, "pipeline": 0}

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(network, "etching_rounds", counted("rounds", network.etching_rounds))
        monkeypatch.setattr(protocols, "_pipeline", counted("pipeline", protocols._pipeline))
        cfg = ExperimentConfig("etch", trials=3, m_samples=(1000, 2000, 3000))
        assert len(run_experiment(cfg)) == 3 * 19
        assert len(cfg.plan.rounds) == 3  # fig1 etches in three rounds, one Z-basis call each
        assert calls == {"rounds": 1, "pipeline": 3}

    def test_config_rejects_exactly_the_meshes_whose_branches_cannot_be_chosen(self, tmp_path):
        rejected = 0
        for seed in range(50):
            mesh = random_mesh(seed, 6 + seed % 15, 1 + seed % 5)
            path = tmp_path / f"mesh{seed}.topo"
            path.write_text(format_topology(mesh))
            try:
                list(network.etching_rounds(mesh))
            except BranchSelectionError as err:
                with pytest.raises(ValueError) as raised:
                    ExperimentConfig("etch", topology_path=str(path))
                assert str(raised.value) == f"topology {path}: {err}"  # the same merge node and target
                rejected += 1
            else:
                ExperimentConfig("etch", topology_path=str(path))
        assert 0 < rejected < 50


def two_hub_topology() -> Topology:
    """Hubs A and B, two monitors each, joined by C: C's chain is one first-round edge."""
    nodes = {"A": "internal", "B": "internal", **{f"M{i}": "monitor" for i in range(1, 5)}}
    links = [("E1", "A", "M1"), ("E2", "A", "M2"), ("E3", "B", "M3"), ("E4", "B", "M4"), ("C", "A", "B")]
    return Topology(nodes, [Edge(e, a, b, uniform_channel(0.8)) for e, a, b in links])


class TestBatchedEtchingGuards:
    def test_one_degenerate_trial_in_a_batch_is_nan(self, monkeypatch):
        # C's chain head is a first-round edge, whose ratio is forced below 1e-9 in trials 2 and 3
        args = (two_hub_topology(), SpamModel(1, 1), (10_000, 10_000))
        plain = run_progressive_etching(*args, seed=4, bases=("Z",), trials=4).estimates["C"].q_z
        real = protocols.sample_ratio

        def forced(*args, **kwargs):
            estimates = real(*args, **kwargs)
            if args[4] == "etch|1|Z":  # the first-round edges, one column each
                estimates[2:] = ((3e-10,), (0.0,))
            return estimates

        monkeypatch.setattr(protocols, "sample_ratio", forced)
        got = run_progressive_etching(*args, seed=4, bases=("Z",), trials=4).estimates["C"].q_z
        assert np.isnan(got).tolist() == [False, False, True, True]
        assert got[:2].tolist() == plain[:2].tolist()

    def test_the_same_sweep_without_the_forced_trials_passes(self):
        run = run_progressive_etching(
            two_hub_topology(), SpamModel(1, 1), (10_000, 10_000), seed=4, bases=("Z",), trials=4
        )
        assert run.steps["C"] == 2 and run.estimates["C"].q_z.shape == (4,)

    @pytest.mark.parametrize("trials", [None, 4])
    def test_degenerate_denominator_is_nan_down_its_chains(self, monkeypatch, trials):
        # Round 1 of fig1 is P12..P19 in frontier order.  Columns 5 (P17) and 3 (P15)
        # are forced degenerate, in trials 0 and 2 of a batch.  Each is then NaN in its
        # forced trial, and so is every edge whose chain head it is; nothing else moves.
        forced_cells = ([5, 3],) if trials is None else ([0, 2], [5, 3])
        topology = bundled_topology("fig1")
        args = (topology, SpamModel(1, 1), (10_000, 10_000))
        plain = run_progressive_etching(*args, seed=4, trials=trials).estimates
        real = protocols.substream

        class HalfCounts:
            def __init__(self, rng):
                self.rng = rng

            def binomial(self, n, p, size=None):
                counts = self.rng.binomial(n, p, size=size)
                counts[forced_cells] = n // 2
                return counts

        def forced(seed, label, index):
            rng = real(seed, label, index)
            return HalfCounts(rng) if label == "etch|1|Z|uni" else rng

        monkeypatch.setattr(protocols, "substream", forced)
        got = run_progressive_etching(*args, seed=4, trials=trials).estimates
        heads = {target: sel.target_chain[0] for selections in network.etching_rounds(topology)
                 for target, sel in selections if sel.target_chain}
        assert {"P6", "P8"} <= {edge for edge, head in heads.items() if head in ("P15", "P17")}
        forced_trial = {"P17": 0, "P15": 2 if trials else 0}
        for edge in topology.edges:
            expected = np.atleast_1d(plain[edge].q_z).copy()
            for source, trial in forced_trial.items():
                if source in (edge, heads.get(edge)):
                    expected[trial] = math.nan
            np.testing.assert_array_equal(np.atleast_1d(got[edge].q_z), expected)  # NaN equals NaN
            np.testing.assert_array_equal(got[edge].q_x, plain[edge].q_x)
            np.testing.assert_array_equal(got[edge].q_y, plain[edge].q_y)

    @pytest.mark.parametrize("trials", [None, 3])
    def test_zero_samples_raise(self, trials):
        with pytest.raises(ProtocolError, match="sample sizes must be at least 1"):
            run_progressive_etching(bundled_topology("fig1"), SpamModel(1, 1), (0, 0), seed=1, trials=trials)


class TestRoundKeyedStreams:
    @pytest.mark.parametrize("n", [10, 1000, 10**6])
    def test_array_binomial_equals_successive_scalar_draws(self, n):
        # The stream layout relies on this: one (trials, k) draw per round and basis is
        # trial after trial of k scalar draws, each target in frontier order.
        p = np.array([0.001, 0.02, 0.3, 0.5, 0.54375, 0.8, 0.999])
        batch = substream(5, "layout", 0).binomial(n, p, size=(6, len(p)))
        scalar = substream(5, "layout", 0)
        assert batch.tolist() == [[int(scalar.binomial(n, pj)) for pj in p] for _ in range(6)]
        once = substream(6, "layout", 0).binomial(n, p)
        scalar = substream(6, "layout", 0)
        assert once.tolist() == [int(scalar.binomial(n, pj)) for pj in p]

    @pytest.mark.parametrize("trials", [None, 3])
    @pytest.mark.parametrize(
        "make, bases",
        [(lambda: bundled_topology("fig1"), ("Z", "X", "Y")), (lambda: flip_tree(1, 35), ("Z", "Y"))],
        ids=["fig1", "tree1"],
    )
    def test_one_substream_per_round_basis_and_protocol(self, monkeypatch, make, bases, trials):
        labels = []
        real = protocols.substream

        def counted(seed, label, index):
            labels.append(label)
            return real(seed, label, index)

        monkeypatch.setattr(protocols, "substream", counted)
        run = run_progressive_etching(make(), ETCH_SPAM, ETCH_SAMPLES, seed=9, bases=bases, trials=trials)
        rounds = max(run.steps.values())
        assert rounds > 1
        assert len(labels) == 2 * rounds * len(bases)
        assert sorted(labels) == sorted(
            f"etch|{r}|{b}|{p}" for r in range(1, rounds + 1) for b in bases for p in ("merge", "uni")
        )

    @pytest.mark.parametrize("trials", [None, 3])
    def test_integer_spam_gives_float_estimates(self, trials):
        topology = bundled_topology("fig1")
        as_int = run_progressive_etching(topology, SpamModel(1, 1), ETCH_SAMPLES, seed=12, trials=trials)
        as_float = run_progressive_etching(topology, SpamModel(1.0, 1.0), ETCH_SAMPLES, seed=12, trials=trials)
        for edge_id, estimate in as_int.estimates.items():
            for basis, value in field_values(estimate).items():
                if trials is None:
                    assert isinstance(value, float)
                else:
                    assert value.dtype == np.float64
                np.testing.assert_array_equal(value, field_values(as_float.estimates[edge_id])[basis])
                assert np.all(np.abs(np.asarray(value) - 0.8) < 0.1)


# ---------------------------------------------------------------------------
# The row pipeline, bit for bit against the per-object pipeline it replaced
# ---------------------------------------------------------------------------

REFERENCE_DRESSINGS = {"Z": Dressing.NONE, "X": Dressing.HADAMARD, "Y": Dressing.HADAMARD_PHASE}


def reference_send(state, channels):
    for ch in channels:
        state = apply_channel(ch, state)
    return state


def reference_dressed(channels, basis, context):
    dressed = [dress_channel(ch, REFERENCE_DRESSINGS[basis]) for ch in channels]
    if any(ch.q_z == 0.0 for ch in dressed):
        raise ProtocolError(f"{context}: channel with zero {basis} parameter cannot be characterized")
    return dressed


def reference_merge_prob(control, target, relay, m):
    """The merge step on one pair of ``PauliVector1Q`` states and a list of channels."""
    pair = apply_cnot(tensor(control, target), control="first")
    return (1.0 + m * reference_send(partial_trace(pair, discard="first"), relay).z) / 2.0


def reference_unicast_prob(path, spam, basis):
    state = reference_send(spam.prepared_state(), reference_dressed(path, basis, "unicast"))
    return (1.0 + spam.m * state.z) / 2.0


def reference_mergecast_prob(target, branch_a2, branch_b, spam, basis):
    dressed = reference_dressed([target, *branch_a2, *branch_b], basis, "mergecast")
    split = 1 + len(branch_a2)
    control = apply_channel(dressed[0], spam.prepared_state())
    merged = reference_send(spam.prepared_state(), dressed[1:split])
    return reference_merge_prob(control, merged, dressed[split:], spam.m)


def reference_bypassed_send(channels, spam):
    """A prepared qubit sent through ``channels``, each dressed to pass Z unchanged."""
    return reference_send(spam.prepared_state(), [dress_channel(ch, bypass_dressing(ch)) for ch in channels])


def reference_bypass_unicast_prob(bypassed, target, spam):
    return (1.0 + spam.m * apply_channel(target, reference_bypassed_send(bypassed, spam)).z) / 2.0


def reference_spam_ms_bypass_prob(bypassed_path, spam):
    return (1.0 + spam.m * reference_bypassed_send(bypassed_path, spam).z) / 2.0


def reference_spam_m_protocol_probs(path_a, path_b, spam):
    qubit_a = reference_send(spam.prepared_state(), path_a)
    qubit_b = reference_send(spam.prepared_state(), path_b)
    p00, p01, p10, p11 = joint_z_measurement_probs(apply_cnot(tensor(qubit_b, qubit_a), control="first"), m=spam.m)
    return (p00, p01, p10, p11, p00 + p11)


def bits(value) -> bytes:
    return np.float64(value).tobytes()


def bypassable_channel(rng) -> PauliChannel:
    """A random channel that mixes the identity with one Pauli, so one q is exactly 1."""
    make = (PauliChannel.bit_flip, PauliChannel.phase_flip, PauliChannel.bit_phase_flip)[rng.integers(3)]
    return make(rng.random())


def near_pauli_channel(rng) -> PauliChannel:
    """A random channel close to one Pauli, so every q is near +1 or -1: long products stay
    far from zero, where 1 + m z would round a last-bit difference away."""
    p = rng.uniform(0.0, 0.02, 4)
    dominant = rng.integers(4)
    p[dominant] = 1.0 - (p.sum() - p[dominant])
    return PauliChannel.from_probabilities(*p[1:])


class TestRowPipelineMatchesObjectPipeline:
    def test_300_seeded_cases_bit_for_bit(self):
        rng = np.random.default_rng(1303)
        negative = 0
        for case in range(300):
            make = near_pauli_channel if case % 2 else functools.partial(random_channel, nonzero=True)
            chain, branch_a2, branch_b = ([make(rng) for _ in range(rng.integers(1, 13))] for _ in range(3))
            spam = SpamModel(rng.random(), rng.random())
            negative += any(q < 0 for ch in chain for q in ch.q)
            for basis in ("Z", "X", "Y"):
                got = mergecast_prob(chain[0], branch_a2, branch_b, spam, basis)
                assert bits(got) == bits(reference_mergecast_prob(chain[0], branch_a2, branch_b, spam, basis))
                want_uni = reference_unicast_prob(branch_a2 + branch_b, spam, basis)
                assert bits(unicast_prob(branch_a2 + branch_b, spam, basis)) == bits(want_uni)
                # the kernel composes the whole target path, as compose_channels does
                p_merge, p_uni = protocols._one_row(chain, branch_a2, branch_b, spam, basis, "mergecast")
                want = reference_mergecast_prob(compose_channels(chain), branch_a2, branch_b, spam, basis)
                assert (bits(p_merge), bits(p_uni)) == (bits(want), bits(want_uni))
            prepared = spam.prepared_state()
            want = reference_merge_prob(prepared, prepared, branch_b, spam.m)
            assert bits(spam_s_protocol_prob(branch_b, spam)) == bits(want)
            control, target = random_state(rng), random_state(rng)
            relay = protocols._diagonals(branch_b)[None, :-1]
            visited = []
            got = protocols._merge_prob(control.coeffs[None], target.coeffs[None], relay, spam.m, visited)
            protocols._physical(np.concatenate(visited))  # the states it passed through are physical
            assert got.shape == (1,) and bits(got[0]) == bits(reference_merge_prob(control, target, branch_b, spam.m))
        assert negative > 200  # negative q values are covered

    def test_300_seeded_bypass_and_spam_m_cases_bit_for_bit(self):
        rng = np.random.default_rng(1307)
        negative = 0
        for case in range(300):
            bypassed = [bypassable_channel(rng) for _ in range(case % 7)]  # an empty route every 7th case
            make = near_pauli_channel if case % 2 else functools.partial(random_channel, nonzero=True)
            target = make(rng)
            spam = SpamModel(rng.random(), rng.random())
            negative += any(q < 0 for ch in bypassed for q in ch.q)
            got = bypass_unicast_prob(bypassed, target, spam)
            assert bits(got) == bits(reference_bypass_unicast_prob(bypassed, target, spam))
            assert bits(spam_ms_bypass_prob(bypassed, spam)) == bits(reference_spam_ms_bypass_prob(bypassed, spam))
            path_a, path_b = ([make(rng) for _ in range(rng.integers(1, 9))] for _ in range(2))
            got = spam_m_protocol_probs(path_a, path_b, spam)
            assert list(map(bits, got)) == list(map(bits, reference_spam_m_protocol_probs(path_a, path_b, spam)))
        assert negative > 100  # bypassed channels with negative q are covered

    def test_one_row_callers_return_floats(self):
        spam = SpamModel(0.9, 0.8)
        for value in (mergecast_prob(*STAR[:1], [STAR[1]], [STAR[2]], spam), unicast_prob(STAR, spam),
                      spam_s_protocol_prob(STAR, spam), *merge_and_unicast_probs([STAR[0]], [], STAR[1:], spam),
                      bypass_unicast_prob([PauliChannel.bit_flip(0.2)], STAR[0], spam),
                      spam_ms_bypass_prob([PauliChannel.bit_flip(0.2)], spam), *spam_m_protocol_probs(STAR, STAR, spam)):
            assert type(value) is float

    def test_merge_and_unicast_probs_is_one_row_of_both(self, rng):
        for _ in range(50):
            target, branch_a2, branch_b = ([random_channel(rng, nonzero=True) for _ in range(rng.integers(1, 5))]
                                           for _ in range(3))
            spam = SpamModel(rng.random(), rng.random())
            for basis in ("Z", "X", "Y"):
                got = merge_and_unicast_probs(target[:1], branch_a2, branch_b, spam, basis)
                want = (mergecast_prob(target[0], branch_a2, branch_b, spam, basis),
                        unicast_prob(branch_a2 + branch_b, spam, basis))
                assert list(map(bits, got)) == list(map(bits, want))
            # with nothing before the merge it is the s protocol and its unicast
            got = merge_and_unicast_probs([], [], branch_b, spam)
            want = (spam_s_protocol_prob(branch_b, spam), unicast_prob(branch_b, spam))
            assert list(map(bits, got)) == list(map(bits, want))
        with pytest.raises(ProtocolError, match="measured branch must be nonempty"):
            merge_and_unicast_probs(STAR, STAR, [])


def recorded_pipeline_calls(monkeypatch, topology, spam, bases):
    """Each state-pipeline call of one etching sweep as (basis, p_merge, p_uni)."""
    calls = []
    real = protocols._pipeline

    def recording(table, paths, spam, basis, *args, **kwargs):
        out = real(table, paths, spam, basis, *args, **kwargs)
        calls.append((basis, *out))
        return out

    monkeypatch.setattr(protocols, "_pipeline", recording)
    # samples so large that no sampled estimate degenerates, even on small products
    run_progressive_etching(topology, spam, (10**9, 10**9), seed=17, bases=bases)
    return calls


def assert_rounds_match_per_target_reference(calls, topology, spam, bases):
    """One call per round and basis, whose rows are the per-target object pipeline, bit for bit."""
    edges = topology.edges
    calls = iter(calls)
    for selections in network.etching_rounds(topology):
        for basis in bases:
            got_basis, p_merge, p_uni = next(calls)
            assert got_basis == basis
            want_merge, want_uni = [], []
            for target, selection in selections:
                chain = [edges[e].channel for e in (*selection.target_chain, target)]
                branch_a2 = [edges[e].channel for e in selection.full_a2]
                branch_b = [edges[e].channel for e in selection.full_b]
                want_merge.append(reference_mergecast_prob(compose_channels(chain), branch_a2, branch_b, spam, basis))
                want_uni.append(reference_unicast_prob(branch_a2 + branch_b, spam, basis))
            assert p_merge.tobytes() == np.array(want_merge).tobytes()
            assert p_uni.tobytes() == np.array(want_uni).tobytes()
    assert next(calls, None) is None


def with_random_channels(topology: Topology, seed: int, min_q: float) -> Topology:
    """``topology`` with seeded random general Pauli channels, every |q| >= ``min_q``, many q negative."""
    rng = np.random.default_rng(seed)
    edges = [Edge(e.edge_id, e.node_a, e.node_b, random_channel(rng, nonzero=True, min_q=min_q))
             for e in topology.edges.values()]
    return Topology(dict(topology.nodes), edges)


def random_channel_mesh(seed: int) -> Topology:
    """A seeded mesh whose channels are random general Pauli channels, many with negative q."""
    return with_random_channels(random_mesh(seed, 6 + seed % 15, 1 + seed % 5), seed, min_q=0.5)


class TestRoundKernelMatchesPerTargetReference:
    @pytest.mark.parametrize("make, bases", [c[1:] for c in ETCH_CASES], ids=[c[0] for c in ETCH_CASES])
    def test_etch_cases(self, monkeypatch, make, bases):
        topology = make()
        calls = recorded_pipeline_calls(monkeypatch, topology, ETCH_SPAM, bases)
        assert_rounds_match_per_target_reference(calls, topology, ETCH_SPAM, bases)

    def test_seeded_meshes_that_etch(self, monkeypatch):
        etched = 0
        for seed in range(40):
            topology = random_channel_mesh(seed)
            try:
                calls = recorded_pipeline_calls(monkeypatch, topology, ETCH_SPAM, ("Z", "X", "Y"))
            except BranchSelectionError:
                continue
            assert_rounds_match_per_target_reference(calls, topology, ETCH_SPAM, ("Z", "X", "Y"))
            etched += 1
        assert etched >= 25


EXACT_SPAM = SpamModel(0.91, 0.96)


def exactly_etched(monkeypatch, topology: Topology) -> dict:
    """The (q_X, q_Y, q_Z) estimates per edge of an etching sweep whose ratios are
    ``estimate_q_mergecast`` of the pipeline's exact probabilities, with no sampling."""
    monkeypatch.setattr(protocols, "sample_ratio", lambda p_num, p_uni, *args: estimate_q_mergecast(p_num, p_uni))
    run = run_progressive_etching(topology, EXACT_SPAM, (1, 1), seed=0, bases=("Z", "X", "Y"))
    return {edge_id: (est.q_x, est.q_y, est.q_z) for edge_id, est in run.estimates.items()}


class TestExactIdentification:
    """On exact probabilities, etching returns every parameter of every edge in all three bases."""

    def assert_identified(self, monkeypatch, topology: Topology) -> int:
        """Assert every q to 1e-12 and return how many edges have a negative q."""
        estimates = exactly_etched(monkeypatch, topology)
        assert set(estimates) == set(topology.edges)
        for edge_id, edge in topology.edges.items():
            assert_allclose(estimates[edge_id], edge.channel.q, rtol=0, atol=1e-12, err_msg=edge_id)
        return sum(min(edge.channel.q) < 0 for edge in topology.edges.values())

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_trees(self, monkeypatch, seed):
        topology = with_random_channels(random_tree(seed, 80), seed, min_q=0.3)
        assert self.assert_identified(monkeypatch, topology) > len(topology.edges) // 2

    def test_seeded_meshes_that_etch(self, monkeypatch):
        etched = 0
        for seed in range(40):
            try:
                self.assert_identified(monkeypatch, random_channel_mesh(seed))
            except BranchSelectionError:
                continue
            etched += 1
        assert etched >= 25


def kernel(rows, target, branch_a2, branch_b, spam=SpamModel(1.0, 1.0), labels=None):
    """The round kernel on the diagonal ``rows`` (padded with ones) and lists of index paths."""
    table = np.array([*rows, (1.0, 1.0, 1.0, 1.0)])
    return protocols._pipeline(table, tuple(map(np.array, (target, branch_a2, branch_b))), spam, "Z",
                               labels=labels)


GOOD_ROW = (1.0, 0.9, 0.8, 0.7)
IDENTITY_ROW = (1.0, 1.0, 1.0, 1.0)


class TestRoundKernelChecks:
    def test_valid_rows_pass(self):
        p_merge, p_uni = kernel([GOOD_ROW], [[0], [0]], [[0], [0]], [[0, 1], [0, 0]])
        assert_allclose(p_merge, [(1 + 0.7**3) / 2, (1 + 0.7**4) / 2], atol=ATOL)
        assert_allclose(p_uni, [(1 + 0.7**2) / 2, (1 + 0.7**3) / 2], atol=ATOL)

    @pytest.mark.parametrize("bad_row", [(1.0, 1.0, 1.0, -1.0), (1.0, 1.5, 1.0, 1.0)],
                             ids=["not-completely-positive", "out-of-range"])
    def test_invalid_composed_channel(self, bad_row):
        with pytest.raises(ChannelValidationError):
            kernel([GOOD_ROW, bad_row], [[0, 2], [1, 0]], [[0], [0]], [[0], [0]])

    @pytest.mark.parametrize("bad_row", [(1.0, 1.0, 1.0, 1.5), (2.0, 0.5, 0.5, 0.5)], ids=["bloch-norm", "x-i"])
    def test_non_physical_intermediate_state(self, bad_row):
        # the bad diagonal sits on a branch, where no channel check sees it
        with pytest.raises(NonPhysicalStateError):
            kernel([IDENTITY_ROW, bad_row], [[0]], [[0]], [[0, 1]])
        with pytest.raises(NonPhysicalStateError):
            kernel([IDENTITY_ROW, bad_row], [[0]], [[1]], [[0]])

    def test_a_zero_row_that_no_path_uses_passes(self):
        p_merge, p_uni = kernel([GOOD_ROW, (1.0, 0.5, 0.5, 0.0)], [[0]], [[0]], [[0]])
        assert_allclose(p_merge, [(1 + 0.7**3) / 2], atol=ATOL)
        assert_allclose(p_uni, [(1 + 0.7**2) / 2], atol=ATOL)

    def test_a_target_composite_that_underflows_to_zero_names_its_edge(self):
        # row B crosses the 1e-200 channel twice, and 1e-200 squared underflows to 0.0
        expected = r"^edge 'B', basis Z: mergecast: channel with zero Z parameter cannot be characterized$"
        with pytest.raises(ProtocolError, match=expected):
            kernel([GOOD_ROW, (1.0, 0.5, 0.5, 1e-200)], [[0, 2], [1, 1]], [[0], [0]], [[0], [0]],
                   labels=["A", "B"])


def with_channels(topology: Topology, **channels: PauliChannel) -> Topology:
    edges = [Edge(e.edge_id, e.node_a, e.node_b, channels.get(e.edge_id, e.channel)) for e in topology.edges.values()]
    return Topology(dict(topology.nodes), edges)


class TestEtchingZeroParameter:
    def test_names_the_edge_and_basis(self):
        topology = with_channels(bundled_topology("star3"), P1=PauliChannel(0.0, 0.5, 0.5))
        expected = r"^edge 'P1', basis X: mergecast: channel with zero X parameter cannot be characterized$"
        with pytest.raises(ProtocolError, match=expected):
            run_progressive_etching(topology, SpamModel(1, 1), (1000, 1000), seed=1, bases=("Z", "X"))

    @pytest.mark.parametrize("bases, where", [(("Z", "X", "Y"), "'P17', basis X"), (("Y", "X"), "'P12', basis Y")])
    def test_first_target_in_frontier_order_of_the_first_faulty_basis(self, bases, where):
        # In round 1 of fig1, P9 lies on the branches of P17 and P18 and P3 on those of P12
        # and P13, so the basis order decides which fault is reported.
        topology = with_channels(
            bundled_topology("fig1"), P9=PauliChannel(0.0, 0.5, 0.5), P3=PauliChannel(0.5, 0.0, 0.5)
        )
        with pytest.raises(ProtocolError, match=f"^edge {where}: mergecast: "):
            run_progressive_etching(topology, SpamModel(1, 1), (1000, 1000), seed=1, bases=bases)
