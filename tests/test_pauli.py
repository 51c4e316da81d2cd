import itertools
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qnt import oracle
from qnt.pauli import (
    ATOL,
    CNOT_TABLE_CONTROL_FIRST,
    CNOT_TABLE_CONTROL_SECOND,
    Dressing,
    GateKind,
    HADAMARD_PTM,
    ChannelValidationError,
    NonPhysicalStateError,
    PauliChannel,
    PauliVector1Q,
    PauliVector2Q,
    apply_channel,
    apply_cnot,
    apply_ptm,
    bypass_dressing,
    compose_channels,
    dress_channel,
    gate_ptm,
    is_bypassable,
    joint_z_measurement_probs,
    partial_trace,
    ptm_of_channel,
    tensor,
    z_measurement_probs,
)

from conftest import random_channel, random_state


class TestPauliVector:
    def test_named_states(self):
        assert_allclose(PauliVector1Q.ket0().coeffs, [1, 0, 0, 1])
        assert_allclose(PauliVector1Q.ket1().coeffs, [1, 0, 0, -1])
        assert_allclose(PauliVector1Q.plus().coeffs, [1, 1, 0, 0])
        assert_allclose(PauliVector1Q.maximally_mixed().coeffs, [1, 0, 0, 0])

    def test_trace_normalization_enforced(self):
        with pytest.raises(NonPhysicalStateError):
            PauliVector1Q(np.array([0.9, 0, 0, 0]))

    def test_bloch_ball_enforced(self):
        with pytest.raises(NonPhysicalStateError):
            PauliVector1Q.from_bloch(0.9, 0.9, 0.9)
        # boundary is fine
        PauliVector1Q.from_bloch(1.0, 0.0, 0.0)

    def test_two_qubit_normalization(self):
        with pytest.raises(NonPhysicalStateError):
            PauliVector2Q(np.r_[0.5, np.zeros(15)])


class TestPauliChannel:
    def test_q_p_relations_exact(self):
        ch = PauliChannel.from_probabilities(0.1, 0.2, 0.3)
        p_i, p_x, p_y, p_z = ch.probabilities()
        assert ch.q_x == 1 - 2 * (0.2 + 0.3)
        assert ch.q_y == 1 - 2 * (0.1 + 0.3)
        assert ch.q_z == 1 - 2 * (0.1 + 0.2)
        assert_allclose([p_i, p_x, p_y, p_z], [0.4, 0.1, 0.2, 0.3], atol=ATOL)

    def test_complete_positivity_rejected(self):
        # q = (1, 1, -1) gives p_Z = -1/2
        with pytest.raises(ChannelValidationError):
            PauliChannel(1.0, 1.0, -1.0)

    def test_range_rejected(self):
        with pytest.raises(ChannelValidationError):
            PauliChannel(1.5, 0.0, 0.0)

    def test_bit_flip_ptm(self):
        # bit-flip PTM is diag(1, 1, 1-2p, 1-2p)
        p = 0.3
        assert_allclose(
            ptm_of_channel(PauliChannel.bit_flip(p)),
            np.diag([1, 1, 1 - 2 * p, 1 - 2 * p]),
            atol=ATOL,
        )

    def test_depolarizing_ptm(self):
        assert_allclose(
            ptm_of_channel(PauliChannel.depolarizing(0.5)), np.diag([1, 0.5, 0.5, 0.5]), atol=ATOL
        )

    def test_identity_ptm(self):
        assert_allclose(ptm_of_channel(PauliChannel.identity()), np.eye(4), atol=ATOL)


class TestApplyPtm:
    def test_plus_state_bypasses_bit_flip(self):
        out = apply_ptm(ptm_of_channel(PauliChannel.bit_flip(0.37)), PauliVector1Q.plus())
        assert_allclose(out.coeffs, [1, 1, 0, 0], atol=ATOL)

    def test_identity(self, rng):
        for _ in range(20):
            state = random_state(rng)
            assert_allclose(apply_ptm(np.eye(4), state).coeffs, state.coeffs, atol=ATOL)

    def test_z_component_scaling(self):
        out = apply_channel(PauliChannel(0.5, 0.4, 0.7), PauliVector1Q.ket0())
        assert_allclose(out.coeffs, [1, 0, 0, 0.7], atol=ATOL)

    def test_matches_oracle_on_random_channels(self, rng):
        for _ in range(200):
            ch = random_channel(rng)
            state = random_state(rng)
            fast = apply_channel(ch, state)
            slow = oracle.density_to_pauli(
                oracle.evolve_kraus(oracle.pauli_to_density(state), oracle.kraus_of_channel(ch))
            )
            assert_allclose(fast.coeffs, slow.coeffs, atol=ATOL)


class TestTensorAndTrace:
    def test_z_pair(self):
        two = tensor(PauliVector1Q.ket0(), PauliVector1Q.ket0())
        nonzero = {("I", "I"): 1.0, ("Z", "I"): 1.0, ("I", "Z"): 1.0, ("Z", "Z"): 1.0}
        for p in "IXYZ":
            for q in "IXYZ":
                assert two.coeff(p, q) == pytest.approx(nonzero.get((p, q), 0.0), abs=ATOL)

    def test_maximally_mixed_pair(self):
        two = tensor(PauliVector1Q.maximally_mixed(), PauliVector1Q.maximally_mixed())
        assert_allclose(two.coeffs, np.r_[1.0, np.zeros(15)], atol=ATOL)

    def test_partial_trace_recovers_factor(self, rng):
        for _ in range(20):
            a, b = random_state(rng), random_state(rng)
            two = tensor(a, b)
            assert_allclose(partial_trace(two, "second").coeffs, a.coeffs, atol=ATOL)
            assert_allclose(partial_trace(two, "first").coeffs, b.coeffs, atol=ATOL)

    def test_partial_trace_of_correlated_state(self):
        coeffs = np.zeros(16)
        coeffs[0] = 1.0
        coeffs[15] = 1.0  # I(x)I + Z(x)Z: classically correlated pair
        reduced = partial_trace(PauliVector2Q(coeffs), "first")
        assert_allclose(reduced.coeffs, [1, 0, 0, 0], atol=ATOL)

    def test_product_with_s_parameters(self):
        s = 0.73
        two = tensor(PauliVector1Q.from_bloch(0, 0, s), PauliVector1Q.from_bloch(0, 0, s))
        assert two.coeff("Z", "I") == pytest.approx(s, abs=ATOL)
        assert two.coeff("I", "Z") == pytest.approx(s, abs=ATOL)
        assert two.coeff("Z", "Z") == pytest.approx(s * s, abs=ATOL)


class TestCnot:
    def test_table_matches_oracle_conjugation(self):
        table = oracle.conjugation_table(oracle.CNOT_CONTROL_FIRST, oracle.pauli_basis(2))
        assert tuple(table) == CNOT_TABLE_CONTROL_FIRST
        table2 = oracle.conjugation_table(oracle.CNOT_CONTROL_SECOND, oracle.pauli_basis(2))
        assert tuple(table2) == CNOT_TABLE_CONTROL_SECOND

    def test_z_sector_swap(self):
        # {II: 1, ZI: q1, IZ: q2, ZZ: q1 q2} -> {II: 1, ZI: q1, IZ: q1 q2, ZZ: q2}
        q1, q2 = 0.6, -0.45
        coeffs = np.zeros(16)
        coeffs[0], coeffs[12], coeffs[3], coeffs[15] = 1.0, q1, q2, q1 * q2
        out = apply_cnot(PauliVector2Q(coeffs), "first")
        assert out.coeff("Z", "I") == pytest.approx(q1, abs=ATOL)
        assert out.coeff("I", "Z") == pytest.approx(q1 * q2, abs=ATOL)
        assert out.coeff("Z", "Z") == pytest.approx(q2, abs=ATOL)
        # discarding the control leaves the relayed qubit carrying q1 q2
        assert_allclose(partial_trace(out, "first").coeffs, [1, 0, 0, q1 * q2], atol=ATOL)

    def test_maximally_mixed_invariant(self):
        two = PauliVector2Q(np.r_[1.0, np.zeros(15)])
        assert_allclose(apply_cnot(two, "first").coeffs, two.coeffs, atol=ATOL)
        assert_allclose(apply_cnot(two, "second").coeffs, two.coeffs, atol=ATOL)

    def test_plus_tensor_zero_becomes_bell(self):
        two = apply_cnot(tensor(PauliVector1Q.plus(), PauliVector1Q.ket0()), "first")
        assert two.coeff("X", "X") == pytest.approx(1.0, abs=ATOL)
        assert two.coeff("Y", "Y") == pytest.approx(-1.0, abs=ATOL)
        assert two.coeff("Z", "Z") == pytest.approx(1.0, abs=ATOL)

    def test_involution(self, rng):
        for _ in range(10):
            two = tensor(random_state(rng), random_state(rng))
            back = apply_cnot(apply_cnot(two, "first"), "first")
            assert_allclose(back.coeffs, two.coeffs, atol=ATOL)

    def test_gate_ptm_consistency(self, rng):
        mat = gate_ptm(GateKind.CNOT_CONTROL_FIRST)
        two = tensor(random_state(rng), random_state(rng))
        assert_allclose(apply_cnot(two, "first").coeffs, mat @ two.coeffs, atol=ATOL)


class TestMeasurement:
    def test_pure_zero(self):
        assert z_measurement_probs(PauliVector1Q.ket0()) == (1.0, 0.0)

    def test_plus_is_uniform(self):
        assert z_measurement_probs(PauliVector1Q.plus()) == (0.5, 0.5)

    def test_triple_product_form(self):
        q = 0.5 * 0.25 * 0.35
        p0, p1 = z_measurement_probs(PauliVector1Q.from_bloch(0, 0, q))
        assert p0 == pytest.approx((1 + q) / 2, abs=ATOL)
        assert p0 + p1 == pytest.approx(1.0, abs=ATOL)

    def test_joint_probs_sum_to_one(self, rng):
        for _ in range(20):
            two = apply_cnot(tensor(random_state(rng), random_state(rng)), "first")
            probs = joint_z_measurement_probs(two, m=rng.random())
            assert sum(probs) == pytest.approx(1.0, abs=ATOL)

    def test_joint_probs_match_oracle(self, rng):
        for _ in range(30):
            two = apply_cnot(tensor(random_state(rng), random_state(rng)), "first")
            expected = oracle.measurement_probs(oracle.pauli_to_density(two))
            assert_allclose(joint_z_measurement_probs(two), expected, atol=ATOL)

    def test_maximally_mixed_pair_uniform(self):
        two = PauliVector2Q(np.r_[1.0, np.zeros(15)])
        assert_allclose(joint_z_measurement_probs(two, m=1.0), [0.25] * 4, atol=ATOL)


class TestDressing:
    def test_hadamard_swaps_x_and_z(self):
        dressed = dress_channel(PauliChannel(0.1, -0.2, 0.5), Dressing.HADAMARD)
        assert dressed.q == (0.5, -0.2, 0.1)

    def test_hadamard_phase_cycles(self):
        dressed = dress_channel(PauliChannel(0.1, -0.2, 0.5), Dressing.HADAMARD_PHASE)
        assert dressed.q == (0.5, 0.1, -0.2)

    def test_symmetric_channel_unchanged(self):
        ch = PauliChannel(0.4, 0.4, 0.4)
        for dressing in Dressing:
            assert dress_channel(ch, dressing).q == ch.q

    def test_hadamard_involution(self, rng):
        for _ in range(20):
            ch = random_channel(rng)
            assert dress_channel(dress_channel(ch, Dressing.HADAMARD), Dressing.HADAMARD).q == ch.q

    def test_matches_ptm_conjugation(self, rng):
        hs = gate_ptm(GateKind.HADAMARD_PHASE)
        for _ in range(20):
            ch = random_channel(rng)
            conjugated_h = HADAMARD_PTM @ ptm_of_channel(ch) @ HADAMARD_PTM.T
            assert_allclose(
                np.diag(conjugated_h), [1, *dress_channel(ch, Dressing.HADAMARD).q], atol=ATOL
            )
            conjugated_hs = hs @ ptm_of_channel(ch) @ hs.T
            assert_allclose(
                np.diag(conjugated_hs), [1, *dress_channel(ch, Dressing.HADAMARD_PHASE).q], atol=ATOL
            )


class TestBypassable:
    def test_bit_flip_family_bypassable(self):
        for p in (0.1, 0.5, 0.9):
            assert is_bypassable(PauliChannel.bit_flip(p))
            assert is_bypassable(PauliChannel.phase_flip(p))
            assert is_bypassable(PauliChannel.bit_phase_flip(p))

    def test_depolarizing_not_bypassable(self):
        for p in (0.1, 0.5, 0.9):
            assert not is_bypassable(PauliChannel.depolarizing(p))

    def test_identity_bypassable(self):
        assert is_bypassable(PauliChannel.identity())

    def test_equivalence_with_fixed_point_definition(self, rng):
        # Bypassable iff some non-identity Pauli is a fixed point of the map.
        basis = oracle.pauli_basis(1)
        for _ in range(300):
            ch = random_channel(rng)
            kraus = oracle.kraus_of_channel(ch)
            fixed_point_exists = False
            for mat in basis[1:]:
                image = sum(k @ mat @ k.conj().T for k in kraus.operators)
                if np.max(np.abs(image - mat)) <= 1e-9:
                    fixed_point_exists = True
            assert is_bypassable(ch, tol=1e-9) == fixed_point_exists

    def test_bypass_dressing_moves_unit_entry_to_z(self):
        for ch in (PauliChannel.bit_flip(0.2), PauliChannel.bit_phase_flip(0.2), PauliChannel.phase_flip(0.2)):
            dressed = dress_channel(ch, bypass_dressing(ch))
            assert dressed.q_z == pytest.approx(1.0, abs=ATOL)

    def test_bypass_dressing_rejects_depolarizing(self):
        with pytest.raises(ChannelValidationError):
            bypass_dressing(PauliChannel.depolarizing(0.3))


class TestCompose:
    def test_pairwise_product(self):
        # Two phase-flip channels compose with their X/Y sectors multiplying
        # and the preserved Z sector staying at 1.
        composed = compose_channels([PauliChannel(0.5, 0.5, 1.0), PauliChannel(0.25, 0.25, 1.0)])
        assert composed.q == (0.125, 0.125, 1.0)

    def test_unicast_path_product(self):
        # q_Z = 0.5 then q_Z = 0.25 attenuate multiplicatively to 0.125.
        composed = compose_channels([PauliChannel(0.5, 0.5, 0.5), PauliChannel(0.25, 0.25, 0.25)])
        assert composed.q_z == 0.125

    def test_single_channel(self):
        ch = PauliChannel(0.3, 0.2, 0.6)
        assert compose_channels([ch]).q == ch.q

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compose_channels([])

    def test_associative_and_commutative(self, rng):
        for _ in range(20):
            chans = [random_channel(rng) for _ in range(4)]
            forward = compose_channels(chans)
            backward = compose_channels(chans[::-1])
            nested = compose_channels([compose_channels(chans[:2]), compose_channels(chans[2:])])
            assert_allclose(forward.q, backward.q, atol=ATOL)
            assert_allclose(forward.q, nested.q, atol=ATOL)

    def test_matches_oracle_kraus_composition(self, rng):
        for _ in range(50):
            chans = [random_channel(rng) for _ in range(3)]
            state = random_state(rng)
            rho = oracle.pauli_to_density(state)
            for ch in chans:
                rho = oracle.evolve_kraus(rho, oracle.kraus_of_channel(ch))
            fast = apply_channel(compose_channels(chans), state)
            assert_allclose(fast.coeffs, oracle.density_to_pauli(rho).coeffs, atol=ATOL)


# The forms the primitives had before they were rewritten to spend fewer numpy
# scalar round-trips.  Each rewrite must give the same bits, not close ones.


def reference_tensor(a: PauliVector1Q, b: PauliVector1Q) -> np.ndarray:
    return np.kron(a.coeffs, b.coeffs)


def reference_cnot(state: PauliVector2Q, control: str) -> np.ndarray:
    table = CNOT_TABLE_CONTROL_FIRST if control == "first" else CNOT_TABLE_CONTROL_SECOND
    out = np.zeros(16)
    for src, (dst, sign) in enumerate(table):
        out[dst] = sign * state.coeffs[src]
    return out


def reference_apply_channel(channel: PauliChannel, state: PauliVector1Q) -> np.ndarray:
    c = state.coeffs
    return np.array([c[0], channel.q_x * c[1], channel.q_y * c[2], channel.q_z * c[3]])


def reference_compose(path) -> tuple[float, float, float]:
    prod = np.prod(np.asarray([ch.q for ch in path], dtype=float), axis=0)
    return (float(prod[0]), float(prod[1]), float(prod[2]))


def reference_state_error(coeffs) -> str | None:
    """The message the one-qubit state check raised, on numpy scalars."""
    arr = np.asarray(coeffs, dtype=float)
    if abs(arr[0] - 1.0) > ATOL:
        return f"x_I must be 1 for a normalized state, got {arr[0]!r}"
    r2 = float(arr[1] ** 2 + arr[2] ** 2 + arr[3] ** 2)
    return f"Bloch vector norm^2 = {r2} exceeds 1" if r2 > 1.0 + ATOL else None


def reference_probabilities(q_x, q_y, q_z) -> tuple[float, float, float, float]:
    return (
        (1.0 + q_x + q_y + q_z) / 4.0,
        (1.0 + q_x - q_y - q_z) / 4.0,
        (1.0 - q_x + q_y - q_z) / 4.0,
        (1.0 - q_x - q_y + q_z) / 4.0,
    )


def reference_channel_error(q_x, q_y, q_z) -> str | None:
    """The message the channel check raised when it looped over ``zip`` and ``probabilities()``."""
    q = (q_x, q_y, q_z)
    for name, value in zip(("q_x", "q_y", "q_z"), q):
        if not -1.0 - ATOL <= value <= 1.0 + ATOL:
            return f"{name} = {value} outside [-1, 1]"
    for p_name, p in zip(("p_i", "p_x", "p_y", "p_z"), reference_probabilities(*q)):
        if p < -ATOL:
            return f"complete positivity violated: {p_name} = {p} < 0 for q = {q}"
    return None


def channel_error(q_x, q_y, q_z) -> str | None:
    try:
        PauliChannel(q_x, q_y, q_z)
    except ChannelValidationError as err:
        return str(err)
    return None


def same_bits(actual: np.ndarray, expected: np.ndarray) -> bool:
    """Exact equality that also tells 0.0 from -0.0."""
    return actual.dtype == expected.dtype and actual.tobytes() == expected.tobytes()


class TestPrimitivesMatchReferenceForms:
    N_CASES = 300

    def test_tensor(self, rng):
        for _ in range(self.N_CASES):
            a, b = random_state(rng), random_state(rng)
            assert same_bits(tensor(a, b).coeffs, reference_tensor(a, b))

    def test_cnot(self, rng):
        for _ in range(self.N_CASES):
            product = tensor(random_state(rng), random_state(rng))
            arbitrary = PauliVector2Q(np.r_[1.0, rng.uniform(-1, 1, 15)])
            for state in (product, arbitrary, apply_cnot(product)):
                for control in ("first", "second"):
                    assert same_bits(apply_cnot(state, control).coeffs,
                                     reference_cnot(state, control))

    def test_apply_channel(self, rng):
        for _ in range(self.N_CASES):
            channel, state = random_channel(rng), random_state(rng)
            assert same_bits(apply_channel(channel, state).coeffs,
                             reference_apply_channel(channel, state))
        for channel in (PauliChannel.bit_flip(0.5), PauliChannel(1, 1, 1)):
            state = PauliVector1Q.from_bloch(-0.0, 0.6, -0.8)
            assert same_bits(apply_channel(channel, state).coeffs,
                             reference_apply_channel(channel, state))

    def test_compose(self, rng):
        for i in range(self.N_CASES):
            path = [random_channel(rng) for _ in range(1 + i % 12)]
            expected = reference_compose(path)
            for given in (path, tuple(path), (ch for ch in path)):
                composed = compose_channels(given)
                assert composed.q == expected
                assert all(type(q) is float for q in composed.q)

    def test_state_check(self, rng):
        # near the Bloch sphere, where the two checks could part ways
        rejected = 0
        for _ in range(self.N_CASES):
            direction = rng.normal(size=3)
            radius = 1.0 + rng.uniform(-3, 3) * ATOL
            coeffs = np.r_[1.0 + rng.uniform(-2, 2) * ATOL, radius * direction / np.linalg.norm(direction)]
            expected = reference_state_error(coeffs)
            if expected is None:
                PauliVector1Q(coeffs)
            else:
                with pytest.raises(NonPhysicalStateError) as err:
                    PauliVector1Q(coeffs)
                assert str(err.value) == expected
                rejected += 1
        assert 0 < rejected < self.N_CASES

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: PauliVector1Q(np.array([0.9, 0, 0, 0])), NonPhysicalStateError,
             "x_I must be 1 for a normalized state, got np.float64(0.9)"),
            (lambda: PauliVector1Q.from_bloch(0.9, 0.9, 0.9), NonPhysicalStateError,
             "Bloch vector norm^2 = 2.43 exceeds 1"),
            (lambda: PauliVector1Q(np.zeros(3)), NonPhysicalStateError,
             "expected 4 coefficients, got shape (3,)"),
            (lambda: PauliVector2Q(np.r_[0.5, np.zeros(15)]), NonPhysicalStateError,
             "coefficient of I(x)I must be 1, got np.float64(0.5)"),
            (lambda: PauliChannel(1.0, 1.0, -1.0), ChannelValidationError,
             "complete positivity violated: p_z = -0.5 < 0 for q = (1.0, 1.0, -1.0)"),
            (lambda: PauliChannel(1.5, 0.0, 0.0), ChannelValidationError,
             "q_x = 1.5 outside [-1, 1]"),
            (lambda: compose_channels([]), ValueError, "path must contain at least one channel"),
            (lambda: compose_channels(iter([])), ValueError,
             "path must contain at least one channel"),
        ],
        ids=["trace", "bloch", "shape", "trace-2q", "cp", "range", "empty-path", "empty-iterator"],
    )
    def test_error_messages(self, build, error, message):
        with pytest.raises(error) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "q, message",
        [
            ((1.5, 0.0, 0.0), "q_x = 1.5 outside [-1, 1]"),
            ((0.0, -1.2, 0.0), "q_y = -1.2 outside [-1, 1]"),
            ((0.5, 0.5, 1.0 + 2 * ATOL), "q_z = 1.000000000002 outside [-1, 1]"),
            ((0.0, float("nan"), 2.0), "q_y = nan outside [-1, 1]"),
            ((float("nan"), 0.5, 0.5), "q_x = nan outside [-1, 1]"),
            ((0.5, 0.5, float("nan")), "q_z = nan outside [-1, 1]"),
            ((2.0, float("nan"), 0.5), "q_x = 2.0 outside [-1, 1]"),
            ((-1.0, -1.0, -1.0), "complete positivity violated: p_i = -0.5 < 0 for q = (-1.0, -1.0, -1.0)"),
            ((-1.0, 1.0, 1.0), "complete positivity violated: p_x = -0.5 < 0 for q = (-1.0, 1.0, 1.0)"),
            ((1.0, -1.0, 1.0), "complete positivity violated: p_y = -0.5 < 0 for q = (1.0, -1.0, 1.0)"),
            ((1.0, 1.0, -1.0), "complete positivity violated: p_z = -0.5 < 0 for q = (1.0, 1.0, -1.0)"),
        ],
        ids=["q_x", "q_y", "q_z", "nan", "nan-q_x", "nan-q_z", "range-before-nan", "p_i", "p_x", "p_y",
             "p_z"],
    )
    def test_channel_check_messages(self, q, message):
        assert reference_channel_error(*q) == message
        with pytest.raises(ChannelValidationError) as err:
            PauliChannel(*q)
        assert str(err.value) == message

    def test_channel_check_near_the_boundary(self):
        # Every triple of values within a few ATOL of -1 and 1, where the range and
        # complete-positivity checks flip, plus plain values, ints and a numpy float.
        offsets = [k * ATOL / 2 for k in range(-6, 7)]
        values = [c + d for c in (-1.0, 1.0) for d in offsets] + [0.0, 0.5, 1, -1, np.float64(1.0 + ATOL)]
        outcomes = Counter()
        for q in itertools.product(values, repeat=3):
            expected = reference_channel_error(*q)
            assert channel_error(*q) == expected, q
            if expected is None:
                outcomes["accepted"] += 1
                assert PauliChannel(*q).probabilities() == reference_probabilities(*q)
            elif expected.startswith("complete") and -3 * ATOL < min(reference_probabilities(*q)):
                outcomes["just past the positivity tolerance"] += 1
            else:
                outcomes[expected.split(" ")[0]] += 1
        assert set(outcomes) == {
            "accepted", "just past the positivity tolerance", "q_x", "q_y", "q_z", "complete"
        }
