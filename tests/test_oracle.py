import numpy as np
import pytest
from numpy.testing import assert_allclose

from qnt import oracle
from qnt.pauli import ATOL, PauliChannel, PauliVector1Q, apply_cnot, tensor
from qnt.oracle import (
    DensityMatrix,
    KrausChannel,
    OracleValidationError,
    amplitude_damping_kraus,
    density_to_pauli,
    evolve_kraus,
    evolve_unitary,
    kraus_of_channel,
    pauli_to_density,
)

from conftest import random_channel, random_state


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(OracleValidationError):
            DensityMatrix(np.array([[1, 1], [0, 0]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(OracleValidationError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(OracleValidationError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


class TestInputChecks:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: DensityMatrix(np.eye(3, dtype=complex) / 3), "unsupported dimension (3, 3)"),
            (lambda: KrausChannel(()), "at least one Kraus operator required"),
            (lambda: evolve_kraus(pauli_to_density(PauliVector1Q.ket0()),
                                  KrausChannel((np.eye(4, dtype=complex),))),
             "dimension mismatch: state 2, channel 4"),
            (lambda: oracle.partial_trace_density(pauli_to_density(PauliVector1Q.ket0()), "first"),
             "partial trace requires a two-qubit state"),
            # the T gate sends X to (X + Y)/sqrt(2), no signed Pauli
            (lambda: oracle.conjugation_table(np.diag([1.0, np.exp(0.25j * np.pi)]), oracle.pauli_basis(1)),
             "conjugation image is not a signed Pauli"),
        ],
        ids=["dimension", "no-kraus", "dimension-mismatch", "partial-trace-1q", "not-clifford"],
    )
    def test_error_messages(self, build, message):
        with pytest.raises(OracleValidationError) as err:
            build()
        assert str(err.value) == message


class TestKrausChannel:
    def test_rejects_non_trace_preserving(self):
        with pytest.raises(OracleValidationError):
            KrausChannel((np.array([[0.5, 0], [0, 0.5]], dtype=complex),))

    def test_pauli_channel_kraus_is_valid(self, rng):
        for _ in range(20):
            kraus_of_channel(random_channel(rng))


class TestConversions:
    def test_ket0_round_trip(self):
        rho = pauli_to_density(PauliVector1Q.ket0())
        assert_allclose(rho.matrix, [[1, 0], [0, 0]], atol=ATOL)
        assert_allclose(density_to_pauli(rho).coeffs, [1, 0, 0, 1], atol=ATOL)

    def test_plus_state(self):
        rho = pauli_to_density(PauliVector1Q.plus())
        assert_allclose(rho.matrix, 0.5 * np.ones((2, 2)), atol=ATOL)

    def test_maximally_mixed(self):
        rho = pauli_to_density(PauliVector1Q.maximally_mixed())
        assert_allclose(rho.matrix, np.eye(2) / 2, atol=ATOL)
        assert_allclose(density_to_pauli(rho).coeffs, [1, 0, 0, 0], atol=ATOL)

    def test_round_trip_random_states(self, rng):
        for _ in range(100):
            state = random_state(rng)
            back = density_to_pauli(pauli_to_density(state))
            assert_allclose(back.coeffs, state.coeffs, atol=ATOL)

    def test_round_trip_two_qubit(self, rng):
        for _ in range(20):
            two = apply_cnot(tensor(random_state(rng), random_state(rng)), "first")
            back = density_to_pauli(pauli_to_density(two))
            assert_allclose(back.coeffs, two.coeffs, atol=ATOL)

    def test_rejects_non_physical_vector(self):
        bad = PauliVector1Q.from_bloch(0.8, 0.0, 0.59)  # norm slightly over 1 is caught earlier
        # Construct a boundary-violating matrix directly instead.
        with pytest.raises(OracleValidationError):
            DensityMatrix(np.array([[1.05, 0], [0, -0.05]], dtype=complex))
        del bad


class TestEvolution:
    def test_bit_flip_preserves_plus(self):
        rho = pauli_to_density(PauliVector1Q.plus())
        out = evolve_kraus(rho, kraus_of_channel(PauliChannel.bit_flip(0.4)))
        assert_allclose(out.matrix, rho.matrix, atol=ATOL)

    def test_identity_channel(self, rng):
        state = random_state(rng)
        rho = pauli_to_density(state)
        out = evolve_kraus(rho, kraus_of_channel(PauliChannel.identity()))
        assert_allclose(out.matrix, rho.matrix, atol=ATOL)

    def test_full_depolarizing_maps_to_mixed(self, rng):
        # q = (0, 0, 0) sends every state to I/2
        channel = PauliChannel(0.0, 0.0, 0.0)
        for _ in range(10):
            rho = pauli_to_density(random_state(rng))
            out = evolve_kraus(rho, kraus_of_channel(channel))
            assert_allclose(out.matrix, np.eye(2) / 2, atol=ATOL)

    def test_dimension_mismatch(self):
        rho = pauli_to_density(PauliVector1Q.ket0())
        with pytest.raises(OracleValidationError):
            evolve_unitary(rho, "CNOT")

    def test_hadamard_on_zero(self):
        out = evolve_unitary(pauli_to_density(PauliVector1Q.ket0()), "H")
        assert_allclose(out.matrix, 0.5 * np.ones((2, 2)), atol=ATOL)

    def test_hadamard_conjugates_x_to_z(self):
        h = oracle.H_GATE
        assert_allclose(h @ oracle.X @ h.conj().T, oracle.Z, atol=ATOL)

    def test_phase_gate_conjugations(self):
        s = oracle.S_GATE
        assert_allclose(s @ oracle.X @ s.conj().T, oracle.Y, atol=ATOL)
        assert_allclose(s @ oracle.Y @ s.conj().T, -oracle.X, atol=ATOL)

    def test_hs_sandwich_reproduces_dressing_row(self, rng):
        # HS . P . (HS)^+ must equal diag(1, q_Z, q_X, q_Y) as a PTM; in
        # circuit order that is the gate (HS)^+ before the channel and HS
        # after it.
        hs = oracle.H_GATE @ oracle.S_GATE
        for _ in range(20):
            ch = random_channel(rng)
            state = random_state(rng)
            rho = pauli_to_density(state)
            rho = evolve_unitary(rho, hs.conj().T)
            rho = evolve_kraus(rho, kraus_of_channel(ch))
            rho = evolve_unitary(rho, hs)
            expected = PauliChannel(ch.q_z, ch.q_x, ch.q_y)
            direct = evolve_kraus(pauli_to_density(state), kraus_of_channel(expected))
            assert_allclose(
                density_to_pauli(rho).coeffs, density_to_pauli(direct).coeffs, atol=ATOL
            )

    def test_cnot_stabilizes_00(self):
        two = tensor(PauliVector1Q.ket0(), PauliVector1Q.ket0())
        rho = pauli_to_density(two)
        out = evolve_unitary(rho, "CNOT")
        assert_allclose(out.matrix, rho.matrix, atol=ATOL)

    def test_amplitude_damping_endpoint(self):
        rho = pauli_to_density(PauliVector1Q.ket1())
        out = evolve_kraus(rho, amplitude_damping_kraus(1.0))
        assert_allclose(out.matrix, [[1, 0], [0, 0]], atol=ATOL)


class TestMeasurementProbs:
    def test_matches_pauli_formula(self, rng):
        from qnt.pauli import z_measurement_probs

        for _ in range(50):
            state = random_state(rng)
            p0, p1 = oracle.measurement_probs(pauli_to_density(state))
            q0, q1 = z_measurement_probs(state)
            assert p0 == pytest.approx(q0, abs=ATOL)
            assert p1 == pytest.approx(q1, abs=ATOL)
