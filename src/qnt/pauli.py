"""Exact Pauli-Liouville algebra for one- and two-qubit states and processes.

A single-qubit state rho is stored as the real coefficient vector
``[x_I, x_X, x_Y, x_Z]`` with ``x_P = Tr[P rho]``, so that
``rho = (1/2) sum_P x_P P``.  Two-qubit states use the 16 coefficients
``x_{PQ} = Tr[(P (x) Q) rho]`` in row-major order over ordered pairs
``(P_first, P_second)`` with basis order ``(I, X, Y, Z)``; index
``4*first + second``.

Quantum processes act on these vectors as 4x4 (or 16x16) real Pauli
transfer matrices (PTMs).  A Pauli channel applying X, Y, Z with
probabilities ``p_X, p_Y, p_Z`` is the diagonal PTM
``diag(1, q_X, q_Y, q_Z)`` with

    q_X = 1 - 2(p_Y + p_Z),
    q_Y = 1 - 2(p_X + p_Z),
    q_Z = 1 - 2(p_X + p_Y).

Everything in this module is a pure function over immutable values; the
arithmetic is exact products and sums of numbers in [-1, 1], so all
comparisons elsewhere use an absolute tolerance of ``ATOL = 1e-12``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

ATOL = 1e-12
_Q_MIN, _Q_MAX = -1.0 - ATOL, 1.0 + ATOL  # the range a channel parameter may take

PAULI_LABELS = ("I", "X", "Y", "Z")

QubitSlot = Literal["first", "second"]


class NonPhysicalStateError(ValueError):
    """A coefficient vector does not describe a physical quantum state."""


class ChannelValidationError(ValueError):
    """Channel parameters violate complete positivity or their range."""


def pair_index(first: int, second: int) -> int:
    """Flat index of the basis element P_first (x) P_second."""
    return 4 * first + second


@dataclass(frozen=True)
class PauliVector1Q:
    """One-qubit state as the 4 real Pauli coefficients (x_I, x_X, x_Y, x_Z).

    Invariants enforced at construction: x_I = 1 (trace one) and
    x_X^2 + x_Y^2 + x_Z^2 <= 1 + ATOL (Bloch-ball physicality).
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.shape != (4,):
            raise NonPhysicalStateError(f"expected 4 coefficients, got shape {arr.shape}")
        x_i, x, y, z = arr.tolist()
        # written so that NaN fails every check
        if not abs(x_i - 1.0) <= ATOL:
            raise NonPhysicalStateError(f"x_I must be 1 for a normalized state, got {arr[0]!r}")
        r2 = x**2 + y**2 + z**2
        if not r2 <= 1.0 + ATOL:
            raise NonPhysicalStateError(f"Bloch vector norm^2 = {r2} exceeds 1")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def from_bloch(cls, x: float, y: float, z: float) -> "PauliVector1Q":
        return cls(np.array([1.0, x, y, z]))

    @classmethod
    def ket0(cls) -> "PauliVector1Q":
        return cls.from_bloch(0.0, 0.0, 1.0)

    @classmethod
    def ket1(cls) -> "PauliVector1Q":
        return cls.from_bloch(0.0, 0.0, -1.0)

    @classmethod
    def plus(cls) -> "PauliVector1Q":
        return cls.from_bloch(1.0, 0.0, 0.0)

    @classmethod
    def maximally_mixed(cls) -> "PauliVector1Q":
        return cls.from_bloch(0.0, 0.0, 0.0)

    @property
    def x(self) -> float:
        return float(self.coeffs[1])

    @property
    def y(self) -> float:
        return float(self.coeffs[2])

    @property
    def z(self) -> float:
        return float(self.coeffs[3])


@dataclass(frozen=True)
class PauliVector2Q:
    """Two-qubit state as 16 real coefficients over ordered Pauli pairs.

    Only the normalization coefficient (I (x) I) = 1 is enforced; entangled
    states have no per-qubit Bloch constraint expressible coefficientwise.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.shape != (16,):
            raise NonPhysicalStateError(f"expected 16 coefficients, got shape {arr.shape}")
        if not abs(arr[0] - 1.0) <= ATOL:  # so that NaN fails
            raise NonPhysicalStateError(f"coefficient of I(x)I must be 1, got {arr[0]!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def coeff(self, first: str, second: str) -> float:
        """Coefficient of P_first (x) P_second by Pauli labels."""
        return float(self.coeffs[pair_index(PAULI_LABELS.index(first), PAULI_LABELS.index(second))])


@dataclass(frozen=True)
class PauliChannel:
    """A Pauli channel, parameterized by its PTM diagonal (q_X, q_Y, q_Z).

    Construction validates q in [-1, 1] and complete positivity, which for
    a diagonal PTM is equivalent to all four Pauli probabilities being
    nonnegative:

        1 + q_X + q_Y + q_Z >= 0,   1 + q_X - q_Y - q_Z >= 0,
        1 - q_X + q_Y - q_Z >= 0,   1 - q_X - q_Y + q_Z >= 0.

    Zero entries are representable here (the algebra is still well defined)
    but the tomography protocols reject them.
    """

    q_x: float
    q_y: float
    q_z: float

    def __post_init__(self):
        # One chained comparison accepts a valid channel, with the four probabilities
        # computed as probabilities() does; _reject names what failed.
        q_x, q_y, q_z = self.q_x, self.q_y, self.q_z
        if not (_Q_MIN <= q_x <= _Q_MAX and _Q_MIN <= q_y <= _Q_MAX and _Q_MIN <= q_z <= _Q_MAX
                and (1.0 + q_x + q_y + q_z) / 4.0 >= -ATOL and (1.0 + q_x - q_y - q_z) / 4.0 >= -ATOL
                and (1.0 - q_x + q_y - q_z) / 4.0 >= -ATOL and (1.0 - q_x - q_y + q_z) / 4.0 >= -ATOL):
            self._reject()

    def _reject(self):
        q = (self.q_x, self.q_y, self.q_z)
        for name, value in zip(("q_x", "q_y", "q_z"), q):
            if not _Q_MIN <= value <= _Q_MAX:
                raise ChannelValidationError(f"{name} = {value} outside [-1, 1]")
        for p_name, p in zip(("p_i", "p_x", "p_y", "p_z"), self.probabilities()):
            if p < -ATOL:
                raise ChannelValidationError(
                    f"complete positivity violated: {p_name} = {p} < 0 for q = {q}"
                )

    def probabilities(self) -> tuple[float, float, float, float]:
        """The (p_I, p_X, p_Y, p_Z) Kraus mixing probabilities."""
        p_i = (1.0 + self.q_x + self.q_y + self.q_z) / 4.0
        p_x = (1.0 + self.q_x - self.q_y - self.q_z) / 4.0
        p_y = (1.0 - self.q_x + self.q_y - self.q_z) / 4.0
        p_z = (1.0 - self.q_x - self.q_y + self.q_z) / 4.0
        return (p_i, p_x, p_y, p_z)

    @property
    def q(self) -> tuple[float, float, float]:
        return (self.q_x, self.q_y, self.q_z)

    @classmethod
    def from_probabilities(cls, p_x: float, p_y: float, p_z: float) -> "PauliChannel":
        return cls(
            q_x=1.0 - 2.0 * (p_y + p_z),
            q_y=1.0 - 2.0 * (p_x + p_z),
            q_z=1.0 - 2.0 * (p_x + p_y),
        )

    @classmethod
    def identity(cls) -> "PauliChannel":
        return cls(1.0, 1.0, 1.0)

    @classmethod
    def bit_flip(cls, p: float) -> "PauliChannel":
        return cls.from_probabilities(p, 0.0, 0.0)

    @classmethod
    def phase_flip(cls, p: float) -> "PauliChannel":
        return cls.from_probabilities(0.0, 0.0, p)

    @classmethod
    def bit_phase_flip(cls, p: float) -> "PauliChannel":
        return cls.from_probabilities(0.0, p, 0.0)

    @classmethod
    def depolarizing(cls, p: float) -> "PauliChannel":
        # (1-p) rho + (p/4)(rho + X rho X + Y rho Y + Z rho Z): PTM diag(1, 1-p, 1-p, 1-p)
        return cls(1.0 - p, 1.0 - p, 1.0 - p)


class GateKind(enum.Enum):
    HADAMARD = "hadamard"
    PHASE = "phase"
    HADAMARD_PHASE = "hadamard_phase"
    CNOT_CONTROL_FIRST = "cnot_control_first"
    CNOT_CONTROL_SECOND = "cnot_control_second"


class Dressing(enum.Enum):
    """Gate sandwich applied around a channel to permute its PTM diagonal."""

    NONE = "none"
    HADAMARD = "hadamard"
    HADAMARD_PHASE = "hadamard_phase"


# H maps (I, X, Y, Z) -> (I, Z, -Y, X); S maps (I, X, Y, Z) -> (I, Y, -X, Z).
HADAMARD_PTM = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ]
)
PHASE_PTM = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)

# Conjugation action of CNOT (control = first qubit) on the 16 Pauli pair
# basis elements, frozen as (image index, sign) per source index.  Generated
# once from the density-matrix oracle (see tests for the regeneration check);
# e.g. X(x)Z -> -Y(x)Y and Y(x)Y -> -X(x)Z are the only sign flips.
CNOT_TABLE_CONTROL_FIRST: tuple[tuple[int, int], ...] = (
    (0, 1),   # I(x)I -> I(x)I
    (1, 1),   # I(x)X -> I(x)X
    (14, 1),  # I(x)Y -> Z(x)Y
    (15, 1),  # I(x)Z -> Z(x)Z
    (5, 1),   # X(x)I -> X(x)X
    (4, 1),   # X(x)X -> X(x)I
    (11, 1),  # X(x)Y -> Y(x)Z
    (10, -1),  # X(x)Z -> -Y(x)Y
    (9, 1),   # Y(x)I -> Y(x)X
    (8, 1),   # Y(x)X -> Y(x)I
    (7, -1),  # Y(x)Y -> -X(x)Z
    (6, 1),   # Y(x)Z -> X(x)Y
    (12, 1),  # Z(x)I -> Z(x)I
    (13, 1),  # Z(x)X -> Z(x)X
    (2, 1),   # Z(x)Y -> I(x)Y
    (3, 1),   # Z(x)Z -> I(x)Z
)


def _swap_pair_index(idx: int) -> int:
    return pair_index(idx % 4, idx // 4)


def _swapped_table(table: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = [(-1, 0)] * 16
    for src, (dst, sign) in enumerate(table):
        out[_swap_pair_index(src)] = (_swap_pair_index(dst), sign)
    return tuple(out)


CNOT_TABLE_CONTROL_SECOND = _swapped_table(CNOT_TABLE_CONTROL_FIRST)


def _gather(table: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(source index, sign) per image index, so that out = sign * coeffs[source]."""
    source, sign = np.zeros(16, dtype=int), np.zeros(16)
    for src, (dst, s) in enumerate(table):
        source[dst], sign[dst] = src, s
    return source, sign


_CNOT_GATHER_FIRST = _gather(CNOT_TABLE_CONTROL_FIRST)
_CNOT_GATHER_SECOND = _gather(CNOT_TABLE_CONTROL_SECOND)


def ptm_of_channel(channel: PauliChannel) -> np.ndarray:
    """The 4x4 PTM diag(1, q_X, q_Y, q_Z) of a Pauli channel."""
    return np.diag([1.0, channel.q_x, channel.q_y, channel.q_z])


def gate_ptm(kind: GateKind) -> np.ndarray:
    """PTM of a named gate; the CNOT kinds return 16x16 matrices."""
    if kind is GateKind.HADAMARD:
        return HADAMARD_PTM.copy()
    if kind is GateKind.PHASE:
        return PHASE_PTM.copy()
    if kind is GateKind.HADAMARD_PHASE:
        return HADAMARD_PTM @ PHASE_PTM
    table = (
        CNOT_TABLE_CONTROL_FIRST
        if kind is GateKind.CNOT_CONTROL_FIRST
        else CNOT_TABLE_CONTROL_SECOND
    )
    mat = np.zeros((16, 16))
    for src, (dst, sign) in enumerate(table):
        mat[dst, src] = sign
    return mat


def apply_ptm(ptm: np.ndarray, state: PauliVector1Q) -> PauliVector1Q:
    """Matrix-vector action of a 4x4 PTM on a one-qubit Pauli vector."""
    return PauliVector1Q(np.asarray(ptm, dtype=float) @ state.coeffs)


def apply_channel(channel: PauliChannel, state: PauliVector1Q) -> PauliVector1Q:
    return PauliVector1Q(state.coeffs * (1.0, channel.q_x, channel.q_y, channel.q_z))


def tensor(a: PauliVector1Q, b: PauliVector1Q) -> PauliVector2Q:
    """Product state: coeff(P (x) Q) = a(P) * b(Q)."""
    return PauliVector2Q((a.coeffs[:, None] * b.coeffs).ravel())


def apply_cnot(state: PauliVector2Q, control: QubitSlot = "first") -> PauliVector2Q:
    """Conjugation action of CNOT on a two-qubit Pauli vector."""
    source, sign = _CNOT_GATHER_FIRST if control == "first" else _CNOT_GATHER_SECOND
    return PauliVector2Q(sign * state.coeffs[source])


def apply_channel_2q(
    channel: PauliChannel, state: PauliVector2Q, slot: QubitSlot
) -> PauliVector2Q:
    """Apply a one-qubit Pauli channel to one slot of a two-qubit state."""
    diag = np.array([1.0, channel.q_x, channel.q_y, channel.q_z])
    scale = np.kron(diag, np.ones(4)) if slot == "first" else np.kron(np.ones(4), diag)
    return PauliVector2Q(scale * state.coeffs)


def partial_trace(state: PauliVector2Q, discard: QubitSlot) -> PauliVector1Q:
    """Trace out one qubit: keep coefficients whose discarded slot carries I."""
    grid = state.coeffs.reshape(4, 4)
    kept = grid[0, :] if discard == "first" else grid[:, 0]
    return PauliVector1Q(kept.copy())


def z_measurement_probs(state: PauliVector1Q) -> tuple[float, float]:
    """Computational-basis outcome probabilities ((1 + x_Z)/2, (1 - x_Z)/2)."""
    p0 = (1.0 + state.z) / 2.0
    return (p0, 1.0 - p0)


def joint_z_measurement_probs(
    state: PauliVector2Q, m: float = 1.0
) -> tuple[float, float, float, float]:
    """Joint Z-basis outcome probabilities for |00>, |01>, |10>, |11>.

    Each qubit is read out through a measurement with error parameter ``m``
    (error-free for m = 1): the effect vector for outcome 0 is [1, 0, 0, m]
    and for outcome 1 is [1, 0, 0, -m], and
    P(ab) = (1/4) <<M_a (x) M_b | state>>.
    """
    effects = (np.array([1.0, 0.0, 0.0, m]), np.array([1.0, 0.0, 0.0, -m]))
    probs = []
    for a in (0, 1):
        for b in (0, 1):
            probs.append(float(np.outer(effects[a], effects[b]).ravel() @ state.coeffs) / 4.0)
    for p in probs:
        if not -ATOL <= p <= 1.0 + ATOL:
            raise NonPhysicalStateError(f"outcome probability {p} outside [0, 1]")
    return tuple(probs)  # type: ignore[return-value]


def dress_channel(channel: PauliChannel, dressing: Dressing) -> PauliChannel:
    """Permute the PTM diagonal by a gate sandwich.

    H . P . H       = diag(1, q_Z, q_Y, q_X)
    HS . P . (HS)^+ = diag(1, q_Z, q_X, q_Y)

    so the Hadamard dressing brings q_X into the Z slot and the
    Hadamard-phase dressing brings q_Y there.
    """
    if dressing is Dressing.NONE:
        return channel
    if dressing is Dressing.HADAMARD:
        return PauliChannel(channel.q_z, channel.q_y, channel.q_x)
    return PauliChannel(channel.q_z, channel.q_x, channel.q_y)


def is_bypassable(channel: PauliChannel, tol: float = ATOL) -> bool:
    """True iff some non-identity Pauli is preserved, i.e. some q is within tol of 1."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return any(abs(q - 1.0) <= tol for q in channel.q)


def bypass_dressing(channel: PauliChannel, tol: float = ATOL) -> Dressing:
    """The dressing that moves a unit diagonal entry into the Z slot.

    With that dressing applied, the state [1, 0, 0, c] traverses the channel
    unchanged.  Raises if the channel is not bypassable.
    """
    if abs(channel.q_z - 1.0) <= tol:
        return Dressing.NONE
    if abs(channel.q_x - 1.0) <= tol:
        return Dressing.HADAMARD
    if abs(channel.q_y - 1.0) <= tol:
        return Dressing.HADAMARD_PHASE
    raise ChannelValidationError(f"channel {channel.q} is not bypassable within tol={tol}")


def compose_channels(path: Iterable[PauliChannel]) -> PauliChannel:
    """Composite of a path of Pauli channels: componentwise product of q vectors,
    multiplied in path order."""
    channels = list(path)
    if not channels:
        raise ValueError("path must contain at least one channel")
    q_x = q_y = q_z = 1.0
    for ch in channels:
        q_x, q_y, q_z = q_x * ch.q_x, q_y * ch.q_y, q_z * ch.q_z
    return PauliChannel(float(q_x), float(q_y), float(q_z))
