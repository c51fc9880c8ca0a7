"""Two-qubit quantum coupling: states, dichotomic observables, Born sampling.

Every angle here is a Bloch-sphere (spin) angle in the z-x plane:
A(theta) = cos(theta) sigma_z + sin(theta) sigma_x, with eigenvalues +/-1.
A photon polarizer angle is half its Bloch angle, so the CLI doubles photon
(polarizer) angles first.  Expectations and Born probabilities are traces
Tr(rho A x B), and each call evaluates its traces as one stack, in one
matmul; S composes four expectations with the canonical signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CANONICAL_CONTEXTS, OUTCOME_PAIRS, ArrayValue, ExperimentBundle, chsh_sum, finite_real, frozen_array
from .errors import ConfigError, DomainError

__all__ = [
    "AngleQuadruple",
    "DensityMatrix",
    "TSIRELSON_ANGLES",
    "TSIRELSON_BOUND",
    "born_probabilities",
    "context_born_probabilities",
    "correlation_block",
    "expectation",
    "observable",
    "optimize_angles",
    "s_quantum",
    "sample_bundle_quantum",
    "singlet",
    "maximally_mixed",
    "random_density_matrix",
]

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class DensityMatrix(ArrayValue):
    """4x4 two-qubit density matrix; Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = frozen_array(self.matrix, np.complex128, (4, 4), "density matrix")
        with np.errstate(over="ignore", invalid="ignore"):  # entries near float64's limit give inf or NaN here
            herm = float(np.abs(m - m.conj().T).max())
            trace = complex(np.trace(m))
        if herm > HERMITIAN_TOL:
            raise DomainError(f"matrix is not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        if not abs(trace - 1.0) <= TRACE_TOL:  # NaN fails too
            raise DomainError(f"trace must be 1, got {trace!r}")
        eigenvalues = np.linalg.eigvalsh(m)
        if float(eigenvalues.min()) < PSD_TOL:
            raise DomainError(f"matrix is not positive semidefinite: min eigenvalue {eigenvalues.min():.3e}")
        hermitian = (m + m.conj().T) / 2  # the drift HERMITIAN_TOL admits would make traces complex
        hermitian.setflags(write=False)
        object.__setattr__(self, "matrix", hermitian)

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def singlet() -> DensityMatrix:
    """Pure state (|01> - |10>)/sqrt(2)."""
    psi = np.zeros(4, dtype=np.complex128)
    psi[1] = 1.0 / math.sqrt(2.0)
    psi[2] = -1.0 / math.sqrt(2.0)
    return DensityMatrix(np.outer(psi, psi.conj()))


def maximally_mixed() -> DensityMatrix:
    return DensityMatrix(np.eye(4, dtype=np.complex128) / 4.0)


def random_density_matrix(rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random state: normalize M M^dag for complex Gaussian M."""
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = m @ m.conj().T
    return DensityMatrix(rho / np.trace(rho))


@dataclass(frozen=True)
class AngleQuadruple:
    """The four setting angles (a1, a2, b1, b2), radians, stored as floats."""

    a1: float
    a2: float
    b1: float
    b2: float

    def __post_init__(self) -> None:
        angles = frozen_array(self.as_tuple(), np.float64, (4,), "angles a1, a2, b1, b2")
        for name, angle in zip(("a1", "a2", "b1", "b2"), angles.tolist()):  # observable takes real numbers
            object.__setattr__(self, name, angle)

    def alice(self, index: int) -> float:
        return self.a1 if index == 1 else self.a2

    def bob(self, index: int) -> float:
        return self.b1 if index == 1 else self.b2

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a1, self.a2, self.b1, self.b2)


TSIRELSON_ANGLES = AngleQuadruple(0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0)


def observable(angle: float) -> np.ndarray:
    """cos(angle) sigma_z + sin(angle) sigma_x for a finite Bloch angle."""
    if not finite_real(angle):
        raise DomainError(f"angle must be a finite real number, got {angle!r}")
    return math.cos(angle) * SIGMA_Z + math.sin(angle) * SIGMA_X


def _traces(rho: DensityMatrix, a: np.ndarray, b: np.ndarray, name: str) -> np.ndarray:
    """Tr(rho a x b) over broadcast (..., 2, 2) stacks of Hermitian a and b, as one stacked matmul.

    An imaginary residue over 1e-12 anywhere in the stack is a DomainError naming ``name``.
    """
    outer = a[..., :, None, :, None] * b[..., None, :, None, :]  # entry (i, k, j, l) is the single product a_ij b_kl
    values = np.trace(rho.matrix @ outer.reshape(*outer.shape[:-4], 4, 4), axis1=-2, axis2=-1)
    if (residue := np.abs(values.imag)).max() > 1e-12:
        raise DomainError(f"{name} has imaginary residue {values.imag.flat[residue.argmax()]:.3e}")
    return values.real.copy()  # contiguous, so the SVD and matmuls that read it take their contiguous-input kernels


def _born(rho: DensityMatrix, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Born rows over ``OUTCOME_PAIRS`` for stacks of observables a and b, from the projectors (I + s A) / 2."""
    alice, bob = ((np.eye(2) + s[:, None, None] * m[..., None, :, :]) / 2.0 for s, m in zip(OUTCOME_PAIRS.T, (a, b)))
    probs = _traces(rho, alice, bob, "Born probability")
    for row in probs.reshape(-1, 4):  # the first invalid row raises
        if row.min() < -1e-12 or abs(row.sum() - 1.0) > 1e-12:
            raise DomainError(f"Born probabilities invalid: min {row.min():.3e}, sum {float(row.sum())}")
    return probs


def _context_observables(angles: AngleQuadruple) -> np.ndarray:
    """The (4, 2, 2) stacks of A and of B in canonical context order, as one (2, 4, 2, 2) array."""
    alice, bob = [observable(angles.a1), observable(angles.a2)], [observable(angles.b1), observable(angles.b2)]
    return np.array([[alice[c.alice - 1], bob[c.bob - 1]] for c in CANONICAL_CONTEXTS]).swapaxes(0, 1)


def expectation(rho: DensityMatrix, alice_angle: float, bob_angle: float) -> float:
    """Tr(rho A(alice_angle) x B(bob_angle)); real, in [-1, 1]."""
    return float(_traces(rho, observable(alice_angle), observable(bob_angle), "expectation"))


def born_probabilities(rho: DensityMatrix, alice_angle: float, bob_angle: float) -> np.ndarray:
    """Outcome-pair probabilities over (+,+), (+,-), (-,+), (-,-)."""
    return _born(rho, observable(alice_angle), observable(bob_angle))


def context_born_probabilities(rho: DensityMatrix, angles: AngleQuadruple) -> np.ndarray:
    """``born_probabilities`` of the four canonical contexts as (4, 4) rows; the first invalid context raises."""
    return _born(rho, *_context_observables(angles))


def s_quantum(rho: DensityMatrix, angles: AngleQuadruple) -> float:
    """S = E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2) for the quantum coupling."""
    total = chsh_sum(_traces(rho, *_context_observables(angles), "expectation").tolist()) + 0.0
    if abs(total) > TSIRELSON_BOUND + 1e-9:
        raise DomainError(f"|S| = {abs(total)!r} exceeds 2*sqrt(2); state is invalid")
    return total


def sample_bundle_quantum(
    rho: DensityMatrix, angles: AngleQuadruple, n_per_context: int, seed: int
) -> ExperimentBundle:
    """Per-context i.i.d. draws from the Born distribution; deterministic given seed."""
    from .behaviors import quantum_streams  # imports this module

    return quantum_streams(rho, angles).sample(n_per_context, seed)


def correlation_block(rho: DensityMatrix) -> np.ndarray:
    """2x2 block T[p,q] = Tr(rho sigma_p x sigma_q) for p, q in (z, x).

    E(a, b) = [cos a, sin a] T [cos b, sin b]^T, so S over the four angles is a
    bilinear form in unit vectors, maximized in closed form from T's SVD.
    """
    paulis = np.array([SIGMA_Z, SIGMA_X])
    return _traces(rho, paulis[:, None], paulis[None, :], "correlation")


def optimize_angles(
    rho: DensityMatrix, grid_points: int = 24, refine_iters: int = 64
) -> tuple[AngleQuadruple, float]:
    """Setting angles maximizing S, and the maximum 2*hypot(s1, s2), in closed form.

    With T = U diag(s1, s2) V^T the SVD of ``correlation_block(rho)`` and v1, v2
    the rows of V^T, S = a1.T(b1 + b2) + a2.T(b1 - b2) over unit vectors peaks
    at b1, b2 = cos(theta) v1 +/- sin(theta) v2 with theta = atan2(s2, s1),
    a1 along T(b1 + b2) and a2 along T(b1 - b2) (Horodecki, Horodecki &
    Horodecki, Phys. Lett. A 200, 340 (1995)).  S at the returned angles equals
    the value.  A zero or rank-1 block needs no branch: atan2(0, 0) is 0, so
    the maximally mixed state gets finite angles and value 0, a product state
    value 2.

    ``grid_points`` and ``refine_iters`` are accepted and ignored: the closed
    form has no grid and no iterations.  A ``grid_points`` that is not a finite
    number of at least 8 still raises ``ConfigError``.
    """
    if not (finite_real(grid_points) and grid_points >= 8):
        raise ConfigError(f"grid_points must be a finite number >= 8, got {grid_points!r}")
    block = correlation_block(rho)
    _, (s1, s2), (v1, v2) = np.linalg.svd(block)
    theta = math.atan2(s2, s1)
    b1 = math.cos(theta) * v1 + math.sin(theta) * v2
    b2 = math.cos(theta) * v1 - math.sin(theta) * v2
    vectors = (block @ (b1 + b2), block @ (b1 - b2), b1, b2)
    angles = AngleQuadruple(*(math.atan2(v[1], v[0]) for v in vectors))
    value = 2.0 * math.hypot(s1, s2)
    if value > TSIRELSON_BOUND + 1e-9:
        raise DomainError(f"optimizer produced |S| = {value!r} beyond 2*sqrt(2)")
    return angles, value
