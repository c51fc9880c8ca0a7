"""Two-qubit quantum coupling: states, dichotomic observables, Born sampling.

Observables are parameterized by an angle in the z-x plane,
A(theta) = cos(theta) sigma_z + sin(theta) sigma_x, with eigenvalues +/-1
("spin" convention; pass convention="photon" to double angles for
polarization settings).  Per-context expectations are trace values
Tr(rho A_i x B_j); S composes four of them with the canonical signs.  The
sum-of-operators object behind |<C>| = |S| is never used as a measurable
quantity in the pipelines; ``chsh_operator_diagnostic`` exists only to
cross-check that arithmetic identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import CANONICAL_CONTEXTS, CHSH_SIGNS, ArrayValue, ExperimentBundle, frozen_array
from .errors import ConfigError, DomainError

__all__ = [
    "AngleQuadruple",
    "DensityMatrix",
    "TSIRELSON_ANGLES",
    "TSIRELSON_BOUND",
    "born_probabilities",
    "chsh_operator_diagnostic",
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

Convention = Literal["spin", "photon"]

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
IDENTITY_2 = np.eye(2)

# Outcome pairs in canonical order (+,+), (+,-), (-,+), (-,-).
OUTCOME_PAIRS = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int8)


@dataclass(frozen=True, eq=False)
class DensityMatrix(ArrayValue):
    """4x4 two-qubit density matrix; Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = frozen_array(self.matrix, np.complex128, (4, 4), "density matrix")
        herm = float(np.abs(m - m.conj().T).max())
        if herm > HERMITIAN_TOL:
            raise DomainError(f"matrix is not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > TRACE_TOL:
            raise DomainError(f"trace must be 1, got {trace!r}")
        eigenvalues = np.linalg.eigvalsh(m)
        if float(eigenvalues.min()) < PSD_TOL:
            raise DomainError(
                f"matrix is not positive semidefinite: min eigenvalue {eigenvalues.min():.3e}"
            )
        object.__setattr__(self, "matrix", m)

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
    """The four setting angles (a1, a2, b1, b2), radians."""

    a1: float
    a2: float
    b1: float
    b2: float

    def __post_init__(self) -> None:
        frozen_array(self.as_tuple(), np.float64, (4,), "angles a1, a2, b1, b2")

    def alice(self, index: int) -> float:
        return self.a1 if index == 1 else self.a2

    def bob(self, index: int) -> float:
        return self.b1 if index == 1 else self.b2

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a1, self.a2, self.b1, self.b2)


TSIRELSON_ANGLES = AngleQuadruple(0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0)


def _effective_angle(angle: float, convention: Convention) -> float:
    if convention == "spin":
        return angle
    if convention == "photon":
        return 2.0 * angle
    raise ConfigError(f"unknown convention {convention!r}; use 'spin' or 'photon'")


def observable(angle: float, convention: Convention = "spin") -> np.ndarray:
    """cos(theta) sigma_z + sin(theta) sigma_x; photon convention doubles theta."""
    theta = _effective_angle(angle, convention)
    return math.cos(theta) * SIGMA_Z + math.sin(theta) * SIGMA_X


def expectation(
    rho: DensityMatrix,
    alice_angle: float,
    bob_angle: float,
    convention: Convention = "spin",
) -> float:
    """Tr(rho A(alice_angle) x B(bob_angle)); real, in [-1, 1]."""
    op = np.kron(observable(alice_angle, convention), observable(bob_angle, convention))
    value = complex(np.trace(rho.matrix @ op))
    if abs(value.imag) > 1e-12:
        raise DomainError(f"expectation has imaginary residue {value.imag:.3e}")
    return value.real


def born_probabilities(
    rho: DensityMatrix,
    alice_angle: float,
    bob_angle: float,
    convention: Convention = "spin",
) -> np.ndarray:
    """Outcome-pair probabilities over (+,+), (+,-), (-,+), (-,-)."""
    a = observable(alice_angle, convention)
    b = observable(bob_angle, convention)
    probs = np.empty(4)
    for k, (sa, sb) in enumerate(OUTCOME_PAIRS):
        projector = np.kron((IDENTITY_2 + sa * a) / 2.0, (IDENTITY_2 + sb * b) / 2.0)
        value = complex(np.trace(rho.matrix @ projector))
        if abs(value.imag) > 1e-12:
            raise DomainError(f"Born probability has imaginary residue {value.imag:.3e}")
        probs[k] = value.real
    if probs.min() < -1e-12 or abs(probs.sum() - 1.0) > 1e-12:
        raise DomainError(
            f"Born probabilities invalid: min {probs.min():.3e}, sum {probs.sum()!r}"
        )
    return probs


def s_quantum(
    rho: DensityMatrix, angles: AngleQuadruple, convention: Convention = "spin"
) -> float:
    """S = E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2) for the quantum coupling."""
    total = 0.0
    for sign, context in zip(CHSH_SIGNS, CANONICAL_CONTEXTS):
        total += sign * expectation(
            rho, angles.alice(context.alice), angles.bob(context.bob), convention
        )
    if abs(total) > TSIRELSON_BOUND + 1e-9:
        raise DomainError(f"|S| = {abs(total)!r} exceeds 2*sqrt(2); state is invalid")
    return total


def chsh_operator_diagnostic(
    rho: DensityMatrix, angles: AngleQuadruple, convention: Convention = "spin"
) -> float:
    """Tr(rho C) for the operator sum behind |<C>| = |S|; diagnostic only."""
    op = np.zeros((4, 4), dtype=np.complex128)
    for sign, context in zip(CHSH_SIGNS, CANONICAL_CONTEXTS):
        op += sign * np.kron(
            observable(angles.alice(context.alice), convention),
            observable(angles.bob(context.bob), convention),
        )
    return float(np.real(np.trace(rho.matrix @ op)))


def sample_bundle_quantum(
    rho: DensityMatrix,
    angles: AngleQuadruple,
    n_per_context: int,
    seed: int,
    convention: Convention = "spin",
) -> ExperimentBundle:
    """Per-context i.i.d. draws from the Born distribution; deterministic given seed."""
    from .behaviors import behavior_from_quantum, sample_bundle_from_behavior  # imports this module

    behavior = behavior_from_quantum(rho, angles, convention)
    return sample_bundle_from_behavior(behavior, n_per_context, seed, "quantum-context")


def correlation_block(rho: DensityMatrix) -> np.ndarray:
    """2x2 block T[p,q] = Tr(rho sigma_p x sigma_q) for p, q in (z, x).

    E(a, b) = [cos a, sin a] T [cos b, sin b]^T, which makes grid evaluation
    and exact per-coordinate maximization cheap.
    """
    block = np.empty((2, 2))
    for p, sp in enumerate((SIGMA_Z, SIGMA_X)):
        for q, sq in enumerate((SIGMA_Z, SIGMA_X)):
            block[p, q] = float(np.real(np.trace(rho.matrix @ np.kron(sp, sq))))
    return block


def _unit(angle: np.ndarray | float) -> np.ndarray:
    return np.stack([np.cos(angle), np.sin(angle)], axis=-1)


def _s_from_block(block: np.ndarray, a1: float, a2: float, b1: float, b2: float) -> float:
    na1, na2, nb1, nb2 = _unit(a1), _unit(a2), _unit(b1), _unit(b2)
    return float(na1 @ block @ (nb1 + nb2) + na2 @ block @ (nb1 - nb2))


def _coordinate_ascent(
    block: np.ndarray, start: tuple[float, float, float, float], iters: int
) -> tuple[tuple[float, float, float, float], float]:
    """Maximize S by exact single-angle updates; S is sinusoidal per coordinate."""
    a1, a2, b1, b2 = start
    best = _s_from_block(block, a1, a2, b1, b2)
    for _ in range(max(iters, 1)):
        v = block @ (_unit(b1) + _unit(b2))
        a1 = math.atan2(v[1], v[0])
        v = block @ (_unit(b1) - _unit(b2))
        a2 = math.atan2(v[1], v[0])
        v = (_unit(a1) + _unit(a2)) @ block
        b1 = math.atan2(v[1], v[0])
        v = (_unit(a1) - _unit(a2)) @ block
        b2 = math.atan2(v[1], v[0])
        value = _s_from_block(block, a1, a2, b1, b2)
        if value - best <= 1e-15:
            best = value
            break
        best = value
    return (a1, a2, b1, b2), best


def optimize_angles(
    rho: DensityMatrix, grid_points: int = 24, refine_iters: int = 64
) -> tuple[AngleQuadruple, float]:
    """Search setting angles maximizing |S|: coarse grid, then coordinate ascent.

    Each refinement step maximizes one angle exactly (S is a single sinusoid
    per coordinate), so convergence is fast and the result never exceeds
    2*sqrt(2) + 1e-9.
    """
    if grid_points < 8:
        raise ConfigError(f"grid_points must be >= 8, got {grid_points}")
    block = correlation_block(rho)
    grid = np.linspace(0.0, 2.0 * math.pi, grid_points, endpoint=False)
    units = _unit(grid)  # (g, 2)
    pair = units @ block @ units.T  # E on the grid: pair[i, j] = E(grid_i, grid_j)
    # S(a1, a2, b1, b2) = T1[a1, b1, b2] + T2[a2, b1, b2]; maximize each over its own axis.
    t1 = pair[:, :, None] + pair[:, None, :]
    t2 = pair[:, :, None] - pair[:, None, :]
    best_over_b: dict[float, tuple[float, float, float, float]] = {}
    for sign in (1.0, -1.0):
        top1 = (sign * t1).max(axis=0)
        arg1 = (sign * t1).argmax(axis=0)
        top2 = (sign * t2).max(axis=0)
        arg2 = (sign * t2).argmax(axis=0)
        total = top1 + top2
        flat = int(total.argmax())
        i_b1, i_b2 = np.unravel_index(flat, total.shape)
        start = (
            float(grid[arg1[i_b1, i_b2]]),
            float(grid[arg2[i_b1, i_b2]]),
            float(grid[i_b1]),
            float(grid[i_b2]),
        )
        # ascent on sign*block maximizes sign*S, so value is an |S| candidate
        angles, value = _coordinate_ascent(sign * block, start, refine_iters)
        best_over_b[value] = angles
    best_value = max(best_over_b)
    best_angles = AngleQuadruple(*best_over_b[best_value])
    if best_value > TSIRELSON_BOUND + 1e-9:
        raise DomainError(f"optimizer produced |S| = {best_value!r} beyond 2*sqrt(2)")
    return best_angles, best_value
