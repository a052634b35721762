"""Qubit state tomography and the empirical information pipeline built on it.

Tomography samples the three Pauli expectations with a finite shot budget,
linearly inverts them (unbiased in the expectations), and projects the result
back to the physical set by clipping negative eigenvalues and renormalizing.
Downstream helpers turn tomographic estimates into numerical
theta-derivatives (whose Fisher information :func:`ppasim.fisher.sld` gives)
and conditional quasiprobability tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    DensityMatrix,
    PAULIS,
    ZeroProbabilityError,
    bloch_vector,
    hermitian_part,
)
from .quasiprob import condition, kd_distribution, ppa_povm_sequence

__all__ = [
    "TomographyResult",
    "simulate_tomography",
    "rho_derivative",
    "kd_from_tomography",
]

DEFAULT_DTHETA = 0.035


@dataclass(frozen=True)
class TomographyResult:
    """Estimated state, sampled Pauli expectations, and plus-counts per basis."""

    rho_est: DensityMatrix
    expectations: tuple[float, float, float]
    counts_per_basis: tuple[int, int, int]


def simulate_tomography(
    rho_true: DensityMatrix,
    shots_per_basis: int | None,
    rng: np.random.Generator | None = None,
) -> TomographyResult:
    """Sample Pauli-basis measurements of a qubit and reconstruct the state.

    Each basis uses its own ``shots_per_basis`` binomial draw; pass ``None``
    for the infinite-shot limit (exact expectations, zero counts).  The
    reconstruction clips negative eigenvalues of the linear inversion and
    renormalizes, so ``rho_est`` is always a valid state while
    ``expectations`` keep the raw, unbiased sampled values.
    """
    if rho_true.dim != 2:
        raise ValueError("tomography is implemented for qubits")
    r = bloch_vector(rho_true)
    if shots_per_basis is None:
        expectations = tuple(float(x) for x in r)
        counts = (0, 0, 0)
    else:
        shots = int(shots_per_basis)
        if shots < 1:
            raise ValueError("shots_per_basis must be >= 1 (or None for analytic)")
        if rng is None:
            raise ValueError("finite-shot tomography needs an RNG stream")
        ups = [int(rng.binomial(shots, (1.0 + x) / 2.0)) for x in r]
        expectations = tuple(2.0 * u / shots - 1.0 for u in ups)
        counts = tuple(ups)
    raw = (
        np.eye(2, dtype=complex)
        + sum(e * s for e, s in zip(expectations, PAULIS))
    ) / 2.0
    w, v = np.linalg.eigh(hermitian_part(raw))
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    rho_est = DensityMatrix((v * w) @ v.conj().T)
    return TomographyResult(
        rho_est=rho_est, expectations=expectations, counts_per_basis=counts
    )


def rho_derivative(
    rho_minus: DensityMatrix, rho_plus: DensityMatrix, dtheta: float = DEFAULT_DTHETA
) -> np.ndarray:
    """Central-difference derivative (rho_plus - rho_minus) / (2 dtheta).

    The result is Hermitian and exactly traceless, with O(dtheta^2)
    discretization error.
    """
    if dtheta <= 0:
        raise ValueError("dtheta must be positive")
    if rho_minus.dim != rho_plus.dim:
        raise ValueError("the two states must share a dimension")
    return hermitian_part((rho_plus.mat - rho_minus.mat) / (2.0 * dtheta))


def kd_from_tomography(rho_unpostselected_est: DensityMatrix, t: complex) -> np.ndarray:
    """Conditional quasiprobability table from an estimate of the unfiltered state.

    Builds the (A-basis, filter(t), A-basis) quasidistribution of the
    estimated state, conditions on the filter passing, and returns the
    read-only 2x2 complex table over (a, a').  Requires the estimated
    survival probability to exceed 1e-12.
    """
    kd = kd_distribution(rho_unpostselected_est, ppa_povm_sequence(t))
    p_pass = kd.sum(axis=(0, 2))[0]
    if p_pass.real < 1e-12:
        raise ZeroProbabilityError(
            f"estimated survival probability {p_pass.real:.3e} too small"
        )
    return condition(kd, 1, 0)
