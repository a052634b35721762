"""Quantum and classical Fisher information for postselected phase estimation.

The symmetric logarithmic derivative (SLD) solves the Sylvester equation
(rho L + L rho)/2 = drho in the eigenbasis of rho, where it is diagonal; the
minimum-norm solution it gives handles rank-deficient (pure or filtered)
states without a special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    Generator,
    ZeroProbabilityError,
    _as_complex_matrix,
    _as_complex_stack,
    _first_bad,
    direction_projector,
    hermitian_part,
    make_filter,
    phase_unitary,
    ppa_generator,
)

__all__ = [
    "InconsistentDerivativeError",
    "DegenerateMeasurementError",
    "PurityError",
    "SLDResult",
    "MeasurementDirection",
    "PPAFamily",
    "survival_probability",
    "sld",
    "qfi_bloch",
    "qfi_ppa_theory",
    "qfi_postselected_pure",
    "optimal_measurement",
    "cfi",
    "sld_closed_form",
]


class InconsistentDerivativeError(ValueError):
    """drho has weight outside the reachable range of the Sylvester map."""


class DegenerateMeasurementError(ValueError):
    """A projective outcome with probability 0 or 1 carries no phase signal."""


class PurityError(ValueError):
    """Raised when a pure-state formula receives a mixed state."""


@dataclass(frozen=True)
class SLDResult:
    """SLD operator, the QFI it certifies, and the on-support defect norm."""

    lam: np.ndarray
    qfi: float
    residual: float


@dataclass(frozen=True)
class MeasurementDirection:
    """Projective qubit measurement axis, (polar, azimuth) in the analysis frame."""

    theta_opt: float
    phi_opt: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta_opt <= math.pi:
            raise ValueError("theta_opt must lie in [0, pi]")
        if not -math.pi <= self.phi_opt < math.pi:
            raise ValueError("phi_opt must lie in [-pi, pi)")

    def projector(self) -> np.ndarray:
        return direction_projector(self.theta_opt, self.phi_opt)


def survival_probability(theta: float, t_mag: float, v: float = 1.0) -> float:
    """Postselection probability |t|^2 cos^2(theta/2) + sin^2(theta/2).

    The optional visibility mixes in the filter's response to the maximally
    mixed state, (1 + |t|^2)/2.
    """
    c = math.cos(theta / 2.0) ** 2
    p_pure = t_mag**2 * c + (1.0 - c)
    return v * p_pure + (1.0 - v) * (1.0 + t_mag**2) / 2.0


def sld(rho: DensityMatrix, drho) -> SLDResult:
    """Solve (rho L + L rho)/2 = drho for the SLD L and report QFI = Tr(drho L).

    ``drho`` must be Hermitian with |trace| <= 1e-9.  With rho = V diag(lambda)
    V^dag, L = V (2 (V^dag drho V)_ij / (lambda_i + lambda_j)) V^dag on the
    pairs where either eigenvalue exceeds 1e-12 lambda_max, and 0 on the
    kernel-kernel block; a kernel block of drho with norm beyond 1e-6 is
    unreachable and raises :class:`InconsistentDerivativeError`.
    ``residual`` is the Frobenius norm of the defect projected onto the
    support of rho.
    """
    m = rho.mat
    dm = _as_complex_matrix(drho, "drho")
    if dm.shape != m.shape:
        raise ValueError("drho dimension does not match rho")
    if np.abs(dm - dm.conj().T).max() > 1e-8:
        raise ValueError("drho must be Hermitian")
    if abs(np.trace(dm)) > 1e-9:
        raise ValueError("drho must be traceless (trace-preserving family)")

    w, vecs = np.linalg.eigh(hermitian_part(m))
    on = w > 1e-12 * max(w.max(), 1e-300)
    d_eig = vecs.conj().T @ dm @ vecs
    if not on.all():
        kernel_norm = float(np.linalg.norm(d_eig[np.ix_(~on, ~on)]))
        if kernel_norm > 1e-6:
            raise InconsistentDerivativeError(
                f"drho has weight {kernel_norm:.3e} outside the support of rho"
            )
    pairs = on[:, None] | on[None, :]
    denom = np.where(pairs, w[:, None] + w[None, :], 1.0)
    lam_eig = np.where(pairs, 2.0 * d_eig / denom, 0.0)
    lam = hermitian_part(vecs @ lam_eig @ vecs.conj().T)

    defect = (m @ lam + lam @ m) / 2.0 - dm
    support = vecs[:, on]
    residual = float(np.linalg.norm(support.conj().T @ defect @ support))
    qfi = float(np.trace(dm @ lam).real)
    return SLDResult(lam=lam, qfi=max(qfi, 0.0), residual=residual)


def qfi_bloch(r, dr) -> float:
    """QFI of a qubit family at Bloch vector ``r`` with theta-derivative ``dr``.

    Inside the ball this is Tr(drho L) of :func:`sld` in closed form,
    F = |r'|^2 + (r . r')^2 / (1 - |r|^2).  On the sphere, where sld finds a
    kernel (the eigenvalue (1 - |r|)/2 at most 1e-12 times (1 + |r|)/2), the
    radial part of r' lies in the kernel: |r_hat . r'|/2 > 1e-6 raises
    :class:`InconsistentDerivativeError`, otherwise
    F = |r'_perp|^2 + (r_hat . r')^2 / 4.
    """
    r = np.asarray(r, dtype=float)
    dr = np.asarray(dr, dtype=float)
    rr = float(r @ r)
    n = math.sqrt(rr)
    if 1.0 - n > 1e-12 * (1.0 + n):
        return float(dr @ dr + (r @ dr) ** 2 / (1.0 - rr))
    radial = float(r @ dr) / n
    if abs(radial) / 2.0 > 1e-6:
        raise InconsistentDerivativeError(
            f"drho has weight {abs(radial) / 2.0:.3e} outside the support of rho"
        )
    return float(dr @ dr) - radial**2 + radial**2 / 4.0


@dataclass(frozen=True)
class PPAFamily:
    """theta-indexed family of postselected states for filter amplitude t.

    The input is v|0><0| + (1-v) 1/2 in the frame where the imprinted states
    are cos(theta/2)|0> + i sin(theta/2)|1>; the bench's vertical-input,
    theta - pi pipeline produces exactly the same family.  ``state`` returns
    the normalized postselected state, ``derivative`` its exact analytic
    theta-derivative (quotient rule through the normalization).
    """

    t: complex
    v: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < abs(complex(self.t)) <= 1.0 + 1e-12:
            raise ValueError("PPAFamily requires 0 < |t| <= 1")
        if not 0.0 < self.v <= 1.0:
            raise ValueError("visibility must lie in (0, 1]")
        object.__setattr__(self, "_k", make_filter(self.t))
        object.__setattr__(self, "_gen", ppa_generator())
        rho0 = self.v * np.diag([1.0, 0.0]).astype(complex) + (1.0 - self.v) * ID2 / 2
        object.__setattr__(self, "_rho0", rho0)

    def _unfiltered(self, theta: float) -> np.ndarray:
        u = phase_unitary(self._gen, theta)
        return u @ self._rho0 @ u.conj().T

    def unfiltered_state(self, theta: float) -> DensityMatrix:
        """The imprinted state before the filter acts."""
        return DensityMatrix(self._unfiltered(theta))

    def state(self, theta: float) -> DensityMatrix:
        k = self._k
        num = k @ self._unfiltered(theta) @ k.conj().T
        return DensityMatrix(num / np.trace(num).real)

    def derivative(self, theta: float) -> np.ndarray:
        k = self._k
        rho = self._unfiltered(theta)
        a = self._gen.mat
        drho = 1j * (a @ rho - rho @ a)
        num = k @ rho @ k.conj().T
        dnum = k @ drho @ k.conj().T
        p = np.trace(num).real
        dp = np.trace(dnum).real
        return hermitian_part(dnum / p - num * (dp / p**2))


def qfi_ppa_theory(theta: float, t_mag: float) -> float:
    """Ideal postselected QFI (|t| / p_ps)^2 for the pure family."""
    if not 0.0 < t_mag <= 1.0 + 1e-12:
        raise ValueError("qfi_ppa_theory requires 0 < t_mag <= 1")
    p = survival_probability(theta, t_mag)
    if p <= 0.0:
        raise ValueError("survival probability vanished")
    return (t_mag / p) ** 2


def qfi_postselected_pure(rho_theta: DensityMatrix, a: Generator, k_plus):
    """Postselected QFI 4/p Tr(A rho A M) - 4/p^2 |Tr(A rho M)|^2, M = K+^dag K+.

    ``rho_theta`` is the imprinted state *before* the filter acts (the
    normalization by p = Tr(rho M) happens inside the formula), and must be
    pure to 1e-8.  ``rho_theta`` and ``k_plus`` may carry leading batch
    axes, which broadcast; the result is a float, or an array over the batch
    axes, and each instance is checked for purity and for p > 1e-15 (a
    failure names the first failing instance).  The traces are taken in
    Kraus form, Tr(X M) = Tr(K+ X K+^dag), so M itself is never formed.
    Reduces to 4 Var(A) when K+ = 1, and gives exactly zero when the filter
    fully blocks the informative component (t = 0).
    """
    purity = rho_theta.purity()
    bad = np.abs(purity - 1.0) > 1e-8
    if bad.any():
        k, at = _first_bad(bad)
        raise PurityError(
            f"{at}state purity {purity[k]:.10f}; formula requires a pure state"
        )
    k_op = _as_complex_stack(k_plus, "K+")
    k_rho = k_op @ rho_theta.mat
    ka_rho = k_op @ a.mat @ rho_theta.mat
    # Tr(X Y^dag) as the sum of X * conj(Y) over the last two axes
    p = np.einsum("...ij,...ij->...", k_rho, k_op.conj()).real
    bad = p <= 1e-15
    if bad.any():
        _, at = _first_bad(bad)
        raise ZeroProbabilityError(f"{at}postselection probability vanished")
    term1 = np.einsum("...ij,...ij->...", ka_rho @ a.mat, k_op.conj()).real
    term2 = np.abs(np.einsum("...ij,...ij->...", ka_rho, k_op.conj())) ** 2
    return np.maximum(4.0 * term1 / p - 4.0 * term2 / p**2, 0.0)


def optimal_measurement(theta_prior: float, t: complex) -> MeasurementDirection:
    """QFI-achieving projective direction for the postselected qubit family.

    Polar angle from cot(theta_opt) = (1 + |t|^2)/(2|t|) * tan(theta_prior),
    azimuth arg(t); both independent of visibility.  t = 0 has no amplified
    family and raises.
    """
    t = complex(t)
    mag = abs(t)
    if not 0.0 < mag <= 1.0 + 1e-12:
        raise ValueError("optimal_measurement requires 0 < |t| <= 1")
    cot = (1.0 + mag**2) / (2.0 * mag) * math.tan(theta_prior)
    polar = math.pi / 2.0 - math.atan(cot)
    azimuth = math.atan2(t.imag, t.real)
    if azimuth >= math.pi:  # fold the branch point into [-pi, pi)
        azimuth = -math.pi
    return MeasurementDirection(theta_opt=polar, phi_opt=azimuth)


def cfi(direction: MeasurementDirection, family: PPAFamily, theta: float) -> float:
    """Classical Fisher information q'^2 / (q (1 - q)) of a projective qubit test.

    q' comes from the family's exact analytic ``derivative``.  Outcomes with
    q in {0, 1} (within 1e-12) raise :class:`DegenerateMeasurementError`.
    """
    proj = direction.projector()
    q = float(np.trace(family.state(theta).mat @ proj).real)
    if q < 1e-12 or q > 1.0 - 1e-12:
        raise DegenerateMeasurementError(
            f"outcome probability {q:.3e} carries no information"
        )
    dq = float(np.trace(family.derivative(theta) @ proj).real)
    return dq**2 / (q * (1.0 - q))


def sld_closed_form(theta: float, t: complex, v: float) -> np.ndarray:
    """Closed-form SLD of the visibility-v postselected family.

    -(v / p_ps) * [ (1-|t|^2)/2 sin(theta) 1
                    + cos(theta) (Re t sig_x^a + Im t sig_y^a)
                    + (1+|t|^2)/2 sin(theta) sig_z ]

    with the analysis-frame Paulis sig_x^a = -sigma_y, sig_y^a = +sigma_x
    and p_ps the visibility-v survival probability.  For v < 1 this equals
    :func:`sld` of the family exactly; at v = 1 it remains a valid SLD but
    differs from the minimum-norm solution by a kernel shift.
    """
    t = complex(t)
    mag = abs(t)
    if not 0.0 < mag <= 1.0 + 1e-12:
        raise ValueError("sld_closed_form requires 0 < |t| <= 1")
    if not 0.0 < v <= 1.0:
        raise ValueError("visibility must lie in (0, 1]")
    p = survival_probability(theta, mag, v=v)
    sig_x_a = -SIGMA_Y
    sig_y_a = SIGMA_X
    bracket = (
        (1.0 - mag**2) / 2.0 * math.sin(theta) * ID2
        + math.cos(theta) * (t.real * sig_x_a + t.imag * sig_y_a)
        + (1.0 + mag**2) / 2.0 * math.sin(theta) * SIGMA_Z
    )
    return -(v / p) * bracket
