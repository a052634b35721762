"""Quantum and classical Fisher information for postselected phase estimation.

The symmetric logarithmic derivative (SLD) solves the Sylvester equation
(rho L + L rho)/2 = drho in the eigenbasis of rho, where it is diagonal; the
minimum-norm solution it gives handles rank-deficient (pure or filtered)
states without a special case.  A qubit read-out is the projective test
(1 + n . sigma)/2 along a unit Bloch vector n.

The closed forms of the PPA family (:func:`survival_probability`,
:func:`qfi_ppa_family`, ``bench.postselected_bloch``,
``bench.systematic_shift_t``, ``quasiprob.kd_table_closed_form``,
``quasiprob.gap4_ppa_family``) share one rule: scalars give a float; arrays
broadcast together, to the per-point values bit for bit (squares are
products: NumPy's scalar ``**`` calls ``pow``); a value left undefined, as
where nothing survives the filter, is nan; an invalid entry raises
ValueError through ``states._reject``, which names its first instance.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .states import (
    ID2,
    PAULIS,
    DensityMatrix,
    Generator,
    _as_complex_stack,
    _built,
    _ReadOnly,
    _reject,
    _reject_amplitude,
    hermitian_part,
    make_filter,
    phase_unitary,
    ppa_generator,
)

__all__ = [
    "SLDResult",
    "PPAFamily",
    "survival_probability",
    "sld",
    "qfi_bloch",
    "qfi_ppa_family",
    "qfi_postselected_pure",
    "optimal_measurement",
    "cfi",
    "ZERO_PROBABILITY",
]

ZERO_PROBABILITY = 1e-15  # a survival probability at or below it conditions nothing


class SLDResult(NamedTuple):
    """SLD operator, the QFI it certifies, and the on-support defect norm
    (``qfi`` and ``residual`` are arrays over the batch axes of a stack)."""

    lam: np.ndarray
    qfi: float | np.ndarray
    residual: float | np.ndarray


def survival_probability(t_mag, w):
    """Probability p = |t|^2 + (1 - |t|^2) w that a photon passes the filter.

    ``w`` = (1 - z)/2 is the |1> population of the unfiltered state with
    Bloch z-component z: K+ = diag(t, 1) passes |0> with probability |t|^2
    and |1> always.  The imprinted pure state of phase theta has
    w = sin^2(theta/2), and at visibility v, w = (1 - v)/2 + v sin^2(theta/2).
    Given w, the sum has no cancellation, unlike the form
    |t|^2 cos^2(theta/2) + sin^2(theta/2), whose 1 - cos^2(theta/2) loses
    digits at small theta.
    """
    t2 = t_mag * t_mag
    return t2 + (1.0 - t2) * w


def sld(rho: DensityMatrix, drho) -> SLDResult:
    """Solve (rho L + L rho)/2 = drho for the SLD L and report QFI = Tr(drho L).

    ``drho`` must be Hermitian to 1e-8 with |trace| <= 1e-9.  With rho =
    V diag(lambda) V^dag, L = V (2 (V^dag drho V)_ij / (lambda_i +
    lambda_j)) V^dag on the pairs where either eigenvalue exceeds 1e-12
    lambda_max, and 0 on the kernel-kernel block; a kernel block of drho
    with norm beyond 1e-6 is unreachable and raises ValueError.
    ``residual`` is the Frobenius norm of the defect projected onto the
    support of rho.  ``rho`` and ``drho`` may be (..., d, d) stacks, solved
    by one batched ``eigh``, with every check per instance; a failure names
    the first failing instance.
    """
    m = rho.mat
    dm = _as_complex_stack(drho, "drho")
    if dm.shape != m.shape:
        raise ValueError("drho dimension does not match rho")
    dev = np.abs(dm - dm.conj().swapaxes(-1, -2)).max((-2, -1), initial=0.0)
    _reject(dev > 1e-8, "drho must be Hermitian")
    tr = np.abs(dm.trace(0, -2, -1))
    _reject(tr > 1e-9, "drho must be traceless (trace-preserving family)")
    w, vecs = np.linalg.eigh(hermitian_part(m))
    # eigh sorts ascending, so w[..., -1:] is the largest eigenvalue
    on = w > 1e-12 * np.maximum(w[..., -1:], 1e-300)
    vecs_h = vecs.conj().swapaxes(-1, -2)
    d_eig = vecs_h @ dm @ vecs
    pairs = on[..., :, None] | on[..., None, :]
    if not on.all():
        kernel_norm = np.sqrt((np.abs(np.where(pairs, 0.0, d_eig)) ** 2).sum((-2, -1)))
        _reject(
            kernel_norm > 1e-6,
            "drho has weight {:.3e} outside the support of rho", kernel_norm,
        )
    denom = np.where(pairs, w[..., :, None] + w[..., None, :], 1.0)
    lam_eig = np.where(pairs, 2.0 * d_eig / denom, 0.0)
    lam = hermitian_part(vecs @ lam_eig @ vecs_h)
    # the defect in the eigenbasis of rho, kept on the support-support block
    defect = vecs_h @ ((m @ lam + lam @ m) / 2.0 - dm) @ vecs
    support = on[..., :, None] & on[..., None, :]
    residual = np.sqrt((np.abs(np.where(support, defect, 0.0)) ** 2).sum((-2, -1)))
    qfi = np.maximum((dm @ lam).trace(0, -2, -1).real, 0.0)
    if qfi.ndim == 0:
        return SLDResult(lam=lam, qfi=float(qfi), residual=float(residual))
    return SLDResult(lam=lam, qfi=qfi, residual=residual)


def _on_sphere(rr):  # |r| and the mask where sld finds a kernel, of |r|^2 = rr
    n = np.sqrt(rr)
    return n, 1.0 - n <= 1e-12 * (1.0 + n)


def qfi_bloch(r, dr):
    """QFI of a qubit family at Bloch vector ``r`` with theta-derivative ``dr``.

    Inside the ball this is Tr(drho L) of :func:`sld` in closed form,
    F = |r'|^2 + (r . r')^2 / (1 - |r|^2).  On the sphere (:func:`_on_sphere`)
    the radial part of r' lies in the kernel: |r_hat . r'|/2 > 1e-6 raises
    ValueError, otherwise F = |r'_perp|^2 + (r_hat . r')^2 / 4.  ``r`` and
    ``dr`` may be (..., 3) stacks; the result is a float for one vector and
    an array over the batch axes otherwise, and a failure names the first
    failing instance.
    """
    r, dr = np.asarray(r, dtype=float), np.asarray(dr, dtype=float)
    rr = np.add.reduce(r * r, -1)
    r_dr = np.add.reduce(r * dr, -1)
    dr_dr = np.add.reduce(dr * dr, -1)
    norm, sphere = _on_sphere(rr)
    radial = r_dr / np.where(sphere, norm, 1.0)
    weight = np.abs(radial) / 2.0
    _reject(
        sphere & (weight > 1e-6),
        "drho has weight {:.3e} outside the support of rho", weight,
    )
    qfi = np.where(
        sphere,
        dr_dr - radial * radial + radial * radial / 4.0,
        dr_dr + r_dr * r_dr / np.where(sphere, 1.0, 1.0 - rr),
    )
    return float(qfi) if qfi.ndim == 0 else qfi


_KET0_BRA0 = np.diag([1.0, 0.0]).astype(complex)


class PPAFamily(_ReadOnly):
    """theta-indexed family of postselected states for filter amplitude t.

    The input is v|0><0| + (1-v) 1/2 in the frame where the imprinted states
    are cos(theta/2)|0> + i sin(theta/2)|1>; the bench's vertical-input,
    theta - pi pipeline produces exactly the same family.  ``state`` returns
    the normalized postselected state, ``derivative`` its exact analytic
    theta-derivative (quotient rule through the normalization);
    ``state_and_derivative`` returns both from one evaluation.  ``t``,
    ``v`` and ``theta`` may be arrays that broadcast to the batch axes of
    the (..., 2, 2) results; a bad t or v, or a theta at which no photon
    survives (or which is not finite), names its first instance.
    """

    __slots__ = ("t", "v", "_k", "_gen", "_rho0")

    def __init__(self, t: complex, v: float = 1.0) -> None:
        _reject_amplitude(np.abs(t), "PPAFamily requires 0 < |t| <= 1")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "v", v)
        v = np.asarray(v, dtype=float)
        _reject(~((0.0 < v) & (v <= 1.0)), "visibility must lie in (0, 1]")
        object.__setattr__(self, "_k", make_filter(t))
        object.__setattr__(self, "_gen", ppa_generator())
        v = v[..., None, None]
        object.__setattr__(self, "_rho0", v * _KET0_BRA0 + (1.0 - v) * ID2 / 2)

    def state(self, theta) -> DensityMatrix:
        return self.state_and_derivative(theta)[0]

    def derivative(self, theta) -> np.ndarray:
        return self.state_and_derivative(theta)[1]

    def state_and_derivative(self, theta) -> tuple[DensityMatrix, np.ndarray]:
        k = self._k
        k_h = k.conj().swapaxes(-1, -2)
        u = phase_unitary(self._gen, theta)
        rho = u @ self._rho0 @ u.conj().swapaxes(-1, -2)
        a = self._gen.mat
        drho = 1j * (a @ rho - rho @ a)
        num = k @ rho @ k_h
        dnum = k @ drho @ k_h
        p = num.trace(0, -2, -1).real
        _reject(~(p > 0.0), "survival probability {:.3e} leaves no state", p)
        p = p[..., None, None]
        dp = dnum.trace(0, -2, -1).real[..., None, None]
        # t, v checked in __init__: K rho K^dag / p is a state by construction
        state = _built(DensityMatrix, mat=num / p)
        return state, hermitian_part(dnum / p - num * (dp / p**2))


def qfi_ppa_family(theta, t_mag, v=1.0):
    """QFI (v |t| / p)^2 of :class:`PPAFamily` (``t_mag``, ``v``) at ``theta``.

    A qubit family with Bloch vector r has F = |r'|^2 + (r . r')^2 / (1 - |r|^2)
    (Zhong, Sun, Ma, Wang & Nori, PRA 87, 022337, 2013).  With T = |t|^2,
    A = 1 + T, B = 1 - T and p = (A - v B cos theta)/2 the survival probability,
    1 - |r|^2 = T (1 - v^2) / p^2 and r . r' = T (1 - v^2) p' / p^3, so

        F = T / (4 p^4) [(v cos theta A - v^2 B)^2 + v^2 sin^2 theta (A^2 - v^2 B^2)]
          = T v^2 / (4 p^4) [A^2 - 2 v cos theta A B + v^2 B^2 (1 - sin^2 theta)]
          = T v^2 / (4 p^4) (A - v B cos theta)^2 = T v^2 4 p^2 / (4 p^4) = (v |t| / p)^2.

    At v = 1, the ideal theory (|t| / p)^2, the bracket cancels at small theta
    and the square does not.  nan where p underflows to 0 or F overflows.
    """
    _reject_amplitude(t_mag, "qfi_ppa_family requires 0 < t_mag <= 1")
    _reject(~np.logical_and(0.0 < v, v <= 1.0), "visibility must lie in (0, 1]")
    p = survival_probability(t_mag, (1.0 - v) / 2.0 + v * np.square(np.sin(theta / 2.0)))
    with np.errstate(divide="ignore", over="ignore"):
        qfi = np.square(v * t_mag / p)
    return np.where(qfi < math.inf, qfi, math.nan)[()]


def qfi_postselected_pure(rho_theta: DensityMatrix, a: Generator, k_plus):
    """Postselected QFI 4/p Tr(A rho A M) - 4/p^2 |Tr(A rho M)|^2, M = K+^dag K+.

    ``rho_theta`` is the imprinted state *before* the filter acts (the
    normalization by p = Tr(rho M) happens inside the formula), and must be
    pure to 1e-8.  ``rho_theta`` and ``k_plus`` may carry leading batch
    axes, which broadcast; the result is a float, or an array over the batch
    axes, and each instance is checked for purity and for p > ZERO_PROBABILITY
    (a failure raises ValueError naming the first failing instance).  The
    traces are taken in Kraus form, Tr(X M) = Tr(K+ X K+^dag), so M itself is
    never formed.
    Reduces to 4 Var(A) when K+ = 1, and gives exactly zero when the filter
    fully blocks the informative component (t = 0).
    """
    purity = rho_theta.purity()
    _reject(
        np.abs(purity - 1.0) > 1e-8,
        "state purity {:.10f}; formula requires a pure state", purity,
    )
    k_op = _as_complex_stack(k_plus, "K+")
    k_rho = k_op @ rho_theta.mat
    ka_rho = k_op @ a.mat @ rho_theta.mat
    # Tr(X Y^dag) as the sum of X * conj(Y) over the last two axes
    k_conj = k_op.conj()
    p = np.einsum("...ij,...ij->...", k_rho, k_conj).real
    _reject(p <= ZERO_PROBABILITY, "postselection probability vanished")
    term1 = np.einsum("...ij,...ij->...", ka_rho @ a.mat, k_conj).real
    term2 = np.square(np.abs(np.einsum("...ij,...ij->...", ka_rho, k_conj)))
    return np.maximum(4.0 * term1 / p - 4.0 * term2 / (p * p), 0.0)


def optimal_measurement(theta_prior, t) -> np.ndarray:
    """Unit Bloch vector n of the +1 outcome of the QFI-achieving projective test.

    n = (s sin az, -s cos az, cos polar) with s = sin polar, where
    cot(polar) = (1 + |t|^2)/(2|t|) * tan(theta_prior) and az = arg(t); n is
    independent of visibility, and for real t > 0 it lies in the y-z plane.
    t = 0 has no amplified family and raises; arrays give a (..., 3) stack.
    """
    mag = np.abs(t)
    _reject_amplitude(mag, "optimal_measurement requires 0 < |t| <= 1")
    cot = (1.0 + mag * mag) / (2.0 * mag) * np.tan(theta_prior)
    polar = math.pi / 2.0 - np.arctan(cot)
    azimuth = np.angle(t)
    s = np.sin(polar)
    return np.stack([s * np.sin(azimuth), -(s * np.cos(azimuth)), np.cos(polar)], -1)


def cfi(n, family: PPAFamily, theta):
    """Classical Fisher information q'^2 / (q (1 - q)) of a projective qubit test.

    The test projects onto (1 + n . sigma)/2, the +1 outcome along the unit
    Bloch vector ``n``; a (..., 3) stack of vectors broadcasts with the
    family and ``theta``.  q' comes from the family's exact analytic
    ``derivative``.  Outcomes with q in {0, 1} (within 1e-12) raise
    ValueError, naming the first failing instance.
    """
    proj = (ID2 + np.einsum("...k,kij->...ij", np.asarray(n, dtype=float), PAULIS)) / 2
    rho, drho = family.state_and_derivative(theta)
    q = (rho.mat @ proj).trace(0, -2, -1).real
    _reject(
        (q < 1e-12) | (q > 1.0 - 1e-12),
        "outcome probability {:.3e} carries no information", q,
    )
    dq = (drho @ proj).trace(0, -2, -1).real
    info = dq * dq / (q * (1.0 - q))
    return float(info) if info.ndim == 0 else info
