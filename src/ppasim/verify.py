"""Randomized self-verification suites for the package's core identities.

Each suite draws seeded random instances, evaluates an exact identity, and
reports the worst residual against a fixed threshold.  The suites back the
``verify`` CLI subcommand and the acceptance tests:

* gap equality  — postselected QFI vs 4 (spread)^2 x quasiprobability gap,
  on qubit filter instances and on random qudit (d in 3..6) instances with
  degenerate generator spectra;
* marginalization — summing out any measurement of a random POVM sequence
  equals the quasidistribution of the shortened sequence;
* CFI = QFI    — the closed-form measurement direction attains the QFI for
  ideal and reduced visibility, and (for v < 1, where the SLD is unique)
  the SLD eigenbasis matches that direction;
* Sylvester residual — the SLD solve reproduces drho on the state's support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    PAULIS,
    DensityMatrix,
    Generator,
    direction_to_bloch,
    make_filter,
    ppa_generator,
    pure_state,
    psd_sqrt,
)
from .fisher import (
    PPAFamily,
    cfi,
    optimal_measurement,
    sld,
)
from .quasiprob import POVM, kd_distribution, verify_gap_equality

__all__ = [
    "SuiteResult",
    "axis_angle",
    "sld_axis",
    "random_qubit_instances",
    "random_qudit_instance",
    "gap_equality_suite",
    "marginalization_suite",
    "cfi_qfi_suite",
    "sylvester_suite",
    "run_all",
]

# Acceptance grid shared by the Fisher-consistency checks.
THETA_GRID = (0.02, 0.04, 0.1, 0.2, 0.5, 1.0, 1.5)
T_GRID = (0.044, 0.082, 0.15, 0.3, 0.5, 1.0)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    n_instances: int
    max_residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.threshold

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{self.name}] n={self.n_instances} max_residual={self.max_residual:.3e} "
            f"threshold={self.threshold:.1e} {status}"
        )


def axis_angle(u, w) -> float:
    """Angle between two axes (sign-insensitive), stable at small angles.

    Uses atan2 of the cross and dot products; an arccos of the inner product
    loses everything below ~1e-8 to rounding, which matters at the 1e-8
    tolerances used here.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    u = u / np.linalg.norm(u)
    w = w / np.linalg.norm(w)
    if np.dot(u, w) < 0:
        w = -w
    return math.atan2(np.linalg.norm(np.cross(u, w)), float(np.dot(u, w)))


def sld_axis(lam: np.ndarray) -> np.ndarray:
    """Bloch axis (standard coords) of a qubit SLD's traceless part."""
    vec = np.array([float(np.trace(lam @ s).real) for s in PAULIS])
    n = np.linalg.norm(vec)
    if n < 1e-12:
        raise ValueError("SLD has no traceless part; the axis is undefined")
    return vec / n


def random_qubit_instances(rng: np.random.Generator, n: int):
    """n random filter-scheme instances: pure states, sigma_x/2 generator, filters.

    One ``uniform`` call draws (theta, |t|, arg t) per instance, row by
    row, so the draws and the stream position are those of 3n scalar
    calls.  Returns a stack of n states e^{i theta A}|0>, the shared
    generator and a stack of n filters.
    """
    draws = rng.uniform([0.01, 0.01, 0.0], [3.1, 1.0, 2.0 * math.pi], size=(n, 3))
    theta, mag, phase = draws.T
    gen = ppa_generator()
    # e^{i theta A}|0> = sum_k e^{i theta a_k} P_k |0>
    phases = np.exp(1j * theta[:, None] * gen.eigenvalues)
    rho = pure_state((phases[:, :, None] * np.stack(gen.projectors)[:, :, 0]).sum(1))
    return rho, gen, make_filter(mag * np.exp(1j * phase))


def random_qudit_instance(rng: np.random.Generator):
    """Random d-level instance satisfying the identity's preconditions exactly.

    The generator gets integer eigenvalues in [-3, 3] (distinct extremes,
    possibly degenerate middle), the state is a random superposition of the
    extreme eigenvectors, and the filter's pass element is built by a
    diagonal congruence that balances it between the two supported
    eigenspaces before being rescaled to a contraction.
    """
    d = int(rng.integers(3, 7))
    # Haar-ish random orthonormal frame for the generator.
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(z)
    lo, hi = -3, 3
    middle = rng.integers(lo, hi + 1, size=d - 2)
    eigs = np.sort(np.concatenate(([lo], middle, [hi])))
    gen = Generator.from_matrix((q * eigs) @ q.conj().T)

    v_lo = q[:, 0]
    v_hi = q[:, -1]
    amp = rng.uniform(0.2, 0.8)
    rel = rng.uniform(0.0, 2.0 * math.pi)
    psi = math.sqrt(amp) * v_lo + math.sqrt(1.0 - amp) * np.exp(1j * rel) * v_hi
    rho = pure_state(psi)

    # Random PSD contraction, then congruence by diag(s, 1, ..., 1, 1/s) in a
    # basis whose first/last vectors are the supported eigenvectors; this
    # equalizes <v_lo|M|v_lo>-type weights exactly without changing PSD-ness.
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = x @ x.conj().T
    basis = np.column_stack(
        [v_lo] + [q[:, i] for i in range(1, d - 1)] + [v_hi]
    )
    mb = basis.conj().T @ m @ basis
    w_lo = (abs(psi @ basis[:, 0].conj()) ** 2) * mb[0, 0].real
    w_hi = (abs(psi @ basis[:, -1].conj()) ** 2) * mb[-1, -1].real
    scale = np.ones(d)
    # choose s so that |<psi|v_lo>|^2 M_00 s^2 = |<psi|v_hi>|^2 M_dd / s^2
    s = (w_hi / w_lo) ** 0.25
    scale[0] = s
    scale[-1] = 1.0 / s
    mb = (scale[:, None] * mb) * scale[None, :]
    m = basis @ mb @ basis.conj().T
    m = (m + m.conj().T) / 2
    top = np.linalg.eigvalsh(m).max()
    m = m * (rng.uniform(0.3, 1.0) / top)
    k_plus = psd_sqrt(m)
    return rho, gen, k_plus


def gap_equality_suite(
    seed: int, n_qubit: int = 1000, n_qudit: int = 200
) -> SuiteResult:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    rho, gen, k = random_qubit_instances(rng, n_qubit)
    worst = float(verify_gap_equality(rho, gen, k).residual.max(initial=0.0))
    for _ in range(n_qudit):
        rho, gen, k = random_qudit_instance(rng)
        worst = max(worst, verify_gap_equality(rho, gen, k).residual)
    return SuiteResult(
        name="gap-equality",
        n_instances=n_qubit + n_qudit,
        max_residual=worst,
        threshold=1e-9,
    )


def _random_povm(rng: np.random.Generator, d: int, n_out: int) -> POVM:
    raw = []
    for _ in range(n_out):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        raw.append(x @ x.conj().T)
    total = sum(raw)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    elems = tuple(inv_sqrt @ g @ inv_sqrt for g in raw)
    return POVM(elems)


def _random_density(rng: np.random.Generator, d: int) -> DensityMatrix:
    probs = rng.dirichlet(np.ones(d))
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(z)
    return DensityMatrix((q * probs) @ q.conj().T)


def marginalization_suite(seed: int, n_instances: int = 200) -> SuiteResult:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    worst = 0.0
    for _ in range(n_instances):
        d = int(rng.integers(2, 5))
        rho = _random_density(rng, d)
        povms = tuple(
            _random_povm(rng, d, int(rng.integers(2, 4))) for _ in range(3)
        )
        kd = kd_distribution(rho, povms)
        for idx in range(3):
            direct = kd_distribution(rho, povms[:idx] + povms[idx + 1 :])
            diff = np.abs(kd.sum(axis=idx) - direct).max()
            worst = max(worst, float(diff))
    return SuiteResult(
        name="marginalization",
        n_instances=n_instances,
        max_residual=worst,
        threshold=1e-12,
    )


def cfi_qfi_suite() -> SuiteResult:
    """Closed-form direction attains the QFI; SLD axis matches it at v < 1.

    Deterministic over the acceptance grid.
    """
    worst = 0.0
    count = 0
    for v in (1.0, 0.98):
        for theta in THETA_GRID:
            for t in T_GRID:
                family = PPAFamily(t=t, v=v)
                direction = optimal_measurement(theta, t)
                rho = family.state(theta)
                res = sld(rho, family.derivative(theta))
                classical = cfi(direction, family, theta)
                worst = max(worst, abs(classical - res.qfi) / res.qfi)
                if v < 1.0:
                    ang = axis_angle(
                        sld_axis(res.lam),
                        direction_to_bloch(direction.theta_opt, direction.phi_opt),
                    )
                    worst = max(worst, ang)
                count += 1
    return SuiteResult(
        name="cfi-equals-qfi",
        n_instances=count,
        max_residual=worst,
        threshold=1e-8,
    )


def sylvester_suite(seed: int, n_instances: int = 100) -> SuiteResult:
    """SLD defect on the support, over the grid family and random mixed states."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    worst = 0.0
    count = 0
    for v in (1.0, 0.98):
        for theta in THETA_GRID:
            for t in T_GRID:
                family = PPAFamily(t=t, v=v)
                res = sld(family.state(theta), family.derivative(theta))
                worst = max(worst, res.residual)
                count += 1
    for _ in range(n_instances):
        d = int(rng.integers(2, 5))
        rho = _random_density(rng, d)
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (h + h.conj().T) / 2
        drho = 1j * (h @ rho.mat - rho.mat @ h)  # any Hamiltonian family
        res = sld(rho, drho)
        worst = max(worst, res.residual)
        count += 1
    return SuiteResult(
        name="sylvester-residual",
        n_instances=count,
        max_residual=worst,
        threshold=1e-8,
    )


def run_all(seed: int = 0, n_instances: int | None = None) -> list[SuiteResult]:
    """Run all four suites; ``n_instances`` scales the randomized ones."""
    n_qubit = 1000 if n_instances is None else max(n_instances, 1)
    n_qudit = 200 if n_instances is None else max(n_instances // 5, 1)
    n_marg = 200 if n_instances is None else max(n_instances // 5, 1)
    n_sylv = 100 if n_instances is None else max(n_instances // 10, 1)
    return [
        gap_equality_suite(seed, n_qubit=n_qubit, n_qudit=n_qudit),
        marginalization_suite(seed, n_instances=n_marg),
        cfi_qfi_suite(),
        sylvester_suite(seed, n_instances=n_sylv),
    ]
