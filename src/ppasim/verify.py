"""Randomized self-verification suites for the package's core identities.

Each suite draws seeded random instances, evaluates an exact identity, and
reports the worst residual against a fixed threshold; a nan residual, no
instance or a ValueError raised on the way fails it (:func:`_fold`).  The
suites back the ``verify`` CLI subcommand and the acceptance tests:

* gap equality  — postselected QFI vs 4 (spread)^2 x quasiprobability gap,
  on qubit filter instances and on random qudit (d in 3..6) instances with
  degenerate generator spectra;
* marginalization — summing out any measurement of a random POVM sequence
  equals the quasidistribution of the shortened sequence;
* CFI = QFI    — the closed-form measurement direction attains the QFI for
  ideal and reduced visibility, and (for v < 1, where the SLD is unique)
  the SLD eigenbasis matches that direction;
* Sylvester residual — the SLD solve reproduces drho on the state's support.

Every random suite draws its instances as arrays, each d (where d varies)
and then each parameter per d in one call, and builds and evaluates them
in runs of one d that hold as many d x d matrix entries as ``MAX_BATCH``
six-level instances: ``MAX_BATCH * 36 // d**2`` rows, so 1152 qubits, 512
qutrits, 288, 184 or 128 instances of d = 4, 5 or 6.  So each evaluated run
is bounded for any count, but the draws are made up front and grow with it.
``random_qudit_instances`` and ``random_marginalization_instances``
make every draw when called and build each batch when their iterator
reaches it, which yields it with the instances' positions in the draw, in
ascending d.  The 84 grid states of the CFI = QFI and Sylvester suites are
one ``ppa_family`` evaluation and one ``sld`` call, made once per process
and shared by both suites.  The random states, generators and POVMs are
plain arrays, valid by construction, so nothing checks them when they are
made; each builder says why they are valid.
"""

from __future__ import annotations

import functools
import math
import numbers
from itertools import chain
from typing import NamedTuple

import numpy as np

from .states import (
    PAULIS,
    _mm,
    _reject,
    _spectral_sqrt,
    hermitian_part,
    make_filter,
    phase_unitary,
    ppa_generator,
    pure_state,
)
from .fisher import cfi, optimal_measurement, ppa_family, sld
from .quasiprob import kd_distribution, verify_gap_equality
from .bench import rng_stream

__all__ = [
    "SuiteResult",
    "axis_angle",
    "sld_axis",
    "random_qudit_instances",
    "random_marginalization_instances",
    "gap_equality_suite",
    "marginalization_suite",
    "cfi_qfi_suite",
    "sylvester_suite",
    "check_run",
    "suites",
    "run_all",
]

# Six-level instances in one run; a d-level run has MAX_BATCH * 36 // d**2
# rows, as many matrix entries.  Per tracemalloc, verify_gap_equality peaks
# at 1.43 MiB on a 6-level run of 128 and 0.81 MiB on 1152 qubits, and
# gap_equality_suite on 20 000 qubits at 1.58 MiB.
MAX_BATCH = 128

# Acceptance grid shared by the Fisher-consistency checks; also the default
# grid of the sweep, kd and fig4 commands.
THETA_GRID = (0.02, 0.04, 0.1, 0.2, 0.5, 1.0, 1.5)
T_GRID = (0.044, 0.082, 0.15, 0.3, 0.5, 1.0)
_GRID_STATES = 2 * len(THETA_GRID) * len(T_GRID)  # (1, 0.98) x THETA_GRID x T_GRID


class SuiteResult(NamedTuple):
    name: str
    n_instances: int
    max_residual: float
    threshold: float
    error: str = ""  # "<type>: <message>" of a suite that raised

    @property
    def passed(self) -> bool:
        return not self.error and self.max_residual <= self.threshold

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if self.error:  # no instance was checked
            return f"[{self.name}] n={self.n_instances} raised {self.error} {status}"
        return (
            f"[{self.name}] n={self.n_instances} max_residual={self.max_residual:.3e} "
            f"threshold={self.threshold:.1e} {status}"
        )


def _fold(name: str, n: int, threshold: float, residuals) -> SuiteResult:
    """Suite ``name`` of ``n`` instances: the largest entry, by ``np.max`` so a nan
    fails, of the arrays ``residuals`` yields, nan (a FAIL) if none; a ValueError
    raised while they are made fails the suite alone, naming the error."""
    try:
        worst = [np.max(r) for r in residuals]
    except ValueError as exc:
        return SuiteResult(name, 0, math.nan, math.nan, f"{type(exc).__name__}: {exc}")
    return SuiteResult(name, n, float(np.max(worst)) if worst else math.nan, threshold)


def axis_angle(u, w):
    """Angle between two axes (sign-insensitive), stable at small angles.

    Uses atan2 of the cross and dot products; an arccos of the inner product
    loses everything below ~1e-8 to rounding, which matters at the 1e-8
    tolerances used here.  ``u`` and ``w`` may be (..., 3) stacks.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    # scale-free; flipping w flips the sign of both products, so take |u . w|
    ang = np.arctan2(np.linalg.norm(np.cross(u, w), axis=-1), np.abs((u * w).sum(-1)))
    return float(ang) if ang.ndim == 0 else ang


def sld_axis(lam: np.ndarray) -> np.ndarray:
    """Bloch axis (standard coords) of a qubit SLD's traceless part, or (..., 3) axes."""
    vec = np.stack([_mm(lam, s).trace(0, -2, -1).real for s in PAULIS], -1)
    n = np.linalg.norm(vec, axis=-1, keepdims=True)
    _reject(n[..., 0] < 1e-12, "SLD has no traceless part; the axis is undefined")
    return vec / n


def _qubit_draws(rng: np.random.Generator, n: int) -> list:
    """Every instance's (theta, |t|, arg t) in one ``uniform`` call, row by row, as
    3n scalar calls would: one d = 2 group ``(2, positions, theta, mag, phase)``."""
    draws = rng.uniform([0.01, 0.01, 0.0], [3.1, 1.0, 2.0 * math.pi], size=(n, 3))
    return [(2, np.arange(n), *draws.T)]


def _qubit_batches(runs):
    """Per run, ``(positions, rho, gen, k_plus)``: states e^{i theta A}|0>, the
    shared sigma_x/2 generator and filters of amplitude |t| e^{i arg t}."""
    gen = ppa_generator()
    for pos, theta, mag, phase in runs:
        rho = pure_state(phase_unitary(gen, theta)[:, :, 0])
        yield pos, rho, gen, make_filter(mag * np.exp(1j * phase))


def _complex(parts: np.ndarray) -> np.ndarray:
    """Complex matrices from (..., 2, d, d) real and imaginary parts."""
    return parts[..., 0, :, :] + 1j * parts[..., 1, :, :]


def _by_d(dims: np.ndarray, draw) -> list[tuple]:
    """``(d, positions, *draw(d, m))`` per d in ascending order, for the m
    instances of that d (their positions in ``dims``)."""
    groups = []
    # not np.unique, which imports numpy.ma (about 1 MB) on first use
    for d in sorted(set(dims.tolist())):
        pos = np.flatnonzero(dims == d)
        groups.append((d, pos, *draw(d, len(pos))))
    return groups


def _runs(groups):
    """Each ``(d, *arrays)`` group's arrays cut along their first axis into
    aligned runs of at most ``MAX_BATCH * 36 // d**2`` rows (at least one)."""
    for d, *group in groups:
        size = max(1, MAX_BATCH * 36 // d**2)
        for a in range(0, len(group[0]), size):
            yield tuple(x[a : a + size] for x in group)


def _qudit_draws(rng: np.random.Generator, n: int) -> list:
    """Every instance's d in 3..6 in one call, then per d each parameter in
    one call: ``(d, positions, z, middle, amp, rel, x, top_to)`` per d."""
    return _by_d(rng.integers(3, 7, size=n), lambda d, m: (
        rng.normal(size=(m, 2, d, d)),
        rng.integers(-3, 4, size=(m, d - 2)),
        rng.uniform(0.2, 0.8, size=m),
        rng.uniform(0.0, 2.0 * math.pi, size=m),
        rng.normal(size=(m, 2, d, d)),
        rng.uniform(0.3, 1.0, size=m),
    ))


def random_qudit_instances(rng: np.random.Generator, n: int):
    """n random d-level instances satisfying the identity's preconditions exactly.

    Each generator gets integer eigenvalues in [-3, 3] (distinct extremes,
    possibly degenerate middle) and one projector slot per value -3 ... 3,
    zero for a value it lacks, so no instance depends on its batch.  Each
    state is a random superposition of the extreme eigenvectors, and each
    filter's pass element is built by a diagonal congruence that balances
    it between the two supported eigenspaces before being rescaled to a
    contraction.  Draws as ``_qudit_draws``; yields ``(positions, rho, gen,
    k_plus)`` batches.
    """
    return _qudit_batches(_qudit_draws(rng, n))


def _qudit_batches(draws):
    for pos, z, middle, amp, rel, x, top_to in _runs(draws):
        # Haar-ish random orthonormal frames for the generators
        q, _ = np.linalg.qr(_complex(z))
        q_h = q.conj().swapaxes(-1, -2)
        d = q.shape[-1]
        eigs = np.sort(np.pad(middle, ((0, 0), (1, 1)), constant_values=(-3, 3)), -1)
        # one slot per value a = -3 ... 3: P_a sums q_j q_j^dag over the
        # columns with eigenvalue a, and is zero where an instance lacks a
        slots = np.arange(-3.0, 4.0)
        cols = np.where(eigs[:, None, None, :] == slots[:, None, None], q[:, None], 0.0)
        # spectral sums over one orthonormal frame, whose slots sum to 1;
        # every instance shares the slots' eigenvalues
        gen = (
            _mm(q * eigs[:, None, :], q_h), slots, _mm(cols, cols.conj().swapaxes(-1, -2))
        )

        v_lo, v_hi = q[..., 0], q[..., -1]
        psi = np.sqrt(amp)[:, None] * v_lo + (
            np.sqrt(1.0 - amp) * np.exp(1j * rel)
        )[:, None] * v_hi
        rho = pure_state(psi)

        # Random PSD contraction, then congruence by diag(s, 1, ..., 1, 1/s)
        # in the generator's eigenbasis, whose first/last vectors are the
        # supported eigenvectors; this equalizes <v_lo|M|v_lo>-type weights
        # exactly without changing PSD-ness.
        x = _complex(x)
        mb = _mm(_mm(q_h, _mm(x, x.conj().swapaxes(-1, -2))), q)
        w_lo = np.abs((psi * v_lo.conj()).sum(-1)) ** 2 * mb[:, 0, 0].real
        w_hi = np.abs((psi * v_hi.conj()).sum(-1)) ** 2 * mb[:, -1, -1].real
        # choose s so that |<psi|v_lo>|^2 M_00 s^2 = |<psi|v_hi>|^2 M_dd / s^2
        s = (w_hi / w_lo) ** 0.25
        scale = np.ones((len(pos), d))
        scale[:, 0] = s
        scale[:, -1] = 1.0 / s
        mb = (scale[:, :, None] * mb) * scale[:, None, :]
        # K = sqrt(M) of M rescaled to top eigenvalue top_to, from one eigh
        w, v = np.linalg.eigh(hermitian_part(_mm(_mm(q, mb), q_h)))
        yield pos, rho, gen, _spectral_sqrt(w * (top_to / w[:, -1])[:, None], v)


def gap_equality_suite(seed: int, n_qubit: int, n_qudit: int) -> SuiteResult:
    def residuals():
        rng = rng_stream(seed, 1)
        qubits = _qubit_batches(_runs(_qubit_draws(rng, n_qubit)))
        for _, rho, gen, k in chain(qubits, random_qudit_instances(rng, n_qudit)):
            yield verify_gap_equality(rho, gen, k).residual
    return _fold("gap-equality", n_qubit + n_qudit, 1e-9, residuals())


def _random_densities(probs, z) -> np.ndarray:
    """States Q diag(probs) Q^dag, Q from the QR of z, one per leading index.

    ``probs`` is (..., d) and ``z`` (..., d, d); without batch axes it is
    one state.
    """
    q, _ = np.linalg.qr(z)
    # a probability vector in a unitary frame
    return _mm(q * probs[..., None, :], q.conj().swapaxes(-1, -2))


def _random_povms(x) -> np.ndarray:
    """POVM stacks S^-1/2 G_i S^-1/2, G_i = X_i X_i^dag, S = sum_i G_i, one
    per leading index, as one array.

    ``x`` is (..., n_out, d, d).
    """
    raw = _mm(x, x.conj().swapaxes(-1, -2))
    w, v = np.linalg.eigh(raw.sum(-3))
    inv_sqrt = _mm(v / np.sqrt(w)[..., None, :], v.conj().swapaxes(-1, -2))[..., None, :, :]
    # congruences of PSD G_i by S^-1/2, which sum to S^-1/2 S S^-1/2 = 1
    return _mm(_mm(inv_sqrt, raw), inv_sqrt)


def _marginalization_draws(rng: np.random.Generator, n: int) -> list:
    """Every instance's d in 2..4 in one call and its POVMs' outcome counts
    in 2..3 in one more, then per d each parameter in one call:
    ``(d, positions, n_out, probs, z, x)`` per d, x with three outcome
    slots per POVM."""
    dims, n_out = rng.integers(2, 5, size=n), rng.integers(2, 4, size=(n, 3))
    return _by_d(dims, lambda d, m: (
        n_out[dims == d],
        rng.dirichlet(np.ones(d), size=m),
        rng.normal(size=(m, 2, d, d)),
        rng.normal(size=(m, 3, 3, 2, d, d)),
    ))


def random_marginalization_instances(rng: np.random.Generator, n: int):
    """n random states, each with a sequence of three random POVMs.

    Each instance has a d in 2..4, a state (a Dirichlet spectrum in a
    complex Gaussian frame) and per POVM 2..3 outcomes, one complex
    Gaussian matrix each (``_random_povms``).  Every POVM has three outcome
    slots; an unused one is the zero element, which adds exact zeros to
    every marginal.  Draws as ``_marginalization_draws``; yields
    ``(positions, rho, povms)`` batches, ``povms`` three POVM stacks.
    """
    return _marginalization_batches(_marginalization_draws(rng, n))


def _marginalization_batches(draws):
    for pos, n_out, probs, z, x in _runs(draws):
        used = np.arange(3) < n_out[..., None]
        x = np.where(used[..., None, None], _complex(x), 0.0)
        rho = _random_densities(probs, _complex(z))
        stacks = _random_povms(x)
        yield pos, rho, tuple(stacks[:, i] for i in range(3))


def _marginalization_residual(rho: np.ndarray, povms: tuple) -> np.ndarray:
    """Per instance, the largest |sum over POVM i of p - p without POVM i|."""
    kd = kd_distribution(rho, povms)
    k = len(povms)
    worst = np.zeros(kd.shape[:-k])
    for idx in range(k):
        direct = kd_distribution(rho, povms[:idx] + povms[idx + 1 :])
        diff = np.abs(kd.sum(axis=idx - k) - direct)
        worst = np.maximum(worst, diff.max(tuple(range(-(k - 1), 0))))
    return worst


def marginalization_suite(seed: int, n_instances: int) -> SuiteResult:
    def residuals():
        rng = rng_stream(seed, 2)
        for _, rho, povms in random_marginalization_instances(rng, n_instances):
            yield _marginalization_residual(rho, povms)
    return _fold("marginalization", n_instances, 1e-12, residuals())


@functools.cache
def _grid_solution():
    """(theta, state, derivative, sld result) of the acceptance grid, read-only
    and solved once per process; batch axes (v, theta, t) over (1, 0.98) x
    THETA_GRID x T_GRID."""
    theta = np.array(THETA_GRID)[:, None]
    rho, drho = ppa_family(theta, np.array(T_GRID), np.array([1.0, 0.98])[:, None, None])
    res = sld(rho, drho)
    for arr in (theta, rho, drho, res.lam, res.qfi, res.residual):
        arr.flags.writeable = False
    return theta, rho, drho, res


def cfi_qfi_suite() -> SuiteResult:
    """Closed-form direction attains the QFI; SLD axis matches it at v < 1.
    Deterministic over the acceptance grid."""
    def residuals():
        theta, rho, drho, res = _grid_solution()
        axes = optimal_measurement(theta, np.array(T_GRID))
        yield np.abs(cfi(axes, rho, drho) - res.qfi) / res.qfi
        # the SLD is unique only for v < 1, the second v of the grid
        yield axis_angle(sld_axis(res.lam[1]), axes)
    return _fold("cfi-equals-qfi", _GRID_STATES, 1e-8, residuals())


def sylvester_suite(seed: int, n_instances: int) -> SuiteResult:
    """SLD defect on the support, over the grid family and random mixed states
    (each d in 2..4, then per d all spectra and all frames and Hamiltonians
    in one call each; solved in batches of one d)."""
    def residuals():
        rng = rng_stream(seed, 3)
        draws = _by_d(rng.integers(2, 5, size=n_instances), lambda d, m: (
            rng.dirichlet(np.ones(d), size=m),
            rng.normal(size=(m, 2, 2, d, d)),
        ))
        yield _grid_solution()[3].residual
        for _, probs, zh in _runs(draws):
            zh = _complex(zh)
            rho = _random_densities(probs, zh[:, 0])
            h = hermitian_part(zh[:, 1])
            drho = 1j * (_mm(h, rho) - _mm(rho, h))  # any Hamiltonian family
            yield sld(rho, drho).residual
    return _fold("sylvester-residual", _GRID_STATES + n_instances, 1e-8, residuals())


def _is_kind(value, kind) -> bool:
    """isinstance, except that a bool (a JSON true or false) is no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check_run(seed: int, n_instances: int | None = None) -> int:
    """The instance count of a run, 1000 for None.  ValueError, one line naming
    the field and quoting the value, unless ``seed`` is an int >= 0 and the
    count an int >= 1, types checked before values: verify's whole input rule,
    which ``cli._check`` also runs on the seeds of sweep and fig4."""
    n = 1000 if n_instances is None else n_instances
    for name, value in (("seed", seed), ("n_instances", n)):
        if not _is_kind(value, numbers.Integral):
            raise ValueError(f"{name}: expected int, got {value!r}")
    if seed < 0:
        raise ValueError(f"seed: {seed} must be non-negative")
    if n < 1:
        raise ValueError(f"n_instances: {n} must be at least 1")
    return n


def suites(seed: int = 0, n_instances: int | None = None) -> list:
    """The four suites of :func:`run_all`, in its order, as calls of no argument
    that each return one SuiteResult; ``n_instances`` (None for 1000) scales the
    randomized ones.  A value :func:`check_run` rejects raises ValueError."""
    n = check_run(seed, n_instances)
    return [
        functools.partial(gap_equality_suite, seed, n, max(n // 5, 1)),
        functools.partial(marginalization_suite, seed, max(n // 5, 1)),
        functools.partial(cfi_qfi_suite),
        functools.partial(sylvester_suite, seed, max(n // 10, 1)),
    ]


def run_all(seed: int = 0, n_instances: int | None = None) -> list[SuiteResult]:
    """Run the four :func:`suites`, one after another in this process.  Each
    fails closed (:func:`_fold`), alone.  A value :func:`check_run` rejects
    raises ValueError before any suite runs."""
    return [suite() for suite in suites(seed, n_instances)]
