"""Core quantum objects: states, phase generators, the filter, Bloch geometry.

Everything in this package is small dense complex linear algebra (dimension
<= 8), so matrix functions go through Hermitian eigendecompositions and every
structural check carries an explicit tolerance.

The objects are plain arrays, with leading batch axes: a state is its
(..., d, d) density matrix, a POVM its (..., n, d, d) stack of elements, and
a phase generator a ``(mat, eigenvalues, projectors)`` tuple whose
``projectors[..., i, :, :]`` belongs to ``eigenvalues[..., i]``.  Nothing
checks a state, POVM or generator when it is made: each function checks
the inputs it needs (a vector's norm, a filter's contraction, a
derivative's trace), and a builder whose arrays are valid by construction
says why.

Conventions, fixed once and used everywhere:

* ``|0> = (1, 0)`` is horizontal polarization and the +z Bloch axis; ``|1>``
  is vertical.
* ``|a+-> = (|0> +- |1>)/sqrt(2)`` lie on the +-x Bloch axes.
* Phase imprinting uses ``U(theta) = exp(+i * theta * A)``.
* Bloch vectors, including measurement directions, are in these standard
  coordinates.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "ATOL_STRUCT",
    "ID2",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULIS",
    "pure_state",
    "ppa_generator",
    "phase_unitary",
    "make_filter",
    "amplified_angle",
    "hermitian_part",
]

# Tolerance for structural validation (hermiticity, trace, completeness).
ATOL_STRUCT = 1e-10

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def _as_complex_stack(mat, name: str = "matrix") -> np.ndarray:
    """Finite complex square matrices of shape (..., d, d)."""
    m = np.asarray(mat, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _reject(bad, message: str, *values) -> None:
    """Raise ValueError at the first True entry of the per-instance mask ``bad``.

    ``message`` is formatted with each of ``values`` (arrays over the mask's
    axes) at that entry.  With batch axes it is prefixed "instance k: ", or
    the index tuple for more than one axis.  A mask with no True entry
    returns.
    """
    if not np.count_nonzero(bad):
        return
    k = tuple(int(i) for i in np.unravel_index(np.argmax(bad), np.shape(bad)))
    text = message.format(*(np.asarray(v)[k] for v in values))
    raise ValueError(f"instance {k[0] if len(k) == 1 else k}: {text}" if k else text)


def _reject_amplitude(mag, message: str) -> None:
    """:func:`_reject` every magnitude ``mag`` outside (0, 1 + 1e-12]."""
    _reject(~np.logical_and(0.0 < mag, mag <= 1.0 + 1e-12), message)


# Largest inner dimension that _mm sums as rank-1 products: up to it the sum
# beats NumPy's one BLAS call per matrix of a stack; at d = 4 they tie.
_MM_CROSSOVER = 3


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over the last two axes, the leading axes broadcast: for an inner
    dimension k <= ``_MM_CROSSOVER`` the sum over j of the rank-1 products
    a[..., :, j] b[..., j, :], which can differ from BLAS in the last bit."""
    k = a.shape[-1]
    if not 0 < k <= _MM_CROSSOVER:
        return a @ b
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, k):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2, for one matrix or a stack of them."""
    m = np.asarray(mat, dtype=complex)
    return (m + m.conj().swapaxes(-1, -2)) / 2


def _spectral_sqrt(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Principal square root V sqrt(w) V^dag of a PSD matrix, or of a stack,
    from its (..., d) eigenvalues ``w`` and eigenvectors ``v``.  Eigenvalues in
    [-ATOL_STRUCT, 0) are treated as exact zeros; anything more negative is
    rejected, naming the first failing instance of a stack."""
    low = w.min(-1, initial=0.0)
    _reject(low < -ATOL_STRUCT, "matrix is not PSD (min eigenvalue {:.3e})", low)
    w = np.sqrt(np.clip(w, 0.0, None))
    return _mm(v * w[..., None, :], v.conj().swapaxes(-1, -2))


def _reject_non_psd(elements) -> None:
    """:func:`_reject` each instance of (..., n, d, d) ``elements`` not all PSD."""
    low = np.linalg.eigvalsh(hermitian_part(elements)).min((-2, -1), initial=0.0)
    _reject(low < -ATOL_STRUCT, "POVM element is not PSD within 1e-10")


def pure_state(vec) -> np.ndarray:
    """|psi><psi| from a state vector (normalized internally).

    ``vec`` has shape (..., d); leading axes are batch axes.  Each vector
    must be finite with a finite norm >= 1e-12 (else the first failing
    instance is named); then |psi><psi| is a state by construction.
    """
    v = np.asarray(vec, dtype=complex)
    _reject(~np.isfinite(v).all(-1), "state vector is not finite")
    n = np.linalg.norm(v, axis=-1)
    _reject(~np.isfinite(n), "state vector norm overflows")
    _reject(n < 1e-12, "cannot normalize a zero vector")
    v = v / n[..., None]
    # rank one, Hermitian entry by entry, trace |v|^2 = 1 to rounding
    return v[..., :, None] * v[..., None, :].conj()


@functools.cache
def ppa_generator() -> tuple:
    """The qubit phase generator sigma_x / 2 (eigenvalue spread 1), built once
    from its spectrum: eigenvalues -1/2 and 1/2 with projectors (1 -+ sigma_x)/2,
    as one shared tuple of read-only arrays."""
    gen = (SIGMA_X / 2, np.array([-0.5, 0.5]),
           np.stack([(ID2 - SIGMA_X) / 2, (ID2 + SIGMA_X) / 2]))
    for arr in gen:
        arr.flags.writeable = False
    return gen


def phase_unitary(gen: tuple, theta) -> np.ndarray:
    """exp(+i * theta * A) = sum_i exp(+i * theta * a_i) P_i for a phase generator A.

    ``gen`` may be a stack and ``theta`` an array; their batch axes
    broadcast and lead the (..., d, d) result.
    """
    _, eigenvalues, projectors = gen
    phases = np.exp(1j * np.asarray(theta)[..., None] * eigenvalues)
    return (phases[..., None, None] * projectors).sum(-3)


def make_filter(t) -> np.ndarray:
    """Pass Kraus operator K+ = t |0><0| + |1><1| of the partial polarizer, read-only.

    ``t`` is the (possibly complex) transmission amplitude of |0>, |t| <= 1;
    |1> passes untouched.  An array ``t`` gives a stack of K+ with the
    shape of ``t`` as leading axes.  Rejected photons are discarded, so
    every result depends on K+ alone; :func:`ppasim.quasiprob.filter_povm`
    forms the two-outcome POVM {K+^dag K+, 1 - K+^dag K+}.
    """
    t = np.asarray(t, dtype=complex)
    mag = np.abs(t)
    _reject(mag > 1.0 + 1e-12, "|t| = {:.6g} exceeds 1; the filter must contract", mag)
    k_plus = np.zeros(t.shape + (2, 2), dtype=complex)
    k_plus[..., 0, 0] = t
    k_plus[..., 1, 1] = 1.0
    k_plus.flags.writeable = False
    return k_plus


def amplified_angle(theta, t_mag):
    """Phase-to-polar-angle map of the filter: tan(Theta/2) = tan(theta/2)/t.

    Monotone in theta on |theta| < pi, for 0 < t_mag <= 1, over arrays too.
    """
    _reject_amplitude(t_mag, "amplified_angle requires 0 < t_mag <= 1")
    half = np.asarray(theta, dtype=float) / 2.0
    bad = ~(np.abs(half) < math.pi / 2.0)
    _reject(bad, "amplified_angle requires |theta| < pi")
    return 2.0 * np.arctan2(np.tan(half), t_mag)
