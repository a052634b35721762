"""Core quantum objects: states, phase generators, the filter, Bloch geometry.

Everything in this package is small dense complex linear algebra (dimension
<= 8), so matrix functions go through Hermitian eigendecompositions and every
structural check carries an explicit tolerance.

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
    "DensityMatrix",
    "Generator",
    "pure_state",
    "ppa_generator",
    "phase_unitary",
    "make_filter",
    "amplified_angle",
    "hermitian_part",
    "psd_sqrt",
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
    if not bad.any():
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


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix, or of a stack.

    ``mat`` has shape (..., d, d).  Eigenvalues in [-ATOL_STRUCT, 0) are
    treated as exact zeros; anything more negative is rejected, naming the
    first failing instance of a stack.
    """
    m = _as_complex_stack(mat)
    return _spectral_sqrt(*np.linalg.eigh(hermitian_part(m)))


def _spectral_sqrt(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V sqrt(w) V^dag of (..., d) eigenvalues ``w`` and eigenvectors ``v``,
    with :func:`psd_sqrt`'s rule for eigenvalues below 0."""
    low = w.min(-1, initial=0.0)
    _reject(low < -ATOL_STRUCT, "matrix is not PSD (min eigenvalue {:.3e})", low)
    w = np.sqrt(np.clip(w, 0.0, None))
    return _mm(v * w[..., None, :], v.conj().swapaxes(-1, -2))


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


def _built(cls, **arrays):
    """A ``cls`` of arrays valid by construction, each stored by :func:`_freeze`:
    the one construction path that runs no check; callers say why it holds."""
    obj = object.__new__(cls)
    for name, value in arrays.items():
        object.__setattr__(obj, name, _freeze(value))
    return obj


class _ReadOnly:
    """Base of the validated holders, whose ``__slots__`` name their attributes.

    Attributes are set once, by ``object.__setattr__`` in ``__init__`` or
    :func:`_built`; assigning or deleting one raises AttributeError.
    Instances compare and hash by identity.  ``pickle`` and ``copy`` restore
    the slots through ``__setstate__``, storing their arrays read-only.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __setstate__(self, state):
        for name, value in state[1].items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        public = (n for n in self.__slots__ if not n.startswith("_"))
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in public)
        return f"{type(self).__name__}({args})"


def _reject_non_psd(elements) -> None:
    """:func:`_reject` each instance of (..., n, d, d) ``elements`` not all PSD."""
    low = np.linalg.eigvalsh(hermitian_part(elements)).min((-2, -1), initial=0.0)
    _reject(low < -ATOL_STRUCT, "POVM element is not PSD within 1e-10")


def _check_povm(stack) -> np.ndarray:
    """``stack`` as complex (..., n, d, d) elements, once each instance's are
    PSD and sum to 1 within 1e-10; else ValueError names the first failing one."""
    if np.ndim(stack) < 3 or np.shape(stack)[-3] == 0:
        raise ValueError("a POVM needs at least one element")
    stack = _as_complex_stack(stack, "POVM element")
    _reject_non_psd(stack)
    dev = np.abs(stack.sum(-3) - np.eye(stack.shape[-1])).max((-2, -1), initial=0.0)
    _reject(dev > ATOL_STRUCT, "POVM elements do not sum to the identity within 1e-10")
    return stack


class DensityMatrix(_ReadOnly):
    """A validated density operator, or a stack of them.

    ``mat`` has shape (..., d, d); leading axes are batch axes, and a 2-D
    ``mat`` is one state.  Construction checks each instance for
    hermiticity and unit trace to 1e-10 and positivity to eigenvalue
    >= -1e-10 (one batched ``eigvalsh``); a failure in a stack names the
    first failing instance.  ``mat`` is stored read-only.  (:func:`_built`
    makes states valid by construction, skipping these checks.)
    """

    __slots__ = ("mat",)

    def __init__(self, mat) -> None:
        m = _as_complex_stack(mat, "density matrix")
        dev = np.abs(m - m.conj().swapaxes(-1, -2)).max((-2, -1), initial=0.0)
        _reject(dev > ATOL_STRUCT, "density matrix is not Hermitian within 1e-10")
        tr = m.trace(0, -2, -1)
        _reject(
            abs(tr - 1.0) > ATOL_STRUCT,
            "density matrix trace {} is not 1 within 1e-10", tr.real,
        )
        low = np.linalg.eigvalsh(hermitian_part(m)).min(-1, initial=0.0)
        _reject(
            low < -ATOL_STRUCT, "density matrix has negative eigenvalue {:.3e}", low,
        )
        object.__setattr__(self, "mat", _freeze(m))

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    def purity(self):
        """Tr(rho^2): a float, or an array over the batch axes."""
        return np.einsum("...ij,...ji->...", self.mat, self.mat).real


def pure_state(vec) -> DensityMatrix:
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
    return _built(DensityMatrix, mat=v[..., :, None] * v[..., None, :].conj())


class Generator(_ReadOnly):
    """Hermitian phase generator with a cached spectral decomposition, or a stack.

    ``mat`` has shape (..., d, d); leading axes are batch axes, and a 2-D
    ``mat`` is one generator.  ``projectors`` is one (..., k, d, d) array
    whose ``projectors[..., i, :, :]`` belongs to ``eigenvalues[..., i]``,
    so ``mat = sum_i eigenvalues[..., i] * projectors[..., i, :, :]`` per
    instance; construction checks that sum, then that the projectors form a
    POVM, to 1e-10 (else ValueError names the first failing instance of a
    stack), and stores all three arrays read-only.  A zero projector carries
    no weight.
    """

    __slots__ = ("mat", "eigenvalues", "projectors")

    def __init__(self, mat, eigenvalues, projectors) -> None:
        for name, value in zip(self.__slots__, (mat, eigenvalues, projectors)):
            object.__setattr__(self, name, _freeze(value))
        rebuilt = (self.eigenvalues[..., None, None] * self.projectors).sum(-3)
        bad = ~(np.abs(rebuilt - self.mat).max((-2, -1)) <= ATOL_STRUCT)  # nan too
        _reject(bad, "spectral decomposition does not reproduce the generator")
        _check_povm(self.projectors)

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]


@functools.cache
def ppa_generator() -> Generator:
    """The qubit phase generator sigma_x / 2 (eigenvalue spread 1), built once
    from its spectrum: eigenvalues -1/2 and 1/2 with projectors (1 -+ sigma_x)/2."""
    return _built(Generator, mat=SIGMA_X / 2, eigenvalues=np.array([-0.5, 0.5]),
                  projectors=np.stack([(ID2 - SIGMA_X) / 2, (ID2 + SIGMA_X) / 2]))


def phase_unitary(gen: Generator, theta) -> np.ndarray:
    """exp(+i * theta * A) = sum_i exp(+i * theta * a_i) P_i for a phase generator A.

    ``gen`` may be a stack and ``theta`` an array; their batch axes
    broadcast and lead the (..., d, d) result.
    """
    phases = np.exp(1j * np.asarray(theta)[..., None] * gen.eigenvalues)
    return (phases[..., None, None] * gen.projectors).sum(-3)


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
