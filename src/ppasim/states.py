"""Core quantum objects: states, phase generators, the filter, Bloch geometry.

Everything in this package is small dense complex linear algebra (dimension
<= 8), so matrix functions go through Hermitian eigendecompositions and every
structural check carries an explicit tolerance.

Conventions, fixed once and used everywhere:

* ``|0> = (1, 0)`` is horizontal polarization and the +z Bloch axis; ``|1>``
  is vertical.
* ``|a+-> = (|0> +- |1>)/sqrt(2)`` lie on the +-x Bloch axes.
* Phase imprinting uses ``U(theta) = exp(+i * theta * A)``.
* Measurement directions are quoted as (polar, azimuth) pairs in the
  *analysis frame*, the frame in which the amplified states swept out by the
  postselection filter live in the x-z plane.  Written in standard Bloch
  coordinates its axes are ``x_a = -y``, ``y_a = +x``, ``z_a = z``; see
  :func:`direction_to_bloch`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ATOL_STRUCT",
    "ID2",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULIS",
    "InvalidGeneratorError",
    "ZeroProbabilityError",
    "UndefinedAmplificationError",
    "DensityMatrix",
    "Generator",
    "pure_state",
    "plus_minus_states",
    "ppa_generator",
    "phase_unitary",
    "make_filter",
    "amplified_angle",
    "bloch_vector",
    "direction_to_bloch",
    "analysis_to_standard",
    "direction_projector",
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

# Analysis-frame axes as columns, expressed in standard Bloch coordinates.
_ANALYSIS_FRAME = np.array(
    [
        [0.0, 1.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
    ]
)


class InvalidGeneratorError(ValueError):
    """Raised when a phase generator is not Hermitian."""


class ZeroProbabilityError(ValueError):
    """Raised when conditioning on an outcome of (numerically) zero probability."""


class UndefinedAmplificationError(ValueError):
    """Raised for the 0/0 amplification limit (t = 0 at zero phase)."""


def _as_complex_matrix(mat, name: str = "matrix") -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2, for one matrix or a stack of them."""
    m = np.asarray(mat, dtype=complex)
    return (m + m.conj().swapaxes(-1, -2)) / 2


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix.

    Eigenvalues in [-ATOL_STRUCT, 0) are treated as exact zeros; anything
    more negative is rejected.
    """
    m = _as_complex_matrix(mat)
    w, v = np.linalg.eigh(hermitian_part(m))
    if w.min() < -ATOL_STRUCT:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w.min():.3e})")
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w) @ v.conj().T


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density operator.

    Construction checks hermiticity and unit trace to 1e-10 and positivity to
    eigenvalue >= -1e-10.  ``mat`` is stored read-only.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = _as_complex_matrix(self.mat, "density matrix")
        if np.abs(m - m.conj().T).max() > ATOL_STRUCT:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        tr = np.trace(m).real
        if abs(np.trace(m) - 1.0) > ATOL_STRUCT:
            raise ValueError(f"density matrix trace {tr!r} is not 1 within 1e-10")
        w = np.linalg.eigvalsh(hermitian_part(m))
        if w.min() < -ATOL_STRUCT:
            raise ValueError(
                f"density matrix has negative eigenvalue {w.min():.3e}"
            )
        object.__setattr__(self, "mat", _freeze(m))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)


def pure_state(vec) -> DensityMatrix:
    """|psi><psi| from a state vector (normalized internally)."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise ValueError("cannot normalize a zero vector")
    v = v / n
    return DensityMatrix(np.outer(v, v.conj()))


@dataclass(frozen=True)
class Generator:
    """Hermitian phase generator with a cached spectral decomposition.

    ``eigenvalues`` are the distinct eigenvalues in ascending order and
    ``projectors[i]`` the projector onto the corresponding eigenspace, so
    ``mat = sum_i eigenvalues[i] * projectors[i]``.
    """

    mat: np.ndarray
    eigenvalues: np.ndarray
    projectors: tuple[np.ndarray, ...]

    @classmethod
    def from_matrix(cls, mat) -> "Generator":
        m = _as_complex_matrix(mat, "generator")
        if np.abs(m - m.conj().T).max() > ATOL_STRUCT:
            raise InvalidGeneratorError("generator must be Hermitian within 1e-10")
        w, v = np.linalg.eigh(m)
        values: list[float] = []
        projectors: list[np.ndarray] = []
        i = 0
        while i < len(w):
            j = i
            while j + 1 < len(w) and w[j + 1] - w[i] <= ATOL_STRUCT:
                j += 1
            block = v[:, i : j + 1]
            values.append(float(np.mean(w[i : j + 1])))
            projectors.append(_freeze(block @ block.conj().T))
            i = j + 1
        return cls(
            mat=_freeze(m),
            eigenvalues=_freeze(np.array(values)),
            projectors=tuple(projectors),
        )

    def __post_init__(self) -> None:
        rebuilt = sum(
            a * p for a, p in zip(self.eigenvalues, self.projectors)
        )
        if np.abs(rebuilt - self.mat).max() > ATOL_STRUCT:
            raise InvalidGeneratorError(
                "spectral decomposition does not reproduce the generator"
            )

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def spread(self) -> float:
        """Largest minus smallest eigenvalue."""
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


def plus_minus_states() -> tuple[np.ndarray, np.ndarray]:
    """The +-x eigenvectors (|0> +- |1>)/sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return np.array([s, s], dtype=complex), np.array([s, -s], dtype=complex)


@functools.cache
def ppa_generator() -> Generator:
    """The qubit phase generator sigma_x / 2 (eigenvalue spread 1), built once."""
    return Generator.from_matrix(SIGMA_X / 2)


def phase_unitary(gen: Generator, theta: float) -> np.ndarray:
    """exp(+i * theta * A) for a phase generator A."""
    u = np.zeros_like(gen.mat)
    for val, proj in zip(gen.eigenvalues, gen.projectors):
        u = u + np.exp(1j * theta * val) * proj
    return u


def make_filter(t: complex) -> np.ndarray:
    """Pass Kraus operator K+ = t |0><0| + |1><1| of the partial polarizer, read-only.

    ``t`` is the (possibly complex) transmission amplitude of |0>, |t| <= 1;
    |1> passes untouched.  Rejected photons are discarded, so every result
    depends on K+ alone; :func:`ppasim.quasiprob.filter_povm` forms the
    two-outcome POVM {K+^dag K+, 1 - K+^dag K+}.
    """
    t = complex(t)
    if abs(t) > 1.0 + 1e-12:
        raise ValueError(f"|t| = {abs(t):.6g} exceeds 1; the filter must contract")
    return _freeze(np.diag([t, 1.0 + 0j]))


def amplified_angle(theta: float, t_mag: float) -> float:
    """Phase-to-polar-angle map of the filter: tan(Theta/2) = tan(theta/2)/t.

    Monotone in theta on |theta| < pi.  For t_mag = 0 the map saturates at
    sign(theta) * pi for any theta != 0; theta = 0 there is the undefined
    0/0 limit and raises.
    """
    if not 0.0 <= t_mag <= 1.0 + 1e-12:
        raise ValueError("t_mag must lie in [0, 1]")
    half = theta / 2.0
    if abs(half) >= math.pi / 2.0:
        raise ValueError("amplified_angle requires |theta| < pi")
    if t_mag == 0.0:
        if theta == 0.0:
            raise UndefinedAmplificationError(
                "amplification of theta = 0 at t = 0 is undefined"
            )
        return math.copysign(math.pi, theta)
    return 2.0 * math.atan2(math.tan(half), t_mag)


def bloch_vector(rho: DensityMatrix) -> np.ndarray:
    """Standard Bloch components (Tr rho sigma_x, sigma_y, sigma_z)."""
    if rho.dim != 2:
        raise ValueError("Bloch vectors are defined for qubits only")
    return np.array([float(np.trace(rho.mat @ s).real) for s in PAULIS])


def analysis_to_standard(vec) -> np.ndarray:
    """Rotate a vector from analysis-frame to standard Bloch coordinates."""
    return _ANALYSIS_FRAME @ np.asarray(vec, dtype=float).reshape(3)


def direction_to_bloch(polar: float, azimuth: float) -> np.ndarray:
    """Unit Bloch vector (standard coords) of an analysis-frame direction.

    (polar, azimuth) are spherical angles in the analysis frame, so e.g.
    (pi/2, 0) is the analysis x axis = standard -y.
    """
    n_analysis = np.array(
        [
            math.sin(polar) * math.cos(azimuth),
            math.sin(polar) * math.sin(azimuth),
            math.cos(polar),
        ]
    )
    return analysis_to_standard(n_analysis)


def direction_projector(polar: float, azimuth: float) -> np.ndarray:
    """Projector (1 + n . sigma)/2 onto the +1 outcome along a direction."""
    n = direction_to_bloch(polar, azimuth)
    return (ID2 + n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z) / 2
