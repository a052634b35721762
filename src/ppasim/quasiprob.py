"""Generalized Kirkwood-Dirac quasiprobabilities for sequences of POVMs.

A sequence of POVMs (M^(1), ..., M^(k)) applied to rho defines the complex
joint quasidistribution

    p(m_1, ..., m_k) = Tr( M^(k)_{m_k} ... M^(1)_{m_1} rho ),

with the first measurement acting rightmost.  Marginalizing any index is POVM
element deletion; conditioning is a slice plus renormalization by its (real)
total.  Nonclassicality is quantified by the spread of |p|^2 over outcomes,
which for the amplification filter's conditional distribution ties directly
to the postselected quantum Fisher information.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .states import (
    ATOL_STRUCT,
    DensityMatrix,
    Generator,
    ZeroProbabilityError,
    _as_complex_matrix,
    _freeze,
    hermitian_part,
    make_filter,
    plus_minus_states,
)
from .fisher import qfi_postselected_pure, survival_probability

__all__ = [
    "PreconditionError",
    "ConditionNotMetError",
    "ZeroNormalizerError",
    "POVM",
    "POVMSequence",
    "KDDistribution",
    "NonclassicalityGap",
    "GapEqualityResult",
    "projective_povm",
    "filter_povm",
    "generator_povm",
    "ppa_povm_sequence",
    "kd_distribution",
    "condition",
    "marginalize",
    "kd_table_closed_form",
    "nonclassicality_gap",
    "verify_gap_equality",
]


class PreconditionError(ValueError):
    """Structural precondition of the gap identity is violated."""


class ConditionNotMetError(ValueError):
    """The filter is not balanced across the two supported eigenspaces."""


class ZeroNormalizerError(ValueError):
    """Conditioning slice has (numerically) zero total quasiprobability."""


@dataclass(frozen=True)
class POVM:
    """Labelled POVM: PSD elements summing to the identity, kept as one
    read-only (n, d, d) ``stack`` of which ``elements`` are views."""

    labels: tuple[str, ...]
    elements: tuple[np.ndarray, ...]
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.elements) or not self.labels:
            raise ValueError("labels and elements must align and be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("POVM outcome labels must be unique")
        mats = [_as_complex_matrix(e, "POVM element") for e in self.elements]
        d = mats[0].shape[0]
        if any(e.shape != (d, d) for e in mats):
            raise ValueError("POVM elements must share a dimension")
        stack = np.stack(mats)
        if np.linalg.eigvalsh(hermitian_part(stack)).min() < -ATOL_STRUCT:
            raise ValueError("POVM element is not PSD within 1e-10")
        if np.abs(stack.sum(0) - np.eye(d)).max() > ATOL_STRUCT:
            raise ValueError("POVM elements do not sum to the identity within 1e-10")
        stack.flags.writeable = False
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "elements", tuple(stack))

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class POVMSequence:
    """Ordered sequence of POVMs on a common Hilbert space."""

    povms: tuple[POVM, ...]

    def __post_init__(self) -> None:
        if not self.povms:
            raise ValueError("a POVM sequence needs at least one POVM")
        d = self.povms[0].dim
        if any(p.dim != d for p in self.povms):
            raise ValueError("all POVMs in a sequence must share a dimension")
        object.__setattr__(self, "povms", tuple(self.povms))

    @property
    def dim(self) -> int:
        return self.povms[0].dim

    def __len__(self) -> int:
        return len(self.povms)


def projective_povm(vectors, labels) -> POVM:
    """Rank-1 projective POVM from an orthonormal set of vectors."""
    elems = []
    for v in vectors:
        v = np.asarray(v, dtype=complex).reshape(-1)
        elems.append(np.outer(v, v.conj()) / np.vdot(v, v).real)
    return POVM(labels=tuple(labels), elements=tuple(elems))


def filter_povm(k_plus) -> POVM:
    """Pass/fail POVM {M, 1 - M}, M = K+^dag K+, of a filter, labelled "+", "-".

    The PSD check on 1 - M rejects a K+ that is not a contraction.
    """
    k = _as_complex_matrix(k_plus, "K+")
    m = k.conj().T @ k
    return POVM(labels=("+", "-"), elements=(m, np.eye(k.shape[0]) - m))


def generator_povm(gen: Generator, prefix: str = "a") -> POVM:
    """Eigenspace-projector POVM of a generator, labelled by eigenvalue."""
    labels = tuple(f"{prefix}={val:g}" for val in gen.eigenvalues)
    return POVM(labels=labels, elements=gen.projectors)


def ppa_povm_sequence(t: complex) -> POVMSequence:
    """(A-basis, filter, A-basis) sequence for the amplification scheme.

    Index 0 and 2 project onto |a+>, |a-> (labels "a+", "a-", in that
    order); index 1 is :func:`filter_povm` of ``make_filter(t)``.
    """
    a_plus, a_minus = plus_minus_states()
    proj = projective_povm((a_plus, a_minus), ("a+", "a-"))
    filt = filter_povm(make_filter(t))
    return POVMSequence(povms=(proj, filt, proj))


@dataclass(frozen=True)
class KDDistribution:
    """Joint quasiprobability over outcome label tuples, row-major in values.

    ``labels[i]`` holds the outcome labels of measurement i; ``values`` is a
    complex array of shape ``dims`` with axis i indexed like ``labels[i]``.
    """

    labels: tuple[tuple[str, ...], ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        dims = tuple(len(l) for l in self.labels)
        if vals.shape != dims:
            raise ValueError(f"values shape {vals.shape} does not match labels {dims}")
        object.__setattr__(self, "labels", tuple(tuple(l) for l in self.labels))
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def arity(self) -> int:
        return len(self.labels)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.values.shape

    def outcomes(self):
        """Outcome tuples in row-major order, matching ``values.ravel()``."""
        return tuple(itertools.product(*self.labels))

    def total(self) -> complex:
        return complex(self.values.sum())

    def to_json_dict(self) -> dict:
        flat = self.values.ravel()
        return {
            "labels": [",".join(o) for o in self.outcomes()],
            "re": [float(x.real) for x in flat],
            "im": [float(x.imag) for x in flat],
        }


@dataclass(frozen=True)
class NonclassicalityGap:
    """max - min of |p|^2 over outcomes, with the achieving outcomes."""

    gap: float
    argmax_outcome: tuple[str, ...]
    argmin_outcome: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.gap < 0.0:
            raise ValueError("gap cannot be negative")


class GapEqualityResult(NamedTuple):
    lhs: float
    rhs: float
    residual: float


def kd_distribution(rho: DensityMatrix, seq: POVMSequence) -> KDDistribution:
    """Joint quasidistribution Tr(M^(k) ... M^(1) rho) of a POVM sequence."""
    povms = seq.povms
    if seq.dim != rho.dim:
        raise ValueError("POVM dimension does not match the state")
    # the first measurement multiplies rho first; each later one adds an
    # outcome axis, so op[m_1, ..., m_k] = M^(k)_{m_k} ... M^(1)_{m_1} rho
    op = rho.mat
    for povm in povms:
        op = povm.stack @ op[..., None, :, :]
    values = np.trace(op, axis1=-2, axis2=-1)
    dist = KDDistribution(labels=tuple(p.labels for p in povms), values=values)
    if abs(dist.total() - 1.0) > ATOL_STRUCT:
        raise ValueError("quasidistribution does not sum to 1 within 1e-10")
    return dist


def condition(kd: KDDistribution, index: int, label: str) -> KDDistribution:
    """Condition on measurement ``index`` giving ``label``.

    The slice is renormalized by its total, which for a physical slice is the
    (real) probability of that outcome; a total of magnitude <= 1e-14 raises
    :class:`ZeroNormalizerError`.
    """
    if not 0 <= index < kd.arity:
        raise ValueError(f"index {index} out of range for arity {kd.arity}")
    try:
        pos = kd.labels[index].index(label)
    except ValueError:
        raise ValueError(f"label {label!r} not among {kd.labels[index]}") from None
    sliced = np.take(kd.values, pos, axis=index)
    norm = complex(sliced.sum())
    if abs(norm) <= 1e-14:
        raise ZeroNormalizerError(
            f"outcome {label!r} of measurement {index} has zero quasiprobability"
        )
    labels = kd.labels[:index] + kd.labels[index + 1 :]
    if not labels:
        labels = ((label,),)
        sliced = np.array([sliced / norm], dtype=complex)
        return KDDistribution(labels=labels, values=sliced)
    return KDDistribution(labels=labels, values=sliced / norm)


def marginalize(kd: KDDistribution, index: int) -> KDDistribution:
    """Sum out measurement ``index`` (POVM completeness makes this exact)."""
    if kd.arity == 1:
        raise ValueError("cannot marginalize the last remaining measurement")
    if not 0 <= index < kd.arity:
        raise ValueError(f"index {index} out of range for arity {kd.arity}")
    labels = kd.labels[:index] + kd.labels[index + 1 :]
    return KDDistribution(labels=labels, values=kd.values.sum(axis=index))


def kd_table_closed_form(theta: float, t_mag: float) -> np.ndarray:
    """Conditional quasiprobability table of the amplification scheme.

    2x2 complex array over (a, a') in {a+, a-} x {a+, a-}, conditioned on
    the filter's pass outcome, for a real filter amplitude:

        diag:      (1 + t^2) / (4 p_ps)
        (a+, a-):  e^{+i theta} (t^2 - 1) / (4 p_ps)
        (a-, a+):  conjugate

    Requires p_ps > 0, i.e. not both theta = 0 (mod 2pi) and t = 0.
    """
    if not 0.0 <= t_mag <= 1.0 + 1e-12:
        raise ValueError("t_mag must lie in [0, 1]")
    p = survival_probability(theta, t_mag)
    if p <= 1e-15:
        raise ZeroProbabilityError(
            "conditional table undefined: postselection probability is zero"
        )
    diag = (1.0 + t_mag**2) / (4.0 * p)
    off = np.exp(1j * theta) * (t_mag**2 - 1.0) / (4.0 * p)
    return np.array([[diag, off], [np.conj(off), diag]], dtype=complex)


def nonclassicality_gap(kd: KDDistribution) -> NonclassicalityGap:
    """Spread of |p|^2 over all outcomes of a quasidistribution."""
    sq = np.abs(kd.values.ravel()) ** 2
    hi = int(np.argmax(sq))
    lo = int(np.argmin(sq))
    outcomes = kd.outcomes()
    return NonclassicalityGap(
        gap=float(sq[hi] - sq[lo]),
        argmax_outcome=outcomes[hi],
        argmin_outcome=outcomes[lo],
    )


def _supported_eigenspaces(rho: DensityMatrix, a: Generator) -> list[int]:
    weights = [float(np.trace(p @ rho.mat).real) for p in a.projectors]
    return [i for i, w in enumerate(weights) if w > 1e-12]


def verify_gap_equality(rho: DensityMatrix, a: Generator, k_plus) -> GapEqualityResult:
    """Check postselected QFI = 4 * (eigenvalue spread)^2 * quasiprobability gap.

    lhs is :func:`qfi_postselected_pure`; rhs conditions the (A, filter, A)
    quasidistribution on the pass outcome, restricts to the two generator
    eigenspaces that carry the state, and takes 4 (a_hi - a_lo)^2 times the
    spread of |p|^2 over those four outcomes.  The identity requires a pure
    state supported on exactly two eigenspaces (a mixed state raises
    :class:`PurityError`) and a contracting K+ whose pass element is
    balanced between them (checked to 1e-9).

    residual = |lhs - rhs| / max(lhs, 1).
    """
    filt = filter_povm(k_plus)
    if filt.dim != rho.dim or a.dim != rho.dim:
        raise ValueError("rho, generator, and filter dimensions must agree")
    supported = _supported_eigenspaces(rho, a)
    if len(supported) != 2:
        raise PreconditionError(
            f"state is supported on {len(supported)} generator eigenspaces, need 2"
        )
    lhs = qfi_postselected_pure(rho, a, k_plus)

    m = filt.stack[0]
    i_lo, i_hi = supported
    p_lo, p_hi = a.projectors[i_lo], a.projectors[i_hi]
    w_lo = np.trace(p_lo @ rho.mat @ p_lo @ m).real
    w_hi = np.trace(p_hi @ rho.mat @ p_hi @ m).real
    if abs(w_lo - w_hi) > 1e-9:
        raise ConditionNotMetError(
            "filter is unbalanced across the supported eigenspaces "
            f"({w_lo:.3e} vs {w_hi:.3e})"
        )

    proj_povm = generator_povm(a)
    seq = POVMSequence(povms=(proj_povm, filt, proj_povm))
    kd = kd_distribution(rho, seq)
    cond = condition(kd, 1, "+")
    sub = cond.values[np.ix_(supported, supported)]
    sq = np.abs(sub) ** 2
    spread = a.eigenvalues[i_hi] - a.eigenvalues[i_lo]
    rhs = 4.0 * spread**2 * float(sq.max() - sq.min())
    residual = abs(lhs - rhs) / max(lhs, 1.0)
    return GapEqualityResult(lhs=lhs, rhs=rhs, residual=residual)
