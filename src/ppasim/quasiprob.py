"""Generalized Kirkwood-Dirac quasiprobabilities for sequences of POVMs.

A sequence of POVMs (M^(1), ..., M^(k)) applied to rho defines the complex
joint quasidistribution

    p(m_1, ..., m_k) = Tr( M^(k)_{m_k} ... M^(1)_{m_1} rho ),

with the first measurement acting rightmost.  It is kept as a plain
read-only complex array whose axis i is indexed by the outcomes of POVM i.
Marginalizing any index (a sum over that axis) is POVM element deletion.
Nonclassicality is quantified by the spread of |p|^2 over outcomes, which
for the amplification scheme's pass-conditioned (A, filter, A) table,
:func:`kd_table_closed_form`, ties directly to the postselected quantum
Fisher information.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .states import ATOL_STRUCT, _as_complex_stack, _mm, _reject, _reject_non_psd
from .fisher import ZERO_PROBABILITY, _population, qfi_postselected_pure, survival_probability

__all__ = [
    "GapEqualityResult",
    "filter_povm",
    "gap4_ppa_family",
    "kd_distribution",
    "kd_table_closed_form",
    "nonclassicality_gap",
    "verify_gap_equality",
]


def filter_povm(k_plus) -> np.ndarray:
    """Pass/fail POVM {M, 1 - M}, M = K+^dag K+, of a filter: pass is outcome 0.

    ``k_plus`` may be a stack (..., d, d), giving one (..., 2, d, d) POVM per
    instance.
    The one check, that 1 - M is PSD, rejects a K+ that is not a contraction.
    """
    k = _as_complex_stack(k_plus, "K+")
    m = _mm(k.conj().swapaxes(-1, -2), k)
    rest = _as_complex_stack(np.eye(k.shape[-1]) - m, "POVM element")
    _reject_non_psd(rest[..., None, :, :])
    # then M = K^dag K is PSD too, and M + (1 - M) = 1
    return np.stack([m, rest], axis=-3)


class GapEqualityResult(NamedTuple):
    """Floats for one instance, arrays over the batch axes for a stack."""

    lhs: float | np.ndarray
    rhs: float | np.ndarray
    residual: float | np.ndarray


def kd_distribution(rho: np.ndarray, povms: tuple[np.ndarray, ...]) -> np.ndarray:
    """Joint quasidistribution p[m_1, ..., m_k] = Tr(M^(k)_{m_k} ... M^(1)_{m_1} rho).

    ``povms`` is a tuple of POVM stacks on rho's space, the first acting
    first; axis i of the read-only complex result is indexed by the outcomes
    of ``povms[i]``.  Batch axes of rho and of the POVMs broadcast and lead
    the result, so a stack of states gives shape (..., n_1, ..., n_k).
    Raises ValueError on a dimension mismatch and when an instance's
    entries do not sum to 1 within 1e-10.
    """
    if not povms:
        raise ValueError("a quasidistribution needs at least one POVM")
    if any(p.shape[-1] != rho.shape[-1] for p in povms):
        raise ValueError("POVM dimension does not match the state")
    # the first measurement multiplies rho first; each later one adds an
    # outcome axis, so op[..., m_1, ..., m_i] = M^(i)_{m_i} ... M^(1)_{m_1} rho;
    # the POVM's own batch axes go in front of the outcome axes so far
    op = rho
    *first, last = (
        p.reshape(p.shape[:-3] + (1,) * i + p.shape[-3:]) for i, p in enumerate(povms)
    )
    for s in first:
        op = _mm(s, op[..., None, :, :])
    # the last measurement is traced against op in one contraction, so no
    # intermediate holds all k outcome axes times d x d; Tr(M op) sums
    # M[a, b] op[b, a], O(d^2) where the product would be O(d^3)
    values = np.einsum("...mab,...ba->...m", last, op)
    bad = abs(values.sum(tuple(range(-len(povms), 0))) - 1.0) > ATOL_STRUCT
    _reject(bad, "quasidistribution does not sum to 1 within 1e-10")
    values.flags.writeable = False
    return values


def kd_table_closed_form(r, t, w) -> np.ndarray:
    """Conditional quasiprobability table of the amplification scheme.

    2x2 complex array over (a, a') in {a+, a-} x {a+, a-}, conditioned on
    the filter's pass outcome, for the unfiltered state with Bloch vector
    ``r`` and |1> population ``w`` = (1 - r_z)/2, and filter amplitude
    ``t``.  With T = |t|^2 and the survival probability p = T + (1 - T) w
    (:func:`survival_probability`):

        diag:      (1 + T)(1 +- r_x) / (4 p)
        (a+, a-):  (T - 1)(r_z + i r_y) / (4 p)
        (a-, a+):  conjugate

    The imprinted state of phase theta has r = (0, sin theta, cos theta) and
    w = sin^2(theta/2), whose digits (1 - cos theta)/2 loses at small theta.
    A (..., 3) stack ``r`` and arrays ``t`` and ``w`` broadcast to (..., 2, 2)
    tables.  Where p <= ZERO_PROBABILITY nothing survives: there is no
    conditional table, so that instance's table is nan.
    """
    r = np.asarray(r, dtype=float)
    t_mag = np.abs(t)
    _reject(~(t_mag <= 1.0 + 1e-12), "|t| must lie in [0, 1]")
    upper, lower, off = _table_entries(r, t_mag, w)
    table = np.empty(np.shape(upper) + (2, 2), dtype=complex)
    table[..., 0, 0], table[..., 0, 1] = upper, off
    table[..., 1, 0], table[..., 1, 1] = off.conj(), lower
    return table


def _table_entries(r, t_mag, w):
    """The (a+, a+), (a-, a-) and (a+, a-) entries of :func:`kd_table_closed_form`'s
    tables, the first two real; each has the batch axes of every argument.  It
    checks nothing: :func:`kd_table_closed_form` has checked |t| <= 1, and
    fig4's block relies on ``cli._check``."""
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    t2 = t_mag * t_mag
    p = survival_probability(t_mag, w)
    q = 4.0 * np.where(p > ZERO_PROBABILITY, p, np.nan)
    diag = (1.0 + t2) / q
    # each part divided by the real q, as a real division rounds (numpy's
    # complex division multiplies by a reciprocal instead)
    off = (t2 - 1.0) * z / q + 1j * ((t2 - 1.0) * y / q)
    return diag * (1.0 + x), diag * (1.0 - x), off


def _gap4_of_tables(r, t_mag, w):
    """4 x :func:`nonclassicality_gap` of each of :func:`kd_table_closed_form`'s
    tables at (r, t_mag, w), over its three distinct entries, nan where a table
    is.  It checks nothing: fig4's block relies on ``cli._check`` for 0 < t_mag <= 1."""
    upper, lower, off = _table_entries(r, t_mag, w)
    return 4.0 * nonclassicality_gap(np.array([upper, lower, np.abs(off)]), axes=0)


def gap4_ppa_family(theta, t, v=1.0):
    """4 x the gap of :func:`kd_table_closed_form`'s table of ``fisher.ppa_family``
    at (``theta``, t, v), written without cancellation.

    Its unfiltered state has r = v (0, sin theta, cos theta), so both
    diagonal entries have |.|^2 = (1 + T)^2 / (16 p^2) and both off-diagonal
    ones the smaller v^2 (1 - T)^2 / (16 p^2), with T = |t|^2 and p the
    survival probability.  As (1 + T)^2 - (1 - T)^2 = 4T, the gap is

        4 gap = (4T + (1 - v)(1 + v)(1 - T)^2) / (4 p^2),

    a sum of non-negative terms; the table's max - min subtracts entries of
    order 1/p instead, which cancels where the gap is small beside them.  At
    v = 1 it is (|t| / p)^2, the family's QFI (``fisher.qfi_ppa_family``):
    QFI = 4 (Delta a)^2 gap, with the generator's eigenvalue spread Delta a = 1
    (Arvidsson-Shukur et al., Nat. Commun. 11, 3775, 2020).  nan where the
    table is.
    """
    t_mag = np.abs(t)
    _reject(~(t_mag <= 1.0 + 1e-12), "|t| must lie in [0, 1]")
    _reject(~np.logical_and(0.0 < v, v <= 1.0), "visibility must lie in (0, 1]")
    return _family_gap4(t_mag * t_mag, v, survival_probability(t_mag, _population(theta, v)))


def _family_gap4(t2, v, p):
    """The 4 gap of :func:`gap4_ppa_family` from T = |t|^2, v and the survival
    probability ``p``, nan where p <= ZERO_PROBABILITY.  It checks nothing:
    :func:`gap4_ppa_family` has checked t and v, and fig4's block relies on
    ``cli._check``."""
    p = np.where(p > ZERO_PROBABILITY, p, np.nan)
    return ((4.0 * t2 + (1.0 - v) * (1.0 + v) * np.square(1.0 - t2)) / (4.0 * p * p))[()]


def nonclassicality_gap(kd: np.ndarray, axes=None):
    """Spread max - min of |p|^2 over all outcomes of one quasidistribution.

    ``axes`` names the outcome axes of a stack of tables, whose gaps come
    back as an array; by default the whole array is one table.
    """
    sq = np.abs(kd) ** 2
    gap = sq.max(axis=axes) - sq.min(axis=axes)
    return float(gap) if gap.ndim == 0 else gap


def verify_gap_equality(rho: np.ndarray, a: tuple, k_plus) -> GapEqualityResult:
    """Check postselected QFI = 4 * (eigenvalue spread)^2 * quasiprobability gap.

    lhs is :func:`qfi_postselected_pure`; rhs conditions the (A, filter, A)
    quasidistribution on the pass outcome, restricts to the two generator
    eigenspaces that carry the state, and takes 4 (a_hi - a_lo)^2 times the
    spread of |p|^2 over those four outcomes.  The identity requires a pure
    state supported on exactly two eigenspaces and a contracting K+ whose
    pass element is balanced between them (checked to 1e-9); each check
    that fails raises ValueError.

    The table is built on A's measurement coarse-grained to three slots,
    (a_lo, a_hi, rest), rest the sum of the other projectors; a two-slot
    generator already is this coarse-graining.  The identity is unchanged:
    the four pair entries are the same traces Tr(P_a' M P_a rho), and the
    pass slice's total is Tr(M rho) for any slots that sum to 1.

    ``rho``, ``a`` and ``k_plus`` may carry leading batch axes, which
    broadcast: one shared generator, or a generator stack with rho's batch
    axes (a zero projector carries no weight, so it never counts as
    supported).  lhs, rhs and residual are then arrays over
    the batch axes, the spread is read per instance, every check runs per
    instance, and a failure names the first failing instance.

    residual = |lhs - rhs| / max(lhs, 1).
    """
    a_mat, eigenvalues, slots = a
    filt = filter_povm(k_plus)
    if filt.shape[-1] != rho.shape[-1] or slots.shape[-1] != rho.shape[-1]:
        raise ValueError("rho, generator, and filter dimensions must agree")
    weights = np.einsum("...iab,...ba->...i", slots, rho).real
    supported = weights > 1e-12
    count = supported.sum(-1)
    _reject(count != 2, "state is supported on {} generator eigenspaces, need 2", count)
    lhs = qfi_postselected_pure(rho, a_mat, k_plus)

    # per instance the slots of a_lo and a_hi, in slot order
    pair = np.nonzero(supported)[-1].reshape(supported.shape[:-1] + (2,))
    eig = np.take_along_axis(np.broadcast_to(eigenvalues, supported.shape), pair, -1)
    if slots.shape[-3] > 2:
        slots = np.broadcast_to(slots, supported.shape + slots.shape[-2:])
        rest = np.where(supported[..., None, None], 0.0, slots).sum(-3, keepdims=True)
        lo_hi = np.take_along_axis(slots, pair[..., None, None], -3)
        slots = np.concatenate([lo_hi, rest], -3)
    # the pass slice of the (A, filter, A) table, on a generator's
    # projectors, a POVM that coarse-graining keeps one; its pair entries are
    # (lo, lo), (lo, hi), (hi, lo), (hi, hi)
    passed = kd_distribution(rho, (slots, filt, slots))[..., :, 0, :]
    sub = passed[..., :2, :2].reshape(passed.shape[:-2] + (4,))
    # the diagonal entries are the pass weights Tr(P rho P M)
    w_lo, w_hi = sub[..., 0].real, sub[..., 3].real
    _reject(
        np.abs(w_lo - w_hi) > 1e-9,
        "filter is unbalanced across the supported eigenspaces ({:.3e} vs {:.3e})",
        w_lo, w_hi,
    )
    norm = passed.sum((-2, -1))
    _reject(
        np.abs(norm) <= 1e-14, "outcome 0 of measurement 1 has zero quasiprobability",
    )
    gap = nonclassicality_gap(sub / norm[..., None], axes=-1)
    rhs = 4.0 * (eig[..., 1] - eig[..., 0]) ** 2 * gap
    residual = np.abs(lhs - rhs) / np.maximum(lhs, 1.0)
    return GapEqualityResult(lhs=lhs, rhs=rhs, residual=residual)
