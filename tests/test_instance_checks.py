"""Exact texts of the per-instance checks of the linear-algebra core and of
the closed forms that broadcast over arrays.

Each check is reached through a public constructor or function with one
unbatched input, a one-axis stack (good, bad) that fails at instance 1 and
a two-axis stack ((good, good), (good, bad)) that fails at (1, 1).  Every
argument of a case is stacked the same way, so the values a message quotes
are those of the failing instance.  Every check raises a plain ValueError,
so a case is told apart by its text alone.
"""

import numpy as np
import pytest

from ppasim.bench import systematic_shift_t
from ppasim.fisher import (
    PPAFamily,
    cfi,
    optimal_measurement,
    qfi_ppa_family,
    qfi_bloch,
    qfi_postselected_pure,
    sld,
)
from ppasim.quasiprob import (
    POVM,
    filter_povm,
    gap4_ppa_family,
    kd_distribution,
    kd_table_closed_form,
    verify_gap_equality,
)
from ppasim.states import (
    ID2,
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    Generator,
    amplified_angle,
    make_filter,
    ppa_generator,
    psd_sqrt,
    pure_state,
)
from ppasim.tomography import simulate_tomography
from ppasim.verify import sld_axis

KET0 = np.diag([1.0, 0.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
UPPER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _gap(rho=KET0, k_plus=ID2):
    return verify_gap_equality(DensityMatrix(rho), ppa_generator(), k_plus)


def _qfi(rho, k_plus):
    return qfi_postselected_pure(DensityMatrix(rho), ppa_generator(), k_plus)


def _spectral(mat, values):
    return Generator(
        mat=mat, eigenvalues=values, projectors=Generator.from_matrix(mat).projectors
    )


def _kd_sum(rho):
    # each deviation passes its own 1e-10 check; together they leave 1.8e-10
    return kd_distribution(DensityMatrix(rho), (POVM(((1.0 + 9e-11) * ID2,)),))


# (id, call, good args, bad args, message at the bad instance)
CASES = [
    ("psd_sqrt", psd_sqrt, (ID2,), (np.diag([1.0, -1.0]),),
     "matrix is not PSD (min eigenvalue -1.000e+00)"),
    ("density-hermitian", DensityMatrix, (ID2 / 2,), (np.array([[0.5, 0.1], [0.3, 0.5]]),),
     "density matrix is not Hermitian within 1e-10"),
    ("density-trace", DensityMatrix, (ID2 / 2,), (np.diag([0.5, 0.6]),),
     "density matrix trace 1.1 is not 1 within 1e-10"),
    ("density-positive", DensityMatrix, (ID2 / 2,), (np.diag([1.5, -0.5]),),
     "density matrix has negative eigenvalue -5.000e-01"),
    ("pure-state", pure_state, ([1.0, 0.0],), ([0.0, 0.0],),
     "cannot normalize a zero vector"),
    ("generator-hermitian", Generator.from_matrix, (SIGMA_Z,), (UPPER,),
     "generator must be Hermitian within 1e-10"),
    ("generator-spectral", _spectral,
     (SIGMA_Z / 2, [-0.5, 0.5]), (SIGMA_Z / 2, [-0.5, 1.5]),
     "spectral decomposition does not reproduce the generator"),
    ("make-filter", make_filter, (0.5,), (1.5,),
     "|t| = 1.5 exceeds 1; the filter must contract"),
    ("sld-hermitian", lambda rho, d: sld(DensityMatrix(rho), d),
     (ID2 / 2, 0.1 * SIGMA_Z), (ID2 / 2, UPPER),
     "drho must be Hermitian"),
    ("sld-traceless", lambda rho, d: sld(DensityMatrix(rho), d),
     (ID2 / 2, 0.1 * SIGMA_Z), (ID2 / 2, 0.1 * ID2),
     "drho must be traceless (trace-preserving family)"),
    ("sld-kernel", lambda rho, d: sld(DensityMatrix(rho), d),
     (KET0, SIGMA_X), (KET0, SIGMA_Z),
     "drho has weight 1.000e+00 outside the support of rho"),
    ("qfi-bloch-kernel", qfi_bloch, ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]),
     ([0.0, 0.0, 1.0], [0.0, 0.0, 1.0]),
     "drho has weight 5.000e-01 outside the support of rho"),
    ("family-t", lambda t: PPAFamily(t=t), (0.5,), (1.5,),
     "PPAFamily requires 0 < |t| <= 1"),
    ("family-v", lambda v: PPAFamily(t=0.5, v=v), (0.5,), (0.0,),
     "visibility must lie in (0, 1]"),
    ("qfi-purity", lambda rho: _qfi(rho, ID2), (KET0,), (ID2 / 2,),
     "state purity 0.5000000000; formula requires a pure state"),
    ("qfi-survival", lambda k: _qfi(KET0, k), (ID2,), (make_filter(0.0),),
     "postselection probability vanished"),
    ("cfi", lambda n: cfi(n, PPAFamily(t=1.0), 0.0),
     ([0.0, 1.0, 0.0],), ([0.0, 0.0, -1.0],),
     "outcome probability 0.000e+00 carries no information"),
    ("tomography", lambda r: simulate_tomography(r, 10, np.random.default_rng(0)),
     ([0.0, 0.0, 1.0],), ([0.0, 0.0, 2.0],),
     "Bloch vector components must lie in [-1, 1]"),
    ("povm-psd", filter_povm, (ID2 / 2,), (1.5 * ID2,),
     "POVM element is not PSD within 1e-10"),
    ("povm-complete", POVM,
     ((ID2 / 2, ID2 / 2),), ((ID2 / 2, ID2 / 4),),
     "POVM elements do not sum to the identity within 1e-10"),
    ("kd-sum", _kd_sum, (ID2 / 2,), (np.diag([0.5, 0.5 + 9e-11]),),
     "quasidistribution does not sum to 1 within 1e-10"),
    # the gap identity's conditional KD table needs a surviving state; the
    # closed-form table is nan there instead (tests/test_quasiprob.py)
    ("kd-table-survival", lambda k: _gap(k_plus=k), (ID2,), (make_filter(0.0),),
     "postselection probability vanished"),
    ("gap-support", _gap, (KET0,), (PLUS,),
     "state is supported on 1 generator eigenspaces, need 2"),
    ("gap-balance", lambda k: _gap(k_plus=k),
     (ID2,), (psd_sqrt((ID2 + 0.5 * SIGMA_X) / 2),),
     "filter is unbalanced across the supported eigenspaces (1.250e-01 vs 3.750e-01)"),
    ("gap-normalizer", lambda k: _gap(k_plus=k), (ID2,), (np.sqrt(5e-15) * ID2,),
     "outcome 0 of measurement 1 has zero quasiprobability"),
    ("sld-axis", sld_axis, (SIGMA_Z,), (ID2,),
     "SLD has no traceless part; the axis is undefined"),
    ("optimal-measurement", optimal_measurement, (0.1, 0.5), (0.1, 0.0),
     "optimal_measurement requires 0 < |t| <= 1"),
    ("qfi-family-t", qfi_ppa_family, (0.1, 0.5, 0.9), (0.1, 1.5, 0.9),
     "qfi_ppa_family requires 0 < t_mag <= 1"),
    ("qfi-family-t-zero", qfi_ppa_family, (0.1, 0.5), (0.1, 0.0),
     "qfi_ppa_family requires 0 < t_mag <= 1"),
    ("qfi-family-negative-t", qfi_ppa_family, (0.1, 0.5), (0.1, -0.5),
     "qfi_ppa_family requires 0 < t_mag <= 1"),
    ("qfi-family-v", qfi_ppa_family, (0.1, 0.5, 0.9), (0.1, 0.5, 1.2),
     "visibility must lie in (0, 1]"),
    ("kd-table-t", kd_table_closed_form, ([0.0, 0.0, 1.0], 0.5), ([0.0, 0.0, 1.0], 1.5),
     "|t| must lie in [0, 1]"),
    ("gap4-family-t", gap4_ppa_family, (0.1, -0.5, 0.9), (0.1, 1.5, 0.9),
     "|t| must lie in [0, 1]"),
    ("gap4-family-v", gap4_ppa_family, (0.1, 0.5, 0.9), (0.1, 0.5, 0.0),
     "visibility must lie in (0, 1]"),
    ("systematic-shift-t", systematic_shift_t, (0.1, 0.5, 0.01), (0.1, 0.0, 0.01),
     "actual amplitude t must be positive"),
    ("amplified-angle-t", amplified_angle, (0.1, 0.5), (0.1, 1.5),
     "amplified_angle requires 0 < t_mag <= 1"),
    ("amplified-angle-negative-t", amplified_angle, (0.1, 0.5), (0.1, -0.5),
     "amplified_angle requires 0 < t_mag <= 1"),
    ("amplified-angle-theta", amplified_angle, (0.1, 0.5), (3.2, 0.5),
     "amplified_angle requires |theta| < pi"),
]


def _stacks(good, bad):
    """The unbatched, one-axis and two-axis inputs with the prefix each names."""
    one = [np.stack([g, b]) for g, b in zip(good, bad)]
    two = [np.stack([np.stack([g, g]), np.stack([g, b])]) for g, b in zip(good, bad)]
    return [(bad, ""), (one, "instance 1: "), (two, "instance (1, 1): ")]


@pytest.mark.parametrize(
    "call, good, bad, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_instance_check_texts(call, good, bad, message):
    call(*good)  # the good instance alone passes every check
    for args, prefix in _stacks(good, bad):
        with pytest.raises(ValueError) as exc:
            call(*args)
        # every failed check is a plain ValueError, told apart by its text
        assert type(exc.value) is ValueError
        assert str(exc.value) == prefix + message
