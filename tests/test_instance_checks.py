"""Exact texts of the per-instance checks of the linear-algebra core and of
the closed forms that broadcast over arrays.

Each check is reached through a public constructor or function with one
unbatched input, a one-axis stack (good, bad) that fails at instance 1 and
a two-axis stack ((good, good), (good, bad)) that fails at (1, 1).  Every
argument of a case is stacked the same way, so the values a message quotes
are those of the failing instance.
"""

import numpy as np
import pytest

from ppasim.bench import systematic_shift_t
from ppasim.fisher import (
    DegenerateMeasurementError,
    InconsistentDerivativeError,
    PPAFamily,
    PurityError,
    cfi,
    optimal_measurement,
    qfi_ppa_family,
    qfi_ppa_theory,
    qfi_bloch,
    qfi_postselected_pure,
    sld,
)
from ppasim.quasiprob import (
    POVM,
    ConditionNotMetError,
    PreconditionError,
    ZeroNormalizerError,
    filter_povm,
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
    InvalidGeneratorError,
    ZeroProbabilityError,
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


# (id, call, good args, bad args, error type, message at the bad instance)
CASES = [
    ("psd_sqrt", psd_sqrt, (ID2,), (np.diag([1.0, -1.0]),),
     ValueError, "matrix is not PSD (min eigenvalue -1.000e+00)"),
    ("density-hermitian", DensityMatrix, (ID2 / 2,), (np.array([[0.5, 0.1], [0.3, 0.5]]),),
     ValueError, "density matrix is not Hermitian within 1e-10"),
    ("density-trace", DensityMatrix, (ID2 / 2,), (np.diag([0.5, 0.6]),),
     ValueError, "density matrix trace 1.1 is not 1 within 1e-10"),
    ("density-positive", DensityMatrix, (ID2 / 2,), (np.diag([1.5, -0.5]),),
     ValueError, "density matrix has negative eigenvalue -5.000e-01"),
    ("pure-state", pure_state, ([1.0, 0.0],), ([0.0, 0.0],),
     ValueError, "cannot normalize a zero vector"),
    ("generator-hermitian", Generator.from_matrix, (SIGMA_Z,), (UPPER,),
     InvalidGeneratorError, "generator must be Hermitian within 1e-10"),
    ("generator-spectral", _spectral,
     (SIGMA_Z / 2, [-0.5, 0.5]), (SIGMA_Z / 2, [-0.5, 1.5]),
     InvalidGeneratorError, "spectral decomposition does not reproduce the generator"),
    ("make-filter", make_filter, (0.5,), (1.5,),
     ValueError, "|t| = 1.5 exceeds 1; the filter must contract"),
    ("sld-hermitian", lambda rho, d: sld(DensityMatrix(rho), d),
     (ID2 / 2, 0.1 * SIGMA_Z), (ID2 / 2, UPPER),
     ValueError, "drho must be Hermitian"),
    ("sld-traceless", lambda rho, d: sld(DensityMatrix(rho), d),
     (ID2 / 2, 0.1 * SIGMA_Z), (ID2 / 2, 0.1 * ID2),
     ValueError, "drho must be traceless (trace-preserving family)"),
    ("sld-kernel", lambda rho, d: sld(DensityMatrix(rho), d),
     (KET0, SIGMA_X), (KET0, SIGMA_Z),
     InconsistentDerivativeError, "drho has weight 1.000e+00 outside the support of rho"),
    ("qfi-bloch-kernel", qfi_bloch, ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]),
     ([0.0, 0.0, 1.0], [0.0, 0.0, 1.0]),
     InconsistentDerivativeError, "drho has weight 5.000e-01 outside the support of rho"),
    ("family-t", lambda t: PPAFamily(t=t), (0.5,), (1.5,),
     ValueError, "PPAFamily requires 0 < |t| <= 1"),
    ("family-v", lambda v: PPAFamily(t=0.5, v=v), (0.5,), (0.0,),
     ValueError, "visibility must lie in (0, 1]"),
    ("qfi-purity", lambda rho: _qfi(rho, ID2), (KET0,), (ID2 / 2,),
     PurityError, "state purity 0.5000000000; formula requires a pure state"),
    ("qfi-survival", lambda k: _qfi(KET0, k), (ID2,), (make_filter(0.0),),
     ZeroProbabilityError, "postselection probability vanished"),
    ("cfi", lambda n: cfi(n, PPAFamily(t=1.0), 0.0),
     ([0.0, 1.0, 0.0],), ([0.0, 0.0, -1.0],),
     DegenerateMeasurementError, "outcome probability 0.000e+00 carries no information"),
    ("tomography", lambda r: simulate_tomography(r, 10, np.random.default_rng(0)),
     ([0.0, 0.0, 1.0],), ([0.0, 0.0, 2.0],),
     ValueError, "Bloch vector components must lie in [-1, 1]"),
    ("povm-psd", filter_povm, (ID2 / 2,), (1.5 * ID2,),
     ValueError, "POVM element is not PSD within 1e-10"),
    ("povm-complete", POVM,
     ((ID2 / 2, ID2 / 2),), ((ID2 / 2, ID2 / 4),),
     ValueError, "POVM elements do not sum to the identity within 1e-10"),
    ("kd-sum", _kd_sum, (ID2 / 2,), (np.diag([0.5, 0.5 + 9e-11]),),
     ValueError, "quasidistribution does not sum to 1 within 1e-10"),
    # the gap identity's conditional KD table needs a surviving state; the
    # closed-form table is nan there instead (tests/test_quasiprob.py)
    ("kd-table-survival", lambda k: _gap(k_plus=k), (ID2,), (make_filter(0.0),),
     ZeroProbabilityError, "postselection probability vanished"),
    ("gap-support", _gap, (KET0,), (PLUS,),
     PreconditionError, "state is supported on 1 generator eigenspaces, need 2"),
    ("gap-balance", lambda k: _gap(k_plus=k),
     (ID2,), (psd_sqrt((ID2 + 0.5 * SIGMA_X) / 2),),
     ConditionNotMetError,
     "filter is unbalanced across the supported eigenspaces (1.250e-01 vs 3.750e-01)"),
    ("gap-normalizer", lambda k: _gap(k_plus=k), (ID2,), (np.sqrt(5e-15) * ID2,),
     ZeroNormalizerError, "outcome 0 of measurement 1 has zero quasiprobability"),
    ("sld-axis", sld_axis, (SIGMA_Z,), (ID2,),
     ValueError, "SLD has no traceless part; the axis is undefined"),
    ("optimal-measurement", optimal_measurement, (0.1, 0.5), (0.1, 0.0),
     ValueError, "optimal_measurement requires 0 < |t| <= 1"),
    ("qfi-theory", qfi_ppa_theory, (0.1, 0.5), (0.1, 0.0),
     ValueError, "qfi_ppa_theory requires 0 < t_mag <= 1"),
    ("qfi-theory-negative-t", qfi_ppa_theory, (0.1, 0.5), (0.1, -0.5),
     ValueError, "qfi_ppa_theory requires 0 < t_mag <= 1"),
    ("qfi-family-t", qfi_ppa_family, (0.1, 0.5, 0.9), (0.1, 1.5, 0.9),
     ValueError, "qfi_ppa_family requires 0 < t_mag <= 1"),
    ("qfi-family-v", qfi_ppa_family, (0.1, 0.5, 0.9), (0.1, 0.5, 1.2),
     ValueError, "visibility must lie in (0, 1]"),
    ("kd-table-t", kd_table_closed_form, ([0.0, 0.0, 1.0], 0.5), ([0.0, 0.0, 1.0], 1.5),
     ValueError, "|t| must lie in [0, 1]"),
    ("systematic-shift-t", systematic_shift_t, (0.1, 0.5, 0.01), (0.1, 0.0, 0.01),
     ValueError, "actual amplitude t must be positive"),
    ("amplified-angle-t", amplified_angle, (0.1, 0.5), (0.1, 1.5),
     ValueError, "amplified_angle requires 0 < t_mag <= 1"),
    ("amplified-angle-negative-t", amplified_angle, (0.1, 0.5), (0.1, -0.5),
     ValueError, "amplified_angle requires 0 < t_mag <= 1"),
    ("amplified-angle-theta", amplified_angle, (0.1, 0.5), (3.2, 0.5),
     ValueError, "amplified_angle requires |theta| < pi"),
]


def _stacks(good, bad):
    """The unbatched, one-axis and two-axis inputs with the prefix each names."""
    one = [np.stack([g, b]) for g, b in zip(good, bad)]
    two = [np.stack([np.stack([g, g]), np.stack([g, b])]) for g, b in zip(good, bad)]
    return [(bad, ""), (one, "instance 1: "), (two, "instance (1, 1): ")]


@pytest.mark.parametrize(
    "call, good, bad, error, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_instance_check_texts(call, good, bad, error, message):
    call(*good)  # the good instance alone passes every check
    for args, prefix in _stacks(good, bad):
        with pytest.raises(error) as exc:
            call(*args)
        assert type(exc.value) is error
        assert str(exc.value) == prefix + message
