import cmath
import math

import numpy as np
import pytest

from ppasim.bench import postselected_bloch, systematic_shift_t
from ppasim.fisher import (
    PPAFamily,
    _on_sphere,
    cfi,
    optimal_measurement,
    qfi_bloch,
    qfi_ppa_family,
    qfi_postselected_pure,
    sld,
    survival_probability,
)
from ppasim.quasiprob import gap4_ppa_family, kd_table_closed_form
from ppasim.states import (
    DensityMatrix,
    ID2,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    make_filter,
    ppa_generator,
    pure_state,
)
from ppasim.verify import (
    THETA_GRID,
    T_GRID,
    axis_angle,
    cfi_qfi_suite,
    sld_axis,
    sylvester_suite,
)

from matrix_reference import (
    bloch_vector,
    qubit_instances,
    survival_theta_form,
    unfiltered_state,
)

RNG = np.random.default_rng(777)

E0 = np.array([1.0, 0.0], dtype=complex)


def random_hermitian(rng, d):
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (h + h.conj().T) / 2


def random_density(rng, d):
    probs = rng.dirichlet(np.ones(d))
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(z)
    return DensityMatrix((q * probs) @ q.conj().T)


# ---------------------------------------------------------- sld reference


def kron_pinv_sld(rho, drho):
    """Reference SLD: the Sylvester map vectorized row-major, vec(X Y Z) =
    (X kron Z^T) vec(Y), solved with a Moore-Penrose pseudoinverse."""
    m = rho.mat
    d = m.shape[0]
    eye = np.eye(d)
    sylv = (np.kron(m, eye) + np.kron(eye, m.T)) / 2.0
    lam = np.linalg.pinv(sylv, rcond=1e-12, hermitian=True) @ drho.reshape(-1)
    lam = lam.reshape(d, d)
    lam = (lam + lam.conj().T) / 2.0
    return lam, max(float(np.trace(drho @ lam).real), 0.0)


def assert_matches_reference(rho, drho):
    # both routes give the minimum-norm SLD, so the whole matrix must agree,
    # including the support-kernel block of rank-deficient states
    res = sld(rho, drho)
    lam, qfi = kron_pinv_sld(rho, drho)
    assert np.abs(res.lam - lam).max() <= 1e-12 * max(1.0, np.abs(lam).max())
    assert abs(res.qfi - qfi) <= 1e-12 * max(1.0, qfi)


def test_sld_matches_kronecker_pinv_reference():
    for v in (1.0, 0.98):
        for theta in THETA_GRID:
            for t in T_GRID:
                fam = PPAFamily(t=t, v=v)
                assert_matches_reference(fam.state(theta), fam.derivative(theta))
    rng = np.random.default_rng(2009)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        rho = random_density(rng, d)
        h = random_hermitian(rng, d)
        assert_matches_reference(rho, 1j * (h @ rho.mat - rho.mat @ h))
    # rank 2 of 4: a Hamiltonian family leaves the kernel block of drho empty
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(z)
    rho = DensityMatrix((q * [0.7, 0.3, 0.0, 0.0]) @ q.conj().T)
    h = random_hermitian(rng, 4)
    assert_matches_reference(rho, 1j * (h @ rho.mat - rho.mat @ h))


# ----------------------------------------------------------------------- sld


def padded(mat, d):
    """``mat`` in the top-left block of a d x d zero matrix."""
    out = np.zeros((d, d), dtype=complex)
    n = len(mat)
    out[:n, :n] = mat
    return out


def mixed_sld_stack():
    """(rho, drho) stacks of d = 3 with batch shape (2, 2): a pure and a
    full-rank PPAFamily qubit padded with a zero level, then a rank-2 and a
    full-rank qutrit with Hamiltonian derivatives (so no kernel block of
    drho carries weight)."""
    rng = np.random.default_rng(31)
    rhos, drhos = [], []
    for v in (1.0, 0.9):
        fam = PPAFamily(t=0.3, v=v)
        rhos.append(padded(fam.state(0.4).mat, 3))
        drhos.append(padded(fam.derivative(0.4), 3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    for rho in ((q * [0.6, 0.4, 0.0]) @ q.conj().T, random_density(rng, 3).mat):
        h = random_hermitian(rng, 3)
        rhos.append(rho)
        drhos.append(1j * (h @ rho - rho @ h))
    shape = (2, 2, 3, 3)
    return DensityMatrix(np.reshape(rhos, shape)), np.reshape(drhos, shape)


def test_sld_stack_matches_per_instance_calls():
    rho, drho = mixed_sld_stack()
    res = sld(rho, drho)
    assert res.lam.shape == (2, 2, 3, 3)
    assert res.qfi.shape == res.residual.shape == (2, 2)
    for k in np.ndindex(2, 2):
        one = sld(DensityMatrix(rho.mat[k]), drho[k])
        scale = max(1.0, np.abs(one.lam).max())
        assert np.abs(res.lam[k] - one.lam).max() <= 1e-12 * scale
        assert abs(res.qfi[k] - one.qfi) <= 1e-12 * max(1.0, one.qfi)
        assert abs(res.residual[k] - one.residual) <= 1e-12
    # the padded qubits solve as the qubits themselves
    for k, v in (((0, 0), 1.0), ((0, 1), 0.9)):
        fam = PPAFamily(t=0.3, v=v)
        qubit = sld(fam.state(0.4), fam.derivative(0.4))
        scale = max(1.0, np.abs(qubit.lam).max())
        assert np.abs(res.lam[k] - padded(qubit.lam, 3)).max() <= 1e-12 * scale
        assert abs(res.qfi[k] - qubit.qfi) <= 1e-12 * max(1.0, qubit.qfi)


def test_sld_stack_errors_name_the_instance():
    rho, drho = mixed_sld_stack()
    flat_rho = DensityMatrix(rho.mat.reshape(4, 3, 3))
    flat = drho.reshape(4, 3, 3)
    skew = flat.copy()
    skew[2, 0, 1] += 1e-6
    with pytest.raises(ValueError, match=r"^instance 2: drho must be Hermitian"):
        sld(flat_rho, skew)
    traceful = flat.copy()
    traceful[3] += 1e-8 * np.eye(3)
    with pytest.raises(ValueError, match=r"^instance 3: drho must be traceless"):
        sld(flat_rho, traceful)
    # the kernel of the rank-2 qutrit (instance 2) gets weight 1e-3
    unreachable = flat.copy()
    kernel = np.linalg.eigh(flat_rho.mat[2])[1][:, 0]
    unreachable[2] += 1e-3 * (np.outer(kernel, kernel.conj()) - np.eye(3) / 3)
    with pytest.raises(ValueError, match=r"^instance 2: drho has weight"):
        sld(flat_rho, unreachable)
    # a batch with two batch axes names the instance by its index tuple
    with pytest.raises(ValueError, match=r"^instance \(1, 0\): drho must be Hermitian"):
        sld(rho, skew.reshape(2, 2, 3, 3))


def test_sld_single_instance_returns_floats():
    fam = PPAFamily(t=0.5, v=0.98)
    res = sld(fam.state(0.2), fam.derivative(0.2))
    assert type(res.qfi) is float and type(res.residual) is float
    assert res.lam.shape == (2, 2)


def test_family_grid_is_one_evaluation_of_the_per_point_calls():
    # the grid as (v, theta, t) batch axes, as verify's grid suites solve
    # it, is bit for bit the per-point route
    vs = (1.0, 0.98)
    fam = PPAFamily(t=np.array(T_GRID), v=np.array(vs)[:, None, None])
    theta = np.array(THETA_GRID)[:, None]
    rho, drho = fam.state(theta), fam.derivative(theta)
    res = sld(rho, drho)
    axes = np.array([[optimal_measurement(th, t) for t in T_GRID] for th in THETA_GRID])
    classical = cfi(axes, fam, theta)
    assert rho.mat.shape == (2, 7, 6, 2, 2) and classical.shape == (2, 7, 6)
    for i, j, k in np.ndindex(2, 7, 6):
        one = PPAFamily(t=T_GRID[k], v=vs[i])
        th = THETA_GRID[j]
        assert np.array_equal(rho.mat[i, j, k], one.state(th).mat)
        assert np.array_equal(drho[i, j, k], one.derivative(th))
        ref = sld(one.state(th), one.derivative(th))
        assert np.array_equal(res.lam[i, j, k], ref.lam)
        assert res.qfi[i, j, k] == ref.qfi
        assert classical[i, j, k] == cfi(axes[j, k], one, th)


def test_family_and_cfi_stacks_name_the_instance():
    with pytest.raises(ValueError, match=r"^instance 1: PPAFamily requires 0 < \|t\|"):
        PPAFamily(t=np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match=r"^instance 2: visibility must lie in"):
        PPAFamily(t=0.5, v=np.array([1.0, 0.9, 0.0]))
    fam = PPAFamily(t=0.5)
    # at theta = 0 the state is |0>, so the +z read-out gives q = 1
    axes = [optimal_measurement(0.0, 0.5), (0.0, 0.0, 1.0)]
    with pytest.raises(ValueError, match=r"^instance 1: outcome prob"):
        cfi(np.array(axes), fam, 0.0)


def test_family_rejects_a_theta_at_which_nothing_survives():
    # its states are built unchecked, so a vanished or non-finite survival
    # probability is named, not returned as a nan state
    fam = PPAFamily(t=np.array([0.5, 1e-200]))
    with pytest.raises(ValueError, match=r"^instance 1: survival probability 0\.000e\+00 "):
        fam.state_and_derivative(0.0)
    with pytest.raises(ValueError, match=r"^survival probability nan leaves no state$"):
        PPAFamily(t=0.5).state(math.nan)


def test_grid_suite_summaries_are_pinned():
    # the CFI = QFI summary of the per-instance loop it replaced, and the
    # Sylvester summaries of its draws by d
    grid = "[cfi-equals-qfi] n=84 max_residual=8.784e-15 threshold=1.0e-08 PASS"
    assert cfi_qfi_suite().summary() == grid
    assert sylvester_suite(0).summary() == (
        "[sylvester-residual] n=184 max_residual=2.090e-15 threshold=1.0e-08 PASS"
    )
    assert sylvester_suite(5).summary() == (
        "[sylvester-residual] n=184 max_residual=2.881e-15 threshold=1.0e-08 PASS"
    )



def test_sld_zero_derivative():
    res = sld(DensityMatrix(np.eye(2) / 2), np.zeros((2, 2)))
    assert res.qfi == 0.0
    assert np.abs(res.lam).max() < 1e-12


def test_sld_unfiltered_pure_family_gives_unit_information():
    # no filter: QFI of the imprinted pure family is the eigenvalue spread
    # squared, here exactly 1
    fam = PPAFamily(t=1.0, v=1.0)
    for theta in (0.05, 0.3, 1.0, 2.0):
        res = sld(fam.state(theta), fam.derivative(theta))
        assert abs(res.qfi - 1.0) < 1e-10


def test_sld_reproduces_closed_form_qfi():
    fam = PPAFamily(t=0.5, v=1.0)
    res = sld(fam.state(0.2), fam.derivative(0.2))
    assert abs(res.qfi - 3.7711148807566075) < 1e-9 * 3.7711
    assert res.residual < 1e-8


def test_sld_is_hermitian_with_small_residual():
    for _ in range(20):
        d = int(RNG.integers(2, 5))
        rho = random_density(RNG, d)
        h = random_hermitian(RNG, d)
        drho = 1j * (h @ rho.mat - rho.mat @ h)
        res = sld(rho, drho)
        assert np.abs(res.lam - res.lam.conj().T).max() < 1e-10
        assert res.residual < 1e-8
        assert res.qfi >= 0.0


def test_sld_mixed_qubit_matches_bloch_formula():
    # for a qubit, QFI = |r'|^2 + (r . r')^2 / (1 - r^2)
    for _ in range(15):
        r = RNG.normal(size=3)
        r *= RNG.uniform(0.1, 0.95) / np.linalg.norm(r)
        dr = RNG.normal(size=3)
        rho = DensityMatrix((ID2 + np.tensordot(r, PAULIS, 1)) / 2)
        drho = (dr[0] * SIGMA_X + dr[1] * SIGMA_Y + dr[2] * np.diag([1.0, -1.0])) / 2
        expected = dr @ dr + (r @ dr) ** 2 / (1.0 - r @ r)
        res = sld(rho, np.asarray(drho, dtype=complex))
        assert abs(res.qfi - expected) < 1e-8 * max(1.0, expected)


def test_sld_rejects_traceful_derivative():
    with pytest.raises(ValueError):
        sld(DensityMatrix(np.eye(2) / 2), np.eye(2))


def test_sld_rejects_unreachable_derivative():
    # rank-1 state in d=3 with a derivative living entirely in its kernel
    rho = DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
    drho = np.diag([0.0, 1.0, -1.0]).astype(complex)
    with pytest.raises(
        ValueError, match=r"^drho has weight 1\.414e\+00 outside the support of rho$"
    ):
        sld(rho, drho)


# the message of a derivative with weight off the support of rho
OFF_SUPPORT = r"^drho has weight \d\.\d{3}e[-+]\d\d outside the support of rho$"


def test_qfi_bloch_matches_sld():
    # rho = (1 + r . sigma)/2 and drho = r' . sigma/2: inside the ball and on
    # the sphere qfi_bloch is sld's Tr(drho L), and on the sphere both raise
    # exactly when the radial part of r' exceeds the kernel bound
    rng = np.random.default_rng(5)

    def sld_qfi(r, dr):
        rho = DensityMatrix((ID2 + np.tensordot(r, PAULIS, 1)) / 2)
        return sld(rho, np.tensordot(dr, PAULIS, 1) / 2).qfi

    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        dr = rng.normal(size=3)
        r = rng.uniform(0.0, 0.99) * axis
        assert abs(qfi_bloch(r, dr) - sld_qfi(r, dr)) <= 1e-12 * max(1.0, sld_qfi(r, dr))
        tangent = dr - (dr @ axis) * axis
        for radial in (0.0, 1e-6, 4e-6):
            dr_s = tangent + radial * axis
            if radial / 2 > 1e-6:
                with pytest.raises(ValueError, match=OFF_SUPPORT):
                    sld_qfi(axis, dr_s)
                with pytest.raises(ValueError, match=OFF_SUPPORT):
                    qfi_bloch(axis, dr_s)
            else:
                ref = sld_qfi(axis, dr_s)
                assert abs(qfi_bloch(axis, dr_s) - ref) <= 1e-12 * max(1.0, ref)


def test_qfi_bloch_of_a_stack_is_the_per_vector_qfi():
    # inside the ball and on the sphere alike, a (2, 5, 3) stack gives the
    # per-vector values, and an unreachable derivative names its instance
    rng = np.random.default_rng(6)
    axis = rng.normal(size=(2, 5, 3))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    dr = rng.normal(size=(2, 5, 3))
    dr -= (dr * axis).sum(-1, keepdims=True) * axis  # tangent on the sphere
    r = axis * rng.uniform(0.0, 0.99, size=(2, 5, 1))
    r[:, ::2] = axis[:, ::2]
    assert list(_on_sphere((r * r).sum(-1))[1][0]) == [True, False, True, False, True]
    qfi = qfi_bloch(r, dr)
    assert qfi.shape == (2, 5)
    for k in np.ndindex(2, 5):
        assert qfi[k] == qfi_bloch(r[k], dr[k])
    dr[1, 2] += 1e-3 * axis[1, 2]
    with pytest.raises(ValueError, match=r"^instance \(1, 2\): drho has weight"):
        qfi_bloch(r, dr)
    # inside the ball, where vector 3 of this seeded set squares an r . r' whose
    # libm pow(x, 2), which NumPy's scalar ** calls, is not x * x
    rng = np.random.default_rng(1196)
    r, dr = rng.uniform(-0.57, 0.57, (16, 3)), rng.normal(size=(16, 3))
    qfi = qfi_bloch(r, dr)
    assert [qfi_bloch(r[k], dr[k]) for k in range(16)] == qfi.tolist()


def test_family_analytic_derivative_matches_finite_difference():
    step = 1e-6
    for t in (0.1, 0.5, 1.0):
        for v in (1.0, 0.9):
            fam = PPAFamily(t=t, v=v)
            for theta in (0.04, 0.3, 1.2):
                num = (fam.state(theta + step).mat - fam.state(theta - step).mat) / (
                    2 * step
                )
                assert np.abs(num - fam.derivative(theta)).max() < 1e-7


# -------------------------------------------------------------- qfi formulas


def test_qfi_theory_no_filter_limit():
    assert qfi_ppa_family(0.7, 1.0) == 1.0


def test_qfi_theory_frozen_values():
    assert abs(qfi_ppa_family(0.2, 0.5) - 3.7711148807566075) < 1e-12
    assert abs(qfi_ppa_family(0.040, 0.044) - 355.0319723664648) < 1e-9


def test_qfi_theory_small_phase_scaling():
    # for tan(theta/2) << t the information approaches (delta/t)^2
    val = qfi_ppa_family(1e-4, 0.1)
    assert abs(val - (1.0 / 0.1) ** 2) / val < 1e-3


def test_qfi_theory_grows_as_filter_weakens():
    vals = [qfi_ppa_family(0.02, t) for t in (0.5, 0.3, 0.15, 0.082, 0.044)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_qfi_theory_rejects_t_zero():
    with pytest.raises(ValueError):
        qfi_ppa_family(0.1, 0.0)


@pytest.mark.parametrize(
    "t_mag, v, match",
    [(0.0, 0.98, "t_mag"), (1.5, 0.98, "t_mag"), (0.5, 0.0, "visibility"),
     (0.5, 1.2, "visibility")],
)
def test_qfi_family_rejects_values_outside_the_family(t_mag, v, match):
    with pytest.raises(ValueError, match=match):
        qfi_ppa_family(0.1, t_mag, v)


def test_qfi_family_is_nan_where_p_underflows():
    # |t|^2 = 1e-400 underflows, so at theta = 0 and v = 1 nothing survives
    assert math.isnan(qfi_ppa_family(0.0, 1e-200))


# Each closed form of the PPA family as a function of (theta, t, v),
# returning its outputs as a tuple.
FAMILY_FORMS = {
    "survival_probability": lambda th, t, v: (
        survival_probability(np.abs(t), (1.0 - v) / 2.0 + v * np.square(np.sin(th / 2.0))),
    ),
    "postselected_bloch": lambda th, t, v: postselected_bloch(th, t, 0.02, v),
    "qfi_ppa_family": lambda th, t, v: (qfi_ppa_family(th, np.abs(t), v),),
    "kd_table_closed_form": lambda th, t, v: (kd_table_closed_form(
        np.expand_dims(v, -1) * np.stack([0.0 * th, np.sin(th), np.cos(th)], -1), t
    ),),
    "systematic_shift_t": lambda th, t, v: (systematic_shift_t(th, np.abs(t), 0.01 * v),),
    "gap4_ppa_family": lambda th, t, v: (gap4_ppa_family(th, t, v),),
}


@pytest.mark.parametrize("form", FAMILY_FORMS.values(), ids=FAMILY_FORMS.keys())
def test_family_closed_forms_broadcast_to_their_scalar_calls(form):
    # theta, t and v on three axes: one call equals the per-point scalar
    # calls bit for bit, and a scalar call gives a float where it gives
    # neither a Bloch vector nor a table
    rng = np.random.default_rng(31)
    theta = np.concatenate([-rng.uniform(0.01, 3.0, 2), rng.uniform(0.01, 3.0, 2)])
    t = np.concatenate([rng.uniform(-1.0, 1.0, 3), [1.0, 1e-8, -1e-8]])
    v = np.concatenate([rng.uniform(0.5, 1.0, 2), [1.0]])
    grid = np.broadcast_arrays(theta[:, None, None], t[:, None], v)
    outs = form(*grid)
    for k in np.ndindex(grid[0].shape):
        for whole, one in zip(outs, form(*(float(a[k]) for a in grid))):
            np.testing.assert_array_equal(whole[k], one)
            assert np.ndim(one) > 0 or isinstance(one, float)


def test_survival_probability_visibility_mix():
    # at visibility v the |1> population is (1 - v)/2 + v sin^2(theta/2)
    s = math.sin(0.1) ** 2
    p_pure = survival_probability(0.5, s)
    p_mixed = survival_probability(0.5, 0.01 + 0.98 * s)
    assert abs(p_pure - 0.2574750333095344) < 1e-15
    assert abs(p_pure - survival_theta_form(0.2, 0.5)) < 1e-15
    assert abs(p_mixed - survival_theta_form(0.2, 0.5, v=0.98)) < 1e-15


def test_theory_qfi_has_no_cancellation_at_small_theta():
    # the sin^2(theta/2) form keeps every digit where 1 - cos^2(theta/2)
    # cancels; the pinned value is (t / p)^2 evaluated in exact arithmetic
    assert qfi_ppa_family(1e-3, 1e-9) == pytest.approx(
        1.60000026665389e-05, rel=1e-12, abs=0.0
    )


def test_qfi_postselected_pure_matches_sld_route():
    gen = ppa_generator()
    for theta in (0.02, 0.2, 1.0):
        for t in (0.044, 0.3, 1.0):
            fam = PPAFamily(t=t, v=1.0)
            lhs = qfi_postselected_pure(unfiltered_state(theta), gen, make_filter(t))
            rhs = sld(fam.state(theta), fam.derivative(theta)).qfi
            assert abs(lhs - rhs) < 1e-8 * max(rhs, 1.0)


def test_qfi_postselected_pure_of_a_stack_is_the_per_instance_qfi():
    # bit for bit, on a seeded set whose instance 4 squares a value where
    # libm pow(x, 2), which NumPy's scalar ** calls, is not x * x
    rho, gen, k_plus = qubit_instances(np.random.default_rng(8), 16)
    qfi = qfi_postselected_pure(rho, gen, k_plus)
    for i in range(16):
        assert qfi_postselected_pure(DensityMatrix(rho.mat[i]), gen, k_plus[i]) == qfi[i]


def test_qfi_postselected_pure_no_filter_variance():
    # K+ = 1 gives 4 Var(A); |0> has Var(sigma_x/2) = 1/4
    val = qfi_postselected_pure(pure_state(E0), ppa_generator(), make_filter(1.0))
    assert abs(val - 1.0) < 1e-12


def test_qfi_postselected_pure_vanishes_at_t_zero():
    val = qfi_postselected_pure(unfiltered_state(0.3), ppa_generator(), make_filter(0.0))
    assert val == 0.0


def test_qfi_postselected_pure_continuous_in_t_near_zero():
    rho = unfiltered_state(0.3)
    small = qfi_postselected_pure(rho, ppa_generator(), make_filter(1e-3))
    assert abs(small - qfi_ppa_family(0.3, 1e-3)) / small < 1e-6


def test_qfi_postselected_pure_rejects_mixed_state():
    with pytest.raises(
        ValueError, match=r"^state purity 0\.5000000000; formula requires a pure state$"
    ):
        qfi_postselected_pure(
            DensityMatrix(np.eye(2) / 2), ppa_generator(), make_filter(0.5)
        )


# -------------------------------------------------------- optimal directions


def polar_angle(n):
    return math.atan2(math.hypot(n[0], n[1]), n[2])


def test_optimal_measurement_equator_at_zero_prior():
    # at zero prior the read-out lies on the equator, along -y for real t
    n = optimal_measurement(0.0, 0.3)
    assert abs(polar_angle(n) - math.pi / 2) < 1e-14
    assert n[0] == 0.0 and n[1] == -1.0


def test_optimal_measurement_frozen_value():
    n = optimal_measurement(0.2, 0.5)
    assert abs(polar_angle(n) - 1.3226319366299182) < 1e-12


def test_optimal_measurement_azimuth_tracks_filter_phase():
    # a filter phase arg t turns the read-out by arg t about z, away from -y
    n = optimal_measurement(0.1, 0.3 * np.exp(1j * 0.8))
    assert abs(math.atan2(n[0], -n[1]) - 0.8) < 1e-14


def read_out_from_angles(theta_prior, t):
    """The read-out by its earlier definition: (polar, azimuth) angles in a
    frame with axes (-y, +x, z), azimuth folded into [-pi, pi), then turned
    into a standard Bloch vector."""
    t = complex(t)
    mag = abs(t)
    cot = (1.0 + mag**2) / (2.0 * mag) * math.tan(theta_prior)
    polar = math.pi / 2.0 - math.atan(cot)
    azimuth = math.atan2(t.imag, t.real)
    if azimuth >= math.pi:
        azimuth = -math.pi
    x_f = math.sin(polar) * math.cos(azimuth)
    y_f = math.sin(polar) * math.sin(azimuth)
    return np.array([y_f, -x_f, math.cos(polar)])


def test_optimal_measurement_matches_the_angle_formula():
    ts = (*T_GRID, -0.044, -0.5, -1.0, 0.5 * cmath.exp(0.8j), 0.2 * cmath.exp(-2.5j))
    for theta in (*THETA_GRID, -0.3):
        for t in ts:
            n = optimal_measurement(theta, t)
            assert np.abs(n - read_out_from_angles(theta, t)).max() <= 1e-15
            assert abs(np.linalg.norm(n) - 1.0) < 1e-14


def test_optimal_measurement_of_arrays_is_the_per_point_direction():
    # bit for bit, on a seeded set whose point 0 squares a |t| where libm
    # pow(x, 2), which NumPy's scalar ** calls, is not x * x
    rng = np.random.default_rng(1497)
    theta, t = rng.uniform(-1.5, 1.5, 8), rng.uniform(0.0, 1.0, 8)
    n = optimal_measurement(theta, t)
    assert n.shape == (8, 3)
    for k in range(8):
        assert n[k].tolist() == optimal_measurement(theta[k], t[k]).tolist()


def test_optimal_measurement_rejects_t_zero():
    with pytest.raises(ValueError):
        optimal_measurement(0.1, 0.0)


def test_cfi_attains_qfi_along_optimal_direction():
    for v in (1.0, 0.98):
        for theta in THETA_GRID:
            for t in T_GRID:
                fam = PPAFamily(t=t, v=v)
                qfi = sld(fam.state(theta), fam.derivative(theta)).qfi
                c = cfi(optimal_measurement(theta, t), fam, theta)
                assert abs(c - qfi) / qfi < 1e-10


def test_cfi_never_exceeds_qfi():
    for _ in range(60):
        theta = float(RNG.uniform(0.02, 1.5))
        t = float(RNG.uniform(0.05, 1.0))
        v = float(RNG.choice([1.0, 0.98]))
        fam = PPAFamily(t=t, v=v)
        qfi = sld(fam.state(theta), fam.derivative(theta)).qfi
        polar = float(RNG.uniform(0, math.pi))
        azimuth = float(RNG.uniform(-math.pi, math.pi))
        n = (
            math.sin(polar) * math.cos(azimuth),
            math.sin(polar) * math.sin(azimuth),
            math.cos(polar),
        )
        try:
            c = cfi(n, fam, theta)
        except ValueError as exc:
            assert str(exc).endswith(" carries no information")
            continue
        assert c <= qfi + 1e-9


def test_cfi_poor_direction_loses_information():
    # measuring along the state's own Bloch axis is nearly blind
    fam = PPAFamily(t=0.5, v=0.98)
    theta = 0.2
    r = bloch_vector(fam.state(theta))
    qfi = sld(fam.state(theta), fam.derivative(theta)).qfi
    assert cfi(r / np.linalg.norm(r), fam, theta) < 5e-3 * qfi


def test_cfi_finite_difference_path():
    # cfi's analytic q' agrees with a central difference of q with step 1e-5
    fam = PPAFamily(t=0.5, v=1.0)
    n = optimal_measurement(0.2, 0.5)

    def q(theta):
        return (1.0 + float(n @ bloch_vector(fam.state(theta)))) / 2.0

    dq = (q(0.2 + 1e-5) - q(0.2 - 1e-5)) / 2e-5
    numeric = dq**2 / (q(0.2) * (1.0 - q(0.2)))
    exact = cfi(n, fam, 0.2)
    assert abs(numeric - exact) / exact < 1e-6


def test_cfi_rejects_degenerate_outcome():
    fam = PPAFamily(t=0.5, v=1.0)
    # at theta = 0 the state is |0>; the +z read-out gives q = 1
    with pytest.raises(
        ValueError, match=r"^outcome probability 1\.000e\+00 carries no information$"
    ):
        cfi((0.0, 0.0, 1.0), fam, 0.0)


# ------------------------------------------------------------- closed-form L


def sld_closed_form(theta: float, t: complex, v: float) -> np.ndarray:
    """Closed-form SLD of the visibility-v postselected family.

    -(v / p_ps) * [ (1-|t|^2)/2 sin(theta) 1
                    + cos(theta) (Im t sigma_x - Re t sigma_y)
                    + (1+|t|^2)/2 sin(theta) sigma_z ]

    with p_ps the visibility-v survival probability.  For v < 1 this equals
    :func:`sld` of the family exactly; at v = 1 it remains a valid SLD but
    differs from the minimum-norm solution by a kernel shift.
    """
    t = complex(t)
    mag = abs(t)
    p = survival_theta_form(theta, mag, v=v)
    bracket = (
        (1.0 - mag**2) / 2.0 * math.sin(theta) * ID2
        + math.cos(theta) * (t.real * -SIGMA_Y + t.imag * SIGMA_X)
        + (1.0 + mag**2) / 2.0 * math.sin(theta) * SIGMA_Z
    )
    return -(v / p) * bracket



def test_sld_closed_form_equals_solver_for_mixed_family():
    for v in (0.98, 0.9, 0.7):
        for theta in (0.04, 0.2, 0.9):
            for t in (0.15, 0.5, 1.0):
                fam = PPAFamily(t=t, v=v)
                lam = sld(fam.state(theta), fam.derivative(theta)).lam
                assert np.abs(lam - sld_closed_form(theta, t, v)).max() < 1e-9


def test_sld_closed_form_axis_matches_optimal_direction():
    for v in (0.98, 0.9):
        for theta in THETA_GRID:
            for t in T_GRID:
                ang = axis_angle(
                    sld_axis(sld_closed_form(theta, t, v)), optimal_measurement(theta, t)
                )
                assert ang < 1e-12


def test_sld_closed_form_equator_axis_at_zero_phase():
    # at theta = 0 the SLD is proportional to -sigma_y, the read-out's Pauli
    lam = sld_closed_form(0.0, 0.5, 1.0)
    assert abs(np.trace(lam).real) < 1e-12
    assert np.abs(lam + (0.5 / survival_theta_form(0.0, 0.5)) * (-SIGMA_Y)).max() < 1e-12
