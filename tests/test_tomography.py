import math

import numpy as np
import pytest

from ppasim.bench import postselected_bloch
from ppasim.fisher import PPAFamily, qfi_bloch, qfi_ppa_family, sld
from ppasim.quasiprob import kd_distribution, kd_table_closed_form, nonclassicality_gap
from ppasim.states import (
    ID2,
    PAULIS,
    DensityMatrix,
    amplified_angle,
)
from ppasim.tomography import DEFAULT_DTHETA, simulate_tomography

from matrix_reference import bloch_vector, condition, ppa_povm_sequence, unfiltered_state


def density(r):
    return DensityMatrix((ID2 + np.tensordot(r, PAULIS, 1)) / 2)


def fidelity(rho, sigma):
    """Pure-vs-mixed shortcut is not enough here; use the full formula."""
    w, v = np.linalg.eigh(rho.mat)
    sq = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
    inner = sq @ sigma.mat @ sq
    wi = np.linalg.eigvalsh(inner)
    return float(np.sqrt(np.clip(wi, 0, None)).sum() ** 2)


# ------------------------------------------------------------- reconstruction


def test_finite_shots_converge_to_truth():
    rho = PPAFamily(t=0.5, v=0.95).state(0.4)
    failures = 0
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        r_est = simulate_tomography(bloch_vector(rho), 10**5, rng)
        if fidelity(density(r_est), rho) < 0.999:
            failures += 1
    assert failures <= 2


def test_expectations_are_unbiased():
    # the state sits well inside the ball, so no estimate is clipped
    rho = PPAFamily(t=0.5, v=0.9).state(0.7)
    truth = bloch_vector(rho)
    rng = np.random.default_rng(7)
    samples = np.array([simulate_tomography(truth, 2000, rng) for _ in range(400)])
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
    assert np.all(np.abs(mean - truth) < 4 * se + 1e-12)


def test_reconstruction_is_always_physical():
    # near-pure truth: raw linear inversion often leaves the Bloch ball,
    # the clipped estimate must not (its smaller eigenvalue is (1 - |r|)/2)
    r = bloch_vector(PPAFamily(t=0.5).state(0.4))
    rng = np.random.default_rng(3)
    for _ in range(50):
        r_est = simulate_tomography(r, 200, rng)
        assert (1.0 - np.linalg.norm(r_est)) / 2.0 >= -1e-12


def test_finite_shots_require_rng():
    r = bloch_vector(PPAFamily(t=0.5).state(0.4))
    with pytest.raises(TypeError):
        simulate_tomography(r, 100)
    with pytest.raises(ValueError):
        simulate_tomography(r, 0, np.random.default_rng(0))


def test_stack_draws_like_one_call_per_vector():
    # a (2, 4, 3) stack is drawn in C order by one binomial call: the same
    # counts as per-vector calls on an equal stream, and the same estimates
    family = PPAFamily(t=0.5, v=0.9)
    truth = np.array([bloch_vector(family.state(th)) for th in (0.1, 0.4, 0.8, 1.5)])
    stack = np.broadcast_to(truth, (2, 4, 3))
    got = simulate_tomography(stack, 500, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    ref = [simulate_tomography(r, 500, rng) for r in stack.reshape(-1, 3)]
    assert np.array_equal(got.reshape(-1, 3), np.array(ref))
    bad = stack.copy()
    bad[1, 2, 0] = 1.5
    with pytest.raises(ValueError, match=r"^instance \(1, 2\): "):
        simulate_tomography(bad, 500, np.random.default_rng(5))


# ------------------------------------------------------------ angle read-out


def polar_angle(rho):
    """Polar Bloch angle of a qubit state, measured from +z."""
    x, y, z = bloch_vector(rho)
    return math.atan2(math.hypot(x, y), z)


def test_amplified_angle_from_state_matches_theory():
    for theta in (0.05, 0.3, 1.0):
        for t in (0.1, 0.5, 0.9):
            rho = PPAFamily(t=t).state(theta)
            assert polar_angle(rho) == pytest.approx(
                amplified_angle(theta, t), abs=1e-12
            )


def test_amplified_angle_from_state_frozen():
    rho = PPAFamily(t=0.044).state(0.040)
    assert polar_angle(rho) == pytest.approx(
        0.8533554566561224, abs=1e-12
    )


def test_amplified_angle_from_state_balanced_point():
    # tan(theta/2) = t puts the postselected state on the equator
    rho = PPAFamily(t=math.tan(0.2)).state(0.4)
    assert polar_angle(rho) == pytest.approx(math.pi / 2, abs=1e-12)


def test_amplified_angle_from_state_is_length_invariant():
    # the read-out is a direction: shrinking the Bloch vector uniformly
    # (pure dephasing/depolarization after postselection) leaves it fixed
    rho = PPAFamily(t=0.3).state(0.2)
    r = bloch_vector(rho)
    shrunk = DensityMatrix((ID2 + np.tensordot(0.55 * r, PAULIS, 1)) / 2)
    assert np.abs(bloch_vector(shrunk) - 0.55 * r).max() < 1e-15
    assert polar_angle(shrunk) == pytest.approx(
        polar_angle(rho), abs=1e-12
    )


def test_amplified_angle_from_state_mixing_biases_toward_equator():
    # the depolarized component is itself reshaped by the filter, so the
    # family's v < 1 states sit at a *different* polar angle than the pure
    # ones -- pin the direction of that motion
    a = polar_angle(PPAFamily(t=0.3).state(0.2))
    b = polar_angle(PPAFamily(t=0.3, v=0.9).state(0.2))
    assert b > a


# ---------------------------------------------------------------- information


def test_empirical_qfi_exact_inputs():
    fam = PPAFamily(t=0.5)
    val = sld(fam.state(0.2), fam.derivative(0.2)).qfi
    assert val == pytest.approx(3.7711148807566075, abs=1e-9)


def test_empirical_qfi_open_filter_is_unit():
    fam = PPAFamily(t=1.0)
    val = sld(fam.state(0.7), fam.derivative(0.7)).qfi
    assert val == pytest.approx(1.0, abs=1e-10)


def test_empirical_qfi_discretization_error_budget():
    # noiseless three-point tomography: the only error is the symmetric
    # finite difference; it stays under 7e-3 relative on the working grid
    # and under 1e-3 once the fringe flattens out at large theta
    dt = DEFAULT_DTHETA
    for theta in (0.1, 0.2, 0.5, 1.0, 1.5):
        for t in (0.3, 0.5, 1.0):
            fam = PPAFamily(t=t, v=0.98)
            r = [postselected_bloch(theta + k * dt, t, 0.0, 0.98)[0] for k in (-1, 0, 1)]
            est = qfi_bloch(r[1], (r[2] - r[0]) / (2 * dt))
            truth = sld(fam.state(theta), fam.derivative(theta)).qfi
            rel = abs(est - truth) / truth
            assert rel < 7e-3
            if theta >= 1.0:
                assert rel < 3e-3


# ------------------------------------------------------- conditional read-out


def unfiltered_bloch(theta, v=1.0):
    """fig4's exact unfiltered vector: the bench map with an open filter."""
    return postselected_bloch(theta, 1.0, 0.0, v)[0]


def test_kd_from_tomography_matches_closed_form():
    # fig4's gap route (closed-form table of the t = 1 bench vector) against
    # the conditioned (A, filter, A) quasidistribution of the family's state
    for theta in (0.05, 0.2, 0.8):
        for t in (0.1, 0.5, 0.9):
            rho = unfiltered_state(theta)
            cond = condition(kd_distribution(rho, ppa_povm_sequence(t)), 1, 0)
            table = kd_table_closed_form(unfiltered_bloch(theta), t)
            assert np.abs(table - cond).max() < 1e-12


def test_kd_from_tomography_open_filter():
    table = kd_table_closed_form(unfiltered_bloch(0.3), 1.0)
    assert np.abs(table - np.diag([0.5, 0.5])).max() < 1e-12


def test_kd_from_tomography_of_a_dead_slice_is_nan():
    # theta = 0 leaves the state at |0>, which t = 0 blocks entirely: there
    # is no conditional table, so the table and its gap are nan
    table = kd_table_closed_form(unfiltered_bloch(0.0), 0.0)
    assert table.shape == (2, 2) and np.isnan(table).all()
    assert math.isnan(nonclassicality_gap(table))


def test_kd_from_tomography_accepts_reconstructed_input():
    # noisy but full gap read-out: estimate the unfiltered vector from
    # counts, take its conditional table, compare to the exact table within
    # a loose statistical band
    theta, t = 0.2, 0.5
    r = unfiltered_bloch(theta, 0.98)
    rng = np.random.default_rng(21)
    table = kd_table_closed_form(simulate_tomography(r, 10**6, rng), t)
    truth = kd_table_closed_form(r, t)
    assert np.abs(table - truth).max() < 5e-3


# ----------------------------------------------------------- noisy end-to-end


def test_noisy_qfi_pipeline_is_consistent():
    # full figure pipeline at one grid point: three tomography runs,
    # finite difference, radial clipping -- repeated estimates must
    # scatter around the same-visibility family truth
    theta, t, v = 0.2, 0.5, 0.98
    fam = PPAFamily(t=t, v=v)
    truth = sld(fam.state(theta), fam.derivative(theta)).qfi
    dt = DEFAULT_DTHETA
    exact = [postselected_bloch(theta + k * dt, t, 0.0, v)[0] for k in (-1, 0, 1)]
    rng = np.random.default_rng(99)
    vals = []
    for _ in range(12):
        r = [simulate_tomography(x, 10**5, rng) for x in exact]
        vals.append(qfi_bloch(r[1], (r[2] - r[0]) / (2 * dt)))
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - truth) < 4 * se + 5e-3 * truth
    assert qfi_ppa_family(theta, t) == pytest.approx(3.7711148807566075, abs=1e-12)


def test_density_from_bloch_round_trip_guard():
    # helper used throughout the suite; pin the orientation convention here
    rho = DensityMatrix((ID2 + np.tensordot([0.0, 0.0, -1.0], PAULIS, 1)) / 2)
    assert np.allclose(rho.mat, np.diag([0.0, 1.0]))
