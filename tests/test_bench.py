import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ppasim import cli
from ppasim.bench import (
    SweepRecord,
    MAX_COUNT,
    MIN_AMPLITUDE,
    STAGE_COUNTS,
    _draw_counts,
    _fringe_params,
    _half_count_frequency,
    _invert_frequency,
    _moments,
    postselected_bloch,
    rng_stream,
    run_trials,
    systematic_shift_t,
)
from ppasim.cli import SweepSpec
from ppasim.fisher import (
    optimal_measurement,
    ppa_family,
    qfi_ppa_family,
    survival_probability,
)
from ppasim.states import (
    ID2,
    SIGMA_X,
    SIGMA_Z,
    amplified_angle,
    make_filter,
    phase_unitary,
)
from ppasim.verify import T_GRID, THETA_GRID

from matrix_reference import (
    bloch_vector,
    density_matrix,
    generator,
    half_count_frequency_reference,
    invert_frequency_reference,
    moments_reference,
    run_point,
    survival_theta_form,
)


def matrix_pipeline(theta, t, epsilon, visibility):
    """Reference for postselected_bloch: the bench as 2x2 density matrices.

    Source v|1><1| + (1 - v) 1/2, conjugation by exp(i (theta - pi) G) with
    the misaligned waveplate generator G = n.sigma/2, n = (cos 2eps, 0, sin 2eps),
    whose eigenvalues -1/2 and 1/2 have projectors (1 -+ n.sigma)/2, then
    K+ rho K+^dag renormalized by its trace.
    """
    rho = visibility * np.diag([0.0, 1.0]) + (1.0 - visibility) * ID2 / 2
    n_sigma = math.cos(2 * epsilon) * SIGMA_X + math.sin(2 * epsilon) * SIGMA_Z
    gen = generator(n_sigma / 2, [-0.5, 0.5], [(ID2 - n_sigma) / 2, (ID2 + n_sigma) / 2])
    u = phase_unitary(gen, theta - math.pi)
    k = make_filter(t)
    num = k @ u @ rho @ u.conj().T @ k.conj().T
    p = float(np.trace(num).real)
    return density_matrix(num / p), p


def check_sweep_point(theta_true=0.1, t_set=0.5, **fields):
    """The sweep's input check on the one-point grid (theta_true, t_set), with
    the other SweepSpec fields as given; run_trials checks only the sampling mode."""
    spec = SweepSpec(theta_list=[theta_true], t_list=[t_set], **fields)
    cli._check("sweep", spec)


def polar_angle(r):
    return math.atan2(math.hypot(r[0], r[1]), r[2])


# ------------------------------------------------------------------- sources


def test_source_state_pure_limit():
    # an open filter at theta = 0 turns the vertical source by pi onto +z
    r, p = postselected_bloch(0.0, 1.0, 0.0, 1.0)
    assert np.allclose(r, [0, 0, 1], atol=1e-15)
    assert p == pytest.approx(1.0, abs=1e-15)


def test_source_state_fully_mixed():
    # the unpolarized limit passes (1 + |t|^2)/2 and leaves along z
    r, p = postselected_bloch(0.7, 0.5, 0.0, 1e-12)
    assert p == pytest.approx((1 + 0.25) / 2, abs=1e-11)
    assert np.allclose(r, [0, 0, (0.25 - 1) / (0.25 + 1)], atol=1e-11)


def test_source_state_partial_visibility():
    r, _ = postselected_bloch(0.0, 1.0, 0.0, 0.98)
    assert np.allclose(r, [0, 0, 0.98], atol=1e-15)


def test_source_state_rejects_out_of_range():
    with pytest.raises(ValueError, match="^visibility: "):
        check_sweep_point(visibility=1.2)


def test_waveplate_generator_aligned():
    # at eps = 0 the plate turns about x: the state stays in the y-z plane
    for theta in (0.05, 0.4, 1.3):
        r, _ = postselected_bloch(theta, 1.0, 0.0, 1.0)
        assert abs(r[0]) < 1e-15
        assert r[1] == pytest.approx(math.sin(theta), abs=1e-15)


def test_waveplate_generator_spread_is_tilt_independent():
    # the misaligned generator keeps eigenvalue spread 1: tilting the axis
    # keeps the rotation angle at pi - theta
    theta = 0.3
    for eps in (0.0, 0.01, 0.1, -0.05):
        n = np.array([math.cos(2 * eps), 0.0, math.sin(2 * eps)])
        r, _ = postselected_bloch(theta, 1.0, eps, 1.0)
        r0 = np.array([0.0, 0.0, -1.0])
        a, b = r0 - n * (n @ r0), r - n * (n @ r)
        cos_turn = (a @ b) / (a @ a)
        assert r @ n == pytest.approx(r0 @ n, abs=1e-15)
        assert cos_turn == pytest.approx(math.cos(math.pi - theta), abs=1e-14)


# --------------------------------------------------------------------- state


def test_postselected_bloch_matches_matrix_pipeline():
    rng = np.random.default_rng(31)
    for _ in range(300):
        # a real amplitude of either sign
        t = rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 1.0)
        args = (
            float(rng.uniform(-3.1, 3.1)),
            float(t),
            float(rng.uniform(-0.7, 0.7)),
            float(rng.uniform(0.01, 1.0)),
        )
        r, p = postselected_bloch(*args)
        rho_ref, p_ref = matrix_pipeline(*args)
        assert np.abs(r - bloch_vector(rho_ref)).max() <= 1e-12
        assert abs(p - p_ref) <= 1e-12


def test_postselected_bloch_survival_is_the_closed_forms_bit_for_bit():
    # at eps = 0 the bench reads the closed forms' |1> population, so its p
    # is theirs exactly, also where (1 - z)/2 of a turned vector would cancel
    def family_p(theta, t, v):
        return survival_probability(t, (1.0 - v) / 2.0 + v * np.square(np.sin(theta / 2.0)))

    theta, t = np.array(THETA_GRID)[:, None], np.array(T_GRID)
    for v in (1.0, 0.98, 0.5):
        assert np.array_equal(postselected_bloch(theta, t, 0.0, v)[1], family_p(theta, t, v))
    for theta in (1e-3, 1e-6, 1e-8):
        for t in (1e-9, 1e-6, math.tan(theta / 2.0)):
            assert postselected_bloch(theta, t, 0.0, 1.0)[1] == family_p(theta, t, 1.0)


def test_postselected_bloch_stays_pure_at_small_phases():
    # the pure family stays on the sphere at the gain's peak t = tan(theta/2),
    # where the survivors are a few in 1/theta^2
    for k in range(2, 8):
        theta = 10.0**-k
        r, _ = postselected_bloch(theta, math.tan(theta / 2.0), 0.0, 1.0)
        assert abs(np.linalg.norm(r) - 1.0) <= 4.5e-16


def test_postselected_bloch_zero_phase_has_no_y_component():
    for t, eps, v in ((0.5, 0.0, 1.0), (0.044, 0.1, 0.98), (-1.0, -0.3, 0.5)):
        r, _ = postselected_bloch(0.0, t, eps, v)
        assert r[1] == 0.0


def test_postselected_bloch_zero_phase_ideal():
    r, p = postselected_bloch(0.0, 0.5, 0.0, 1.0)
    assert p == pytest.approx(0.25)
    assert np.allclose(r, [0.0, 0.0, 1.0])


def test_postselected_bloch_survival_probability_frozen():
    _, p = postselected_bloch(0.040, 0.044, 0.0, 1.0)
    assert p == pytest.approx(0.0023351723727588563, abs=1e-15)


def test_postselected_bloch_open_filter_passes_everything():
    _, p = postselected_bloch(0.3, 1.0, 0.0, 1.0)
    assert p == pytest.approx(1.0)


def test_postselected_bloch_matches_family():
    for theta in (0.05, 0.3, 1.1):
        for t in (0.2, 0.7):
            r, p = postselected_bloch(theta, t, 0.0, 0.97)
            assert p == pytest.approx(survival_theta_form(theta, t, v=0.97), abs=1e-12)
            assert np.abs(r - bloch_vector(ppa_family(theta, t, 0.97)[0])).max() < 1e-12


def test_postselected_bloch_amplifies_the_polar_angle():
    r, _ = postselected_bloch(0.1, 0.2, 0.0, 1.0)
    assert polar_angle(r) == pytest.approx(amplified_angle(0.1, 0.2), abs=1e-12)


def test_postselected_bloch_zero_survival_stays_finite():
    # t = 0 at theta = 0 blocks the whole imprinted state
    r, p = postselected_bloch(0.0, 0.0, 0.0, 1.0)
    assert p < 1e-30
    assert np.all(np.isfinite(r))


# ---------------------------------------------------------------- estimation


class NoDataError(ValueError):
    """No photon survived postselection; nothing to estimate from."""


def estimate_theta(counts_plus, n_detected, t_assumed, n, theta_prior):
    """Reference estimator of one point: invert its trials' fringe frequencies.

    ``counts_plus`` and ``n_detected`` are per-trial counts of equal shape.
    Each empirical frequency is clamped to half a count away from 0 and 1,
    and to the fringe's achievable range; the arccos branch nearest the
    amplified prior is taken and mapped back through the assumed amplitude.
    Returns ``(estimates, clamped)``, where ``clamped`` marks the trials
    whose frequency fell outside the fringe's range.  Raises NoDataError
    when any trial detected nothing, and ValueError for a fringe without
    contrast.
    """
    if np.any(np.asarray(n_detected) == 0):
        raise NoDataError("no detected photons in a trial")
    if not 0.0 < t_assumed <= 1.0 + 1e-12:
        raise ValueError("t_assumed must lie in (0, 1]")
    r, psi = _fringe_params(n)
    if r < 1e-12:
        raise ValueError("measurement direction carries no fringe contrast")
    return _invert_frequency(
        _half_count_frequency(counts_plus, n_detected),
        r,
        psi,
        t_assumed,
        amplified_angle(theta_prior, t_assumed),
    )


def unit_vector(polar, azimuth):
    """Unit Bloch vector at spherical angles (polar, azimuth) about z."""
    s = math.sin(polar)
    return np.array([s * math.cos(azimuth), s * math.sin(azimuth), math.cos(polar)])


# The equatorial read-out -y turned by pi/4 about z: fringe contrast 1/sqrt(2).
TILTED = unit_vector(math.pi / 2, -math.pi / 4)


def read_out_frequency(theta, t, n):
    """Exact +1 frequency of the family's state along the unit Bloch vector n."""
    return (1.0 + float(n @ bloch_vector(ppa_family(theta, t)[0]))) / 2.0


def exact_counts(theta, t, n, totals):
    """Noise-free plus counts at the model frequency for each of the totals."""
    totals = np.asarray(totals)
    return np.round(totals * read_out_frequency(theta, t, n)).astype(np.int64), totals


def test_estimate_theta_recovers_truth_from_exact_counts():
    for theta in (0.05, 0.2, 0.9):
        for t in (0.1, 0.5, 0.9):
            n = optimal_measurement(theta, t)
            totals = [10**9, 3 * 10**9, 7 * 10**9]
            plus, detected = exact_counts(theta, t, n, totals)
            est, clamped = estimate_theta(plus, detected, t, n, theta)
            assert est.shape == (3,)
            assert np.all(np.abs(est - theta) < 1e-8)
            assert not clamped.any()


def test_invert_frequency_reproduces_calibration_shift():
    # feed the estimator the exact physical frequency while it assumes a
    # miscalibrated transmission: the output must land on the closed-form
    # shifted angle
    theta, t, dt = 0.1, 0.1, 0.01
    n = optimal_measurement(theta, t + dt)
    q = read_out_frequency(theta, t, n)
    est, clamped = _invert_frequency(
        q, *_fringe_params(n), t + dt, amplified_angle(theta, t + dt)
    )
    assert not clamped
    assert est == pytest.approx(0.10998076567697557, abs=1e-12)
    assert est == pytest.approx(systematic_shift_t(theta, t, dt), abs=1e-12)


def test_half_tangent_shift_identity():
    # tan(theta_est/2) - tan(theta/2) = tan(Theta/2) * dt for exact input
    rng = np.random.default_rng(5)
    for _ in range(25):
        theta = float(rng.uniform(0.02, 1.2))
        t = float(rng.uniform(0.05, 0.8))
        dt = float(rng.uniform(-0.02, 0.02))
        est = systematic_shift_t(theta, t, dt)
        lhs = math.tan(est / 2) - math.tan(theta / 2)
        rhs = math.tan(amplified_angle(theta, t) / 2) * dt
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_invert_frequency_clamps_out_of_range():
    # an azimuthally tilted analyzer has fringe contrast below one, so a
    # saturated frequency lands outside the reachable band and is clamped
    est, clamped = _invert_frequency(
        np.array([1.0, 0.5]), *_fringe_params(TILTED), 0.5, amplified_angle(0.1, 0.5)
    )
    assert clamped.tolist() == [True, False]
    assert np.all(np.isfinite(est))


def scalar_invert_reference(f, n, t_assumed, theta_prior):
    """One-frequency fringe inversion written as a scalar loop."""
    r, psi = math.hypot(n[1], n[2]), math.atan2(n[1], n[2])
    u = (2.0 * f - 1.0) / r
    b = math.acos(min(max(u, -1.0), 1.0))
    prior_big = amplified_angle(theta_prior, t_assumed)
    best = None
    for base in (psi + b, psi - b):
        for k in (-1, 0, 1):
            cand = base + 2.0 * math.pi * k
            if best is None or abs(cand - prior_big) < abs(best - prior_big):
                best = cand
    return 2.0 * math.atan(t_assumed * math.tan(best / 2.0)), abs(u) > 1.0


def test_invert_frequency_matches_scalar_reference():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = unit_vector(rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi))
        t = float(rng.uniform(0.05, 1.0))
        prior = float(rng.uniform(-1.5, 1.5))
        f = rng.uniform(-0.05, 1.05, size=16)
        est, clamped = _invert_frequency(f, *_fringe_params(n), t, amplified_angle(prior, t))
        ref = [scalar_invert_reference(x, n, t, prior) for x in f]
        assert np.allclose(est, [e for e, _ in ref], rtol=0.0, atol=1e-12)
        assert clamped.tolist() == [c for _, c in ref]


def test_estimate_theta_saturated_counts_stay_finite():
    # the optimal analyzer has full contrast: the half-count clamp alone
    # keeps saturated frequencies inside the fringe
    n = optimal_measurement(0.1, 0.5)
    est, clamped = estimate_theta([100, 0], [100, 100], 0.5, n, 0.1)
    assert np.all(np.isfinite(est))
    assert not clamped.any()
    # below full contrast only the saturated trial leaves the fringe's range
    est, clamped = estimate_theta([60, 100, 40], [100, 100, 100], 0.5, TILTED, 0.1)
    assert np.all(np.isfinite(est))
    assert clamped.tolist() == [False, True, False]


def test_estimate_theta_requires_data():
    n = optimal_measurement(0.1, 0.5)
    with pytest.raises(NoDataError):
        estimate_theta([0], [0], 0.5, n, 0.1)
    with pytest.raises(NoDataError):
        estimate_theta([50, 0, 40], [100, 0, 100], 0.5, n, 0.1)


def assert_same_bits(got, want):
    """``got`` is ``want``: the same type (a NumPy scalar stays one), dtype
    and shape, equal values, the same nan positions and zero signs."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.array_equal(got, want, equal_nan=got.dtype.kind == "f")
    if got.dtype.kind == "f":
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_inversion_is_the_reference(f, r, psi, t_assumed, prior_big):
    got = _invert_frequency(f, r, psi, t_assumed, prior_big)
    want = invert_frequency_reference(f, r, psi, t_assumed, prior_big)
    for g, w in zip(got, want, strict=True):
        assert_same_bits(g, w)


def test_in_place_arithmetic_is_the_reference_on_random_blocks():
    # 100 points x 100 trials of random fringes, as run_trials passes them:
    # (points, trials) frequencies against (points, 1) parameters.  Fringes
    # of contrast below 1 put some u = (2 f - 1)/r outside [-1, 1].
    rng = np.random.default_rng(47)
    points, trials = 100, 100
    polar, azimuth = rng.uniform(0.0, math.pi, points), rng.uniform(-math.pi, math.pi, points)
    n = np.stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
                  np.cos(polar)], axis=-1)
    r, psi = (col[:, None] for col in _fringe_params(n))
    t = rng.uniform(0.05, 1.0, (points, 1))
    prior_big = amplified_angle(rng.uniform(-1.5, 1.5, (points, 1)), t)
    detected = rng.integers(1, 50, (points, trials))
    plus = rng.binomial(detected, rng.uniform(0.0, 1.0, (points, 1)))
    f = _half_count_frequency(plus, detected)
    assert_same_bits(f, half_count_frequency_reference(plus, detected))
    u = (2.0 * f - 1.0) / r
    assert (np.abs(u) > 1.0).sum() > 100
    assert_inversion_is_the_reference(f, r, psi, t, prior_big)
    assert_inversion_is_the_reference(rng.uniform(-0.05, 1.05, (points, trials)), r, psi,
                                      t, prior_big)
    # the sweep's moments of those estimates, with every row full (est itself
    # is reduced), then with a random pattern of empty trials and rows
    est, _ = _invert_frequency(f, r, psi, t, prior_big)
    theta = rng.uniform(0.0, 1.5, points)
    hit = rng.uniform(size=(points, trials)) < 0.9
    hit[:3] = False
    hit[3:6, :1] = True
    hit[6:9] = True
    est[6, :], est[8, :] = -0.25, 0.5  # zero spread, either side of 0
    est[7, ::2], est[7, 1::2] = 0.0, -0.0  # equal with either sign
    for mask in (np.ones_like(hit), hit):
        got, want = _moments(est, mask, theta), moments_reference(est, mask, theta)
        for g, w in zip(got, want, strict=True):
            assert_same_bits(g, w)


def test_in_place_inversion_keeps_the_references_ties_and_edges():
    # psi = 0 and prior_big = 0 put psi + b and psi - b at exactly equal gaps;
    # u = -1 (b = pi) makes psi + b and psi - b + 2 pi the same number, and
    # u = 1 (b = 0) psi + b and psi - b.  f = 0, 1/2 and 1 at full and at half
    # contrast, with either sign of zero in psi and of the assumed amplitude.
    f = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    grid = itertools.product(
        (1.0, 0.5), (0.0, -0.0, 0.7), (0.0, -0.0, math.pi, -math.pi, 3.0), (0.3, 1.0, -0.5)
    )
    ties = 0
    for r, psi, prior_big, t in grid:
        assert_inversion_is_the_reference(f, r, psi, t, prior_big)
        b = np.arccos(np.clip((2.0 * f - 1.0) / r, -1.0, 1.0))
        gaps = np.abs(np.stack([base + 2.0 * math.pi * k for base in (psi + b, psi - b)
                                for k in (-1, 0, 1)]) - prior_big)
        ties += int(((gaps == gaps.min(axis=0)).sum(axis=0) > 1).sum())
    assert ties >= 20
    # half-count frequencies at 0, 1/2 and 1, from int and float counts
    for plus, detected in (([0, 5, 10, 1, 0], [10, 10, 10, 1, 1]),
                           (np.array([-0.0, 0.0, 2.0]), np.array([4.0, 4.0, 4.0]))):
        assert_same_bits(_half_count_frequency(plus, detected),
                         half_count_frequency_reference(plus, detected))


@pytest.mark.parametrize("box", [float, np.float64, np.array], ids=["float", "float64", "0-d"])
def test_in_place_arithmetic_keeps_numpy_scalars(box):
    # a 0-d input gives NumPy scalars, as the calibration-shift checks read them
    n = optimal_measurement(0.1, 0.11)
    args = (box(0.3), *map(box, _fringe_params(n)), box(0.11), box(amplified_angle(0.1, 0.11)))
    est, clamped = _invert_frequency(*args)
    assert type(est) is np.float64 and type(clamped) is np.bool_
    assert_inversion_is_the_reference(*args)
    for plus, detected in ((3, 10), (0, 10), (10, 10), (box(3.0), box(7.0))):
        assert_same_bits(_half_count_frequency(plus, detected),
                         half_count_frequency_reference(plus, detected))


# -------------------------------------------------------------------- trials


def traced_peak(spec, points) -> int:
    """tracemalloc's peak, in bytes above the start, of one run_trials call
    made after a first one has filled every cache."""
    run_trials(spec, points)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run_trials(spec, points)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_run_trials_memory_per_trial_is_pinned():
    # sweep-deep's grid: the in-place arithmetic peaks at about 44.4 bytes a
    # trial, where a new array per step peaked at about 107, and a fresh
    # array for the clipped frequencies alone at about 49.3
    spec, points = grid_run(
        (0.02, 0.04, 0.1, 0.2, 0.5, 1.0, 1.5), (0.044, 0.082, 0.15, 0.3, 0.5, 1.0),
        n_trials=700, photon_budget=10**6, sampling_mode="fixed",
    )
    assert traced_peak(spec, points) <= 47 * 700 * len(points)
    # a full block of sweep-wide's options (256 points x 32 trials) peaks
    # about where a 4096-trial block of the old arithmetic did (451-460 KB)
    side = np.linspace(0.02, 1.5, 28), np.linspace(0.05, 1.0, 28)
    spec, points = grid_run(*side, n_trials=32, sampling_mode="poisson",
                            delta_t=-0.01, epsilon=0.01, visibility=0.95)
    block = points[: cli.BLOCK_TRIALS // 32]
    assert len(block) == 256
    assert traced_peak(spec, block) <= 470_000


def test_run_trials_is_deterministic():
    point = dict(theta_true=0.1, t_set=0.3, photon_budget=20000, n_trials=6, seed=17)
    assert run_point(**point) == run_point(**point)


def test_run_trials_seed_changes_output():
    rec1, rec2 = (
        run_point(theta_true=0.1, t_set=0.3, photon_budget=20000, n_trials=6, seed=seed)
        for seed in (17, 18)
    )
    assert rec1.mean_estimate != rec2.mean_estimate


def test_run_trials_unbiased_at_matched_calibration():
    rec = run_point(theta_true=0.1, t_set=0.3, photon_budget=10**6, n_trials=24, seed=2)
    se_mean = math.sqrt(rec.variance / 24)
    assert abs(rec.mean_estimate - 0.1) < 4 * se_mean
    assert rec.flags == ""
    assert rec.qfi_theory == pytest.approx(qfi_ppa_family(0.1, 0.3))


def test_run_trials_detects_calibration_bias():
    theta, t, dt = 0.1, 0.1, 0.01
    rec = run_point(
        theta_true=theta,
        t_set=t,
        delta_t=dt,
        photon_budget=10**6,
        n_trials=32,
        seed=9,
    )
    shift = systematic_shift_t(theta, t, dt) - theta
    bias = rec.mean_estimate - theta
    se_mean = math.sqrt(rec.variance / 32)
    # the bias is resolved (many sigma from zero) and matches the model
    assert bias > 5 * se_mean
    assert abs(bias - shift) < 4 * se_mean


def test_run_trials_flags_empty_budget():
    rec = run_point(theta_true=0.1, t_set=0.3, photon_budget=0, n_trials=3, seed=0)
    assert "no-data" in rec.flags
    assert math.isnan(rec.mean_estimate)
    assert rec.mean_detected == 0.0


def test_sample_counts_zero_budget():
    # with no photons sent, neither sampling mode detects anything
    for mode in ("fixed", "poisson"):
        rec = run_point(
            theta_true=0.1, t_set=0.5, photon_budget=0, sampling_mode=mode,
            n_trials=4, seed=0,
        )
        assert rec.mean_detected == 0.0
        assert "no-data" in rec.flags


def test_run_trials_zero_survival_flags_no_data():
    # (theta, t) = (0, 0) passes nothing; with delta_t > 0 the point is
    # valid and must become a flagged row, not an error
    for mode in ("fixed", "poisson"):
        rec = run_point(
            theta_true=0.0, t_set=0.0, delta_t=0.2, sampling_mode=mode,
            n_trials=4, seed=5,
        )
        assert rec.flags == "no-data"
        assert rec.mean_detected == 0.0
        assert math.isnan(rec.mean_estimate)


def test_run_trials_detection_rate_tracks_survival():
    budget, n_trials = 200_000, 8
    _, p = postselected_bloch(0.3, 0.5, 0.0, 1.0)
    rec = run_point(
        theta_true=0.3, t_set=0.5, photon_budget=budget, n_trials=n_trials, seed=7
    )
    sigma = math.sqrt(budget * p * (1 - p) / n_trials)
    assert abs(rec.mean_detected - budget * p) < 4 * sigma


def test_run_trials_poisson_mode_tracks_survival():
    budget, n_trials = 5000, 8
    _, p = postselected_bloch(0.3, 0.5, 0.0, 1.0)
    rec = run_point(
        theta_true=0.3,
        t_set=0.5,
        photon_budget=budget,
        sampling_mode="poisson",
        n_trials=n_trials,
        seed=3,
    )
    sigma = math.sqrt(budget * p / n_trials)
    assert abs(rec.mean_detected - budget * p) < 4 * sigma
    assert rec.flags == ""
    assert math.isfinite(rec.mean_estimate)


def test_run_trials_stream_layout_is_pinned():
    # one Philox stream per point: fixed draws every detected count, then
    # every plus count; poisson every plus count, then every minus count.
    # The integer totals pin the draws without depending on libm rounding
    rec_fixed, rec_poisson = (
        run_point(
            theta_true=0.1, t_set=0.3, photon_budget=20000, sampling_mode=mode,
            n_trials=8, seed=17,
        )
        for mode in ("fixed", "poisson")
    )
    assert rec_fixed.mean_detected == 1856.25
    assert rec_poisson.mean_detected == 1843.875


def test_draw_counts_follow_the_thinning_law():
    # k = 5 standard errors and the seeds are fixed before any run
    k, n, budget, p, q = 5.0, 4000, 1000, 0.3, 0.25
    lam = budget * p
    # run seed 7: poisson draws at grid point (0, 3), fixed at (0, 4)
    poisson = SweepSpec(
        photon_budget=budget, sampling_mode="poisson", n_trials=n, seed=7
    )
    fixed = poisson._replace(sampling_mode="fixed")
    detected, plus = np.empty((2, 2, n), dtype=np.int64)
    for row, (spec, j) in enumerate(((poisson, 3), (fixed, 4))):
        counts = _draw_counts(spec, [(0, j)], np.full(1, p), np.full(1, q))
        detected[row], plus[row] = counts[0][0], counts[1][0]
    # poisson: detected ~ Poisson(lam), plus ~ Poisson(lam q), and plus is
    # independent of minus = detected - plus
    assert abs(detected[0].mean() - lam) < k * math.sqrt(lam / n)
    assert abs(plus[0].mean() - lam * q) < k * math.sqrt(lam * q / n)
    corr = np.corrcoef(plus[0], detected[0] - plus[0])[0, 1]
    assert abs(corr) < k / math.sqrt(n)
    # fixed: detected ~ Binomial(budget, p), plus ~ Binomial(budget, p q)
    assert abs(detected[1].mean() - lam) < k * math.sqrt(lam * (1 - p) / n)
    assert abs(plus[1].mean() - lam * q) < k * math.sqrt(lam * q * (1 - p * q) / n)


def test_run_trials_precision_near_qfi_bound():
    # tight-filter working point: per-photon precision should approach the
    # theory value within a few standard errors (it cannot beat it)
    rec = run_point(
        theta_true=0.040, t_set=0.044, photon_budget=10**7, n_trials=32, seed=11
    )
    target = qfi_ppa_family(0.040, 0.044)
    rel_se = rec.stderr_variance / rec.variance
    se_prec = rec.precision_per_photon * rel_se
    assert abs(rec.precision_per_photon - target) < 3 * se_prec


def count_stream(seed, i, j):
    """Grid point (i, j)'s count stream, built through Philox's ``key``
    argument: the first key word from SeedSequence((run seed, STAGE_COUNTS)),
    the second the grid bits i << 32 | j."""
    seq = np.random.SeedSequence((seed, STAGE_COUNTS))
    word = int(seq.generate_state(1, np.uint64)[0])
    return np.random.Generator(np.random.Philox(key=word | (i << 32 | j) << 64))


def run_trials_reference(spec, i, j):
    """The record of ``spec``'s grid point (i, j), from the scalar closed forms."""
    theta = spec.theta_list[i]
    t = abs(spec.t_list[j])
    t_assumed = t + spec.delta_t
    n = optimal_measurement(theta, t_assumed)
    r_ps, p_ps = postselected_bloch(theta, t, spec.epsilon, spec.visibility)
    q = min(max((1.0 + float((n * r_ps).sum())) / 2.0, 0.0), 1.0)

    rng = count_stream(spec.seed, i, j)
    if spec.sampling_mode == "fixed":
        detected = rng.binomial(
            int(spec.photon_budget), min(p_ps, 1.0), size=spec.n_trials
        )
        plus = rng.binomial(detected, q)
    else:
        lam = spec.photon_budget * p_ps
        plus = rng.poisson(lam * q, size=spec.n_trials)
        detected = plus + rng.poisson(lam * (1.0 - q), size=spec.n_trials)
    hit = detected > 0
    est, _ = estimate_theta(plus[hit], detected[hit], t_assumed, n, theta)

    mean_detected = float(detected.mean())
    zero_spread = len(est) > 1 and bool(np.all(est == est[0]))
    flags = []
    if not len(est):
        flags.append("no-data")
        nan = math.nan
        mean_est = variance = mse = stderr = precision = accuracy = nan
    else:
        mean_est = float(est.mean())
        variance = float(est.var(ddof=1)) if len(est) > 1 else math.nan
        if zero_spread:  # equal estimates: no rounding noise of the sum
            variance = 0.0
        mse = float(np.mean((est - theta) ** 2))
        stderr = (
            variance * math.sqrt(2.0 / (len(est) - 1)) if len(est) > 1 else math.nan
        )
        precision = (
            1.0 / (variance * mean_detected)
            if variance > 0 and mean_detected > 0
            else math.nan
        )
        accuracy = (
            1.0 / (mse * mean_detected) if mse > 0 and mean_detected > 0 else math.nan
        )
        if len(est) < spec.n_trials:
            flags.append(f"empty-trials={spec.n_trials - len(est)}")
    if zero_spread:
        flags.append("zero-variance")

    qfi = qfi_ppa_family(theta, t) if t > 0 else math.nan
    return SweepRecord(
        theta_true=theta,
        t_mag=t,
        mean_estimate=mean_est,
        variance=variance,
        mse=mse,
        mean_detected=mean_detected,
        precision_per_photon=precision,
        accuracy_per_photon=accuracy,
        qfi_theory=qfi,
        stderr_variance=stderr,
        flags=";".join(flags),
    )


def grid_run(thetas, ts, **fields):
    """A spec of the grid thetas x ts and all its grid indices (i, j)."""
    points = list(itertools.product(range(len(thetas)), range(len(ts))))
    return SweepSpec(theta_list=list(thetas), t_list=list(ts), **fields), points


def test_run_trials_matches_per_point_reference():
    thetas = (0.02, 0.04, 0.1, 0.2, 0.5, 1.0, 1.5)
    ts = (0.044, 0.082, 0.15, 0.3, 0.5, 1.0)
    side = math.isqrt(2 * cli.BLOCK_TRIALS // 32) + 1
    runs = [
        # a budget of 30 leaves some trials of the tight filters empty
        grid_run(thetas, ts, photon_budget=30, n_trials=5),
        grid_run(thetas, ts, photon_budget=30, n_trials=5, sampling_mode="poisson"),
        # nothing survives (theta, t) = (0, 0)
        grid_run((0.0, 0.1), (0.0, 0.5), delta_t=0.2, n_trials=4),
        grid_run(
            (0.0, 0.1), (0.0, 0.5), delta_t=0.2, n_trials=4, sampling_mode="poisson"
        ),
        grid_run(thetas, ts, photon_budget=1000, n_trials=2),
        # all three systematics over a grid longer than one block
        grid_run(
            np.linspace(0.02, 1.5, side), np.linspace(0.05, 1.0, side),
            delta_t=-0.01, epsilon=0.01, visibility=0.95,
            sampling_mode="poisson", n_trials=32,
        ),
        grid_run(thetas, (0.15,), n_trials=700),
        # the benchmark's sweep-deep and sweep-wide configurations, each more
        # than one block
        grid_run(thetas, ts, n_trials=700, photon_budget=10**6, sampling_mode="fixed"),
        grid_run(
            np.linspace(0.02, 1.5, 28), np.linspace(0.05, 1.0, 28),
            delta_t=-0.01, epsilon=0.01, visibility=0.95,
            sampling_mode="poisson", n_trials=32,
        ),
    ]
    runs = [
        (spec._replace(seed=k), points) for k, (spec, points) in enumerate(runs)
    ]
    # the point (3, 2) of `ppasim sweep --budget 30 --trials 5`, whose three
    # equal hit estimates have a naive variance of 2.9e-34, not 0
    runs.append((SweepSpec(photon_budget=30, n_trials=5), [(3, 2)]))
    expected = [
        cli._csv_row(run_trials_reference(spec, i, j))
        for spec, points in runs
        for i, j in points
    ]
    # each run as one array, then in the grid runner's blocks, which the
    # long grid crosses
    records = [rec for spec, points in runs for rec in run_trials(spec, points)]
    assert [cli._csv_row(rec) for rec in records] == expected
    step = [cli.BLOCK_TRIALS // spec.n_trials for spec, _ in runs]
    assert all(len(runs[k][1]) > step[k] for k in (5, 7, 8))
    rows = [cli._grid_rows(run_trials, *run, k) for run, k in zip(runs, step)]
    assert sum(rows, []) == expected
    assert "zero-variance" in records[-1].flags.split(";")
    assert records[-1].variance == 0.0
    # the grid holds every kind of degraded row
    flags = ";".join(row.rpartition(",")[2] for row in expected)
    for kind in ("empty-trials=", "no-data", "zero-variance"):
        assert kind in flags


def test_sweep_record_csv_row_formatting():
    rec = SweepRecord(
        theta_true=0.1,
        t_mag=0.3,
        mean_estimate=0.1001,
        variance=1e-8,
        mse=1.1e-8,
        mean_detected=1234.5,
        precision_per_photon=3.3,
        accuracy_per_photon=3.1,
        qfi_theory=3.5,
        stderr_variance=2e-9,
        flags="empty-trials=1",
    )
    fields = cli._csv_row(rec).split(",")
    assert fields[0] == "0.1"
    assert fields[-1] == "empty-trials=1"
    assert len(fields) == len(SweepRecord._fields) == 11
    for text in fields[:-1]:
        float(text)


def test_fmt_sig_round_trip():
    # the numeric fields of a sweep row read back within 12 significant digits
    for x in (0.1, 1 / 3, 1e-17, 12345.6789, 0.0):
        text = cli._csv_row((x, "")).partition(",")[0]
        assert float(text) == pytest.approx(x, rel=1e-11, abs=1e-300)


# ------------------------------------------------------------- configuration


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t_set": 1.5},
        {"t_set": 0.9, "delta_t": 0.2},
        {"epsilon": 1.0},
        {"visibility": 0.0},
        {"photon_budget": -1},
        {"sampling_mode": "bursty"},
        {"n_trials": 0},
        {"seed": -1},
        {"n_trials": 1},
        {"t_set": 0.0},
        {"theta_true": 3.3},
        {"epsilon": math.nan},
        {"photon_budget": MAX_COUNT + 1},
        {"t_set": 1e-300},
        {"t_set": 0.5, "delta_t": -0.5 + 1e-101},
    ],
)
def test_config_rejects_invalid_fields(kwargs):
    # the message starts with the spec field of the first bad value
    name = next(iter(kwargs))
    field = {"theta_true": "theta_list", "t_set": "t_list"}.get(name, name)
    with pytest.raises(ValueError, match=f"^{field}"):
        check_sweep_point(**kwargs)


def test_run_trials_rejects_an_unknown_sampling_mode(tmp_path):
    # run_trials refuses a mode cli._check rejects, with its message, before
    # any draw, not run as Poisson; cmd_sweep runs cli._check itself, so it
    # raises that message before any draw, and the sweep writes no file
    out = tmp_path / "bursty.csv"
    spec = SweepSpec(theta_list=[0.1], t_list=[0.5], sampling_mode="bursty",
                     n_trials=4, output_path=str(out))
    message = r"sampling_mode: 'bursty' must be 'fixed' or 'poisson'$"
    with pytest.raises(ValueError, match="^" + message):
        run_trials(spec, [(0, 0)])
    with pytest.raises(ValueError, match="^" + message):
        cli.cmd_sweep(spec)
    assert not out.exists()


def test_run_trials_at_the_amplitude_floor_writes_a_normal_row():
    # at |t| = MIN_AMPLITUDE the estimates and their variance, which scale
    # as t and t^2, are still normal doubles; below it the point is refused
    rec = run_point(0.1, MIN_AMPLITUDE, n_trials=4, seed=2)
    assert rec.flags == ""
    for value in (rec.mean_estimate, rec.variance, rec.qfi_theory):
        assert abs(value) >= np.finfo(float).tiny
    assert math.isfinite(rec.precision_per_photon)
    with pytest.raises(ValueError, match=r"^t_list: .* outside \[1e-100, 1\]"):
        check_sweep_point(t_set=MIN_AMPLITUDE / 2)


def test_run_trials_accepts_the_count_cap():
    # at t = 1 every photon survives: the largest binomial count and
    # poisson mean that a budget of MAX_COUNT asks of the samplers
    for mode in ("fixed", "poisson"):
        rec = run_point(
            0.3, 1.0, photon_budget=MAX_COUNT, sampling_mode=mode, n_trials=2
        )
        assert rec.mean_detected == pytest.approx(MAX_COUNT, rel=1e-6)
        assert rec.mean_estimate == pytest.approx(0.3, abs=1e-6)


# --------------------------------------------------------- systematic models


def test_systematic_shift_no_error_is_identity():
    for theta in (0.02, 0.3, 1.4):
        assert systematic_shift_t(theta, 0.2, 0.0) == pytest.approx(theta, abs=1e-15)


def test_systematic_shift_frozen_value():
    assert systematic_shift_t(0.1, 0.1, 0.01) == pytest.approx(
        0.10998076567697557, abs=1e-15
    )


def test_systematic_shift_grows_with_amplification():
    # the displacement scales with dt/t: at fixed absolute dt a weaker
    # filter is hit harder
    shift_weak = systematic_shift_t(0.1, 0.05, 0.005) - 0.1
    shift_strong = systematic_shift_t(0.1, 0.5, 0.005) - 0.1
    assert shift_weak > shift_strong > 0


def test_systematic_shift_depends_only_on_relative_error():
    a = systematic_shift_t(0.1, 0.05, 0.005)
    b = systematic_shift_t(0.1, 0.5, 0.05)
    assert a == pytest.approx(b, abs=1e-15)


def test_rng_stream_path_separation():
    a = rng_stream(7, 1, 0).integers(0, 2**32, 4)
    b = rng_stream(7, 2, 0).integers(0, 2**32, 4)
    c = rng_stream(7, 1, 0).integers(0, 2**32, 4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)
