"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (bypassing capture) with the measured
quantity and its tolerance, then asserts.  Together they pin the library's
headline guarantees: the gap-information identity, agreement of all Fisher
information routes, measurement optimality, the conditional quasiprobability
tables, Monte Carlo efficiency against theory, information conservation
through the filter, the systematic-error models, the negativity milestone,
and byte-level determinism of the sweep harness.
"""

import math
import time

import numpy as np

from ppasim.bench import (
    _fringe_params,
    _invert_frequency,
    postselected_bloch,
    systematic_shift_t,
)
from ppasim.cli import main
from ppasim.fisher import (
    PPAFamily,
    cfi,
    optimal_measurement,
    qfi_postselected_pure,
    qfi_ppa_family,
    sld,
)
from ppasim.quasiprob import (
    kd_distribution,
    kd_table_closed_form,
    nonclassicality_gap,
)
from ppasim.states import (
    amplified_angle,
    make_filter,
    ppa_generator,
)
from ppasim.verify import (
    T_GRID,
    THETA_GRID,
    axis_angle,
    gap_equality_suite,
    marginalization_suite,
    sld_axis,
)

from matrix_reference import (
    bloch_vector,
    condition,
    ppa_povm_sequence,
    run_point,
    survival_theta_form,
    unfiltered_state,
)


def imprinted_bloch(theta):
    """Bloch vector (0, sin theta, cos theta) of the imprinted pure state."""
    return np.array([0.0, math.sin(theta), math.cos(theta)])


def report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_gap_equality(capsys):
    t0 = time.perf_counter()
    res = gap_equality_suite(seed=0, n_qubit=1000, n_qudit=200)
    elapsed = time.perf_counter() - t0
    ok = res.max_residual <= 1e-9 and elapsed < 10.0
    report(
        capsys,
        1,
        "gap-information identity",
        ok,
        f"max residual {res.max_residual:.2e} <= 1e-09 over "
        f"{res.n_instances} random draws in {elapsed:.1f} s (limit 10 s)",
    )


def test_criterion_2_fisher_route_consistency(capsys):
    gen = ppa_generator()
    worst = 0.0
    for theta in THETA_GRID:
        for t in T_GRID:
            fam = PPAFamily(t=t)
            routes = (
                qfi_ppa_family(theta, t),
                qfi_postselected_pure(unfiltered_state(theta), gen, make_filter(t)),
                sld(fam.state(theta), fam.derivative(theta)).qfi,
            )
            scale = max(routes)
            for i in range(3):
                for j in range(i + 1, 3):
                    worst = max(worst, abs(routes[i] - routes[j]) / scale)
    spot = abs(qfi_ppa_family(0.2, 0.5) - 3.7711)
    ok = worst <= 1e-8 and spot <= 1e-3
    report(
        capsys,
        2,
        "information route consistency",
        ok,
        f"max pairwise relative gap {worst:.2e} <= 1e-08 on the "
        f"{len(THETA_GRID)}x{len(T_GRID)} grid; spot |value - 3.7711| = {spot:.1e} <= 1e-03",
    )


def test_criterion_3_optimal_measurement(capsys):
    worst_cfi = 0.0
    worst_axis = 0.0
    for theta in THETA_GRID:
        for t in T_GRID:
            axis = optimal_measurement(theta, t)
            for v in (1.0, 0.98):
                fam = PPAFamily(t=t, v=v)
                res = sld(fam.state(theta), fam.derivative(theta))
                worst_cfi = max(
                    worst_cfi, abs(cfi(axis, fam, theta) - res.qfi) / res.qfi
                )
                if v < 1.0:
                    # below unit visibility the SLD solution is unique, so
                    # its eigen-axis is comparable to the closed-form one
                    worst_axis = max(worst_axis, axis_angle(sld_axis(res.lam), axis))
    ok = worst_cfi <= 1e-8 and worst_axis <= 1e-8
    report(
        capsys,
        3,
        "optimal measurement attains the bound",
        ok,
        f"max |CFI - QFI|/QFI {worst_cfi:.2e} <= 1e-08 for v in {{1, 0.98}}; "
        f"max SLD-axis misalignment {worst_axis:.2e} rad <= 1e-08",
    )


def test_criterion_4_conditional_tables(capsys):
    # conditional entries reach ~1e2 at the strong-filter corner, where an
    # absolute 1e-12 sits below float64 roundoff; compare entrywise with
    # |num - ref| / max(1, |ref|), which is absolute for order-one entries
    worst_table = 0.0
    worst_sum = 0.0
    for theta in THETA_GRID:
        for t in T_GRID:
            rho = unfiltered_state(theta)
            kd = kd_distribution(rho, ppa_povm_sequence(t))
            worst_sum = max(worst_sum, abs(kd.sum() - 1.0))
            cond = condition(kd, 1, 0)
            ref = kd_table_closed_form(imprinted_bloch(theta), t)
            scaled = np.abs(cond - ref) / np.maximum(1.0, np.abs(ref))
            worst_table = max(worst_table, float(scaled.max()))
    marg = marginalization_suite(seed=0, n_instances=200)
    ok = worst_table <= 1e-12 and worst_sum <= 1e-10 and marg.max_residual <= 1e-12
    report(
        capsys,
        4,
        "conditional quasiprobability tables",
        ok,
        f"max scaled |numeric - closed form| {worst_table:.2e} <= 1e-12; "
        f"max |sum - 1| {worst_sum:.2e} <= 1e-10; "
        f"marginalization residual {marg.max_residual:.2e} <= 1e-12 "
        f"over {marg.n_instances} random sequences",
    )


def test_criterion_5_monte_carlo_efficiency(capsys):
    t0 = time.perf_counter()
    rec = run_point(0.040, 0.044, photon_budget=10**7, n_trials=32, seed=11)
    target = qfi_ppa_family(0.040, 0.044)
    se = rec.precision_per_photon * rec.stderr_variance / rec.variance
    dev = abs(rec.precision_per_photon - target) / se

    rec_open = run_point(0.040, 1.0, photon_budget=10**7, n_trials=32, seed=11)
    se_open = rec_open.precision_per_photon * rec_open.stderr_variance / rec_open.variance
    dev_open = abs(rec_open.precision_per_photon - 1.0) / se_open
    elapsed = time.perf_counter() - t0

    ok = dev <= 3.0 and dev_open <= 3.0 and elapsed < 60.0
    report(
        capsys,
        5,
        "Monte Carlo efficiency",
        ok,
        f"per-detected-photon precision {rec.precision_per_photon:.1f} vs theory "
        f"{target:.1f} ({dev:.2f} combined SE <= 3, ~{rec.mean_detected:.0f} detected/trial); "
        f"open filter {rec_open.precision_per_photon:.3f} vs 1.0 "
        f"({dev_open:.2f} SE <= 3); {elapsed:.1f} s (limit 60 s)",
    )


def test_criterion_6_information_conservation(capsys):
    worst_excess = -math.inf
    worst_eq = 0.0
    n_eq = 0
    thetas = list(THETA_GRID) + list(np.linspace(0.01, 3.1, 63))
    ts = list(T_GRID) + list(np.linspace(0.02, 1.0, 50))
    for theta in thetas:
        for t in ts:
            per_input = survival = None
            # the reference theta form gives p independently of the
            # survival_probability inside qfi_ppa_family
            survival = survival_theta_form(theta, t)
            per_input = survival * qfi_ppa_family(theta, t)
            worst_excess = max(worst_excess, per_input - 1.0)
            if math.tan(theta / 2) <= t / 10:
                n_eq += 1
                worst_eq = max(worst_eq, abs(per_input - 1.0))
    ok = worst_excess <= 1e-9 and worst_eq <= 0.01 and n_eq > 0
    report(
        capsys,
        6,
        "information conservation",
        ok,
        f"max(p * I - 1) = {worst_excess:.2e} <= 1e-09 over {len(thetas) * len(ts)} "
        f"points; |p * I - 1| <= {worst_eq:.2e} <= 0.01 at the {n_eq} "
        f"strong-filter points (half-tangent <= t/10)",
    )


def test_criterion_7_systematic_models(capsys):
    # calibration error: feed the estimator the exact large-budget frequency
    # while it assumes t + dt; the recovered bias must match the closed form
    theta, t, dt = 0.1, 0.1, 1e-3
    n = optimal_measurement(theta, t + dt)
    q = (1.0 + float(n @ bloch_vector(PPAFamily(t=t).state(theta)))) / 2.0
    est, clamped = _invert_frequency(
        q, *_fringe_params(n), t + dt, amplified_angle(theta, t + dt)
    )
    bias_model = systematic_shift_t(theta, t, dt) - theta
    rel = abs((est - theta) - bias_model) / abs(bias_model)

    # finite-budget sanity: the Monte Carlo mean agrees within 3 SE
    rec = run_point(theta, t, delta_t=dt, photon_budget=10**7, n_trials=32, seed=11)
    se_mean = math.sqrt(rec.variance / 32)
    mc_dev = abs((rec.mean_estimate - theta) - bias_model) / se_mean

    # analyzer tilt: half-tangent of the polar angle the tilted plate
    # imprints, from the bench's closed-form map with the filter open
    r, _ = postselected_bloch(0.04, 1.0, 0.01, 1.0)
    ht = math.sqrt((1.0 - r[2]) / (1.0 + r[2]))
    ht_err = abs(ht - 0.028291)

    ok = (not clamped) and rel <= 0.01 and mc_dev <= 3.0 and ht_err <= 1e-6
    report(
        capsys,
        7,
        "systematic error models",
        ok,
        f"calibration bias {est - theta:.6e} vs model {bias_model:.6e} "
        f"(relative {rel:.1e} <= 0.01; Monte Carlo {mc_dev:.2f} SE <= 3); "
        f"tilted-analyzer half-tangent {ht:.6f} within {ht_err:.1e} <= 1e-06 of 0.028291",
    )


def test_criterion_8_negativity_milestone(capsys):
    thetas = np.linspace(0.02, 0.12, 11)
    ts = (0.044, 0.05, 0.06, 0.07, 0.082, 0.09, 0.1)
    most_negative = math.inf
    gap_ok = True
    n_high = 0
    for theta in thetas:
        for t in ts:
            table = kd_table_closed_form(imprinted_bloch(theta), t)
            most_negative = min(most_negative, float(table[0, 1].real))
            info = qfi_ppa_family(theta, t)
            if info > 200.0:
                n_high += 1
                rho = unfiltered_state(theta)
                cond = condition(
                    kd_distribution(rho, ppa_povm_sequence(t)), 1, 0
                )
                if 4.0 * nonclassicality_gap(cond) <= 200.0:
                    gap_ok = False
    ok = most_negative < -70.0 and gap_ok and n_high > 0
    report(
        capsys,
        8,
        "negativity milestone",
        ok,
        f"most negative conditional cross term {most_negative:.1f} < -70; "
        f"4 x gap > 200 at all {n_high} scan points with theory > 200 /rad^2",
    )


def test_criterion_9_sweep_determinism(capsys, tmp_path):
    argv = [
        "sweep", "--theta", "0.04,0.1,0.2", "--t", "0.3,0.5",
        "--budget", "20000", "--trials", "4", "--seed", "12",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    main(argv + ["--out", str(out_a), "--workers", "1"])
    main(argv + ["--out", str(out_b), "--workers", "3"])
    identical = out_a.read_bytes() == out_b.read_bytes()
    report(
        capsys,
        9,
        "sweep determinism",
        identical,
        f"1-worker and 3-worker runs byte-identical: {identical} "
        f"({out_a.stat().st_size} bytes, 6 grid points)",
    )
