"""Monte Carlo model of a postselected polarimetry bench.

The simulated apparatus prepares a (possibly depolarized) vertical input,
imprints a phase theta - pi with a slightly misalignable waveplate, applies
the partially transmitting filter, and measures the survivors with the
projective test along a unit Bloch vector n.  Every step acts on one
polarization qubit, so the noiseless pipeline is a closed map on Bloch
vectors: the source r0 = (0, 0, -v), a rotation by pi - theta about the
waveplate axis, and the filter map of K+ = diag(t, 1), which also gives the
survival probability (see :func:`postselected_bloch`).  Phase estimates
invert the measured fringe in closed form.

Systematic knobs:

* ``delta_t``: amplitude miscalibration, defined as assumed minus actual.
  The filter physically runs at ``|t_set|`` while the estimator (and the
  chosen measurement direction) use ``|t_set| + delta_t``.
* ``epsilon``: waveplate axis misalignment; the generator becomes
  cos(2 eps) sigma_x/2 + sin(2 eps) sigma_z/2, a rotation about
  (cos 2 eps, 0, sin 2 eps) by the same angle.

The filter amplitude t_set is real.  A negative one is the |t_set| filter
followed by a turn by pi about z, and the optimal analyzer turns with it
(its azimuth is arg t), so it draws the counts of |t_set|: the bench runs
every point at |t_set| and writes the |t_set| row.

Randomness is drawn from numpy streams keyed by (seed, grid indices, stage):
the sweep derives each grid point's seed from the run seed and the point's
grid indices, and a bench run draws all of its trials from one stream of
that seed.  A grid point replays alone and independently of execution order
or worker count; a single trial cannot be replayed without its grid point.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import groupby
from operator import attrgetter

import numpy as np

from .states import amplified_angle
from .fisher import optimal_measurement, qfi_ppa_theory, survival_probability

__all__ = [
    "STAGE_COUNTS",
    "STAGE_TOMOGRAPHY",
    "MIN_AMPLITUDE",
    "BenchConfig",
    "SweepRecord",
    "SWEEP_CSV_COLUMNS",
    "fmt_sig",
    "rng_stream",
    "postselected_bloch",
    "run_trials",
    "systematic_shift_t",
]

# Stage tags of a grid point's RNG substreams: the sweep's counts and fig4's
# tomography.
STAGE_COUNTS = 0
STAGE_TOMOGRAPHY = 1

# Most trials (points x trials per point) that run_trials evaluates as one
# array block.
BLOCK_TRIALS = 4096

# Largest photon budget or tomography shot count; numpy's binomial and
# poisson samplers both accept counts and means up to it.
MAX_COUNT = 10**18

# Smallest assumed filter amplitude |t| + delta_t: the estimates and their
# variance scale as t and t^2, which below it underflow to a degenerate row.
MIN_AMPLITUDE = 1e-100


def fmt_sig(x: float) -> str:
    """Format a float with 12 significant digits (nan prints as 'nan')."""
    return format(float(x), ".12g")


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic substream keyed by (seed, *path).

    Streams for distinct keys are statistically independent, and the mapping
    does not depend on the order in which streams are created, so results
    are identical for any worker count.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed), *map(int, path))))


@dataclass(frozen=True)
class BenchConfig:
    """Full description of one bench run, taken as given: the CLI checks
    the values before it builds one.  ``t_set`` is the real filter
    amplitude; a negative one runs as ``|t_set|`` (see the module notes)."""

    theta_true: float
    t_set: float
    delta_t: float = 0.0
    epsilon: float = 0.0
    visibility: float = 1.0
    photon_budget: int = 10**6
    sampling_mode: str = "fixed"
    n_trials: int = 32
    seed: int = 0


@dataclass(frozen=True)
class SweepRecord:
    """Aggregated statistics of `n_trials` bench runs at one grid point."""

    theta_true: float
    t_mag: float
    mean_estimate: float
    variance: float
    mse: float
    mean_detected: float
    precision_per_photon: float
    accuracy_per_photon: float
    qfi_theory: float
    stderr_variance: float
    flags: str = ""

    def to_csv_row(self) -> str:
        """The numeric columns of SWEEP_CSV_COLUMNS with 12 digits, then ``flags``."""
        vals = (getattr(self, name) for name in SWEEP_CSV_COLUMNS[:-1])
        return ",".join(fmt_sig(v) for v in vals) + f",{self.flags}"


SWEEP_CSV_COLUMNS = tuple(f.name for f in fields(SweepRecord))


def postselected_bloch(
    theta: float, t: float, epsilon: float, visibility: float
) -> tuple[np.ndarray, float]:
    """Noiseless pipeline source -> U(theta - pi) -> filter on Bloch vectors.

    Returns ``(r_ps, p_ps)``: the standard Bloch vector of the normalized
    postselected state and the survival probability.  The source
    r0 = (0, 0, -v) turns by pi - theta about n = (cos 2 eps, 0, sin 2 eps)
    (Rodrigues' formula); K+ = diag(t, 1) with real t then maps
    r1 = (x, y, z) to p = :func:`survival_probability` of the |1> population
    (1 - z)/2 and r_ps = (t x, t y, (t^2 (1 + z) - (1 - z))/2) / p, so a
    negative t turns r_ps by pi about z.  At t = 1 the filter passes
    everything and r_ps is the imprinted vector; for eps = 0 it is
    v (0, sin theta, cos theta).  A point that no photon survives (p = 0)
    returns r_ps = 0 and p_ps = 0.
    """
    v = visibility
    c2, s2 = math.cos(2.0 * epsilon), math.sin(2.0 * epsilon)
    alpha = math.pi - theta
    ca, sa = math.cos(alpha), math.sin(alpha)
    # n x r0 = (0, v c2, 0) and n . r0 = -v s2
    along = -v * s2 * (1.0 - ca)
    x = c2 * along
    y = v * c2 * sa
    z = -v * ca + s2 * along
    p = survival_probability(abs(t), (1.0 - z) / 2.0)
    r = np.array([t * x, t * y, (t**2 * (1.0 + z) - (1.0 - z)) / 2.0])
    return (r / p if p > 0.0 else np.zeros(3)), p


def _fringe_params(n: np.ndarray) -> tuple[float, float]:
    # The real-amplitude family sits at (0, sin Theta, cos Theta), so along
    # the Bloch vector n it gives q(Theta) = (1 + n_y sin Theta + n_z cos Theta)/2;
    # written as (R, psi) of the fringe q = (1 + R cos(Theta - psi))/2.
    return math.hypot(n[1], n[2]), math.atan2(n[1], n[2])


def _half_count_frequency(counts_plus, n_detected):
    # Empirical frequency kept half a count away from 0 and 1.
    n = np.asarray(n_detected, dtype=float)
    return np.clip(np.asarray(counts_plus) / n, 0.5 / n, 1.0 - 0.5 / n)


def _invert_frequency(f, r, psi, t_assumed, prior_big) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ML inversion of fringe frequencies; returns (estimates, clamped).

    ``(r, psi)`` are the fringe's :func:`_fringe_params` and ``prior_big``
    the amplified prior ``amplified_angle(theta_prior, t_assumed)``; the
    arccos branch nearest it is mapped back through the assumed amplitude.
    All parameters broadcast against ``f``, so a (points, trials) block
    inverts in one call with (points, 1) parameters.  ``clamped`` marks the
    frequencies outside the fringe's achievable range.
    """
    u = (2.0 * np.asarray(f, dtype=float) - 1.0) / r
    clamped = np.abs(u) > 1.0
    b = np.arccos(np.clip(u, -1.0, 1.0))
    # Running minimum over the six arccos branches psi +- b + 2 pi k; the
    # strict < keeps the first of equally near candidates, so ties resolve
    # in this order.
    cands = (
        base + 2.0 * math.pi * k for base in (psi + b, psi - b) for k in (-1, 0, 1)
    )
    best = next(cands)
    gap = np.abs(best - prior_big)
    for cand in cands:
        cand_gap = np.abs(cand - prior_big)
        closer = cand_gap < gap
        best = np.where(closer, cand, best)
        gap = np.where(closer, cand_gap, gap)
    return 2.0 * np.arctan(t_assumed * np.tan(best / 2.0)), clamped


def _moments(est: np.ndarray, theta: np.ndarray):
    """Row means, sample variances and mean squared errors about ``theta``."""
    var = est.var(axis=1, ddof=1) if est.shape[1] > 1 else np.full(len(est), math.nan)
    return est.mean(axis=1), var, np.mean((est - theta[:, np.newaxis]) ** 2, axis=1)


def _run_block(block: list[BenchConfig]) -> list[SweepRecord]:
    """run_trials on configs of one trial count, as (points, trials) arrays."""
    n_points, n_trials = len(block), block[0].n_trials
    detected = np.empty((n_points, n_trials), dtype=np.int64)
    plus = np.empty_like(detected)
    # Per-point estimator inputs as columns: fringe (r, psi), the assumed
    # amplitude and the amplified prior.
    r, psi, t_assumed, prior_big = np.empty((4, n_points, 1))
    for i, cfg in enumerate(block):
        t = abs(cfg.t_set)
        t_a = t + cfg.delta_t
        n = optimal_measurement(cfg.theta_true, t_a)
        # The filter runs at the physical amplitude |t_set|; delta_t only
        # enters the estimator.
        r_ps, p_ps = postselected_bloch(cfg.theta_true, t, cfg.epsilon, cfg.visibility)
        q = min(max((1.0 + float(n @ r_ps)) / 2.0, 0.0), 1.0)

        rng = rng_stream(cfg.seed, STAGE_COUNTS)
        if cfg.sampling_mode == "fixed":
            detected[i] = rng.binomial(
                int(cfg.photon_budget), min(p_ps, 1.0), size=n_trials
            )
        else:
            detected[i] = rng.poisson(cfg.photon_budget * p_ps, size=n_trials)
        plus[i] = rng.binomial(detected[i], q)
        r[i], psi[i] = _fringe_params(n)
        t_assumed[i] = t_a
        prior_big[i] = amplified_angle(cfg.theta_true, t_a)

    # A trial that detected nothing inverts a dummy count and is left out below.
    hit = detected > 0
    est, _ = _invert_frequency(
        _half_count_frequency(plus, np.where(hit, detected, 1)),
        r, psi, t_assumed, prior_big,
    )
    n_hit = hit.sum(axis=1)
    # Two or more estimates, all equal: no precision can be read off them.
    lowest = np.where(hit, est, np.inf).min(axis=1)
    zero_spread = (n_hit > 1) & (lowest == np.where(hit, est, -np.inf).max(axis=1))
    mean_detected = detected.mean(axis=1)
    theta = np.array([cfg.theta_true for cfg in block])
    mean_est, variance, mse = np.full((3, n_points), math.nan)
    full = n_hit == n_trials
    mean_est[full], variance[full], mse[full] = _moments(est[full], theta[full])
    for i in np.flatnonzero(~full & (n_hit > 0)):
        mean_est[i], variance[i], mse[i] = (
            m[0] for m in _moments(est[i, hit[i]][np.newaxis], theta[i : i + 1])
        )

    records = []
    for i, cfg in enumerate(block):
        k, n_det = int(n_hit[i]), float(mean_detected[i])
        var, err = float(variance[i]), float(mse[i])
        flags: list[str] = []
        if not k:
            flags.append("no-data")
        elif k < n_trials:
            flags.append(f"empty-trials={n_trials - k}")
        if zero_spread[i]:
            flags.append("zero-variance")
        t_mag = abs(cfg.t_set)
        try:
            qfi_theory = qfi_ppa_theory(cfg.theta_true, t_mag)
        except (ValueError, OverflowError):
            # t = 0, or near theta = 0 a t so small that p underflows to 0
            # or (t / p)^2 overflows: the theory has no value here
            qfi_theory = math.nan
        records.append(SweepRecord(
            theta_true=cfg.theta_true,
            t_mag=t_mag,
            mean_estimate=float(mean_est[i]),
            variance=var,
            mse=err,
            mean_detected=n_det,
            precision_per_photon=(
                1.0 / (var * n_det) if var > 0 and n_det > 0 else math.nan
            ),
            accuracy_per_photon=(
                1.0 / (err * n_det) if err > 0 and n_det > 0 else math.nan
            ),
            qfi_theory=qfi_theory,
            stderr_variance=var * math.sqrt(2.0 / (k - 1)) if k > 1 else math.nan,
            flags=";".join(flags),
        ))
    return records


def run_trials(configs: Sequence[BenchConfig]) -> list[SweepRecord]:
    """Run every config's trials and aggregate each into its sweep record.

    ``sampling_mode='fixed'`` sends exactly ``photon_budget`` photons per
    trial into the filter and detects Binomial(budget, p_ps) of them;
    ``'poisson'`` models a coherent source with Poisson(budget * p_ps)
    survivors.  Detected photons split binomially along the measurement
    direction, which is the information-optimal one for the *assumed*
    amplitude |t_set| + delta_t at the true phase, mirroring a
    calibrated-but-miscalibrated experiment.

    All trials of a config draw from one stream keyed by ``cfg.seed`` (the
    sweep derives it from the run seed and the grid indices): first every
    trial's detected count, then every trial's plus count.  A record is
    reproducible per grid point and does not depend on which configs share
    the call; single trials are not replayable on their own.

    Consecutive configs with one trial count are evaluated together as
    (points, trials) arrays, in blocks of at most ``BLOCK_TRIALS`` trials
    (or one point, if it has more), which bounds the memory of a call
    whatever its length.  Records come back in the order of ``configs``.
    """
    records: list[SweepRecord] = []
    for n_trials, group in groupby(configs, key=attrgetter("n_trials")):
        group = list(group)
        step = max(1, BLOCK_TRIALS // n_trials)
        for a in range(0, len(group), step):
            records += _run_block(group[a : a + step])
    return records


def systematic_shift_t(theta: float, t: float, dt: float) -> float:
    """First-principles biased estimate under amplitude miscalibration.

    theta_e = 2 arctan( tan(theta/2) (1 + dt/t) ) with dt = assumed - actual;
    exact, not linearized.
    """
    if t <= 0:
        raise ValueError("actual amplitude t must be positive")
    return 2.0 * math.atan(math.tan(theta / 2.0) * (1.0 + dt / t))

