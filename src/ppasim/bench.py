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

Each grid point (i, j) of a run draws its counts from its own Philox stream
(Salmon et al., SC'11) keyed by two 64-bit words: one drawn by
SeedSequence((run seed, STAGE_COUNTS)) and the grid bits i << 32 | j.  A grid
point replays alone, whatever the execution order or worker count; a single
trial does not.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .states import _reject, amplified_angle
from .fisher import optimal_measurement, qfi_ppa_theory, survival_probability

__all__ = [
    "STAGE_COUNTS",
    "STAGE_TOMOGRAPHY",
    "MIN_AMPLITUDE",
    "SweepRecord",
    "SWEEP_CSV_COLUMNS",
    "rng_stream",
    "postselected_bloch",
    "run_trials",
    "systematic_shift_t",
]

# Stage tags of a grid point's RNG substreams: the sweep's counts and fig4's
# tomography.
STAGE_COUNTS = 0
STAGE_TOMOGRAPHY = 1

# Largest photon budget or tomography shot count; numpy's binomial and
# poisson samplers both accept counts and means up to it.
MAX_COUNT = 10**18

# Smallest assumed filter amplitude |t| + delta_t: the estimates and their
# variance scale as t and t^2, which below it underflow to a degenerate row.
MIN_AMPLITUDE = 1e-100


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic substream keyed by (seed, *path).

    Streams for distinct keys are statistically independent, and the mapping
    does not depend on the order in which streams are created, so results
    are identical for any worker count.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed), *map(int, path))))


class SweepRecord(NamedTuple):
    """Statistics of `n_trials` bench runs at one grid point: one sweep CSV row."""

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


SWEEP_CSV_COLUMNS = SweepRecord._fields


def postselected_bloch(theta, t, epsilon, visibility):
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
    returns r_ps = 0 and p_ps = 0.  r_ps has the broadcast shape (..., 3).
    """
    v = visibility
    c2, s2 = np.cos(2.0 * epsilon), np.sin(2.0 * epsilon)
    alpha = math.pi - theta
    ca, sa = np.cos(alpha), np.sin(alpha)
    # n x r0 = (0, v c2, 0) and n . r0 = -v s2
    along = -v * s2 * (1.0 - ca)
    x = c2 * along
    y = v * c2 * sa
    z = -v * ca + s2 * along
    p = survival_probability(np.abs(t), (1.0 - z) / 2.0)
    r = np.empty(p.shape + (3,))
    r[..., 0], r[..., 1], r[..., 2] = t * x, t * y, (t * t * (1 + z) - (1 - z)) / 2
    return r / np.where(p > 0.0, p, np.inf)[..., None], p


def _fringe_params(n: np.ndarray) -> tuple:
    # The real-amplitude family sits at (0, sin Theta, cos Theta), so along
    # the Bloch vector n it gives q(Theta) = (1 + n_y sin Theta + n_z cos Theta)/2;
    # written as (R, psi) of the fringe q = (1 + R cos(Theta - psi))/2.
    return np.hypot(n[..., 1], n[..., 2]), np.arctan2(n[..., 1], n[..., 2])


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


@cache
def _key_word(run_seed: int) -> int:
    """First key word of the count streams of the run seed ``run_seed``."""
    seq = np.random.SeedSequence((run_seed, STAGE_COUNTS))
    return int(seq.generate_state(1, np.uint64)[0])


@cache
def _philox():
    """Every block's Philox generator and its counter-0 state, made on first use."""
    bitgen = np.random.Philox(key=0)
    return bitgen, np.random.Generator(bitgen), bitgen.state


def _draw_counts(spec, points, p_ps, q) -> tuple[np.ndarray, np.ndarray]:
    """(points, trials) detected and plus counts, drawn as :func:`run_trials`
    says: point k survives with probability ``p_ps[k]``, reads + with ``q[k]``."""
    n, budget = spec.n_trials, spec.photon_budget
    detected, plus = np.empty((2, len(points), n), dtype=np.int64)
    bitgen, gen, state = _philox()
    if spec.sampling_mode == "fixed":
        p_fixed = np.minimum(p_ps, 1.0)

        def draw(k):
            detected[k] = gen.binomial(budget, p_fixed[k], n)
            plus[k] = gen.binomial(detected[k], q[k])
    else:
        lam = budget * p_ps
        lam_plus, lam_minus = lam * q, lam * (1.0 - q)

        def draw(k):
            plus[k] = gen.poisson(lam_plus[k], n)
            detected[k] = plus[k] + gen.poisson(lam_minus[k], n)
    word = _key_word(spec.seed)
    for k, (i, j) in enumerate(points):
        state["state"]["key"] = (word, i << 32 | j)
        bitgen.state = state
        draw(k)
    return detected, plus


def _moments(est: np.ndarray, hit: np.ndarray, theta: np.ndarray):
    """(mean, variance, mse about ``theta``, count, zero spread) of each row's
    estimates where ``hit``, nan where too few; zero spread (2+ equal): variance 0."""
    n_hit = hit.sum(axis=1)
    lowest = np.where(hit, est, np.inf).min(axis=1)
    zero_spread = (n_hit > 1) & (lowest == np.where(hit, est, -np.inf).max(axis=1))
    stats = np.full((3, len(est)), math.nan)
    full = n_hit == est.shape[1]
    # The full rows as one array, then each row with empty trials alone.
    parts = [(full, slice(None))]
    parts += [([i], hit[i]) for i in np.flatnonzero(~full & (n_hit > 0))]
    for rows, trials in parts:
        e = est[rows][:, trials]
        var = e.var(axis=1, ddof=1) if e.shape[1] > 1 else np.full(len(e), math.nan)
        stats[:, rows] = e.mean(axis=1), var, np.mean((e - theta[rows, None]) ** 2, 1)
    stats[1, zero_spread] = 0.0
    return (*stats, n_hit, zero_spread)


def run_trials(spec, points: list) -> list[SweepRecord]:
    """The sweep record of each grid index (i, j) in ``points``: ``spec``'s
    bench run (a ``cli.SweepSpec``, read by attribute) at ``theta_list[i]``
    and the filter amplitude ``t_list[j]``, over ``spec.n_trials`` trials.

    ``sampling_mode='fixed'`` sends exactly ``photon_budget`` photons per
    trial into the filter and detects Binomial(budget, p_ps) of them;
    ``'poisson'`` models a coherent source with Poisson(budget * p_ps)
    survivors.  Detected photons split binomially along the measurement
    direction, which is the information-optimal one for the *assumed*
    amplitude |t_set| + delta_t at the true phase, mirroring a
    calibrated-but-miscalibrated experiment.  From its own stream (see the
    module notes) ``'fixed'`` draws every trial's detected count, then every
    plus count; ``'poisson'`` every plus count ~ Poisson(budget p_ps q), then
    every minus count ~ Poisson(budget p_ps (1 - q)): the same law, thinned.

    The points are evaluated as one (points, trials) array, records in their
    order; the grid runner's blocks of ``cli.BLOCK_TRIALS`` bound the memory.
    """
    index = np.array(points)
    theta = np.array(spec.theta_list)[index[:, 0]]
    t = np.abs(np.array(spec.t_list)[index[:, 1]])
    t_assumed = t + spec.delta_t
    n = optimal_measurement(theta, t_assumed)
    # The filter runs at the physical amplitude |t_set|; delta_t only
    # enters the estimator.
    r_ps, p_ps = postselected_bloch(theta, t, spec.epsilon, spec.visibility)
    q = np.clip((1.0 + (n * r_ps).sum(-1)) / 2.0, 0.0, 1.0)
    detected, plus = _draw_counts(spec, points, p_ps, q)

    # A trial that detected nothing inverts a dummy count and is left out below.
    hit = detected > 0
    est, _ = _invert_frequency(
        _half_count_frequency(plus, np.where(hit, detected, 1)),
        *(col[:, None] for col in (*_fringe_params(n), t_assumed)),
        amplified_angle(theta, t_assumed)[:, None],
    )
    mean_est, variance, mse, n_hit, zero_spread = _moments(est, hit, theta)
    mean_detected = detected.mean(axis=1)
    # t = 0 has no theory value (nor, see qfi_ppa_theory, a t that underflows)
    qfi_theory = np.where(t > 0, qfi_ppa_theory(theta, np.where(t > 0, t, 1)), math.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.stack([variance, mse]) * mean_detected
        per_photon = np.where(scaled > 0.0, 1.0 / scaled, math.nan)
        stderr = np.where(n_hit > 1, variance * np.sqrt(2.0 / (n_hit - 1)), math.nan)
    columns = np.stack([
        theta, t, mean_est, variance, mse, mean_detected, *per_photon, qfi_theory, stderr
    ], axis=1)
    flags = _flag_column(("no-data", "empty-trials={}", "zero-variance"),
                         [n_hit == 0, (n_hit > 0) * (spec.n_trials - n_hit), zero_spread])
    return [SweepRecord(*row, flag) for row, flag in zip(columns.tolist(), flags)]


def _flag_column(names, counts) -> list[str]:
    """Each row's ``flags`` cell: ``names[k].format(n)`` for each nonzero n of the
    row in ``counts[k]`` (a bool counts 1), joined by ';'."""
    rows = np.array(counts, dtype=int).T.tolist()
    return [";".join(f.format(n) for f, n in zip(names, row) if n) for row in rows]


def systematic_shift_t(theta, t, dt):
    """First-principles biased estimate under amplitude miscalibration.

    theta_e = 2 arctan( tan(theta/2) (1 + dt/t) ) with dt = assumed - actual;
    exact, not linearized.
    """
    _reject(np.asarray(t) <= 0, "actual amplitude t must be positive")
    return 2.0 * np.arctan(np.tan(theta / 2.0) * (1.0 + dt / t))
