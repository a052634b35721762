"""Monte Carlo model of a postselected polarimetry bench.

The simulated apparatus prepares a (possibly depolarized) vertical input,
imprints a phase theta - pi with a slightly misalignable waveplate, applies
the partially transmitting filter, and measures the survivors with the
projective test along a unit Bloch vector n.  Every step acts on one
polarization qubit, so the noiseless pipeline is a closed map on Bloch
vectors: the source r0 = (0, 0, -v), a rotation by pi - theta about the
waveplate axis, and the filter map of K+ = diag(t, 1).  The filter reads the
turned source's |1> and |0> populations, w = (1 - v)/2 + v (sin^2(theta/2) +
sin^2 2eps cos^2(theta/2)) and w0 = (1 - v)/2 + v cos^2 2eps cos^2(theta/2); at
eps = 0, w and so the survival probability are the closed forms' bit for bit
(see :func:`postselected_bloch`).  Phase estimates invert the fringe in closed form.

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

Every grid draw comes from its grid point's Philox stream (Salmon et al.,
SC'11), keyed by the first SeedSequence((run seed, stage)) word, the stage
STAGE_COUNTS for the sweep or STAGE_TOMOGRAPHY for fig4, and i << 32 | j
(:func:`_point_streams`).  A grid point (i, j) replays alone, whatever the
execution order or worker count; a single trial or repetition does not.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .states import _reject, amplified_angle
from .fisher import optimal_measurement, qfi_ppa_family, survival_probability

__all__ = [
    "STAGE_COUNTS",
    "STAGE_TOMOGRAPHY",
    "MIN_AMPLITUDE",
    "SweepRecord",
    "SWEEP_CSV_COLUMNS",
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
    r0 = (0, 0, -v) turns by pi - theta about n = (cos 2e, 0, sin 2e), e = eps,
    to x = -2 v sin 2e cos 2e cos^2(theta/2), y = v cos 2e sin theta and the
    |1>, |0> populations w = (1 - v)/2 + v (sin^2(theta/2) + sin^2 2e cos^2(theta/2)),
    w0 = (1 - v)/2 + v cos^2 2e cos^2(theta/2).  K+ = diag(t, 1), t real, passes
    p = :func:`survival_probability` of w and leaves r_ps = (t x, t y, t^2 w0 - w)/p,
    so a negative t turns r_ps by pi about z.  At t = 1 r_ps is the imprinted
    vector, v (0, sin theta, cos theta) at eps = 0.  A point that no photon
    survives (p = 0) returns r_ps = 0 and p_ps = 0.  r_ps has the shape (..., 3).
    """
    v, c2, s2 = visibility, np.cos(2.0 * epsilon), np.sin(2.0 * epsilon)
    cos2 = np.square(np.cos(theta / 2.0))
    w = (1.0 - v) / 2.0 + v * (np.square(np.sin(theta / 2.0)) + s2 * s2 * cos2)
    w0 = (1.0 - v) / 2.0 + v * (c2 * c2) * cos2
    p = survival_probability(np.abs(t), w)
    r = np.empty(p.shape + (3,))
    x, y = -2.0 * v * s2 * c2 * cos2, v * c2 * np.sin(theta)
    r[..., 0], r[..., 1], r[..., 2] = t * x, t * y, t * t * w0 - w
    return r / np.where(p > 0.0, p, np.inf)[..., None], p


def _fringe_params(n: np.ndarray) -> tuple:
    # The real-amplitude family sits at (0, sin Theta, cos Theta), so along
    # the Bloch vector n it gives q(Theta) = (1 + n_y sin Theta + n_z cos Theta)/2;
    # written as (R, psi) of the fringe q = (1 + R cos(Theta - psi))/2.
    return np.hypot(n[..., 1], n[..., 2]), np.arctan2(n[..., 1], n[..., 2])


def _half_count_frequency(counts_plus, n_detected):
    # Empirical frequency kept half a count away from 0 and 1, computed in
    # place; a 0-d input gives a NumPy scalar.
    n = np.array(n_detected, dtype=float)
    f = np.divide(counts_plus, n, out=np.empty(np.broadcast(counts_plus, n).shape))
    lo = np.divide(0.5, n, out=n)
    return np.clip(f, lo, 1.0 - lo, out=f)[()]


# The arccos branches psi + b + 2 pi k, then psi - b + 2 pi k, for k = -1, 0, 1.
_BRANCHES = tuple((op, 2.0 * math.pi * k) for op in (np.add, np.subtract) for k in (-1, 0, 1))
_SHIFTS = np.array([shift for _, shift in _BRANCHES])


def _invert_frequency(f, r, psi, t_assumed, prior_big) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ML inversion of fringe frequencies; returns (estimates, clamped).

    ``(r, psi)`` are the fringe's :func:`_fringe_params` and ``prior_big``
    the amplified prior ``amplified_angle(theta_prior, t_assumed)``; the
    arccos branch nearest it is mapped back through the assumed amplitude.
    All parameters broadcast against ``f``, so a (points, trials) block
    inverts in one call with (points, 1) parameters; 0-d inputs give NumPy
    scalars.  ``clamped`` marks the frequencies outside the fringe's
    achievable range.  The arithmetic runs in place, on three float arrays.
    """
    u = np.empty(np.broadcast_shapes(np.shape(f), np.shape(r)))
    np.divide(np.subtract(np.multiply(2.0, f, out=u), 1.0, out=u), r, out=u)
    clamped = np.abs(u) > 1.0
    b = np.arccos(np.clip(u, -1.0, 1.0, out=u), out=u)
    # Running minimum over the six branches in _BRANCHES' order: the strict <
    # keeps the first of equally near candidates, and `win` its index.
    shape = np.broadcast_shapes(b.shape, *map(np.shape, (psi, t_assumed, prior_big)))
    gap, cand_gap = np.empty(shape), np.empty(shape)
    win = np.zeros(shape, dtype=np.int8)
    for k, (op, shift) in enumerate(_BRANCHES):
        cand = op(psi, b, out=cand_gap if k else gap)
        np.abs(np.subtract(np.add(cand, shift, out=cand), prior_big, out=cand), out=cand)
        if k:
            closer = cand_gap < gap
            np.copyto(gap, cand_gap, where=closer)
            np.copyto(win, k, where=closer)
    # The winner afresh, its branch then its shift, mapped back.
    best = np.subtract(psi, b, out=gap)
    np.add(psi, b, out=best, where=win < 3)
    np.add(best, np.take(_SHIFTS, win, out=cand_gap, mode="clip"), out=best)
    np.tan(np.divide(best, 2.0, out=best), out=best)
    np.arctan(np.multiply(t_assumed, best, out=best), out=best)
    return np.multiply(2.0, best, out=best)[()], clamped[()]


@cache
def _key_word(run_seed: int, stage: int) -> int:
    """First key word of the ``stage`` streams of the run seed ``run_seed``."""
    return int(np.random.SeedSequence((run_seed, stage)).generate_state(1, np.uint64)[0])


@cache
def _philox():
    """Every grid point's Philox generator and its counter-0 state, made on first use."""
    bitgen = np.random.Philox(key=0)
    return bitgen, np.random.Generator(bitgen), bitgen.state


def _point_streams(seed: int, stage: int, points):
    """The shared Philox generator keyed in turn to each (i, j) of ``points``: key
    (_key_word(seed, stage), i << 32 | j), counter 0, until the next turn re-keys it."""
    bitgen, gen, state = _philox()
    word = _key_word(seed, stage)
    for i, j in points:
        state["state"]["key"] = (word, i << 32 | j)
        bitgen.state = state
        yield gen


def _draw_counts(spec, points, p_ps, q) -> tuple[np.ndarray, np.ndarray]:
    """(points, trials) detected and plus counts, drawn as :func:`run_trials`
    says: point k survives with probability ``p_ps[k]``, reads + with ``q[k]``."""
    n, budget, mode = spec.n_trials, spec.photon_budget, spec.sampling_mode
    detected, plus = np.empty((2, len(points), n), dtype=np.int64)
    streams = enumerate(_point_streams(spec.seed, STAGE_COUNTS, points))
    if mode == "fixed":
        p_fixed = np.minimum(p_ps, 1.0)
        for k, gen in streams:
            detected[k] = gen.binomial(budget, p_fixed[k], n)
            plus[k] = gen.binomial(detected[k], q[k])
    elif mode == "poisson":
        lam = budget * p_ps
        lam_plus, lam_minus = lam * q, lam * (1.0 - q)
        for k, gen in streams:
            plus[k] = gen.poisson(lam_plus[k], n)
            detected[k] = plus[k] + gen.poisson(lam_minus[k], n)
    else:
        raise ValueError(f"sampling_mode: {mode!r} must be 'fixed' or 'poisson'")
    return detected, plus


def _moments(est: np.ndarray, hit: np.ndarray, theta: np.ndarray):
    """(mean, variance, mse about ``theta``, count, zero spread) of each row's
    estimates where ``hit``, nan where too few; zero spread (2+ equal): variance 0."""
    n_hit = hit.sum(axis=1)
    lowest = est.min(axis=1, where=hit, initial=np.inf)
    zero_spread = (n_hit > 1) & (lowest == est.max(axis=1, where=hit, initial=-np.inf))
    stats = np.full((3, len(est)), math.nan)
    full = n_hit == est.shape[1]
    # The full rows as one array (est itself if every row is full), then each
    # row with empty trials alone.
    parts = [(slice(None) if full.all() else full, slice(None))]
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
    hit = detected > 0
    mean_detected = detected.mean(axis=1)
    # A trial that detected nothing inverts a dummy count and is left out below;
    # the counts are freed before the inversion.
    f = _half_count_frequency(plus, np.maximum(detected, 1, out=detected))
    del detected, plus
    est, _ = _invert_frequency(
        f, *(col[:, None] for col in (*_fringe_params(n), t_assumed)),
        amplified_angle(theta, t_assumed)[:, None],
    )
    del f
    mean_est, variance, mse, n_hit, zero_spread = _moments(est, hit, theta)
    # t = 0 has no theory value (nor, see qfi_ppa_family, a t that underflows)
    qfi_theory = np.where(t > 0, qfi_ppa_family(theta, np.where(t > 0, t, 1)), math.nan)
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
