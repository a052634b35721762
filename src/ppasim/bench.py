"""Monte Carlo model of a postselected polarimetry bench.

The simulated apparatus prepares a (possibly depolarized) vertical input,
imprints a phase theta - pi with a slightly misalignable waveplate, applies
the partially transmitting filter, and measures the survivors along a
projective direction.  Every step acts on one polarization qubit, so the
noiseless pipeline is a closed map on Bloch vectors: the source
r0 = (0, 0, -v), a rotation by pi - theta about the waveplate axis, and the
filter map of K+ = diag(t, 1), which also gives the survival probability
(see :func:`postselected_bloch`).  Phase estimates invert the measured
fringe in closed form.

Systematic knobs:

* ``delta_t``: amplitude miscalibration, defined as assumed minus actual.
  The filter physically runs at ``|t_set|`` while the estimator (and the
  chosen measurement direction) use ``|t_set| + delta_t``.
* ``epsilon``: waveplate axis misalignment; the generator becomes
  cos(2 eps) sigma_x/2 + sin(2 eps) sigma_z/2, a rotation about
  (cos 2 eps, 0, sin 2 eps) by the same angle.

Randomness is drawn from numpy streams keyed by (seed, grid indices, stage):
the sweep derives each grid point's seed from the run seed and the point's
grid indices, and a bench run draws all of its trials from one stream of
that seed.  A grid point replays alone and independently of execution order
or worker count; a single trial cannot be replayed without its grid point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .states import amplified_angle, direction_to_bloch
from .fisher import MeasurementDirection, optimal_measurement, qfi_ppa_theory

__all__ = [
    "NoDataError",
    "STAGE_COUNTS",
    "BenchConfig",
    "SweepRecord",
    "SWEEP_CSV_COLUMNS",
    "fmt_sig",
    "rng_stream",
    "postselected_bloch",
    "estimate_theta",
    "run_trials",
    "systematic_shift_t",
    "misaligned_half_tangent",
]

# Stage tags for RNG substreams; fig4's tomography stages live in cli.
STAGE_COUNTS = 0

SWEEP_CSV_COLUMNS = (
    "theta_true",
    "t_mag",
    "mean_estimate",
    "variance",
    "mse",
    "mean_detected",
    "precision_per_photon",
    "accuracy_per_photon",
    "qfi_theory",
    "stderr_variance",
    "flags",
)


class NoDataError(ValueError):
    """No photon survived postselection; nothing to estimate from."""


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
    """Full description of one bench run."""

    theta_true: float
    t_set: complex
    delta_t: float = 0.0
    epsilon: float = 0.0
    visibility: float = 1.0
    photon_budget: int = 10**6
    sampling_mode: str = "fixed"
    n_trials: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        """Reject a point the bench cannot run, naming the spec field and value."""
        # |theta_true| < pi is the range of amplified_angle, which the
        # estimator's branch choice needs.
        if not abs(self.theta_true) < math.pi:
            raise ValueError(
                f"theta_list: theta = {self.theta_true:g} must lie in (-pi, pi)"
            )
        t = complex(self.t_set)
        if abs(t) > 1.0 + 1e-12:
            raise ValueError(f"t_list: |t| = {abs(t):g} exceeds 1")
        assumed = abs(t) + self.delta_t
        if not 0.0 < assumed <= 1.0 + 1e-12:
            field = "t_list, delta_t" if self.delta_t else "t_list"
            raise ValueError(
                f"{field}: t = {self.t_set:g} with delta_t = {self.delta_t:g} gives "
                f"the assumed amplitude |t| + delta_t = {assumed:g}, outside (0, 1]"
            )
        if abs(self.epsilon) >= math.pi / 4:
            raise ValueError(f"epsilon: {self.epsilon:g} must satisfy |epsilon| < pi/4")
        if not 0.0 < self.visibility <= 1.0:
            raise ValueError(f"visibility: v = {self.visibility:g} outside (0, 1]")
        if self.photon_budget < 0 or self.photon_budget != int(self.photon_budget):
            raise ValueError(f"photon_budget: {self.photon_budget} is not a count >= 0")
        if self.sampling_mode not in ("fixed", "poisson"):
            raise ValueError(
                f"sampling_mode: {self.sampling_mode!r} must be 'fixed' or 'poisson'"
            )
        if self.n_trials < 2 or self.n_trials != int(self.n_trials):
            raise ValueError(f"n_trials: {self.n_trials} is not an integer >= 2")
        if int(self.seed) < 0:
            raise ValueError(f"seed: {self.seed} must be non-negative")


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


def postselected_bloch(
    theta: float, t: complex, epsilon: float, visibility: float
) -> tuple[np.ndarray, float]:
    """Noiseless pipeline source -> U(theta - pi) -> filter on Bloch vectors.

    Returns ``(r_ps, p_ps)``: the standard Bloch vector of the normalized
    postselected state and the survival probability.  The source
    r0 = (0, 0, -v) turns by pi - theta about n = (cos 2 eps, 0, sin 2 eps)
    (Rodrigues' formula); K+ = diag(t, 1) then maps r1 = (x, y, z) to
    p = (|t|^2 (1 + z) + 1 - z)/2 and r_ps = (Re w, -Im w,
    (|t|^2 (1 + z) - (1 - z))/2) / p with w = t (x - i y).  At t = 1 the
    filter passes everything and r_ps is the imprinted vector; for
    eps = 0 it is v (0, sin theta, cos theta).  A point that no photon
    survives (p = 0) returns r_ps = 0 and p_ps = 0.
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
    t = complex(t)
    t2 = abs(t) ** 2
    w = t * complex(x, -y)
    p = (t2 * (1.0 + z) + 1.0 - z) / 2.0
    r = np.array([w.real, -w.imag, (t2 * (1.0 + z) - (1.0 - z)) / 2.0])
    return (r / p if p > 0.0 else np.zeros(3)), p


def _fringe_params(direction: MeasurementDirection) -> tuple[float, float]:
    # q(Theta) = (1 + C sin Theta + D cos Theta)/2 for the real-amplitude
    # family measured along `direction`; written as (R, psi) of the fringe
    # q = (1 + R cos(Theta - psi))/2.
    c = -math.sin(direction.theta_opt) * math.cos(direction.phi_opt)
    d = math.cos(direction.theta_opt)
    return math.hypot(c, d), math.atan2(c, d)


def _invert_frequency(
    f,
    direction: MeasurementDirection,
    t_assumed: float,
    theta_prior: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ML inversion of fringe frequencies; returns (estimates, clamped).

    ``clamped`` marks the frequencies outside the fringe's achievable range.
    """
    r, psi = _fringe_params(direction)
    if r < 1e-12:
        raise ValueError("measurement direction carries no fringe contrast")
    u = (2.0 * np.asarray(f, dtype=float) - 1.0) / r
    clamped = np.abs(u) > 1.0
    b = np.arccos(np.clip(u, -1.0, 1.0))
    # The six arccos branches psi +- b + 2 pi k; argmin keeps the first of
    # equally near candidates, so ties resolve in this order.
    cands = np.stack(
        [base + 2.0 * math.pi * k for base in (psi + b, psi - b) for k in (-1, 0, 1)]
    )
    prior_big = amplified_angle(theta_prior, t_assumed)
    nearest = np.abs(cands - prior_big).argmin(axis=0)
    best = np.take_along_axis(cands, nearest[np.newaxis], axis=0)[0]
    return 2.0 * np.arctan(t_assumed * np.tan(best / 2.0)), clamped


def estimate_theta(
    counts_plus,
    n_detected,
    t_assumed: float,
    direction: MeasurementDirection,
    theta_prior: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert trials' fringe frequencies into phase estimates.

    ``counts_plus`` and ``n_detected`` are per-trial counts of equal shape.
    Each empirical frequency is clamped to half a count away from 0 and 1,
    and to the fringe's achievable range; the arccos branch nearest the
    amplified prior is taken and mapped back through the assumed amplitude.
    Returns ``(estimates, clamped)``, where ``clamped`` marks the trials
    whose frequency fell outside the fringe's range.  Raises
    :class:`NoDataError` when any trial detected nothing.
    """
    n = np.asarray(n_detected, dtype=float)
    if np.any(n == 0):
        raise NoDataError("no detected photons in a trial")
    if not 0.0 < t_assumed <= 1.0 + 1e-12:
        raise ValueError("t_assumed must lie in (0, 1]")
    f = np.clip(np.asarray(counts_plus) / n, 0.5 / n, 1.0 - 0.5 / n)
    return _invert_frequency(f, direction, t_assumed, theta_prior)


def _estimator_direction(
    direction: MeasurementDirection, phase: float
) -> MeasurementDirection:
    # The fringe model inside the estimator is written for a real filter
    # amplitude; a filter phase rotates the state's azimuth by -phase, which
    # is equivalent to shifting the measurement azimuth by +phase.
    if phase == 0.0:
        return direction
    az = math.remainder(direction.phi_opt + phase, 2.0 * math.pi)
    if az >= math.pi:
        az -= 2.0 * math.pi
    return MeasurementDirection(direction.theta_opt, az)


def run_trials(cfg: BenchConfig) -> SweepRecord:
    """Run the configured number of trials and aggregate the statistics.

    ``sampling_mode='fixed'`` sends exactly ``photon_budget`` photons per
    trial into the filter and detects Binomial(budget, p_ps) of them;
    ``'poisson'`` models a coherent source with Poisson(budget * p_ps)
    survivors.  Detected photons split binomially along the measurement
    direction, which is the information-optimal one for the *assumed*
    amplitude |t_set| + delta_t at the true phase, mirroring a
    calibrated-but-miscalibrated experiment.

    All trials draw from one stream keyed by ``cfg.seed`` (the sweep derives
    it from the run seed and the grid indices): first every trial's detected
    count, then every trial's plus count.  The record is reproducible per
    grid point; single trials are not replayable on their own.
    """
    t = complex(cfg.t_set)
    t_assumed = abs(t) + cfg.delta_t
    phase = cmath.phase(t) if t != 0 else 0.0
    direction = optimal_measurement(cfg.theta_true, t_assumed * cmath.exp(1j * phase))
    # The filter runs at the physical amplitude t_set; delta_t only enters
    # the estimator.
    r_ps, p_ps = postselected_bloch(cfg.theta_true, t, cfg.epsilon, cfg.visibility)
    n = direction_to_bloch(direction.theta_opt, direction.phi_opt)
    q = min(max((1.0 + float(n @ r_ps)) / 2.0, 0.0), 1.0)

    rng = rng_stream(cfg.seed, STAGE_COUNTS)
    if cfg.sampling_mode == "fixed":
        detected = rng.binomial(
            int(cfg.photon_budget), min(p_ps, 1.0), size=cfg.n_trials
        )
    else:
        detected = rng.poisson(cfg.photon_budget * p_ps, size=cfg.n_trials)
    plus = rng.binomial(detected, q)
    hit = detected > 0
    est, est_clamped = estimate_theta(
        plus[hit],
        detected[hit],
        t_assumed,
        _estimator_direction(direction, phase),
        cfg.theta_true,
    )
    clamped = int(est_clamped.sum())

    mean_detected = float(detected.mean())
    flags: list[str] = []
    if not len(est):
        flags.append("no-data")
        nan = math.nan
        mean_est = variance = mse = stderr = precision = accuracy = nan
    else:
        mean_est = float(est.mean())
        variance = float(est.var(ddof=1)) if len(est) > 1 else math.nan
        mse = float(np.mean((est - cfg.theta_true) ** 2))
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
        if len(est) < cfg.n_trials:
            flags.append(f"empty-trials={cfg.n_trials - len(est)}")
    if clamped:
        flags.append(f"clamped={clamped}")

    t_mag = abs(t)
    qfi = qfi_ppa_theory(cfg.theta_true, t_mag) if t_mag > 0 else math.nan
    return SweepRecord(
        theta_true=cfg.theta_true,
        t_mag=t_mag,
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


def systematic_shift_t(theta: float, t: float, dt: float) -> float:
    """First-principles biased estimate under amplitude miscalibration.

    theta_e = 2 arctan( tan(theta/2) (1 + dt/t) ) with dt = assumed - actual;
    exact, not linearized.
    """
    if t <= 0:
        raise ValueError("actual amplitude t must be positive")
    return 2.0 * math.atan(math.tan(theta / 2.0) * (1.0 + dt / t))


def misaligned_half_tangent(epsilon: float, theta: float) -> float:
    """Half-angle tangent actually imprinted by a misaligned waveplate.

    sqrt( (sin^2(2 eps) + tan^2(theta/2)) / cos^2(2 eps) ); reduces to
    tan(theta/2) at eps = 0 and floors at |tan(2 eps)| as theta -> 0.  It is
    sqrt((1 - z)/(1 + z)), the tangent of half the polar angle, of the
    imprinted vector ``postselected_bloch(theta, 1, eps, 1)``.

    The sweep's fringe estimator does not read this angle: the tilt moves
    the imprinted vector toward x, off the y-z plane the fringe is written
    for, so a sweep row's ``--epsilon`` bias is not 2 atan of this value.
    """
    s = math.sin(2.0 * epsilon) ** 2
    c = math.cos(2.0 * epsilon) ** 2
    return math.sqrt((s + math.tan(theta / 2.0) ** 2) / c)
