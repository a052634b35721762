"""Command-line interface: sweep, kd, fig4, verify.

sweep and fig4 write their CSV through one grid runner, :func:`_run_grid`,
with 12 significant digits; kd's JSON carries the full repr of each float.
Every random draw comes from a stream keyed by the seed, the grid indices
and the stage (``bench._point_seed``), so output files are byte-identical
for any ``--workers`` value.  ``PPASIM_OUT_DIR`` supplies the default
directory for relative output paths.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import pickle
import re
import sys
from dataclasses import dataclass, fields
from itertools import product

import numpy as np

from .bench import (
    MAX_COUNT,
    MIN_AMPLITUDE,
    STAGE_TOMOGRAPHY,
    SWEEP_CSV_COLUMNS,
    BenchConfig,
    _point_seed,
    postselected_bloch,
    rng_stream,
    run_trials,
)
from .fisher import (
    on_sphere,
    qfi_bloch,
    qfi_ppa_family,
    qfi_ppa_theory,
    survival_probability,
)
from .quasiprob import kd_table_closed_form, nonclassicality_gap
from .states import ZeroProbabilityError
from .tomography import DEFAULT_DTHETA, simulate_tomography
from .verify import T_GRID, THETA_GRID, run_all

__all__ = [
    "SweepSpec",
    "cmd_sweep",
    "cmd_kd",
    "cmd_fig4",
    "cmd_verify",
    "main",
]

OUT_DIR_ENV = "PPASIM_OUT_DIR"

# The file each writing command names when no output path is given.
DEFAULT_OUT = {"sweep": "sweep.csv", "kd": "kd.json", "fig4": "fig4.csv"}

# Row-major (a, a') outcomes of the pass-conditioned table that kd writes.
KD_TABLE_LABELS = ("a+,a+", "a+,a-", "a-,a+", "a-,a-")

FIG4_CSV_COLUMNS = (
    "theta_true",
    "t_mag",
    "p_ps",
    "qfi_theory",
    "qfi_family",
    "qfi_empirical",
    "qfi_empirical_stderr",
    "gap4_family",
    "gap4_empirical",
    "gap4_empirical_stderr",
    "qfi_theory_per_input",
    "qfi_empirical_per_input",
    "gap4_empirical_per_input",
    "flags",
)

# Tomography repetitions per fig4 point, and the distance from the sphere,
# in standard deviations of an estimate's length (at most 1/sqrt(shots)),
# within which an unprojected centre estimate flags its point near-boundary.
_FIG4_REPS = 4
_NEAR_BOUNDARY_SIGMAS = 3.0


# What a SweepSpec field accepts, keyed by the type of its default.
_FIELD_KINDS = {float: numbers.Real, int: numbers.Integral, str: str}


def _is_kind(value, kind) -> bool:
    """isinstance, except that a bool (a JSON true or false) is no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class SweepSpec:
    """Grid description shared by the sweep and fig4 commands."""

    theta_list: tuple[float, ...] = THETA_GRID
    t_list: tuple[float, ...] = T_GRID
    visibility: float = 1.0
    epsilon: float = 0.0
    delta_t: float = 0.0
    photon_budget: int = 10**6
    sampling_mode: str = "fixed"
    n_trials: int = 32
    seed: int = 0
    shots_per_basis: int = 10**5
    output_path: str = ""

    def __post_init__(self) -> None:
        """Reject a field whose type differs from its default's, and a bool
        anywhere; grids become tuples."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, tuple):  # a grid
                if not (
                    isinstance(value, (list, tuple))
                    and value
                    and all(_is_kind(x, numbers.Real) for x in value)
                ):
                    raise ValueError(
                        f"{f.name}: expected a non-empty list of numbers, got {value!r}"
                    )
                object.__setattr__(self, f.name, tuple(float(x) for x in value))
            elif not _is_kind(value, _FIELD_KINDS[type(f.default)]):
                kind = type(f.default).__name__
                raise ValueError(f"{f.name}: expected {kind}, got {value!r}")


def _resolve_out(path: str, default_name: str) -> str:
    """Resolve an output path against PPASIM_OUT_DIR for bare filenames."""
    name = path or default_name
    if os.path.isabs(name) or os.path.dirname(name):
        return name
    base = os.environ.get(OUT_DIR_ENV, "")
    return os.path.join(base, name) if base else name


def _csv_row(values: tuple) -> str:
    """One CSV row: each value with 12 significant digits, the last (flags) as is."""
    return "%.12g," * (len(values) - 1) % values[:-1] + values[-1]


def _grid_rows(evaluate, spec: SweepSpec, points: list) -> list[str]:
    """The CSV rows of ``evaluate(spec, points)``: a forked worker sends these."""
    return [_csv_row(values) for values in evaluate(spec, points)]


def _fork_blocks(evaluate, spec: SweepSpec, blocks: list) -> list[str]:
    """The :func:`_grid_rows` of each block in turn, each from a forked child
    that pickles ``(True, rows)`` or ``(False, exception)`` to its own pipe.
    Once all are reaped, a worker's exception is re-raised; a child that exits
    without it raises RuntimeError naming its block's first point and seed."""
    children = []
    for block in blocks:
        fd_read, fd_write = os.pipe()
        pid = os.fork()
        if pid == 0:  # never return into the caller nor flush inherited buffers
            try:
                try:
                    payload = (True, _grid_rows(evaluate, spec, block))
                except Exception as exc:
                    payload = (False, exc)
                with open(fd_write, "wb") as fh:
                    fh.write(pickle.dumps(payload))
                os._exit(0)
            finally:
                os._exit(1)
        os.close(fd_write)
        children.append((block[0], pid, open(fd_read, "rb")))
    sent = []
    for (i, j), pid, fh in children:
        with fh:
            sent.append((i, j, fh.read(), os.waitpid(pid, 0)[1]))
    rows = []
    for i, j, data, status in sent:
        ok, value = pickle.loads(data) if data and not status else (False, RuntimeError(
            f"worker of the block from grid index (i, j) = ({i}, {j}), seed = "
            f"{spec.seed}: exit status {os.waitstatus_to_exitcode(status)}, no rows"))
        if not ok:
            raise value
        rows += value
    return rows


def _run_grid(spec: SweepSpec, command: str, columns, evaluate, workers=1) -> str:
    """Write the CSV of ``columns`` whose rows ``evaluate(spec, points)`` gives
    for the grid indices (i, j) in ``points``.

    On Linux the row-major grid is cut into at most ``workers`` contiguous
    blocks of near-equal length, and no more than ``os.cpu_count()``, each
    run by :func:`_fork_blocks`; one block, or any grid elsewhere, runs in
    this process.  Rows keep the grid order.
    """
    points = list(product(range(len(spec.theta_list)), range(len(spec.t_list))))
    n_blocks = min(workers, len(points), os.cpu_count() or 1) if workers > 1 else 1
    if n_blocks > 1 and sys.platform == "linux":
        cuts = [len(points) * k // n_blocks for k in range(n_blocks + 1)]
        blocks = [points[a:b] for a, b in zip(cuts, cuts[1:])]
        rows = _fork_blocks(evaluate, spec, blocks)
    else:
        rows = _grid_rows(evaluate, spec, points)
    out = _resolve_out(spec.output_path, DEFAULT_OUT[command])
    _write_text(out, ",".join(columns) + "\n" + "\n".join(rows) + "\n")
    return out


def _sweep_points(spec: SweepSpec, points: list) -> list:
    """The SweepRecord of each grid index (i, j) in ``points``, seeded by it;
    the BenchConfig fields from delta_t to n_trials are the spec's."""
    shared = {f.name: getattr(spec, f.name) for f in fields(BenchConfig)[2:-1]}
    return run_trials([
        BenchConfig(spec.theta_list[i], spec.t_list[j], **shared,
                    seed=_point_seed(spec.seed, i, j))
        for i, j in points
    ])


def cmd_sweep(spec: SweepSpec, workers: int = 1) -> str:
    """Run the bench at every grid point, on up to ``workers`` processes (see
    :func:`_run_grid`), and write the sweep CSV; the bytes do not depend on it."""
    return _run_grid(spec, "sweep", SWEEP_CSV_COLUMNS, _sweep_points, workers)


def _write_text(path: str, text: str) -> None:
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _probe_out(path: str) -> None:
    """Raise ValueError naming ``output_path`` if ``path`` cannot be written.

    The probe opens the file for appending, first making a missing
    directory, and removes the file again if the probe created it.
    """
    existed = os.path.lexists(path)
    try:
        try:
            open(path, "a").close()
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path))
            open(path, "a").close()
        if not existed:
            os.remove(path)
    except OSError as exc:
        raise ValueError(f"output_path: cannot write {path}: {exc.strerror}") from None


def cmd_kd(theta_list, t_list, output_path: str = "") -> str:
    """Write the conditional quasiprobability tables and gaps as JSON.

    The imprinted state exp(i theta sigma_x / 2)|0> has Bloch vector
    (0, sin theta, cos theta); each table is :func:`kd_table_closed_form`
    of it.
    """
    records = []
    for theta in theta_list:
        r = (0.0, math.sin(theta), math.cos(theta))
        for t in t_list:
            cond = kd_table_closed_form(r, t)
            gap = nonclassicality_gap(cond)
            records.append({
                "theta": float(theta),
                "t": float(t),
                "labels": list(KD_TABLE_LABELS),
                "re": cond.real.ravel().tolist(),
                "im": cond.imag.ravel().tolist(),
                "gap": gap,
                "gap_times_4delta_sq": 4.0 * gap,  # eigenvalue spread is 1
            })
    out = _resolve_out(output_path, DEFAULT_OUT["kd"])
    _write_text(out, json.dumps(records, indent=2) + "\n")
    return out


def _fig4_point(spec: SweepSpec, i: int, j: int) -> tuple:
    """The FIG4_CSV_COLUMNS values of grid point (i, j), flags last."""
    theta = spec.theta_list[i]
    t = spec.t_list[j]
    vis = spec.visibility
    shots = spec.shots_per_basis
    dtheta = DEFAULT_DTHETA

    # Exact vectors: the postselected family at theta - dtheta, theta and
    # theta + dtheta, then the unfiltered state (t = 1).
    thetas = np.array([theta - dtheta, theta, theta + dtheta, theta])
    truth, (_, p_ps, _, _) = postselected_bloch(thetas, np.array([t, t, t, 1]), 0, vis)

    # One stream per point and one draw of (repetitions, vectors, axes) counts.
    rng = rng_stream(_point_seed(spec.seed, i, j), STAGE_TOMOGRAPHY)
    est = simulate_tomography(np.broadcast_to(truth, (_FIG4_REPS, 4, 3)), shots, rng)
    minus, center, plus, unfiltered = est.swapaxes(0, 1)
    dr = (plus - minus) / (2.0 * dtheta)
    # A centre estimate on the sphere is a pure state, whose derivative has
    # no radial part: project r' onto the tangent plane (Smolin, Gambetta &
    # Smith, PRL 108, 070502, 2012).
    boundary = on_sphere(center)
    if boundary.any():
        c = center[boundary]
        dr[boundary] -= ((c * dr[boundary]).sum(-1) / (c * c).sum(-1))[:, None] * c
    norm = np.sqrt((center * center).sum(-1))
    near = ~boundary & (1.0 - norm < _NEAR_BOUNDARY_SIGMAS / math.sqrt(shots))
    flags = [f"boundary={boundary.sum()}"] if boundary.any() else []
    if near.any():
        flags.append("near-boundary")
    try:
        tables = kd_table_closed_form(np.vstack([truth[3:], unfiltered]), t)
    except ZeroProbabilityError:
        # an unfiltered estimate the filter blocks entirely has no table
        tables = np.full((_FIG4_REPS + 1, 2, 2), math.nan, dtype=complex)
        tables[0] = kd_table_closed_form(truth[3], t)
        flags.append("no-survival")
    gap4_family, *gap_reps = 4.0 * nonclassicality_gap(tables, axes=(-2, -1))

    reps = np.stack([qfi_bloch(center, dr), gap_reps])
    qfi_mean, gap_mean = reps.mean(1)
    qfi_se, gap_se = reps.std(1, ddof=1) / math.sqrt(_FIG4_REPS)
    qfi_theory = qfi_ppa_theory(theta, t)
    return (
        theta,
        t,
        p_ps,
        qfi_theory,
        qfi_ppa_family(theta, t, vis),
        qfi_mean,
        qfi_se,
        gap4_family,
        gap_mean,
        gap_se,
        qfi_theory * p_ps,
        qfi_mean * p_ps,
        gap_mean * p_ps,
        ";".join(flags),
    )


def cmd_fig4(spec: SweepSpec) -> str:
    """Tomographic information pipeline over the grid, written as CSV.

    Per grid point, one stream keyed by (seed, i, j) draws four tomography
    repetitions of the postselected Bloch vector at theta and theta +-
    dtheta, whose central difference feeds the empirical QFI
    :func:`qfi_bloch`, and of the unfiltered vector, which feeds the
    conditional quasiprobability gap.  On the sphere the derivative is
    projected onto the tangent plane; ``flags`` counts those repetitions
    (``boundary=<n>``), marks centre estimates within three standard
    deviations of the sphere (``near-boundary``) and an unfiltered estimate
    the filter blocks entirely (``no-survival``, nan gap columns).  The
    exact columns are closed forms: ``qfi_family`` is
    :func:`qfi_ppa_family` of the point, ``gap4_family`` the gap of
    :func:`kd_table_closed_form` of the exact unfiltered vector.
    Per-input-photon columns scale by the exact survival probability.  A
    point that raises re-raises the same exception type, naming theta, t,
    the grid index (i, j) and the run seed.
    """
    return _run_grid(spec, "fig4", FIG4_CSV_COLUMNS, _fig4_points)


def _fig4_points(spec: SweepSpec, points: list) -> list[tuple]:
    """:func:`_fig4_point` of each (i, j) in ``points``; an error names its point."""
    values = []
    for i, j in points:
        try:
            values.append(_fig4_point(spec, i, j))
        except ValueError as exc:
            raise type(exc)(
                f"fig4 point theta = {spec.theta_list[i]!r}, t = {spec.t_list[j]!r} "
                f"at grid index (i, j) = ({i}, {j}), seed = {spec.seed}: {exc}"
            ) from exc
    return values


def cmd_verify(seed: int = 0, n_instances: int | None = None) -> int:
    """Run the self-verification suites; exit code 0 iff all pass."""
    results = run_all(seed, n_instances)
    for res in results:
        print(res.summary())
    return 0 if all(r.passed for r in results) else 1


def _parse_float_list(name: str, text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValueError(f"{name}: {text!r} is not a list of numbers") from None


def _read_config(path: str) -> dict:
    """SweepSpec fields from a JSON file; ValueError naming the problem otherwise."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"config: cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # malformed JSON or text
        raise ValueError(f"config: {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config: {path} must hold a JSON object of SweepSpec fields")
    known = {f.name for f in fields(SweepSpec)}
    for key in data:
        if key not in known:
            raise ValueError(f"{key}: not a SweepSpec field (config {path})")
    return data


def _load_spec(args: argparse.Namespace, defaults: dict | None = None) -> SweepSpec:
    """Spec from defaults, then the config file, then flags.

    Each flag stores under its SweepSpec field name; the grids arrive as
    comma-separated text.  Raises ValueError naming the field on any
    unreadable or invalid input.
    """
    data: dict = dict(defaults or {})
    if getattr(args, "config", None):
        data.update(_read_config(args.config))
    for f in fields(SweepSpec):
        val = getattr(args, f.name, None)
        if val is not None:
            grid = isinstance(f.default, tuple)
            data[f.name] = _parse_float_list(f.name, val) if grid else val
    return SweepSpec(**data)


def _check(command: str, spec: SweepSpec, args: argparse.Namespace) -> None:
    """Raise ValueError at the first value ``command`` cannot evaluate.

    Every value rule of the four commands is here, once, with the commands
    it applies to; SweepSpec has checked the types.  The message starts
    with the field and quotes the value.  The grids come first, entry by
    entry: theta_list, t_list, then the (theta, t) points in row-major
    order.  The other fields follow in SweepSpec order, then ``--workers``
    and ``--n``.
    """
    for theta in spec.theta_list:
        if command in ("kd", "fig4") and not math.isfinite(theta):
            raise ValueError(f"theta_list: theta = {theta} is not finite")
        # |theta| < pi is the range of amplified_angle, which the
        # estimator's branch choice needs.
        if command == "sweep" and not abs(theta) < math.pi:
            raise ValueError(f"theta_list: theta = {theta:g} must lie in (-pi, pi)")
    dt = spec.delta_t
    for t in spec.t_list:
        if command in ("sweep", "kd", "fig4") and not abs(t) <= 1.0 + 1e-12:
            raise ValueError(f"t_list: t = {t:g} must satisfy |t| <= 1")
        if command == "fig4" and not t > 0.0:
            raise ValueError(f"t_list: t = {t:g} must be positive")
        if command == "sweep" and not MIN_AMPLITUDE <= abs(t) + dt <= 1.0 + 1e-12:
            field = "t_list, delta_t" if dt else "t_list"
            raise ValueError(
                f"{field}: t = {t:g} with delta_t = {dt:g} gives the assumed "
                f"amplitude |t| + delta_t = {abs(t) + dt:g}, "
                f"outside [{MIN_AMPLITUDE:g}, 1]"
            )
    if command in ("kd", "fig4"):
        for theta in spec.theta_list:
            for t in spec.t_list:
                if not survival_probability(abs(t), math.sin(theta / 2.0) ** 2) > 1e-14:
                    raise ValueError(
                        f"theta_list, t_list: survival probability at (theta = "
                        f"{theta:g}, t = {t:g}) is not above the 1e-14 that "
                        f"conditioning needs"
                    )
    if command in ("sweep", "fig4") and not 0.0 < spec.visibility <= 1.0:
        raise ValueError(f"visibility: v = {spec.visibility:g} must lie in (0, 1]")
    if command == "sweep" and not abs(spec.epsilon) < math.pi / 4:
        raise ValueError(f"epsilon: {spec.epsilon:g} must satisfy |epsilon| < pi/4")
    if command == "sweep" and not 0 <= spec.photon_budget <= MAX_COUNT:
        raise ValueError(
            f"photon_budget: {spec.photon_budget} is not a count in [0, {MAX_COUNT}]"
        )
    if command == "sweep" and spec.sampling_mode not in ("fixed", "poisson"):
        raise ValueError(
            f"sampling_mode: {spec.sampling_mode!r} must be 'fixed' or 'poisson'"
        )
    if command == "sweep" and spec.n_trials < 2:
        raise ValueError(f"n_trials: {spec.n_trials} is not an integer >= 2")
    if command in ("sweep", "fig4", "verify") and spec.seed < 0:
        raise ValueError(f"seed: {spec.seed} must be non-negative")
    if command == "fig4" and not 1 <= spec.shots_per_basis <= MAX_COUNT:
        raise ValueError(
            f"shots_per_basis: {spec.shots_per_basis} must lie in [1, {MAX_COUNT}]"
        )
    if command == "sweep" and args.workers < 1:
        raise ValueError(f"workers: {args.workers} must be at least 1")
    if command == "verify" and args.n_instances is not None and args.n_instances < 1:
        raise ValueError(f"n_instances: {args.n_instances} must be at least 1")


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--theta", dest="theta_list", metavar="THETA",
        help="comma-separated phase values",
    )
    p.add_argument(
        "--t", dest="t_list", metavar="T", help="comma-separated filter amplitudes"
    )
    p.add_argument("--config", help="JSON file with SweepSpec fields")
    p.add_argument(
        "--out", dest="output_path", metavar="OUT",
        help="output path (resolved against $%s)" % OUT_DIR_ENV,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppasim",
        description="Simulations of phase estimation with partially "
        "postselected amplification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo precision sweep -> CSV")
    _add_grid_args(p_sweep)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument(
        "--budget", dest="photon_budget", metavar="BUDGET", type=int,
        help="photons per trial",
    )
    p_sweep.add_argument("--trials", dest="n_trials", metavar="TRIALS", type=int)
    p_sweep.add_argument("--visibility", type=float, default=None)
    p_sweep.add_argument("--epsilon", type=float, default=None)
    p_sweep.add_argument("--delta-t", dest="delta_t", type=float, default=None)
    p_sweep.add_argument(
        "--sampling-mode", dest="sampling_mode", choices=("fixed", "poisson")
    )
    p_sweep.add_argument("--workers", type=int, default=1)

    p_kd = sub.add_parser("kd", help="conditional quasiprobability tables -> JSON")
    _add_grid_args(p_kd)

    p_fig4 = sub.add_parser("fig4", help="tomographic QFI/gap pipeline -> CSV")
    _add_grid_args(p_fig4)
    p_fig4.add_argument("--seed", type=int, default=None)
    p_fig4.add_argument("--visibility", type=float, default=None)
    p_fig4.add_argument(
        "--shots", dest="shots_per_basis", metavar="SHOTS", type=int,
        help="tomography shots per basis",
    )

    p_verify = sub.add_parser("verify", help="run randomized identity suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--n", dest="n_instances", type=int, default=None)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads "-0.3,0.2" as an option, not as the value of --theta
    # (or an abbreviation of it) or --t before it, so attach it with "="
    for i in range(len(argv) - 1, 0, -1):
        flag = re.fullmatch(r"--t(h|he|het|heta)?", argv[i - 1])
        if flag and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    # An imperfect source keeps most tomographic estimates off the sphere,
    # where fig4 would project the derivative and flag the point.
    defaults = {"visibility": 0.98} if args.command == "fig4" else None
    try:
        spec = _load_spec(args, defaults)
        _check(args.command, spec, args)
        if args.command in DEFAULT_OUT:
            _probe_out(_resolve_out(spec.output_path, DEFAULT_OUT[args.command]))
    except ValueError as exc:
        print(f"ppasim {args.command}: error: {exc}", file=sys.stderr)
        return 2
    if args.command == "verify":
        return cmd_verify(spec.seed, args.n_instances)
    if args.command == "sweep":
        out = cmd_sweep(spec, workers=args.workers)
    elif args.command == "kd":
        out = cmd_kd(spec.theta_list, spec.t_list, spec.output_path)
    else:
        out = cmd_fig4(spec)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
