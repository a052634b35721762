"""Command-line interface: sweep, kd, fig4, verify.

sweep and fig4 write their CSV, with 12 significant digits, through one
grid runner, :func:`_run_grid`, which bounds memory by evaluating blocks of
at most ``BLOCK_TRIALS`` trials and names the grid point of an error.  kd's
JSON carries the full repr of each float.  Every random draw comes from a
stream keyed by the seed, the grid indices and the stage, so output files
are byte-identical for any ``--workers`` value.  ``PPASIM_OUT_DIR``
supplies the default directory for relative output paths.
"""

from __future__ import annotations

import argparse
import gc
import math
import numbers
import os
import re
import stat
import sys
from collections import namedtuple
from itertools import product
from typing import NamedTuple

import numpy as np

from .bench import (
    MAX_COUNT,
    MIN_AMPLITUDE,
    STAGE_TOMOGRAPHY,
    SWEEP_CSV_COLUMNS,
    _flag_column,
    _point_streams,
    postselected_bloch,
    run_trials,
)
from .fisher import (
    _on_sphere,
    qfi_bloch,
    qfi_ppa_family,
    survival_probability,
)
from .quasiprob import gap4_ppa_family, kd_table_closed_form, nonclassicality_gap
from .tomography import DEFAULT_DTHETA, simulate_tomography
from .verify import T_GRID, THETA_GRID, check_run, run_all

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

# The keys of each kd JSON record, in file order.
KD_RECORD_KEYS = ("theta", "t", "labels", "re", "im", "gap", "gap_times_4delta_sq")

# One fig4 CSV row: exact and tomographic information at one grid point.
Fig4Record = namedtuple("Fig4Record", (
    "theta_true t_mag p_ps qfi_theory qfi_family qfi_empirical qfi_empirical_stderr"
    " gap4_family gap4_empirical gap4_empirical_stderr qfi_theory_per_input"
    " qfi_empirical_per_input gap4_empirical_per_input flags"
))
FIG4_CSV_COLUMNS = Fig4Record._fields

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


class _SweepFields(NamedTuple):
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


def _checked(name: str, value, default):
    """``value`` for the SweepSpec field ``name``, a grid as a float tuple;
    ValueError if its type differs from ``default``'s, or it is a bool."""
    if isinstance(default, tuple):  # a grid
        if not (
            isinstance(value, (list, tuple))
            and value
            and all(_is_kind(x, numbers.Real) for x in value)
        ):
            raise ValueError(f"{name}: expected a non-empty list of numbers, got {value!r}")
        return tuple(float(x) for x in value)
    if not _is_kind(value, _FIELD_KINDS[type(default)]):
        raise ValueError(f"{name}: expected {type(default).__name__}, got {value!r}")
    return value


class SweepSpec(_SweepFields):
    """Grid description shared by the sweep and fig4 commands, and the
    description of a bench run that :func:`bench.run_trials` reads.

    Every construction path, ``_make``, ``_replace``, ``pickle`` and
    ``copy`` included, checks each field with :func:`_checked`.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        defaults = cls._field_defaults
        return tuple.__new__(
            cls, [_checked(n, v, defaults[n]) for n, v in zip(cls._fields, spec)]
        )

    @classmethod
    def _make(cls, iterable):
        return cls(*super()._make(iterable))


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


BLOCK_TRIALS = 8192  # most trials (points x trials each) the runner evaluates at once
_CHUNK_RAISED = 70  # a forked chunk's exit status when its rows raised an Exception


def _point_name(spec: SweepSpec, i: int, j: int) -> str:
    """The grid point (i, j) of ``spec`` as an error names it, to be replayed."""
    return (f"grid point theta = {spec.theta_list[i]!r}, t = {spec.t_list[j]!r} "
            f"at grid index (i, j) = ({i}, {j}), seed = {spec.seed}")


def _grid_rows(evaluate, spec: SweepSpec, points: list, step: int) -> list[str]:
    """The CSV rows of ``evaluate(spec, block)`` over ``points`` cut into blocks
    of ``step`` points: a forked worker sends these.  A block that raises
    ValueError runs again point by point, to name the first that raises."""
    rows = []
    for a in range(0, len(points), step):
        block = points[a : a + step]
        try:
            rows += map(_csv_row, evaluate(spec, block))
        except ValueError as exc:
            if len(block) == 1:
                named = f"{_point_name(spec, *block[0])}: {exc}"
                try:  # keep the type where it takes one message
                    named = type(exc)(named)
                except Exception:
                    named = ValueError(named)
                raise named from exc
            _grid_rows(evaluate, spec, block, 1)
            raise
    return rows


def _fork_chunks(evaluate, spec: SweepSpec, chunks: list, step: int) -> list[str]:
    """The :func:`_grid_rows` of each chunk, as bytes from a forked child that exits
    ``_CHUNK_RAISED`` if they raise.  Once all are reaped, a chunk that raised runs
    again here, to raise as in one process; other failures raise RuntimeError."""
    children = []
    try:
        for chunk in chunks:
            fd_read, fd_write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fd_read)
                os.close(fd_write)
                raise
            if pid == 0:  # never return into the caller nor flush inherited buffers
                try:
                    try:
                        data = "\n".join(_grid_rows(evaluate, spec, chunk, step)).encode()
                    except Exception:
                        os._exit(_CHUNK_RAISED)
                    with open(fd_write, "wb") as fh:
                        fh.write(data)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(fd_write)
            children.append((chunk, pid, open(fd_read, "rb")))
    finally:
        sent = []
        for chunk, pid, fh in children:
            with fh:
                sent.append((chunk, fh.read(), os.waitpid(pid, 0)[1]))
    rows = []
    for chunk, data, status in sent:
        if (code := os.waitstatus_to_exitcode(status)) == _CHUNK_RAISED:
            _grid_rows(evaluate, spec, chunk, step)
        if code or not data:
            raise RuntimeError(f"worker of the chunk from {_point_name(spec, *chunk[0])}: "
                               f"exit status {code}, no rows")
        rows += data.decode().split("\n")
    return rows


def _run_grid(spec: SweepSpec, command: str, columns, evaluate, trials, workers=1) -> str:
    """Write the CSV of ``columns`` whose rows ``evaluate(spec, points)`` gives
    for the grid indices (i, j) in ``points``, each point of ``trials`` trials.

    On Linux the row-major grid is cut into at most ``workers`` contiguous
    chunks of near-equal length, and no more than ``os.cpu_count()``, each
    run by :func:`_fork_chunks`; one chunk, or any grid elsewhere, runs in
    this process.  Each chunk is cut from its start into blocks of at most
    ``BLOCK_TRIALS`` trials, or one point, which bounds a run's memory.
    """
    points = list(product(range(len(spec.theta_list)), range(len(spec.t_list))))
    step = max(1, BLOCK_TRIALS // trials)
    n_chunks = min(workers, len(points), os.cpu_count() or 1) if workers > 1 else 1
    if n_chunks > 1 and sys.platform == "linux":
        cuts = [len(points) * k // n_chunks for k in range(n_chunks + 1)]
        chunks = [points[a:b] for a, b in zip(cuts, cuts[1:])]
        rows = _fork_chunks(evaluate, spec, chunks, step)
    else:
        rows = _grid_rows(evaluate, spec, points, step)
    out = _resolve_out(spec.output_path, DEFAULT_OUT[command])
    _write_text(out, ",".join(columns) + "\n" + "\n".join(rows) + "\n")
    return out


def cmd_sweep(spec: SweepSpec, workers: int = 1) -> str:
    """Run the bench at every grid point, on up to ``workers`` processes (see
    :func:`_run_grid`), and write the sweep CSV; the bytes do not depend on it.
    A value :func:`_check` rejects raises ValueError before any draw."""
    _check("sweep", spec, workers)
    return _run_grid(spec, "sweep", SWEEP_CSV_COLUMNS, run_trials, spec.n_trials, workers)


def _write_text(path: str, text: str) -> None:
    """Write ``text`` over ``path`` in place, through a symlink, and cut a longer
    regular file to the new length.  Like :func:`_probe_out`, which main() runs first
    to reject an unwritable path before any work, it makes a missing directory, as
    library calls of ``cmd_*`` are not probed.  No O_TRUNC and no rename: on ext4 a
    file cut to zero, or renamed over, starts writeback at close: a median 100
    against 14 us per rewrite of a 550-byte fig4 CSV (2-vCPU VM).  Nothing is fsynced."""
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fd = os.open(path, flags, 0o666)
    with open(fd, "wb") as fh:
        old = os.fstat(fh.fileno())
        n = fh.write(text.encode())
        if stat.S_ISREG(old.st_mode) and old.st_size > n:
            fh.truncate(n)


def _probe_out(path: str) -> None:
    """Raise ValueError naming ``output_path`` if ``path`` cannot be written: open it
    for appending, first making a missing directory, and remove the file again if
    the probe created it."""
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
    (0, sin theta, cos theta) and |1> population sin^2(theta/2), the w of
    every closed form; one :func:`kd_table_closed_form` call gives the
    tables of the whole grid, theta along its rows, and one
    :func:`quasiprob.gap4_ppa_family` call their gaps, free of cancellation.
    A value :func:`_check` rejects raises ValueError before any write.
    """
    spec = SweepSpec(theta_list=tuple(theta_list), t_list=tuple(t_list))
    _check("kd", spec)
    theta, ts = np.array(spec.theta_list)[:, None], np.array(spec.t_list)
    r = np.stack([np.zeros_like(theta), np.sin(theta), np.cos(theta)], axis=-1)
    tables = kd_table_closed_form(r, ts, np.square(np.sin(theta / 2.0))).reshape(-1, 4)
    gap4 = gap4_ppa_family(theta, ts).ravel().tolist()
    grid = product(spec.theta_list, spec.t_list)
    parts = zip(grid, tables.real.tolist(), tables.imag.tolist(), gap4)
    records = [  # the eigenvalue spread is 1, so gap_times_4delta_sq is 4 gap
        dict(zip(KD_RECORD_KEYS, (th, t, list(KD_TABLE_LABELS), re, im, g4 / 4.0, g4)))
        for (th, t), re, im, g4 in parts
    ]
    import json  # only kd and --config use it, so the cli imports it late

    out = _resolve_out(output_path, DEFAULT_OUT["kd"])
    _write_text(out, json.dumps(records, indent=2) + "\n")
    return out


def _fig4_block(spec: SweepSpec, points: list) -> list[Fig4Record]:
    """The fig4 rows of ``points``, as (points, repetitions, vectors, 3) arrays."""
    index = np.array(points)
    theta, t = np.array(spec.theta_list)[index[:, 0]], np.array(spec.t_list)[index[:, 1]]
    shots, dtheta, vis = spec.shots_per_basis, DEFAULT_DTHETA, spec.visibility

    # Exact vectors: the postselected family at theta - dtheta, theta and
    # theta + dtheta, then the unfiltered state (t = 1).
    truth, p = postselected_bloch(
        theta[:, None] + [-dtheta, 0.0, dtheta, 0.0],
        np.where([True, True, True, False], t[:, None], 1.0), 0, vis,
    )
    # Each point's keyed stream (bench._point_streams, the tomography stage)
    # and its one draw of (repetitions, vectors, axes) counts.
    rngs = _point_streams(spec.seed, STAGE_TOMOGRAPHY, points)
    vectors = truth[:, None].repeat(_FIG4_REPS, 1)
    est = np.array([simulate_tomography(r, shots, rng) for r, rng in zip(vectors, rngs)])
    minus, center, plus, unfiltered = est.transpose(2, 0, 1, 3)
    dr = (plus - minus) / (2.0 * dtheta)
    # A centre estimate on the sphere is a pure state, whose derivative has
    # no radial part: project r' onto the tangent plane (Smolin, Gambetta &
    # Smith, PRL 108, 070502, 2012).
    rr = np.add.reduce(center * center, -1)
    norm, boundary = _on_sphere(rr)
    if boundary.any():
        c = center[boundary]
        dr[boundary] -= (np.add.reduce(c * dr[boundary], -1) / rr[boundary])[:, None] * c
    near = ~boundary & (1.0 - norm < _NEAR_BOUNDARY_SIGMAS / math.sqrt(shots))
    w_unfiltered = (1.0 - unfiltered[..., 2]) / 2.0  # an estimate's own population
    tables = kd_table_closed_form(unfiltered, t[:, None], w_unfiltered)
    blocked = np.isnan(tables[..., 0, 0])  # nothing of the estimate survives
    gap4 = 4.0 * nonclassicality_gap(tables, axes=(-2, -1))
    # each row's mean, and its std(ddof=1) / sqrt(4), in NumPy's operations
    reps = np.array([qfi_bloch(center, dr), gap4])
    mean = np.add.reduce(reps, -1) / _FIG4_REPS
    var = np.add.reduce((reps - mean[..., None]) ** 2, -1) / (_FIG4_REPS - 1)
    (qfi_mean, gap_mean), (qfi_se, gap_se) = mean, np.sqrt(var) / 2.0
    qfi_theory, qfi_family = qfi_ppa_family(theta, t, np.array([[1.0], [vis]]))
    p_ps = p[:, 1]
    columns = (
        theta, t, p_ps, qfi_theory, qfi_family, qfi_mean, qfi_se,
        gap4_ppa_family(theta, t, vis), gap_mean, gap_se,
        qfi_theory * p_ps, qfi_mean * p_ps, gap_mean * p_ps,
    )
    flags = _flag_column(("boundary={}", "near-boundary", "no-survival"),
                         np.add.reduce(np.array([boundary, near, blocked]), -1))
    return list(map(Fig4Record, *(c.tolist() for c in columns), flags))


def cmd_fig4(spec: SweepSpec) -> str:
    """Tomographic information pipeline over the grid, written as CSV.

    Per grid point, one stream keyed by (seed, stage, i, j) (see ppasim.bench)
    draws four tomography repetitions of the postselected Bloch vector at
    theta and theta +- dtheta, whose central difference feeds the empirical
    QFI :func:`qfi_bloch`, and of the unfiltered vector, which feeds the
    conditional quasiprobability gap.  On the sphere the derivative is
    projected onto the tangent plane; ``flags`` counts those repetitions
    (``boundary=<n>``), marks centre estimates within three standard
    deviations of the sphere (``near-boundary``) and an unfiltered estimate
    the filter blocks entirely, whose table is nan (``no-survival``, nan gap
    columns).  The exact columns are closed forms (``gap4_family`` is
    :func:`quasiprob.gap4_ppa_family`), and the per-input-photon columns
    scale by the exact survival probability.  A value :func:`_check` rejects
    raises ValueError before any draw.
    """
    _check("fig4", spec)
    return _run_grid(spec, "fig4", FIG4_CSV_COLUMNS, _fig4_block, _FIG4_REPS)


def cmd_verify(seed: int = 0, n_instances: int | None = None) -> int:
    """Run the self-verification suites; exit code 0 iff all pass.  A value
    :func:`_check` rejects raises ValueError before any suite runs."""
    _check("verify", SweepSpec(seed=seed), n_instances=n_instances)
    results = run_all(seed, n_instances)
    print(*(r.summary() for r in results), sep="\n")
    return 0 if all(r.passed for r in results) else 1


def _parse_float_list(name: str, text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValueError(f"{name}: {text!r} is not a list of numbers") from None


def _read_config(path: str) -> dict:
    """SweepSpec fields from a JSON file; ValueError naming the problem otherwise."""
    import json

    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"config: cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # malformed JSON or text
        raise ValueError(f"config: {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config: {path} must hold a JSON object of SweepSpec fields")
    for key in data:
        if key not in SweepSpec._fields:
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
    for name, default in SweepSpec._field_defaults.items():
        val = getattr(args, name, None)
        if val is not None:
            grid = isinstance(default, tuple)
            data[name] = _parse_float_list(name, val) if grid else val
    return SweepSpec(**data)


def _check(command: str, spec: SweepSpec, workers: int = 1, n_instances=None) -> None:
    """Raise ValueError at the first value ``command`` cannot evaluate.

    Every value rule of the four commands is here, once, with the commands
    it applies to; SweepSpec has checked the types, and this checks
    ``n_instances``'s.  main() runs it before any work, and so do the four
    ``cmd_*`` functions, for library calls.  The message starts with the
    field and quotes the value.  The grids come first, entry by entry:
    theta_list, t_list, then the (theta, t) points in row-major order.  The
    other fields follow in SweepSpec order, then ``workers`` and
    ``n_instances``.
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
        # Not fisher.ZERO_PROBABILITY (1e-15): tests/matrix_reference's
        # condition rejects totals <= 1e-14.  cmd_kd's tables form p from
        # this same sin^2(theta/2), bit for bit, so each point passed has one.
        w = np.square(np.sin(np.array(spec.theta_list)[:, None] / 2.0))
        fails = ~(survival_probability(np.abs(spec.t_list), w) > 1e-14)
        if fails.any():
            i, j = np.argwhere(fails)[0]  # the first (theta, t) in row-major order
            raise ValueError(
                f"theta_list, t_list: survival probability at (theta = "
                f"{spec.theta_list[i]:g}, t = {spec.t_list[j]:g}) is not above "
                f"the 1e-14 that conditioning needs"
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
    if command in ("sweep", "fig4", "verify"):
        check_run(
            spec.seed,
            _checked("n_instances", n_instances, 0)
            if command == "verify" and n_instances is not None else None,
        )
    if command == "fig4" and not 1 <= spec.shots_per_basis <= MAX_COUNT:
        raise ValueError(
            f"shots_per_basis: {spec.shots_per_basis} must lie in [1, {MAX_COUNT}]"
        )
    if command == "sweep" and workers < 1:
        raise ValueError(f"workers: {workers} must be at least 1")


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
    """Run the command of ``argv`` (default ``sys.argv[1:]``); return the exit status.

    The first call in a process freezes the caller's objects, the ~21,000 that
    the imports of NumPy and ppasim made, with :func:`gc.freeze`: no collection
    of the run, of a forked sweep worker or of interpreter exit walks them
    again.  A later call freezes nothing new, as each freeze also keeps the
    cyclic garbage pending at that moment.  The ``cmd_*`` functions never
    freeze: a library call leaves its caller's collector as it was.
    """
    if not gc.get_freeze_count():
        gc.freeze()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads "-0.3,0.2" or "-1e-3" as an option, not as the value of
    # the option before it, so attach it with "=" (no option starts -<digit>)
    for i in range(len(argv) - 1, 0, -1):
        if re.fullmatch(r"--[^=]+", argv[i - 1]) and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    # An imperfect source keeps most tomographic estimates off the sphere,
    # where fig4 would project the derivative and flag the point.
    defaults = {"visibility": 0.98} if args.command == "fig4" else None
    try:
        spec = _load_spec(args, defaults)
        _check(args.command, spec, getattr(args, "workers", 1),
               getattr(args, "n_instances", None))
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
