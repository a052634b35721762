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

import gc
import math
import numbers
import os
import stat
import sys
import threading
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
from .fisher import _family_qfi, _on_sphere, _population, qfi_bloch, survival_probability
from .quasiprob import _family_gap4, _gap4_of_tables, gap4_ppa_family, kd_table_closed_form
from .tomography import DEFAULT_DTHETA, simulate_tomography
from .verify import T_GRID, THETA_GRID, _is_kind, check_run, suites

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

# The columns of a fig4 CSV row: exact and tomographic information at one grid point.
FIG4_CSV_COLUMNS = (
    "theta_true", "t_mag", "p_ps", "qfi_theory", "qfi_family", "qfi_empirical",
    "qfi_empirical_stderr", "gap4_family", "gap4_empirical", "gap4_empirical_stderr",
    "qfi_theory_per_input", "qfi_empirical_per_input", "gap4_empirical_per_input", "flags",
)

# Tomography repetitions per fig4 point, and the distance from the sphere,
# in standard deviations of an estimate's length (at most 1/sqrt(shots)),
# within which an unprojected centre estimate flags its point near-boundary.
_FIG4_REPS = 4
_NEAR_BOUNDARY_SIGMAS = 3.0


# What a SweepSpec field accepts, keyed by the type of its default.
_FIELD_KINDS = {float: numbers.Real, int: numbers.Integral, str: str}


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


def _fork_width(jobs: int) -> int:
    """How many of ``jobs`` independent jobs to run at once, one process each: 1
    for one job, before anything is read; off Linux; beside another Python
    thread, which would outlive a fork, as Python 3.12 and later warn (NumPy's
    OpenBLAS pool stops itself at a fork); and on one CPU, where children would
    only take turns.  Else the CPUs of ``os.sched_getaffinity``, at most ``jobs``."""
    if jobs < 2 or sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return min(jobs, len(os.sched_getaffinity(0)))


def _fork_chunks(run, chunks: list, name, share=None) -> list[str]:
    """The lines of ``run(share)``, if a share is given, then of ``run(chunk)`` for
    each chunk.  Where :func:`_fork_width` gives these jobs more than one process,
    a forked child runs each chunk and sends its lines as bytes, exiting
    ``_CHUNK_RAISED`` if it raises, while the share runs here.  Once all are
    reaped, a chunk that raised runs again here, to raise as in one process;
    other failures raise RuntimeError naming ``name(chunk)``.  Elsewhere every
    job runs here, in order."""
    jobs = chunks if share is None else [share, *chunks]
    if _fork_width(len(jobs)) < 2:
        return [line for job in jobs for line in run(job)]
    children = []
    try:
        for chunk in chunks:
            fd_read, fd_write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:  # OSError or an interrupt: close the child's pipe
                os.close(fd_read)
                os.close(fd_write)
                raise
            if pid == 0:  # never return into the caller nor flush inherited buffers
                try:
                    try:
                        data = "\n".join(run(chunk)).encode()
                    except Exception:
                        os._exit(_CHUNK_RAISED)
                    with open(fd_write, "wb") as fh:
                        fh.write(data)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(fd_write)
            children.append((chunk, pid, open(fd_read, "rb")))
        lines = [] if share is None else run(share)
    finally:
        sent = []
        for chunk, pid, fh in children:
            with fh:
                sent.append((chunk, fh.read(), os.waitpid(pid, 0)[1]))
    for chunk, data, status in sent:
        if (code := os.waitstatus_to_exitcode(status)) == _CHUNK_RAISED:
            run(chunk)
        if code or not data:
            raise RuntimeError(f"worker of {name(chunk)}: exit status {code}, no rows")
        lines += data.decode().split("\n")
    return lines


def _run_grid(spec: SweepSpec, command: str, columns, evaluate, trials, workers=1) -> str:
    """Write the CSV of ``columns`` whose rows ``evaluate(spec, points)`` gives
    for the grid indices (i, j) in ``points``, each point of ``trials`` trials.

    The row-major grid is cut into contiguous chunks of near-equal length, as
    many as :func:`_fork_width` runs at once of ``workers`` jobs but no more
    than the points: one where forking cannot help.  :func:`_fork_chunks` runs
    them.  Each chunk is cut from its start into blocks of at most
    ``BLOCK_TRIALS`` trials, or one point, which bounds a run's memory.
    """
    points = list(product(range(len(spec.theta_list)), range(len(spec.t_list))))
    step = max(1, BLOCK_TRIALS // trials)
    n_chunks = _fork_width(min(workers, len(points)))
    cuts = [len(points) * k // n_chunks for k in range(n_chunks + 1)]
    rows = _fork_chunks(lambda chunk: _grid_rows(evaluate, spec, chunk, step),
                        [points[a:b] for a, b in zip(cuts, cuts[1:])],
                        lambda chunk: f"the chunk from {_point_name(spec, *chunk[0])}")
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
    try:
        old = os.fstat(fd)
        data = text.encode()
        view = memoryview(data)
        while view:  # a write may be short, on a pipe say
            view = view[os.write(fd, view):]
        if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


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
    (0, sin theta, cos theta) and |1> population ``fisher._population``, the
    w of every closed form; one :func:`kd_table_closed_form` call gives the
    tables of the whole grid, theta along its rows, and one
    :func:`quasiprob.gap4_ppa_family` call their gaps, free of cancellation.
    A value :func:`_check` rejects raises ValueError before any write.
    """
    spec = SweepSpec(theta_list=tuple(theta_list), t_list=tuple(t_list))
    _check("kd", spec)
    theta, ts = np.array(spec.theta_list)[:, None], np.array(spec.t_list)
    r = np.stack([np.zeros_like(theta), np.sin(theta), np.cos(theta)], axis=-1)
    tables = kd_table_closed_form(r, ts, _population(theta)).reshape(-1, 4)
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


def _fig4_block(spec: SweepSpec, points: list) -> list[tuple]:
    """The fig4 rows of ``points``, tuples in ``FIG4_CSV_COLUMNS`` order, from
    (points, repetitions, vectors, 3) arrays."""
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
    if np.count_nonzero(boundary):
        c = center[boundary]
        dr[boundary] -= (np.add.reduce(c * dr[boundary], -1) / rr[boundary])[:, None] * c
    near = ~boundary & (1.0 - norm < _NEAR_BOUNDARY_SIGMAS / math.sqrt(shots))
    w_unfiltered = (1.0 - unfiltered[..., 2]) / 2.0  # an estimate's own population
    gap4 = _gap4_of_tables(unfiltered, t[:, None], w_unfiltered)
    blocked = np.isnan(gap4)  # nothing of the estimate survives
    # each row's mean, and its std(ddof=1) / sqrt(4), in NumPy's operations
    reps = np.array([qfi_bloch(center, dr), gap4])
    mean = np.add.reduce(reps, -1) / _FIG4_REPS
    var = np.add.reduce((reps - mean[..., None]) ** 2, -1) / (_FIG4_REPS - 1)
    (qfi_mean, gap_mean), (qfi_se, gap_se) = mean, np.sqrt(var) / 2.0
    # The exact columns on the family's p, the centre column of the exact
    # vectors' (at epsilon = 0 the closed forms' p, bit for bit), and the
    # theory's at v = 1; _check has validated t and v and bounded p below.
    p_ps = p[:, 1]
    p_theory = survival_probability(t, _population(theta))
    qfi_theory, qfi_family = _family_qfi(t, p_theory), _family_qfi(vis * t, p_ps)
    columns = (
        theta, t, p_ps, qfi_theory, qfi_family, qfi_mean, qfi_se,
        _family_gap4(t * t, vis, p_ps), gap_mean, gap_se,
        qfi_theory * p_ps, qfi_mean * p_ps, gap_mean * p_ps,
    )
    flags = _flag_column(("boundary={}", "near-boundary", "no-survival"),
                         np.add.reduce(np.array([boundary, near, blocked]), -1))
    return list(zip(*(c.tolist() for c in columns), flags))


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
    """Run the self-verification suites and print one summary line each; exit
    code 0 iff all pass.  A value :func:`verify.check_run` rejects raises
    ValueError before any suite runs.

    It imports ``numpy.random``, which both halves draw from, and gives
    :func:`_fork_chunks` gap-equality, the largest suite, as the share and the
    other three, which share one grid solve, as one chunk: a forked worker runs
    them meanwhile where :func:`_fork_width` allows, else they follow here.
    Either way the lines and exit code are :func:`verify.run_all`'s, byte for byte.
    """
    first, *rest = suites(seed, n_instances)
    import numpy.random  # noqa: F401  (both halves draw; a worker inherits it)

    where = f"the suites {', '.join(c.func.__name__ for c in rest)} at seed = {seed}"
    lines = _fork_chunks(lambda calls: [call().summary() for call in calls], [rest],
                         lambda _: where, share=[first])
    print(*lines, sep="\n")
    return 0 if all(line.endswith(" PASS") for line in lines) else 1


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


def _load_spec(fields: dict, defaults: dict | None = None) -> SweepSpec:
    """Spec from defaults, then the config file, then the flags' ``fields``;
    ValueError naming the field on any unreadable or invalid input."""
    data: dict = dict(defaults or {})
    if fields.get("config"):
        data.update(_read_config(fields["config"]))
    data.update((k, v) for k, v in fields.items() if k in SweepSpec._field_defaults)
    return SweepSpec(**data)


def _check(command: str, spec: SweepSpec, workers: int = 1, n_instances=None) -> None:
    """Raise ValueError at the first value ``command`` cannot evaluate.

    Every value rule of the four commands is here, once, with the commands
    it applies to; SweepSpec has checked the types, and verify's whole rule is
    :func:`verify.check_run`.  main() runs it before any work, and so do
    ``cmd_sweep``, ``cmd_kd`` and ``cmd_fig4``, for library calls (cmd_verify
    runs ``check_run``).  The message starts with the field and quotes the value.
    The grids come first, entry by entry: theta_list, t_list, then the
    (theta, t) points in row-major order.  The other fields follow in
    SweepSpec order, ``n_instances`` right after the seed, then ``workers``.
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
        # Not fisher.ZERO_PROBABILITY (1e-15): tests/matrix_reference's condition
        # rejects totals <= 1e-14.  kd and fig4 form p from the same _population.
        w = _population(np.array(spec.theta_list)[:, None])
        fails = ~(survival_probability(np.abs(spec.t_list), w) > 1e-14)
        if np.count_nonzero(fails):
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
        check_run(spec.seed, n_instances)
    if command == "fig4" and not 1 <= spec.shots_per_basis <= MAX_COUNT:
        raise ValueError(
            f"shots_per_basis: {spec.shots_per_basis} must lie in [1, {MAX_COUNT}]"
        )
    if command == "sweep" and workers < 1:
        raise ValueError(f"workers: {workers} must be at least 1")


# Each command's help line, and each flag's field, the commands that take it and
# its help.  A field is a SweepSpec field or one of _OPTIONS, typed as its default.
COMMANDS = {
    "sweep": "Monte Carlo precision sweep -> CSV",
    "kd": "conditional quasiprobability tables -> JSON",
    "fig4": "tomographic QFI/gap pipeline -> CSV",
    "verify": "run randomized identity suites",
}
FLAGS = {
    "--theta": ("theta_list", "sweep kd fig4", "comma-separated phase values"),
    "--t": ("t_list", "sweep kd fig4", "comma-separated filter amplitudes"),
    "--config": ("config", "sweep kd fig4", "JSON file with SweepSpec fields"),
    "--out": ("output_path", "sweep kd fig4", f"output file, bare names in ${OUT_DIR_ENV}"),
    "--seed": ("seed", "sweep fig4 verify", "seed of every draw"),
    "--budget": ("photon_budget", "sweep", "photons per trial"),
    "--trials": ("n_trials", "sweep", "trials per grid point"),
    "--visibility": ("visibility", "sweep fig4", "source visibility (fig4: default 0.98)"),
    "--epsilon": ("epsilon", "sweep", "phase-plate tilt"),
    "--delta-t": ("delta_t", "sweep", "offset of the amplitude the estimator assumes"),
    "--sampling-mode": ("sampling_mode", "sweep", "fixed or poisson photon budget"),
    "--workers": ("workers", "sweep", "processes to sweep on (same bytes for any)"),
    "--shots": ("shots_per_basis", "fig4", "tomography shots per basis"),
    "--n": ("n_instances", "verify", "random instances per suite"),
}
_OPTIONS = {"config": "", "workers": 1, "n_instances": 0}


def _parse_flags(command: str, args: list) -> dict | None:
    """The typed fields that ``command``'s flags in ``args`` set (see :func:`main`),
    None on -h or --help; ValueError names the field or the unrecognized arguments."""
    flags = {flag: row[0] for flag, row in FLAGS.items() if command in row[1].split()}
    fields, args = {}, iter(args)
    for arg in args:
        if arg in ("-h", "--help"):
            return None
        name, eq, value = arg.partition("=")
        if not eq:
            value = next(args, None)
        matches = [name] if name in flags else [
            f for f in flags if name.startswith("--") and f.startswith(name)]
        if not matches:
            extra = "" if eq or value is None else f" {value}"
            raise ValueError(f"unrecognized arguments: {arg}{extra}")
        if len(matches) > 1:
            raise ValueError(f"{', '.join(flags[f] for f in matches)}: "
                             f"{name} is a prefix of more than one flag: {', '.join(matches)}")
        field = flags[matches[0]]
        if value is None:
            raise ValueError(f"{field}: {matches[0]} needs a value")
        kind = type(SweepSpec._field_defaults.get(field, _OPTIONS.get(field)))
        try:  # a grid is comma-separated numbers
            fields[field] = kind(value) if kind is not tuple else tuple(
                float(x) for x in value.split(",") if x.strip())
        except ValueError:
            what = {tuple: "a list of numbers", int: "an int", float: "a float"}[kind]
            raise ValueError(f"{field}: {value!r} is not {what}") from None
    return fields


def _usage(command: str | None) -> str:
    """The help text of ``command``, or of ppasim itself for None."""
    rows = list(COMMANDS.items()) if command is None else [
        (flag, text) for flag, (_, cmds, text) in FLAGS.items() if command in cmds.split()]
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(a) for a, _ in rows) + 2
    about = COMMANDS.get(command, "Simulations of partially postselected amplification")
    return "\n".join([f"usage: ppasim {command or 'COMMAND'} [--flag VALUE | --flag=VALUE]...",
                      "", about, "", *(f"  {a:<{width}}{b}" for a, b in rows)])


_main_called = False  # whether main() has run in this process


def main(argv=None) -> int:
    """Run the command of ``argv`` (default ``sys.argv[1:]``); return the exit status.

    ``argv`` is ``COMMAND [--flag VALUE | --flag=VALUE]...`` (see ``COMMANDS``): a
    unique prefix names a flag, the next argument is its value, the last repeat wins.
    A bad argument or value prints one line naming the field and returns 2.

    The first call in a process freezes the caller's objects, the ~21,000 that
    the imports of NumPy and ppasim made, with :func:`gc.freeze`: no collection
    of the run, of a forked sweep worker or of interpreter exit walks them
    again.  A later call freezes nothing new, as each freeze also keeps the
    cyclic garbage pending at that moment, and does not even read the freeze
    count, which walks the permanent generation.  The ``cmd_*`` functions
    never freeze: a library call leaves its caller's collector as it was.
    """
    global _main_called
    if not _main_called:
        _main_called = True
        if not gc.get_freeze_count():
            gc.freeze()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    prog = f"ppasim {command}" if command else "ppasim"
    try:
        if command is None and argv[:1] not in (["-h"], ["--help"]):
            raise ValueError(f"command: {' '.join(argv[:1])!r} is not one of {list(COMMANDS)}")
        fields = _parse_flags(command, argv[1:]) if command else None
        if fields is None:
            print(_usage(command))
            return 0
        # An imperfect source keeps most tomographic estimates off the sphere,
        # where fig4 would project the derivative and flag the point.
        spec = _load_spec(fields, {"visibility": 0.98} if command == "fig4" else None)
        workers, n_instances = fields.get("workers", 1), fields.get("n_instances")
        _check(command, spec, workers, n_instances)
        if command in DEFAULT_OUT:
            _probe_out(_resolve_out(spec.output_path, DEFAULT_OUT[command]))
    except ValueError as exc:
        print(f"{prog}: error: {exc}", file=sys.stderr)
        return 2
    if command == "verify":
        return cmd_verify(spec.seed, n_instances)
    if command == "sweep":
        out = cmd_sweep(spec, workers=workers)
    elif command == "kd":
        out = cmd_kd(spec.theta_list, spec.t_list, spec.output_path)
    else:
        out = cmd_fig4(spec)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
