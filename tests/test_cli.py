import csv
import functools
import gc
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from ppasim import cli, verify
from ppasim.bench import (
    STAGE_TOMOGRAPHY,
    SWEEP_CSV_COLUMNS,
    _moments,
    postselected_bloch,
    run_trials,
)
from ppasim.cli import FIG4_CSV_COLUMNS, SweepSpec, main
from ppasim.fisher import ppa_family, qfi_ppa_family, sld
from ppasim.quasiprob import (
    gap4_ppa_family,
    kd_distribution,
    kd_table_closed_form,
    nonclassicality_gap,
)
from ppasim.states import ID2, PAULIS, hermitian_part, make_filter
from ppasim.tomography import DEFAULT_DTHETA, simulate_tomography
from ppasim.verify import T_GRID, THETA_GRID

from matrix_reference import (
    bloch_vector,
    condition,
    density_matrix,
    imprinted_table,
    point_stream,
    ppa_povm_sequence,
    unfiltered_state,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def package_env():
    """The environment with this ppasim first on PYTHONPATH, for a subprocess."""
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


# --------------------------------------------------------------------- sweep


def test_sweep_writes_expected_grid(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, printed = run(
        [
            "sweep",
            "--theta",
            "0.1,0.2",
            "--t",
            "0.5",
            "--budget",
            "5000",
            "--trials",
            "4",
            "--seed",
            "3",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert code == 0
    assert str(out) in printed
    rows = read_csv(out)
    assert len(rows) == 2
    assert [r["theta_true"] for r in rows] == ["0.1", "0.2"]
    assert all(r["t_mag"] == "0.5" for r in rows)


def test_sweep_reports_theory_column(tmp_path, capsys):
    out = tmp_path / "s.csv"
    run(
        ["sweep", "--theta", "0.2", "--t", "0.5,1.0", "--budget", "1000",
         "--trials", "2", "--out", str(out)],
        capsys,
    )
    rows = read_csv(out)
    assert float(rows[0]["qfi_theory"]) == pytest.approx(3.7711148807566075, rel=1e-11)
    assert float(rows[1]["qfi_theory"]) == pytest.approx(1.0)


def test_sweep_theory_column_is_exact_at_small_theta_and_t(tmp_path, capsys):
    # p = t^2 + (1 - t^2) sin^2(theta/2) has no cancellation; the form
    # t^2 cos^2(theta/2) + sin^2(theta/2) wrote 639977242058 here
    theta = t = 1e-6
    out = tmp_path / "s.csv"
    code, _ = run(
        ["sweep", "--theta", repr(theta), "--t", repr(t), "--trials", "2",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    p = t * t + (1.0 - t * t) * math.sin(theta / 2.0) ** 2
    [row] = read_csv(out)
    assert float(row["qfi_theory"]) == pytest.approx((t / p) ** 2, rel=1e-12, abs=0.0)


def test_sweep_zero_budget_flags_no_data(tmp_path, capsys):
    out = tmp_path / "s.csv"
    run(
        ["sweep", "--theta", "0.1", "--t", "0.5", "--budget", "0",
         "--trials", "3", "--out", str(out)],
        capsys,
    )
    row = read_csv(out)[0]
    assert "no-data" in row["flags"]
    assert row["mean_estimate"] == "nan"


def test_sweep_flags_rows_whose_estimates_are_all_equal(tmp_path, capsys):
    out = tmp_path / "s.csv"
    # a filter this tight detects one trace of signal: every trial inverts
    # the same fringe frequency
    run(
        ["sweep", "--theta", "3.1", "--t", "1e-6", "--budget", "100",
         "--trials", "8", "--out", str(out)],
        capsys,
    )
    [row] = read_csv(out)
    assert row["flags"] == "zero-variance"
    assert row["variance"] == "0"
    assert row["precision_per_photon"] == "nan"
    # the sample variance of equal estimates can be rounding noise (three of
    # 0.1 give about 3e-34), which _moments writes as exactly 0; an empty
    # trial's dummy estimate (5.0) takes no part
    est = np.array([[0.1, 0.1, 0.1], [0.1, 0.1, 5.0], [0.1, 0.1, 0.2]])
    hit = np.array([[True, True, True], [True, True, False], [True, True, True]])
    _, variance, _, n_hit, zero_spread = _moments(est, hit, np.full(3, 0.1))
    assert variance[0] == 0.0
    assert variance[1] == 0.0
    assert variance[2] > 1e-12
    assert n_hit.tolist() == [3, 2, 3]
    assert zero_spread.tolist() == [True, True, False]


def test_sweep_zero_variance_rows_write_no_precision(tmp_path, capsys):
    # at this budget (0.2, 0.15) detects a photon in 3 of 5 trials, whose
    # equal estimates once left a variance of 2.9e-34 and a precision of 4e33
    out = tmp_path / "s.csv"
    code, _ = run(["sweep", "--budget", "30", "--trials", "5", "--out", str(out)], capsys)
    assert code == 0
    rows = [r for r in read_csv(out) if "zero-variance" in r["flags"].split(";")]
    assert ("0.2", "0.15") in [(r["theta_true"], r["t_mag"]) for r in rows]
    for row in rows:
        assert (row["variance"], row["precision_per_photon"]) == ("0", "nan")
        assert row["stderr_variance"] == "0"


def test_sweep_default_grid_at_seed_0_is_pinned(tmp_path, capsys):
    # `ppasim sweep` at its defaults (seed 0), against the rows it wrote on
    # the keyed Philox count streams; no row of this grid is zero-variance
    out = tmp_path / "s.csv"
    code, _ = run(["sweep", "--out", str(out)], capsys)
    assert code == 0
    pinned = Path(__file__).parent / "data" / "sweep_default_seed0.csv"
    got, ref = read_csv(out), read_csv(pinned)
    assert got[0].keys() == ref[0].keys()
    assert len(got) == len(ref) == len(THETA_GRID) * len(T_GRID)
    for row, want in zip(got, ref):
        assert row["flags"] == want["flags"]
        for key in SWEEP_CSV_COLUMNS[:-1]:
            assert float(row[key]) == pytest.approx(float(want[key]), rel=1e-9, abs=0.0)


SMALL_GRID = ["sweep", "--theta", "0.05,0.1,0.2", "--t", "0.3,0.5",
              "--budget", "4000", "--trials", "3", "--seed", "12"]
# At seed 0 its rows carry every sweep flag and nan cells, which must cross
# a worker's pipe unchanged.
FLAG_GRID = ["sweep", "--theta", "0,0.1,3.1", "--t", "1e-6,0.044,0.5",
             "--budget", "30", "--trials", "8"]
# CI's w1/w2/w3, p1/p2, k1/k2 and deep1/deep2 runs: the default grid at
# budget 30, where some trials detect nothing; at 1000 trials, more than one
# block; and at sweep-deep's 700 trials, whose 11-point blocks the two
# workers' 21-point chunks cut
BUDGET_30 = ["sweep", "--budget", "30", "--trials", "5"]
POISSON_30 = BUDGET_30 + ["--sampling-mode", "poisson"]
TRIALS_1000 = ["sweep", "--budget", "30", "--trials", "1000"]
TRIALS_700 = ["sweep", "--trials", "700", "--seed", "12345"]


# 7 workers exceed the small grid's 6 points.  The forked side runs in a
# subprocess, whose time limit fails a deadlocked runner instead of hanging.
@pytest.mark.parametrize(
    "argv, workers",
    [(SMALL_GRID, 2), (SMALL_GRID, 3), (SMALL_GRID, 7), (FLAG_GRID, 2), (FLAG_GRID, 3),
     (BUDGET_30, 2), (BUDGET_30, 3), (POISSON_30, 2), (TRIALS_1000, 2), (TRIALS_700, 2)],
    ids=["2", "3", "7", "flags-2", "flags-3", "budget30-2", "budget30-3",
         "poisson30-2", "trials1000-2", "trials700-2"],
)
def test_sweep_workers_do_not_change_bytes(tmp_path, capsys, argv, workers):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(argv + ["--out", str(a), "--workers", "1"], capsys)
    proc = subprocess.run(
        [sys.executable, "-W", "always::ResourceWarning", "-m", "ppasim", *argv,
         "--out", str(b), "--workers", str(workers)],
        env=package_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, check=True, timeout=60,
    )
    # as CI's fl3.err check: no pipe or file of the pool is left unclosed
    assert not re.search("Traceback|ResourceWarning", proc.stderr), proc.stderr
    assert a.read_bytes() == b.read_bytes()
    if argv is BUDGET_30:
        assert b"empty-trials" in a.read_bytes()
    if argv is FLAG_GRID:
        flags = [row["flags"] for row in read_csv(a)]
        for flag in ("no-data", "empty-trials=7", "empty-trials=6;zero-variance",
                     "zero-variance"):
            assert flag in flags
        assert b",nan," in a.read_bytes()


@pytest.mark.skipif(sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
                    reason="a pool needs Linux and two CPUs")
def test_pooled_sweep_leaves_numpy_random_out_of_the_parent(tmp_path):
    # the workers draw; importing numpy.random would only cost the parent
    # memory, as would a process pool module
    out = tmp_path / "s.csv"
    code = (
        "import sys\n"
        "from ppasim import cli\n"
        "pools = ('concurrent.futures', 'multiprocessing')\n"
        "assert not set(pools) & set(sys.modules)\n"
        "spec = cli.SweepSpec(theta_list=(0.1, 0.2), t_list=(0.3, 0.5), n_trials=2,\n"
        f"                    output_path={str(out)!r})\n"
        "cli.cmd_sweep(spec, workers=2)\n"
        "assert 'numpy.random' not in sys.modules\n"
        "assert not set(pools) & set(sys.modules)\n"
    )
    subprocess.run(
        [sys.executable, "-c", code], env=package_env(), check=True, timeout=60
    )
    assert len(read_csv(out)) == 4


def test_importing_the_cli_loads_no_module_that_only_some_commands_need():
    # every command pays for what `import ppasim.cli` loads: json is for kd
    # and --config alone, numpy.random for a command's first draw, the
    # holders and records need no dataclass code generation, and the flag
    # table needs no argparse, nor the gettext and locale that it imports
    code = (
        "import sys\n"
        "import ppasim.cli\n"
        "late = ('dataclasses', 'json', 'numpy.random', 'concurrent.futures',\n"
        "        'multiprocessing', 'argparse', 'gettext', 'locale')\n"
        "print(sorted(set(late) & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=package_env(), check=True, timeout=60,
        capture_output=True, text=True,
    )
    assert done.stdout == "[]\n"


def test_parsing_argv_loads_no_argparse_gettext_or_locale(tmp_path):
    # main() turns argv into fields through its own flag table; argparse,
    # and the gettext and locale it pulls in, would cost every run ~8 ms
    code = (
        "import sys\n"
        "from ppasim import cli\n"
        "argv = ['sweep', '--theta', '0.1', '--t', '0.5', '--trials', '2',\n"
        "        '--out', sys.argv[1]]\n"
        "assert cli.main(argv) == 0\n"
        "assert cli.main(['verify', '--n', '1']) == 0\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "s.csv")], env=package_env(),
        check=True, timeout=60, capture_output=True, text=True,
    )
    assert done.stdout.splitlines()[-1] == "[]"


def test_main_freezes_the_start_up_objects_and_keeps_the_bytes(tmp_path):
    # no collection of the run, of a forked worker or of interpreter exit
    # walks what the imports made; the sweep's rows are the pinned ones
    out = tmp_path / "s.csv"
    code = (
        "import gc, sys\n"
        "from ppasim import cli\n"
        "assert gc.get_freeze_count() == 0\n"
        "assert cli.main(['sweep', '--workers', '2', '--out', sys.argv[1]]) == 0\n"
        "assert gc.get_freeze_count() > 0, 'nothing frozen'\n"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(out)], env=package_env(), check=True,
        stdout=subprocess.DEVNULL, timeout=60,
    )
    pinned = Path(__file__).parent / "data" / "sweep_default_seed0.csv"
    assert out.read_bytes() == pinned.read_bytes()


def test_a_second_main_call_freezes_nothing_new(tmp_path, capsys):
    # each freeze keeps the cyclic garbage pending at that moment, so callers
    # of main() in process, as here, pay for one freeze only
    argv = ["kd", "--theta", "0.1", "--t", "0.5", "--out", str(tmp_path / "kd.json")]
    assert run(argv, capsys)[0] == 0
    frozen = gc.get_freeze_count()
    assert frozen > 0
    assert run(argv, capsys)[0] == 0
    assert gc.get_freeze_count() == frozen


def test_library_commands_leave_the_callers_collector_unfrozen(tmp_path):
    code = (
        "import gc\n"
        "from ppasim import cli\n"
        "spec = cli.SweepSpec(theta_list=(0.1, 0.2), t_list=(0.3, 0.5), n_trials=2)\n"
        "cli.cmd_sweep(spec._replace(output_path='s.csv'), workers=2)\n"
        "cli.cmd_kd(spec._replace(output_path='kd.json'))\n"
        "cli.cmd_fig4(spec._replace(output_path='f.csv'))\n"
        "cli.cmd_verify(n_instances=1)\n"
        "print(gc.get_freeze_count())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=package_env(), check=True,
        capture_output=True, text=True, timeout=60,
    )
    assert done.stdout.splitlines()[-1] == "0"


# CI's `-W always::ResourceWarning` runs of kd, fig4 and verify at their
# defaults (the sweep's are in test_sweep_workers_do_not_change_bytes): what a
# command opens after main()'s freeze is still collected, and warns if unclosed.
@pytest.mark.parametrize("argv", [["kd"], ["fig4"], ["verify", "--n", "1"]],
                         ids=["kd", "fig4", "verify"])
def test_ci_commands_leave_no_file_open(tmp_path, argv):
    proc = subprocess.run(
        [sys.executable, "-W", "always::ResourceWarning", "-m", "ppasim", *argv],
        cwd=tmp_path, env=package_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, check=True, timeout=60,
    )
    assert not re.search("Traceback|ResourceWarning", proc.stderr), proc.stderr


def on_cpus(monkeypatch, n):
    """Let this process run on ``n`` CPUs, as ``cli._fork_width`` sees it."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(n)))


def no_fork(*args, **kwargs):
    raise AssertionError("a worker was forked")


def recording_runner(sizes):
    """Stand-in for cli._fork_chunks: appends each run's chunk count to
    ``sizes`` and runs the share, then the chunks, in this process."""

    def run_chunks(run, chunks, name, share=None):
        sizes.append(len(chunks))
        return sum(map(run, chunks), [] if share is None else run(share))

    return run_chunks


def test_csv_row_writes_12_digits_then_the_flags():
    # the one row format of sweep and fig4
    values = (0.1, 1 / 3, 1e-17, 12345.6789, 0.0, -2.5e300, math.nan, "empty-trials=1")
    fields = cli._csv_row(values).split(",")
    assert len(fields) == len(values)
    assert fields[-1] == "empty-trials=1"
    assert fields[-2] == "nan"
    for text, x in zip(fields[:-2], values[:-2]):
        assert float(text) == pytest.approx(x, rel=1e-11, abs=1e-300)
    assert cli._csv_row((0.5, "")) == "0.5,"


def stub_points(spec, points):
    """Stand-in grid evaluator: a point's indices, a product and a flag naming it."""
    return [(i, j, spec.theta_list[i] * spec.t_list[j], f"at={i}.{j}") for i, j in points]


def test_grid_runner_writes_rows_row_major_whatever_the_workers(tmp_path, monkeypatch):
    sizes = []
    monkeypatch.setattr(cli, "_fork_chunks", recording_runner(sizes))
    on_cpus(monkeypatch, 8)
    thetas, ts = (0.1, 0.2, 0.3), (0.5, 1.0)
    want = "i,j,product,flags\n" + "".join(
        f"{i},{j},{theta * t:.12g},at={i}.{j}\n"
        for i, theta in enumerate(thetas)
        for j, t in enumerate(ts)
    )
    for workers in (1, 2, 3, 7):
        out = tmp_path / f"w{workers}.csv"
        spec = SweepSpec(theta_list=thetas, t_list=ts, output_path=str(out))
        columns = ("i", "j", "product", "flags")
        assert cli._run_grid(spec, "sweep", columns, stub_points, 1, workers) == str(out)
        assert out.read_text() == want
    # one worker is one chunk; 7 workers are capped at the 6 points
    assert sizes == [1, 2, 3, 6]


@pytest.mark.parametrize(
    "theta, t, started", [("0.1", "0.5", [1]), ("0.1,0.2,0.3", "0.5", [3])]
)
def test_sweep_starts_no_more_processes_than_grid_points(
    tmp_path, capsys, monkeypatch, theta, t, started
):
    sizes = []
    monkeypatch.setattr(cli, "_fork_chunks", recording_runner(sizes))
    # enough CPUs that the grid, not the CPU count, bounds the chunks
    on_cpus(monkeypatch, 8)
    argv = ["sweep", "--theta", theta, "--t", t, "--budget", "4000", "--trials", "3"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(argv + ["--out", str(a), "--workers", "1"], capsys)
    run(argv + ["--out", str(b), "--workers", "64"], capsys)
    assert sizes == [1, *started]
    assert a.read_bytes() == b.read_bytes()


def test_sweep_starts_no_more_processes_than_cpus(tmp_path, capsys, monkeypatch):
    # the bytes do not depend on the worker count, so processes beyond the
    # CPUs would only cost memory and start-up
    sizes = []
    monkeypatch.setattr(cli, "_fork_chunks", recording_runner(sizes))
    on_cpus(monkeypatch, 2)
    code, _ = run(
        ["sweep", "--theta", "0.1,0.2,0.3", "--t", "0.3,0.5,0.7", "--budget", "4000",
         "--trials", "3", "--workers", "64", "--out", str(tmp_path / "s.csv")],
        capsys,
    )
    assert code == 0
    assert sizes == [2]


# CI's sweep whose bytes it compares across worker counts
CI_SWEEP = ["sweep", "--budget", "30", "--trials", "5"]


def test_sweep_on_one_cpu_forks_nothing_and_writes_the_one_worker_bytes(
    tmp_path, capsys, monkeypatch
):
    # pinned to one CPU (CI's `taskset -c 0` run), workers would only take
    # turns with each other: the chunks run here
    on_cpus(monkeypatch, 1)
    monkeypatch.setattr(cli.os, "fork", no_fork)
    a, b = tmp_path / "w1.csv", tmp_path / "t1.csv"
    assert run(CI_SWEEP + ["--workers", "1", "--out", str(a)], capsys)[0] == 0
    assert run(CI_SWEEP + ["--workers", "2", "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_beside_a_python_thread_forks_nothing_and_keeps_its_bytes(
    tmp_path, capsys, monkeypatch
):
    # a thread, as a Jupyter kernel runs, would outlive the fork, which
    # Python 3.12 and later warn of
    on_cpus(monkeypatch, 2)
    a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert run(CI_SWEEP + ["--workers", "1", "--out", str(a)], capsys)[0] == 0
    monkeypatch.setattr(cli.os, "fork", no_fork)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        code, _ = run(CI_SWEEP + ["--workers", "2", "--out", str(b)], capsys)
    finally:
        done.set()
        thread.join()
    assert code == 0 and a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [["sweep", "--trials", "2"], ["fig4"]],
                         ids=["sweep", "fig4"])
def test_one_job_runs_without_reading_the_cpus(tmp_path, capsys, monkeypatch, argv):
    # a one-worker sweep and each of fig4's runs are one job: nothing to fork,
    # so nothing to ask of the system
    def no_affinity(pid):
        raise AssertionError("the CPUs were read for one job")

    monkeypatch.setattr(cli.os, "sched_getaffinity", no_affinity)
    out = tmp_path / "o.csv"
    code, _ = run(argv + ["--theta", "0.1,0.2", "--t", "0.5", "--out", str(out)], capsys)
    assert code == 0 and len(read_csv(out)) == 2


# A grid of 3 x 2 points in three worker chunks whose second chunk, from
# (1, 0), fails as FAIL says; the script prints what reaches the caller,
# then whether any child is left unreaped.
FAILING_WORKER = """
import os, sys
from ppasim import cli

class PointError(Exception):
    def __init__(self, where, why):
        super().__init__(f"{where}: {why}")

class PointValueError(ValueError):
    def __init__(self, where, why):
        super().__init__(f"{where}: {why}")

def evaluate(spec, points):
    if (1, 0) in points:
        FAIL
    return [(i, j, "") for i, j in points]

os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
spec = cli.SweepSpec(theta_list=(0.1, 0.2, 0.3), t_list=(0.5, 1.0), seed=7,
                     output_path=sys.argv[1])
try:
    cli._run_grid(spec, "sweep", ("i", "j", "flags"), evaluate, 1, workers=3)
except Exception as exc:
    print(f"{type(exc).__name__}: {exc}")
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""
# The point (1, 0) of that grid, as the runner and a dead worker name it.
POINT_1_0 = "grid point theta = 0.2, t = 0.5 at grid index (i, j) = (1, 0), seed = 7"


@pytest.mark.skipif(sys.platform != "linux", reason="workers fork on Linux only")
@pytest.mark.parametrize(
    "fail, error",
    [
        # the chunk runs again in the caller, point by point, which names (1, 0)
        ('raise ValueError("boom")', f"ValueError: {POINT_1_0}: boom"),
        # an exception that cannot be rebuilt from its message keeps its type
        ('raise PointError((1, 0), "boom")', "PointError: (1, 0): boom"),
        # a ValueError that cannot be rebuilt from one message: named as a
        # plain ValueError from it
        ('raise PointValueError((1, 0), "boom")', f"ValueError: {POINT_1_0}: (1, 0): boom"),
        ("os._exit(3)",
         f"RuntimeError: worker of the chunk from {POINT_1_0}: exit status 3, no rows"),
        # the child leaves through os._exit(1), never through the caller's stack
        ("raise KeyboardInterrupt",
         f"RuntimeError: worker of the chunk from {POINT_1_0}: exit status 1, no rows"),
    ],
    ids=["raises", "raises-two-arguments", "raises-value-error-two-arguments", "exits",
         "interrupted"],
)
def test_a_failing_worker_reaches_the_caller_and_is_reaped(tmp_path, fail, error):
    out = tmp_path / "s.csv"
    code = FAILING_WORKER.replace("FAIL", fail)
    done = subprocess.run(
        [sys.executable, "-c", code, str(out)],
        env=package_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.splitlines() == [error, "no child left"]
    assert not out.exists()


# os.fork fails on its second call, after the first child has started on
# more rows than a pipe buffers (64 KiB), so that child blocks until read.
FAILING_FORK = """
import errno, os, sys
from ppasim import cli

def evaluate(spec, points):
    return [(i, j, "x" * 40000) for i, j in points]

def fork():
    forks.append(None)
    if len(forks) == 2:
        raise OSError(errno.EAGAIN, "fork refused")
    return real_fork()

forks, real_fork = [], os.fork
os.fork = fork
os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
spec = cli.SweepSpec(theta_list=(0.1, 0.2, 0.3), t_list=(0.5, 1.0), output_path=sys.argv[1])
fds = len(os.listdir("/proc/self/fd"))
try:
    cli._run_grid(spec, "sweep", ("i", "j", "flags"), evaluate, 1, workers=3)
except OSError as exc:
    print(f"{type(exc).__name__}: {exc}")
print("fds opened:", len(os.listdir("/proc/self/fd")) - fds)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


@pytest.mark.skipif(sys.platform != "linux", reason="workers fork on Linux only")
def test_a_failed_fork_reaps_the_started_workers_and_closes_its_pipe(tmp_path):
    out = tmp_path / "s.csv"
    done = subprocess.run(
        [sys.executable, "-c", FAILING_FORK, str(out)],
        env=package_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.splitlines() == [
        "BlockingIOError: [Errno 11] fork refused", "fds opened: 0", "no child left",
    ]
    assert not out.exists()


@pytest.mark.skipif(sys.platform != "linux", reason="workers fork on Linux only")
def test_an_interrupted_fork_closes_its_pipe(tmp_path, monkeypatch):
    # whatever os.fork raises, the pipe made for that child does not leak
    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.os, "fork", interrupted)
    on_cpus(monkeypatch, 2)
    spec = SweepSpec(theta_list=(0.1, 0.2), t_list=(0.5,), output_path=str(tmp_path / "s.csv"))
    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(KeyboardInterrupt):
        cli._run_grid(spec, "sweep", ("i", "j", "flags"), stub_points, 1, workers=2)
    assert len(os.listdir("/proc/self/fd")) == fds
    assert not (tmp_path / "s.csv").exists()


def test_sweep_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "spec.json"
    cfg.write_text(
        json.dumps(
            {
                "theta_list": [0.1],
                "t_list": [0.4],
                "photon_budget": 2000,
                "n_trials": 5,
                "seed": 7,
            }
        )
    )
    out = tmp_path / "c.csv"
    run(
        ["sweep", "--config", str(cfg), "--t", "0.6", "--out", str(out)],
        capsys,
    )
    rows = read_csv(out)
    assert len(rows) == 1
    # the flag wins over the config file for t, the config still sets theta
    assert rows[0]["t_mag"] == "0.6"
    assert rows[0]["theta_true"] == "0.1"


def test_sweep_systematic_flags_propagate(tmp_path, capsys):
    out = tmp_path / "s.csv"
    run(
        ["sweep", "--theta", "0.1", "--t", "0.1", "--delta-t", "0.01",
         "--budget", "50000", "--trials", "4", "--seed", "1", "--out", str(out)],
        capsys,
    )
    row = read_csv(out)[0]
    # miscalibration biases the mean upward at this working point
    assert float(row["mean_estimate"]) > 0.1


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--trials", "1"], "n_trials"),
        (["--t", "0.5,0"], "t_list"),
        (["--theta", "0.1,3.3"], "theta_list"),
        (["--budget", "-5"], "photon_budget"),
        (["--t", "0.5,1.5"], "t_list"),
        (["--delta-t", "0.6"], "t_list, delta_t"),
        (["--epsilon", "0.8"], "epsilon"),
        (["--visibility", "0"], "visibility"),
        (["--seed", "-1"], "seed"),
        (["--workers", "0"], "workers"),
        (["--epsilon", "nan"], "epsilon"),
        (["--budget", "100000000000000000000"], "photon_budget"),
        (["--budget", "100000000000000000000", "--sampling-mode", "poisson"],
         "photon_budget"),
        (["--t", "1e-300"], "t_list"),
        (["--delta-t", "-0.5"], "t_list, delta_t"),
    ],
)
def test_sweep_rejects_invalid_input_before_any_work(
    tmp_path, capsys, monkeypatch, flags, field
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on invalid input")

    monkeypatch.setattr(cli, "run_trials", no_work)
    monkeypatch.setattr(cli, "_fork_chunks", no_work)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--theta", "0.1", "--t", "0.5", "--budget", "100",
            "--trials", "2", "--workers", "2", "--out", str(out)]
    code = main(argv + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"ppasim sweep: error: {field}: ")
    # the message quotes the offending value, here always the flag's last entry
    value = flags[1].split(",")[-1]
    assert re.search(rf"(?<![\w.-]){re.escape(value)}(?![\w.])", line)
    assert not out.exists()


def test_sweep_rejects_a_config_value_outside_the_flag_choices(
    tmp_path, capsys, monkeypatch
):
    # _check rules on sampling_mode wherever it comes from, a config file too
    def no_work(*args, **kwargs):
        raise AssertionError("work started on invalid input")

    monkeypatch.setattr(cli, "run_trials", no_work)
    cfg = tmp_path / "spec.json"
    cfg.write_text('{"sampling_mode": "bursty"}')
    out = tmp_path / "s.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("ppasim sweep: error: sampling_mode: ")
    assert "'bursty'" in line
    assert not out.exists()


def test_sweep_zero_survival_point_flags_no_data(tmp_path, capsys):
    # (theta, t) = (0, 0) passes no photon; delta_t > 0 makes the grid valid
    out = tmp_path / "s.csv"
    code, _ = run(
        ["sweep", "--theta", "0,0.1", "--t", "0,0.5", "--delta-t", "0.2",
         "--trials", "4", "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 4
    assert rows[0]["flags"] == "no-data"
    assert rows[0]["mean_detected"] == "0"
    assert all(r["flags"] == "" for r in rows[1:])


def test_sweep_writes_nan_theory_where_t_squared_underflows(tmp_path, capsys):
    # at theta = 0 the theory's p = t^2 is 0 for t = 1e-300, and (t / p)^2
    # exceeds the float range for t = 1e-160: those two rows write
    # qfi_theory nan, and every row is the one its point writes alone
    out = tmp_path / "s.csv"
    code, _ = run(
        ["sweep", "--theta", "0,0.1", "--t", "1e-300,1e-160,0.5", "--delta-t", "0.1",
         "--visibility", "0.95", "--trials", "2", "--out", str(out)],
        capsys,
    )
    assert code == 0
    spec = SweepSpec(
        theta_list=(0.0, 0.1), t_list=(1e-300, 1e-160, 0.5), delta_t=0.1,
        visibility=0.95, n_trials=2,
    )
    alone = [
        cli._csv_row(run_trials(spec, [point])[0])
        for point in itertools.product(range(2), range(3))
    ]
    assert out.read_text().splitlines()[1:] == alone
    rows = read_csv(out)
    assert [r["qfi_theory"] == "nan" for r in rows] == [True, True] + [False] * 4
    assert all(r["flags"] == "" for r in rows)


@pytest.mark.parametrize("mode", ["fixed", "poisson"])
def test_sweep_with_negative_t_writes_the_rows_of_its_magnitude(tmp_path, capsys, mode):
    # a negative amplitude is the |t| filter turned by pi about z, and the
    # analyzer turns with it: both sweeps draw and write the same numbers
    argv = ["sweep", "--delta-t", "-0.01", "--epsilon", "0.2", "--visibility", "0.95",
            "--sampling-mode", mode, "--trials", "8", "--seed", "5"]
    neg = tmp_path / "neg.csv"
    pos = tmp_path / "pos.csv"
    assert run(argv + ["--t=-0.044,-0.3,-1.0", "--out", str(neg)], capsys)[0] == 0
    assert run(argv + ["--t", "0.044,0.3,1.0", "--out", str(pos)], capsys)[0] == 0
    assert neg.read_bytes() == pos.read_bytes()


def test_ci_poisson_sweep_of_negative_grids_with_systematics_writes_every_row(
    tmp_path, capsys
):
    # CI's `ppasim sweep --theta -0.3,0.5 --t -0.5,0.3 --delta-t 0.01
    # --epsilon 0.02 --sampling-mode poisson --trials 4`
    out = tmp_path / "s.csv"
    argv = ["sweep", "--theta", "-0.3,0.5", "--t", "-0.5,0.3", "--delta-t", "0.01",
            "--epsilon", "0.02", "--sampling-mode", "poisson", "--trials", "4"]
    assert run(argv + ["--out", str(out)], capsys)[0] == 0
    rows = read_csv(out)
    assert [(r["theta_true"], r["t_mag"]) for r in rows] == [
        ("-0.3", "0.5"), ("-0.3", "0.3"), ("0.5", "0.5"), ("0.5", "0.3")
    ]
    for row in rows:
        assert row["flags"] == ""
        assert abs(float(row["mean_estimate"]) - float(row["theta_true"])) < 0.05


def test_ci_sweep_point_whose_survival_underflows_flags_no_data(tmp_path, capsys):
    # CI's `ppasim sweep --theta 0 --t 1e-300 --delta-t 0.1 --trials 2` and its
    # grep: at theta = 0 and v = 1 the survival probability t^2 is 0
    out = tmp_path / "s.csv"
    argv = ["sweep", "--theta", "0", "--t", "1e-300", "--delta-t", "0.1", "--trials", "2"]
    assert run(argv + ["--out", str(out)], capsys)[0] == 0
    [row] = out.read_text().splitlines()[1:]
    assert re.fullmatch(r"0,1e-300,.*,nan,nan,no-data", row), row


def test_out_dir_environment_resolution(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PPASIM_OUT_DIR", str(tmp_path))
    code, printed = run(
        ["sweep", "--theta", "0.1", "--t", "0.5", "--budget", "100",
         "--trials", "2", "--out", "env.csv"],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "env.csv").exists()
    assert str(tmp_path / "env.csv") in printed


def test_ci_out_dir_fig4_equals_the_out_file(tmp_path, capsys, monkeypatch):
    # CI's `PPASIM_OUT_DIR=outdir ppasim fig4 --theta 0.1,0.5 --t 0.3,1.0` and
    # `cmp f1.csv outdir/fig4.csv`, in process: the missing relative
    # directory is made and holds the bytes an --out run writes
    monkeypatch.chdir(tmp_path)
    grid = ["fig4", "--theta", "0.1,0.5", "--t", "0.3,1.0"]
    assert run(grid + ["--out", "f1.csv"], capsys)[0] == 0
    monkeypatch.setenv("PPASIM_OUT_DIR", "outdir")
    code, printed = run(grid, capsys)
    assert code == 0
    assert printed.strip() == os.path.join("outdir", "fig4.csv")
    out = tmp_path / "outdir" / "fig4.csv"
    assert out.read_bytes() == (tmp_path / "f1.csv").read_bytes()


# ------------------------------------------------------------- output files

FULL_GRID = dict(theta_list=THETA_GRID, t_list=T_GRID)
ONE_POINT = dict(theta_list=(0.1,), t_list=(0.5,))


def write_output(command, path, grid):
    """Write ``command``'s output over ``grid`` to ``path``, all else at the defaults."""
    getattr(cli, f"cmd_{command}")(SweepSpec(**grid, output_path=str(path)))


@pytest.mark.parametrize("command", ["fig4", "kd"])
def test_rewrite_over_a_longer_file_gives_the_bytes_of_a_fresh_write(tmp_path, command):
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    write_output(command, reused, FULL_GRID)
    long_size = reused.stat().st_size
    write_output(command, reused, ONE_POINT)
    write_output(command, fresh, ONE_POINT)
    assert long_size > fresh.stat().st_size
    assert reused.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize(
    "name, grid",
    [("re.csv", ["fig4", "--theta", "0.1,0.5", "--t", "0.3,1.0"]),
     ("re.json", ["kd", "--theta", "0.2,1.5", "--t", "0.5"])],
    ids=["fig4", "kd"],
)
def test_ci_shorter_rewrite_through_main_gives_the_bytes_of_a_fresh_write(
    tmp_path, capsys, monkeypatch, name, grid
):
    # CI's `ppasim fig4 --out re.csv`, the 2 x 2 grid over it and `cmp re.csv
    # f1.csv`, and kd's re.json and kd1.json likewise
    monkeypatch.chdir(tmp_path)
    assert run([grid[0], "--out", name], capsys)[0] == 0
    long_size = (tmp_path / name).stat().st_size
    assert run(grid + ["--out", name], capsys)[0] == 0
    assert run(grid + ["--out", "fresh"], capsys)[0] == 0
    assert long_size > (tmp_path / "fresh").stat().st_size
    assert (tmp_path / name).read_bytes() == (tmp_path / "fresh").read_bytes()


@pytest.mark.parametrize(
    "argv, name",
    [(["sweep", "--trials", "4"], "sweep.csv"), (["kd"], "kd.json"),
     (["fig4"], "fig4.csv")],
    ids=["sweep", "kd", "fig4"],
)
def test_ci_commands_without_out_write_their_default_file_in_the_cwd(
    tmp_path, capsys, monkeypatch, argv, name
):
    # CI's `ppasim sweep --trials 4`, `ppasim kd` and `ppasim fig4`, run in an
    # empty directory without PPASIM_OUT_DIR
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    assert run(argv, capsys) == (0, name + "\n")
    assert [p.name for p in tmp_path.iterdir()] == [name]
    text = (tmp_path / name).read_text()
    n = len(json.loads(text)) if name.endswith(".json") else len(text.splitlines()) - 1
    assert n == len(THETA_GRID) * len(T_GRID)


def test_a_rewrite_keeps_the_file(tmp_path):
    out = tmp_path / "kd.json"
    write_output("kd", out, FULL_GRID)
    ino = out.stat().st_ino
    write_output("kd", out, ONE_POINT)
    assert out.stat().st_ino == ino


def test_output_through_a_symlink_writes_its_target(tmp_path):
    target, link, fresh = tmp_path / "target.json", tmp_path / "link.json", tmp_path / "f"
    target.write_bytes(b"old")
    link.symlink_to(target)
    write_output("kd", link, FULL_GRID)
    write_output("kd", link, ONE_POINT)
    write_output("kd", fresh, ONE_POINT)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_kd_writes_to_dev_null(capsys):
    assert cli.cmd_kd(SweepSpec(output_path="/dev/null")) == "/dev/null"
    # CI's `ppasim kd --out /dev/null`, through main's output probe
    assert run(["kd", "--out", "/dev/null"], capsys) == (0, "/dev/null\n")


def test_no_command_truncates_or_renames_over_an_existing_output(tmp_path, monkeypatch):
    # rewriting in place spares ext4 the writeback that a file cut to zero,
    # or renamed over, starts at close
    import builtins
    import io

    out = tmp_path / "out"
    real_out = os.path.realpath(out)
    modes, renamed = [], []

    def recording(real, name_arg, log):
        def wrapper(*args, **kwargs):
            path = args[name_arg] if len(args) > name_arg else None
            if isinstance(path, (str, os.PathLike)) and os.path.realpath(path) == real_out:
                log.append(args[1] if len(args) > 1 else kwargs.get("mode", "r"))
            return real(*args, **kwargs)
        return wrapper

    for command in ("sweep", "fig4", "kd"):
        out.write_bytes(b"x" * 100_000)
        with monkeypatch.context() as m:
            for module, name in ((builtins, "open"), (io, "open"), (os, "open")):
                m.setattr(module, name, recording(getattr(module, name), 0, modes))
            for name in ("rename", "replace"):
                m.setattr(os, name, recording(getattr(os, name), 1, renamed))
            write_output(command, out, ONE_POINT)
        assert 0 < out.stat().st_size < 100_000
    assert modes and not renamed
    for mode in modes:
        assert ("w" not in mode if isinstance(mode, str) else not mode & os.O_TRUNC), mode


@pytest.mark.parametrize("command", ["fig4", "kd"])
def test_writing_into_an_existing_directory_makes_no_directory(
    tmp_path, monkeypatch, command
):
    # the writer opens first and makes a directory only when the open finds
    # none
    def refuse(*args, **kwargs):
        raise AssertionError("os.makedirs called for an existing directory")

    monkeypatch.setattr(os, "makedirs", refuse)
    write_output(command, tmp_path / "out", ONE_POINT)  # new file
    write_output(command, tmp_path / "out", ONE_POINT)  # rewrite
    assert (tmp_path / "out").stat().st_size > 0


@pytest.mark.parametrize("command", ["fig4", "kd"])
def test_writing_into_a_missing_nested_directory_makes_it(tmp_path, command):
    out = tmp_path / "a" / "b" / "out"
    write_output(command, out, ONE_POINT)
    write_output(command, tmp_path / "fresh", ONE_POINT)
    assert out.read_bytes() == (tmp_path / "fresh").read_bytes()


# ------------------------------------------------------------------ schemas


def test_output_schemas_are_pinned(tmp_path, capsys):
    """The sweep and fig4 CSV headers and the kd record keys, in file order."""
    sweep, fig4, kd = (tmp_path / name for name in ("s.csv", "f.csv", "kd.json"))
    grid = ["--theta", "0.2", "--t", "0.5"]
    for argv in (
        ["sweep", *grid, "--trials", "2", "--out", str(sweep)],
        ["fig4", *grid, "--shots", "100", "--out", str(fig4)],
        ["kd", *grid, "--out", str(kd)],
    ):
        assert run(argv, capsys)[0] == 0
    assert sweep.read_text().splitlines()[0].split(",") == [
        "theta_true", "t_mag", "mean_estimate", "variance", "mse", "mean_detected",
        "precision_per_photon", "accuracy_per_photon", "qfi_theory",
        "stderr_variance", "flags",
    ]
    assert fig4.read_text().splitlines()[0].split(",") == [
        "theta_true", "t_mag", "p_ps", "qfi_theory", "qfi_family", "qfi_empirical",
        "qfi_empirical_stderr", "gap4_family", "gap4_empirical",
        "gap4_empirical_stderr", "qfi_theory_per_input", "qfi_empirical_per_input",
        "gap4_empirical_per_input", "flags",
    ]
    [record] = json.loads(kd.read_text())
    assert list(record) == [
        "theta", "t", "labels", "re", "im", "gap", "gap_times_4delta_sq",
    ]


# ----------------------------------------------------------------------- kd


def test_kd_json_schema_and_values(tmp_path, capsys):
    out = tmp_path / "kd.json"
    code, _ = run(["kd", "--theta", "0.2", "--t", "0.5,1.0", "--out", str(out)], capsys)
    assert code == 0
    records = json.loads(out.read_text())
    assert len(records) == 2
    rec = records[0]
    assert set(rec) == {"theta", "t", "labels", "re", "im", "gap", "gap_times_4delta_sq"}
    assert rec["labels"] == ["a+,a+", "a+,a-", "a-,a+", "a-,a-"]
    assert rec["re"][0] == pytest.approx(1.2137099119211106, abs=1e-12)
    assert rec["re"][1] == pytest.approx(-0.7137099119211106, abs=1e-12)
    assert rec["im"][1] == pytest.approx(-0.14467616158841984, abs=1e-12)
    assert rec["gap"] == pytest.approx(0.9427787201891519, abs=1e-12)
    assert rec["gap_times_4delta_sq"] == pytest.approx(3.7711148807566075, abs=1e-12)
    open_filter = records[1]
    assert open_filter["re"] == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-12)
    assert open_filter["im"] == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-12)
    assert open_filter["gap"] == pytest.approx(0.25, abs=1e-12)


def test_kd_tables_keep_their_digits_at_a_small_phase(tmp_path):
    # the tables' survival probability comes from the |1> population
    # sin^2(theta/2), as in every closed form; from (1 - cos theta)/2, which
    # cancels, re[0] read 199996444040.17 here, 1.8e-5 low
    theta = t = 1e-6
    out = tmp_path / "kd.json"
    cli.cmd_kd(SweepSpec(theta_list=(theta,), t_list=(t,), output_path=str(out)))
    (rec,) = json.loads(out.read_text())
    q = 4.0 * (t * t + (1.0 - t * t) * math.sin(theta / 2.0) ** 2)
    assert rec["re"][0] == pytest.approx((1.0 + t * t) / q, rel=1e-14, abs=0.0)
    assert rec["re"][1] == pytest.approx((t * t - 1.0) * math.cos(theta) / q, rel=1e-14)
    assert rec["im"][1] == pytest.approx((t * t - 1.0) * math.sin(theta) / q, rel=1e-14)


@pytest.mark.parametrize(
    "command, fields, message",
    [
        ("sweep", dict(visibility=1.5, epsilon=1.0, n_trials=4),
         r"visibility: v = 1\.5 must lie in \(0, 1\]$"),
        ("sweep", dict(n_trials=1), r"n_trials: 1 is not an integer >= 2$"),
        ("kd", dict(theta_list=(math.inf,), t_list=(0.5,)),
         r"theta_list: theta = inf is not finite$"),
        ("fig4", dict(shots_per_basis=0), r"shots_per_basis: 0 must lie in \[1, \d+\]$"),
    ],
    ids=["sweep-visibility", "sweep-one-trial", "kd-infinite-theta", "fig4-no-shots"],
)
def test_library_commands_reject_what_the_cli_rejects(
    tmp_path, monkeypatch, command, fields, message
):
    # cmd_sweep, cmd_kd and cmd_fig4 run cli._check before any draw or write,
    # so a library call raises the message of the CLI's exit-2 line and
    # writes nothing, where it wrote a normal-looking row, a row of nan or
    # nan records
    def no_work(*args, **kwargs):
        raise AssertionError("work started on invalid input")

    for name in ("run_trials", "_fork_chunks", "kd_table_closed_form", "_fig4_block"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="^" + message):
        write_output(command, out, {**ONE_POINT, **fields})
    assert not out.exists()


def test_kd_takes_the_spec_that_main_checks(tmp_path, capsys):
    # cmd_kd takes a SweepSpec, as cmd_sweep and cmd_fig4 do: it writes the
    # bytes of main(["kd", ...]) at the default grid and at CI's negative-t
    # grid, and rejects an infinite theta before it writes anything
    by_main, by_call = tmp_path / "main.json", tmp_path / "call.json"
    ci_flags = ["--theta", "-0.3,0.2,1.5", "--t", "-0.5,0.044,1.0"]
    ci_grid = dict(theta_list=(-0.3, 0.2, 1.5), t_list=(-0.5, 0.044, 1.0))
    for flags, grid in (([], {}), (ci_flags, ci_grid)):
        assert run(["kd", *flags, "--out", str(by_main)], capsys)[0] == 0
        assert cli.cmd_kd(SweepSpec(**grid, output_path=str(by_call))) == str(by_call)
        assert by_call.read_bytes() == by_main.read_bytes()
    kept = by_call.read_bytes()
    for out in (by_call, tmp_path / "new.json"):
        spec = SweepSpec(theta_list=(0.2, math.inf), output_path=str(out))
        with pytest.raises(ValueError, match=r"^theta_list: theta = inf is not finite$"):
            cli.cmd_kd(spec)
    assert by_call.read_bytes() == kept
    assert sorted(p.name for p in tmp_path.iterdir()) == ["call.json", "main.json"]


def test_ci_kd_subset_equals_the_default_records(tmp_path, capsys):
    # CI's kd subset line: each record of a 2 x 2 grid equals the record of
    # the same (theta, t) in the default grid
    sub, full = tmp_path / "sub.json", tmp_path / "all.json"
    argv = ["kd", "--theta", "0.2,1.5", "--t", "0.5,1.0", "--out", str(sub)]
    assert run(argv, capsys)[0] == 0
    assert run(["kd", "--out", str(full)], capsys)[0] == 0
    records = json.loads(sub.read_text())
    grid = {(r["theta"], r["t"]): r for r in json.loads(full.read_text())}
    assert len(records) == 4
    assert records == [grid[r["theta"], r["t"]] for r in records]


def test_kd_matches_the_matrix_reference(tmp_path, capsys):
    # negative theta, negative t, the open filter and the strong-filter
    # corner (1.5, 0.044); entries reach ~1e2 at (0.02, 0.044), so compare
    # entrywise with criterion 4's |kd - ref| / max(1, |ref|)
    thetas = (-1.5, -0.3, 0.02, 0.2, 1.0, 1.5)
    ts = (-1.0, -0.5, -0.044, 0.044, 0.3, 1.0)
    out = tmp_path / "kd.json"
    argv = ["kd", "--theta=" + ",".join(map(str, thetas)), "--t=" + ",".join(map(str, ts))]
    code, _ = run(argv + ["--out", str(out)], capsys)
    assert code == 0
    records = json.loads(out.read_text())
    assert [(r["theta"], r["t"]) for r in records] == list(itertools.product(thetas, ts))
    for rec in records:
        ref = imprinted_table(rec["theta"], rec["t"]).ravel()
        got = np.array(rec["re"]) + 1j * np.array(rec["im"])
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        gap = nonclassicality_gap(ref)
        assert abs(rec["gap"] - gap) <= 1e-12 * max(1.0, gap)
        assert rec["gap_times_4delta_sq"] == 4.0 * rec["gap"]


def test_kd_gap_is_the_family_qfi_where_the_table_cancels(tmp_path, capsys):
    # QFI = 4 (Delta a)^2 gap, with Delta a = 1, where the table's max - min
    # of |entry|^2 near 1/p loses the gap: the table read 0 at (0.5, 1e-8)
    # and 2^30 against 1.599e9 at (1e-6, 1e-8)
    thetas, ts = (0.5, 1e-3, 1e-4, 1e-6), (1e-9, 1e-8, 1e-6, 1e-4)
    out = tmp_path / "kd.json"
    argv = ["kd", "--theta", ",".join(map(repr, thetas)), "--t", ",".join(map(repr, ts))]
    assert run(argv + ["--out", str(out)], capsys)[0] == 0
    records = json.loads(out.read_text())
    assert len(records) == 16
    for rec in records:
        qfi = qfi_ppa_family(rec["theta"], rec["t"])
        assert rec["gap_times_4delta_sq"] == pytest.approx(qfi, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "command, theta, t, extra",
    [
        ("kd", "-0.3,0.2,1.5", "-0.5,0.044,1.0", []),
        ("sweep", "-0.3,0.2", "-.5,1.0", ["--trials", "2"]),
        ("fig4", "-0.3,0.2", "0.3,1.0", []),  # fig4 takes t > 0 only
    ],
)
def test_grid_starting_with_a_minus_sign_parses_in_both_forms(
    tmp_path, capsys, command, theta, t, extra
):
    # a flag's value is the next argument whatever its first character, so
    # "--theta -0.3,..." must give the same file as "--theta=-0.3,..."
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    argv = [command, "--theta", theta, "--t", t, *extra, "--out", str(spaced)]
    assert run(argv, capsys)[0] == 0
    argv = [command, f"--theta={theta}", f"--t={t}", *extra, "--out", str(joined)]
    assert run(argv, capsys)[0] == 0
    assert spaced.read_bytes() == joined.read_bytes()
    if command == "kd":  # a unique prefix of --theta names it too
        argv = ["kd", "--the", theta, "--t", t, "--out", str(spaced)]
        assert run(argv, capsys)[0] == 0
        assert spaced.read_bytes() == joined.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--epsilon", "-1e-3"],
        ["sweep", "--delta-t", "-2e-3"],
        ["sweep", "--visibility", "-1e-3"],
        ["sweep", "--epsilon", "-.001"],
        ["sweep", "--seed", "-1"],
        ["sweep", "--budget", "-5"],
        ["sweep", "--trials", "-2"],
        ["sweep", "--workers", "-1"],
        ["fig4", "--visibility", "-5e-1"],
        ["fig4", "--seed", "-1"],
        ["fig4", "--shots", "-100"],
        ["verify", "--seed", "-1"],
        ["verify", "--n", "-1"],
    ],
    ids="".join,
)
def test_negative_number_parses_in_both_forms(tmp_path, capsys, argv):
    # a value that starts with "-" is still the flag's value: the spaced form
    # must write the bytes of "--flag=-1e-3", or give the same error naming
    # the field
    command, flag, value = argv
    grid = [] if command == "verify" else ["--theta", "0.1", "--t", "0.5"]
    extra = ["--trials", "2"] if command == "sweep" and flag != "--trials" else []
    results = []
    for name, form in (("spaced", [flag, value]), ("joined", [f"{flag}={value}"])):
        out = tmp_path / name
        where = [] if command == "verify" else ["--out", str(out)]
        code = main([command, *grid, *extra, *form, *where])
        err = capsys.readouterr().err
        results.append((code, err, out.read_bytes() if code == 0 else None))
    assert results[0] == results[1]
    code, err, _ = results[0]
    if code:
        field = {"--n": "n_instances", "--trials": "n_trials", "--budget": "photon_budget",
                 "--shots": "shots_per_basis"}.get(flag, flag[2:])
        assert code == 2 and err.startswith(f"ppasim {command}: error: {field}: ")


def test_kd_defaults_cover_the_standard_grid(tmp_path, capsys, monkeypatch):
    # and one closed-form call builds every table of the grid
    calls = []

    def counted(*args):
        calls.append(args)
        return kd_table_closed_form(*args)

    monkeypatch.setattr(cli, "kd_table_closed_form", counted)
    out = tmp_path / "kd.json"
    run(["kd", "--out", str(out)], capsys)
    records = json.loads(out.read_text())
    assert len(records) == len(THETA_GRID) * len(T_GRID)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--t", "0", "--theta", "0"], "theta_list, t_list"),
        (["--t", "0.5,1.5"], "t_list"),
        (["--t", "-2"], "t_list"),
        (["--theta", "0.2,nan"], "theta_list"),
        # the first point in row-major order that the filter blocks
        (["--theta", "0.5,0", "--t", "1e-8,0"],
         "theta_list, t_list: survival probability at (theta = 0, t = 1e-08)"),
        (["--t", "1.5"], "t_list"),  # CI's `ppasim kd --t 1.5`
    ],
)
def test_kd_rejects_invalid_grid_before_any_work(
    tmp_path, capsys, monkeypatch, flags, field
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on invalid input")

    monkeypatch.setattr(cli, "kd_table_closed_form", no_work)
    out = tmp_path / "kd.json"
    code = main(["kd", "--theta", "0.2", "--t", "0.5", "--out", str(out)] + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("ppasim kd: error: ")
    assert field in line
    assert not out.exists()


def test_kd_survival_floor_and_tables_share_one_population(tmp_path, capsys):
    # _check's floor and kd's tables form p from one population, so a point
    # just above the floor has a finite table and one just below exits 2: at
    # t = 0, p is sin^2(theta/2), here some 8 ulp above and below 1e-14
    out = tmp_path / "kd.json"
    argv = ["kd", "--t", "0", "--out", str(out), "--theta"]
    assert run([*argv, "2.0000000000000047e-07"], capsys)[0] == 0
    (record,) = json.loads(out.read_text())
    assert all(map(math.isfinite, record["re"] + record["im"] + [record["gap"]]))
    assert max(map(abs, record["re"])) > 1e13  # 1 / (4 p), p just above 1e-14
    code = main([*argv, "2.000000000000002e-07"])
    err = capsys.readouterr().err
    assert code == 2
    assert "survival probability at (theta = 2e-07, t = 0) is not above" in err


# --------------------------------------------------------------------- fig4


def fig4_rows(path):
    """fig4 CSV rows with every column but ``flags`` as a float."""
    return [
        {k: v if k == "flags" else float(v) for k, v in row.items()}
        for row in read_csv(path)
    ]


FIG4_FLAG = re.compile(r"boundary=[1-4]|near-boundary|no-survival")


def test_fig4_pipeline_tracks_theory(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code, _ = run(
        ["fig4", "--theta", "0.2", "--t", "0.5", "--shots", "40000",
         "--seed", "5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 1
    [row] = fig4_rows(out)
    assert row["qfi_theory"] == pytest.approx(3.7711148807566075, rel=1e-11)
    # the family truth sits below the ideal theory line at v = 0.98
    assert row["qfi_family"] < row["qfi_theory"]
    assert abs(row["qfi_empirical"] - row["qfi_family"]) < max(
        5 * row["qfi_empirical_stderr"], 0.02 * row["qfi_family"]
    )
    assert abs(row["gap4_empirical"] - row["gap4_family"]) < max(
        5 * row["gap4_empirical_stderr"], 0.02 * row["gap4_family"]
    )
    assert row["qfi_theory_per_input"] == pytest.approx(
        row["qfi_theory"] * row["p_ps"], rel=1e-9
    )
    assert row["flags"] == ""


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--t", "1.5"], "t_list"),
        (["--t", "0"], "t_list"),
        (["--t", "-0.5"], "t_list"),
        (["--visibility", "0"], "visibility"),
        (["--shots", "0"], "shots_per_basis"),
        (["--theta", "nan"], "theta_list"),
        (["--seed", "-1"], "seed"),
        (["--shots", "100000000000000000000"], "shots_per_basis"),
    ],
)
def test_fig4_rejects_invalid_input_before_any_work(
    tmp_path, capsys, monkeypatch, flags, field
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on invalid input")

    monkeypatch.setattr(cli, "_fig4_block", no_work)
    out = tmp_path / "f.csv"
    code = main(["fig4", "--theta", "0.2", "--t", "0.5", "--out", str(out)] + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"ppasim fig4: error: {field}: ")
    assert not out.exists()


def matrix_fig4_point(spec, i, j):
    """Reference for the fig4 row of grid point (i, j): the pipeline on
    validated 2x2 density matrices.

    The point's keyed stream (``point_stream`` of the tomography stage)
    draws the plus-counts one basis at a time, in the order repetition,
    state (theta - dtheta, theta, theta + dtheta, unfiltered), basis.
    Tomography clips the negative eigenvalue of the linear inversion and
    renormalizes.  The QFI is sld of the
    central-difference matrix derivative; where sld finds a kernel in the
    centre estimate rho = |psi><psi|, the derivative first loses its part
    Tr(rho drho) (2 rho - 1) that leaves the pure states.  The gap
    conditions the (A, filter, A) quasidistribution of the unfiltered
    estimate.
    """
    theta, t = spec.theta_list[i], spec.t_list[j]
    shots, dtheta = spec.shots_per_basis, DEFAULT_DTHETA
    rng = point_stream(spec.seed, STAGE_TOMOGRAPHY, i, j)
    family = functools.partial(ppa_family, t=t, v=spec.visibility)
    unfiltered = unfiltered_state(theta, spec.visibility)

    def tomography(rho):
        ups = [int(rng.binomial(shots, (1.0 + x) / 2.0)) for x in bloch_vector(rho)]
        raw = (ID2 + sum((2.0 * u / shots - 1.0) * s for u, s in zip(ups, PAULIS))) / 2
        w, v = np.linalg.eigh(hermitian_part(raw))
        w = np.clip(w, 0.0, None)
        return density_matrix((v * (w / w.sum())) @ v.conj().T)

    def gap4(rho):
        kd = kd_distribution(rho, ppa_povm_sequence(t))
        return 4.0 * nonclassicality_gap(condition(kd, 1, 0))

    qfi, gap = [], []
    for _ in range(4):
        minus, center, plus = (
            tomography(family(theta + k * dtheta)[0]) for k in (-1, 0, 1)
        )
        unf = tomography(unfiltered)
        drho = hermitian_part((plus - minus) / (2.0 * dtheta))
        w = np.linalg.eigvalsh(center)
        if w[0] <= 1e-12 * w[1]:
            drho = drho - np.trace(center @ drho).real * (2.0 * center - ID2)
        qfi.append(sld(center, drho).qfi)
        gap.append(gap4(unf))
    k = make_filter(t)
    p_ps = float(np.trace(k @ unfiltered @ k.conj().T).real)
    qfi_mean, gap_mean = float(np.mean(qfi)), float(np.mean(gap))
    return (
        theta,
        t,
        p_ps,
        qfi_ppa_family(theta, t),
        sld(*family(theta)).qfi,
        qfi_mean,
        float(np.std(qfi, ddof=1) / 2.0),
        gap4(unfiltered),
        gap_mean,
        float(np.std(gap, ddof=1) / 2.0),
        qfi_ppa_family(theta, t) * p_ps,
        qfi_mean * p_ps,
        gap_mean * p_ps,
    )


def test_fig4_stream_layout_is_pinned(monkeypatch):
    # one keyed Philox stream per point (the tomography stage) and one
    # binomial call over (repetitions, vectors, axes): the integer count
    # totals per vector and per axis pin the draws without depending on libm
    # rounding, and the counts are those of the point's stream built afresh
    drawn = []

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def binomial(self, n, p):
            drawn.append((p, self.rng.binomial(n, p)))
            return drawn[-1][1]

    def spy(r, shots, rng):
        return simulate_tomography(r, shots, Recording(rng))

    monkeypatch.setattr(cli, "simulate_tomography", spy)
    cli._fig4_block(SweepSpec(seed=17, shots_per_basis=1000), [(2, 3)])
    [(p, counts)] = drawn
    assert counts.shape == (cli._FIG4_REPS, 4, 3)
    assert counts.sum(axis=(0, 2)).tolist() == [8400, 8538, 8628, 8226]
    assert counts.sum(axis=(0, 1)).tolist() == [8010, 10149, 15633]
    fresh = point_stream(17, STAGE_TOMOGRAPHY, 2, 3).binomial(1000, p)
    assert np.array_equal(counts, fresh)


def compare_with_matrix_reference(visibility):
    """Check the rows of one cli._fig4_block call against matrix_fig4_point on
    a 2x2 grid at seeds 0-3; return how many centre estimates were projected."""
    boundary = 0
    for seed in range(4):
        spec = SweepSpec(
            theta_list=(0.1, 0.5), t_list=(0.3, 1.0), visibility=visibility, seed=seed
        )
        points = list(itertools.product(range(2), range(2)))
        for (i, j), (*got, flags) in zip(points, cli._fig4_block(spec, points)):
            ref = np.array(matrix_fig4_point(spec, i, j))
            scale = np.abs(ref)
            if visibility == 1.0:
                # sld of a pure centre estimate rounds its QFI to about
                # 1e-12 of the QFI, and the standard error inherits that
                # absolute rounding: measure it against the mean
                scale[[6, 9]] = scale[[5, 8]]
            assert np.all(np.abs(np.array(got) - ref) <= 1e-12 * scale)
            boundary += sum(
                int(f[len("boundary="):]) for f in flags.split(";")
                if f.startswith("boundary=")
            )
    return boundary


def test_fig4_bloch_route_matches_matrix_reference():
    # at v = 0.98 no tomographic estimate on this grid reaches the sphere
    assert compare_with_matrix_reference(0.98) == 0


def test_fig4_tangent_projection_matches_matrix_reference():
    # at v = 1 most centre estimates lie on the sphere and are projected
    assert compare_with_matrix_reference(1.0) > 8


@pytest.mark.parametrize("visibility", [0.98, 1.0])
def test_fig4_qfi_family_is_the_per_point_solve(visibility):
    # the closed form fig4 writes against the 2-D sld solve of the family
    for theta, t in itertools.product(THETA_GRID, T_GRID):
        solved = sld(*ppa_family(theta, t, visibility)).qfi
        closed = qfi_ppa_family(theta, t, visibility)
        assert closed == pytest.approx(solved, rel=1e-12, abs=0.0)


def test_fig4_qfi_family_stays_accurate_near_the_sphere(tmp_path, capsys):
    # at t = 1e-6 the filtered state lies within about 1e-12 of the sphere,
    # where 1 - |r|^2 cancels; the pinned values are 80-digit numerical
    # derivatives of the family's Bloch vector
    pinned = {
        (2.0, 0.5): 6.85193671362e-13,
        (1.0, 0.98): 1.7353456135e-11,
    }
    for (theta, v), want in pinned.items():
        out = tmp_path / f"v{v}.csv"
        code, _ = run(
            ["fig4", "--theta", repr(theta), "--t", "1e-6", "--visibility", repr(v),
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        [row] = fig4_rows(out)
        assert row["qfi_family"] == pytest.approx(want, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("visibility", [0.98, 1.0])
def test_fig4_evaluates_every_default_point(visibility):
    # no default-grid point-run raises or writes nan, for seeds 0-19.  The
    # bias rule, fixed before measuring: at v = 0.98 every point that no
    # seed flags has its median qfi_empirical / qfi_family in [0.8, 1.25]
    ratio = np.empty((len(THETA_GRID), len(T_GRID), 20))
    flagged = np.zeros(ratio.shape, dtype=bool)
    points = list(np.ndindex(ratio.shape[:2]))
    for seed in range(20):
        spec = SweepSpec(visibility=visibility, seed=seed)
        for (i, j), (*vals, flags) in zip(points, cli._fig4_block(spec, points)):
            assert np.all(np.isfinite(vals))
            assert all(FIG4_FLAG.fullmatch(f) for f in flags.split(";") if flags)
            ratio[i, j, seed] = vals[5] / vals[4]
            flagged[i, j, seed] = flags != ""
    unflagged = ~flagged.any(axis=2)
    median = np.median(ratio, axis=2)[unflagged]
    assert np.all((0.8 <= median) & (median <= 1.25))
    if visibility < 1.0:
        assert unflagged.sum() >= len(THETA_GRID) * len(T_GRID) // 2


def test_fig4_default_grid_at_seed_0_is_pinned(tmp_path, capsys):
    # `ppasim fig4` at its defaults (v = 0.98, seed 0), against the rows it
    # wrote when each point came to draw from its keyed Philox stream; and
    # byte for byte at v = 1 with 100 shots, where every row takes the
    # projection branch (boundary=<n>) and most are also near-boundary
    data = Path(__file__).parent / "data"
    out = tmp_path / "fig4_default_seed0.csv"
    code, _ = run(["fig4", "--out", str(out)], capsys)
    assert code == 0
    pinned = data / "fig4_default_seed0.csv"
    assert read_csv(out)[0].keys() == read_csv(pinned)[0].keys()
    got, ref = fig4_rows(out), fig4_rows(pinned)
    assert len(got) == len(ref) == len(THETA_GRID) * len(T_GRID)
    for row, want in zip(got, ref):
        assert row["flags"] == want["flags"]
        for key in FIG4_CSV_COLUMNS[:-1]:
            assert row[key] == pytest.approx(want[key], rel=1e-9, abs=0.0)
    out = tmp_path / "fig4_v1_shots100_seed0.csv"
    code, _ = run(
        ["fig4", "--visibility", "1.0", "--shots", "100", "--out", str(out)], capsys
    )
    assert code == 0
    assert out.read_bytes() == (data / out.name).read_bytes()


@pytest.mark.parametrize(
    "evaluate, fields",
    [
        ("run_trials", {}),
        ("run_trials", {"sampling_mode": "poisson"}),
        ("_fig4_block", {"visibility": 0.98}),
        ("_fig4_block", {"visibility": 1.0, "shots_per_basis": 100}),
    ],
    ids=["sweep-fixed", "sweep-poisson", "fig4", "fig4-v1-shots100"],
)
def test_rows_do_not_depend_on_the_blocks(evaluate, fields):
    # the default grid's rows, byte for byte, from the runner's blocks, from
    # blocks of 5 points and from one-point blocks
    evaluate = getattr(cli, evaluate)
    spec = SweepSpec(**fields)
    trials = cli._FIG4_REPS if evaluate is cli._fig4_block else spec.n_trials
    points = list(itertools.product(range(len(THETA_GRID)), range(len(T_GRID))))
    whole = cli._grid_rows(evaluate, spec, points, cli.BLOCK_TRIALS // trials)
    assert len(whole) == len(points)
    for step in (1, 5):
        assert cli._grid_rows(evaluate, spec, points, step) == whole


@pytest.mark.parametrize("n_theta, n_t", [(28, 28), (33, 32)])
def test_ci_fig4_row_0_and_column_0_are_their_own_files(tmp_path, capsys, n_theta, n_t):
    # CI's `head -n 29 g28.csv | cmp - g28_row0.csv`, its `g28_col0.csv`
    # line and their 33 x 32 twins (two runner blocks), in process: a point
    # draws from the stream of its own (i, j), whatever else the grid holds,
    # so the grid's first row is the file of its first theta alone and its
    # first column the file of its first t; a stream keyed by the point's
    # position in its block passes the row and breaks the column
    theta = np.linspace(-3, 3, n_theta).tolist()
    t = np.geomspace(1e-4, 1, n_t).tolist()

    def fig4(name, thetas, ts):
        out = tmp_path / name
        argv = ["fig4", "--theta=" + ",".join(map(repr, thetas)),
                "--t", ",".join(map(repr, ts)), "--out", str(out)]
        assert run(argv, capsys)[0] == 0
        return out.read_bytes().splitlines(keepends=True)

    grid = fig4("grid.csv", theta, t)
    assert len(grid) == 1 + n_theta * n_t
    assert grid[: 1 + n_t] == fig4("row0.csv", theta[:1], t)
    assert grid[:1] + grid[1::n_t] == fig4("col0.csv", theta, t[:1])


def test_fig4_flags_a_point_whose_unfiltered_estimate_is_blocked(tmp_path, capsys):
    # two shots per basis can estimate the unfiltered vector as (0, 0, 1), as
    # at seed 1, which t = 1e-9 passes with probability 1e-18: the gap
    # columns are nan and flagged, the QFI columns stay finite, the run goes on
    out = tmp_path / "f.csv"
    code, _ = run(
        ["fig4", "--theta", "1e-3", "--t", "1e-9,0.5", "--visibility", "1",
         "--shots", "2", "--seed", "1", "--out", str(out)],
        capsys,
    )
    assert code == 0
    blocked, other = fig4_rows(out)
    assert "no-survival" in blocked["flags"].split(";")
    for key in ("gap4_empirical", "gap4_empirical_stderr", "gap4_empirical_per_input"):
        assert math.isnan(blocked[key])
    assert math.isfinite(blocked["qfi_empirical"])
    assert math.isfinite(other["gap4_empirical"])


def test_fig4_no_survival_grid_is_pinned(tmp_path, capsys):
    # CI's grid with three blocked unfiltered estimates at seed 4, (1e-3,
    # 3e-8), (1e-6, 1e-9) and (1e-6, 1e-8), byte for byte against the rows
    # fig4 wrote when each point came to draw from its keyed Philox stream
    out = tmp_path / "fig4_no_survival_seed4.csv"
    code, _ = run(
        ["fig4", "--theta", "1e-3,1e-6,0.5", "--t", "1e-9,1e-8,3e-8,0.5",
         "--visibility", "1", "--shots", "2", "--seed", "4", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / out.name).read_bytes()
    assert out.read_text().count("no-survival") == 3


def test_ci_fig4_tiny_phase_writes_the_exact_survival_probability(tmp_path, capsys):
    # CI's `ppasim fig4 --theta 1e-6 --t 1e-9 ... --out tiny.csv`, in process:
    # p = t^2 + (1 - t^2) sin^2(theta/2) = 2.50001e-13 has no cancellation,
    # where a population formed as (1 - z)/2 of a rotated vector loses it
    out = tmp_path / "tiny.csv"
    code, _ = run(
        ["fig4", "--theta", "1e-6", "--t", "1e-9", "--visibility", "1",
         "--shots", "2", "--out", str(out)],
        capsys,
    )
    assert code == 0
    (row,) = read_csv(out)
    assert row["p_ps"] == "2.50001e-13"


@pytest.mark.parametrize("vis", [1.0, 0.98, 0.5])
def test_fig4_exact_columns_are_the_public_closed_forms_bit_for_bit(vis):
    # a block reads p from postselected_bloch's centre column and evaluates
    # the QFI and gap columns on it through the kernels that the public
    # closed forms call after their checks: each column is their bytes
    spec = SweepSpec(theta_list=(1e-6, 0.02, 1.5, 3.1), t_list=(1e-9, 0.044, 1.0),
                     visibility=vis, shots_per_basis=100)
    cli._check("fig4", spec)
    points = list(itertools.product(range(4), range(3)))
    rows = cli._fig4_block(spec, points)
    theta = np.array([spec.theta_list[i] for i, _ in points])
    t = np.array([spec.t_list[j] for _, j in points])
    exact = {
        "p_ps": postselected_bloch(theta, t, 0.0, vis)[1],
        "qfi_theory": qfi_ppa_family(theta, t),
        "qfi_family": qfi_ppa_family(theta, t, vis),
        "gap4_family": gap4_ppa_family(theta, t, vis),
    }
    for name, want in exact.items():
        got = np.array([row[FIG4_CSV_COLUMNS.index(name)] for row in rows])
        assert got.tobytes() == want.tobytes(), name


def test_fig4_family_gap_keeps_its_digits_near_unit_visibility(tmp_path, capsys):
    # at v = 1 - 1e-9 the gap's (1 - v^2)(1 - T)^2 term is 500 times its 4T
    # term, so a 1 - v*v that cancels moves the 12 digits fig4 writes
    # (tests/test_quasiprob.py pins the kernel to the exact value)
    out = tmp_path / "g.csv"
    argv = ["fig4", "--theta", "0.1", "--t", "1e-6", "--visibility", "0.999999999",
            "--out", str(out)]
    assert run(argv, capsys)[0] == 0
    (row,) = read_csv(out)
    assert row["gap4_family"] == "8.02936881945e-05"


# CI's `python -W error -m ppasim fig4 ...` lines, in process: fig4's exact
# columns run outside the closed forms' np.errstate, and on these edge grids
# (blocked estimates, p near 1e-13, a tiny t at half visibility) no step warns
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["--theta", "1e-3", "--t", "1e-9,0.5", "--visibility", "1", "--shots", "2",
     "--seed", "1"],
    ["--theta", "1e-3,1e-6,0.5", "--t", "1e-9,1e-8,3e-8,0.5", "--visibility", "1",
     "--shots", "2", "--seed", "4"],
    ["--theta", "1e-6", "--t", "1e-9", "--visibility", "1", "--shots", "2"],
    ["--theta", "1,2", "--t", "1e-6", "--visibility", "0.5"],
], ids=["blocked", "blocked3", "tiny", "half-visibility"])
def test_ci_fig4_edge_grids_run_with_warnings_as_errors(tmp_path, capsys, argv):
    out = tmp_path / "f.csv"
    assert run(["fig4", *argv, "--out", str(out)], capsys)[0] == 0
    assert len(read_csv(out)) == len(argv[1].split(",")) * len(argv[3].split(","))


def test_fig4_at_full_visibility_writes_the_theory_as_the_family_qfi(tmp_path, capsys):
    # at v = 1 both QFI columns are one closed form, so they agree cell for
    # cell, also at the small theta and t where a two-term bracket form of
    # the family QFI cancels
    out = tmp_path / "f.csv"
    code, _ = run(
        ["fig4", "--theta", "1e-3,1e-6,0.5", "--t", "1e-9,1e-8,3e-8,0.5",
         "--visibility", "1", "--shots", "2", "--seed", "3", "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 12
    assert all(row["qfi_family"] == row["qfi_theory"] for row in rows)


class ForeignError(ValueError):
    """A ValueError subclass from outside the package."""


def test_fig4_error_names_the_point(tmp_path, monkeypatch):
    # the whole grid is one block, which raises; run again one point at a
    # time, it names the first point that raises, keeping the error's type
    # and its cause
    def fail_at_1_0(spec, points):
        if (1, 0) in points:
            raise ForeignError("drho has weight 1e-3 outside the support")
        return real_block(spec, points)

    real_block = cli._fig4_block
    monkeypatch.setattr(cli, "_fig4_block", fail_at_1_0)
    argv = ["fig4", "--theta", "0.2,1.5", "--t", "0.044,0.5", "--seed", "3"]
    named = (r"^grid point theta = 1\.5, t = 0\.044 at grid index \(i, j\) = \(1, 0\), "
             r"seed = 3: drho has weight 1e-3 outside the support$")
    with pytest.raises(ValueError, match=named) as info:
        main(argv + ["--out", str(tmp_path / "f.csv")])
    assert type(info.value) is ForeignError
    cause = info.value.__cause__
    assert type(cause) is ForeignError
    assert str(cause) == "drho has weight 1e-3 outside the support"
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_error_names_the_point(tmp_path, monkeypatch, workers):
    # a block that raises runs again one point at a time, and a forked
    # worker's chunk runs again in this process, so the error names the first
    # point that raises and keeps its cause
    def fail_at_1_0(spec, points):
        if (1, 0) in points:
            raise ValueError("survival probability vanished")
        return real_run(spec, points)

    real_run = cli.run_trials
    monkeypatch.setattr(cli, "run_trials", fail_at_1_0)
    on_cpus(monkeypatch, 2)
    out = tmp_path / "s.csv"
    spec = SweepSpec(theta_list=(0.2, 1.5), t_list=(0.044, 0.5), n_trials=4, seed=3,
                     output_path=str(out))
    with pytest.raises(ValueError) as info:
        cli.cmd_sweep(spec, workers)
    assert str(info.value) == (
        "grid point theta = 1.5, t = 0.044 at grid index (i, j) = (1, 0), seed = 3: "
        "survival probability vanished"
    )
    cause = info.value.__cause__
    assert type(cause) is ValueError and str(cause) == "survival probability vanished"
    assert not out.exists()


def test_a_value_error_that_takes_two_arguments_is_named_in_process(tmp_path):
    # the runner cannot rebuild this error from the named message, so it
    # raises a ValueError with that message, caused by the original
    class PointValueError(ValueError):
        def __init__(self, where, why):
            super().__init__(f"{where}: {why}")

    def evaluate(spec, points):
        if (1, 0) in points:
            raise PointValueError((1, 0), "boom")
        return [(i, j, "") for i, j in points]

    out = tmp_path / "s.csv"
    spec = SweepSpec(theta_list=(0.1, 0.2, 0.3), t_list=(0.5, 1.0), seed=7,
                     output_path=str(out))
    with pytest.raises(ValueError) as info:
        cli._run_grid(spec, "sweep", ("i", "j", "flags"), evaluate, 1, workers=1)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{POINT_1_0}: (1, 0): boom"
    assert type(info.value.__cause__) is PointValueError
    assert not out.exists()


def test_fig4_is_deterministic(tmp_path, capsys):
    argv = ["fig4", "--theta", "0.1", "--t", "0.5", "--shots", "2000", "--seed", "4"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(argv + ["--out", str(a)], capsys)
    run(argv + ["--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_fig4_open_filter_reference_point(tmp_path, capsys):
    out = tmp_path / "f.csv"
    run(
        ["fig4", "--theta", "0.3", "--t", "1.0", "--shots", "20000",
         "--seed", "2", "--out", str(out)],
        capsys,
    )
    [row] = fig4_rows(out)
    assert row["p_ps"] == pytest.approx(1.0)
    assert row["qfi_theory"] == pytest.approx(1.0)
    assert row["qfi_theory_per_input"] == pytest.approx(1.0)


def test_ci_fig4_at_a_tiny_t_and_half_visibility_writes_both_rows(tmp_path, capsys):
    # CI's `ppasim fig4 --theta 1,2 --t 1e-6 --visibility 0.5`: the mixed part
    # of the source passes half its photons whatever t, so both points survive
    out = tmp_path / "f.csv"
    argv = ["fig4", "--theta", "1,2", "--t", "1e-6", "--visibility", "0.5"]
    assert run(argv + ["--out", str(out)], capsys)[0] == 0
    rows = fig4_rows(out)
    assert [(r["theta_true"], r["t_mag"]) for r in rows] == [(1.0, 1e-6), (2.0, 1e-6)]
    for row in rows:
        p = 0.5 * math.sin(row["theta_true"] / 2) ** 2 + 0.25 * (1.0 + 1e-12)
        assert row["p_ps"] == pytest.approx(p, rel=1e-11)
        assert "no-survival" not in row["flags"]


# -------------------------------------------------------------------- verify


def test_verify_exits_clean(capsys):
    code = main(["verify", "--n", "40", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


@pytest.mark.parametrize("argv", [["--n", "200"], ["--seed", "3", "--n", "5000"]])
def test_ci_self_verification_runs_pass(capsys, argv):
    # the two runs of CI's "Self-verification" step, in process; at --n 5000
    # the qubits, the 5- and 6-level qudits and the 4-level marginalization
    # instances take more than one run, the other groups one
    # (test_batch_size_does_not_change_any_residual[1] cuts every d in several)
    code = main(["verify", *argv])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 4
    assert all(line.endswith(" PASS") for line in lines)


@pytest.mark.parametrize(
    "argv",
    [[], ["--n", "1"], *(["--seed", str(s)] for s in range(1, 6)),
     ["--n", "1", "--seed", "1"]],
    ids=["default", "n1", "seed1", "seed2", "seed3", "seed4", "seed5", "n1-seed1"],
)
def test_ci_default_verify_runs_pass(capsys, argv):
    # the `ppasim verify` lines of CI's "CLI runs at defaults" step, in process
    code = main(["verify", *argv])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 4
    assert all(line.endswith(" PASS") for line in lines)


# The seeds of perfbench's verify workload, whose runs fail unless every
# suite prints its n and PASS.
BENCH_VERIFY_SEEDS = [random.Random(f"verify:{k}").randrange(2**32) for k in range(1, 11)]


@pytest.mark.parametrize("seed", BENCH_VERIFY_SEEDS)
def test_verify_passes_at_the_benchmark_seeds(capsys, seed):
    assert main(["verify", "--n", "1000", "--seed", str(seed)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [(line.split()[:2], line.split()[-1]) for line in lines] == [
        (["[gap-equality]", "n=1200"], "PASS"),
        (["[marginalization]", "n=200"], "PASS"),
        (["[cfi-equals-qfi]", "n=84"], "PASS"),
        (["[sylvester-residual]", "n=184"], "PASS"),
    ]


@pytest.mark.parametrize("seed", ["0", "3"])
def test_verify_default_is_n_1000(capsys, seed):
    # CI's `cmp` of `verify --seed 3` against `verify --seed 3 --n 1000`:
    # run_all's one default size gives the same lines as the flag
    assert main(["verify", "--seed", seed]) == 0
    default = capsys.readouterr().out
    assert main(["verify", "--seed", seed, "--n", "1000"]) == 0
    assert capsys.readouterr().out == default


@pytest.mark.filterwarnings("error")
def test_ci_verify_with_warnings_as_errors_passes(capsys, monkeypatch):
    # CI's `python -W error -m ppasim verify --n 5000 --seed 3`, in process:
    # any warning raises; the grid is solved afresh, not read from the cache
    # an earlier test filled, by the worker that runs the grid suites
    fresh = functools.cache(verify._grid_solution.__wrapped__)
    monkeypatch.setattr(verify, "_grid_solution", fresh)
    on_cpus(monkeypatch, 2)
    code = main(["verify", "--n", "5000", "--seed", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 4
    assert all(line.endswith(" PASS") for line in lines)
    assert fresh.cache_info().misses == (0 if sys.platform == "linux" else 1)

    # a warning of the worker's grid solve reaches this process as the error
    # it is under -W error
    def warned():
        warnings.warn("grid solve: a warning", RuntimeWarning)
        return fresh()

    monkeypatch.setattr(verify, "_grid_solution", functools.cache(warned))
    with pytest.raises(RuntimeWarning, match="^grid solve: a warning$"):
        main(["verify", "--n", "5000", "--seed", "3"])
    assert capsys.readouterr().out == ""


def test_verify_reports_a_raising_suite_and_runs_the_rest(capsys, monkeypatch):
    # a suite whose precondition check raises fails on one line naming the
    # error; the other three still run and pass, and the exit code is 1
    def unbalanced(*args):
        raise ForeignError("instance 3: filter is unbalanced")

    monkeypatch.setattr(verify, "verify_gap_equality", unbalanced)
    code = main(["verify", "--n", "200"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 1
    assert len(lines) == 4
    assert lines[0] == ("[gap-equality] n=0 raised ForeignError: "
                        "instance 3: filter is unbalanced FAIL")
    assert sum(line.endswith(" PASS") for line in lines) == 3
    assert "Traceback" not in captured.out + captured.err


def test_verify_names_a_failed_package_check_as_value_error(capsys, monkeypatch):
    # the gap suite's states, mixed half with the identity, fail the purity
    # check of the gap identity, which raises a plain ValueError
    def mixed(rho, gen, k):
        d = rho.shape[-1]
        return real((rho + np.eye(d) / d) / 2, gen, k)

    real = verify.verify_gap_equality
    monkeypatch.setattr(verify, "verify_gap_equality", mixed)
    code = main(["verify", "--n", "200"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[0] == ("[gap-equality] n=0 raised ValueError: instance 0: state purity "
                        "0.6250000000; formula requires a pure state FAIL")


def _nan_residuals(result):
    """``result`` with its residuals nan: a residual array, or a result tuple's field."""
    if hasattr(result, "_replace"):
        return result._replace(residual=np.full_like(result.residual, math.nan))
    return np.full_like(result, math.nan)


@pytest.mark.parametrize(
    "index, target",
    [(0, "verify_gap_equality"), (1, "_marginalization_residual"),
     # the axis angles of the CFI = QFI suite, and the Sylvester suite's
     # random runs alone: its grid solve is cached before the patch
     (2, "axis_angle"), (3, "sld")],
    ids=["gap-equality", "marginalization", "cfi-equals-qfi", "sylvester-residual"],
)
def test_verify_fails_a_suite_with_a_nan_residual(capsys, monkeypatch, index, target):
    # the fold takes np.max, which keeps a nan that Python's max(0.0, nan) drops
    verify._grid_solution()
    real = getattr(verify, target)
    monkeypatch.setattr(verify, target, lambda *args: _nan_residuals(real(*args)))
    code = main(["verify", "--n", "200"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(lines) == 4
    assert " max_residual=nan " in lines[index] and lines[index].endswith(" FAIL")
    assert sum(line.endswith(" PASS") for line in lines) == 3


def test_a_suite_of_no_instance_fails():
    # nothing was checked, so nothing passed: the worst residual is nan
    assert verify.gap_equality_suite(0, 0, 0).summary() == (
        "[gap-equality] n=0 max_residual=nan threshold=1.0e-09 FAIL")
    assert verify.marginalization_suite(0, 0).summary() == (
        "[marginalization] n=0 max_residual=nan threshold=1.0e-12 FAIL")


# The gap-equality and marginalization lines of `ppasim verify` since the
# random suites are drawn as arrays; at --n 1 only one d has an instance.
# A residual is rounding noise, which another BLAS kernel or CPU dispatch can
# move.  Each is held within a factor of 2 of its pin, or within 8 machine
# epsilons (1.8e-15) where that is looser, since a ratio means little for the
# lines of a few epsilons; and always within a factor of 4, so that no bound
# reaches 0.  Under OpenBLAS's Haswell, Sandybridge, Nehalem and Prescott
# kernels (OPENBLAS_CORETYPE), under NumPy without its AVX2 and AVX-512
# loops, and with every small product rounded as BLAS or as rank-1 sums, the
# 1e-13 lines did not move, and the others moved by at most 3.8 epsilons (the
# --n 1 gap line to a quarter of its pin).  The draws behind them are pinned
# call by call in tests/test_quasiprob.py.
@pytest.mark.parametrize(
    "argv, lines",
    [
        (["--seed", "0"], [
            "[gap-equality] n=1200 max_residual=1.254e-13 threshold=1.0e-09 PASS",
            "[marginalization] n=200 max_residual=1.890e-15 threshold=1.0e-12 PASS",
        ]),
        (["--seed", "5"], [
            "[gap-equality] n=1200 max_residual=1.120e-13 threshold=1.0e-09 PASS",
            "[marginalization] n=200 max_residual=1.667e-15 threshold=1.0e-12 PASS",
        ]),
        (["--n", "1"], [
            "[gap-equality] n=2 max_residual=6.551e-16 threshold=1.0e-09 PASS",
            "[marginalization] n=1 max_residual=3.925e-16 threshold=1.0e-12 PASS",
        ]),
    ],
)
def test_verify_random_suite_lines_are_pinned(capsys, argv, lines):
    assert main(["verify", *argv]) == 0
    got = capsys.readouterr().out.splitlines()[:2]
    pattern = re.compile(r"max_residual=(\S+)")
    for line, want in zip(got, lines, strict=True):
        assert pattern.sub("", line) == pattern.sub("", want)
        got_r, want_r = (float(pattern.search(x)[1]) for x in (line, want))
        eps = np.finfo(float).eps
        assert 0.25 <= got_r / want_r <= 4.0
        assert want_r / 2 <= got_r <= 2 * want_r or abs(got_r - want_r) <= 8 * eps


# The suite functions of verify.suites, in their order.
VERIFY_SUITES = ("gap_equality_suite", "marginalization_suite", "cfi_qfi_suite",
                 "sylvester_suite")


def serial_verify(seed, n):
    """``ppasim verify --seed seed --n n``'s stdout and exit code, as
    verify.run_all's results give them in one process."""
    results = verify.run_all(seed, n)
    out = "".join(r.summary() + "\n" for r in results)
    return out, 0 if all(r.passed for r in results) else 1


@pytest.mark.skipif(sys.platform != "linux", reason="verify forks on Linux only")
@pytest.mark.parametrize("seed, n", [*itertools.product(range(6), (1, 5, 1000)), (3, 5000)])
def test_verify_on_two_processes_prints_the_serial_bytes(capsys, monkeypatch, seed, n):
    # gap-equality here, the other three in one forked worker: the lines and
    # the exit code of run_all, byte for byte (CI's `cmp` of --seed 3 --n 5000)
    on_cpus(monkeypatch, 2)
    code = main(["verify", "--seed", str(seed), "--n", str(n)])
    assert (capsys.readouterr().out, code) == serial_verify(seed, n)


@pytest.mark.skipif(sys.platform != "linux", reason="verify forks on Linux only")
@pytest.mark.parametrize("target", ["verify_gap_equality", "_marginalization_residual"],
                         ids=["caller-fails", "worker-fails"])
def test_verify_on_two_processes_prints_a_failed_suite_as_in_one(capsys, monkeypatch, target):
    # nan residuals fail gap-equality, which runs here, or marginalization,
    # which runs in the worker; the exit code is 1 either way
    real = getattr(verify, target)
    monkeypatch.setattr(verify, target, lambda *args: _nan_residuals(real(*args)))
    on_cpus(monkeypatch, 2)
    code = main(["verify", "--seed", "2", "--n", "5"])
    out = capsys.readouterr().out
    assert (out, code) == serial_verify(2, 5)
    assert code == 1 and out.count(" FAIL\n") == 1


def test_verify_on_one_cpu_runs_every_suite_here(capsys, monkeypatch):
    # pinned to one CPU, a worker would only take turns with the caller
    monkeypatch.setattr(cli.os, "fork", no_fork)
    on_cpus(monkeypatch, 1)
    for seed, n in ((0, 1), (3, 1000)):
        code = main(["verify", "--seed", str(seed), "--n", str(n)])
        assert (capsys.readouterr().out, code) == serial_verify(seed, n)


def test_verify_beside_a_python_thread_runs_every_suite_here(capsys, monkeypatch):
    # a thread would outlive the fork, which Python 3.12 and later warn of
    monkeypatch.setattr(cli.os, "fork", no_fork)
    on_cpus(monkeypatch, 2)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        code = main(["verify", "--seed", "3", "--n", "5"])
    finally:
        done.set()
        thread.join()
    assert (capsys.readouterr().out, code) == serial_verify(3, 5)


def os_threads():
    """This process's OS threads, as /proc/self/stat counts them."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[17])


@pytest.mark.skipif(sys.platform != "linux", reason="verify forks on Linux only")
def test_verify_forks_from_one_os_thread(capsys, monkeypatch):
    # Python 3.12 and later count the caller's OS threads right after a fork
    # and warn if there are more than one; NumPy's OpenBLAS pool, which runs
    # beside this thread on a multi-CPU machine, is stopped by its own fork
    # handler and started again at its next call
    real_fork, after = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            after.append(os_threads())
        return pid

    monkeypatch.setattr(cli.os, "fork", fork)
    on_cpus(monkeypatch, 2)
    np.linalg.eigvalsh(np.eye(200))  # wakes the BLAS pool, if any
    code = main(["verify", "--seed", "3", "--n", "5"])
    assert (capsys.readouterr().out, code) == serial_verify(3, 5)
    assert after == [1]


# verify at seed 7 and --n 5, on two processes, whose SUITE raises or exits as
# FAIL says; the script prints what reaches the caller, then whether any
# child is left unreaped.
FAILING_SUITE = """
import os
from ppasim import cli, verify

class SuiteError(Exception):
    pass

def SUITE(*args):
    FAIL

verify.SUITE = SUITE
os.sched_getaffinity = lambda pid: {0, 1}
try:
    cli.cmd_verify(seed=7, n_instances=5)
except Exception as exc:
    print(f"{type(exc).__name__}: {exc}")
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""
# The worker's suites, as a dead worker names them.
WORKER_SUITES = "the suites marginalization_suite, cfi_qfi_suite, sylvester_suite at seed = 7"


@pytest.mark.skipif(sys.platform != "linux", reason="verify forks on Linux only")
@pytest.mark.parametrize(
    "suite, fail, error",
    [
        # the worker's suites run again here and raise as in one process
        ("sylvester_suite", 'raise SuiteError("boom")', "SuiteError: boom"),
        # the caller's own suite raises while the worker works
        ("gap_equality_suite", 'raise SuiteError("boom")', "SuiteError: boom"),
        ("cfi_qfi_suite", "os._exit(3)",
         f"RuntimeError: worker of {WORKER_SUITES}: exit status 3, no rows"),
        # the worker leaves through os._exit(1), never through the caller's stack
        ("marginalization_suite", "raise KeyboardInterrupt",
         f"RuntimeError: worker of {WORKER_SUITES}: exit status 1, no rows"),
    ],
    ids=["worker-raises", "caller-raises", "worker-exits", "worker-interrupted"],
)
def test_a_failing_verify_suite_reaches_the_caller_and_is_reaped(suite, fail, error):
    code = FAILING_SUITE.replace("SUITE", suite).replace("FAIL", fail)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=package_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.splitlines() == [error, "no child left"]


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--seed", "-1"], "seed"),
        (["--n", "0"], "n_instances"),
        (["--n", "-3"], "n_instances"),
    ],
)
def test_verify_rejects_invalid_input_before_any_work(
    capsys, monkeypatch, flags, field
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on invalid input")

    # the suites, which the serial path and the two-process path both call
    for suite in VERIFY_SUITES:
        monkeypatch.setattr(verify, suite, no_work)
    code = main(["verify"] + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"ppasim verify: error: {field}: ")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(seed=-1), "seed: -1 must be non-negative"),
        (dict(seed=0, n_instances=-5), "n_instances: -5 must be at least 1"),
        (dict(seed=0, n_instances=0), "n_instances: 0 must be at least 1"),
        (dict(seed=True), "seed: expected int, got True"),
        (dict(seed=0, n_instances=True), "n_instances: expected int, got True"),
        (dict(seed=0, n_instances=2.5), "n_instances: expected int, got 2.5"),
        (dict(seed=1.5), "seed: expected int, got 1.5"),
        (dict(seed=0, n_instances=5.5), "n_instances: expected int, got 5.5"),
        (dict(seed=0, n_instances="5"), "n_instances: expected int, got '5'"),
        # both types before either value
        (dict(seed=-1, n_instances=0.5), "n_instances: expected int, got 0.5"),
    ],
    ids=["negative-seed", "negative-n", "zero-n", "bool-seed", "bool-n", "float-n",
         "float-seed", "float-n-above-1", "str-n", "types-before-values"],
)
def test_library_verify_rejects_what_the_cli_rejects(monkeypatch, kwargs, message):
    # verify.check_run is verify's whole rule, types included, and runs before
    # any suite, for cmd_verify and verify.run_all alike: a negative seed
    # printed three raised-suite FAIL lines, n < 1 ran the n = 1 suites, a
    # bool or float seed ran as an int and a float n raised deep in the draws
    def no_work(*args, **kwargs):
        raise AssertionError("a suite ran on invalid input")

    for suite in VERIFY_SUITES:
        monkeypatch.setattr(verify, suite, no_work)
    for call in (cli.cmd_verify, verify.run_all):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(**kwargs)


# ---------------------------------------------------------------------- help


HELP_FLAGS = {
    "sweep": (
        "--theta", "--t", "--config", "--out", "--seed", "--budget", "--trials",
        "--visibility", "--epsilon", "--delta-t", "--sampling-mode", "--workers",
    ),
    "kd": ("--theta", "--t", "--config", "--out"),
    "fig4": (
        "--theta", "--t", "--config", "--out", "--seed", "--visibility", "--shots"
    ),
    "verify": ("--seed", "--n"),
}


@pytest.mark.parametrize("command", [None, *HELP_FLAGS])
def test_help_exits_0_naming_every_flag(capsys, command):
    # the usage text is built from the flag table, each time it is asked for
    argv = [command, "--help"] if command else ["--help"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    names = HELP_FLAGS.get(command, tuple(HELP_FLAGS))
    for name in ("-h", "--help", *names):
        assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", text), name


@pytest.mark.parametrize(
    "argv, field",
    [
        (["sweep", "--trials", "x"], "n_trials: "),
        (["sweep", "--trials"], "n_trials: "),
        (["sweep", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["kd", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["sweep", "--s", "1"], "seed, sampling_mode: "),  # --seed, --sampling-mode
        (["sweep", "--sampling-mode", "bursty"], "sampling_mode: "),
        (["fig4", "--shots", "1.5"], "shots_per_basis: "),
        (["frob"], "command: "),
        ([], "command: "),
    ],
    ids=["trials-x", "trials-no-value", "bogus", "kd-seed", "ambiguous-prefix",
         "bursty", "shots-float", "frob", "no-command"],
)
def test_bad_argv_prints_one_line_naming_the_field(tmp_path, capsys, monkeypatch, argv, field):
    # every argv problem is one "ppasim <command>: error: " line, status 2,
    # before any work and with no file written
    def no_work(*args, **kwargs):
        raise AssertionError("work started on invalid input")

    monkeypatch.setattr(cli, "_run_grid", no_work)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    prog = f"ppasim {argv[0]}" if argv and argv[0] in cli.COMMANDS else "ppasim"
    assert line.startswith(f"{prog}: error: {field}")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, same_as",
    [
        # --t names t_list exactly, though it also starts --theta and --trials
        (["sweep", "--theta", "0.1", "--t", "0.5"], {"theta_list": [0.1], "t_list": [0.5]}),
        (["kd", "--t", "0.5", "--theta", "0.1"], {"theta_list": [0.1], "t_list": [0.5]}),
        # the last of a repeated flag wins, in either form
        (["sweep", "--theta", "0.4", "--t=0.5", "--theta=0.1", "--t", "0.3"],
         {"theta_list": [0.1], "t_list": [0.3]}),
        (["kd", "--theta", "0.4,0.2", "--t", "0.5", "--the", "0.1"],
         {"theta_list": [0.1], "t_list": [0.5]}),
    ],
    ids=["exact-sweep", "exact-kd", "last-wins-sweep", "last-wins-kd"],
)
def test_flag_grammar_gives_the_bytes_of_the_config_file(tmp_path, capsys, argv, same_as):
    # an exact flag beats a longer one it prefixes, and the last repeat wins:
    # each run writes the bytes of the same fields given by a config file
    command, trials = argv[0], ["--trials", "2"] if argv[0] == "sweep" else []
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps(same_as))
    flags, config = tmp_path / "flags.out", tmp_path / "config.out"
    assert run([*argv, *trials, "--out", str(flags)], capsys)[0] == 0
    assert run([command, "--config", str(cfg), *trials, "--out", str(config)], capsys)[0] == 0
    assert flags.read_bytes() == config.read_bytes()


# CI's "Self-verification" argv lines, run as CI runs them (through the
# module's sys.exit): a bad argv exits 2 with one stderr line, help exits 0
@pytest.mark.parametrize(
    "argv, status",
    [
        (["sweep", "--trials", "x"], 2),
        (["sweep", "--trials"], 2),
        (["sweep", "--s", "1"], 2),
        (["frob"], 2),
        ([], 2),
        (["--help"], 0),
        (["sweep", "--help"], 0),
    ],
    ids=["trials-x", "trials-no-value", "ambiguous-prefix", "frob", "no-command",
         "help", "sweep-help"],
)
def test_ci_argv_lines_exit_with_their_status(tmp_path, argv, status):
    done = subprocess.run(
        [sys.executable, "-m", "ppasim", *argv], env=package_env(), cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == status
    if status:
        assert done.stdout == "" and len(done.stderr.splitlines()) == 1
    else:
        assert done.stderr == "" and done.stdout.startswith("usage: ppasim ")
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------- spec


def test_spec_from_json_rejects_unknown_keys():
    with pytest.raises(TypeError):
        SweepSpec(**{"theta_list": [0.1], "t_list": [0.5], "bogus": 1})


def test_spec_defaults_match_documented_grid():
    spec = SweepSpec()
    assert spec.theta_list == THETA_GRID
    assert spec.t_list == T_GRID
    assert spec.photon_budget == 10**6
    assert spec.n_trials == 32
    assert math.isclose(spec.visibility, 1.0)


def test_spec_copies_check_and_convert_like_the_constructor():
    spec = SweepSpec(seed=3)
    message = "^seed: expected int, got True$"
    with pytest.raises(ValueError, match=message):
        spec._replace(seed=True)
    with pytest.raises(ValueError, match=message):
        SweepSpec._make(True if name == "seed" else v for name, v in zip(spec._fields, spec))
    copied = spec._replace(theta_list=[0.1, 1])
    assert copied.theta_list == (0.1, 1.0)
    assert type(copied.theta_list[1]) is float
    assert copied._replace(theta_list=spec.theta_list) == spec


@pytest.mark.parametrize("command", ["sweep", "kd", "fig4"])
@pytest.mark.parametrize(
    "flags, config_text, field",
    [
        (["--config", "{cfg}"], '{"theta_list": [0.1], "bogus": 1}', "bogus"),
        (["--theta", "abc"], None, "theta_list"),
        (["--t", "0.5,x"], None, "t_list"),
        (["--config", "{cfg}"], '{"theta_list": [0.1', "config"),
        (["--config", "{missing}"], None, "config"),
        (["--theta", ","], None, "theta_list"),
        (["--config", "{cfg}"], '{"theta_list": 5}', "theta_list"),
        (["--config", "{cfg}"], "[0.1, 0.2]", "config"),
        (["--config", "{cfg}"], '{"visibility": "high"}', "visibility"),
        (["--config", "{cfg}"], '{"seed": 1.5}', "seed"),
        (["--config", "{cfg}"], '{"seed": true}', "seed"),
        (["--config", "{cfg}"], '{"theta_list": [true]}', "theta_list"),
    ],
    ids=[
        "unknown-key", "theta-not-numeric", "t-not-numeric", "malformed-json",
        "missing-config", "empty-grid", "grid-not-a-list", "config-not-an-object",
        "visibility-not-a-number", "seed-not-an-integer", "seed-a-boolean",
        "grid-entry-a-boolean",
    ],
)
def test_spec_load_errors_exit_2_naming_the_field(
    tmp_path, capsys, monkeypatch, command, flags, config_text, field
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on invalid input")

    for name in ("run_trials", "_fork_chunks", "kd_table_closed_form", "_fig4_block"):
        monkeypatch.setattr(cli, name, no_work)
    cfg = tmp_path / "spec.json"
    if config_text is not None:
        cfg.write_text(config_text)
    flags = [f.format(cfg=cfg, missing=tmp_path / "missing.json") for f in flags]
    code = main([command, "--out", str(tmp_path / "out.txt")] + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"ppasim {command}: error: {field}: ")
    assert {p.name for p in tmp_path.iterdir()} <= {"spec.json"}


@pytest.mark.parametrize("command", ["sweep", "kd", "fig4"])
@pytest.mark.parametrize("via_env", [False, True], ids=["out", "out-dir-env"])
def test_unwritable_output_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, command, via_env
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started with an unwritable output path")

    stubs = ("run_trials", "_fork_chunks", "kd_table_closed_form", "_fig4_block")
    for name in stubs:
        monkeypatch.setattr(cli, name, no_work)
    blocker = tmp_path / "notadir"
    blocker.write_text("")
    if via_env:
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(blocker))
        out = blocker / cli.DEFAULT_OUT[command]
        argv = [command, "--out", out.name]
    else:
        out = blocker / "x.csv"
        argv = [command, "--out", str(out)]
    code = main(argv + ["--theta", "0.1", "--t", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"ppasim {command}: error: output_path: cannot write {out}: Not a directory"
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["notadir"]
    assert blocker.read_text() == ""


def test_output_probe_leaves_nothing_behind_a_failed_run(tmp_path, monkeypatch):
    # the probe makes the missing directory but removes the file it opened
    def fail(*args, **kwargs):
        raise RuntimeError("stop after the probe")

    monkeypatch.setattr(cli, "cmd_kd", fail)
    out = tmp_path / "new" / "kd.json"
    with pytest.raises(RuntimeError):
        main(["kd", "--out", str(out)])
    assert [p.name for p in tmp_path.iterdir()] == ["new"]
    assert not any(out.parent.iterdir())
    # an existing file is left as it was
    out.write_text("kept")
    with pytest.raises(RuntimeError):
        main(["kd", "--out", str(out)])
    assert out.read_text() == "kept"


def test_kd_takes_no_seed_flag(tmp_path, capsys):
    # kd is a closed form; its --seed was read by nothing
    assert main(["kd", "--seed", "1", "--out", str(tmp_path / "kd.json")]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    # a config file's seed is still a SweepSpec field for every command
    cfg = tmp_path / "spec.json"
    cfg.write_text('{"seed": 3}')
    code, _ = run(["kd", "--theta", "0.1", "--t", "0.5", "--config", str(cfg),
                   "--out", str(tmp_path / "kd.json")], capsys)
    assert code == 0
    assert (tmp_path / "kd.json").exists()
