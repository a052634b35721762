"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/child.py JOB.json RESULT.json``

The job is either a CLI invocation (``kind: cli``, run through
``ppasim.cli.main`` exactly as ``python -m ppasim`` runs it) or a list of
fig4 point-runs (``kind: fig4``), each a call of ``ppasim.cli.cmd_fig4`` on a
one-point grid.  The result file carries ``time.monotonic()`` stamps, which
on Linux share one clock with the parent process, so the parent can split
the process wall time into set-up (launch to ``import ppasim`` done) and
work.  An untraced job times the calibration kernel on the CPU the work runs
on.  With ``calibrate: interleaved`` slices of the kernel run on a timer
between the work's bytecodes, so that the kernel sees the same spells of a
slow or fast CPU as the work does; with ``calibrate: around`` (a job whose
work runs in a process pool) the whole kernel runs right before and right
after the work, on two CPUs at once.  With ``trace: true`` the job runs untraced, then once more
under :class:`tracer.Tracer`, and reports the per-function table.
"""

import contextlib
import io
import json
import os
import platform
import resource
import signal
import sys
import time

import numpy
import ppasim.cli

T_IMPORT = time.monotonic()


# An interleaved calibration runs one slice, a tenth of the kernel, before
# the work, every CAL_PERIOD_S seconds during it and after it.
CAL_SLICE = 0.1
CAL_PERIOD_S = 0.15


def calibrate(fraction=1.0):
    """Seconds taken by ``fraction`` of a fixed kernel of interpreted Python
    and 2x2 NumPy calls."""
    start = time.perf_counter()
    acc = 0
    for i in range(int(400_000 * fraction)):
        acc += i * i
    m = numpy.eye(2, dtype=complex)
    for _ in range(int(4000 * fraction)):
        m = m @ m
        m = m / numpy.trace(m)
        numpy.linalg.eigvalsh(m)
    return time.perf_counter() - start


def calibrate_pair():
    """Mean seconds of the kernel run at once here and in a forked process,
    which the scheduler puts on another CPU, as the work of a pool is."""
    rd, wr = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rd)
            os.write(wr, repr(calibrate()).encode())
        finally:
            os._exit(0)
    os.close(wr)
    mine = calibrate()
    with os.fdopen(rd) as fh:
        other = float(fh.read())
    os.waitpid(pid, 0)
    return (mine + other) / 2.0


class Calibration:
    """Calibration slices run from a SIGALRM handler, which Python calls in
    the main thread between bytecodes, so they share the work's CPU."""

    def __init__(self):
        self.slices = []

    def _tick(self, signum, frame):
        self.slices.append(calibrate(CAL_SLICE))

    def start(self):
        self.slices.append(calibrate(CAL_SLICE))
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.slices.append(calibrate(CAL_SLICE))

    @property
    def seconds(self):
        return sum(self.slices)


def run_cli(argv):
    """Run one CLI command; return (seconds, captured stdout, error or None)."""
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = ppasim.cli.main(argv)
        if rc:
            error = {"type": "ExitCode", "message": f"main returned {rc}"}
    except Exception as exc:  # the op failed; the parent records why
        error = {"type": type(exc).__name__, "message": str(exc)}
    return time.perf_counter() - start, buf.getvalue(), error


def _read_row(path):
    with open(path) as fh:
        header, row = fh.read().splitlines()[:2]
    out = {}
    for key, val in zip(header.split(","), row.split(",")):
        try:
            out[key] = float(val)
        except ValueError:
            out[key] = val
    return out


def run_fig4(job, cal=None):
    """Run every point of a fig4 job; failures are kept with their inputs.

    The point-runs' latencies leave out the slices of ``cal`` run during them.
    """
    rows, failures, op_s = [], [], []
    start = time.perf_counter()
    for theta, t, seed in job["points"]:
        spec = ppasim.cli.SweepSpec(
            theta_list=(theta,),
            t_list=(t,),
            visibility=job["visibility"],
            shots_per_basis=job["shots"],
            seed=seed,
            output_path=job["out"],
        )
        t0 = time.perf_counter()
        paused = cal.seconds if cal else 0.0
        try:
            ppasim.cli.cmd_fig4(spec)
        except Exception as exc:  # a failed op, recorded for replay
            failures.append(
                {
                    "theta": theta,
                    "t": t,
                    "seed": seed,
                    "type": type(exc).__name__,
                    "message": str(exc),
                }
            )
            rows.append(None)
            continue
        op_s.append(time.perf_counter() - t0 - ((cal.seconds - paused) if cal else 0.0))
        rows.append(_read_row(job["out"]))
    return {
        "seconds": time.perf_counter() - start,
        "rows": rows,
        "failures": failures,
        "op_s": op_s,
    }


def run_job(job, cal=None):
    if job["kind"] == "fig4":
        return run_fig4(job, cal)
    seconds, stdout, error = run_cli(job["argv"])
    return {"seconds": seconds, "stdout": stdout, "error": error}


def run_traced(job):
    """Warm-up pass, optional pool pass, untraced pass, then the traced pass.

    The untraced pass runs warm, like the traced one, so their ratio is the
    tracing overhead; it is also the one-worker time for the pool speed-up.
    The traced pass runs last, so the output file left behind is its own.
    """
    from tracer import Tracer

    run_job(job)
    out = {}
    if job.get("pool_argv"):
        seconds, _, error = run_cli(job["pool_argv"])
        out["pool"] = {"workers2_s": seconds, "error": error}
    out["untraced"] = run_job(job)
    tracer = Tracer()
    tracer.install()
    try:
        out["traced"] = run_job(job)
    finally:
        tracer.uninstall()
    out["layers"] = tracer.table()
    return out


def main():
    job_path, result_path = sys.argv[1:3]
    with open(job_path) as fh:
        job = json.load(fh)
    if job["trace"]:
        t_work = time.monotonic()
        result = run_traced(job)
        t_done = time.monotonic()
    elif job["calibrate"] == "interleaved":
        cal = Calibration()
        t_work = time.monotonic()
        cal.start()
        try:
            result = run_job(job, cal)
        finally:
            cal.stop()
        t_done = time.monotonic()
        result.update(cal_s=cal.slices, cal_units=CAL_SLICE * len(cal.slices),
                      work_cal_s=cal.seconds)
    else:
        cal_before = calibrate_pair()
        t_work = time.monotonic()
        result = run_job(job)
        t_done = time.monotonic()
        result.update(cal_s=[cal_before, calibrate_pair()], cal_units=2.0, work_cal_s=0.0)
    result.update(
        t_import=T_IMPORT,
        t_work=t_work,
        t_done=t_done,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        ppasim_file=ppasim.cli.__file__,
        python=platform.python_version(),
        numpy=numpy.__version__,
    )
    with open(result_path, "w") as fh:
        json.dump(result, fh, allow_nan=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
