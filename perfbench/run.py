#!/usr/bin/env python3
"""Benchmark of the ppasim command-line tool.

Usage, from the root of a checkout (no install needed; ``src`` is put on
``PYTHONPATH`` of every process started):

    python3 perfbench/run.py --workload sweep-deep --seed 1 --seconds 30 --trace 0

ppasim is a batch tool, so one repetition is one run to completion in a fresh
interpreter.  With ``--trace 0`` a run repeats the workload's job, with the
same inputs made from ``--seed``, checks every repetition's output, and prints
the end-to-end metrics named in BENCHMARK.json as medians over the
repetitions.

With ``--trace 1`` it runs the traced job of every workload, at the smaller
trace sizes, under an in-memory tracer of the public ppasim functions, in
rounds, and prints the per-layer metrics.  Each per-layer metric is named
after the workload it is measured on, so the traced run is the same whichever
``--workload`` is given.

The number of repetitions (or rounds) follows from ``--seconds`` and the
nominal time of one repetition on the reference machine, never from a clock,
so ``attempted`` and ``failed`` repeat exactly for a given seed and
``--seconds``.

Other lines of standard output show further figures (failure share, fig4
op latency percentiles, raw times); the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (environment, inputs, every repetition, every failed op with the
command that replays it, the layer tables) is written to ``.perfbench_out/``.

The exit code is 0 when every output check passed, 1 when one failed and 2
when the checkout holds no ppasim sources.  An op that raises is a failed op
(counted in ``failed``) but not a failed check; a wrong output is both.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 150
# The speed of the shared virtual CPUs this benchmark was built on drifts by
# tens of percent over seconds to minutes.  So each repetition times a fixed
# calibration kernel of the same kind of work as ppasim (child.calibrate)
# around or between its work, and end-to-end times are reported at the
# reference speed, at which the whole kernel takes CAL_REF_S seconds.  Raw
# times stay in the record.
CAL_REF_S = 0.1

DEFAULT_THETA = (0.02, 0.04, 0.1, 0.2, 0.5, 1.0, 1.5)
DEFAULT_T = (0.044, 0.082, 0.15, 0.3, 0.5, 1.0)
# Nominal seconds of one repetition (launch, calibration and work) of each
# workload's untraced job, and of one round of every traced job, on a 2-vCPU
# x86-64 VM at the reference speed.  A run makes seconds / nominal of them,
# at least three repetitions or one round.
REP_S = {"sweep-deep": 2.2, "sweep-wide": 1.9, "verify": 2.1, "fig4": 2.0}
ROUND_S = 7.5
# The CSV files carry 12 significant digits, so closed forms are compared at
# the resolution of that format.
CSV_RTOL = 1e-11
# cfi_qfi_suite and the family part of sylvester_suite each walk the 7x6
# acceptance grid at two visibilities.
VERIFY_GRID_INSTANCES = 2 * len(DEFAULT_THETA) * len(DEFAULT_T)
# Figures printed besides the metrics of BENCHMARK.json.
EXTRA_UNITS = {
    "failed_ratio": "1",
    "reps": "count",
    "raw_setup_s": "s",
    "raw_wall_s": "s",
    "raw_ops_per_s": "ops/s",
    "speed_factor": "1",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "op_samples": "count",
}


def _linspace(a: float, b: float, n: int) -> tuple[float, ...]:
    return tuple(float(f"{a + (b - a) * k / (n - 1):.6g}") for k in range(n))


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


# --------------------------------------------------------------------------
# Workloads: each builds its inputs from a seeded generator.


def sweep_inputs(name: str, rng: random.Random, size: str) -> dict:
    tiny = size == "tiny"
    if name == "sweep-deep":
        theta, t = (DEFAULT_THETA[:2], DEFAULT_T[:2]) if tiny else (DEFAULT_THETA, DEFAULT_T)
        trials, workers = {"full": 700, "trace": 100, "tiny": 8}[size], 1
        extra = ["--budget", "1000000", "--sampling-mode", "fixed"]
    else:
        n = {"full": 28, "trace": 14, "tiny": 3}[size]
        theta, t = _linspace(0.02, 1.5, n), _linspace(0.05, 1.0, n)
        trials, workers = (4 if tiny else 32), 2
        extra = [
            "--sampling-mode", "poisson", "--delta-t", "-0.01",
            "--epsilon", "0.01", "--visibility", "0.95",
        ]
    seed = rng.randrange(2**32)
    argv = [
        "sweep", "--theta", _csv(theta), "--t", _csv(t), "--trials", str(trials),
        *extra, "--seed", str(seed),
    ]
    points = len(theta) * len(t)
    return {
        "argv": argv,
        "workers": workers,
        "theta": theta,
        "t": t,
        "trials": trials,
        "seed": seed,
        # sweep-deep counts trials, sweep-wide grid points
        "ops": points * trials if name == "sweep-deep" else points,
        "ops_per_row": trials if name == "sweep-deep" else 1,
    }


def verify_inputs(rng: random.Random, size: str) -> dict:
    n = {"full": 1000, "trace": 200, "tiny": 5}[size]
    seed = rng.randrange(2**32)
    # run_all's suite sizes for --n: qubit n, qudit n/5, marginalization n/5,
    # the grid suite, and n/10 random states on top of the grid for Sylvester.
    suite_n = {
        "gap-equality": n + max(n // 5, 1),
        "marginalization": max(n // 5, 1),
        "cfi-equals-qfi": VERIFY_GRID_INSTANCES,
        "sylvester-residual": max(n // 10, 1) + VERIFY_GRID_INSTANCES,
    }
    return {
        "argv": ["verify", "--n", str(n), "--seed", str(seed)],
        "seed": seed,
        "suite_n": suite_n,
        "ops": sum(suite_n.values()),
    }


def fig4_inputs(rng: random.Random, size: str) -> dict:
    tiny = size == "tiny"
    theta, t = ((0.2, 1.5), (0.044, 0.5)) if tiny else (DEFAULT_THETA, DEFAULT_T)
    seeds = {"full": 4, "trace": 2, "tiny": 1}[size]
    # The point-runs' seeds come from one fixed stream and the workload seed
    # only orders them.  Each point-run is independent, so every workload
    # seed runs the same work and meets the same raising points: the
    # failure count of the known crash is a property of the program, not of
    # the seed, and runs with different seeds compare like with like.
    fixed = random.Random(f"fig4-points:{size}")
    points = [
        [th, tt, fixed.randrange(2**32)] for _ in range(seeds) for th in theta for tt in t
    ]
    rng.shuffle(points)
    return {
        "points": points,
        "visibility": 0.98,
        "shots": 10**4 if tiny else 10**5,
        "ops": len(points),
    }


WORKLOADS = ("sweep-deep", "sweep-wide", "verify", "fig4")


def make_inputs(name: str, seed: int, size: str) -> dict:
    """Inputs of one workload at size ``full``, ``trace`` or ``tiny``."""
    rng = random.Random(f"{name}:{seed}")
    if name.startswith("sweep"):
        return sweep_inputs(name, rng, size)
    if name == "verify":
        return verify_inputs(rng, size)
    return fig4_inputs(rng, size)


def make_job(name: str, inputs: dict, trace: bool, work: Path) -> dict:
    # Calibration slices interleave with single-process work; within a pool's
    # work they would take a CPU from a worker, so the kernel runs before and
    # after it, on two CPUs.
    calibrate = "around" if inputs.get("workers", 1) > 1 else "interleaved"
    job = {"trace": trace, "out": str(work / "out.csv"), "calibrate": calibrate}
    if name == "fig4":
        return dict(job, kind="fig4", **{k: inputs[k] for k in ("points", "visibility", "shots")})
    if name == "verify":
        return dict(job, kind="cli", argv=inputs["argv"])
    # The traced pass runs in one process: spans of pool workers are not
    # collected, so it uses one worker and times the pool separately.
    workers = 1 if trace else inputs["workers"]
    job.update(kind="cli", argv=inputs["argv"] + ["--workers", str(workers), "--out", job["out"]])
    if trace:
        job["pool_out"] = str(work / "pool.csv")
        job["pool_argv"] = inputs["argv"] + ["--workers", "2", "--out", job["pool_out"]]
    return job


# --------------------------------------------------------------------------
# Output checks.  Each returns (failed ops, failed checks, failure records).


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CSV_RTOL * abs(b)


def _p_pure(theta: float, t: float) -> float:
    c = math.cos(theta / 2.0) ** 2
    return t * t * c + (1.0 - c)


def replay(argv: list[str]) -> str:
    """The command that repeats a failed op on its own."""
    return "PYTHONPATH=src python3 -m ppasim " + " ".join(argv)


def check_sweep(inputs: dict, job: dict, res: dict) -> tuple[int, list, list]:
    if res["error"]:
        fail = dict(res["error"], seed=inputs["seed"], replay=replay(job["argv"]))
        return inputs["ops"], [f"sweep raised {res['error']['type']}"], [fail]
    lines = Path(job["out"]).read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    grid = [(th, t) for th in inputs["theta"] for t in inputs["t"]]
    if len(rows) != len(grid):
        return inputs["ops"], [f"{len(rows)} sweep rows for {len(grid)} grid points"], []
    failed, problems, failures = 0, [], []
    band = 6.0 * math.sqrt(2.0 / (inputs["trials"] - 1))
    for (theta, t), row in zip(grid, rows):
        where = f"theta={theta} t={t} seed={inputs['seed']}"
        bad = []
        if float(row["theta_true"]) != theta or float(row["t_mag"]) != t:
            bad.append(f"row order: got ({row['theta_true']}, {row['t_mag']})")
        if not _close(float(row["qfi_theory"]), (t / _p_pure(theta, t)) ** 2):
            bad.append(f"qfi_theory {row['qfi_theory']} off the closed form")
        estimate_ok = math.isfinite(float(row["mean_estimate"]))
        if not estimate_ok and not row["flags"]:
            bad.append("no finite estimate and no flag")
        if inputs["ops_per_row"] > 1 and estimate_ok:
            ratio = float(row["precision_per_photon"]) / float(row["qfi_theory"])
            if not abs(ratio - 1.0) <= band:
                bad.append(f"precision/qfi {ratio:.4f} outside 1 +- {band:.3f}")
        if bad or not estimate_ok:
            failed += inputs["ops_per_row"]
        if not estimate_ok:
            failures.append({
                "theta": theta, "t": t, "seed": inputs["seed"], "type": "flagged",
                "message": row["flags"], "replay": replay(job["argv"]),
            })
        problems += [f"{where}: {b}" for b in bad]
    return failed, problems, failures


def check_verify(inputs: dict, job: dict, res: dict) -> tuple[int, list, list]:
    if res["error"] and res["error"]["type"] != "ExitCode":
        fail = dict(res["error"], seed=inputs["seed"], replay=replay(job["argv"]))
        return inputs["ops"], [f"verify raised {res['error']['type']}"], [fail]
    seen = {}
    for line in res["stdout"].splitlines():
        name, _, rest = line.partition("] ")
        fields = rest.split()
        seen[name.lstrip("[")] = (int(fields[0].removeprefix("n=")), fields[-1])
    failed, problems = 0, []
    for suite, n in inputs["suite_n"].items():
        got = seen.get(suite)
        if got != (n, "PASS"):
            failed += n
            problems.append(f"suite {suite}: expected n={n} PASS, got {got}")
    return failed, problems, []


def check_fig4(inputs: dict, job: dict, res: dict) -> tuple[int, list, list]:
    failed, problems = len(res["failures"]), []
    v = inputs["visibility"]

    def fig4_failure(theta, t, seed, kind, message):
        argv = ["fig4", "--theta", repr(theta), "--t", repr(t), "--seed", str(seed),
                "--visibility", repr(v), "--shots", str(inputs["shots"])]
        return {"theta": theta, "t": t, "seed": seed, "type": kind, "message": message,
                "replay": replay(argv)}

    failures = [fig4_failure(f["theta"], f["t"], f["seed"], f["type"], f["message"])
                for f in res["failures"]]
    empirical = [
        "qfi_family", "qfi_empirical", "qfi_empirical_stderr", "gap4_family",
        "gap4_empirical", "gap4_empirical_stderr", "qfi_empirical_per_input",
        "gap4_empirical_per_input",
    ]
    for (theta, t, seed), row in zip(inputs["points"], res["rows"]):
        if row is None:
            continue
        where = f"theta={theta} t={t} seed={seed}"
        bad = []
        p_ps = v * _p_pure(theta, t) + (1.0 - v) * (1.0 + t * t) / 2.0
        if row["theta_true"] != theta or row["t_mag"] != t:
            bad.append(f"row is for ({row['theta_true']}, {row['t_mag']})")
        if not _close(row["p_ps"], p_ps):
            bad.append(f"p_ps {row['p_ps']} off the closed form {p_ps}")
        if not _close(row["qfi_theory"], (t / _p_pure(theta, t)) ** 2):
            bad.append(f"qfi_theory {row['qfi_theory']} off the closed form")
        nonfinite = [k for k in empirical if not math.isfinite(float(row[k]))]
        if nonfinite and row.get("flags"):
            # A point the program flags instead of raising is a failed op too.
            failures.append(fig4_failure(theta, t, seed, "flagged", row["flags"]))
        elif nonfinite:
            bad.append(f"non-finite {nonfinite} without a flag")
        failed += bool(bad or nonfinite)
        problems += [f"{where}: {b}" for b in bad]
    return failed, problems, failures


def check(name: str, inputs: dict, job: dict, res: dict) -> tuple[int, list, list]:
    if name == "fig4":
        return check_fig4(inputs, job, res)
    if name == "verify":
        return check_verify(inputs, job, res)
    return check_sweep(inputs, job, res)


# --------------------------------------------------------------------------
# Running repetitions.


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # An installed ppasim imports from cached bytecode, which warm_up writes.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def launch(job: dict, work: Path) -> dict:
    """Run one repetition in a fresh interpreter and return its timings."""
    job_path, res_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps(job))
    res_path.unlink(missing_ok=True)
    t_launch = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(job_path), str(res_path)],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    t_exit = time.monotonic()
    if proc.returncode != 0 or not res_path.exists():
        raise RuntimeError(f"benchmark child exited {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(res_path.read_text())
    if not Path(res["ppasim_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported ppasim from {res['ppasim_file']}, not from {SRC}")
    # The calibration kernel's time is not the program's.
    res["wall_s"] = t_exit - t_launch - sum(res.get("cal_s", ()))
    res["setup_s"] = res["t_import"] - t_launch
    res["work_s"] = res["t_done"] - res["t_work"] - res.get("work_cal_s", 0.0)
    if "cal_s" in res:
        res["speed"] = CAL_REF_S * res["cal_units"] / sum(res["cal_s"])
    return res


def run_once(name: str, inputs: dict, job: dict, work: Path) -> dict:
    """One repetition: launch the job, then check its output."""
    rep = launch(job, work)
    res = rep["traced"] if job["trace"] else rep
    rep["failed_ops"], rep["problems"], rep["failures"] = check(name, inputs, job, res)
    if "pool" in rep:
        same = Path(job["pool_out"]).read_bytes() == Path(job["out"]).read_bytes()
        if rep["pool"]["error"] or not same:
            rep["failed_ops"] = inputs["ops"]
            rep["problems"].append("workers 1 and workers 2 outputs differ")
    return rep


def warm_up() -> None:
    """Compile the bytecode once, so no timed start-up pays for it."""
    subprocess.run(
        [sys.executable, "-c", "import ppasim.cli"], cwd=ROOT, env=child_env(),
        check=True, timeout=CHILD_TIMEOUT_S,
    )


def run_reps(name: str, inputs: dict, work: Path, seconds: float) -> list[dict]:
    """Repeat the untraced job as often as fits ``seconds`` at the nominal speed."""
    job = make_job(name, inputs, False, work)
    warm_up()
    count = max(3, int(seconds / REP_S[name]))
    return [run_once(name, inputs, job, work) for _ in range(count)]


def run_rounds(inputs: dict, work: Path, seconds: float) -> dict[str, list[dict]]:
    """Run the traced job of every workload, in as many rounds as fit ``seconds``."""
    jobs = {}
    for name in WORKLOADS:
        (work / name).mkdir()
        jobs[name] = make_job(name, inputs[name], True, work / name)
    warm_up()
    reps = {name: [] for name in WORKLOADS}
    for _ in range(max(1, int(seconds / ROUND_S))):
        for name, job in jobs.items():
            reps[name].append(run_once(name, inputs[name], job, work / name))
    return reps


# --------------------------------------------------------------------------
# Metrics.


def e2e_metrics(inputs: dict, reps: list[dict], scaled: bool = True) -> dict:
    """Medians over repetitions; times at the reference speed unless ``scaled`` is off."""
    speed = [r["speed"] if scaled else 1.0 for r in reps]
    ok_ops = [inputs["ops"] - r["failed_ops"] for r in reps]
    return {
        "setup_s": statistics.median(r["setup_s"] * s for r, s in zip(reps, speed)),
        "wall_s": statistics.median(r["wall_s"] * s for r, s in zip(reps, speed)),
        "ops_per_s": statistics.median(
            n / (r["work_s"] * s) for n, r, s in zip(ok_ops, reps, speed)
        ),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0 for r in reps),
    }


def layer_value(metric: str, inputs: dict, rep: dict) -> float:
    """Value of one per-layer metric (without its workload prefix) from one traced rep."""
    table = rep["layers"]
    if metric == "trace.overhead_ratio":
        return rep["traced"]["seconds"] / rep["untraced"]["seconds"]
    if metric.startswith("cli.pool."):
        w1, w2 = rep["untraced"]["seconds"], rep["pool"]["workers2_s"]
        return w1 / w2 if metric == "cli.pool.speedup" else w2 - w1 / 2.0
    base, _, stat = metric.rpartition(".")
    # A function or a whole module: every traced function defined in it.  A
    # function the program no longer has reads as never called.
    rows = [row for key, row in table.items() if key == base or key.startswith(base + ".")]
    calls = sum(r["calls"] for r in rows)
    total = sum(r["total_s"] for r in rows)
    per_call = total / calls if calls else 0.0
    if stat == "calls":
        return calls
    if stat == "raised":
        return sum(r["raised"] for r in rows)
    if stat == "s":
        return total
    if stat == "self_ms":
        return 1e3 * sum(r["self_s"] for r in rows)
    if stat == "us_per_call":
        return 1e6 * per_call
    if stat == "ms_per_call":
        return 1e3 * per_call
    if stat == "us_per_trial":
        return 1e6 * per_call / inputs["trials"]
    raise KeyError(f"unknown per-layer statistic in {metric}")


def layer_metrics(names: list[str], inputs: dict, reps: dict[str, list[dict]]) -> dict:
    """Per-layer metrics named ``<workload>.<metric>``: counts from the first
    round (they repeat exactly), times as medians over the rounds."""
    out = {}
    for metric in names:
        workload, rest = metric.split(".", 1)
        values = [layer_value(rest, inputs[workload], r) for r in reps[workload]]
        out[metric] = values[0] if isinstance(values[0], int) else statistics.median(values)
    return out


# --------------------------------------------------------------------------


def environment(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "ppasim").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_lines": src_lines,
        "seed": seed,
    }


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def rep_summary(r: dict) -> dict:
    return {k: r.get(k) for k in ("wall_s", "setup_s", "work_s", "speed", "maxrss_kb", "failed_ops")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    if not (SRC / "ppasim" / "__init__.py").is_file():
        print(f"no ppasim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    name = args.workload
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"tmp-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            size = "tiny" if args.tiny else "trace"
            inputs = {w: make_inputs(w, args.seed, size) for w in WORKLOADS}
            by_workload = run_rounds(inputs, work, args.seconds)
            reps = [r for w in WORKLOADS for r in by_workload[w]]
            ops = sum(inputs[w]["ops"] * len(by_workload[w]) for w in WORKLOADS)
        else:
            inputs = make_inputs(name, args.seed, "tiny" if args.tiny else "full")
            reps = run_reps(name, inputs, work, args.seconds)
            ops = inputs["ops"] * len(reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for r in reps for p in r["problems"]]
    failed = sum(r["failed_ops"] for r in reps)
    failures = list({json.dumps(f, sort_keys=True): f for r in reps for f in r["failures"]}.values())
    extra = {"failed_ratio": failed / ops, "reps": len(reps)}
    record = {
        "workload": name,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": dict(environment(args.seed), numpy=reps[0]["numpy"]),
        "inputs": inputs,
    }
    if args.trace:
        for w, wreps in by_workload.items():
            counts = [{k: (v["calls"], v["raised"]) for k, v in r["layers"].items()} for r in wreps]
            if any(c != counts[0] for c in counts):
                problems.append(f"{w}: per-function call counts differ between rounds")
        metrics = layer_metrics([m["name"] for m in spec["per_layer"]], inputs, by_workload)
        record["layers"] = {w: wreps[0]["layers"] for w, wreps in by_workload.items()}
        record["reps"] = {w: [rep_summary(r) for r in wreps] for w, wreps in by_workload.items()}
    else:
        metrics = e2e_metrics(inputs, reps)
        raw = e2e_metrics(inputs, reps, scaled=False)
        extra.update({f"raw_{k}": raw[k] for k in ("setup_s", "wall_s", "ops_per_s")})
        extra["speed_factor"] = statistics.median(r["speed"] for r in reps)
        op_ms = [1e3 * s * r["speed"] for r in reps for s in r.get("op_s", ())]
        if op_ms:
            extra.update(op_p50_ms=statistics.median(op_ms), op_p95_ms=percentile(op_ms, 95),
                         op_samples=len(op_ms))
        record["reps"] = [rep_summary(r) for r in reps]
    record.update(metrics=metrics, extra=extra, problems=problems, failures=failures)
    record_path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for key, value in metrics.items():
        print(f"{key:52s} {value:>14.6g} {units[key]}")
    for key, value in extra.items():
        print(f"{key:52s} {value:>14.6g} {EXTRA_UNITS[key]}")
    for failure in failures:
        print(f"failed op: {json.dumps(failure)}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
