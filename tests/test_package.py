import importlib
import json
import math
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ppasim
from ppasim import cli, verify

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(ppasim.__path__) if name != "__main__"
)
ROOT = Path(__file__).parent.parent


def test_package_top_level_holds_only_the_version():
    public = {name for name in vars(ppasim) if not name.startswith("_")}
    assert public <= set(MODULES)  # submodules bind here once imported
    assert isinstance(ppasim.__version__, str)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_lists_only_names_it_defines(module):
    mod = importlib.import_module(f"ppasim.{module}")
    names = mod.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(mod, name)] == []


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # every ```python block of README.md, joined in order into one script
    # as CI's "README Quickstart runs" step pipes them to python, run in an
    # empty directory
    readme = ROOT / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    exec(compile("".join(blocks), str(readme), "exec"), {"__name__": "__main__"})


def test_readme_ledger_cites_only_checks_that_exist():
    # the README's table of the abstract's claims names each check by test id,
    # `[suite]` verify line or CSV column: each must resolve, so the table
    # cannot cite a deleted or renamed check
    text = (ROOT / "README.md").read_text()
    ledger = text.split("\n## The abstract, claim by claim\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (\d) \|", ledger, re.M)
    assert rows == [str(k) for k in range(1, 8)]
    tests = re.findall(r"`tests/(\w+)\.py::(\w+)`", ledger)
    suites = re.findall(r"`\[([\w-]+)\]`", ledger)
    columns = re.findall(r"(sweep|fig4) column `(\w+)`", ledger)
    assert tests and suites and columns
    for module, name in tests:
        assert callable(getattr(importlib.import_module(module), name, None)), name
    assert set(suites) <= {r.name for r in verify.run_all(0, 1)}
    known = {"sweep": cli.SWEEP_CSV_COLUMNS, "fig4": cli.FIG4_CSV_COLUMNS}
    assert [col for cmd, col in columns if col not in known[cmd]] == []


def run_benchmark(cwd, workload, *flags):
    """``perfbench/run.py`` at the smoke test's tiny size in ``cwd``, as CI's
    "Benchmark smoke test" step (perfbench/test_smoke.py) runs it."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--tiny", *flags],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def assert_benchmark_smoke_run_is_correct(workload):
    """The untraced run of ``workload`` in CI's "Benchmark smoke test" step:
    it exits 0 and its output checks hold."""
    proc = run_benchmark(ROOT, workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def test_benchmark_verify_smoke_run_is_correct():
    # its checks fail the run unless every suite prints its n and PASS
    assert_benchmark_smoke_run_is_correct("verify")


@pytest.mark.parametrize("workload", ["sweep-deep", "sweep-wide", "fig4"])
def test_benchmark_smoke_run_is_correct(workload):
    # its checks fail the run on a row out of grid order, a qfi_theory (and
    # for fig4 a p_ps) off its closed form, or a non-finite value with no flag
    assert_benchmark_smoke_run_is_correct(workload)


def test_benchmark_traced_smoke_run_reports_every_per_layer_metric():
    # the smoke test's traced runs: one traced run measures every workload's
    # per-layer metrics, whichever --workload it is given
    proc = run_benchmark(ROOT, "verify", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["per_layer"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_benchmark_fails_without_the_program(tmp_path):
    # the smoke test's run from a checkout that holds the benchmark but no
    # ppasim sources: it must fail, and report no metrics
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "sweep-deep")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
