import importlib
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ppasim

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(ppasim.__path__) if name != "__main__"
)


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
    readme = Path(__file__).parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    exec(compile("".join(blocks), str(readme), "exec"), {"__name__": "__main__"})


def assert_benchmark_smoke_run_is_correct(workload):
    """The untraced run of ``workload`` in CI's "Benchmark smoke test" step
    (perfbench/test_smoke.py): it exits 0 and its output checks hold."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--tiny"],
        cwd=Path(__file__).parent.parent, capture_output=True, text=True, timeout=120,
    )
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
