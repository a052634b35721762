import importlib
import pkgutil
import re
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
