import importlib
import pkgutil

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
