"""The package's public names: every ``__all__`` entry exists, and every
name the package re-exports is public in the module it comes from.

Tools that look names up through ``__all__`` (for instance a tracer that
wraps every public function) would silently skip a stale entry.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import cesarops

#: the library modules; ``cli`` is the command-line front end
MODULES = sorted(info.name for info in pkgutil.iter_modules(cesarops.__path__)
                 if info.name != "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    module = importlib.import_module("cesarops." + name)
    missing = [entry for entry in module.__all__
               if not hasattr(module, entry)]
    assert missing == []


def test_package_reexports_only_public_names():
    tree = ast.parse(pathlib.Path(cesarops.__file__).read_text("utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} \
        == {"cesarops." + name for name in MODULES}
    for node in imports:
        module = importlib.import_module(node.module)
        private = [alias.name for alias in node.names
                   if alias.name not in module.__all__]
        assert private == [], node.module
