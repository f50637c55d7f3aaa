"""Every name a module of ``src/altsep`` imports is read in that module,
and every name a module exports in ``__all__`` is defined there.

``__init__.py`` is skipped by the first check: it imports names to export
them.
"""

import ast
import importlib
import types
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "altsep"

# (module, name) bindings kept although the module never reads them.
KEPT = {
    # perfbench/test_perfbench.py:158-165 checks that the tracer patches
    # and restores these bindings
    ("cli", "components"),
    ("kurosh", "components"),
    ("subgroups", "components"),
}


def unused_imports(source: str):
    """Names that the module's import statements bind and that no
    expression of the module reads, in order of first import."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in dict.fromkeys(bound) if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    unused = {(path.stem, name) for path in modules
              for name in unused_imports(path.read_text())}
    assert unused == KEPT


def test_unused_import_check_catches_a_leftover():
    source = (SOURCE / "subgroups.py").read_text()
    assert unused_imports(source) == ["components"]  # kept, see KEPT
    leftover = source.replace("from .words import flat_form",
                              "from .words import flat_form, x_alphabet")
    assert leftover != source and unused_imports(leftover) == ["components", "x_alphabet"]
    assert unused_imports("import os.path as p\nimport sys\nsys.exit()\n") == ["p"]



def undefined_exports(module):
    """Names of the module's ``__all__`` that the module does not define."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_every_exported_name_is_defined():
    """``from altsep.<module> import *`` finds every name of ``__all__``;
    ``altsep`` itself loads its command line names on first use."""
    undefined = {}
    for path in sorted(SOURCE.glob("*.py")):
        module = importlib.import_module(
            "altsep" if path.stem == "__init__" else f"altsep.{path.stem}")
        if hasattr(module, "__all__"):
            undefined[path.stem] = undefined_exports(module)
    assert {"__init__", "factors", "kurosh"} <= set(undefined)
    assert all(names == [] for names in undefined.values()), undefined


def test_export_check_catches_a_leftover():
    module = types.ModuleType("leftover")
    module.kept = None
    module.__all__ = ["kept", "removed"]
    assert undefined_exports(module) == ["removed"]
