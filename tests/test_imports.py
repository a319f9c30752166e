"""Import guard: the modules of the circuit path load no numpy at import."""

import ast
from pathlib import Path

import pytest

import shadowsim

PACKAGE = Path(shadowsim.__file__).parent


def _import_time_imports(tree: ast.Module):
    """The modules named by import statements that run when the module is
    imported: every one outside a function body (class bodies run too)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", ["streams", "circuit", "hilbert", "angles", "outcomes"])
def test_circuit_path_modules_import_no_numpy(module):
    """streams' column route imports numpy inside the function that runs it,
    so that route adds no numpy import to these modules' start-up."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert not [name for name in _import_time_imports(tree)
                if name == "numpy" or name.startswith("numpy.")]


def test_the_guard_sees_a_module_level_import():
    tree = ast.parse("import math\nif True:\n    import numpy as np\n"
                     "def f():\n    import numpy\n")
    assert sorted(_import_time_imports(tree)) == ["math", "numpy"]
