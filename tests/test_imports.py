"""meandyn has no runtime dependencies: every module of the package
imports only the standard library and, relatively, its own modules."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "meandyn"
MODULES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(path):
    """The top-level names of the absolute imports in one file; a
    relative import must stay inside the package."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_the_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    foreign = [name for name in absolute_imports(path)
               if name not in sys.stdlib_module_names]
    assert foreign == []
