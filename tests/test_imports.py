"""Every module-level import of the library modules is used, and the CLI
loads no heavy standard module it does not need.

A deleted function can leave the names it alone imported behind; this scan
finds them with the standard `ast` module.  The package's `__init__.py`
imports names to re-export them, so it is not scanned, and an import line
marked `# noqa: F401` is kept on purpose.
"""

import ast
from pathlib import Path

import pytest

from conftest import run_python
import orthogeo

MODULES = sorted(
    p for p in Path(orthogeo.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(path):
    """Names bound by the module-level imports of a source file that no
    name in the file reads, skipping lines marked `# noqa: F401`."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(name)
    return unused


def test_the_scan_covers_the_library_modules():
    assert {"engine.py", "frames.py", "poset.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path) == []


def test_the_scan_flags_an_unused_import_and_honours_noqa(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from fractions import Fraction\n"
        "import math  # noqa: F401  (kept for callers)\n"
        "from .poset import (\n"
        "    classify,\n"
        "    omega,\n"
        ")\n"
        "import os.path\n"
        "\n"
        "def f(x):\n"
        "    return Fraction(x) + os.path.sep.count(omega(x))\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["classify"]


def test_cli_import_loads_no_logging_dataclasses_or_inspect():
    # -S keeps site (and whatever it imports) out of the child, so only
    # orthogeo and the standard modules it pulls in are loaded
    code = "import sys, orthogeo.cli; print(sorted({'logging', 'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = run_python(["-S", "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
