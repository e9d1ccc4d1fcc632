"""The package runs on the standard library alone.

Every module of src/omegadet is parsed, not imported, so an import that
only runs on some code path is caught as well.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "omegadet"


def _imported_top_levels(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no modules under {SRC}"
    foreign = sorted(
        f"{path.name}: {module}"
        for path in files
        for module in _imported_top_levels(path)
        if module != "omegadet" and module not in sys.stdlib_module_names
    )
    assert not foreign
