"""Every third-party module the package imports is a declared dependency.

Parses each module under ``src/repro`` and collects the top-level
package of every absolute import — module level and function local —
then checks the third-party ones against ``[project].dependencies`` in
``pyproject.toml``.  Imports guarded by ``try``/``except ImportError``
are optional and exempt.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def _catches_import_error(node: ast.Try) -> bool:
    for handler in node.handlers:
        names = handler.type.elts if isinstance(handler.type, ast.Tuple) \
            else [handler.type]
        if any(isinstance(name, ast.Name)
               and name.id in ("ImportError", "ModuleNotFoundError")
               for name in names):
            return True
    return False


def _required_imports(node: ast.AST) -> Iterator[str]:
    """Top-level package names of the non-optional absolute imports."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name.split(".")[0]
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0 and node.module:
            yield node.module.split(".")[0]
    for field, value in ast.iter_fields(node):
        if isinstance(node, ast.Try) and field == "body" \
                and _catches_import_error(node):
            continue
        children = value if isinstance(value, list) else [value]
        for child in children:
            if isinstance(child, ast.AST):
                yield from _required_imports(child)


def _third_party_imports() -> Dict[str, List[str]]:
    """Third-party package -> the modules importing it."""
    found: Dict[str, List[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in set(_required_imports(tree)):
            if name == "repro" or name in sys.stdlib_module_names:
                continue
            found.setdefault(name, []).append(
                str(path.relative_to(PACKAGE.parent)))
    return found


def _declared_dependencies() -> Set[str]:
    """Distribution names in ``[project].dependencies`` (no tomllib on 3.10)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project,
                      re.MULTILINE | re.DOTALL)
    assert block is not None, "pyproject.toml declares no dependencies"
    requirements = re.findall(r"\"([^\"]+)\"", block.group(1))
    return {re.split(r"[\s<>=!~;\[]", requirement, 1)[0].lower()
            for requirement in requirements}


def test_third_party_imports_are_declared():
    declared = _declared_dependencies()
    undeclared = {name: modules
                  for name, modules in _third_party_imports().items()
                  if name.lower() not in declared}
    assert undeclared == {}, (
        f"imported but not in pyproject.toml dependencies: {undeclared}")


def test_scan_sees_the_numeric_stack():
    # Guards the scan itself: the package's known third-party imports
    # must be found, or the check above would pass vacuously.
    found = _third_party_imports()
    assert {"numpy", "scipy"} <= set(found)
    assert "repro/gp/gp.py" in found["scipy"]
