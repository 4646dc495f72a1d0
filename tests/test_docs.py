"""The demos and the README's Library snippet import only names that exist.

No test runs the demos, so a removed or renamed export would otherwise
break them silently.  Each source is parsed, not executed.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


SOURCES = [(p.name, p.read_text(encoding="utf-8")) for p in DEMOS] + [
    (f"README.md python block {i}", block) for i, block in enumerate(_readme_blocks())
]


def _imported_names(source):
    """(module, name) for every import from hapticauth; name None for
    `import hapticauth[.module]`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            if node.module.split(".")[0] == "hapticauth":
                yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "hapticauth")


def _exists(module_name, name):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    if name is None or hasattr(module, name):
        return True
    try:  # `from hapticauth import autodiff` names a submodule
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def test_sources_found():
    assert len(DEMOS) >= 5
    assert len(SOURCES) > len(DEMOS), "README has no python block"


@pytest.mark.parametrize("label,source", SOURCES, ids=[label for label, _ in SOURCES])
def test_imports_exist(label, source):
    imported = list(_imported_names(source))
    assert imported, f"{label} imports nothing from hapticauth"
    missing = [f"{mod}.{name}" if name else mod
               for mod, name in imported if not _exists(mod, name)]
    assert not missing, f"{label} imports names that do not exist: {missing}"
