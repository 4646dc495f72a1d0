"""The demos and the README's Library snippet use only names that exist.

That covers the names they import from hapticauth and the attributes they
read off an imported hapticauth module.  Tier-1 runs no demo, so a removed
or renamed export would otherwise break them silently.  Each source is
parsed, not executed.
"""

import argparse
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


def _is_module(name):
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


def _exists(module_name, name):
    if not _is_module(module_name):
        return False
    if name is None or hasattr(importlib.import_module(module_name), name):
        return True
    # `from hapticauth import autodiff` names a submodule
    return _is_module(f"{module_name}.{name}")


def _module_aliases(source):
    """Local name -> hapticauth module, for every import that binds a module."""
    aliases = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            if node.module.split(".")[0] == "hapticauth":
                for alias in node.names:
                    if _is_module(f"{node.module}.{alias.name}"):
                        aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hapticauth":  # `import a.b` binds a
                    local = alias.asname or "hapticauth"
                    aliases[local] = alias.name if alias.asname else "hapticauth"
    return aliases


def _module_name(node, aliases):
    """The hapticauth module an expression such as `ad` or `hapticauth.model`
    names, or None."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _module_name(node.value, aliases)
        if base and _is_module(f"{base}.{node.attr}"):
            return f"{base}.{node.attr}"
    return None


def _module_attributes(source):
    """(module, attribute) for every attribute read off a hapticauth module,
    such as `ad.mul` after `from hapticauth import autodiff as ad`."""
    aliases = _module_aliases(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            module = _module_name(node.value, aliases)
            if module:
                yield module, node.attr


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


@pytest.mark.parametrize("label,source", SOURCES, ids=[label for label, _ in SOURCES])
def test_module_attributes_exist(label, source):
    missing = sorted({f"{mod}.{attr}" for mod, attr in _module_attributes(source)
                      if not _exists(mod, attr)})
    assert not missing, f"{label} reads attributes that do not exist: {missing}"


def _cli_flags():
    """Every option string that some subcommand of the CLI accepts."""
    from hapticauth.cli import build_parser
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for p in sub.choices.values() for flag in p._option_string_actions}


def test_readme_command_line_flags_exist():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Command line\n(.*?)^## ", text, flags=re.S | re.M).group(1)
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert "--epochs" in flags, "README's Command line section lists no training flag"
    unknown = sorted(flags - _cli_flags())
    assert not unknown, f"README's Command line section lists flags no subcommand accepts: {unknown}"


def test_readme_checkpoint_version_is_the_library_version():
    from hapticauth.model import CHECKPOINT_VERSION
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"^- \*\*Checkpoint\*\* — format version (\d+)", text, flags=re.M)
    assert stated == [str(CHECKPOINT_VERSION)]
