"""The README's "Public API" list names exactly what the package exports."""

import ast
import inspect
import re
from pathlib import Path

import mixedtopo as mt
from mixedtopo import errors

ROOT = Path(__file__).resolve().parents[1]


def _exported_names() -> set:
    tree = ast.parse((ROOT / "src" / "mixedtopo" / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _readme_names() -> set:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Public API", 1)[1].split("Gone from earlier versions", 1)[0]
    names = set(re.findall(r"`(\w+)`", section))
    if "`mixedtopo.errors`" in section:  # "the error types of `mixedtopo.errors`"
        names |= {name for name, obj in vars(errors).items()
                  if inspect.isclass(obj) and issubclass(obj, Exception)
                  and obj.__module__ == errors.__name__}
    return names


def test_readme_public_api_matches_exports():
    exported = _exported_names()
    assert exported == _readme_names()
    assert all(hasattr(mt, name) for name in exported)
