"""The README names exactly what the package exports, the commands of its CLI, the config
keys it accepts and the module constants with their values, and its Python examples give
the values their comments state."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import mixedtopo as mt
from mixedtopo import cli, config, errors

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


def test_readme_config_keys_match_parser():
    """The key column of README "Config file" lists every key parse_config accepts."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config file", 1)[1].split("### Matrix-grid files", 1)[0]
    key_cells = re.findall(r"^\| ([^|]*) \|", section, flags=re.MULTILINE)
    assert {name for cell in key_cells for name in re.findall(r"`(\w+)`", cell)} == config._ALL_KEYS


def test_readme_subcommands_match_cli():
    """The command column of README "Subcommands" lists the commands of cli._COMMANDS."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\nSubcommands\n", 1)[1].split("\nExit codes", 1)[0]
    commands = re.findall(r"^\| `([\w-]+)`", section, flags=re.MULTILINE)
    assert commands == list(cli._COMMANDS)


def _module_constants() -> dict:
    """(module, NAME) -> value of every uppercase numeric constant a package module assigns."""
    constants = {}
    for info in pkgutil.iter_modules(mt.__path__):
        module = importlib.import_module(f"mixedtopo.{info.name}")
        for node in ast.parse(inspect.getsource(module)).body:
            for target in node.targets if isinstance(node, ast.Assign) else ():
                if isinstance(target, ast.Name) and target.id.isupper():
                    value = getattr(module, target.id)
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        constants[(info.name, target.id)] = value
    return constants


def test_readme_tolerances_match_module_constants():
    """Each row of README "Tolerances" names a constant of its module with the stated
    value, once, and every uppercase numeric module constant has a row."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Tolerances", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([^|]+) \|", section, flags=re.MULTILINE)
    table = {(module, name): float(value) for name, module, value in rows}
    assert len(table) == len(rows) >= 1
    assert table == _module_constants()


def _expected(lines: list, node: ast.stmt):
    """The literal after `# -> ` on the lines of statement `node`, or None."""
    for line in lines[node.lineno - 1:node.end_lineno]:
        if "# -> " in line:
            return ast.literal_eval(line.split("# -> ", 1)[1].strip())
    return None


def test_readme_python_blocks_give_their_commented_values():
    """The ```python blocks of the README run in order in one namespace, and each
    statement commented `# -> value` gives that value: an expression its own value, an
    assignment that of its targets. Floats compare to 1e-12 relative (band_gap reads
    1.9999999999999996 for 2.0)."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    namespace, checked = {}, 0
    for block in blocks:
        lines = block.splitlines()
        for node in ast.parse(block).body:
            expected = _expected(lines, node)
            if isinstance(node, ast.Expr) and expected is not None:
                got = eval(ast.get_source_segment(block, node), namespace)
            else:
                exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
                if expected is None:
                    continue
                assert isinstance(node, ast.Assign), ast.get_source_segment(block, node)
                got = eval(ast.get_source_segment(block, node.targets[0]), namespace)
            assert got == pytest.approx(expected, rel=1e-12), ast.get_source_segment(block, node)
            checked += 1
    assert checked == sum(block.count("# -> ") for block in blocks) == 5
