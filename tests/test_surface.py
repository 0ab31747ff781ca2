"""The public surface: each module's public names are exactly README's list.

README's *Public names* list gives, for each public module of ``ordlab``,
its top-level names that do not start with an underscore.  A module's own
names are read from its source: its ``def``s, ``class``es and assignments.
Imports are not its names, and neither are the click commands and groups
registered under ``ordlab.cli.main``.  A public name added to a module, or
dropped from it, fails here until the list says so too.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ordlab"


def declared():
    """(module, [names]) of each item of README's Public names list, in order."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Public names\n", 1)[1].split("\n#", 1)[0]
    items = re.findall(r"^- `ordlab\.(\w+)`: (.*?)(?=^- |\Z)", section, re.M | re.S)
    return [(module, re.findall(r"`(\w+)`", names)) for module, names in items]


def _assigned(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _assigned(element)


def _registrars(node):
    """(object, "command" or "group") of each ``@object.command(...)`` decorator."""
    for decorator in node.decorator_list:
        if (isinstance(decorator, ast.Call) and isinstance(decorator.func, ast.Attribute)
                and decorator.func.attr in ("command", "group")
                and isinstance(decorator.func.value, ast.Name)):
            yield decorator.func.value.id, decorator.func.attr


def defined(module):
    """The public top-level names of ``module``'s source, in source order."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    groups, names = set(), []  # groups: click groups, main and those under it
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            registrars = list(_registrars(node))
            if any(kind == "group" for _, kind in registrars):
                groups.add(node.name)
            if not any(owner in groups for owner, _ in registrars):
                names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(name for target in node.targets for name in _assigned(target))
        elif isinstance(node, ast.AnnAssign):
            names.extend(_assigned(node.target))
    return [name for name in names if not name.startswith("_")]


PUBLIC_MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))


def test_every_public_module_is_listed_once():
    assert sorted(module for module, _ in declared()) == PUBLIC_MODULES


@pytest.mark.parametrize("module", PUBLIC_MODULES)
def test_public_names_are_the_listed_ones(module):
    listed = dict(declared())[module]
    assert len(listed) == len(set(listed)), f"ordlab.{module} lists a name twice"
    names = set(defined(module))
    unlisted, undefined = sorted(names - set(listed)), sorted(set(listed) - names)
    assert not unlisted and not undefined, (
        f"ordlab.{module}: public names missing from README's list: {unlisted}; "
        f"listed but not defined: {undefined}"
    )
