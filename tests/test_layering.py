"""The package's import layering, checked from the source's syntax trees.

Every module-level ``repro.*`` import must point *down* this order (a
module may also import its own tier)::

    {errors, session, deadline} -> telemetry -> hardening -> crypto
    -> relational -> storage -> transport -> {faults, cluster}
    -> mediation -> core -> {analysis, baselines, loadgen} -> cli

``repro/__init__.py`` (the public facade) and ``__main__`` sit in the
``cli`` tier.  Imports inside function bodies are exempt: they run on
first use, not at import time, which is how the codec's extension
registry (``transport.codec._bootstrap``) reaches up into the domain
types on purpose.
"""

import ast
from pathlib import Path

import pytest

import repro

TIERS = [
    {"errors", "session", "deadline"},
    {"telemetry"},
    {"hardening"},
    {"crypto"},
    {"relational"},
    {"storage"},
    {"transport"},
    {"faults", "cluster"},
    {"mediation"},
    {"core"},
    {"analysis", "baselines", "loadgen"},
    {"cli", "__init__", "__main__"},
]
RANK = {name: rank for rank, tier in enumerate(TIERS) for name in tier}
PACKAGE = Path(repro.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def component(relative: Path) -> str:
    """The tier name of a module: its subpackage or top-level module."""
    return relative.parts[0].removesuffix(".py")


def module_level_imports(tree: ast.Module):
    """``repro.*`` modules imported outside any function body."""
    pending: list[ast.AST] = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module
        pending.extend(ast.iter_child_nodes(node))


def target(module: str) -> str | None:
    """The tier name an imported module belongs to, if it is ours."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 else "__init__"


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: str(path.relative_to(PACKAGE))
)
def test_module_level_imports_point_down(path):
    source = component(path.relative_to(PACKAGE))
    assert source in RANK, f"{source!r} has no place in TIERS"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    upward = [
        module
        for module in module_level_imports(tree)
        if (name := target(module)) is not None and RANK[name] > RANK[source]
    ]
    assert not upward, (
        f"{path.relative_to(PACKAGE)} (tier {source!r}) imports upward: "
        f"{upward}"
    )
