"""The package's modules import one another at module level only, acyclically.

The package ``__init__`` imports every module, so ``sys.modules`` cannot
show an import that a function body makes; the source's syntax tree can.
"""

import ast
from pathlib import Path

PACKAGE = "twohop_aloha"
SRC = Path(__file__).resolve().parents[1] / "src" / PACKAGE
MODULES = {path.stem for path in SRC.glob("*.py")}


def _package_imports(node: ast.AST) -> set[str]:
    """The package modules that one import statement names."""
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
        return {parts[1] for parts in names if parts[0] == PACKAGE and len(parts) > 1}
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and node.module is not None and node.module.startswith(PACKAGE):
            parts = node.module.split(".")[1:]
        elif node.level == 1:
            parts = node.module.split(".") if node.module else []
        else:
            return set()
        if parts:
            return {parts[0]}
        return {alias.name for alias in node.names if alias.name in MODULES}
    return set()


def _graph() -> dict[str, set[str]]:
    """module -> the package modules it imports at module level; every
    import of a package module elsewhere fails the test."""
    graph = {}
    for name in sorted(MODULES):
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        top = set(map(id, tree.body))
        graph[name] = set()
        for node in ast.walk(tree):
            imported = _package_imports(node)
            assert not imported or id(node) in top, (
                f"{name}.py line {node.lineno} imports {sorted(imported)} below module level"
            )
            graph[name] |= imported
    return graph


def test_package_imports_are_module_level_and_acyclic():
    graph = _graph()
    assert set().union(*graph.values()) <= MODULES
    done, path = set(), []

    def visit(name):
        assert name not in path, f"import cycle: {' -> '.join(path[path.index(name):] + [name])}"
        if name in done:
            return
        path.append(name)
        for other in sorted(graph[name]):
            visit(other)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)

