"""List imports that a module never uses, in src/hyperquad and tests.

An AST walk, standard library only.  A name bound by an import counts as
used when it is read anywhere in its file, appears in a quoted
annotation, or is listed in the module's __all__; `from __future__`
imports are skipped.  From the repository root:

    python3 .github/check_unused_imports.py

It prints one line per unused import and exits 1 if there is any.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src/hyperquad", "tests")


def _bound_imports(tree: ast.Module):
    """(name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _exported(tree: ast.Module) -> set[str]:
    out: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    out |= {
                        e.value for e in node.value.elts
                        if isinstance(e, ast.Constant) and isinstance(e.value, str)
                    }
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        else:
            continue
        if ann is not None:
            yield ann


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used | _exported(tree)


def unused_imports(path: Path) -> list[tuple[int, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return sorted({(line, name) for name, line in _bound_imports(tree) if name not in used})


def main() -> int:
    bad = 0
    for top in TREES:
        for path in sorted((ROOT / top).rglob("*.py")):
            for line, name in unused_imports(path):
                print(f"{path.relative_to(ROOT)}:{line}: {name} imported but unused")
                bad += 1
    print(f"{bad} unused imports")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
