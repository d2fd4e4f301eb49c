"""List library definitions that neither the library nor the benchmark uses.

An AST walk, standard library only.  It collects every top-level function
and class in src/hyperquad and every method of those classes, then every
name either tree refers to: a bare name, an attribute (`x.name`) or a
component of a dotted path in perfbench/tracing.py's LAYERS, which the
tracer resolves by getattr.  A definition no such reference names is
reachable only from the tests, so it belongs in the tests or nowhere.
Matching is by name alone, so a reference to any `x.expand` keeps every
method called `expand`, and a definition that only another uncalled one
uses shows up once that one is gone; the census errs towards keeping.
Dunder methods are called by the language and are not listed.  From the
repository root:

    python3 .github/check_library_callers.py

It prints one line per definition no caller reaches, marks those on the
allowlist below with their reason, and exits 1 if any other is left.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src/hyperquad"
CALLERS = (LIBRARY, ROOT / "perfbench")
LAYERS_FILE = ROOT / "perfbench/tracing.py"

# a module name allows all of that module; "module.Class.method" one method
ALLOWED = {
    "laurent": "the tests' reference series engine; the tracer wraps it by "
               "name, so it leaves src only with the benchmark's re-anchor",
    "cli._Parser.error": "argparse's hook for bad flags",
}


def _definitions(module: str, tree: ast.Module):
    """(dotted name, bare name, line) of each top-level def, class and method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{module}.{node.name}", node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{item.name}", item.name, item.lineno


def _references(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _layer_paths(tree: ast.Module) -> set[str]:
    """Each component of the attribute paths (third entries) in LAYERS."""
    out = set()
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
        ):
            for entry in node.value.elts:
                out |= set(entry.elts[2].value.split("."))
    return out


def unreached() -> list[tuple[str, int, str]]:
    """(file, line, dotted name) of each definition no caller names."""
    referenced = _layer_paths(ast.parse(LAYERS_FILE.read_text()))
    defined = []
    for top in CALLERS:
        for path in sorted(top.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            referenced |= _references(tree)
            if top == LIBRARY:
                rel = str(path.relative_to(ROOT))
                defined += [(rel, line, dotted, bare)
                            for dotted, bare, line in _definitions(path.stem, tree)]
    return [(rel, line, dotted) for rel, line, dotted, bare in defined
            if bare not in referenced]


def _allowance(dotted: str) -> str | None:
    return ALLOWED.get(dotted) or ALLOWED.get(dotted.split(".")[0])


def main() -> int:
    bad = 0
    for rel, line, dotted in unreached():
        reason = _allowance(dotted)
        if reason is None:
            bad += 1
            print(f"{rel}:{line}: {dotted} has no caller in src/hyperquad or perfbench")
        else:
            print(f"{rel}:{line}: {dotted} allowed: {reason}")
    print(f"{bad} definitions without a caller")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
