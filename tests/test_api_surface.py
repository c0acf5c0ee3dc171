"""No definition in the package that only the unit tests call.

Every module-level function, class and constant in ``src/shrinksel`` must
be named by code that runs outside the unit tests: the package itself
(a re-export in ``__init__`` does not count), the benchmark definition
``perfbench/*.py``, the acceptance suite, or a Python snippet in the CI
workflow. Names are read from syntax trees, so a name that appears only in
a comment or a docstring counts for nothing.
"""

import ast
import re
import textwrap
from pathlib import Path

import shrinksel

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shrinksel"


def defined_names(tree):
    """Module-level functions, classes and assigned names, except dunders."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names.update(n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Store))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def used_names(tree):
    """Names read, attributes taken and names imported in one tree."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def workflow_snippets(text):
    """The Python sources a workflow runs: ``python -c "..."`` arguments
    (a backslash-newline inside the quotes joins lines, as in the shell)
    and quoted heredocs."""
    snippets = [m.group(1).replace("\\\n", "") for m in re.finditer(
        r'python -c "((?:[^"\\]|\\.)*)"', text, flags=re.S)]
    snippets += [textwrap.dedent(m.group(1)) for m in re.finditer(
        r"<<'EOF'\n(.*?)\n[ \t]*EOF\n", text, flags=re.S)]
    return snippets


def outside_uses():
    """Names used by everything that counts as a caller."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        if path.name == "__init__.py":  # a re-export is not a use
            tree.body = [node for node in tree.body
                         if not isinstance(node, ast.ImportFrom)]
        used |= used_names(tree)
    for path in [*ROOT.glob("perfbench/*.py"),
                 ROOT / "tests" / "test_acceptance.py"]:
        used |= used_names(ast.parse(path.read_text()))
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    for snippet in workflow_snippets(workflow):
        used |= used_names(ast.parse(snippet))
    return used


def test_every_definition_has_a_caller_outside_the_unit_tests():
    used = outside_uses()
    unused = sorted(
        f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
        for name in defined_names(ast.parse(path.read_text()))
        if name not in used)
    assert not unused, unused


def test_workflow_snippets_are_found():
    # Names that only CI called would read as unused if the snippet parser
    # stopped finding the snippets: these are names the snippets call.
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    used = set()
    for snippet in workflow_snippets(workflow):
        used |= used_names(ast.parse(snippet))
    assert {"_blas_thread_calls", "_dposv", "hs_estimator_mc",
            "save_draws", "load_draws"} <= used


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(shrinksel.__all__) == len(set(shrinksel.__all__))
    assert sorted(shrinksel.__all__) == sorted(imported)
