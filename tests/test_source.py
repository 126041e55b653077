"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from mgctm.inference import E_STEP_BLOCKS

SRC = Path(__file__).resolve().parents[1] / "src" / "mgctm"
TESTS = Path(__file__).resolve().parent


def module_level_names(tree):
    """Names bound by the module's top-level defs, classes and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def used_names(tree):
    """Names read anywhere in the module: loads and attribute accesses.

    An import alone is not a use; neither is a name's own definition.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def class_level_names(tree):
    """(class, name) for the methods and attributes each class body binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for name in module_level_names(node):
                yield node.name, name


def test_every_private_method_and_class_attribute_is_used():
    # ``_Batch.update`` reaches ``_update_<block>`` through getattr, so the
    # blocks of E_STEP_BLOCKS count as uses of those methods
    uses = Counter("_update_" + block for block in E_STEP_BLOCKS)
    private = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        private += [
            (path.name, cls, name)
            for cls, name in class_level_names(tree)
            if name.startswith("_") and not name.startswith("__")
        ]
        uses.update(used_names(tree))
    assert private, "no private methods found; is SRC right?"
    unused = [f"{module}: {cls}.{name}" for module, cls, name in private if not uses[name]]
    assert not unused, "private methods and attributes never used in src/: " + ", ".join(
        unused
    )


def test_every_private_module_level_name_is_used():
    private, uses = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        private += [
            (path.name, name)
            for name in module_level_names(tree)
            if name.startswith("_") and not name.startswith("__")
        ]
        uses.update(used_names(tree))
    assert private, "no private names found; is SRC right?"
    unused = [f"{module}: {name}" for module, name in private if not uses[name]]
    assert not unused, "private names never used in src/: " + ", ".join(unused)


def parameter_names(tree):
    """Parameter names of every function: how a test asks for a fixture."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                yield arg.arg


def fixture_names(tree):
    """Names of the module's top-level pytest fixtures."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            "fixture" in ast.unparse(dec) for dec in node.decorator_list
        ):
            yield node.name


def test_every_test_helper_is_used():
    # pytest collects the test_* functions and Test* classes itself, and a
    # fixture is used by naming it as a parameter
    helpers, uses, fixtures, params = [], Counter(), set(), set()
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        helpers += [
            (path.name, name)
            for name in module_level_names(tree)
            if not name.startswith(("test_", "Test"))
        ]
        uses.update(used_names(tree))
        fixtures.update(fixture_names(tree))
        params.update(parameter_names(tree))
    uses.update(fixtures & params)
    assert helpers, "no test helpers found; is TESTS right?"
    unused = [f"{module}: {name}" for module, name in helpers if not uses[name]]
    assert not unused, "test helpers never used in tests/: " + ", ".join(unused)


def imported_names(tree):
    """(line, name) for every name an import statement binds, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_every_imported_name_is_used():
    # the package, its tests and its demos; __init__.py imports to
    # re-export, so it is left out
    root = SRC.parents[1]
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(root.glob("tests/*.py")) + sorted(root.glob("demos/*.py"))
    assert len(paths) > len(list(SRC.glob("*.py")))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        loads = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{path.relative_to(root)}:{line}: {name}"
            for line, name in imported_names(tree)
            if name not in loads
        ]
    assert not unused, "imported but never used: " + ", ".join(unused)


@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.sparse"])
def test_import_leaves_scipy_optimize_unloaded(module):
    # scipy.optimize costs ~0.25 s of every process start and
    # scipy.sparse ~18 ms; only the functions that need them (the
    # scoring functions, kmeans) import them
    code = (
        "import sys, mgctm, mgctm.cli; "
        f"print(sorted(m for m in sys.modules if m.startswith({module!r})))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_no_module_imports_scipy_optimize():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name.split(".")[:2] == ["scipy", "optimize"] for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "scipy.optimize imported at " + ", ".join(found)


def test_scoring_leaves_scipy_optimize_unloaded(tmp_path):
    # the matching is plain NumPy: scoring, aligning and the CLI's k-means
    # evaluation never pay scipy.optimize's ~130 ms and ~21 MB
    code = (
        "import sys\n"
        "from mgctm.cli import main\n"
        "from mgctm.evaluation import align_labels, clustering_accuracy\n"
        "clustering_accuracy([0, 0, 1, 2], [1, 1, 0, 2])\n"
        "align_labels([0, 0, 1, 2], [1, 1, 0, 2])\n"
        "assert main(['synth', '--clusters', '2', '--local-topics', '1',\n"
        "             '--global-topics', '1', '--vocab-size', '20', '--docs', '30',\n"
        "             '--doc-length', '20', '--corpus', 'c.bow',\n"
        "             '--vocab', 'c.vocab', '--labels', 'c.labels']) == 0\n"
        "assert main(['eval', '--method', 'kmeans', '--corpus', 'c.bow',\n"
        "             '--labels', 'c.labels']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"


def is_chunk_literal(node):
    """65536 written as a number or as ``1 << 16``."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int and node.value == 1 << 16
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.LShift)
        and all(isinstance(n, ast.Constant) for n in (node.left, node.right))
        and (node.left.value, node.right.value) == (1, 16)
    )


def test_chunk_size_is_bound_once():
    # Every chunked pass (E-step batches, sampler blocks, save_bow calls,
    # dense scans) reads corpus.CHUNK_CELLS; no module keeps its own size.
    sizes, literals, definitions = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CHUNK_CELLS" for t in node.targets
            ):
                definitions.append(f"{path.name}:{node.lineno}")
                allowed = {id(n) for n in ast.walk(node)}
        sizes += [
            f"{path.name}: {name}"
            for name in module_level_names(tree)
            if name.endswith(("_DOCS", "_TOKENS", "_ROWS", "_CELLS")) and name != "CHUNK_CELLS"
        ]
        literals += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if is_chunk_literal(node) and id(node) not in allowed
        ]
    assert len(definitions) == 1 and definitions[0].startswith("corpus.py:"), definitions
    assert not sizes, "chunk sizes besides corpus.CHUNK_CELLS: " + ", ".join(sizes)
    assert not literals, "chunk-size literals outside CHUNK_CELLS: " + ", ".join(literals)
