import ast
import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fockdamp as fd
from conftest import ORACLE


def test_import_leaves_environment_alone():
    assert fd.active_backend() == "numpy"
    src = str(Path(fd.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if not k.startswith("NUMBA_")}
    env["PYTHONPATH"] = src
    code = (
        "import os; before = dict(os.environ); import fockdamp; "
        "print(sorted(set(os.environ.items()) ^ set(before.items())))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_readme_library_sketch_runs():
    # the sketch uses the public names of the engines and the long-time prediction
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S).group(1)
    names = {}
    exec(sketch, names)
    assert names["pred"].regime == "mass collects on the dark levels {0}"


@functools.cache
def _modules_after_cli_import() -> frozenset:
    """The names in ``sys.modules`` of a fresh interpreter after ``import fockdamp.cli``."""
    src = str(Path(fd.__file__).resolve().parent.parent)
    code = "import sys, fockdamp.cli; print(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    return frozenset(out.stdout.split())


def _loaded_after_cli_import(module: str) -> bool:
    return module in _modules_after_cli_import()


def test_cli_import_leaves_scipy_linalg_unloaded():
    # expm is NumPy's own; scipy.linalg would add set-up time and resident memory
    assert not _loaded_after_cli_import("scipy.linalg")


def test_cli_import_leaves_scipy_sparse_unloaded():
    # the two-mode sector generator is built dense; scipy.sparse would add
    # set-up time and resident memory
    assert not _loaded_after_cli_import("scipy.sparse")


@pytest.mark.parametrize("module", ["jsonschema", "referencing", "rpds", "attrs"])
def test_cli_import_leaves_the_schema_packages_unloaded(module):
    # scenario checks its schema with its own walker; jsonschema and the
    # packages it needs would add set-up time and resident memory
    assert not _loaded_after_cli_import(module)


def test_every_imported_name_is_used():
    # __init__.py re-exports its imports, so it is the one module left out
    unused = []
    for path in sorted(Path(fd.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def _names(code):
    """Every global and attribute name a code object reads, nested comprehensions included."""
    nested = (_names(c) for c in code.co_consts if isinstance(c, type(code)))
    return set(code.co_names).union(*nested)


@pytest.mark.parametrize("oracle", ORACLE, ids=lambda f: f.__name__)
def test_oracle_reads_nothing_the_engines_share(oracle):
    # the operator-product references check the engines' one cascade rule and
    # its loss table, so they must not be built from either
    shared = {"_cascade", "loss_table", "lowering_amplitudes", "lowering_weight",
              "stripe_generators", "population_generator"}
    assert not _names(oracle.__code__) & shared
