import os
import subprocess
import sys
from pathlib import Path

import fockdamp as fd


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


def test_cli_import_leaves_scipy_linalg_unloaded():
    # expm is NumPy's own; scipy.linalg would add set-up time and resident memory
    src = str(Path(fd.__file__).resolve().parent.parent)
    code = "import sys, fockdamp.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
