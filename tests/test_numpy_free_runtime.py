"""The runtime needs no numpy, and only the verify command loads `gtbasis.verify`."""

import hashlib
import os
import subprocess
import sys

import gtbasis
from test_verify_report_digest import VERIFY_SEED0_SHA256

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gtbasis.__file__)))
ENV = dict(os.environ, PYTHONPATH=SRC)

# `python -m gtbasis ARGS...` in an interpreter where `import numpy` fails.
NO_NUMPY_MAIN = """
import runpy, sys
sys.modules["numpy"] = None
sys.argv = ["gtbasis", *sys.argv[1:]]
runpy.run_module("gtbasis", run_name="__main__", alter_sys=True)
"""


def _run(*args):
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True, text=True)


def _run_without_numpy(*cli_args):
    return _run("-c", NO_NUMPY_MAIN, *cli_args)


def test_cli_import_loads_neither_numpy_nor_verify():
    code = ("import sys, gtbasis.cli; "
            "print('numpy' in sys.modules, 'gtbasis.verify' in sys.modules)")
    proc = _run("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_verify_report_without_numpy_is_unchanged():
    proc = _run_without_numpy("verify", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == VERIFY_SEED0_SHA256


def test_basis_and_genfun_run_without_numpy():
    basis = _run_without_numpy("basis", "--kind", "mon", "--m", "4", "--k", "1,0,2")
    assert basis.returncode == 0, basis.stderr
    assert basis.stdout.strip()
    value = _run_without_numpy("genfun", "eval", "--kind", "harm", "--m", "3",
                               "--x", "0,0,0.5", "--h", "0,0.5")
    assert value.returncode == 0, value.stderr
    assert value.stdout.strip()
