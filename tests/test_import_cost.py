"""`import gtbasis` stays free of numpy; only the verify module needs it."""

import os
import subprocess
import sys

import gtbasis


def test_import_gtbasis_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gtbasis.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, gtbasis; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
