"""Each experiment script runs to completion at its smallest setting."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quditphase

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ("homodyne_demo.py", "--d", "2", "--samples", "200"),
        ("norm_identity_sweep.py", "--dims", "2", "3", "--max-dim", "9", "--states", "2"),
        # sides near 8e8 at p = 0.1 differ by 1.2e-6, their rounding: judged relative to them, as gkp-check does
        pytest.param(("norm_identity_sweep.py", "--dims", "3", "--max-dim", "9", "--p", "0.1", "--states", "2"),
                     id="norm_identity_sweep.py-large-sides"),
        # the enumerated stabilizer states at a composite d land on the cell-norm baseline
        pytest.param(("norm_identity_sweep.py", "--dims", "6", "--max-dim", "6", "--states", "1", "--stabilizers"),
                     id="norm_identity_sweep.py-stabilizers-d6"),
        ("sampling_benchmark.py", "--runs", "2", "--epsilon", "0.2"),
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_zero(argv):
    package_root = str(Path(quditphase.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
