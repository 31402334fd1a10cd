"""The runtime needs nothing beyond the standard library."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_public_packages_import_without_numpy():
    code = (
        "import sys\n"
        "import repro, repro.mc, repro.api, repro.atpg, repro.cli\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert done.stdout.strip() == "False"
