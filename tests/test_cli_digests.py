"""Every CLI experiment's output is byte-identical to the committed digests.

Runs `scripts/cli_digests.py --check` against
`scripts/cli_digests_baseline.json`.  The baseline holds the digests under
the numpy and scipy versions the script names; other versions may round
differently, so the check is skipped under them.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

ROOT = Path(__file__).resolve().parents[1]
VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}


@pytest.mark.skipif(
    (np.__version__, scipy.__version__) != (VERSIONS["numpy"], VERSIONS["scipy"]),
    reason=f"the digest baseline holds numpy {VERSIONS['numpy']} and "
           f"scipy {VERSIONS['scipy']} outputs",
)
def test_cli_outputs_match_the_digest_baseline():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cli_digests.py"),
         "--check", str(ROOT / "scripts" / "cli_digests_baseline.json")],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
