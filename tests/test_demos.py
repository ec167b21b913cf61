"""Every narrative demo runs to completion against ``src`` and prints
exactly what it printed when its digest below was recorded, so a
refactor that changes any demo's output fails here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "01_field_and_duality": "be0761e514e2729f87be9035fbca1a54f1ed31a0ba2cf77ac444ef27712f54b2",
    "02_degree_table_tour": "b0127aa5cf3e1efaf7888534f8de718ad78b469335102542ccad2e3d972e7daa",
    "03_quantum_feasibility": "1ba0648c68dc4617a852013d2e1c06ca45368af47111e584416d6cf7e393a519",
    "04_schrodinger_cat_run": "5f49cf1d30e64b2b32ae1f2505efac90a5f390b019cb678660b5f55f8638a7a4",
    "05_rate_gains": "495f6c0339303b9f7a25aa092db2a9c18eb5b729cd34d9ae01bf498983c1d003",
}


def test_demos_exist():
    assert len(DEMOS) >= 5
    assert [demo.stem for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
