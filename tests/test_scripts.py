import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT


@pytest.mark.parametrize("script, args, table_head, artifacts", [
    ("run_reference_1d.py", ["--paths", "2000"], "distribution", 12),
    ("run_disk_filter_2d.py", ["--paths", "2000", "--horizon", "0.1"], "KS(PDE, MC)", 3),
])
def test_script_runs_and_prints_its_table(tmp_path, script, args, table_head, artifacts):
    pythonpath = [str(REPO_ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "scripts" / script), *args,
                           "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith(table_head) for line in lines)
    # Every result carries its field series, so each writes its fields JSON too.
    assert f"wrote {artifacts} artifacts to {out}" in lines
    assert len(list(out.glob("*_fields.json"))) == artifacts // 3
