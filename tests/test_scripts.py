import csv
import os
import subprocess
import sys
from pathlib import Path

from attocell.scenario import default_scenario

ROOT = Path(__file__).resolve().parent.parent


def test_reproduce_all_smoke(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_all.py"),
         "--trials", "2", "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert names == sorted(f"{n}.csv" for n in (
        "snr_eh_region", "feasibility_vs_theta", "eh_allocation", "rf_power",
        "subopt_gap", "illuminance"))
    want = default_scenario().hash
    for name in names:
        with open(tmp_path / name) as fh:
            rows = list(csv.DictReader(fh))
        assert rows, name
        assert {r["scenario_hash"] for r in rows} == {want}, name
