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


def test_byte_manifest_smoke(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = str(ROOT / "scripts" / "byte_manifest.py")

    def run(out, trials, *extra):
        return subprocess.run(
            [sys.executable, script, str(out), "--trials", str(trials), *extra],
            env=env, capture_output=True, text=True, timeout=120)

    first = run(tmp_path / "a", 2)
    assert first.returncode == 0, first.stderr
    manifest = tmp_path / "a" / "MANIFEST.sha256"
    listed = {line.split("  ")[1] for line in manifest.read_text().splitlines()}
    assert listed == {
        "snr_eh_region.csv", "feasibility_vs_theta.csv", "eh_allocation.csv",
        "rf_power.csv", "subopt_gap.csv", "illuminance.csv",
        "channels/vlc_channels.csv", "channels/rf_channels.csv",
        "solve-direct-bisection/solution.json",
        "solve-direct-closed_form/solution.json",
        "solve-centralized/solution.json", "solve-centralized/trace_centralized.jsonl",
        "solve-semi/solution.json", "solve-semi/trace_semi.jsonl",
        "exp/illuminance.json"}

    # one more trial moves rf_power.csv alone: trials_ok of its 14 feasible
    # rows, the first of them in the first data row
    second = run(tmp_path / "b", 3, "--against", str(manifest))
    assert second.returncode == 1, second.stderr
    moved = [line for line in second.stdout.splitlines()
             if line.startswith(("moved:", "only in"))]
    assert moved == ["moved: rf_power.csv (14 of 17 lines differ)"]
    assert "  line 2 was: 0,nonlinear,uniform,1,0,2,0," in second.stdout
    assert "  line 2 now: 0,nonlinear,uniform,1,0,3,0," in second.stdout
