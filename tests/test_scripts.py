import csv
import json
import os
import re
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
    # one line per experiment with its wall time in milliseconds
    timed = re.findall(r"^(\w+) +\d+ rows +(\d+\.\d) ms ", proc.stdout, re.MULTILINE)
    assert [name for name, _ in timed] == [
        "snr_eh_region", "feasibility_vs_theta", "eh_allocation", "rf_power",
        "subopt_gap", "illuminance"]
    assert all(float(ms) > 0 for _, ms in timed), proc.stdout


def test_reproduce_all_rejects_zero_trials_before_writing(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_all.py"),
         "--trials", "0", "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "need at least 1 trial, got 0" in proc.stderr
    assert not list(tmp_path.iterdir())


def test_reproduce_all_exits_like_the_cli(tmp_path):
    # a negative seed is a scenario error: exit 2 with the attocell
    # command's one-line message, no traceback and no output directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_all.py"),
         "--seed", "-1", "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "configuration error: seed must be nonnegative, got -1\n"
    assert not (tmp_path / "out").exists()


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
        "exp/illuminance.json", "jittered_layout.yaml",
        "jittered-feasibility/feasibility_vs_theta.csv",
        "jittered-solve-semi/solution.json", "jittered-solve-semi/trace_semi.jsonl",
        "jittered-solve-direct-closed_form/solution.json"}
    # on the jittered layout the device that sets the bias is not the
    # weakest-serving one
    for sub in ("jittered-solve-semi", "jittered-solve-direct-closed_form"):
        sol = json.loads((tmp_path / "a" / sub / "solution.json").read_text())
        assert sol["fallback_used"] and sol["worst_user"] == 1, sub

    # one more trial moves rf_power.csv alone: trials_ok of its 14 feasible
    # rows, the first of them in the first data row
    second = run(tmp_path / "b", 3, "--against", str(manifest))
    assert second.returncode == 1, second.stderr
    moved = [line for line in second.stdout.splitlines()
             if line.startswith(("moved:", "only in"))]
    assert moved == ["moved: rf_power.csv (14 of 17 lines differ)"]
    assert "  line 2 was: 0,nonlinear,uniform,1,0,2,0," in second.stdout
    assert "  line 2 now: 0,nonlinear,uniform,1,0,3,0," in second.stdout
    # and every other moved line, old and new, each once
    was = re.findall(r"^  line (\d+) was: .*,2,0,", second.stdout, re.MULTILINE)
    now = re.findall(r"^  line (\d+) now: .*,3,0,", second.stdout, re.MULTILINE)
    assert was == now and len(set(was)) == 14
