"""The benchmark's tracer still runs the CLI and finds the names it reads."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "mz", "--alpha", "1"],
        ["sweep", "mz", "--grid", "0:2pi:5", "--engine", "both", "--seed", "7"],
        ["check", "--corpus-cases", "1", "--shots", "1000"],
        ["sweep", "bghz", "--grid", "0:pi:3", "--engine", "both", "--seed", "7"],
        ["run", "chsh", "--angles", "0,pi/2,pi/4,3pi/4", "--engine", "both"],
    ],
    ids=["run-mz", "sweep-mz", "check", "sweep-bghz", "run-chsh"],
)
def test_traced_cli_run_exits_zero_with_its_health_values(tmp_path, argv):
    record, stdout = tmp_path / "record.json", tmp_path / "stdout.txt"
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--src", str(ROOT / "src"),
         "--record", str(record), "--stdout", str(stdout), "--trace", "--", *argv],
        check=True, timeout=120,
    )
    result = json.loads(record.read_text())
    assert result["rc"] == 0
    if argv[0] == "check" or "both" in argv:
        # hilbert checks each emission's norm with streams.unitarity_defect.
        assert "streams.unitarity_defect.max" in result["metrics"]


def test_traced_propagate_counts_its_steps(tmp_path):
    record, stdout = tmp_path / "record.json", tmp_path / "stdout.txt"
    argv = ["propagate", "--grid-n", "256", "--xmin", "-10", "--xmax", "10", "--eps", "0.5",
            "--steps", "3"]
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--src", str(ROOT / "src"),
         "--record", str(record), "--stdout", str(stdout), "--trace", "--", *argv],
        check=True, timeout=120,
    )
    result = json.loads(record.read_text())
    assert result["rc"] == 0
    assert result["metrics"]["pathintegral.steps"] == 3
    assert "pathintegral.max_step_drift" in result["metrics"]
