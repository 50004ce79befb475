import os
import subprocess
import sys

from cfnet.cli import main

BASE = ["--K", "5", "--L", "6", "--M", "2", "--alpha-grid", "0.5,1.0",
        "--time-steps", "2", "--realizations", "2"]

# this checkout's sources, for the child interpreter
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "cfnet.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_run_writes_outputs(tmp_path):
    out = tmp_path / "out"
    proc = run_cli(["run", *BASE, "--outputs", str(out)])
    assert proc.returncode == 0, proc.stderr
    for name in ("metrics.csv", "summary.csv", "config.echo", "snapshot_0.csv"):
        assert (out / name).exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("K = 5\nL = 6\nM = 2\nalpha_grid = 1.0\n"
                   "time_steps = 2\nrealizations = 1\n")
    out = tmp_path / "out"
    proc = run_cli(["run", "--config", str(cfg), "--realizations", "2",
                    "--outputs", str(out)])
    assert proc.returncode == 0, proc.stderr
    echoed = (out / "config.echo").read_text()
    assert "realizations = 2" in echoed
    assert "K = 5" in echoed


def test_config_error_exit_code():
    assert main(["run", "--K", "0"]) == 1
    assert main(["run", "--config", "/does/not/exist"]) == 1
    assert main(["run", "--alpha-grid", ""]) == 1
    assert main(["trial", *BASE, "--trial-index", "-1"]) == 1
    assert main(["trial", *BASE, "--snapshot-alpha", "abc"]) == 1
    assert main(["run", "--pt-over-sigma2-db", "nan"]) == 1
    assert main(["run", "--pt-over-sigma2-db", "inf"]) == 1
    assert main(["run", "--pt-over-sigma2-db=-inf"]) == 1
    assert main(["run", "--beta", "nan"]) == 1
    assert main(["run", "--beta", "inf"]) == 1
    assert main(["run", "--kmeans-tol", "nan"]) == 1
    assert main(["oracle-check", "--instances", "0"]) == 1


def test_trial_command_dumps_snapshots(tmp_path):
    out = tmp_path / "out"
    proc = run_cli(["trial", *BASE, "--outputs", str(out),
                    "--snapshot-alpha", "1.0"])
    assert proc.returncode == 0, proc.stderr
    assert (out / "snapshot_0.csv").exists()
    assert (out / "snapshot_1.csv").exists()
    rows = (out / "metrics.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 2  # header + steps x alphas for one trial


def test_trial_rows_match_run_rows(tmp_path):
    # trial i writes the trial-i rows of a run, and its echo reruns trial i
    assert main(["run", *BASE, "--outputs", str(tmp_path / "run")]) == 0
    assert main(["trial", *BASE, "--trial-index", "1",
                 "--outputs", str(tmp_path / "trial")]) == 0
    run_rows = (tmp_path / "run" / "metrics.csv").read_bytes().splitlines(keepends=True)
    trial_rows = (tmp_path / "trial" / "metrics.csv").read_bytes().splitlines(keepends=True)
    assert trial_rows[1:] == [row for row in run_rows if row.startswith(b"1,")]
    echo = tmp_path / "trial" / "config.echo"
    assert echo.read_text().startswith(
        "# reproduce with: cfnet trial --config config.echo --trial-index 1\n")
    assert main(["trial", "--config", str(echo), "--trial-index", "1",
                 "--outputs", str(tmp_path / "again")]) == 0
    assert (tmp_path / "again" / "metrics.csv").read_bytes() == (
        tmp_path / "trial" / "metrics.csv").read_bytes()


def test_sweep_runs_with_grid(tmp_path):
    # an alpha sweep is `cfnet run` with --alpha-grid
    out = tmp_path / "out"
    assert main(["run", *BASE, "--outputs", str(out)]) == 0
    rows = (out / "summary.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2


def test_oracle_check_passes():
    proc = run_cli(["oracle-check", "--instances", "10", "--seed", "1"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "cut-consistency: PASS" in proc.stdout
    assert "never-below-optimum: PASS" in proc.stdout
