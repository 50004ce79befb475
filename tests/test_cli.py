import subprocess
import sys

from cfnet.cli import main

BASE = ["--K", "5", "--L", "6", "--M", "2", "--alpha-grid", "0.5,1.0",
        "--time-steps", "2", "--realizations", "2"]


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "cfnet.cli", *args],
                          capture_output=True, text=True)


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


def test_trial_command_dumps_snapshots(tmp_path):
    out = tmp_path / "out"
    proc = run_cli(["trial", *BASE, "--outputs", str(out),
                    "--snapshot-alpha", "1.0"])
    assert proc.returncode == 0, proc.stderr
    assert (out / "snapshot_0.csv").exists()
    assert (out / "snapshot_1.csv").exists()
    rows = (out / "metrics.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 2  # header + steps x alphas for one trial


def test_sweep_requires_alpha_grid(tmp_path):
    assert main(["sweep", "--K", "5", "--L", "6", "--M", "2",
                 "--time-steps", "2", "--realizations", "1",
                 "--outputs", str(tmp_path)]) == 1


def test_sweep_runs_with_grid(tmp_path):
    out = tmp_path / "out"
    proc = run_cli(["sweep", *BASE, "--outputs", str(out)])
    assert proc.returncode == 0, proc.stderr
    rows = (out / "summary.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2


def test_oracle_check_passes():
    proc = run_cli(["oracle-check", "--instances", "10", "--seed", "1"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "cut-consistency: PASS" in proc.stdout
    assert "never-below-optimum: PASS" in proc.stdout
