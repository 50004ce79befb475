import dataclasses
import hashlib
import os
import subprocess
import sys

import pytest

from cfnet import oracle
from cfnet.cli import main

BASE = ["--K", "5", "--L", "6", "--M", "2", "--alpha-grid", "0.5,1.0",
        "--time-steps", "2", "--realizations", "2"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")  # this checkout's sources, for the child interpreter


def run_python(args):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def run_cli(args):
    return run_python(["-m", "cfnet.cli", *args])


def test_package_imports_its_modules_and_not_the_cli():
    modules = "channel clustering graph harness metrics oracle topology".split()
    proc = run_python(["-c", "import sys, types, cfnet; print(all(isinstance("
                       f"getattr(cfnet, m, None), types.ModuleType) for m in {modules!r}), "
                       "'cfnet.cli' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True False\n"
    # a package that imported cli would make runpy warn on `-m cfnet.cli`
    proc = run_cli(["--help"])
    assert proc.returncode == 0 and proc.stderr == ""


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


def test_config_error_exit_code(tmp_path):
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
    assert main(["run", "--kmeans-restarts", "5"]) == 1   # the k-means budget is fixed
    assert main(["oracle-check", "--instances", "0"]) == 1
    assert main(["run", "--master-seed", "-1"]) == 1
    assert main(["oracle-check", "--seed", "-1"]) == 1
    assert main(["run", "--pt-over-sigma2-db", "1e308"]) == 1   # linear power overflows
    assert main(["run", "--pt-over-sigma2-db=-4000"]) == 1      # linear power underflows to 0
    assert main(["run", "--beta", "-1"]) == 1
    # a user at the clamp distance of a BS would get an infinite gain
    assert main(["run", *BASE, "--beta", "400", "--outputs", str(tmp_path / "b")]) == 1
    assert main(["run", *BASE, "--beta", "160", "--outputs", str(tmp_path / "b")]) == 1
    assert main(["run", *BASE, "--beta", "4", "--pt-over-sigma2-db", "3050",
                 "--outputs", str(tmp_path / "b")]) == 1
    assert not (tmp_path / "b").exists()
    # a repeated alpha would write its rows and snapshots twice; -0.0 is 0.0
    assert main(["run", "--alpha-grid", "0.5,0.5"]) == 1
    assert main(["run", "--alpha-grid", "0.0,-0.0"]) == 1
    # an empty outputs fails before any trial runs, not as an i/o failure after
    assert main(["run", *BASE, "--outputs", ""]) == 1
    # usage errors: argparse's own exit code 2 would read as a numerical failure
    assert main(["trial", "--trial-index", "abc"]) == 1
    assert main(["run", "--bogus", "1"]) == 1
    assert main(["oracle-check", "--instances", "x"]) == 1
    assert main([]) == 1
    assert main(["run", "--help"]) == 0
    not_utf8 = tmp_path / "bad.cfg"
    not_utf8.write_bytes(b"K = 5\n\xff\n")
    assert main(["run", "--config", str(not_utf8)]) == 1
    # '#' and line breaks would be read as a comment and as more keys
    assert main(["run", *BASE, "--outputs", str(tmp_path / "out#1")]) == 1
    assert main(["run", *BASE, "--realizations", "3",
                 "--outputs", f"{tmp_path / 'x'}\nrealizations = 1"]) == 1


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


@pytest.mark.parametrize("doubled", [0, 1], ids=["g_prev", "g_t"])
def test_oracle_check_fails_when_laplacian_disagrees_with_weights(doubled, monkeypatch, capsys):
    # cut-consistency compares the cut on the weights with the Laplacian's
    # indicator trace on both graphs, so a Laplacian built from other weights
    # must fail it, whichever graph of the pair carries it
    real = oracle.random_instances

    def doubled_laplacian(seed, count):
        for instance in real(seed, count):
            instance = list(instance)
            graph = instance[doubled]
            instance[doubled] = dataclasses.replace(graph, laplacian=2.0 * graph.laplacian)
            yield tuple(instance)

    monkeypatch.setattr(oracle, "random_instances", doubled_laplacian)
    assert main(["oracle-check", "--instances", "3", "--seed", "1"]) == 2
    assert "cut-consistency: FAIL" in capsys.readouterr().out


def test_oracle_check_reports_the_c2_verdict(capsys):
    # seed 2025 and 100 instances are gate C2's; its margin is one instance
    assert main(["oracle-check", "--seed", "2025", "--instances", "100"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "oracle-check cut-consistency: PASS",
        "oracle-check never-below-optimum: PASS",
        "oracle-check worst spectral/optimal ratio: 2.4934",
        "oracle-check within 1.25x of optimum: 96% of 100 instances",
    ]


def test_example_config_outputs_are_pinned(tmp_path):
    """metrics.csv of the desk-scale example config, ZF on, four trials.

    The hash holds on numpy 2.4.6 with OpenBLAS 0.3.31; another numpy or BLAS
    build may round the eigenvectors differently.
    """
    assert main(["run", "--config", os.path.join(ROOT, "example.cfg"),
                 "--realizations", "4", "--outputs", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest() == (
        "f6b31295fa8ac20f8845e175f56d91a90804a06943ba7fa5b6a0a932e96e47e9")


def test_zf_heavy_config_outputs_are_pinned(tmp_path):
    """metrics.csv of the example config at K/L/M 60/30/12, three trials.

    Five users per subnetwork on average: many 2-3-user and overloaded
    groups, so every ZF shape path is exercised.  The hash holds on numpy
    2.4.6 with OpenBLAS 0.3.31.
    """
    assert main(["run", "--config", os.path.join(ROOT, "example.cfg"),
                 "--K", "60", "--L", "30", "--M", "12", "--realizations", "3",
                 "--outputs", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest() == (
        "5acf050225b3045655a7cf44a95476ab6b9c476f672b02a0403bea86ca3198b1")


def test_zf_crosstalk_failure_exits_numerical(monkeypatch, tmp_path, capsys):
    # any multi-user subnetwork now breaks the crosstalk check
    from cfnet import metrics
    monkeypatch.setattr(metrics, "_ZF_CROSSTALK_TOL", -1.0)
    assert main(["run", *BASE, "--outputs", str(tmp_path)]) == 2
    assert "numerical failure: zero-forcing crosstalk" in capsys.readouterr().err


def test_unsorted_grid_without_alpha_one_outputs_are_pinned(tmp_path):
    """metrics.csv of the example config on the grid 0.9, 0.0, 0.25.

    Without alpha = 1 there are no labels for alpha = 0 to reuse after the
    first step, so it is clustered in one batch with the other branches.
    The hash is that of clustering every branch on its own; it holds on
    numpy 2.4.6 with OpenBLAS 0.3.31.
    """
    assert main(["run", "--config", os.path.join(ROOT, "example.cfg"),
                 "--alpha-grid", "0.9,0.0,0.25", "--realizations", "4",
                 "--outputs", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest() == (
        "200511870570e7540652ee6fb8b2b0843824141768b0c63a5a8ac54cbd7897d6")
