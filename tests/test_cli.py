import json
import math
import os
import subprocess
import sys

import pytest

from lagstate import entanglement, states
from lagstate.torus import TorusModel, theta_truncation
from lagstate.cli import (CSV_HEADER, RunConfig, main, parse_csv, render_csv,
                          render_json, run, tolerance_breaches,
                          verify_identities)

CIRCLE_K2_ENTROPY = 0.8675632284814612


def test_config_defaults_and_overrides():
    sphere_cfg = RunConfig(model="sphere", k_min=1, k_max=2)
    assert sphere_cfg.max_entropy_residual == 1e-9
    assert sphere_cfg.max_gram_residual == 1e-12
    torus_cfg = RunConfig(model="torus", k_min=3, k_max=4)
    assert torus_cfg.max_entropy_residual == 1e-6
    assert torus_cfg.max_gram_residual == 1e-7
    custom = RunConfig(model="sphere", k_min=1, k_max=2, tol_entropy=1e-3)
    assert custom.max_entropy_residual == 1e-3


def test_config_validation():
    with pytest.raises(ValueError, match="unknown model"):
        RunConfig(model="plane", k_min=1, k_max=2)
    with pytest.raises(ValueError, match="circle"):
        RunConfig(model="torus", k_min=3, k_max=4, submanifold="circle")
    with pytest.raises(ValueError, match="k >= 3"):
        RunConfig(model="torus", k_min=2, k_max=4)
    with pytest.raises(ValueError, match="empty k range"):
        RunConfig(model="sphere", k_min=5, k_max=4)


def test_run_sphere_antidiagonal():
    config = RunConfig(model="sphere", k_min=1, k_max=10)
    rows = run(config)
    assert [row.k for row in rows] == list(range(1, 11))
    for row in rows:
        assert row.d_k == row.k + 1
        assert row.entropy_residual <= 1e-9
        assert abs(row.ln_d_k - math.log(row.k + 1.0)) <= 1e-15
        assert abs(row.raw_norm - math.sqrt(row.d_k)) <= 1e-10
        assert abs(row.separable_distance - row.corollary_rhs) <= 1e-9
        assert row.gram_residual <= 1e-12
    assert not tolerance_breaches(config, rows)


def test_run_torus_antidiagonal():
    config = RunConfig(model="torus", k_min=3, k_max=8, mu=0.37)
    rows = run(config)
    for row in rows:
        assert row.d_k == row.k
        assert row.entropy_residual <= 1e-6
        assert row.gram_residual <= 1e-7
    assert not tolerance_breaches(config, rows)


def test_run_circle():
    config = RunConfig(model="sphere", k_min=1, k_max=6, submanifold="circle")
    rows = run(config)
    for row in rows:
        assert row.entropy_residual <= 1e-10
    assert abs(rows[0].entropy - math.log(2.0)) <= 1e-12
    assert abs(rows[1].entropy - CIRCLE_K2_ENTROPY) <= 1e-10


def test_tolerance_breaches_reported():
    config = RunConfig(model="sphere", k_min=1, k_max=3, tol_entropy=1e-18,
                       tol_gram=1e-18)
    rows = run(config)
    messages = tolerance_breaches(config, rows)
    assert messages
    assert any("entropy_residual" in m for m in messages)


def test_csv_round_trip_is_exact():
    config = RunConfig(model="sphere", k_min=1, k_max=5, reproducible=True)
    rows = run(config)
    text = render_csv(rows)
    assert text.splitlines()[0] == CSV_HEADER
    parsed = parse_csv(text)
    assert parsed == rows
    assert render_csv(parsed) == text


def test_parse_csv_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        parse_csv("k,entropy\n1,0.0\n")


def test_render_json_keys():
    config = RunConfig(model="sphere", k_min=1, k_max=2, reproducible=True)
    payload = json.loads(render_json(run(config)))
    assert len(payload) == 2
    assert set(payload[0]) == set(CSV_HEADER.split(","))


def test_reproducible_runs_are_identical():
    config = RunConfig(model="torus", k_min=3, k_max=5, reproducible=True)
    first = render_csv(run(config))
    second = render_csv(run(config))
    assert first == second
    assert all(line.endswith(",0") for line in first.strip().splitlines()[1:])


def test_verify_identities_sphere():
    config = RunConfig(model="sphere", k_min=1, k_max=5)
    checks = verify_identities(config)
    assert all(check.passed for check in checks)
    names = {check.name for check in checks}
    assert names == {"distance_vs_entropy", "binomial_square_sum"}


def test_verify_identities_circle():
    config = RunConfig(model="sphere", k_min=1, k_max=7, submanifold="circle")
    checks = verify_identities(config)
    assert all(check.passed for check in checks)
    assert any(check.name == "circle_quadrature_vs_closed_form"
               for check in checks)
    exact = [c for c in checks if c.name == "binomial_square_sum"]
    assert all("exact integers" in c.detail for c in exact)


def test_verify_identities_binomial_log_space():
    from lagstate.cli import _binomial_square_sum_check
    check = _binomial_square_sum_check(45)
    assert check.passed
    assert "log-space" in check.detail


def test_main_report_ok(capsys):
    code = main(["report", "--k-min", "1", "--k-max", "3", "--reproducible"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0] == CSV_HEADER
    assert len(captured.out.strip().splitlines()) == 4


def test_main_report_tolerance_exit(capsys):
    code = main(["report", "--k-min", "1", "--k-max", "2",
                 "--tol-entropy", "1e-18"])
    captured = capsys.readouterr()
    assert code == 1
    assert "TOLERANCE BREACH" in captured.err


def test_main_usage_errors(capsys):
    code = main(["report", "--model", "torus", "--submanifold", "circle",
                 "--k-min", "3", "--k-max", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")

    code = main(["report", "--model", "torus", "--k-min", "2", "--k-max", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert "k >= 3" in captured.err


@pytest.mark.parametrize("flag", [
    "--tol-entropy=nan", "--tol-gram=nan", "--tol-gram=inf",
    "--tol-identity=-1e-9", "--tol-entropy=-inf",
])
def test_main_rejects_bad_tolerances(capsys, flag):
    code = main(["report", "--k-min", "1", "--k-max", "2", flag])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "finite and non-negative" in captured.err
    assert captured.out == ""


def test_main_rejects_seed_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--k-min", "1", "--k-max", "2", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "gram"])
def test_main_rejects_quad_angular_flag(capsys, command):
    # The periodic rules have one aliasing-free size, so they take no count.
    k_flags = ["--k-min", "1"] if command == "report" else ["--k", "3"]
    with pytest.raises(SystemExit) as exc:
        main([command, *k_flags, "--quad-angular", "12"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quad-angular 12" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "verify", "state", "gram"])
def test_main_rejects_quad_radial_flag(capsys, command):
    # Both Gauss-Legendre rules run at their certified size, so no command
    # takes a node count.
    k_flags = ["--k-max", "2"] if command in ("report", "verify") else ["--k", "3"]
    with pytest.raises(SystemExit) as exc:
        main([command, *k_flags, "--quad-radial", "64"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lagstate")
    assert "unrecognized arguments: --quad-radial 64" in err


@pytest.mark.parametrize("argv", [["report", "--k-max", "2"],
                                  ["state", "--k", "3"]])
@pytest.mark.parametrize("target, reason", [
    ("missing/x.csv", "No such file or directory"), (".", "Is a directory")])
def test_main_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, target,
                                               reason):
    out = str(tmp_path / target)
    code = main(argv + ["--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: cannot write --out {out}: {reason}\n"
    assert captured.out == ""


def test_main_numerical_failure_is_an_error_line(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("torus antidiagonal coefficients deviate")

    monkeypatch.setattr(states, "antidiagonal_state", fail)
    code = main(["report", "--model", "torus", "--k-min", "3", "--k-max", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: torus antidiagonal coefficients deviate\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_main_verify_torus_skips_binomial(capsys):
    code = main(["verify", "--model", "torus", "--k-min", "3", "--k-max", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 2
    assert all(line.startswith("PASS distance_vs_entropy") for line in lines)


def test_main_torus_large_mu(capsys):
    code = main(["report", "--model", "torus", "--mu", "1e17", "--k-min", "3",
                 "--k-max", "5"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    rows = parse_csv(captured.out)
    assert [row.k for row in rows] == [3, 4, 5]
    for row in rows:
        assert abs(row.entropy - math.log(row.k)) <= 1e-6


@pytest.mark.parametrize("argv,rows,eigh,svd", [
    (["report", "--k-min", "1", "--k-max", "4"], 4, 1, 1),
    (["verify", "--k-min", "1", "--k-max", "4"], 4, 1, 1),
    (["verify", "--submanifold", "circle", "--k-min", "2", "--k-max", "5"],
     4, 1, 0),
    (["state", "--k", "4", "--format", "json"], 1, 1, 1),
])
def test_one_factorization_per_state(monkeypatch, capsys, argv, rows, eigh, svd):
    calls = {"eigh": 0, "svd": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(entanglement, "hermitian_eigen",
                        counted("eigh", entanglement.hermitian_eigen))
    monkeypatch.setattr(entanglement, "svd", counted("svd", entanglement.svd))
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == {"eigh": eigh * rows, "svd": svd * rows}


def test_python_m_lagstate():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "lagstate", "report",
         "--k-min", "1", "--k-max", "2", "--reproducible"],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == CSV_HEADER


def test_main_verify(capsys):
    code = main(["verify", "--k-min", "1", "--k-max", "4"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines
    assert all(line.startswith("PASS") for line in lines)


def test_main_out_files_reproducible(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code = main(["report", "--model", "torus", "--k-min", "3",
                     "--k-max", "5", "--reproducible", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_main_state_json(capsys):
    code = main(["state", "--k", "3", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["d"] == 4
    assert payload["maximally_entangled"] is True
    assert len(payload["schmidt_spectrum"]) == 4
    assert abs(math.fsum(payload["schmidt_spectrum"]) - 1.0) <= 1e-12
    assert len(payload["coeffs_real"]) == 4


@pytest.mark.parametrize("argv, k", [
    (["--k", "1"], 1), (["--k", "7"], 7),
    (["--k", "4", "--submanifold", "circle"], 4),
    (["--k", "3", "--model", "torus", "--mu", "0.37"], 3),
    (["--k", "6", "--model", "torus", "--mu", "0.37"], 6)])
def test_main_state_provenance_node_counts(capsys, argv, k):
    # perfbench derives its node counters from these provenance keys.
    assert main(["state", "--format", "json", "--reproducible"] + argv) == 0
    prov = json.loads(capsys.readouterr().out)["provenance"]
    if prov["model"] == "torus":
        n_max = theta_truncation(TorusModel(k, mu=0.37)).n_max
        assert prov["n_max"] == n_max
        assert prov["m_x"] == 2 * k * (2 * n_max + 1)
        assert prov["n_y"] == 64
        return
    assert prov["angular_nodes"] == 2 * k + 2
    if prov["submanifold"] == "antidiagonal":
        assert prov["radial_nodes"] == (k + 3) // 2


def test_main_state_csv(capsys):
    code = main(["state", "--k", "2", "--submanifold", "circle"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "j,l,re,im"
    assert "j,alpha" in lines


def test_main_gram_json(capsys):
    code = main(["gram", "--k", "4", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["normalized_residual"] <= 1e-12
    assert len(payload["gram_real"]) == 5


def test_main_gram_torus(capsys):
    code = main(["gram", "--model", "torus", "--k", "3", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["normalized_residual"] <= 1e-7
    assert len(payload["gram_real"]) == 3


def test_main_gram_csv(capsys):
    code = main(["gram", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0] == "j,l,re,im"


def test_main_calls_share_parser_not_state(capsys):
    from lagstate.cli import _parser
    assert _parser() is _parser()
    assert main(["report", "--model", "torus", "--mu", "0.37", "--k-min", "3",
                 "--k-max", "4", "--reproducible"]) == 0
    torus_out = capsys.readouterr().out
    # A default sphere run right after: no torus flag carries over.
    assert main(["report", "--reproducible"]) == 0
    sphere_out = capsys.readouterr().out
    assert torus_out == render_csv(run(RunConfig(
        model="torus", mu=0.37, k_min=3, k_max=4, reproducible=True)))
    assert sphere_out == render_csv(run(RunConfig(k_min=1, k_max=10,
                                                  reproducible=True)))
    # A usage error after successful calls still exits 2.
    with pytest.raises(SystemExit) as exc:
        main(["report", "--model", "plane"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_package_import_leaves_cli_unloaded():
    # The package re-exports the library API only, so running the CLI module
    # as a script does not find it imported already.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import sys, lagstate; assert 'lagstate.cli' not in sys.modules"],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
