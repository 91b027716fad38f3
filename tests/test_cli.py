import argparse
import dataclasses
import importlib.util
import json
import math
import os
import pathlib
import signal
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env, near_flat_state, parse_csv, render_csv
from lagstate import cli, entanglement, sphere, states, torus
from lagstate.linalg import RULE_FLOOR, gauss_legendre_01, max_abs, rule_size
from lagstate.sphere import exact_radial_count
from lagstate.torus import TorusModel, theta_truncation
from lagstate.cli import (CSV_HEADER, DEFAULT_TOL_IDENTITY, RunConfig, _parser,
                          main, run, tolerance_breaches, verify_identities)

CIRCLE_K2_ENTROPY = 0.8675632284814612
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


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
    with pytest.raises(ValueError, match="^the circle submanifold is only "
                                         "defined on the sphere model$"):
        RunConfig(model="torus", k_min=3, k_max=4, submanifold="circle")
    with pytest.raises(ValueError, match="k >= 3"):
        RunConfig(model="torus", k_min=2, k_max=4)
    with pytest.raises(ValueError, match="empty k range"):
        RunConfig(model="sphere", k_min=5, k_max=4)
    with pytest.raises(ValueError, match="mu is the torus character"):
        RunConfig(model="sphere", k_min=1, k_max=2, mu=0.37)
    with pytest.raises(ValueError, match="mu must be finite"):
        RunConfig(model="torus", k_min=3, k_max=4, mu=math.nan)
    # The k range has no default here: the CLI's starts at the model's K_MIN.
    with pytest.raises(TypeError, match="k_min"):
        RunConfig(model="torus")
    # The output format and path are main's, not the sweep's.
    with pytest.raises(TypeError):
        RunConfig(k_min=1, k_max=2, fmt="csv")
    with pytest.raises(TypeError):
        RunConfig(k_min=1, k_max=2, out="x")
    # The torus resolution is certified at THETA_TOL, so no field sets it.
    with pytest.raises(TypeError, match="theta_tol"):
        RunConfig(model="torus", k_min=3, k_max=3, theta_tol=1e-3)


@pytest.mark.parametrize("model, k, mu", [
    ("sphere", 0, 0.0), ("sphere", -4, 0.0), ("torus", 2, 0.0),
    ("torus", 0, 0.37), ("torus", 3, math.nan), ("torus", 4, -math.inf),
    ("torus", 2, math.nan)])
def test_config_raises_the_models_own_message(model, k, mu):
    # RunConfig checks k_min and mu by building the model at k_min.
    with pytest.raises(ValueError) as want:
        if model == "torus":
            TorusModel(k, mu)
        else:
            sphere.SphereModel(k)
    with pytest.raises(ValueError) as got:
        RunConfig(model=model, k_min=k, k_max=k + 1, mu=mu)
    assert str(got.value) == str(want.value)


def test_run_sphere_antidiagonal():
    config = RunConfig(model="sphere", k_min=1, k_max=10)
    rows = list(run(config))
    assert [row.k for row in rows] == list(range(1, 11))
    for row in rows:
        assert row.d_k == row.k + 1
        assert row.entropy_residual <= 1e-9
        assert abs(row.ln_d_k - math.log(row.k + 1.0)) <= 1e-15
        assert abs(row.raw_norm - math.sqrt(row.d_k)) <= 1e-10
        assert abs(row.separable_distance - row.corollary_rhs) <= 1e-9
        assert row.gram_residual <= 1e-12
        assert not tolerance_breaches(config, row)


def test_run_torus_antidiagonal():
    config = RunConfig(model="torus", k_min=3, k_max=8, mu=0.37)
    rows = list(run(config))
    for row in rows:
        assert row.d_k == row.k
        assert row.entropy_residual <= 1e-6
        assert row.gram_residual <= 1e-7
        assert not tolerance_breaches(config, row)


def test_run_circle():
    config = RunConfig(model="sphere", k_min=1, k_max=6, submanifold="circle")
    rows = list(run(config))
    for row in rows:
        assert row.entropy_residual <= 1e-10
    assert abs(rows[0].entropy - math.log(2.0)) <= 1e-12
    assert abs(rows[1].entropy - CIRCLE_K2_ENTROPY) <= 1e-10


def test_tolerance_breaches_reported():
    config = RunConfig(model="sphere", k_min=1, k_max=3, tol_entropy=1e-18,
                       tol_gram=1e-18)
    messages = [message for row in run(config)
                for message in tolerance_breaches(config, row)]
    assert messages
    assert any("entropy_residual" in m for m in messages)


def test_csv_round_trip_is_exact():
    config = RunConfig(model="sphere", k_min=1, k_max=5, reproducible=True)
    rows = list(run(config))
    text = render_csv(rows)
    assert text.splitlines()[0] == CSV_HEADER
    parsed = parse_csv(text)
    assert parsed == rows
    assert render_csv(parsed) == text


def test_parse_csv_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        parse_csv("k,entropy\n1,0.0\n")


def test_render_json_keys(capsys):
    assert main(["report", "--k-max", "2", "--reproducible",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
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
    checks = [check for row in run(config)
              for check in verify_identities(config, row)]
    assert [check.k for check in checks] == [k for k in range(1, 6)
                                             for _ in range(2)]
    assert all(check.passed for check in checks)
    names = {check.name for check in checks}
    assert names == {"distance_vs_entropy", "binomial_square_sum"}


def test_verify_identities_circle():
    config = RunConfig(model="sphere", k_min=1, k_max=7, submanifold="circle")
    checks = [check for row in run(config)
              for check in verify_identities(config, row)]
    assert all(check.passed for check in checks)
    names = {check.name for check in checks}
    assert names == {"binomial_square_sum", "circle_distance_vs_closed_form"}
    exact = [c for c in checks if c.name == "binomial_square_sum"]
    assert all("exact integers" in c.detail for c in exact)


def test_verify_identities_binomial_exact():
    # Exact integers at every k, and the detail line does not print them.
    from lagstate.cli import _binomial_square_sum_check
    for k in (45, 1000):
        check = _binomial_square_sum_check(k)
        assert check.passed
        assert check.detail == "sum C(k,j)^2 = C(2k,k) (exact integers)"


@pytest.mark.parametrize("tol_identity", [DEFAULT_TOL_IDENTITY, 0.0])
@pytest.mark.parametrize("kwargs", [
    dict(model="sphere", k_min=1, k_max=6),
    dict(model="sphere", k_min=1, k_max=6, submanifold="circle"),
    dict(model="torus", mu=0.37, k_min=3, k_max=6),
])
def test_verify_identities_line_order(kwargs, tol_identity):
    # verify prints these lines in this order: on antidiagonal rows the
    # distance check first, then the sphere's binomial check; on circle rows
    # the binomial check first.  At tol_identity = 0 a nonzero gap fails.
    config = RunConfig(tol_identity=tol_identity, **kwargs)
    got, want = [], []
    for row in run(config):
        got += [(c.k, c.passed, c.name, c.detail)
                for c in verify_identities(config, row)]
        binomial = ([(row.k, True, "binomial_square_sum",
                      "sum C(k,j)^2 = C(2k,k) (exact integers)")]
                    if config.model == "sphere" else [])
        if config.submanifold == "antidiagonal":
            gap = abs(row.separable_distance - row.corollary_rhs)
            want += [(row.k, gap <= tol_identity, "distance_vs_entropy",
                      f"|D - sqrt(1-e^-nu)| = {gap:.3e}"), *binomial]
        else:
            gap = abs(row.separable_distance - row.closed_form_distance)
            want += [*binomial, (row.k, gap <= tol_identity,
                                 "circle_distance_vs_closed_form",
                                 f"|D - sqrt(1 - C(k,k//2)^2/C(2k,k))| = {gap:.3e}")]
    assert got == want
    assert any(not passed for _, passed, _, _ in got) == (tol_identity == 0.0)


@pytest.mark.parametrize("submanifold, name", [
    ("antidiagonal", "distance_vs_entropy"),
    ("circle", "circle_distance_vs_closed_form")])
def test_verify_fails_a_distance_moved_by_1e_8(submanifold, name):
    # A real row passes its distance check at the default tolerance, and
    # fails it once its distance moves by 1e-8, ten times that tolerance.
    config = RunConfig(k_min=6, k_max=6, submanifold=submanifold)
    row = next(run(config))
    moved = dataclasses.replace(row, separable_distance=row.separable_distance + 1e-8)
    verdicts = [[(c.name, c.passed) for c in verify_identities(config, r)
                 if c.name == name] for r in (row, moved)]
    assert verdicts == [[(name, True)], [(name, False)]]


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
    command = "verify" if flag.startswith("--tol-identity") else "report"
    code = main([command, "--k-min", "1", "--k-max", "2", flag])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "finite and non-negative" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    # Nothing is random, so no command takes a seed.
    pytest.param(["report", "--k-min", "1", "--k-max", "2", "--seed", "1"],
                 id="report-seed"),
    # The periodic rules have one aliasing-free size, so they take no count.
    pytest.param(["report", "--k-min", "1", "--quad-angular", "12"],
                 id="report-quad-angular"),
    pytest.param(["gram", "--k", "3", "--quad-angular", "12"],
                 id="gram-quad-angular"),
    # Both Gauss-Legendre rules run at their certified size, so no command
    # takes a node count.
    *[pytest.param([command, *k_flags, "--quad-radial", "64"],
                   id=f"{command}-quad-radial")
      for command, k_flags in (("report", ["--k-max", "2"]),
                               ("verify", ["--k-max", "2"]),
                               ("state", ["--k", "3"]),
                               ("gram", ["--k", "3"]))],
    # The torus resolution is certified at THETA_TOL, so no flag sets it.
    pytest.param(["report", "--model", "torus", "--k-min", "3", "--k-max", "3",
                  "--theta-tol", "1e-3"], id="report-theta-tol")])
def test_main_rejects_unread_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lagstate")
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


# Each subcommand's flags, the ones it reads and no other.
COMMAND_FLAGS = {
    "report": {"--k-min", "--k-max", "--model", "--mu", "--submanifold",
               "--format", "--out", "--tol-entropy", "--tol-gram",
               "--reproducible"},
    "verify": {"--k-min", "--k-max", "--model", "--mu", "--submanifold",
               "--out", "--tol-gram", "--tol-identity"},
    "state": {"--k", "--model", "--mu", "--submanifold", "--format", "--out"},
    "gram": {"--k", "--model", "--mu", "--format", "--out"},
}
ALL_FLAGS = set().union(*COMMAND_FLAGS.values())


def test_subcommand_flag_sets():
    # The top level names each command, and each command's parser holds
    # its flags alone.
    sub = next(a for a in _parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMAND_FLAGS)
    for command, parser in sub.choices.items():
        options = {opt for action in parser._actions
                   for opt in action.option_strings} - {"-h", "--help"}
        assert options == COMMAND_FLAGS[command], command
        # The submanifold choices are the table's names, in its order.
        assert all(action.choices == tuple(cli.SUBMANIFOLDS)
                   for action in parser._actions if action.dest == "submanifold")


def _oracle_parser() -> argparse.ArgumentParser:
    """The full tree: a top-level parser with one subparser per command,
    each holding that command's flags, as the CLI built on every call."""
    parser = argparse.ArgumentParser(
        prog="lagstate", allow_abbrev=False,
        description="Entanglement sweeps for states built from Lagrangian "
                    "submanifolds of the sphere and torus models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in cli.COMMAND_FLAGS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        for flag in flags.split():
            p.add_argument(flag, **cli.FLAGS[flag])
    return parser


class _Parsed(Exception):
    pass


def _config_or_error(args):
    try:
        return cli._config_from_args(args)
    except ValueError as exc:
        return f"ValueError: {exc}"


ARGV_CORPUS = [
    [], ["-h"], ["--help"], ["--help", "report"],
    *[[command, "-h"] for command in cli.COMMAND_FLAGS],
    ["plane"], ["plane", "--k", "3"], ["--k", "3", "report"],
    ["--bogus", "report", "--k-max", "1"], ["--bogus", "report", "-h"],
    ["report", "--k-max", "1", "--bogus", "-h"],
    # Each flag of another subcommand.
    *[[command, flag, *([] if flag == "--reproducible" else ["3"])]
      for command, (_, flags) in cli.COMMAND_FLAGS.items()
      for flag in sorted(ALL_FLAGS - set(flags.split()))],
    ["report", "--repro"], ["report", "--form", "json"],
    ["state", "--k", "3", "--mod", "torus"],
    ["report", "--k-max"], ["state"], ["state", "--k"], ["gram", "--model", "torus"],
    ["report", "--k-max", "x"], ["state", "--k", "2.5"], ["report", "--tol-gram", "abc"],
    ["verify", "--mu", "1e"], ["report", "--model", "plane"],
    ["state", "--k", "3", "--format", "xml"], ["report", "--submanifold", "line"],
    ["report", "--model", "torus", "--mu=-1e-3", "--k-max", "3"],
    ["report", "--model", "torus", "--mu", "-1.2"], ["report", "--mu", "-1.2"],
    ["--", "report", "--k-max", "1"], ["--", "-h"], ["report", "--", "--k-max", "1"],
    ["report", "--k-max", "1", "--"], ["report", "--k-max", "1", "--", "extra"],
    ["report", "--k-max", "1", "--k-max", "2"], ["state", "--k", "3", "--k", "4"],
    ["report", "--k-max=2", "--format=json", "--reproducible", "--out", "x.csv"],
    ["verify", "--k-min", "2", "--tol-identity", "1e-3", "--submanifold", "circle"],
    ["gram", "--k", "4", "--model", "torus", "--mu", "0.37", "--format", "json"],
    ["state", "--k", "0"], ["report", "--model", "torus", "--submanifold", "circle"],
    # Values argparse reads in its own way: empty, "-", negative numbers,
    # an explicit empty or "="-holding value, a space in an int.
    ["report", "--out", ""], ["report", "--out", "-"], ["report", "--out="],
    ["report", "--mu", "-1e-3"], ["report", "--mu=-1e-3"], ["report", "--reproducible=1"],
    ["report", "--k-max="], ["report", "--k-max=2=3"], ["report", "--k-max", " 2"],
    ["report", "--k-max", "1", "-h"], ["report", "--k-max", "1", "--out", "-h"],
    ["report", "--reproducible", "--k-max", "1", "--reproducible"],
    ["state", "--model", "torus", "--mu", "0.37"], ["report"],
    ["gram", "--k=4", "--format=csv"],
    ["verify", "--k-min", "3", "--submanifold", "circle", "--out", "a=b"],
]


@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=lambda argv: " ".join(argv) or "-")
def test_main_parses_argv_as_the_full_tree(monkeypatch, capsys, argv):
    # The same exit code, stdout and stderr as the full tree, and for an
    # accepted argv the same flags and so the same RunConfig.
    def stop(args):
        raise _Parsed(args)

    def outcome(parse):
        try:
            args, code = parse(), None
        except _Parsed as parsed:
            args, code = parsed.args[0], None
        except SystemExit as exc:
            args, code = None, exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err, args

    want = outcome(lambda: _oracle_parser().parse_args(list(argv)))
    # The table reader accepts only argv that argparse accepts, with the
    # same flags; the rest it leaves to argparse.
    read = (cli._read_flags(argv[0], argv[1:])
            if argv and argv[0] in cli.COMMAND_FLAGS else None)
    if read is not None:
        assert want[3] is not None
        assert vars(read) == vars(want[3])
    monkeypatch.setattr(cli, "_config_from_args", stop)
    got = outcome(lambda: main(list(argv)))
    monkeypatch.undo()
    assert got[:3] == want[:3]
    assert (got[3] is None) == (want[3] is None)
    if want[3] is not None:
        assert vars(got[3]) == vars(want[3])
        assert _config_or_error(got[3]) == _config_or_error(want[3])


def test_a_usage_error_builds_the_full_tree_once(monkeypatch, capsys):
    # A well-formed call builds no parser.  A usage error builds the full
    # tree once: the top level's -h, then each command's -h and flags.
    built = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *names, **kwargs):
        built.append((self.prog, names))
        return add_argument(self, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    assert main(["report", "--k-max", "1", "--reproducible"]) == 0
    assert built == []
    with pytest.raises(SystemExit) as exc:
        main(["report", "--k-max", "x"])
    assert exc.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    assert built == [("lagstate", ("-h", "--help")), *[
        entry for command, (_, flags) in cli.COMMAND_FLAGS.items()
        for entry in [(f"lagstate {command}", ("-h", "--help")),
                      *[(f"lagstate {command}", (flag,)) for flag in flags.split()]]]]


def test_a_well_formed_call_imports_no_argparse():
    # Its flags are read from the FLAGS table, so neither argparse nor the
    # locale module its messages would load is imported.
    script = (
        "import sys\n"
        "from lagstate.cli import main\n"
        "assert main(['report', '--k-max', '1', '--reproducible']) == 0\n"
        "assert 'argparse' not in sys.modules\n"
        "assert 'locale' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          capture_output=True, text=True, env=child_env(),
                          check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(CSV_HEADER)


def test_every_benchmark_call_is_read_from_the_flag_table(monkeypatch):
    # Each argv of the benchmark's workloads (perfbench/run.py) is a clean
    # call: the table reader reads it, and no parser is built.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports oracle
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    argvs = [workload.argv(k) for workload in bench.WORKLOADS.values()
             for k in workload.ks]
    assert argvs
    for argv in argvs:
        read = cli._read_flags(argv[0], argv[1:])
        assert read is not None and read.command == argv[0], argv


@pytest.mark.parametrize("command, flag", sorted(
    (command, flag) for command, flags in COMMAND_FLAGS.items()
    for flag in ALL_FLAGS - flags))
def test_main_rejects_flags_the_command_does_not_read(capsys, command, flag):
    k_flags = ["--k-max", "2"] if command in ("report", "verify") else ["--k", "2"]
    value = [] if flag == "--reproducible" else ["0"]
    with pytest.raises(SystemExit) as exc:
        main([command, *k_flags, flag, *value])
    assert exc.value.code == 2
    # No flag answers to a prefix, so --k is not read as --k-min or --k-max.
    message = f"unrecognized arguments: {' '.join([flag, *value])}"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("abbreviation", [["--repro"], ["--form", "json"]])
def test_main_rejects_flag_abbreviations(capsys, abbreviation):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--k-max", "1", *abbreviation])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(abbreviation)}" in err


@pytest.mark.parametrize("argv", [["report", "--k-max", "2"],
                                  ["state", "--k", "2"], ["gram", "--k", "2"]])
def test_main_rejects_mu_on_the_sphere(capsys, argv):
    code = main(argv + ["--mu", "0.37"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: mu is the torus character parameter")
    assert captured.out == ""


def test_main_verify_circle_defect_uses_tol_gram(capsys):
    # tolerance_breaches is the one judge of the circle defect: a breach
    # line on stderr, and no identity check on stdout repeats it.
    code = main(["verify", "--submanifold", "circle", "--k-min", "2",
                 "--k-max", "6", "--tol-gram", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert any(line.startswith("TOLERANCE BREACH k=") and "gram_residual" in line
               for line in captured.err.splitlines())
    assert "circle_quadrature_vs_closed_form" not in captured.out
    assert all(line.startswith("PASS ") for line in captured.out.splitlines())


def test_main_verify_fails_a_non_maximal_antidiagonal_state(monkeypatch, capsys):
    # The distance identity is checked on every antidiagonal row, so a state
    # that is not maximally entangled fails it instead of skipping it.
    def skewed(model):
        coeffs = np.diag([1.0, 2.0, 3.0]).astype(complex)
        return states.LagrangianState(coeffs, math.sqrt(14.0),
                                      {"closed_form_defect": 0.0,
                                       "closed_form_entropy": math.log(3.0),
                                       "closed_form_distance": math.sqrt(2 / 3)})

    monkeypatch.setattr(states, "antidiagonal_state", skewed)
    code = main(["verify", "--k-min", "2", "--k-max", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[0].startswith("FAIL distance_vs_entropy k=2:")
    assert lines[1].startswith("PASS binomial_square_sum k=2:")


@pytest.mark.parametrize("model", cli.MODELS)
@pytest.mark.parametrize("submanifold", cli.SUBMANIFOLDS)
def test_submanifold_table_decides_each_pair(monkeypatch, capsys,
                                             submanifold, model):
    # SUBMANIFOLDS is the one list of submanifolds: which models each runs
    # on, and which builder in states builds its rows, looked up at each
    # call and called once per k.
    builder, defined_on = cli.SUBMANIFOLDS[submanifold]
    calls = []
    build = getattr(states, builder)
    monkeypatch.setattr(states, builder,
                        lambda m: calls.append(m.k) or build(m))
    k_min = cli.MODELS[model].K_MIN
    code = main(["verify", "--model", model, "--submanifold", submanifold,
                 "--k-min", str(k_min), "--k-max", str(k_min + 1)])
    captured = capsys.readouterr()
    if model in defined_on:
        assert code == 0, captured.err
        assert calls == [k_min, k_min + 1]
    else:
        assert code == 2
        assert captured.err == (f"error: the {submanifold} submanifold is only "
                                f"defined on the {' and '.join(defined_on)} "
                                f"model\n")
        assert captured.out == "" and calls == []


def test_main_verify_reads_the_distance_the_builder_records(monkeypatch,
                                                            capsys):
    # Check (c) compares each row's distance with the closed_form_distance
    # its builder records, not with a value recomputed from k.
    build = states.circle_state_quadrature

    def misrecorded(model):
        state = build(model)
        distance = state.provenance["closed_form_distance"] + 1e-6
        return dataclasses.replace(state, provenance={
            **state.provenance, "closed_form_distance": distance})

    monkeypatch.setattr(states, "circle_state_quadrature", misrecorded)
    code = main(["verify", "--submanifold", "circle", "--k-min", "2",
                 "--k-max", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[0].startswith("PASS binomial_square_sum k=2:")
    assert lines[1].startswith("FAIL circle_distance_vs_closed_form k=2: "
                               "|D - sqrt(1 - C(k,k//2)^2/C(2k,k))| = 1.0")


@pytest.mark.parametrize("submanifold, model", [
    (submanifold, model) for submanifold, (_, on) in cli.SUBMANIFOLDS.items()
    for model in on])
def test_report_rows_meet_their_recorded_distance(submanifold, model):
    k_min = cli.MODELS[model].K_MIN
    config = RunConfig(k_min=k_min, k_max=k_min + 30, model=model,
                       mu=0.37 if model == "torus" else 0.0,
                       submanifold=submanifold)
    for row in run(config):
        gap = abs(row.separable_distance - row.closed_form_distance)
        assert gap <= config.tol_identity, (row.k, gap)


def test_report_is_independent_of_blas_threads():
    # raw_norm is summed without BLAS, whose summation order follows its
    # thread count; these torus rows differed in the last bits before.
    outputs = []
    for threads in ("1", "2"):
        env = child_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "lagstate", "report", "--model", "torus",
             "--mu", "0.37", "--k-min", "150", "--k-max", "152",
             "--reproducible"],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_circle_gram_residual_is_the_verify_defect(capsys):
    # A circle row reports its state's defect from the binomial closed form,
    # the number behind verify's TOLERANCE BREACH line at --tol-gram 0.
    config = RunConfig(submanifold="circle", k_min=1, k_max=12)
    rows = list(run(config))
    for row in rows:
        state = states.circle_state_quadrature(sphere.SphereModel(row.k))
        defect = max_abs(state.normalized()
                         - states.circle_state_closed_form(row.k))
        assert row.gram_residual == defect
    assert main(["verify", "--submanifold", "circle", "--k-min", "1",
                 "--k-max", "12", "--tol-gram", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"TOLERANCE BREACH k={row.k}: gram_residual {row.gram_residual:.3e} "
        "exceeds 0" for row in rows if row.gram_residual > 0.0]
    assert "circle_quadrature_vs_closed_form" not in captured.out


@pytest.mark.parametrize("k", [700, 1000])
def test_main_circle_report_at_large_k(capsys, k):
    # The row's residual is the circle state's own; the sphere Gram that
    # breached 1e-12 here belongs to the antidiagonal state.
    code = main(["report", "--submanifold", "circle", "--k-min", str(k),
                 "--k-max", str(k), "--reproducible"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    (row,) = parse_csv(captured.out)
    assert 0.0 < row.gram_residual <= 1e-12


@pytest.mark.parametrize("argv", [["report", "--k-max", "2"],
                                  ["state", "--k", "3"]])
@pytest.mark.parametrize("target, reason", [
    ("missing/x.csv", "No such file or directory"), (".", "Is a directory")])
def test_main_unwritable_out_is_a_usage_error(monkeypatch, tmp_path, capsys,
                                               argv, target, reason):
    # The file is opened before the sweep, so no state is built for nothing.
    built = []
    monkeypatch.setattr(cli, "_build_state", lambda config, k: built.append(k))
    out = str(tmp_path / target)
    code = main(argv + ["--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: cannot write --out {out}: {reason}\n"
    assert captured.out == ""
    assert built == []


@pytest.mark.parametrize("argv, err", [
    pytest.param(argv, err, id=f"argv{i}") for i, (argv, err) in enumerate([
        (["report", "--model", "torus", "--mu", "nan"], "mu must be finite"),
        (["report", "--model", "torus", "--mu", "inf", "--k-max", "3"],
         "mu must be finite"),
        (["state", "--model", "torus", "--mu=-inf", "--k", "3"],
         "mu must be finite"),
        (["state", "--model", "torus", "--mu", "nan", "--k", "4", "--format",
          "json"], "mu must be finite"),
        (["report", "--k-min", "0"], "sphere model needs k >= 1, got 0"),
        (["state", "--model", "torus", "--k", "2"],
         "torus model needs k >= 3, got 2")])])
def test_main_non_finite_mu_leaves_out_intact(tmp_path, capsys, argv, err):
    # Every bad flag value fails before --out is opened, mu and k included.
    keep = tmp_path / "keep.txt"
    keep.write_bytes(b"keep\n")
    code = main(argv + ["--out", str(keep)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""
    assert keep.read_bytes() == b"keep\n"


def test_main_numerical_failure_is_an_error_line(monkeypatch, capsys):
    message = ("jacobi svd did not converge in 30 sweeps; worst off-diagonal "
               "ratio 1.000e-03")

    def fail(*args, **kwargs):
        raise RuntimeError(message)

    monkeypatch.setattr(entanglement, "svd", fail)
    code = main(["report", "--model", "torus", "--k-min", "3", "--k-max", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""


def _sphere_gram_defect(monkeypatch, k, defect):
    """Shift one diagonal entry of the sphere Gram by ``defect`` at ``k``."""
    exact = sphere.gram_matrix

    def shifted(model):
        gram = exact(model).copy()
        if model.k == k:
            gram[0, 0] += defect
        return gram

    monkeypatch.setattr(sphere, "gram_matrix", shifted)


def _torus_gram_defect(monkeypatch, defect):
    """Shift the first raw torus Gram diagonal entry by ``defect`` relative
    to the closed-form squared norm 1/sqrt(2k), at every k."""
    exact = torus.gram_quadrature

    def shifted(model):
        gram, resolution = exact(model)
        gram = gram.copy()
        gram[0, 0] += defect / math.sqrt(2.0 * model.k)
        return gram, resolution

    monkeypatch.setattr(torus, "gram_quadrature", shifted)


def test_main_report_gates_a_sphere_gram_defect_in_its_row(monkeypatch, capsys):
    # The builder records the defect; the CLI's Gram gate alone judges it,
    # so the other rows still print and the breach names its row.
    _sphere_gram_defect(monkeypatch, 5, 1e-9)
    argv = ["report", "--k-min", "3", "--k-max", "6", "--reproducible"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    rows = parse_csv(captured.out)
    assert [row.k for row in rows] == [3, 4, 5, 6]
    assert rows[2].gram_residual == pytest.approx(1e-9, rel=1e-6)
    (line,) = captured.err.splitlines()
    assert line.startswith("TOLERANCE BREACH k=5: gram_residual ")
    assert line.endswith(" exceeds 1e-12")

    # --tol-gram loosens the one gate, past the builder's former 1e-10.
    code = main(argv + ["--tol-gram", "1e-8"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert len(parse_csv(captured.out)) == 4


def test_main_report_gates_a_torus_gram_defect(monkeypatch, capsys):
    _torus_gram_defect(monkeypatch, 1e-6)
    argv = ["report", "--model", "torus", "--k-min", "3", "--k-max", "4",
            "--reproducible"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert len(parse_csv(captured.out)) == 2
    lines = captured.err.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "TOLERANCE BREACH k=3", "TOLERANCE BREACH k=4"]
    assert all("gram_residual" in line and line.endswith(" exceeds 1e-07")
               for line in lines)

    code = main(argv + ["--tol-gram", "1e-5"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert len(parse_csv(captured.out)) == 2


def test_main_verify_gates_a_sphere_gram_defect(monkeypatch, capsys):
    _sphere_gram_defect(monkeypatch, 5, 1e-9)
    code = main(["verify", "--k-min", "3", "--k-max", "6"])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.out.splitlines()
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines)
    (line,) = captured.err.splitlines()
    assert line.startswith("TOLERANCE BREACH k=5: gram_residual ")


def test_a_negative_zero_tolerance_is_zero(capsys):
    config = RunConfig(k_min=1, k_max=1, tol_entropy=-0.0, tol_gram=-0.0,
                       tol_identity=-0.0)
    for name in ("tol_entropy", "tol_gram", "tol_identity"):
        assert math.copysign(1.0, getattr(config, name)) == 1.0, name
    assert main(["report", "--k-max", "1", "--tol-gram", "-0.0",
                 "--reproducible"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("TOLERANCE BREACH k=1: gram_residual ")
    assert line.endswith(" exceeds 0")


def test_main_verify_reads_tol_gram_on_antidiagonal_rows(capsys):
    # Every sphere residual at k = 1..3 is above zero (about 1e-16).
    code = main(["verify", "--k-max", "3", "--tol-gram", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert all(line.startswith("PASS") for line in captured.out.splitlines())
    lines = captured.err.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"TOLERANCE BREACH k={k}" for k in (1, 2, 3)]
    assert all("gram_residual" in line and line.endswith(" exceeds 0")
               for line in lines)


@pytest.mark.parametrize("exc,message", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("Unable to allocate 2.00 GiB"),
     "error: out of memory: Unable to allocate 2.00 GiB\n"),
])
def test_main_memory_error_is_an_error_line(monkeypatch, capsys, exc, message):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(states, "antidiagonal_state", fail)
    code = main(["state", "--k", "20000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == message
    assert captured.out == ""


def test_main_interrupt_is_an_error_line(monkeypatch, capsys):
    def interrupted(config):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run", interrupted)
    code = main(["report", "--k-max", "3"])
    captured = capsys.readouterr()
    assert code == 130
    assert captured.err == "error: interrupted\n"
    assert captured.out == ""


@pytest.mark.parametrize("k_max", ["3", "300"])
def test_main_closed_stdout_exits_quietly(k_max):
    # The read end of the child's stdout pipe is closed before the child
    # starts, so its first write fails with EPIPE.
    env = child_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lagstate", "report", "--k-max", k_max],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            check=False)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


NO_SPACE = "No space left on device"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv, code, err", [
    (["report", "--k-max", "3"], 1, f"error: cannot write output: {NO_SPACE}\n"),
    (["state", "--k", "3"], 1, f"error: cannot write output: {NO_SPACE}\n"),
    (["report", "--k-max", "3", "--out", "/dev/full"], 2,
     f"error: cannot write --out /dev/full: {NO_SPACE}\n")])
def test_main_full_device_is_an_error_line(argv, code, err):
    # Every write to /dev/full fails with ENOSPC: one error line, whether the
    # device is stdout or --out, and no second error at the exit flush.
    env = child_env()
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "lagstate", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env, check=False)
    assert proc.returncode == code
    assert proc.stderr == err


BROKEN_STDERR = [
    pytest.param("full", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full")),
    "closed"]


@pytest.mark.parametrize("stderr", BROKEN_STDERR)
@pytest.mark.parametrize("argv, code, lines", [
    (["report", "--k-max", "3", "--tol-gram", "0", "--reproducible"], 1, 4),
    (["verify", "--k-max", "3", "--tol-gram", "0"], 1, 6),
    (["report", "--k-min", "0"], 2, 0)])
def test_main_broken_stderr_keeps_the_rows_and_exit_code(stderr, argv, code,
                                                         lines):
    # With stderr on a full device, or fd 2 closed, the TOLERANCE BREACH and
    # error: lines are lost; the rows and the exit code are as with a
    # working stderr.
    command = [sys.executable, "-m", "lagstate", *argv]
    working = subprocess.run(command, capture_output=True, text=True,
                             env=child_env(), check=False, timeout=120)
    assert working.returncode == code
    assert working.stderr
    with open("/dev/full" if stderr == "full" else os.devnull, "w") as err:
        broken = subprocess.run(
            command, stdout=subprocess.PIPE, stderr=err, text=True,
            env=child_env(), check=False, timeout=120,
            preexec_fn=None if stderr == "full" else lambda: os.close(2))
    assert broken.returncode == code
    assert broken.stdout == working.stdout
    assert len(broken.stdout.splitlines()) == lines


def test_main_interrupt_keeps_the_completed_rows():
    # SIGINT once the first row is out: the rows written so far stay, each
    # one whole.  The child's INT handler is reset to Python's default in
    # case this process was started with the signal ignored.
    env = child_env()
    proc = subprocess.Popen(
        [sys.executable, "-m", "lagstate", "report", "--k-max", "1500"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        head = proc.stdout.readline() + proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    out = head + out
    assert proc.returncode == 130
    assert err == "error: interrupted\n"
    assert out.startswith(CSV_HEADER + "\n")
    lines = out.splitlines()
    assert len(lines) >= 2
    assert all(len(line.split(",")) == 10 for line in lines)


@pytest.mark.parametrize("command", ["report", "verify"])
def test_main_memory_error_keeps_the_completed_rows(monkeypatch, capsys,
                                                    command):
    build = cli._build_state

    def fail_last(config, k):
        if k == 3:
            raise MemoryError
        return build(config, k)

    monkeypatch.setattr(cli, "_build_state", fail_last)
    code = main([command, "--k-min", "1", "--k-max", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: out of memory\n"
    if command == "report":
        assert [row.k for row in parse_csv(captured.out)] == [1, 2]
    else:
        assert [line.split()[:3:2] for line in captured.out.splitlines()] == [
            ["PASS", "k=1:"], ["PASS", "k=1:"], ["PASS", "k=2:"], ["PASS", "k=2:"]]


@pytest.mark.parametrize("argv", [
    ["--k-min", "1", "--k-max", "1"], ["--k-min", "1", "--k-max", "5"],
    ["--model", "torus", "--k-min", "3", "--k-max", "3"],
    ["--model", "torus", "--mu", "0.37", "--k-min", "3", "--k-max", "6"]])
def test_main_json_rows_stream_as_one_list(capsys, argv):
    # The rows are written one at a time, and read as json.dumps of the list
    # of their CSV columns.
    assert main(["report", "--format", "json", "--reproducible", *argv]) == 0
    config = cli._config_from_args(_parser().parse_args(
        ["report", "--reproducible", *argv]))
    rows = [{name: getattr(row, name) for name in CSV_HEADER.split(",")}
            for row in run(config)]
    assert capsys.readouterr().out == json.dumps(rows, indent=2) + "\n"


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


def test_main_negative_mu_in_exponent_form(capsys):
    # argparse reads "-1e-3" after a space as a flag; the "=" form is an
    # argument, and gives the same rows as the decimal form.
    outputs = []
    for mu in (["--mu=-1e-3"], ["--mu", "-0.001"]):
        code = main(["report", "--model", "torus", *mu, "--k-min", "3",
                     "--k-max", "4", "--reproducible"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    assert [row.k for row in parse_csv(outputs[0])] == [3, 4]


@pytest.mark.parametrize("argv,rows,eigh,svd", [
    (["report", "--k-min", "1", "--k-max", "4"], 4, 1, 1),
    (["verify", "--k-min", "1", "--k-max", "4"], 4, 1, 1),
    (["verify", "--submanifold", "circle", "--k-min", "2", "--k-max", "5"],
     4, 1, 1),
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


@pytest.mark.parametrize("model_argv, ks", [
    ([], (1, 2, 3)), (["--model", "torus", "--mu", "0.37"], (3, 4, 5))])
def test_one_model_gram_per_row_and_per_gram_dump(monkeypatch, capsys,
                                                  model_argv, ks):
    # antidiagonal_state and the gram dump both take the Gram from the
    # model's own method, once per k.
    called = []
    for cls in (sphere.SphereModel, torus.TorusModel):
        def counted(model, exact=cls.antidiagonal_gram):
            called.append(model.k)
            return exact(model)
        monkeypatch.setattr(cls, "antidiagonal_gram", counted)
    assert main(["report", "--k-min", str(ks[0]), "--k-max", str(ks[-1])]
                + model_argv) == 0
    assert called == list(ks)
    called.clear()
    for k in ks:
        assert main(["gram", "--k", str(k)] + model_argv) == 0
    assert called == list(ks)
    capsys.readouterr()


def test_a_torus_row_runs_one_gram_quadrature(monkeypatch):
    # The row's Gram is the model's one quadrature; the basis that the
    # quadrature checks computes none of its own.
    calls = []

    def counted(model, exact=torus.gram_quadrature):
        calls.append(model.k)
        return exact(model)

    monkeypatch.setattr(torus, "gram_quadrature", counted)
    rows = list(run(RunConfig(k_min=3, k_max=5, model="torus", mu=0.37,
                              reproducible=True)))
    assert [row.k for row in rows] == calls == [3, 4, 5]


@pytest.mark.parametrize("submanifold", ["antidiagonal", "circle"])
def test_a_sweep_row_holds_one_copy_of_its_state(submanifold):
    # A row builds its state, keeps only the normalized copy, and drops that
    # after the analysis, which reads the diagonal state with one d x d array
    # at a time (c c^T, then the SVD's scaled columns) and sets the peak with
    # it; the builder's own peak, the state and one temporary of its norm, is
    # no higher.
    import tracemalloc
    d = 301
    tracemalloc.start()
    try:
        rows = list(run(RunConfig(k_min=d - 2, k_max=d - 1, reproducible=True,
                                  submanifold=submanifold)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [row.d_k for row in rows] == [d - 1, d]
    assert peak <= 2.3 * 8 * d * d


def test_python_m_lagstate():
    env = child_env()
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


@pytest.mark.parametrize("argv, flat", [
    (["--k", "3"], False), (["--k", "3", "--model", "torus"], True)])
def test_main_state_judges_maximal_entanglement_at_the_model_tol(
        monkeypatch, capsys, argv, flat):
    # ln d - nu = 2e-9: above the sphere's entropy tolerance 1e-9, below the
    # torus's 1e-6.  state reports the verdict and gates nothing.
    c = near_flat_state(4, 2e-9)
    monkeypatch.setattr(cli, "_build_state", lambda config, k: (
        states.LagrangianState(c, 1.0, {"closed_form_defect": 0.0})))
    code = main(["state", "--format", "json"] + argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    assert json.loads(captured.out)["maximally_entangled"] is flat


@pytest.mark.parametrize("argv, k", [
    (["--k", "1"], 1), (["--k", "7"], 7),
    (["--k", "4", "--submanifold", "circle"], 4),
    (["--k", "3", "--model", "torus", "--mu", "0.37"], 3),
    (["--k", "6", "--model", "torus", "--mu", "0.37"], 6)])
def test_main_state_provenance_node_counts(capsys, argv, k):
    # perfbench derives its node counters from these provenance keys.
    assert main(["state", "--format", "json"] + argv) == 0
    prov = json.loads(capsys.readouterr().out)["provenance"]
    if prov["model"] == "torus":
        n_max, _ = theta_truncation(TorusModel(k, mu=0.37))
        assert prov["n_max"] == n_max
        assert prov["m_x"] == 2 * k * (2 * n_max + 1)
        assert prov["n_y"] == RULE_FLOOR
        return
    assert prov["angular_nodes"] == 2 * k + 2
    if prov["submanifold"] == "antidiagonal":
        assert (prov["radial_nodes"] == rule_size(exact_radial_count(k))
                == RULE_FLOOR)


def test_sweeps_share_one_gauss_legendre_rule():
    # Every certified node count in these sweeps rounds up to the shared
    # rule size, so a fresh process builds a single rule for all of them.
    gauss_legendre_01.cache_clear()
    for config in (RunConfig(k_min=1, k_max=120),
                   RunConfig(submanifold="circle", k_min=1, k_max=80),
                   RunConfig(model="torus", mu=0.37, k_min=3, k_max=24)):
        assert not any(tolerance_breaches(config, row) for row in run(config))
    built = gauss_legendre_01.cache_info()
    assert (built.misses, built.currsize) == (1, 1)
    # The one rule built is the RULE_FLOOR one: asking for it builds nothing.
    gauss_legendre_01(RULE_FLOOR)
    assert gauss_legendre_01.cache_info().misses == 1


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


def _dump_and_row(capsys, model_argv, k):
    """``gram``'s normalized_residual and the ``report`` row's gram_residual
    at one k."""
    assert main(["gram", "--format", "json", "--k", str(k)] + model_argv) == 0
    dumped = json.loads(capsys.readouterr().out)["normalized_residual"]
    main(["report", "--reproducible", "--k-min", str(k), "--k-max", str(k)]
         + model_argv)
    (row,) = parse_csv(capsys.readouterr().out)
    return dumped, row.gram_residual


@pytest.mark.parametrize("model_argv, k", [([], k) for k in (1, 3, 60, 300)] + [
    (["--model", "torus", "--mu", mu], k)
    for mu in ("0", "0.37") for k in (3, 5, 20, 80)])
def test_gram_dump_residual_is_the_report_gram_residual(capsys, model_argv, k):
    # The antidiagonal state is the conjugated normalized Gram, so both
    # outputs print one number.
    dumped, reported = _dump_and_row(capsys, model_argv, k)
    assert dumped == reported


def test_gram_dump_residual_is_the_report_gram_residual_off_its_closed_form(
        monkeypatch, capsys):
    _torus_gram_defect(monkeypatch, 1e-6)
    dumped, reported = _dump_and_row(capsys, ["--model", "torus"], 5)
    assert dumped == reported == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("argv, name, d", [
    (["state", "--k", "3"], "coeffs", 4),
    (["state", "--k", "4", "--submanifold", "circle"], "coeffs", 5),
    (["state", "--k", "5", "--model", "torus", "--mu", "0.37"], "coeffs", 5),
    (["gram", "--k", "3"], "gram", 4),
    (["gram", "--k", "5", "--model", "torus"], "gram", 5)])
def test_dump_formats_carry_the_same_matrix(capsys, argv, name, d):
    assert main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "j,l,re,im"
    cells = [line.split(",") for line in lines[1:1 + d * d]]
    assert [(int(j), int(l)) for j, l, _, _ in cells] == [
        (j, l) for j in range(d) for l in range(d)]
    for column, part in ((2, "real"), (3, "imag")):
        assert [[float(cells[j * d + l][column]) for l in range(d)]
                for j in range(d)] == payload[f"{name}_{part}"]
    rest = lines[1 + d * d:]
    if name == "gram":
        assert rest == []
        return
    assert rest[:2] == ["", "j,alpha"]
    alphas = [line.split(",") for line in rest[2:]]
    assert [(int(j), float(a)) for j, a in alphas] == [
        (j, math.sqrt(max(p, 0.0)))
        for j, p in enumerate(payload["schmidt_spectrum"])]


def test_main_calls_share_parser_not_state(capsys):
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


def test_report_rows_leave_numpy_polynomial_unloaded():
    # The Gauss-Legendre rule is built by Newton steps, so a process that runs
    # a sphere row and a torus row never imports numpy.polynomial (a 6 ms
    # import that numpy defers until first use).
    env = child_env()
    script = (
        "import sys\n"
        "from lagstate.cli import main\n"
        "assert main(['report', '--k-min', '1', '--k-max', '1']) == 0\n"
        "assert main(['report', '--model', 'torus', '--k-min', '3',"
        " '--k-max', '3']) == 0\n"
        "assert 'numpy.polynomial' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(CSV_HEADER) == 2


def test_package_import_leaves_cli_unloaded():
    # The package re-exports the library API only, so running the CLI module
    # as a script does not find it imported already.
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import sys, lagstate; assert 'lagstate.cli' not in sys.modules"],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
