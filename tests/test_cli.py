import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opsplit import cli, hpe_core, padmm_ebb
from opsplit.cli import (ALGORITHMS, ConfigError, build_parser,
                         build_problem, main, parse_descriptor)
from opsplit.hpe_core import CriterionViolation, ErgodicAccumulator, HpeConfig
from opsplit.padmm_ebb import run_padmm
from opsplit.prox_problems import build_lrr, gen_qp
from opsplit.splitters import SCHEMES

from support import save_lrr_instance


def test_parse_descriptor_qp():
    params = parse_descriptor("qp:seed=1,p=2,n=5,m=3")
    assert params == {"kind": "qp", "seed": 1, "p": 2, "n": 5, "m": 3}


def test_parse_descriptor_lrr_and_manifest():
    params = parse_descriptor("lrr:seed=0,d=12,n=10,lam=1e3")
    assert params["kind"] == "lrr"
    assert params["d"] == 12 and params["lam"] == 1e3
    params = parse_descriptor("lrr:manifest=/tmp/somewhere")
    assert params["manifest"] == "/tmp/somewhere"


def test_parse_descriptor_errors():
    with pytest.raises(ConfigError):
        parse_descriptor("sdp:seed=1")
    with pytest.raises(ConfigError):
        parse_descriptor("qp:seed")
    with pytest.raises(ConfigError):
        parse_descriptor("qp:seed=abc")


@pytest.mark.parametrize("function,changed,problem,explicit", [
    (gen_qp, {0: 1, 1: 4, 2: 2}, "qp:seed=0", "qp:seed=0,p=1,n=4,m=2"),
    (build_lrr, {2: 10.0, 3: 100.0, 4: 100.0}, "lrr:seed=0,d=6,n=6",
     "lrr:seed=0,d=6,n=6,lam=10,mu=100,gamma=100")], ids=["qp", "lrr"])
def test_a_solve_takes_the_library_defaults_of_its_problem(
        monkeypatch, tmp_path, function, changed, problem, explicit):
    # the CLI passes only the keys a descriptor names, so a solve of a
    # descriptor that leaves them out runs at the library's defaults,
    # whatever they are
    defaults = list(function.__defaults__)
    for index, value in changed.items():
        defaults[index] = value
    monkeypatch.setattr(function, "__defaults__", tuple(defaults))
    summaries = []
    for descriptor in (problem, explicit):
        path = tmp_path / "s.json"
        assert main(["solve", "--algorithm", "padmm-ebb", "--problem",
                     descriptor, "--max-iters", "20", "--summary",
                     str(path)]) == 0
        summary = json.loads(path.read_text())
        del summary["wall_time_s"], summary["config"]["problem"]
        summaries.append(summary)
    assert summaries[0] == summaries[1]


# the CSV columns every solve writes, and those the multi-block solver adds
KERNEL_CSV = ["iter", "time_s", "v_norm", "eps", "theta", "criterion_slack",
              "step_norm", "metric_min", "metric_max", "dist_to_ref"]
PADMM_CSV = ["feas_norm", "theta_adap", "beta"]


def test_solve_padmm_writes_trace_and_summary(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    summary = tmp_path / "summary.json"
    code = main(["solve", "--algorithm", "padmm-ebb",
                 "--problem", "qp:seed=1,p=2,n=4,m=2",
                 "--max-iters", "2000", "--tol", "1e-8",
                 "--trace", str(trace), "--summary", str(summary)])
    assert code == 0
    out = capsys.readouterr().out
    assert "padmm-ebb" in out and "converged" in out

    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == KERNEL_CSV + PADMM_CSV
    data = json.loads(summary.read_text())
    assert data["schema"] == 1
    assert data["converged"] is True
    assert len(rows) - 1 == data["iterations"]  # one CSV row per iteration
    assert data["final"]["pkkt"] <= 1e-8
    # an unset --beta runs at, and echoes, the penalty rule's beta
    _, inst = build_problem(parse_descriptor("qp:seed=1,p=2,n=4,m=2"))
    assert data["config"]["beta"] == padmm_ebb.rule_beta(inst.problem)
    assert 0.0 < data["config"]["beta"] != 1.0


def test_a_solve_resolves_the_penalty_rule_once(monkeypatch, tmp_path):
    # the beta a solve runs at and the beta its summary echoes are one value
    calls = []
    real = padmm_ebb.rule_beta
    monkeypatch.setattr(padmm_ebb, "rule_beta",
                        lambda problem: calls.append(problem) or real(problem))
    assert main(["solve", "--algorithm", "padmm-ebb", "--problem", "qp:seed=0",
                 "--max-iters", "5",
                 "--summary", str(tmp_path / "s.json")]) == 0
    assert len(calls) == 1


def _xi_product(updates):
    """prod (1 + xi_k) over metric updates 1..updates at the default xi0, in
    the order padmm-ebb multiplies it."""
    return math.prod(1.0 + HpeConfig().xi(k) for k in range(1, updates + 1))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_only_padmm_ebb_echoes_xi0_and_records_xi(tmp_path, algorithm):
    # the splitters never update their metric and read no xi0; padmm-ebb
    # echoes the xi0 it read, HpeConfig's when --xi0 is unset, and Xi, the
    # product of (1 + xi_k) over its 5 metric updates
    summary = tmp_path / "s.json"
    assert main(["solve", "--algorithm", algorithm, "--problem", "qp:seed=0",
                 "--max-iters", "5", "--summary", str(summary)]) == 0
    data = json.loads(summary.read_text())
    padmm = algorithm == "padmm-ebb"
    assert ("xi0" in data["config"], "Xi" in data["final"]) == (padmm, padmm)
    if padmm:
        assert data["config"]["xi0"] == HpeConfig.xi0 == 1.0
        assert data["final"]["Xi"] == _xi_product(5)


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_kernel_options_take_their_defaults_from_the_config(command, capsys):
    # HpeConfig owns sigma, tol_residual and max_iters, and padmm_ebb's
    # rule_beta owns beta; the CLI repeats none
    args = build_parser().parse_args([command, "--problem", "qp:seed=0"] + (
        ["--algorithm", "fbhf"] if command == "solve" else []))
    default = HpeConfig()
    assert (args.sigma, args.tol, args.max_iters) == (
        default.sigma, default.tol_residual, default.max_iters) == (
        0.9, 1e-8, 1000)
    assert args.beta is None
    _, inst = build_problem(parse_descriptor("qp:seed=0"))
    _, echo = cli._prepare_solve(args, "padmm-ebb", "qp", inst,
                                 columns=("v_norm",))
    assert echo["beta"] == padmm_ebb.rule_beta(inst.problem)
    assert (padmm_ebb.PENALTY_KAPPA, padmm_ebb.FALLBACK_BETA) == (0.5, 1.0)
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for option, value in (("--sigma SIGMA", "0.9"), ("--tol TOL", "1e-08"),
                          ("--max-iters MAX_ITERS", "1000"),
                          ("--beta BETA", "0.5 sum_i L_i / sum_i ||A_i||^2, "
                                          "or 1 when L_1 or the second sum "
                                          "is 0")):
        entry = text.split(" %s " % option)[1].split(" --")[0]
        assert entry.endswith("(default %s)" % value), entry


def test_full_trace_adds_the_opt_in_columns(tmp_path):
    runs = []
    for flags in ([], ["--full-trace"]):
        trace = tmp_path / ("t%d.csv" % len(flags))
        summary = tmp_path / ("s%d.json" % len(flags))
        assert main(["solve", "--algorithm", "padmm-ebb",
                     "--problem", "lrr:seed=0,d=10,n=10", "--beta", "300",
                     "--tol", "1e-3", "--sigma", "0.9",
                     "--trace", str(trace), "--summary", str(summary)]
                    + flags) == 0
        with open(trace) as fh:
            runs.append((list(csv.DictReader(fh)),
                         json.loads(summary.read_text())))
    (default, s_default), (full, s_full) = runs
    assert list(full[0]) == KERNEL_CSV + [
        "pkkt", "feas_norm", "objective", "theta_adap", "beta"]
    assert "pkkt" not in default[0] and "objective" not in default[0]
    # the early exit changes no iterate: every shared column and the
    # summary's final pkkt are equal
    assert len(default) == len(full) == s_default["iterations"]
    for d, f in zip(default, full):
        assert all(d[k] == f[k] for k in d if k != "time_s")
    assert s_default["final"] == s_full["final"]
    assert float(full[-1]["pkkt"]) > s_full["final"]["pkkt"]


def test_full_trace_objective_is_finite_on_every_row(tmp_path):
    # the objective is taken at the sweep point, inside the domain of every
    # g_i; over-relaxation pushes the iterate out of the nonnegative orthants
    trace = tmp_path / "t.csv"
    assert main(["solve", "--algorithm", "padmm-ebb",
                 "--problem", "lrr:seed=0,d=10,n=10", "--beta", "300",
                 "--tol", "1e-3", "--full-trace", "--trace", str(trace)]) == 0
    with open(trace) as fh:
        objectives = [float(row["objective"]) for row in csv.DictReader(fh)]
    assert len(objectives) > 1 and all(map(math.isfinite, objectives))


def test_non_positive_gamma_form_exits_three_naming_the_iteration(tmp_path,
                                                                 capsys):
    # at beta = 100 and sigma = 0.5 the first sweep's directional Gamma form
    # is not positive
    summary = tmp_path / "s.json"
    code = main(["solve", "--algorithm", "padmm-ebb", "--problem", "qp:seed=1",
                 "--beta", "100", "--sigma", "0.5", "--max-iters", "3",
                 "--summary", str(summary)])
    assert code == 3
    err = capsys.readouterr().err
    assert "iteration 1: directional Gamma form is not positive" in err
    data = json.loads(summary.read_text())
    assert data["termination"] == "abort" and data["iterations"] == 0
    abort = data["abort"]
    assert abort["iteration"] == 1
    assert abort["exception"] == "CriterionViolation"
    assert "gamma_form=" in abort["message"]
    assert "denom_form=" in abort["message"]


@pytest.mark.parametrize("problem", ["lrr:seed=0,d=3,n=1",
                                     "lrr:seed=1,d=3,n=1",
                                     "lrr:seed=2,d=8,n=1"])
def test_single_column_lrr_runs_with_the_default_options(problem):
    # at sigma = 0.5 each aborted (exit 3) on a non-positive directional
    # Gamma form
    assert main(["solve", "--algorithm", "padmm-ebb", "--problem",
                 problem]) == 0


def test_solve_splitter_exit_zero(tmp_path):
    summary = tmp_path / "s.json"
    code = main(["solve", "--algorithm", "condat-vu",
                 "--problem", "qp:seed=2,p=2,n=4,m=2",
                 "--max-iters", "4000", "--tol", "1e-8",
                 "--summary", str(summary)])
    assert code == 0
    data = json.loads(summary.read_text())
    assert data["config"]["algorithm"] == "condat-vu"
    assert data["converged"] is True


def _library_ergodic_pair(algorithm, max_iters):
    """The ergodic pair of a library run on qp:seed=0 with the CLI's default
    settings and ``max_iters``."""
    inst = gen_qp(0, p=2, n_i=5, m=3)
    acc = ErgodicAccumulator()
    cfg = HpeConfig(max_iters=max_iters)
    if algorithm == "padmm-ebb":
        run_padmm(inst.problem, cfg, accumulators=[acc])
    else:
        oracle, M0, x0, _ = SCHEMES[algorithm].setup(inst, cfg.sigma)
        hpe_core.run(oracle, x0, M0, cfg, accumulators=[acc])
    return {"v_norm": acc.v_norms[-1], "eps": acc.eps_bars[-1]}


@pytest.mark.parametrize("algorithm", ["padmm-ebb", "condat-vu"])
def test_summary_records_the_ergodic_pair(tmp_path, algorithm):
    summary = tmp_path / "s.json"
    assert main(["solve", "--algorithm", algorithm, "--problem", "qp:seed=0",
                 "--summary", str(summary)]) == 0
    data = json.loads(summary.read_text())
    assert data["ergodic"] == _library_ergodic_pair(algorithm, 1000)


def test_ergodic_pair_is_null_without_an_accumulated_step(tmp_path):
    summary = tmp_path / "s.json"
    assert main(["solve", "--algorithm", "fbhf", "--problem", "qp:seed=0",
                 "--max-iters", "0", "--summary", str(summary)]) == 0
    data = json.loads(summary.read_text())
    assert data["ergodic"] == {"v_norm": None, "eps": None}


def test_summary_deterministic_apart_from_timing(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = main(["solve", "--algorithm", "padmm-ebb",
                     "--problem", "qp:seed=3,p=2,n=4,m=2",
                     "--max-iters", "2000", "--summary", str(p)])
        assert code == 0
    a = json.loads(paths[0].read_text())
    b = json.loads(paths[1].read_text())
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b


@pytest.mark.parametrize("algorithm", ["ppg", "fbhf", "condat-vu", "afbas-pd"])
def test_bad_theta_is_a_config_error(capsys, algorithm):
    # theta = 5 is past each scheme's bound; afbas-pd has none, because it
    # picks its over-relaxation at every step, so any numeric theta is an error
    code = main(["solve", "--algorithm", algorithm,
                 "--problem", "qp:seed=0", "--theta", "5.0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    bound = SCHEMES[algorithm].bound
    assert (bound if bound is not None else "must be 'auto'") in err


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("xi0", ["-0.5", "nan", "inf"])
def test_bad_xi0_is_a_config_error(algorithm, xi0, capsys):
    # a NaN xi would make the metric-schedule check always pass; only
    # padmm-ebb updates its metric, so only padmm-ebb reads xi0 at all
    code = main(["solve", "--algorithm", algorithm, "--problem", "qp:seed=0",
                 "--max-iters", "5", "--xi0", xi0])
    assert code == 2
    assert (("xi0 must be finite and nonnegative" if algorithm == "padmm-ebb"
             else "--xi0 applies to padmm-ebb only")
            in capsys.readouterr().err)


@pytest.mark.parametrize(
    "algorithm,option,value",
    [(a, "--tol", t) for a in ALGORITHMS for t in ("nan", "-1")]
    + [(a, "--max-iters", "-3") for a in ALGORITHMS]
    + [("padmm-ebb", "--beta", b) for b in ("nan", "inf", "0", "-1")])
def test_bad_numeric_option_is_a_config_error(algorithm, option, value,
                                              capsys):
    # a NaN or negative tolerance is never met and a negative budget runs
    # nothing, so each went unnoticed; a non-finite beta aborted mid-solve
    code = main(["solve", "--algorithm", algorithm, "--problem", "qp:seed=0",
                 "--max-iters", "5", option, value])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("option,algorithm", [
    (option, a) for option in ("--beta", "--xi0", "--full-trace")
    for a in ALGORITHMS if a != "padmm-ebb"])
def test_option_of_another_algorithm_is_a_config_error(option, algorithm,
                                                       monkeypatch, capsys):
    # each used to be dropped silently; now solve names the algorithm that
    # reads it, before the problem is built
    monkeypatch.setattr(cli, "build_problem", lambda params: pytest.fail(
        "the problem was built"))
    value = [] if option == "--full-trace" else ["5"]
    code = main(["solve", "--algorithm", algorithm, "--problem", "qp:seed=0",
                 "--max-iters", "5", option, *value])
    assert code == 2
    assert capsys.readouterr().err.strip() == (
        "configuration error: %s applies to padmm-ebb only" % option)


def test_bench_hands_each_option_to_the_algorithm_that_reads_it(capsys):
    rows = []
    for options in ((), ("--beta", "2")):
        assert main(["bench", "--problem", "qp:seed=0", "--max-iters", "200",
                     *options]) == 0
        rows.append({line.split()[0]: line.split()[:4] for line in
                     capsys.readouterr().out.strip().splitlines()[1:]})
    default, chosen = rows
    changed = {a for a in ALGORITHMS if default[a] != chosen[a]}
    assert changed == {"padmm-ebb"}


@pytest.mark.parametrize("beta", ["nan", "-3"])
def test_bench_checks_beta_without_padmm_ebb(beta, capsys):
    # bench hands --beta to padmm-ebb only, but a bad one is an error
    # whatever the algorithms, with solve's message; it used to exit 0
    code = main(["bench", "--problem", "qp:seed=0", "--algorithms", "fbhf",
                 "--beta", beta, "--max-iters", "5"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == (
        "configuration error: beta must be finite and positive, got %r"
        % float(beta))
    assert captured.out == ""


# each malformed descriptor and the message that names what is wrong
MALFORMED = {
    "qp:seed=inf": "non-finite value 'inf' for 'seed'",
    # an empty X used to surface as an IndexError of the Laplacian check
    "lrr:d=0": "cannot build the lrr problem: ValueError: X must have d >= 1 "
               "rows and n >= 1 columns, got d=0, n=40",
    "lrr:n=0": "cannot build the lrr problem: ValueError: X must have d >= 1 "
               "rows and n >= 1 columns, got d=40, n=0",
    "lrr:manifest=/nonexistent": "cannot build the lrr problem: "
                                 "FileNotFoundError",
    "qp:p=2.5": "'p' must be an integer, got 2.5",
    "lrr:lam=nan": "non-finite value 'nan' for 'lam'",
    # a misspelt or foreign key must not silently take its default
    "qp:sed=3,p=1,n=4,m=2": "unknown qp descriptor key 'sed'",
    "qp:seed=1,tol=5": "unknown qp descriptor key 'tol'",
    "lrr:seed=0,d=4,n=4,lamda=5": "unknown lrr descriptor key 'lamda'",
    # a repeated key used to solve with its last value while the summary
    # echoed both
    "qp:seed=1,seed=2": "repeated qp descriptor key 'seed'",
    # sizes out of range used to read as unrelated numpy failures
    "qp:p=0,m=0": "ValueError: need p >= 1, n_i >= 1 and 0 <= m <= p*n_i, "
                  "got p=0, n_i=5, m=0",
    "qp:n=0,m=0": "got p=2, n_i=0, m=0",
    "qp:p=-1": "got p=-1, n_i=5, m=3",
    "qp:n=-2,m=0": "got p=2, n_i=-2, m=0",
    "qp:p=1,n=2,m=3": "got p=1, n_i=2, m=3",
    # a negative l1 weight used to abort the solve at iteration 1 (exit 3)
    "lrr:seed=0,d=6,n=6,lam=-1": "cannot build the lrr problem: ValueError: "
                                 "l1 weight must be >= 0",
}


@pytest.mark.parametrize("options", [
    ["--problem", "lrr:seed=0,d=4,n=4,mu=1e308", "--beta", "1"],
    ["--problem", "lrr:seed=0,d=3,n=3,mu=1e308,gamma=1e308"]])
def test_an_infinite_lipschitz_constant_is_a_config_error(options, capsys):
    # mu ||L_Z|| overflows to inf; it used to abort the solve on a zero
    # inverse metric scalar (exit 3), or read as an infinite beta that no
    # option had given
    assert main(["solve", "--algorithm", "padmm-ebb"] + options) == 2
    assert ("configuration error: cannot build the lrr problem: ValueError: "
            "Lipschitz constant 0 must be finite and nonnegative, got inf"
            in capsys.readouterr().err)


def test_manifest_rejects_generation_keys(tmp_path, capsys):
    # the manifest fixes the instance; a generation key beside it used to be
    # dropped while the summary echoed it
    X = np.random.default_rng(0).standard_normal((4, 4))
    save_lrr_instance(build_lrr(X), tmp_path)
    solve = ["solve", "--algorithm", "padmm-ebb", "--max-iters", "3"]
    assert main(solve + ["--problem", "lrr:manifest=%s" % tmp_path]) == 0
    capsys.readouterr()
    code = main(solve + ["--problem",
                         "lrr:manifest=%s,lam=5,d=99,seed=7" % tmp_path])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "manifest takes no other key" in err and "lam, d, seed" in err


@pytest.mark.parametrize("descriptor", MALFORMED)
@pytest.mark.parametrize("command", ["solve", "bench", "oracle"])
def test_malformed_descriptor_is_a_config_error(command, descriptor, capsys):
    argv = [command, "--problem", descriptor]
    if command == "solve":
        argv += ["--algorithm", "padmm-ebb"]
    if command != "oracle":
        argv += ["--max-iters", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and MALFORMED[descriptor] in err


def test_scheme_table_covers_every_splitter():
    assert set(SCHEMES) | {"padmm-ebb"} == set(ALGORITHMS)


@pytest.mark.parametrize("algorithm", ["fbhf", "ppg", "condat-vu",
                                       "padmm-ebb"])
@pytest.mark.parametrize("theta", ["-1", "-1.5", "nan", "inf"])
def test_theta_at_or_below_minus_one_is_a_config_error(algorithm, theta,
                                                       capsys):
    # over-relaxation weights 1 + theta must be positive
    code = main(["solve", "--algorithm", algorithm, "--problem", "qp:seed=0",
                 "--max-iters", "5", "--theta", theta])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_solve_at_sigma_zero_runs_or_names_sigma(algorithm, capsys):
    # --sigma allows [0, 1); the three schemes whose step scales with sigma
    # reject 0 with a message that names it (Condat-Vu's build divided by it),
    # while afbas-pd and padmm-ebb converge
    code = main(["solve", "--algorithm", algorithm, "--problem", "qp:seed=0",
                 "--sigma", "0"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if algorithm in ("afbas-pd", "padmm-ebb"):
        assert code == 0
    else:
        assert code == 2
        assert err.strip() == ("configuration error: sigma must be positive "
                               "for a scheme whose step scales with it, "
                               "got 0.0")


def test_bench_at_sigma_zero_is_a_config_error_before_any_row(capsys):
    code = main(["bench", "--problem", "qp:seed=0", "--sigma", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "sigma must be positive" in captured.err
    assert "Traceback" not in captured.err


def test_unknown_problem_kind_is_a_config_error():
    assert main(["solve", "--algorithm", "fbhf", "--problem", "socp:seed=0"]) == 2


def test_lrr_with_splitter_is_a_config_error():
    assert main(["solve", "--algorithm", "fbhf",
                 "--problem", "lrr:seed=0,d=6,n=6"]) == 2


def test_usage_error_exits_two(capsys):
    assert main(["solve", "--problem", "qp:seed=0"]) == 2  # missing --algorithm
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_oracle_prints_reference(capsys):
    code = main(["oracle", "--problem", "qp:seed=1,p=1,n=4,m=2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "x* =" in out and "y* =" in out and "kkt_residual" in out


def test_bench_runs_subset(capsys):
    code = main(["bench", "--problem", "qp:seed=4,p=2,n=4,m=2",
                 "--algorithms", "padmm-ebb,fbhf",
                 "--max-iters", "2000"])
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 3  # header + two rows
    assert lines[1].startswith("padmm-ebb")
    assert lines[2].startswith("fbhf")


def test_bench_prints_the_final_pkkt_that_solve_writes(tmp_path, capsys):
    options = ["--problem", "qp:seed=2,p=2,n=5,m=3", "--max-iters", "40",
               "--beta", "2"]
    summary = tmp_path / "summary.json"
    assert main(["solve", "--algorithm", "padmm-ebb", *options,
                 "--summary", str(summary)]) == 0
    final = json.loads(summary.read_text())["final"]
    pkkt = final["pkkt"]
    assert "%.3e" % pkkt != "%.3e" % final["v_norm"]
    capsys.readouterr()
    assert main(["bench", "--algorithms", "padmm-ebb", *options]) == 0
    row = capsys.readouterr().out.strip().splitlines()[-1].split()
    assert row[0] == "padmm-ebb" and row[3] == "%.3e" % pkkt


def test_bench_runs_only_padmm_ebb_on_lrr(capsys):
    lrr = ["bench", "--problem", "lrr:seed=0,d=3,n=3", "--max-iters", "3"]
    assert main(lrr) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["padmm-ebb"]
    assert main(lrr + ["--algorithms", "fbhf"]) == 2
    assert capsys.readouterr().err.strip() == (
        "configuration error: lrr problems are only supported by padmm-ebb")


def test_theta_that_is_no_number_is_a_config_error(capsys):
    assert main(["solve", "--algorithm", "fbhf", "--problem", "qp:seed=0",
                 "--theta", "abc"]) == 2
    assert capsys.readouterr().err.strip() == (
        "configuration error: theta must be a number or 'auto'")


def test_bench_rejects_unknown_algorithm():
    assert main(["bench", "--problem", "qp:seed=0",
                 "--algorithms", "nope"]) == 2


def test_bench_names_the_algorithm_that_aborted(capsys):
    # at beta = 100 and sigma = 0.5 padmm-ebb aborts on qp:seed=1, the first
    # of the five
    assert main(["bench", "--problem", "qp:seed=1", "--beta", "100",
                 "--sigma", "0.5", "--max-iters", "3"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("solver abort: padmm-ebb: iteration 1: "
                              "directional Gamma form is not positive")


def test_solver_fault_mid_solve_exits_three(monkeypatch, capsys):
    # LinAlgError is a ValueError, but raised once the solve has started it
    # is a solver abort, not a configuration error
    original, calls = np.linalg.svd, [0]

    def failing_svd(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 21:
            raise np.linalg.LinAlgError("SVD did not converge")
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    code = main(["solve", "--algorithm", "padmm-ebb",
                 "--problem", "lrr:seed=0,d=10,n=10"])
    assert calls[0] == 21
    assert code == 3
    assert ("solver abort: iteration 11: SVD did not converge"
            in capsys.readouterr().err)


def test_malformed_descriptor_still_exits_two(capsys):
    assert main(["solve", "--algorithm", "padmm-ebb",
                 "--problem", "qp:seed"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_aborted_solve_writes_trace_and_summary(tmp_path, monkeypatch,
                                                capsys):
    # from its 5th call on, the step-size range rejects every direction:
    # iteration 5 aborts, with no retry of the sweep
    from opsplit import padmm_ebb

    real, calls = padmm_ebb.theta_range, [0]

    def failing_theta_range(*args, **kwargs):
        calls[0] += 1
        if calls[0] >= 5:
            raise CriterionViolation("degenerate U*M^-1U form")
        return real(*args, **kwargs)

    monkeypatch.setattr(padmm_ebb, "theta_range", failing_theta_range)
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    code = main(["solve", "--algorithm", "padmm-ebb", "--problem", "qp:seed=1",
                 "--max-iters", "200",
                 "--trace", str(trace), "--summary", str(summary)])
    assert code == 3
    assert "iteration 5: degenerate U*M^-1U form" in capsys.readouterr().err
    assert calls[0] == 5
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    data = json.loads(summary.read_text())
    assert data["termination"] == "abort" and data["converged"] is False
    abort = data["abort"]
    assert abort["exception"] == "CriterionViolation"
    assert "degenerate U*M^-1U form" in abort["message"]
    # the rows before the failing iteration are all kept
    assert len(rows) - 1 == data["iterations"] == abort["iteration"] - 1 > 1
    assert isinstance(data["slopes"]["ergodic"], float)
    # and Xi covers the 4 metric updates made before the abort
    assert data["final"]["Xi"] == _xi_product(4)


def test_fault_before_the_loop_is_a_config_error_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    # the first metric is built before the kernel loop starts: what it raises
    # carries no aborted run, so no trace or summary is written
    from opsplit import padmm_ebb

    def failing_metric(self):
        raise ZeroDivisionError("no first metric")

    monkeypatch.setattr(padmm_ebb._Iteration, "metric", failing_metric)
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    code = main(["solve", "--algorithm", "padmm-ebb", "--problem", "qp:seed=0",
                 "--trace", str(trace), "--summary", str(summary)])
    assert code == 2
    assert capsys.readouterr().err == "configuration error: no first metric\n"
    assert not trace.exists() and not summary.exists()


@pytest.mark.parametrize("beta, message", [
    # an inverse scalar 1 / eta_i underflows to 0; the multiplier's scalar
    # 1 / beta overflows to inf
    ("1e308", "inverse metric scalar 0 is 0.0, not positive"),
    ("1e-320", "metric scalar 2 is inf, not finite and positive")])
def test_first_metric_out_of_range_is_a_config_error(beta, message, tmp_path,
                                                     capsys):
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    assert main(["solve", "--algorithm", "padmm-ebb", "--problem", "qp:seed=0",
                 "--beta", beta, "--trace", str(trace),
                 "--summary", str(summary)]) == 2
    assert capsys.readouterr().err == "configuration error: %s\n" % message
    assert not trace.exists() and not summary.exists()
    assert main(["bench", "--problem", "qp:seed=0", "--beta", beta]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: padmm-ebb: %s\n" % message


def test_bench_fault_before_the_first_row_prints_no_table(capsys):
    # the header comes with the first row: padmm-ebb, the first algorithm,
    # fails to build its first metric, and stdout stays empty where it used
    # to hold the header alone
    assert main(["bench", "--problem", "qp:seed=0", "--beta", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("configuration error: padmm-ebb: inverse metric "
                            "scalar 0 is 0.0, not positive\n")


def test_fault_of_the_final_residual_is_a_solver_abort(tmp_path, monkeypatch,
                                                       capsys):
    # after max_iters padmm-ebb computes the final iterate's complete
    # residual outside the kernel loop; what that raises carries the run
    from opsplit import padmm_ebb

    real = padmm_ebb.pkkt_residual

    def failing_final(xs, y, problem, grads=None, **kwargs):
        if grads is None:  # the stop hook passes its gradients
            raise FloatingPointError("no final residual")
        return real(xs, y, problem, grads=grads, **kwargs)

    monkeypatch.setattr(padmm_ebb, "pkkt_residual", failing_final)
    summary = tmp_path / "s.json"
    code = main(["solve", "--algorithm", "padmm-ebb", "--problem", "qp:seed=0",
                 "--max-iters", "3", "--summary", str(summary)])
    assert code == 3
    assert capsys.readouterr().err == "solver abort: no final residual\n"
    data = json.loads(summary.read_text())
    assert (data["termination"], data["iterations"]) == ("max_iters", 3)
    assert "abort" not in data and data["final"]["Xi"] == _xi_product(3)


def test_criterion_abort_summary_records_lhs_rhs_slack(tmp_path, monkeypatch):
    # the third certificate gains the eps that puts its lhs at rhs + 1, and
    # the real check rejects it
    real = hpe_core.check_criterion

    def failing_at_3(x, cert, M, sigma):
        failing_at_3.calls += 1
        if failing_at_3.calls == 3:
            rep = real(x, cert, M, sigma)
            cert.eps += (rep.slack + 1.0) / (2.0 * cert.c)
        return real(x, cert, M, sigma)

    failing_at_3.calls = 0
    monkeypatch.setattr(hpe_core, "check_criterion", failing_at_3)
    summary = tmp_path / "s.json"
    code = main(["solve", "--algorithm", "fbhf", "--problem", "qp:seed=0",
                 "--summary", str(summary)])
    assert code == 3
    data = json.loads(summary.read_text())
    abort = data["abort"]
    assert abort["exception"] == "CriterionViolation"
    assert abort["message"].startswith("iteration 3: criterion failed")
    assert abort["iteration"] == 3 and data["iterations"] == 2
    assert abort["slack"] == pytest.approx(-1.0)
    assert abort["lhs"] == pytest.approx(abort["rhs"] + 1.0)


def test_abort_between_trace_and_accumulation_writes_summary(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # a step can reach the trace and fail to reach the accumulator; the
    # summary is still written, each slope over its own series, and the
    # ergodic pair is that of the steps accumulated
    pair = _library_ergodic_pair("padmm-ebb", 4)
    real = hpe_core.ErgodicAccumulator.add

    def failing_add(self, cert):
        if len(self) == 4:
            raise FloatingPointError("accumulation failed")
        return real(self, cert)

    monkeypatch.setattr(hpe_core.ErgodicAccumulator, "add", failing_add)
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    code = main(["solve", "--algorithm", "padmm-ebb", "--problem", "qp:seed=0",
                 "--trace", str(trace), "--summary", str(summary)])
    assert code == 3
    assert "accumulation failed" in capsys.readouterr().err
    data = json.loads(summary.read_text())
    assert data["termination"] == "abort"
    assert data["abort"]["exception"] == "FloatingPointError"
    assert data["abort"]["iteration"] == data["iterations"] == 5
    assert isinstance(data["slopes"]["ergodic"], float)
    assert data["ergodic"] == pair
    with open(trace) as fh:
        assert len(list(csv.reader(fh))) - 1 == 5


def test_non_finite_abort_is_named_in_the_summary(tmp_path, monkeypatch,
                                                  capsys):
    # from the 21st SVD on, the nuclear proxes see NaN singular values
    original, calls = np.linalg.svd, [0]

    def nan_svd(*args, **kwargs):
        calls[0] += 1
        out = original(*args, **kwargs)
        if calls[0] < 21 or kwargs.get("compute_uv") is False:
            return out
        u, s, vt = out
        return u, s * np.nan, vt

    monkeypatch.setattr(np.linalg, "svd", nan_svd)
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    code = main(["solve", "--algorithm", "padmm-ebb",
                 "--problem", "lrr:seed=0,d=10,n=10",
                 "--trace", str(trace), "--summary", str(summary)])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err
    data = json.loads(summary.read_text())
    assert data["termination"] == "non_finite" and data["converged"] is False
    assert data["abort"]["exception"] == "NonFiniteValue"
    with open(trace) as fh:
        assert len(list(csv.reader(fh))) - 1 == data["abort"]["iteration"] - 1


@pytest.mark.parametrize("algorithm",
                         ["fbhf", "ppg", "condat-vu", "afbas-pd", "padmm-ebb"])
def test_problem_without_constraints_solves(tmp_path, capsys, algorithm):
    # m=0: the affine projector and the dual blocks are size-0 systems
    trace = tmp_path / "t.csv"
    code = main(["solve", "--algorithm", algorithm,
                 "--problem", "qp:seed=0,p=2,n=5,m=0", "--trace", str(trace)])
    assert code == 0
    with open(trace) as fh:
        assert len(list(csv.reader(fh))) > 1


def _python(*args):
    """Run a fresh interpreter that imports opsplit from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_python_dash_m_runs_the_cli():
    assert "kkt_residual" in _python("-m", "opsplit", "oracle",
                                     "--problem", "qp:seed=0")


SCIPY_SUBMODULES = ("scipy.linalg", "scipy.io", "scipy.sparse")
LOADED = ("import sys\nfrom opsplit.cli import main\n"
          "assert not sys.argv[1:] or main(sys.argv[1:]) == 0\n"
          "print(sorted(set(%r) & set(sys.modules)))" % (SCIPY_SUBMODULES,))


@pytest.mark.parametrize("argv", [
    (),
    ("--algorithm", "padmm-ebb", "--problem", "qp:seed=0"),
    ("--algorithm", "condat-vu", "--problem", "qp:seed=0"),
    ("--algorithm", "afbas-pd", "--problem", "qp:seed=0"),
    ("--algorithm", "fbhf", "--problem", "qp:seed=0"),
    ("--algorithm", "ppg", "--problem", "qp:seed=0"),
    ("--algorithm", "padmm-ebb", "--problem", "lrr:seed=0,d=6,n=6",
     "--max-iters", "5"),
], ids=["import", "padmm-ebb", "condat-vu", "afbas-pd", "fbhf", "ppg", "lrr"])
def test_scipy_is_loaded_only_by_a_solve_that_factors(argv):
    # no solve factors with scipy: the affine projector of fbhf and ppg and
    # the LRR Laplacian spectra use numpy, so no solve loads any of it
    argv = ("solve",) + argv if argv else ()
    out = _python("-c", LOADED, *argv)
    assert out.splitlines()[-1] == "[]"


@pytest.mark.parametrize("option", ["--trace", "--summary"])
@pytest.mark.parametrize("target", ["missing/dir/out", "."],
                         ids=["missing-dir", "directory"])
def test_unwritable_output_path_exits_two_before_the_solve(
        option, target, tmp_path, monkeypatch, capsys):
    def build_problem(params):
        raise AssertionError("the problem was built")

    monkeypatch.setattr(cli, "build_problem", build_problem)
    path = str(tmp_path / target)
    assert main(["solve", "--algorithm", "padmm-ebb", "--problem",
                 "qp:seed=0", option, path]) == 2
    assert "%s %s cannot be written" % (option, path) \
        in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("option", ["--trace", "--summary"])
@pytest.mark.parametrize("extra", [(), ("--beta", "100", "--sigma", "0.5",
                                         "--max-iters", "3")],
                         ids=["converged", "abort"])
def test_output_write_failing_after_the_solve_exits_two(option, extra, capsys):
    # /dev/full passes the path check; every write to it fails with ENOSPC
    # once the solve has run (at beta = 100 and sigma = 0.5 qp:seed=1 aborts
    # at iteration 1, and the abort keeps its exit code 3)
    code = main(["solve", "--algorithm", "padmm-ebb", "--problem",
                 "qp:seed=1", option, "/dev/full", *extra])
    assert code == (3 if extra else 2)
    err = capsys.readouterr().err
    assert "%s /dev/full cannot be written" % option in err
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failing_write_loses_no_other_output(tmp_path, capsys):
    # the aborted run's summary, with its abort record, survives the trace
    summary = tmp_path / "s.json"
    abort = ["solve", "--algorithm", "padmm-ebb", "--problem", "qp:seed=1",
             "--beta", "100", "--sigma", "0.5", "--max-iters", "3",
             "--trace", "/dev/full"]
    assert main(abort + ["--summary", str(summary)]) == 3
    assert "--trace /dev/full cannot be written" in capsys.readouterr().err
    record = json.loads(summary.read_text())["abort"]
    assert record["iteration"] == 1
    assert record["exception"] == "CriterionViolation"
    # and one error names every write that failed
    assert main(abort + ["--summary", "/dev/full"]) == 3
    err = capsys.readouterr().err
    assert "--trace /dev/full cannot be written" in err
    assert "--summary /dev/full cannot be written" in err
