import csv
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import selex
from selex import cli, estimator, experiments
from selex.cli import main
from selex.estimator import MaxIterationsExceeded
from selex.ordering import ConvergenceFailure, UnderflowWarning


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fail_on(monkeypatch, call: int, error) -> list:
    """Experiments and ``estimate`` alike, whose ``call``-th solve (1-based) fails with
    ``error``, and so does every later solve of a bit-equal sample; returns the samples
    solved."""
    real = estimator.ccmle
    calls = []

    def flaky(obs):
        calls.append(obs)
        if len(calls) < call or obs.x.tobytes() != calls[call - 1].x.tobytes():
            return real(obs)
        if error is ConvergenceFailure:
            raise ConvergenceFailure("forced failure")
        # as the solver raises it: with its last iterate, which estimate prints
        raise MaxIterationsExceeded("forced failure", replace(real(obs), converged=False))

    for module in (experiments, cli):
        monkeypatch.setattr(module, "ccmle", flaky)
    return calls


class TestProb:
    def test_symmetric_pair(self, capsys):
        code, out, _ = run(capsys, ["prob", "--means", "0,0", "--sigma", "1"])
        assert code == 0
        assert "0.5" in out

    def test_closed_form_value(self, capsys):
        code, out, _ = run(capsys, ["prob", "--means", "1,0", "--sigma", "1", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.7602499, abs=1e-6)
        assert payload["method"] == "closed_form_p2"

    def test_four_exchangeable(self, capsys):
        code, out, _ = run(capsys, ["prob", "--means", "0,0,0,0", "--sigma", "1", "--json"])
        assert json.loads(out)["value"] == pytest.approx(1 / 24, abs=1e-7)

    def test_monte_carlo_path(self, capsys):
        code, out, _ = run(
            capsys,
            ["prob", "--means", "1,0", "--sigma", "1", "--mc", "100000", "--seed", "4", "--json"],
        )
        payload = json.loads(out)
        assert payload["method"] == "monte_carlo"
        assert payload["value"] == pytest.approx(0.76, abs=0.01)

    def test_underflow_reports_log_error(self, capsys):
        argv = ["prob", "--means", "0,0,60", "--sigma", "1"]
        with pytest.warns(UnderflowWarning):
            code, out, _ = run(capsys, argv + ["--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == 0.0
        assert payload["log_value"] == pytest.approx(-1209.074285, abs=1e-3)
        assert payload["log_err_est"] > 0.0
        with pytest.warns(UnderflowWarning):
            assert "log_err_est" in run(capsys, argv)[1]

    def test_quadrature_failure_exits_3(self, capsys):
        # off the cone, the gap to 1e6 needs ~1e7 nodes: over the cap
        code, _, err = run(capsys, ["prob", "--means", "0,0,1e6", "--sigma", "1"])
        assert code == 3
        assert "quadrature failure" in err

    def test_log_space_sweep_reports_a_positive_p(self, capsys):
        # 150 equal means: P = 1/150! = 1.75e-263 is representable, and comes
        # from the log-space sweep's log P, not from the linear sweep below it
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no UnderflowWarning
            code, out, _ = run(capsys, ["prob", "--means", ",".join(["0"] * 150),
                                        "--sigma", "1", "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == pytest.approx(math.exp(-math.lgamma(151)), rel=1e-9)
        assert payload["log_value"] == pytest.approx(-605.0201061, abs=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["prob", "--means", "1e16,0,-1e16", "--sigma", "1"],
            ["prob", "--means", "1e17,0,-1e17", "--sigma", "1"],
            ["estimate", "--obs", "1e17,0,-1e17", "--sigma", "1"],
            ["estimate", "--obs", "5,0,-5", "--sigma", "1e-200"],
        ],
        ids=["prob-1e16", "prob-1e17", "estimate-1e17", "estimate-tiny-sigma"],
    )
    def test_far_apart_means_factor_into_blocks(self, capsys, argv):
        # every gap is cut, so each mean is a block of its own with P = 1: the
        # order is certain, and the estimates are the observations
        code, out, _ = run(capsys, argv + ["--json"])
        assert code == 0
        payload = json.loads(out)
        if argv[0] == "prob":
            assert (payload["value"], payload["log_value"]) == (1.0, 0.0)
        else:
            assert payload["estimates"] == [float(v) for v in argv[2].split(",")]
            assert payload["log_likelihood"] == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma", ["1", "1e-10"])
    @pytest.mark.parametrize(
        "means,value",
        [("1e308,0,-1e308", 1.0), ("1e308,1e308,-1e308", 0.5), ("-1e308,0,1e308", None)],
    )
    def test_means_past_the_largest_float_apart(self, capsys, means, value, sigma):
        # each block is standardized from the means themselves, so a span that
        # overflows reaches no block on the cone; off it, the one block's span
        # is not finite, and the node cap rejects it
        code, out, err = run(capsys, ["prob", f"--means={means}", "--sigma", sigma, "--json"])
        if value is None:
            assert code == 3 and "over the cap" in err
        else:
            assert code == 0 and json.loads(out)["value"] == value

    def test_offset_of_all_means_changes_nothing(self, capsys):
        # the means are standardized about their midrange before any node is
        # laid, so 1e15 sigma from 0 the quadrature is that of (2, 1, 0)
        means = "1000000000000002,1000000000000001,1000000000000000"
        far = run(capsys, ["prob", "--means", means, "--sigma", "1"])
        near = run(capsys, ["prob", "--means", "2,1,0", "--sigma", "1"])
        assert far[0] == 0 and far == near
        assert "= 0.5361516341" in far[1]

    @pytest.mark.parametrize(
        "means,sigma", [("1.7e308,-1.7e308", "1"), ("5,0", "5e-324")], ids=["gap", "sigma"]
    )
    def test_p2_past_the_largest_float_is_certain(self, means, sigma):
        # the scaled gap is past the largest float: P = 1, with no numpy warning
        env = dict(os.environ, PYTHONPATH=str(Path(selex.__file__).parent.parent))
        argv = ["prob", "--means", means, "--sigma", sigma, "--json"]
        out = subprocess.run(
            [sys.executable, "-m", "selex.cli", *argv], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["value"] == 1.0
        assert "RuntimeWarning" not in out.stderr

    @pytest.mark.parametrize(
        "means,sigma", [("-1.7e308,1.7e308", "1"), ("0,5", "5e-324")], ids=["gap", "sigma"]
    )
    def test_p2_past_the_largest_float_is_impossible(self, means, sigma):
        # the mirror images: P = 0 and log P = -inf, with no numpy warning
        env = dict(os.environ, PYTHONPATH=str(Path(selex.__file__).parent.parent))
        argv = ["prob", f"--means={means}", "--sigma", sigma, "--json"]
        out = subprocess.run(
            [sys.executable, "-m", "selex.cli", *argv], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout)
        assert result["value"] == 0.0 and result["log_value"] == -math.inf
        assert "RuntimeWarning" not in out.stderr

    def test_single_mean_rejected(self, capsys):
        code, _, err = run(capsys, ["prob", "--means", "1", "--sigma", "1"])
        assert code == 2
        assert "means" in err

    def test_bad_sigma_rejected(self, capsys):
        code, _, err = run(capsys, ["prob", "--means", "1,0", "--sigma", "-1"])
        assert code == 2


class TestEstimate:
    def test_single_observation_rejected(self, capsys):
        code, _, err = run(capsys, ["estimate", "--obs", "1", "--sigma", "1"])
        assert code == 2
        assert "--obs needs at least 2 values" in err

    @pytest.mark.parametrize("step,p,most", [(0.5, 10, 4), (0.3, 20, 5)], ids=["p10", "p20"])
    def test_clustered_ladders_take_a_sweep_fewer(self, capsys, step, p, most):
        # observations step sigma apart; a Newton step that stops on the face its projection
        # first lands on, not the one it pools to, takes 5 and 6 sweeps
        obs = ",".join(f"{-step * k + 0.0:g}" for k in range(p))
        argv = ["estimate", "--obs", obs, "--sigma", "1", "--json", "--diagnostics"]
        code, out, _ = run(capsys, argv)
        result = json.loads(out)
        assert code == 0 and result["converged"] and result["fallbacks"] == 0
        assert result["iterations"] <= most

    def test_table_config(self, capsys):
        code, out, _ = run(
            capsys, ["estimate", "--obs", "10,9.5,9,0", "--sigma", "1", "--json"]
        )
        assert code == 0
        est = json.loads(out)["estimates"]
        assert est == pytest.approx([9.5, 9.5, 9.5, 0.0], abs=0.05)

    def test_labels_preserved(self, capsys):
        code, out, _ = run(capsys, ["estimate", "--obs", "0,10", "--sigma", "1", "--json"])
        est = json.loads(out)["estimates"]
        assert est[0] < 0.01 and est[1] > 9.99

    def test_pooling(self, capsys):
        code, out, _ = run(capsys, ["estimate", "--obs", "1,0.5", "--sigma", "1", "--json"])
        est = json.loads(out)["estimates"]
        assert est == pytest.approx([0.75, 0.75], abs=1e-9)

    @pytest.mark.parametrize(
        "obs,sigma,expected",
        [("10,9.5,9,0", "1", 1.541759469255781), ("3,2.2,1", "0.5", 0.2266134887859721)],
    )
    def test_log_likelihood(self, capsys, obs, sigma, expected):
        # the CLI evaluates the objective once, at the reported estimate
        code, out, _ = run(capsys, ["estimate", "--obs", obs, "--sigma", sigma, "--json"])
        assert code == 0
        assert json.loads(out)["log_likelihood"] == pytest.approx(expected, abs=1e-14)

    def test_diagnostics(self, capsys):
        code, out, _ = run(
            capsys,
            ["estimate", "--obs", "3,2,1", "--sigma", "1", "--json", "--diagnostics"],
        )
        payload = json.loads(out)
        assert "kkt_residual" in payload and "iterations" in payload
        assert payload["fallbacks"] == 0

    def test_pooled_sample_reports_no_sweep(self, capsys):
        argv = ["estimate", "--obs", "10,9.8,9.7", "--sigma", "1", "--json", "--diagnostics"]
        code, out, _ = run(capsys, argv)
        payload = json.loads(out)
        assert code == 0 and payload["iterations"] == 0
        assert payload["groups"] == [[0, 1, 2]]
        assert payload["estimates"] == [(10 + 9.8 + 9.7) / 3] * 3  # the grand mean, exactly

    def test_p20_spread_converges_in_few_sweeps(self, capsys):
        # gaps of 3-6 sigma: wider than one window of the panel rule, so each
        # row of the rule runs on its own window
        obs = "100,97,93,88,82,79,75,70,64,61,57,52,46,43,39,34,28,25,21,16"
        argv = ["estimate", "--obs", obs, "--sigma", "1", "--json", "--diagnostics"]
        code, out, _ = run(capsys, argv)
        payload = json.loads(out)
        assert code == 0 and payload["converged"]
        assert payload["iterations"] <= 8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "obs,sigma",
        [("1e300,0,-1e300", "1e-10"), ("3,2,1,0", "5e-324"), ("1e308,0,-1e308", "1")],
        ids=["p3", "p4", "span"],
    )
    def test_standardization_overflow_exits_2(self, capsys, obs, sigma):
        # z = (x - xbar) / sigma, or its span, overflows: a usage error, as at p = 2
        code, _, err = run(capsys, ["estimate", "--obs", obs, "--sigma", sigma])
        assert code == 2
        assert "too far apart for sigma to standardize" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mean_overflow_is_not_a_spread(self, capsys):
        # the plain mean of two equal observations near the largest float
        # overflows; its fallback, the sum of x / p, does not
        argv = ["estimate", "--obs", "1.7e308,1.7e308", "--sigma", "1", "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["estimates"] == [1.7e308, 1.7e308]

    def test_p2_gap_past_the_largest_float_keeps_the_observations(self, capsys):
        # x_1 - x_2 overflows to inf, an interior gap whose shrinkage underflows;
        # pyproject's filterwarnings makes the overflow's warning fail this test
        argv = ["estimate", "--obs", "1e308,-1e308", "--sigma", "1", "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["estimates"] == [1e308, -1e308]

    @pytest.mark.parametrize(
        "obs",
        [[200.0 - i for i in range(150)], [round(100.0 - 0.05 * i, 2) for i in range(100)]],
        ids=["p150-gap1", "p100-gap0.05"],
    )
    def test_large_block_that_loses_p_exits_3(self, capsys, obs):
        # the 1-sigma panels of the solver's rule lose P in a block this
        # large: a quadrature failure, not math.log of P <= 0 (exit 2)
        argv = ["estimate", "--obs", ",".join(map(repr, obs)), "--sigma", "1"]
        code, _, err = run(capsys, argv)
        assert code == 3
        assert err.startswith("quadrature failure: the solver's rule lost P")
        assert f"at p = {len(obs)}" in err

    def test_unconverged_solve_exits_4_with_last_iterate(self, capsys, monkeypatch):
        obs = estimator.ObservedSample([10.0, 9.0, 8.5, 0.0], 1.0)
        assert estimator.ccmle(obs).iterations >= 2
        monkeypatch.setattr(estimator, "MAX_ITERATIONS", 1)
        with pytest.raises(MaxIterationsExceeded) as info:
            estimator.ccmle(obs)
        code, out, _ = run(
            capsys,
            ["estimate", "--obs", "10,9,8.5,0", "--sigma", "1", "--json", "--diagnostics"],
        )
        payload = json.loads(out)
        assert code == 4
        assert payload["converged"] is False and "warning" in payload
        assert payload["iterations"] == 1
        assert payload["estimates"] == info.value.result.in_original_order().tolist()


class TestSimulateMse:
    def test_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "mse.csv"
        code, out, _ = run(
            capsys,
            ["simulate-mse", "--mu", "0,0", "--sigma", "1", "--reps", "150",
             "--seed", "7", "--out", str(out_path)],
        )
        assert code == 0
        assert out == f"simulate-mse: 4 rows written to {out_path}\n"  # no tail of failed replicates
        lines = out_path.read_text().splitlines()
        assert lines[0] == "config_id,mu_true_1,mu_true_2,rank,estimator,mse,se,n_reps"
        assert len(lines) == 5

    @pytest.mark.parametrize("mu", ["1,0", "1,0,0"], ids=["p2", "p3"])
    def test_draws_past_the_largest_float_name_sigma(self, capsys, tmp_path, mu):
        # sigma * a standard normal overflows: a usage error, with no warning
        out_path = tmp_path / "x.csv"
        argv = ["simulate-mse", "--mu", mu, "--reps", "100", "--sigma", "1e308",
                "--out", str(out_path)]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and not out_path.exists()
        assert err == "error: sigma = 1e+308 draws an observation that is not finite\n"

    def test_p2_gaps_past_the_largest_float_run(self, capsys, tmp_path):
        # every replicate's x_1 - x_2 overflows to inf, as in estimate
        out_path = tmp_path / "x.csv"
        argv = ["simulate-mse", "--mu", "1e308,-1e308", "--reps", "100", "--out", str(out_path)]
        code, _, _ = run(capsys, argv)
        assert code == 0
        rows = list(csv.DictReader(out_path.open()))
        assert [r["mse"] for r in rows[::2]] == [r["mse"] for r in rows[1::2]]  # mle, ccmle

    def test_zero_reps_names_field(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["simulate-mse", "--mu", "0,0", "--reps", "0", "--out", str(tmp_path / "x.csv")],
        )
        assert code == 2
        assert "n_reps" in err

    def test_config_file_unknown_field(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu_true": [0, 0], "n_reps": 150, "bogus": 1}))
        code, _, err = run(
            capsys,
            ["simulate-mse", "--config", str(cfg), "--out", str(tmp_path / "x.csv")],
        )
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize(
        "command,text,expected",
        [("simulate-mse", text, "config") for text in (
            "[1, 2]", '["mu_true"]', "3", '{"mu_true": 5}', '{"mu_true": "12"}',
            '{"mu_true": [0, 0], "ranks": "1"}', '{"mu_true": [0, 0], "sigma": Infinity}',
            '{"mu_true": [NaN, 0], "n_reps": 200}', '{"mu_true": [Infinity, 0]}',
            '{"mu_true": [0, 0], "ranks": [Infinity]}',
            '{"mu_true": [0, 0], "n_reps": 150.5}', '{"mu_true": [0, 0], "seed": 1.5}',
            '{"mu_true": [0, 0], "ranks": [1.7]}', '{"mu_true": [0, 0], "config_id": null}',
        )] + [("bootstrap-ci", '{"mu_true": [0, 0], "n_per_group": Infinity}', "config")] + [
            # a float field of the wrong type is named: true is no sigma of 1, "1" no number
            (command, f'{{"mu_true": [0, 0], "{field}": {value}}}',
             f"invalid config: {field} must be a number, not {shown}")
            for command, field, value, shown in (
                ("simulate-mse", "sigma", "true", "True"),
                ("simulate-mse", "sigma", '"1"', "'1'"),
                ("bootstrap-ci", "obs_sd", "true", "True"),
                ("bootstrap-ci", "level", '"0.9"', "'0.9'"),
            )
        ] + [
            # and no mean, in any place of the list
            ("simulate-mse", f'{{"mu_true": {means}, "n_reps": 100}}',
             f"invalid config: mu_true must be a number, not {shown}")
            for means, shown in (("[true, false]", "True"), ('["1", "0"]', "'1'"),
                                 ("[1, true]", "True"))
        ],
        ids=[
            "list", "list-of-names", "number", "scalar-means", "string-means",
            "string-ranks", "infinite-sigma", "nan-means", "infinite-means",
            "infinite-ranks", "fractional-reps", "fractional-seed", "fractional-rank",
            "null-config-id", "infinite-group-size", "bool-sigma", "string-sigma",
            "bool-obs-sd", "string-level", "bool-means", "string-list-means",
            "mixed-bool-means",
        ],
    )
    def test_config_file_malformed(self, capsys, tmp_path, command, text, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, _, err = run(
            capsys, [command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert expected in err

    def test_config_file_unreadable(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, _, err = run(
            capsys, ["simulate-mse", "--config", str(missing), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert f"cannot read config {missing}" in err

    def test_repeated_ranks_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["simulate-mse", "--mu", "0,0", "--reps", "150", "--ranks", "1,1",
             "--out", str(tmp_path / "x.csv")],
        )
        assert code == 2
        assert "ranks must be a non-empty list of distinct ranks" in err

    def test_runner_bound_when_main_runs(self, capsys, monkeypatch, tmp_path):
        # a wrapper set on selex.cli.run_mse, as a tracer sets one, is the runner called
        calls = []

        def wrapped(cfg):
            calls.append(cfg)
            return experiments.run_mse(cfg)

        monkeypatch.setattr(cli, "run_mse", wrapped)
        argv = ["simulate-mse", "--mu", "0,0", "--reps", "150", "--out", str(tmp_path / "x.csv")]
        assert run(capsys, argv)[0] == 0
        assert [cfg.mu_true for cfg in calls] == [(0.0, 0.0)]

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        code, _, err = run(
            capsys, ["simulate-mse", "--mu", "0,0", "--reps", "150", "--out", str(out)]
        )
        assert code == 2
        assert f"failed writing results to {out}" in err

    @pytest.mark.parametrize(
        "command,config,flags,as_flags",
        [
            (
                "simulate-mse",
                {"mu_true": [1, 0.5, 0], "n_reps": 150, "seed": 3, "ranks": [1, 3],
                 "config_id": "x"},
                ["--reps", "200", "--seed", "5"],
                ["--mu", "1,0.5,0", "--reps", "200", "--seed", "5", "--ranks", "1,3",
                 "--config-id", "x"],
            ),
            (
                "bootstrap-ci",
                {"mu_true": [10, 9.5, 9], "n_boot": 999, "seed": 4, "level": 0.9},
                ["--n-boot", "1200", "--seed", "5", "--mu", "10,9.6,9"],
                ["--mu", "10,9.6,9", "--n-boot", "1200", "--seed", "5", "--level", "0.9"],
            ),
        ],
        ids=["simulate-mse", "bootstrap-ci"],
    )
    def test_flags_override_the_config_file(
        self, capsys, tmp_path, command, config, flags, as_flags
    ):
        # each flag given replaces its field of the file; the rest come from the file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        runs = {
            "overridden": ["--config", str(cfg), *flags],
            "flags": as_flags,
            "file": ["--config", str(cfg)],
        }
        for name, argv in runs.items():
            code, _, _ = run(capsys, [command, *argv, "--out", str(tmp_path / f"{name}.csv")])
            assert code == 0
        overridden, flags_only, file_only = (
            (tmp_path / f"{name}.csv").read_bytes() for name in runs
        )
        assert overridden == flags_only != file_only

    def test_config_file_roundtrip(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"mu_true": [0.5, 0.0], "sigma": 1.0, "n_reps": 150, "seed": 7})
        )
        out_path = tmp_path / "mse.json"
        code, _, _ = run(
            capsys, ["simulate-mse", "--config", str(cfg), "--out", str(out_path)]
        )
        assert code == 0
        assert json.loads(out_path.read_text())

    def test_failing_replicate_exits_optimizer(self, capsys, monkeypatch, tmp_path):
        # every p = 3 solve stops after one step
        monkeypatch.setattr(estimator, "MAX_ITERATIONS", 1)
        code, _, err = run(
            capsys,
            ["simulate-mse", "--mu", "1,0.5,0", "--reps", "100", "--seed", "1",
             "--out", str(tmp_path / "x.csv")],
        )
        assert code == 4
        assert "(seed=1, b=" in err

    def test_failing_replicate_exits_quadrature(self, capsys, monkeypatch, tmp_path):
        # every solver's rule fails, and no draw 2e12 sigma apart pools, so
        # replicate 0 is the first to fail
        def fail(mu, covariance=True):
            raise ConvergenceFailure("injected")

        monkeypatch.setattr(estimator, "conditional_moments", fail)
        code, _, err = run(
            capsys,
            ["simulate-mse", "--mu", "2e12,0,0,0,-2e12", "--reps", "100",
             "--out", str(tmp_path / "x.csv")],
        )
        assert code == 3
        assert err.startswith("quadrature failure: replicate (seed=0, b=0): ")

    def test_far_apart_p3_needs_no_panels(self, capsys, monkeypatch, tmp_path):
        # the p = 3 solver's rule is exact at any scale: 2e12 sigma apart the
        # conditioning has no effect, so the CCMLE rows equal the MLE rows; at
        # p = 5 the outer means are blocks of their own around a p = 3 block
        out_path = tmp_path / "x.csv"
        for mu, ranks in (("2e12,0,-2e12", "123"), ("2e12,0,0,0,-2e12", "15")):
            code, _, _ = run(
                capsys,
                ["simulate-mse", "--mu", mu, "--reps", "100", "--out", str(out_path)],
            )
            assert code == 0
            with out_path.open() as fh:
                rows = list(csv.DictReader(fh))
            estimates = {(r["rank"], r["estimator"]): (r["mse"], r["se"]) for r in rows}
            assert len(rows) == 2 * len(mu.split(","))
            for rank in ranks:
                assert estimates[rank, "ccmle"] == estimates[rank, "mle"]

    def test_far_apart_p4_needs_no_panels(self, capsys, monkeypatch, tmp_path):
        # the p = 4 solver's rule is exact too; the outer estimates, near
        # +-2e12, round by about 2.4e-4 sigma, so their CCMLE and MLE rows
        # agree to ~5e-6, not exactly
        out_path = tmp_path / "x.csv"
        code, _, _ = run(
            capsys,
            ["simulate-mse", "--mu", "2e12,0,0,-2e12", "--reps", "100",
             "--out", str(out_path)],
        )
        assert code == 0
        with out_path.open() as fh:
            rows = list(csv.DictReader(fh))
        mse = {(r["rank"], r["estimator"]): float(r["mse"]) for r in rows}
        assert len(rows) == 8
        for rank in ("1", "4"):
            assert mse[rank, "ccmle"] == pytest.approx(mse[rank, "mle"], rel=1e-4)


class TestBootstrapCi:
    def test_writes_output(self, capsys, tmp_path):
        out_path = tmp_path / "ci.csv"
        code, out, _ = run(
            capsys,
            ["bootstrap-ci", "--mu", "1,0", "--n-per-group", "15", "--obs-sd", "1",
             "--n-boot", "999", "--seed", "2", "--out", str(out_path)],
        )
        assert code == 0
        assert out == f"bootstrap-ci: 2 ranks written to {out_path}\n"
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("rank,ccmle_point,ccmle_lower,ccmle_upper")
        assert len(lines) == 3

    @pytest.mark.parametrize("obs_sd", ["1e307", "1e308"])
    def test_group_means_past_the_largest_float_name_obs_sd(self, capsys, tmp_path, obs_sd):
        # at 1e307 a resample's group sum overflows, at 1e308 a drawn value does: a usage
        # error, with no warning
        out_path = tmp_path / "x.csv"
        argv = ["bootstrap-ci", "--mu", "1,0,0", "--obs-sd", obs_sd, "--n-boot", "999",
                "--out", str(out_path)]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and not out_path.exists()
        assert err == f"error: obs_sd = {float(obs_sd)!r} draws a group mean that is not finite\n"

    def test_invalid_level(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["bootstrap-ci", "--mu", "1,0", "--level", "2", "--out", str(tmp_path / "x.csv")],
        )
        assert code == 2
        assert "level" in err

    def test_failing_resample_exits_optimizer(self, capsys, monkeypatch, tmp_path):
        real = experiments.ccmle
        calls = []

        def fail_resamples(obs):
            calls.append(obs)
            if len(calls) == 1:  # the point estimate
                return real(obs)
            if len(calls) > 100:
                raise RuntimeError("retries are not bounded")
            raise MaxIterationsExceeded("forced failure", None)

        monkeypatch.setattr(experiments, "ccmle", fail_resamples)
        code, _, err = run(
            capsys,
            ["bootstrap-ci", "--mu", "1,0.5,0", "--n-boot", "999", "--seed", "3",
             "--out", str(tmp_path / "ci.csv")],
        )
        assert code == 4
        assert "(seed=3, b=0)" in err


@pytest.mark.parametrize(
    "error,code", [(ConvergenceFailure, 3), (MaxIterationsExceeded, 4)],
    ids=["quadrature", "optimizer"],
)
@pytest.mark.parametrize(
    "argv,call,what",
    [
        # negative means: --obs= takes a list that starts with a minus sign
        (["simulate-mse", "--mu=-1,-1.5,-2", "--reps", "100", "--seed", "1"], 5,
         "replicate (seed=1, b=4)"),
        # the first solve is the point estimate, so the fifth is resample 3
        (["bootstrap-ci", "--mu", "1,0.5,0", "--n-per-group", "15", "--obs-sd", "1",
          "--n-boot", "999", "--seed", "2"], 5, "replicate (seed=2, b=3)"),
        (["bootstrap-ci", "--mu", "1,0.5,0", "--n-per-group", "15", "--obs-sd", "1",
          "--n-boot", "999", "--seed", "2"], 1, "point estimate (seed=2)"),
    ],
    ids=["simulate-mse", "bootstrap-ci", "bootstrap-ci-point"],
)
def test_failing_replicate_replays_with_estimate(
    capsys, monkeypatch, tmp_path, argv, call, what, error, code
):
    calls = fail_on(monkeypatch, call, error)
    out_path = tmp_path / "x.csv"
    stopped, out, err = run(capsys, argv + ["--out", str(out_path)])
    assert stopped == code and out == "" and not out_path.exists()
    assert len(calls) == call  # the run stops at the first failure
    assert f": {what}: forced failure; replay: " in err
    command = shlex.split(err.split("; replay: ")[1])
    assert command[:2] == ["selex", "estimate"] and command[2].startswith("--obs=")
    replayed, _, _ = run(capsys, command[1:])
    assert replayed == code
    assert len(calls) == call + 1
    assert calls[call].x.tobytes() == calls[call - 1].x.tobytes()  # bit for bit
    assert calls[call].sigma == calls[call - 1].sigma


@pytest.mark.parametrize(
    "argv",
    [["estimate", "--obs", "3,0", "--sigma", "1"],
     ["simulate-mse", "--mu", "3,0", "--reps", "100", "--out", "x.csv"]],
    ids=["estimate", "simulate-mse"],
)
def test_p2_root_out_of_steps_exits_4(capsys, monkeypatch, tmp_path, argv):
    # the p = 2 root has no iterate to show, so estimate prints none; one short line,
    # which names a failing replicate and the estimate command that replays it
    monkeypatch.setattr(estimator, "P2_MAX_STEPS", 1)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv)
    assert code == 4 and out == "" and not (tmp_path / "x.csv").exists()
    what = "replicate (seed=0, b=0): " if argv[0] == "simulate-mse" else ""
    # one row, so the message names no row
    assert err.startswith(f"optimizer failure: {what}p = 2 root unconverged after 1 steps (d = ")
    assert err.count("\n") == 1 and len(err) < 300
    if what:
        assert "; replay: selex estimate --obs=" in err
        replayed, out, err = run(capsys, shlex.split(err.split("; replay: ")[1])[1:])
        assert replayed == 4 and out == ""
        assert err.startswith("optimizer failure: p = 2 root unconverged after 1 steps (d = ")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["prob", "--means", "1,x", "--sigma", "1"], "--means"),
        (["estimate", "--obs", "1,,x", "--sigma", "1"], "--obs"),
        (["simulate-mse", "--mu", "1,0x", "--out", "x.csv"], "--mu"),
        (["simulate-mse", "--mu", "1,0", "--ranks", "1.5", "--out", "x.csv"], "--ranks"),
        (["bootstrap-ci", "--mu", "nan,one", "--out", "x.csv"], "--mu"),
    ],
    ids=["means", "obs", "mu", "ranks", "bootstrap-mu"],
)
def test_bad_list_value_exits_2_naming_its_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be a comma-separated list of" in capsys.readouterr().err


class TestHelp:
    @pytest.mark.parametrize("cmd", ["prob", "estimate", "simulate-mse", "bootstrap-ci"])
    def test_subcommand_help(self, capsys, cmd):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--help" in out or "usage" in out


@pytest.mark.parametrize(
    "module",
    [
        "scipy.integrate",
        "scipy.optimize",
        "scipy",
        "concurrent.futures",
        "multiprocessing",
        "statistics",
        "json",
    ],
)
def test_cli_import_loads_only_what_runs(module):
    # set-up time and memory: the quadrature kernels, the normal tail and the
    # p = 2 root are selex's own, so no scipy module loads at all; NormalDist
    # and json load in the calls that use them, and no call loads a process pool
    probe = (
        "import sys, selex.cli; selex.cli.build_parser(); "
        f"print({module!r} in sys.modules)"
    )
    # the fresh interpreter imports the same selex sources as this one
    env = dict(os.environ, PYTHONPATH=str(Path(selex.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


def run_fresh(tmp_path, *argv) -> str:
    """``selex argv`` in a new interpreter, in ``tmp_path``: its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(selex.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-m", "selex.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-mse", "--mu", "3,0", "--reps", "200", "--seed", "7"],
        ["bootstrap-ci", "--mu", "10,9.5,9", "--n-boot", "999", "--seed", "2"],
    ],
    ids=["simulate-mse", "bootstrap-ci"],
)
def test_deferred_imports_resolve_in_a_fresh_interpreter(tmp_path, argv):
    # NormalDist is imported by the call that uses it, so it must resolve
    # where nothing (pytest included) has loaded it
    out = run_fresh(tmp_path, *argv, "--out", "out.csv")
    assert out.endswith(" written to out.csv\n")


def test_experiments_run_in_one_process(tmp_path):
    # a SELEX_THREADS left in the environment from older releases starts no pool
    probe = (
        "import sys, selex.cli; "
        "code = selex.cli.main(['simulate-mse', '--mu', '1,0.5,0', '--reps', '100', "
        "'--out', 'x.csv']); "
        "print(code, sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(selex.__file__).parent.parent),
               SELEX_THREADS="2")
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines()[-1] == "0 []"


def test_json_loads_in_a_fresh_interpreter(tmp_path):
    out = run_fresh(tmp_path, "estimate", "--obs", "10,9.5,9,0", "--sigma", "1", "--json")
    assert json.loads(out)["converged"] is True
    (tmp_path / "cfg.json").write_text(json.dumps({"mu_true": [3, 0], "n_reps": 200, "seed": 7}))
    run_fresh(tmp_path, "simulate-mse", "--config", "cfg.json", "--out", "cfg.csv")
    run_fresh(tmp_path, "simulate-mse", "--mu", "3,0", "--reps", "200", "--seed", "7",
              "--out", "flags.csv")
    assert (tmp_path / "cfg.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()
