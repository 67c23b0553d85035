import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import selex
from selex import estimator, experiments
from selex.cli import main
from selex.estimator import MaxIterationsExceeded
from selex.ordering import ConvergenceFailure, UnderflowWarning


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fail_once(monkeypatch, call: int) -> None:
    """Serial experiments whose ``call``-th solve (1-based) fails, once."""
    monkeypatch.setenv("SELEX_THREADS", "1")
    real = experiments.ccmle
    calls = []

    def flaky(obs):
        calls.append(obs)
        if len(calls) == call:
            raise MaxIterationsExceeded("forced failure", None)
        return real(obs)

    monkeypatch.setattr(experiments, "ccmle", flaky)


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
        assert payload["estimates"] == pytest.approx([(10 + 9.8 + 9.7) / 3] * 3, rel=1e-15)

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

    def test_unconverged_solve_exits_4_with_last_iterate(self, capsys, monkeypatch):
        monkeypatch.setattr(estimator, "MAX_ITERATIONS", 1)
        with pytest.raises(MaxIterationsExceeded) as info:
            estimator.ccmle(estimator.ObservedSample([10.0, 9.5, 9.0, 0.0], 1.0))
        code, out, _ = run(
            capsys,
            ["estimate", "--obs", "10,9.5,9,0", "--sigma", "1", "--json", "--diagnostics"],
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
        lines = out_path.read_text().splitlines()
        assert lines[0] == "config_id,mu_true_1,mu_true_2,rank,estimator,mse,se,n_reps"
        assert len(lines) == 5

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
        "command,text",
        [("simulate-mse", text) for text in (
            "[1, 2]", '["mu_true"]', "3", '{"mu_true": 5}', '{"mu_true": "12"}',
            '{"mu_true": [0, 0], "ranks": "1"}', '{"mu_true": [0, 0], "sigma": Infinity}',
            '{"mu_true": [NaN, 0], "n_reps": 200}', '{"mu_true": [Infinity, 0]}',
            '{"mu_true": [0, 0], "ranks": [Infinity]}',
            '{"mu_true": [0, 0], "n_reps": 150.5}', '{"mu_true": [0, 0], "seed": 1.5}',
            '{"mu_true": [0, 0], "ranks": [1.7]}',
        )] + [("bootstrap-ci", '{"mu_true": [0, 0], "n_per_group": Infinity}')],
        ids=[
            "list", "list-of-names", "number", "scalar-means", "string-means",
            "string-ranks", "infinite-sigma", "nan-means", "infinite-means",
            "infinite-ranks", "fractional-reps", "fractional-seed", "fractional-rank",
            "infinite-group-size",
        ],
    )
    def test_config_file_malformed(self, capsys, tmp_path, command, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, _, err = run(
            capsys, [command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "config" in err

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

    def test_deterministic_across_thread_caps(self, capsys, tmp_path, monkeypatch):
        paths = []
        for threads in ("1", "8"):
            monkeypatch.setenv("SELEX_THREADS", threads)
            p = tmp_path / f"mse_{threads}.csv"
            code, _, _ = run(
                capsys,
                ["simulate-mse", "--mu", "0.5,0", "--reps", "150", "--seed", "3",
                 "--out", str(p)],
            )
            assert code == 0
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("threads", ["abc", "-1"])
    def test_bad_thread_cap_exits_usage(self, capsys, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("SELEX_THREADS", threads)
        code, _, err = run(
            capsys,
            ["simulate-mse", "--mu", "0.5,0", "--reps", "100", "--out", str(tmp_path / "x.csv")],
        )
        assert code == 2
        assert "SELEX_THREADS" in err and repr(threads) in err

    def test_failing_replicate_exits_optimizer(self, capsys, monkeypatch, tmp_path):
        # every p = 3 solve stops after one step; pool workers inherit the cap
        monkeypatch.setattr(estimator, "MAX_ITERATIONS", 1)
        monkeypatch.setenv("SELEX_THREADS", "2")
        code, _, err = run(
            capsys,
            ["simulate-mse", "--mu", "1,0.5,0", "--reps", "100", "--seed", "1",
             "--out", str(tmp_path / "x.csv")],
        )
        assert code == 4
        assert "(seed=1, b=" in err

    def test_failing_replicate_exits_quadrature(self, capsys, monkeypatch, tmp_path):
        # every solver's rule fails, and no draw 2e12 sigma apart pools; pool
        # workers inherit the failure, and the pool returns the quadrature
        # error of replicate 0 once its redraws run out
        def fail(mu):
            raise ConvergenceFailure("injected")

        monkeypatch.setattr(estimator, "conditional_moments", fail)
        monkeypatch.setenv("SELEX_THREADS", "2")
        code, _, err = run(
            capsys,
            ["simulate-mse", "--mu", "2e12,0,0,0,-2e12", "--reps", "100",
             "--out", str(tmp_path / "x.csv")],
        )
        assert code == 3
        assert err.startswith("quadrature failure: replicate (seed=0, b=0): ")

    def test_far_apart_p3_needs_no_panels(self, capsys, monkeypatch, tmp_path):
        # the p = 3 solver's rule is exact at any scale: 2e12 sigma apart the
        # conditioning has no effect, so the CCMLE rows equal the MLE rows
        monkeypatch.setenv("SELEX_THREADS", "2")
        out_path = tmp_path / "x.csv"
        code, _, _ = run(
            capsys,
            ["simulate-mse", "--mu", "2e12,0,-2e12", "--reps", "100",
             "--out", str(out_path)],
        )
        assert code == 0
        with out_path.open() as fh:
            rows = list(csv.DictReader(fh))
        estimates = {(r["rank"], r["estimator"]): (r["mse"], r["se"]) for r in rows}
        assert len(rows) == 6
        for rank in ("1", "2", "3"):
            assert estimates[rank, "ccmle"] == estimates[rank, "mle"]

    def test_far_apart_p4_needs_no_panels(self, capsys, monkeypatch, tmp_path):
        # the p = 4 solver's rule is exact too; the outer estimates, near
        # +-2e12, round by about 2.4e-4 sigma, so their CCMLE and MLE rows
        # agree to ~5e-6, not exactly
        monkeypatch.setenv("SELEX_THREADS", "2")
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

    @pytest.mark.parametrize("strict,expected", [(False, 0), (True, 5)])
    def test_strict_exits_5_on_a_redraw(
        self, capsys, monkeypatch, tmp_path, strict, expected
    ):
        fail_once(monkeypatch, 5)
        code, out, err = run(
            capsys,
            ["simulate-mse", "--mu", "1,0.5,0", "--reps", "100", "--seed", "1",
             "--out", str(tmp_path / "x.csv")] + ["--strict"] * strict,
        )
        assert code == expected
        assert "(1 redrawn replicates)" in out
        assert ("redrawn in strict mode" in err) == strict


class TestBootstrapCi:
    def test_writes_output(self, capsys, tmp_path):
        out_path = tmp_path / "ci.csv"
        code, out, _ = run(
            capsys,
            ["bootstrap-ci", "--mu", "1,0", "--n-per-group", "15", "--obs-sd", "1",
             "--n-boot", "999", "--seed", "2", "--out", str(out_path)],
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("rank,ccmle_point,ccmle_lower,ccmle_upper")
        assert len(lines) == 3

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

    @pytest.mark.parametrize("strict,expected", [(False, 0), (True, 5)])
    def test_strict_exits_5_on_a_redraw(
        self, capsys, monkeypatch, tmp_path, strict, expected
    ):
        fail_once(monkeypatch, 2)  # resample 0; the first solve is the point estimate
        code, out, err = run(
            capsys,
            ["bootstrap-ci", "--mu", "1,0.5,0", "--n-per-group", "15", "--obs-sd", "1",
             "--n-boot", "999", "--seed", "2", "--out", str(tmp_path / "ci.csv")]
            + ["--strict"] * strict,
        )
        assert code == expected
        assert "(1 redrawn resamples)" in out
        assert ("redrawn in strict mode" in err) == strict


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
    # p = 2 root are selex's own, so no scipy module loads at all; the process
    # pool, NormalDist and json load in the calls that use them
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


def run_fresh(tmp_path, *argv, threads="1") -> str:
    """``selex argv`` in a new interpreter, in ``tmp_path``: its stdout."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(selex.__file__).parent.parent),
        SELEX_THREADS=threads,
    )
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
    # the pool and NormalDist are imported by the calls that use them, so
    # they must resolve where nothing (pytest included) has loaded them
    for threads in ("2", "1"):
        run_fresh(tmp_path, *argv, "--out", f"out{threads}.csv", threads=threads)
    assert (tmp_path / "out2.csv").read_bytes() == (tmp_path / "out1.csv").read_bytes()


def test_json_loads_in_a_fresh_interpreter(tmp_path):
    out = run_fresh(tmp_path, "estimate", "--obs", "10,9.5,9,0", "--sigma", "1", "--json")
    assert json.loads(out)["converged"] is True
    (tmp_path / "cfg.json").write_text(json.dumps({"mu_true": [3, 0], "n_reps": 200, "seed": 7}))
    run_fresh(tmp_path, "simulate-mse", "--config", "cfg.json", "--out", "cfg.csv")
    run_fresh(tmp_path, "simulate-mse", "--mu", "3,0", "--reps", "200", "--seed", "7",
              "--out", "flags.csv")
    assert (tmp_path / "cfg.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()
