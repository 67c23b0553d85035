import csv
import json
import math

import numpy as np
import pytest

from selex import experiments
from selex.estimator import MaxIterationsExceeded, ObservedSample, ccmle
from selex.experiments import (
    BootstrapConfig,
    MseConfig,
    export_results,
    run_bootstrap_ci,
    run_mse,
)
from selex.ordering import ConvergenceFailure, MeanConfig

# either solver failure stops the run, re-raised as itself
solver_errors = pytest.mark.parametrize(
    "error", [MaxIterationsExceeded, ConvergenceFailure], ids=["max-iterations", "convergence"]
)


class TestConfigs:
    def test_mse_defaults(self):
        cfg = MseConfig((0.0, 0.0))
        assert cfg.n_reps == 1000 and cfg.sigma == 1.0
        assert cfg.ranks == (1, 2)
        numpy_ints = MseConfig((0.0, 0.0), n_reps=np.int64(150), seed=np.uint32(3))
        assert (numpy_ints.n_reps, numpy_ints.seed) == (150, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu_true": (0.0,)},
            {"mu_true": (0.0, 0.0), "sigma": 0.0},
            {"mu_true": (0.0, 0.0), "n_reps": 0},
            {"mu_true": (0.0, 0.0), "ranks": (0,)},
            {"mu_true": (0.0, 0.0), "ranks": (3,)},
            {"mu_true": (0.0, 0.0), "sigma": math.inf},
            {"mu_true": (0.0, 0.0), "n_reps": 150.5},
            {"mu_true": (0.0, 0.0), "seed": 1.5},
            {"mu_true": (0.0, 0.0), "seed": True},
            {"mu_true": (0.0, 0.0), "ranks": (1.7,)},
            {"mu_true": (0.0, 0.0), "ranks": ()},
            {"mu_true": (0.0, 0.0), "ranks": (1, 1)},
            {"mu_true": (0.0, 0.0), "config_id": None},
            {"mu_true": (0.0, 0.0), "n_reps": 2**32},  # b would wrap in its uint32 key word
            {"mu_true": (0.0, 0.0), "sigma": True},
            {"mu_true": (0.0, 0.0), "sigma": "1"},
            {"mu_true": [True, False]},  # a bool or a string is no mean
            {"mu_true": ["1", "0"]},
            {"mu_true": [1, True]},
            {"mu_true": [10**400, 0]},  # an int past the float range is not finite
        ],
    )
    def test_mse_invalid(self, kwargs):
        with pytest.raises(ValueError):
            MseConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu_true": (0.0,)},
            {"mu_true": (0.0, 0.0), "n_boot": 100},
            {"mu_true": (0.0, 0.0), "level": 1.2},
            {"mu_true": (0.0, 0.0), "obs_sd": -1.0},
            {"mu_true": (0.0, 0.0), "obs_sd": math.inf},
            {"mu_true": (0.0, 0.0), "n_per_group": math.inf},
            {"mu_true": (0.0, 0.0), "n_boot": 999.5},
            {"mu_true": (0.0, 0.0), "seed": 1.5},
            {"mu_true": (0.0, 0.0), "obs_sd": True},
            {"mu_true": (0.0, 0.0), "obs_sd": "1"},
            {"mu_true": (0.0, 0.0), "level": "0.9"},
            {"mu_true": [True, False]},
            {"mu_true": ["1", "0"]},
            {"mu_true": [1, True]},
        ],
    )
    def test_bootstrap_invalid(self, kwargs):
        with pytest.raises(ValueError):
            BootstrapConfig(**kwargs)

    @pytest.mark.parametrize("cls,field", [(MseConfig, "sigma"), (BootstrapConfig, "obs_sd"),
                                           (BootstrapConfig, "level"), (MeanConfig, "sigma"),
                                           (ObservedSample, "sigma")])
    def test_real_fields_are_stored_as_floats(self, cls, field):
        cfg = cls((0.0, 0.0), **{field: np.float32(0.5)})
        assert type(getattr(cfg, field)) is float and getattr(cfg, field) == 0.5


def worked_example():
    """Errors of the paper's worked example, scored as run_mse scores them:
    true means (3, 2, 1), one replicate drawn as (2.1, 2.2, 1.8)."""
    x, mu_hat, labels = experiments._replicates(np.array([[2.1, 2.2, 1.8]]), 1.0, 0)
    truth = np.array([3.0, 2.0, 1.0])[labels[0]]
    return labels[0], truth - x[0], truth - mu_hat[0], mu_hat[0]


class TestSelectionAccounting:
    def test_paper_worked_example(self):
        # the max rank is taken by the second population, so its error is
        # 2 - 2.2 = -0.2
        labels, errors_mle, _, _ = worked_example()
        assert list(labels) == [1, 0, 2]
        assert errors_mle[0] == pytest.approx(-0.2)
        assert errors_mle[1] == pytest.approx(3.0 - 2.1)
        assert errors_mle[2] == pytest.approx(1.0 - 1.8)

    @pytest.mark.parametrize("p", [3, 4])
    def test_batch_matches_one_sample_at_a_time(self, p):
        # the batch is ranked at once; each row must rank and solve as its own sample,
        # an exact tie (last row) included
        first = np.random.default_rng(p).normal(0.0, 1.5, (40, p))
        first[-1, :2] = first[-1, 1:3]
        x, mu_hat, labels = experiments._replicates(first, 0.8, 0)
        for b, row in enumerate(first):
            obs = ObservedSample(row, 0.8)
            assert x[b].tobytes() == obs.x.tobytes()
            assert mu_hat[b].tobytes() == ccmle(obs).mu_hat.tobytes()
            assert labels[b].tobytes() == obs.permutation.tobytes()

    def test_ccmle_errors_use_selected_truth(self):
        _, errors_mle, errors_ccmle, mu_hat = worked_example()
        # both error vectors reference the same selected true means
        truth_mle = errors_mle + np.array([2.2, 2.1, 1.8])
        assert np.allclose(truth_mle, [2.0, 3.0, 1.0])
        assert np.allclose(errors_ccmle + mu_hat, [2.0, 3.0, 1.0])


class TestRunMse:
    @pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e3])
    def test_draw_matches_generator_normal(self, sigma):
        # 2**32 - 1 is the largest one-word seed; 2**32 and 2**70 + 3 take two and three words
        mu_true = np.array([0.5, 0.0, -2.0])
        for seed in (11, 2**32 - 1, 2**32, 2**70 + 3):
            draws = experiments._mse_draws(mu_true, sigma, seed, 100)
            for b in (0, 7, 99):
                expected = np.random.default_rng([seed, b]).normal(mu_true, sigma)
                assert np.array_equal(draws[b], expected)

    def test_deterministic(self):
        cfg = MseConfig((0.5, 0.0), 1.0, 200, seed=13)
        assert run_mse(cfg).rows == run_mse(cfg).rows

    def test_row_schema(self):
        cfg = MseConfig((0.5, 0.0), 1.0, 150, seed=3, ranks=(1,), config_id="g7")
        table = run_mse(cfg)
        assert len(table.rows) == 2  # one rank, two estimators
        row = table.rows[0]
        assert list(row.keys()) == [
            "config_id", "mu_true_1", "mu_true_2", "rank", "estimator",
            "mse", "se", "n_reps",
        ]
        assert row["config_id"] == "g7"
        assert table.n_failures == 0

    def test_ccmle_beats_mle_at_equal_means(self):
        cfg = MseConfig((0.0, 0.0), 1.0, 2000, seed=17)
        table = run_mse(cfg)
        mse = {(r["rank"], r["estimator"]): r["mse"] for r in table.rows}
        assert mse[(1, "ccmle")] < mse[(1, "mle")]

    @solver_errors
    def test_first_failure_stops_the_run(self, monkeypatch, error):
        real = experiments.ccmle
        calls, raised = [], []

        def fail_fifth(obs):
            calls.append(obs)
            if len(calls) == 5:  # replicate 4
                raised.append(error("forced failure"))
                raise raised[-1]
            return real(obs)

        monkeypatch.setattr(experiments, "ccmle", fail_fifth)
        cfg = MseConfig((1.0, 0.5, 0.0), 1.0, 100, seed=13)
        with pytest.raises(error, match=r"^replicate \(seed=13, b=4\): forced failure; ") as info:
            run_mse(cfg)
        assert len(calls) == 5  # replicate 4 solved once, and none after it
        assert info.value is raised[0]  # the solver's own error, not a rebuilt one


class TestRunBootstrap:
    def test_interval_shape_and_order(self):
        cfg = BootstrapConfig((1.0, 0.0), n_per_group=20, obs_sd=1.0,
                              n_boot=999, level=0.95, seed=5)
        iv = run_bootstrap_ci(cfg)
        assert len(iv.rows) == 2
        for row in iv.rows:
            assert row["ccmle_lower"] <= row["ccmle_upper"]
            assert row["trad_lower"] <= row["trad_point"] <= row["trad_upper"]

    def test_deterministic(self):
        cfg = BootstrapConfig((1.0, 0.0), n_per_group=15, obs_sd=1.0,
                              n_boot=999, seed=8)
        assert run_bootstrap_ci(cfg).rows == run_bootstrap_ci(cfg).rows

    def test_level_nesting(self):
        wide = BootstrapConfig((1.0, 0.0), n_per_group=20, obs_sd=1.0,
                               n_boot=999, level=0.95, seed=9)
        narrow = BootstrapConfig((1.0, 0.0), n_per_group=20, obs_sd=1.0,
                                 n_boot=999, level=0.90, seed=9)
        for r95, r90 in zip(run_bootstrap_ci(wide).rows, run_bootstrap_ci(narrow).rows):
            assert r95["ccmle_lower"] <= r90["ccmle_lower"]
            assert r90["ccmle_upper"] <= r95["ccmle_upper"]
            assert r95["trad_lower"] <= r90["trad_lower"]
            assert r90["trad_upper"] <= r95["trad_upper"]

    def test_data_of_the_wrong_shape_rejected(self):
        cfg = BootstrapConfig((1.0, 0.0), n_per_group=10, obs_sd=1.0, n_boot=999)
        with pytest.raises(ValueError, match=r"data must have shape \(2, 10\)"):
            run_bootstrap_ci(cfg, data=np.zeros((2, 9)))

    def test_nested_list_data_reads_as_its_array(self):
        cfg = BootstrapConfig((1.0, 0.0), n_per_group=3, obs_sd=1.0, n_boot=999, seed=5)
        data = [[1, 2, 3], [0, 1, 2]]
        assert run_bootstrap_ci(cfg, data=data).rows == run_bootstrap_ci(
            cfg, data=np.array(data, dtype=float)).rows

    def test_degenerate_data_collapses_intervals(self):
        cfg = BootstrapConfig((1.0, 0.0), n_per_group=10, obs_sd=1.0,
                              n_boot=999, seed=4)
        data = np.repeat([[2.0], [1.0]], 10, axis=1)
        iv = run_bootstrap_ci(cfg, data=data)
        for row in iv.rows:
            assert row["ccmle_lower"] == row["ccmle_upper"] == row["ccmle_point"]
            assert row["trad_lower"] == row["trad_upper"] == row["trad_point"]

    @solver_errors
    def test_first_failure_stops_the_run(self, monkeypatch, error):
        real = experiments.ccmle
        calls, raised = [], []

        def fail_resamples(obs):
            calls.append(obs)
            if len(calls) == 1:  # the point estimate
                return real(obs)
            raised.append(error("forced failure"))
            raise raised[-1]

        monkeypatch.setattr(experiments, "ccmle", fail_resamples)
        cfg = BootstrapConfig((1.0, 0.5, 0.0), n_per_group=10, obs_sd=1.0,
                              n_boot=999, seed=7)
        with pytest.raises(error, match=r"^replicate \(seed=7, b=0\): forced failure; ") as info:
            run_bootstrap_ci(cfg)
        assert len(calls) == 2  # resample 0 solved once, and none after it
        assert info.value is raised[0]


class TestExport:
    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_results([], "csv", tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_results([{"a": 1.0}], "xml", tmp_path / "out.xml")

    def test_csv_layout(self, tmp_path):
        rows = [{"config_id": "0", "mse": 0.123456789012345, "n_reps": 100}]
        path = tmp_path / "out.csv"
        export_results(rows, "csv", path)
        text = path.read_bytes().decode()
        assert text == "config_id,mse,n_reps\n0,0.123456789,100\n"

    def test_csv_quotes_a_field_that_holds_a_comma_or_quote(self, tmp_path):
        # a bare join would split 'a,"b' into two fields under one header
        table = run_mse(MseConfig((0.5, 0.0), 1.0, 150, seed=23, config_id='a,"b'))
        path = tmp_path / "out.csv"
        export_results(table.rows, "csv", path)
        assert path.read_text().splitlines()[1].startswith('"a,""b",0.5,0,')
        with open(path, newline="") as fh:
            loaded = list(csv.DictReader(fh))
        assert [list(row) for row in loaded] == [list(row) for row in table.rows]
        for got, want in zip(loaded, table.rows):
            assert got["config_id"] == 'a,"b' and None not in got
            assert float(got["mse"]) == pytest.approx(want["mse"], rel=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = MseConfig((0.5, 0.0), 1.0, 150, seed=23)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_results(run_mse(cfg).rows, "csv", p1)
        export_results(run_mse(cfg).rows, "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_round_trip(self, tmp_path):
        cfg = MseConfig((0.5, 0.0), 1.0, 150, seed=23, ranks=(1,))
        table = run_mse(cfg)
        path = tmp_path / "out.json"
        export_results(table.rows, "json", path)
        loaded = json.loads(path.read_text())
        assert len(loaded) == len(table.rows)
        for got, want in zip(loaded, table.rows):
            assert got["estimator"] == want["estimator"]
            assert got["mse"] == pytest.approx(want["mse"], rel=1e-9)

    def test_io_error_names_path(self):
        with pytest.raises(OSError, match="no/such/dir"):
            export_results([{"a": 1.0}], "csv", "/no/such/dir/out.csv")
