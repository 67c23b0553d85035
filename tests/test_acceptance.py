"""Acceptance suite.

Each test checks one numbered acceptance criterion end to end and prints a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them). Tolerances and time limits are asserted, not just reported.
"""

import math
import time

import numpy as np
import pytest

from selex import estimator
from selex.cli import main as cli_main
from selex.estimator import (
    POOLING_THRESHOLD,
    ObservedSample,
    ccmle,
)
from selex.experiments import BootstrapConfig, MseConfig, run_bootstrap_ci, run_mse
from selex.ordering import (
    MeanConfig,
    grad_log_ordering_probability,
    mc_ordering_probability,
    ordering_probability,
)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


class TestAcceptance:
    def test_criterion_1_four_population_table(self):
        cases = [
            ([10.0, 9.5, 9.0, 0.0], [9.50, 9.50, 9.50, 0.00]),
            ([10.0, 9.0, 8.0, 0.0], [9.35, 9.00, 8.65, 0.00]),
            ([10.0, 9.0, 1.0, 0.0], [9.50, 9.50, 0.50, 0.50]),
            ([10.0, 2.0, 1.0, 0.0], [10.00, 1.35, 1.00, 0.65]),
        ]
        t0 = time.perf_counter()
        worst = 0.0
        for x, expected in cases:
            res = ccmle(ObservedSample(np.array(x), 1.0))
            worst = max(worst, float(np.max(np.abs(res.mu_hat - np.array(expected)))))
        elapsed = time.perf_counter() - t0
        _report(
            1,
            "four-population table reproduced within 0.05",
            worst <= 0.05 and elapsed < 10.0,
            f"max dev {worst:.4f}, {elapsed:.1f}s",
        )

    def test_criterion_2_p2_threshold_dichotomy(self):
        rng = np.random.default_rng(2024)
        ok = True
        worst_resid = 0.0
        configs = []
        for _ in range(200):
            sigma = float(rng.uniform(0.2, 3.0))
            gap = float(rng.uniform(0.0, 4.0)) * sigma
            configs.append((gap, sigma))
        for sigma in (0.5, 1.0, 2.0):
            thr = POOLING_THRESHOLD * sigma
            configs.append((thr * (1 - 1e-3), sigma))
            configs.append((thr * (1 + 1e-3), sigma))
        for gap, sigma in configs:
            res = ccmle(ObservedSample(np.array([gap, 0.0]), sigma))
            if gap <= POOLING_THRESHOLD * sigma:
                ok = ok and res.path == "closed_form_pooled"
                ok = ok and abs(res.mu_hat[0] - gap / 2) < 1e-12
            else:
                ok = ok and res.path == "closed_form_interior"
                worst_resid = max(worst_resid, res.kkt_residual)
        ok = ok and worst_resid <= 1e-10
        _report(
            2,
            "p=2 pooling dichotomy at 2 sigma / sqrt(pi), interior residual <= 1e-10",
            ok,
            f"worst interior residual {worst_resid:.2e}",
        )

    def test_criterion_3_permutation_completeness(self):
        import itertools

        rng = np.random.default_rng(33)
        worst = 0.0
        for p in (2, 3, 4):
            for _ in range(50):
                mu = rng.normal(0.0, 1.2, p)
                sigma = float(rng.uniform(0.5, 2.0))
                total = sum(
                    ordering_probability(MeanConfig(tuple(mu[list(perm)]), sigma)).value
                    for perm in itertools.permutations(range(p))
                )
                worst = max(worst, abs(total - 1.0))
        _report(
            3,
            "ordering probabilities over all permutations sum to 1 within 1e-6",
            worst <= 1e-6,
            f"worst deviation {worst:.2e}",
        )

    def test_criterion_4_quadrature_vs_monte_carlo(self):
        rng = np.random.default_rng(44)
        t0 = time.perf_counter()
        ok = True
        worst_pull = 0.0
        for i in range(50):
            p = int(rng.integers(2, 6))
            mu = np.sort(rng.normal(0.0, 1.5, p))[::-1]
            sigma = float(rng.uniform(0.5, 2.0))
            cfg = MeanConfig(tuple(mu), sigma)
            quad = ordering_probability(cfg)
            mc = mc_ordering_probability(cfg, 1_000_000, seed=i)
            if mc.degenerate:
                # all or none of the draws landed in order; the Monte Carlo
                # side carries no usable standard error at this sample size
                continue
            pull = abs(quad.value - mc.value) / mc.err_est
            worst_pull = max(worst_pull, pull)
            ok = ok and pull <= 3.0
        elapsed = time.perf_counter() - t0
        _report(
            4,
            "quadrature matches 1e6-draw Monte Carlo within 3 standard errors",
            ok and elapsed < 120.0,
            f"worst pull {worst_pull:.2f} SE, {elapsed:.1f}s",
        )

    def test_criterion_5_sum_preservation(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(100):
            p = int(rng.integers(2, 6))
            sigma = float(rng.uniform(0.3, 2.5))
            x = np.sort(rng.normal(0.0, 2.0, p))[::-1].copy()
            res = ccmle(ObservedSample(x, sigma))
            worst = max(worst, abs(res.mu_hat.sum() - x.sum()))
        _report(
            5,
            "estimate preserves the observed sum within 1e-8",
            worst <= 1e-8,
            f"worst |sum drift| {worst:.2e}",
        )

    def test_criterion_6_p2_numeric_matches_closed_form(self):
        rng = np.random.default_rng(66)
        worst = 0.0
        for _ in range(100):
            sigma = float(rng.uniform(0.2, 3.0))
            gap = float(rng.uniform(0.0, 3.0 * sigma))
            base = float(rng.normal(0.0, 2.0))
            obs = ObservedSample(np.array([base + gap, base]), sigma)
            exact = ccmle(obs).mu_hat
            numeric = estimator._ascent(obs).mu_hat
            worst = max(worst, float(np.max(np.abs(exact - numeric))))
        _report(
            6,
            "general optimizer agrees with the p=2 closed form within 1e-4",
            worst <= 1e-4,
            f"worst component gap {worst:.2e}",
        )

    def test_criterion_7_selection_respecting_mse(self):
        table_eq = run_mse(MseConfig((0.0, 0.0), 1.0, 10_000, seed=7, ranks=(1,)))
        mse_eq = {r["estimator"]: r["mse"] for r in table_eq.rows}
        table_sep = run_mse(MseConfig((3.0, 0.0), 1.0, 10_000, seed=7, ranks=(1,)))
        mse_sep = {r["estimator"]: r["mse"] for r in table_sep.rows}
        ratio = mse_sep["ccmle"] / mse_sep["mle"]
        ok = (
            mse_eq["ccmle"] < mse_eq["mle"]
            and abs(mse_eq["mle"] - 1.0) <= 0.05
            and 0.95 <= ratio <= 1.30
        )
        _report(
            7,
            "CCMLE beats the naive MLE at equal means; near parity when separated",
            ok,
            f"equal-means MSE mle {mse_eq['mle']:.3f} vs ccmle {mse_eq['ccmle']:.3f}, "
            f"separated ratio {ratio:.3f}",
        )

    def test_criterion_8_bootstrap_intervals(self):
        t0 = time.perf_counter()
        cfg = BootstrapConfig(
            (10.0, 9.5, 9.0), n_per_group=50, obs_sd=math.sqrt(50.0),
            n_boot=2000, level=0.95, seed=2,
        )
        iv = run_bootstrap_ci(cfg)
        elapsed = time.perf_counter() - t0
        points = [r["ccmle_point"] for r in iv.rows]
        pooled = max(points) - min(points) <= 1e-9
        top, bottom = iv.rows[0], iv.rows[-1]
        nested = (
            top["ccmle_upper"] <= top["trad_upper"]
            and bottom["ccmle_lower"] >= bottom["trad_lower"]
        )
        _report(
            8,
            "bootstrap: pooled point estimate, CCMLE extremes inside traditional",
            pooled and nested and elapsed < 300.0,
            f"point {points[0]:.3f}, upper {top['ccmle_upper']:.2f} <= "
            f"{top['trad_upper']:.2f}, lower {bottom['ccmle_lower']:.2f} >= "
            f"{bottom['trad_lower']:.2f}, {elapsed:.0f}s",
        )

    def test_criterion_9_gradient_cross_check(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(50):
            sigma = float(rng.uniform(0.3, 2.5))
            mu = np.sort(rng.normal(0.0, 1.5, 2))[::-1]
            cfg = MeanConfig(tuple(mu), sigma)
            analytic = grad_log_ordering_probability(cfg)
            h = 1e-6 * sigma
            fd = np.empty(2)
            for i in range(2):
                up, dn = mu.copy(), mu.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (
                    ordering_probability(MeanConfig(tuple(up), sigma)).log_value
                    - ordering_probability(MeanConfig(tuple(dn), sigma)).log_value
                ) / (2.0 * h)
            worst = max(worst, float(np.max(np.abs(fd - analytic))))
        _report(
            9,
            "finite-difference gradient matches the p=2 analytic form within 1e-5",
            worst <= 1e-5,
            f"worst component error {worst:.2e}",
        )

    def test_criterion_10_cli_determinism(self, tmp_path, monkeypatch):
        outputs = {"mse": [], "ci": []}
        for threads in ("1", "8"):
            monkeypatch.setenv("SELEX_THREADS", threads)
            mse_out = tmp_path / f"mse_{threads}.csv"
            code = cli_main(
                ["simulate-mse", "--mu", "0.5,0", "--reps", "400",
                 "--seed", "11", "--out", str(mse_out)]
            )
            assert code == 0
            outputs["mse"].append(mse_out.read_bytes())
            ci_out = tmp_path / f"ci_{threads}.csv"
            code = cli_main(
                ["bootstrap-ci", "--mu", "1,0", "--n-per-group", "15",
                 "--obs-sd", "1", "--n-boot", "999", "--seed", "11",
                 "--out", str(ci_out)]
            )
            assert code == 0
            outputs["ci"].append(ci_out.read_bytes())
        ok = (
            outputs["mse"][0] == outputs["mse"][1]
            and outputs["ci"][0] == outputs["ci"][1]
        )
        _report(
            10,
            "CLI output files byte-identical across SELEX_THREADS=1 and 8",
            ok,
        )
