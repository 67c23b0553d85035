"""The three workloads of the selex benchmark, with their output checks.

Every workload is a closed loop: one calling process issues the next call
only when the previous one has returned. Inputs come from the workload seed
alone. A workload returns a ``Run``: operations attempted and failed, the
seconds each operation took, and whether every checked output was right.
Times are wall seconds scaled to the reference machine speed of clock.py,
from the calibration kernel timed between stretches of calls; the raw wall
seconds are kept beside them.

Failure accounting. An operation fails if it raises, if it is a rejected
bootstrap resample, or if its output fails a check; any failure makes
``correct`` false. The outlier probe of ``solve-mixed-p`` is not an
operation of the workload but a check of a known defect, made in traced
runs: an observation 1e3-1e4 sigma away from the rest stretches the single
quadrature grid of ``selex.ordering`` until the rest of the sample is
estimated wrongly. Its outcome is reported on its own (``Run.probe``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from selex import cli, estimator, experiments
from selex.estimator import MaxIterationsExceeded, ObservedSample

from clock import Clock
from layers import traced


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    op_seconds: list[float] = field(default_factory=list)  # one entry per operation
    busy_seconds: float = 0.0  # time spent inside the program's calls
    raw_seconds: float = 0.0  # busy_seconds as wall time, unscaled
    untraced_seconds: float = 0.0  # traced runs: the same calls, untraced
    experiment_ops: int = 0  # operations issued through the experiments layer
    check_failed: int = 0
    problems: list[str] = field(default_factory=list)
    probe: dict | None = None  # solve-mixed-p, traced: the outlier probe's outcome
    stretches: list[tuple[list[float], int]] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.correct = False
        if len(self.problems) < 20:
            self.problems.append(problem)

    def add_stretch(self, raw: list[float], ops_each: int = 1) -> None:
        """One stretch of calls: the wall seconds of each, operations per call."""
        self.stretches.append((raw, ops_each))

    def finish(self, factors: list[float] | None = None) -> None:
        """Operation times from the stretches, each scaled by its factor
        (Clock.factors; unscaled without them)."""
        for i, (raw, ops_each) in enumerate(self.stretches):
            factor = factors[i] if factors else 1.0
            for took in raw:
                self.op_seconds.extend([took * factor / ops_each] * ops_each)
                self.busy_seconds += took * factor
                self.raw_seconds += took


def _another_round(start: float, done: int, seconds: float) -> bool:
    """Whether to start another whole round, so that the run ends as near
    ``seconds`` after ``start`` as whole rounds allow (always at least one)."""
    if done == 0:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done < seconds


# --- solve-mixed-p ---------------------------------------------------------

# Solves per cycle for each p: weighted toward small p, half of each count
# clustered (gaps below 2 sigma / sqrt(pi), so they pool) and half spread.
CYCLE = {3: 160, 4: 48, 6: 10, 10: 4, 20: 2}
# One solve at p >= 6 takes 0.05-11 s depending on its gaps and sigma (the
# KKT tolerance is absolute), and only a few fit in a run; the slowest p=4
# solves set op_ms_p90. So samples at p >= 4 are a fixed set: gaps and sigma
# are drawn once from a constant stream, the same in every cycle and for
# every seed, which moves only their shift and input order. At p = 3
# everything comes from the seed. Each (p, kind) group of a cycle is a Latin
# hypercube over its gaps and log sigma, so every cycle covers the ranges
# evenly and costs about the same.
FIXED_FROM_P = 4
FIXED_STREAM = 0
GAP_RANGE = {  # gap between neighbours, in sigma
    "clustered": (0.0, estimator.POOLING_THRESHOLD),
    "spread": (3.0, 6.0),
}
PROBE_P = (3, 4, 6)  # the outlier probe; p=10 is left out, one takes ~51 s
STRETCH_S = 0.25  # wall seconds of solves between two calibrations


@dataclass
class Case:
    x: np.ndarray  # observations in input (unsorted) order
    sigma: float
    p: int
    kind: str  # clustered | spread
    block: np.ndarray | None = None  # the non-outlier observations, if any
    outlier_on_top: bool = False


def _latin_hypercube(rng, n: int, d: int) -> np.ndarray:
    """n points in [0, 1)^d, one in each of n equal strata of every coordinate."""
    return (np.argsort(rng.random((n, d)), axis=0) + rng.random((n, d))) / n


def _sample(rng, u_gaps: np.ndarray, kind: str, u_sigma: float):
    """Observations (descending) and sigma from unit-interval coordinates."""
    lo, hi = GAP_RANGE[kind]
    sigma = float(10.0 ** (2.0 * u_sigma - 1.0))  # log-uniform on [0.1, 10]
    gaps = lo + (hi - lo) * u_gaps
    x = rng.uniform(-100.0, 100.0) - sigma * np.concatenate(([0.0], np.cumsum(gaps)))
    return x, sigma


def solve_cases(seed: int, cycle: int) -> list[Case]:
    """One cycle of the fixed mix, drawn from (seed, cycle), in shuffled order."""
    rng = np.random.default_rng([seed, 1, cycle])
    cases = []
    for p, count in CYCLE.items():
        for k, kind in enumerate(GAP_RANGE):
            source = rng
            if p >= FIXED_FROM_P:
                source = np.random.default_rng([FIXED_STREAM, p, k])
            u = _latin_hypercube(source, count // 2, p)  # p - 1 gaps, then sigma
            for row in u:
                x, sigma = _sample(rng, row[:-1], kind, row[-1])
                cases.append(Case(rng.permutation(x), sigma, p, kind))
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


def outlier_probe(seed: int) -> Case:
    """A p <= 6 sample with one observation 1e3-1e4 sigma away from the rest."""
    rng = np.random.default_rng([seed, 2])
    p = int(rng.choice(PROBE_P))
    kind = str(rng.choice(list(GAP_RANGE)))
    block, sigma = _sample(rng, rng.random(p - 2), kind, rng.random())
    on_top = bool(rng.random() < 0.5)
    offset = sigma * 10.0 ** rng.uniform(3.0, 4.0)
    far = block[0] + offset if on_top else block[-1] - offset
    return Case(rng.permutation(np.append(block, far)), sigma, p, kind, block, on_top)


def _solve(case: Case):
    """One timed ccmle call; returns (result, exception or None, seconds)."""
    t0 = time.perf_counter()
    try:
        res = estimator.ccmle(ObservedSample(case.x, case.sigma))
        err = None
    except MaxIterationsExceeded as exc:
        res, err = exc.result, exc
    return res, err, time.perf_counter() - t0


def check_solve(case: Case, res, err) -> tuple[list[str], float]:
    """Problems with one solve (convergence, monotonicity, sum, outlier block),
    and how far the outlier block's estimate is off, in sigma (0 without one)."""
    problems = []
    dev = 0.0
    if err is not None or not res.converged:
        problems.append(f"p={case.p} did not converge")
    mu = res.mu_hat
    if not np.all(np.diff(mu) <= 0.0):
        problems.append(f"p={case.p} mu_hat not monotone")
    tol = 1e-8 * case.sigma * case.p
    if abs(float(mu.sum()) - float(case.x.sum())) > tol:
        problems.append(f"p={case.p} sum of mu_hat differs from sum of x")
    if case.block is not None:
        ref = estimator.ccmle(ObservedSample(case.block, case.sigma)).mu_hat
        got = mu[1:] if case.outlier_on_top else mu[:-1]
        dev = float(np.max(np.abs(got - ref))) / case.sigma
        if dev > 1e-4:
            problems.append(
                f"p={case.p} outlier input: block estimate off by {dev:.3g} sigma"
            )
    return problems, dev


def _record_solve(run: Run, case: Case, res, err) -> None:
    run.attempted += 1
    problems, _ = check_solve(case, res, err)
    if problems:
        run.check_failed += 1
        run.fail(1, "; ".join(problems))


def _record_probe(run: Run, probe: Case) -> None:
    res, err, took = _solve(probe)
    problems, dev = check_solve(probe, res, err)
    run.probe = {
        "p": probe.p, "kind": probe.kind, "block_error_sigma": dev,
        "seconds": took, "problems": problems,
    }


def solve_mixed_p(seed: int, seconds: float, tracer, out_dir: Path) -> Run:
    """Direct ccmle calls over the seeded mix in whole cycles.

    Untraced: cycles until ``seconds`` have passed, with the calibration
    kernel timed after every ``STRETCH_S`` of solves. Traced: the first cycle
    solved once untraced and once traced, then the outlier probe. The probe
    and the checks run after the tracer is removed, so the per-p counts
    describe the mix alone and the checks' reference solves are not counted.
    The probe stays out of the timed runs: while the quadrature defect lasts
    it can spend 500 iterations (15-45 s) on one solve.
    """
    run = Run()
    if tracer is None:
        clock = Clock()
        start = time.perf_counter()
        cycle = 0
        while _another_round(start, cycle, seconds):
            stretch: list[float] = []
            for case in solve_cases(seed, cycle):
                res, err, took = _solve(case)
                _record_solve(run, case, res, err)
                stretch.append(took)
                if sum(stretch) >= STRETCH_S:
                    run.add_stretch(stretch)
                    clock.mark()
                    stretch = []
            if stretch:
                run.add_stretch(stretch)
                clock.mark()
            cycle += 1
        run.finish(clock.factors())
        return run
    cases = solve_cases(seed, 0)
    run.untraced_seconds = sum(_solve(c)[2] for c in cases)
    outcomes = []
    with traced(tracer):
        for op, case in enumerate(cases):
            tracer.op_id = op
            outcomes.append((case, *_solve(case)))
    for case, res, err, took in outcomes:
        _record_solve(run, case, res, err)
        run.add_stretch([took])
    run.finish()
    _record_probe(run, outlier_probe(seed))
    return run


# --- boot-p3-ties ----------------------------------------------------------

BOOT_MU = (10.0, 9.5, 9.0)
BOOT_N = 50
BOOT_SD = math.sqrt(50.0)
BOOT_RESAMPLES = 999  # the BootstrapConfig floor


def boot_data(seed: int, round_: int) -> np.ndarray:
    """Criterion-8 data: seeded residuals around group means fixed at BOOT_MU.

    The group means are then 0.5 effective sigmas apart, a near tie that
    pools, so criterion 8's pooled-point check applies on every seed; and the
    cost of a run depends on the resamples, not on where one draw of the
    group means happened to land.
    """
    rng = np.random.default_rng([seed, round_])
    noise = rng.normal(0.0, BOOT_SD, size=(len(BOOT_MU), BOOT_N))
    return np.asarray(BOOT_MU)[:, None] + noise - noise.mean(axis=1, keepdims=True)


def check_intervals(iv) -> list[str]:
    """Criterion 8: pooled point estimate, CCMLE extremes inside traditional."""
    problems = []
    points = [r["ccmle_point"] for r in iv.rows]
    if max(points) - min(points) > 1e-9:
        problems.append("point estimate not pooled")
    top, bottom = iv.rows[0], iv.rows[-1]
    if not (
        top["ccmle_upper"] <= top["trad_upper"]
        and bottom["ccmle_lower"] >= bottom["trad_lower"]
    ):
        problems.append("CCMLE interval extremes not inside the traditional ones")
    return problems


def _bootstrap_round(run: Run, seed: int, round_: int, clock: Clock | None) -> float:
    cfg = experiments.BootstrapConfig(
        BOOT_MU, BOOT_N, BOOT_SD, n_boot=BOOT_RESAMPLES, level=0.95,
        seed=seed * 1000 + round_,
    )
    data = boot_data(seed, round_)
    t0 = time.perf_counter()
    iv = experiments.run_bootstrap_ci(cfg, data=data)
    took = time.perf_counter() - t0
    run.attempted += cfg.n_boot + iv.n_failures
    run.experiment_ops += cfg.n_boot
    run.add_stretch([took], cfg.n_boot)
    if clock:
        clock.mark()
    if iv.n_failures:
        run.fail(iv.n_failures, f"round {round_}: {iv.n_failures} rejected resamples")
    problems = check_intervals(iv)
    if problems:
        run.fail(cfg.n_boot, f"round {round_}: " + "; ".join(problems))
    return took


def boot_p3_ties(seed: int, seconds: float, tracer, out_dir: Path) -> Run:
    """run_bootstrap_ci in the criterion-8 shape, in whole calls."""
    run = Run()
    if tracer is None:
        clock = Clock()
        start = time.perf_counter()
        round_ = 0
        while _another_round(start, round_, seconds):
            _bootstrap_round(run, seed, round_, clock)
            round_ += 1
        run.finish(clock.factors())
        return run
    run.untraced_seconds = _bootstrap_round(Run(), seed, 0, None)
    with traced(tracer):
        tracer.op_id = 0
        _bootstrap_round(run, seed, 0, None)
    run.finish()
    return run


# --- mse-p2-cli ------------------------------------------------------------

MSE_GAPS = (0.0, 0.5, 1.0, 2.0, 3.0)  # in sigma; 0 and 3 are criterion 7's
MSE_REPS = 10_000


def _read_table(path: Path) -> dict[str, dict]:
    with open(path, newline="") as fh:
        return {row["estimator"]: row for row in csv.DictReader(fh)}


def _mse_round(
    run: Run, seed: int, round_: int, out_dir: Path, totals: dict,
    clock: Clock | None = None, tracer=None,
) -> float:
    """One simulate-mse call per gap, each followed by a calibration when
    ``clock`` is given; returns the wall seconds spent in the calls."""
    busy = 0.0
    for i, gap in enumerate(MSE_GAPS):
        if tracer is not None:
            tracer.op_id = i
        out = out_dir / f"mse-gap{gap:g}.csv"
        argv = [
            "simulate-mse", "--mu", f"{gap!r},0", "--sigma", "1",
            "--reps", str(MSE_REPS), "--seed", str(seed * 1000 + round_),
            "--ranks", "1", "--config-id", f"gap{gap:g}", "--out", str(out),
        ]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        took = time.perf_counter() - t0
        busy += took
        run.attempted += MSE_REPS
        run.experiment_ops += MSE_REPS
        run.add_stretch([took], MSE_REPS)
        if clock:
            clock.mark()
        if code != 0:
            run.fail(MSE_REPS, f"simulate-mse gap {gap:g} exited with {code}")
            continue
        table = _read_table(out)
        if set(table) != {"mle", "ccmle"}:
            run.fail(MSE_REPS, f"simulate-mse gap {gap:g} wrote rows {sorted(table)}")
            continue
        done = int(table["ccmle"]["n_reps"])
        if done != MSE_REPS:
            run.fail(MSE_REPS - done, f"gap {gap:g}: {MSE_REPS - done} failed replicates")
        for name, row in table.items():
            acc = totals.setdefault((gap, name), [0.0, 0])
            acc[0] += float(row["mse"]) * done
            acc[1] += done
    return busy


def check_mse(totals: dict) -> list[str]:
    """Criterion 7 on the (0, 0) and (3, 0) configs, pooled over the run."""

    def mse(gap, name):
        s, n = totals.get((gap, name), (math.nan, 0))
        return s / n if n else math.nan

    problems = []
    eq_mle, eq_ccmle = mse(0.0, "mle"), mse(0.0, "ccmle")
    if not (eq_ccmle < eq_mle and abs(eq_mle - 1.0) <= 0.05):
        problems.append(f"equal means: mle {eq_mle:.4f}, ccmle {eq_ccmle:.4f}")
    ratio = mse(3.0, "ccmle") / mse(3.0, "mle")
    if not 0.95 <= ratio <= 1.30:
        problems.append(f"separated means: ccmle/mle ratio {ratio:.4f}")
    return problems


def mse_p2_cli(seed: int, seconds: float, tracer, out_dir: Path) -> Run:
    """selex simulate-mse in-process over the p=2 gaps, in whole rounds."""
    run = Run()
    totals: dict = {}
    if tracer is None:
        clock = Clock()
        start = time.perf_counter()
        round_ = 0
        while _another_round(start, round_, seconds):
            _mse_round(run, seed, round_, out_dir, totals, clock)
            round_ += 1
        run.finish(clock.factors())
    else:
        run.untraced_seconds = _mse_round(Run(), seed, 0, out_dir, {})
        with traced(tracer):
            _mse_round(run, seed, 0, out_dir, totals, tracer=tracer)
        run.finish()
    problems = check_mse(totals)
    if problems:
        reps = sum(n for (gap, name), (_, n) in totals.items()
                   if name == "ccmle" and gap in (0.0, 3.0))
        run.fail(reps, "criterion 7: " + "; ".join(problems))
    return run


WORKLOADS = {
    "boot-p3-ties": boot_p3_ties,
    "solve-mixed-p": solve_mixed_p,
    "mse-p2-cli": mse_p2_cli,
}
