"""Simulation studies: selection-respecting MSE comparison and bootstrap CIs.

Both studies run on one replicate engine. Replicate b is drawn from its own
random stream, keyed by (seed, b) and the attempt number, ranked, and solved
by the CCMLE. A replicate whose solve fails (ConvergenceFailure in the
quadrature, MaxIterationsExceeded in the optimizer) is redrawn from the stream
of its next attempt; after MAX_RESAMPLE_ATTEMPTS draws its last failure is
re-raised as itself, its message prefixed with (seed=..., b=...). The
replicates are split into chunks over up to SELEX_THREADS worker processes,
so summaries are identical for any worker count.

Errors always reference the true mean of the population that actually
occupied a given sample rank (the population *selected* as max/mid/min),
never the population with the truly extreme mean.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtr, ndtri

from .estimator import MaxIterationsExceeded, ObservedSample, ccmle, ccmle_p2_rows
from .ordering import ConvergenceFailure

MAX_RESAMPLE_ATTEMPTS = 10  # draws per replicate before giving up


def worker_count() -> int:
    """Worker cap from SELEX_THREADS (0 = all cores; unset = 1), at most the cores."""
    raw = os.environ.get("SELEX_THREADS", "1").strip() or "1"
    try:
        n = int(raw)
    except ValueError:
        n = -1  # reported below, by name
    if n < 0:
        raise ValueError(f"SELEX_THREADS must be an integer >= 0, not {raw!r}")
    cores = os.cpu_count() or 1
    return cores if n == 0 else min(n, cores)


def _tuple_of(values, name: str) -> tuple[float, ...]:
    """A sequence config field as a tuple of finite floats; a string is not one."""
    if isinstance(values, str):
        raise ValueError(f"{name} must be a list, not a string")
    out = tuple(float(v) for v in values)
    if not all(math.isfinite(v) for v in out):
        raise ValueError(f"{name} must be finite")
    return out


def _integer(value, name: str, least: int) -> int:
    """An integer config field, at least ``least``: a Python or numpy int, no bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    return int(value)


@dataclass(frozen=True)
class MseConfig:
    mu_true: tuple[float, ...]
    sigma: float = 1.0
    n_reps: int = 1000
    seed: int = 0
    ranks: tuple[int, ...] | None = None  # 1-based, 1 = max; None = all
    config_id: str = "0"

    def __post_init__(self):
        object.__setattr__(self, "mu_true", _tuple_of(self.mu_true, "mu_true"))
        if len(self.mu_true) < 2:
            raise ValueError("mu_true needs at least 2 populations")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite")
        object.__setattr__(self, "n_reps", _integer(self.n_reps, "n_reps", 100))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))
        ranks = range(1, self.p + 1) if self.ranks is None else self.ranks
        object.__setattr__(self, "ranks", tuple(_integer(r, "ranks", 1) for r in ranks))
        if not self.ranks or max(self.ranks) > self.p:  # before any replicate is drawn
            raise ValueError(f"ranks must be a non-empty list from 1..{self.p}")

    @property
    def p(self) -> int:
        return len(self.mu_true)


@dataclass(frozen=True)
class BootstrapConfig:
    mu_true: tuple[float, ...]
    n_per_group: int = 50
    obs_sd: float = math.sqrt(50.0)
    n_boot: int = 9999
    level: float = 0.95
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mu_true", _tuple_of(self.mu_true, "mu_true"))
        if len(self.mu_true) < 2:
            raise ValueError("mu_true needs at least 2 populations")
        object.__setattr__(self, "n_per_group", _integer(self.n_per_group, "n_per_group", 2))
        if not (self.obs_sd > 0 and math.isfinite(self.obs_sd)):
            raise ValueError("obs_sd must be positive and finite")
        object.__setattr__(self, "n_boot", _integer(self.n_boot, "n_boot", 999))
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be in (0, 1)")
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))

    @property
    def p(self) -> int:
        return len(self.mu_true)


@dataclass
class ResultTable:
    """Result rows of an experiment and the number of redrawn replicates."""

    rows: list[dict]
    n_failures: int


def _solve_chunk(args) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Solve replicates start..stop-1: sorted samples, estimates, labels, redraws."""
    draw, sigma, seed, start, stop = args
    first = np.array([draw(b, 0) for b in range(start, stop)])
    if first.shape[1] == 2:  # one exact solve for the chunk, which cannot fail
        order = np.argsort(-first, axis=1, kind="stable")  # as ObservedSample
        x = np.take_along_axis(first, order, axis=1)
        return x, ccmle_p2_rows(x, sigma)[0], order, 0
    samples, estimates, labels = [], [], []
    redraws = 0
    for b in range(start, stop):
        for attempt in range(MAX_RESAMPLE_ATTEMPTS):
            obs = ObservedSample(draw(b, attempt) if attempt else first[b - start], sigma)
            try:
                estimates.append(ccmle(obs).mu_hat)
                break
            except (ConvergenceFailure, MaxIterationsExceeded) as exc:
                redraws += 1
                if attempt + 1 == MAX_RESAMPLE_ATTEMPTS:
                    exc.args = (f"replicate (seed={seed}, b={b}): {exc}",)
                    raise
        samples.append(obs.x)
        labels.append(obs.permutation)
    return np.array(samples), np.array(estimates), np.array(labels), redraws


def _replicates(draw, sigma: float, seed: int, count: int):
    """Solve replicates 0..count-1 of ``draw(b, attempt)`` with the CCMLE.

    ``draw`` must pickle (a module-level function or a partial of one).
    Returns the sorted samples, the estimates and the selected labels, each
    (count, p) in rank order and replicate order, and the number of redraws.
    """
    workers = worker_count()
    n_chunks = max(1, min(workers * 4, count // 25)) if workers > 1 else 1
    bounds = np.linspace(0, count, n_chunks + 1).astype(int)
    jobs = [(draw, sigma, seed, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            parts = list(pool.map(_solve_chunk, jobs))
    else:
        parts = [_solve_chunk(job) for job in jobs]
    x, mu_hat, labels = (np.concatenate([part[k] for part in parts]) for k in range(3))
    return x, mu_hat, labels, sum(part[3] for part in parts)


def _mse_draw(mu_true, sigma, seed, b, attempt):
    """Replicate b from stream [seed, b]; a redraw from [seed, b, attempt]."""
    key = [seed, b, attempt] if attempt else [seed, b]
    # the same numbers as rng.normal(mu_true, sigma), without its broadcasting cost
    return mu_true + sigma * np.random.default_rng(key).standard_normal(mu_true.size)


def run_mse(cfg: MseConfig) -> ResultTable:
    """Per-rank MSE for the naive MLE and the CCMLE, with Monte Carlo SEs."""
    mu_true = np.asarray(cfg.mu_true, dtype=float)
    draw = partial(_mse_draw, mu_true, cfg.sigma, cfg.seed)
    x, mu_hat, labels, redraws = _replicates(draw, cfg.sigma, cfg.seed, cfg.n_reps)
    truth = mu_true[labels]  # true mean of the population selected at each rank

    rows = []
    for rank in cfg.ranks:
        for name, est in (("mle", x), ("ccmle", mu_hat)):
            sq = (truth[:, rank - 1] - est[:, rank - 1]) ** 2
            row = {"config_id": cfg.config_id}
            for i, m in enumerate(cfg.mu_true):
                row[f"mu_true_{i + 1}"] = m
            row.update(
                rank=rank,
                estimator=name,
                mse=float(sq.mean()),
                se=float(sq.std(ddof=1) / math.sqrt(cfg.n_reps)),
                n_reps=cfg.n_reps,
            )
            rows.append(row)
    return ResultTable(rows, redraws)


def _bc_interval(boots: np.ndarray, point: float, level: float) -> tuple[float, float]:
    """Bias-corrected percentile interval (median-bias constant, no acceleration)."""
    b = boots.size
    frac = float(np.mean(boots < point))
    frac = min(max(frac, 1.0 / (b + 1)), b / (b + 1))
    z0 = ndtri(frac)
    alpha = 1.0 - level
    a1 = ndtr(2.0 * z0 + ndtri(alpha / 2.0))
    a2 = ndtr(2.0 * z0 + ndtri(1.0 - alpha / 2.0))
    return float(np.quantile(boots, a1)), float(np.quantile(boots, a2))


def _resample_draw(data, seed, b, attempt):
    """Group means of stratified resample b, from stream [seed, 1, b, attempt]."""
    rng = np.random.default_rng([seed, 1, b, attempt])
    idx = rng.integers(0, data.shape[1], size=data.shape)
    return np.take_along_axis(data, idx, axis=1).mean(axis=1)


def run_bootstrap_ci(cfg: BootstrapConfig, data: np.ndarray | None = None) -> ResultTable:
    """Stratified bootstrap CIs for the means of rank-selected populations.

    Draws one dataset of ``n_per_group`` observations per population,
    resamples within each group, re-ranks the group means each time and
    recomputes the CCMLE with effective sigma = obs_sd / sqrt(n_per_group).
    Each rank gets the CCMLE's bias-corrected percentile interval and the
    traditional percentile interval of the ranked means, with both points.
    """
    p = cfg.p
    n = cfg.n_per_group
    sigma_eff = cfg.obs_sd / math.sqrt(n)

    if data is None:
        rng_data = np.random.default_rng([cfg.seed, 0])
        data = rng_data.normal(np.asarray(cfg.mu_true)[:, None], cfg.obs_sd, size=(p, n))
    elif data.shape != (p, n):
        raise ValueError(f"data must have shape {(p, n)}")
    obs = ObservedSample(data.mean(axis=1), sigma_eff)
    point_ccmle, point_trad = ccmle(obs).mu_hat, obs.x

    draw = partial(_resample_draw, data, cfg.seed)
    boots_trad, boots_ccmle, _, redraws = _replicates(draw, sigma_eff, cfg.seed, cfg.n_boot)

    rows = []
    alpha = 1.0 - cfg.level
    for r in range(p):
        lo, hi = _bc_interval(boots_ccmle[:, r], float(point_ccmle[r]), cfg.level)
        rows.append(
            {
                "rank": r + 1,
                "ccmle_point": float(point_ccmle[r]),
                "ccmle_lower": lo,
                "ccmle_upper": hi,
                "trad_point": float(point_trad[r]),
                "trad_lower": float(np.quantile(boots_trad[:, r], alpha / 2.0)),
                "trad_upper": float(np.quantile(boots_trad[:, r], 1.0 - alpha / 2.0)),
            }
        )
    return ResultTable(rows, redraws)


def _format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def export_results(rows: list[dict], format: str, path) -> None:
    """Write result rows as CSV or JSON with bit-stable formatting.

    CSV: header row, declared column order, floats at 10 significant digits,
    '\\n' line endings. JSON mirrors the CSV columns as an array of objects.
    """
    if not rows:
        raise ValueError("refusing to export an empty table")
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}")
    try:
        if format == "csv":
            header = list(rows[0].keys())
            lines = [",".join(header)]
            for row in rows:
                lines.append(",".join(_format_value(row[k]) for k in header))
            text = "\n".join(lines) + "\n"
        else:
            import json

            clean = [
                {
                    k: float(f"{v:.10g}") if isinstance(v, float) else v
                    for k, v in row.items()
                }
                for row in rows
            ]
            text = json.dumps(clean, indent=2) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed writing results to {path}: {exc}") from exc
