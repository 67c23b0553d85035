"""Simulation studies: selection-respecting MSE comparison and bootstrap CIs.

Errors always reference the true mean of the population that actually
occupied a given sample rank (the population *selected* as max/mid/min),
never the population with the truly extreme mean. Replicates draw their
random stream from (seed, replicate index), so summaries are identical for
any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .estimator import CcmleResult, MaxIterationsExceeded, ObservedSample, ccmle

MAX_RESAMPLE_ATTEMPTS = 10  # draws per bootstrap resample before giving up


def worker_count() -> int:
    """Worker cap from SELEX_THREADS (0 = all cores; unset = 1), at most the cores."""
    raw = os.environ.get("SELEX_THREADS", "1").strip() or "1"
    n = int(raw)
    if n < 0:
        raise ValueError("SELEX_THREADS must be >= 0")
    cores = os.cpu_count() or 1
    return cores if n == 0 else min(n, cores)


@dataclass(frozen=True)
class MseConfig:
    mu_true: tuple[float, ...]
    sigma: float = 1.0
    n_reps: int = 1000
    seed: int = 0
    ranks: tuple[int, ...] | None = None  # 1-based, 1 = max; None = all
    config_id: str = "0"

    def __post_init__(self):
        object.__setattr__(self, "mu_true", tuple(float(m) for m in self.mu_true))
        if self.ranks is not None:
            object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        if len(self.mu_true) < 2:
            raise ValueError("mu_true needs at least 2 populations")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.n_reps < 100:
            raise ValueError("n_reps must be at least 100")
        if self.ranks is not None:
            p = len(self.mu_true)
            if not all(1 <= r <= p for r in self.ranks):
                raise ValueError(f"ranks must lie in 1..{p}")

    @property
    def p(self) -> int:
        return len(self.mu_true)

    def rank_list(self) -> tuple[int, ...]:
        return self.ranks if self.ranks is not None else tuple(range(1, self.p + 1))


@dataclass
class ExperimentRecord:
    """One simulation replicate, scored against the selected populations."""

    draw: np.ndarray
    selected_labels: np.ndarray  # original population index per rank
    errors_mle: np.ndarray  # per rank, true mean of selected pop - estimate
    errors_ccmle: np.ndarray


@dataclass
class MseTable:
    rows: list[dict]
    n_failures: int


@dataclass(frozen=True)
class BootstrapConfig:
    mu_true: tuple[float, ...]
    n_per_group: int = 50
    obs_sd: float = math.sqrt(50.0)
    n_boot: int = 9999
    level: float = 0.95
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mu_true", tuple(float(m) for m in self.mu_true))
        if len(self.mu_true) < 2:
            raise ValueError("mu_true needs at least 2 populations")
        if self.n_per_group < 2:
            raise ValueError("n_per_group must be at least 2")
        if not self.obs_sd > 0:
            raise ValueError("obs_sd must be positive")
        if self.n_boot < 999:
            raise ValueError("n_boot must be at least 999")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be in (0, 1)")

    @property
    def p(self) -> int:
        return len(self.mu_true)


@dataclass
class IntervalSet:
    """Per-rank intervals for the CCMLE (bias-corrected percentile) and the
    traditional percentile method, plus point estimates."""

    level: float
    n_boot: int
    n_failures: int
    rows: list[dict] = field(default_factory=list)


def score_draw(mu_true, draw, sigma: float) -> ExperimentRecord:
    """Score one drawn sample: naive MLE and CCMLE errors per rank."""
    mu_true = np.asarray(mu_true, dtype=float)
    obs = ObservedSample(np.asarray(draw, dtype=float), sigma)
    selected = obs.permutation
    true_selected = mu_true[selected]
    result = ccmle(obs)
    return ExperimentRecord(
        draw=np.asarray(draw, dtype=float),
        selected_labels=selected,
        errors_mle=true_selected - obs.x,
        errors_ccmle=true_selected - result.mu_hat,
    )


def _mse_chunk(args) -> tuple[np.ndarray, np.ndarray, int]:
    cfg, start, stop = args
    mu_true = np.asarray(cfg.mu_true, dtype=float)
    errs_mle = np.zeros((stop - start, cfg.p))
    errs_ccmle = np.zeros((stop - start, cfg.p))
    failures = 0
    keep = np.ones(stop - start, dtype=bool)
    for j, i in enumerate(range(start, stop)):
        rng = np.random.default_rng([cfg.seed, i])
        draw = rng.normal(mu_true, cfg.sigma)
        try:
            rec = score_draw(mu_true, draw, cfg.sigma)
        except MaxIterationsExceeded:
            failures += 1
            keep[j] = False
            continue
        errs_mle[j] = rec.errors_mle
        errs_ccmle[j] = rec.errors_ccmle
    return errs_mle[keep], errs_ccmle[keep], failures


def run_mse(cfg: MseConfig, workers: int | None = None) -> MseTable:
    """Per-rank MSE for the naive MLE and the CCMLE, with Monte Carlo SEs."""
    if workers is None:
        workers = worker_count()
    n_chunks = max(1, min(workers * 4, cfg.n_reps // 25)) if workers > 1 else 1
    bounds = np.linspace(0, cfg.n_reps, n_chunks + 1).astype(int)
    jobs = [(cfg, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            parts = list(pool.map(_mse_chunk, jobs))
    else:
        parts = [_mse_chunk(job) for job in jobs]

    errs_mle = np.concatenate([p[0] for p in parts])
    errs_ccmle = np.concatenate([p[1] for p in parts])
    n_failures = sum(p[2] for p in parts)

    rows = []
    n = errs_mle.shape[0]
    for rank in cfg.rank_list():
        for name, errs in (("mle", errs_mle), ("ccmle", errs_ccmle)):
            sq = errs[:, rank - 1] ** 2
            row = {"config_id": cfg.config_id}
            for i, m in enumerate(cfg.mu_true):
                row[f"mu_true_{i + 1}"] = m
            row.update(
                rank=rank,
                estimator=name,
                mse=float(sq.mean()),
                se=float(sq.std(ddof=1) / math.sqrt(n)),
                n_reps=n,
            )
            rows.append(row)
    return MseTable(rows, n_failures)


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


def run_bootstrap_ci(
    cfg: BootstrapConfig, data: np.ndarray | None = None
) -> IntervalSet:
    """Stratified bootstrap CIs for the means of rank-selected populations.

    Draws one dataset of ``n_per_group`` observations per population,
    resamples within each group, re-ranks the group means each time and
    recomputes the CCMLE with effective sigma = obs_sd / sqrt(n_per_group).
    A resample whose solve fails is rejected and redrawn (counted); after
    MAX_RESAMPLE_ATTEMPTS draws its last failure is raised, naming (seed, b).
    """
    p = cfg.p
    n = cfg.n_per_group
    sigma_eff = cfg.obs_sd / math.sqrt(n)
    mu_true = np.asarray(cfg.mu_true, dtype=float)

    if data is None:
        rng_data = np.random.default_rng([cfg.seed, 0])
        data = rng_data.normal(mu_true[:, None], cfg.obs_sd, size=(p, n))
    elif data.shape != (p, n):
        raise ValueError(f"data must have shape {(p, n)}")
    means = data.mean(axis=1)

    def solve(xs: np.ndarray) -> CcmleResult:
        return ccmle(ObservedSample(xs, sigma_eff))

    point_ccmle = solve(means).mu_hat
    point_trad = np.sort(means)[::-1]

    boots_ccmle = np.empty((cfg.n_boot, p))
    boots_trad = np.empty((cfg.n_boot, p))
    failures = 0
    for b in range(cfg.n_boot):
        for attempt in range(MAX_RESAMPLE_ATTEMPTS):
            rng = np.random.default_rng([cfg.seed, 1, b, attempt])
            idx = rng.integers(0, n, size=(p, n))
            bmeans = np.take_along_axis(data, idx, axis=1).mean(axis=1)
            try:
                res = solve(bmeans)
                break
            except MaxIterationsExceeded as exc:
                failures += 1
                if attempt + 1 == MAX_RESAMPLE_ATTEMPTS:
                    msg = f"bootstrap resample (seed={cfg.seed}, b={b}): {exc}"
                    raise MaxIterationsExceeded(msg, exc.result) from exc
        boots_ccmle[b] = res.mu_hat
        boots_trad[b] = np.sort(bmeans)[::-1]

    out = IntervalSet(cfg.level, cfg.n_boot, failures)
    for r in range(p):
        lo, hi = _bc_interval(boots_ccmle[:, r], float(point_ccmle[r]), cfg.level)
        alpha = 1.0 - cfg.level
        tlo = float(np.quantile(boots_trad[:, r], alpha / 2.0))
        thi = float(np.quantile(boots_trad[:, r], 1.0 - alpha / 2.0))
        out.rows.append(
            {
                "rank": r + 1,
                "ccmle_point": float(point_ccmle[r]),
                "ccmle_lower": lo,
                "ccmle_upper": hi,
                "trad_point": float(point_trad[r]),
                "trad_lower": tlo,
                "trad_upper": thi,
            }
        )
    return out


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
