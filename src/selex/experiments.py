"""Simulation studies: selection-respecting MSE comparison and bootstrap CIs.

Both studies run on one replicate engine, in this process. Replicate b is
drawn from its own random stream, keyed by (seed, b), ranked, and solved by
the CCMLE. The first replicate whose solve fails (ConvergenceFailure in the
quadrature, MaxIterationsExceeded in the optimizer) stops the run, so no study
is conditioned on the solver's success: its error is re-raised as itself, with
(seed=..., b=...) and the ``selex estimate`` command that replays it. The
normal quantiles of the bootstrap are imported at their first use.

Errors always reference the true mean of the population that actually
occupied a given sample rank (the population *selected* as max/mid/min),
never the population with the truly extreme mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import MaxIterationsExceeded, ObservedSample, ccmle, ccmle_p2_rows
from .ordering import ConvergenceFailure, _integer, _real, _reals


@dataclass(frozen=True)
class MseConfig:
    mu_true: tuple[float, ...]
    sigma: float = 1.0
    n_reps: int = 1000
    seed: int = 0
    ranks: tuple[int, ...] | None = None  # 1-based, 1 = max; None = all
    config_id: str = "0"

    def __post_init__(self):
        object.__setattr__(self, "mu_true", tuple(_reals(self.mu_true, "mu_true").tolist()))
        object.__setattr__(self, "sigma", _real(self.sigma, "sigma"))
        object.__setattr__(self, "n_reps", _integer(self.n_reps, "n_reps", 100))
        if self.n_reps >= 2**32:  # b is one uint32 word of its stream's key
            raise ValueError("n_reps must be below 2**32")
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))
        ranks = range(1, self.p + 1) if self.ranks is None else self.ranks
        ranks = tuple(_integer(r, "ranks", 1) for r in ranks)
        if not ranks or max(ranks) > self.p or len(set(ranks)) < len(ranks):  # before any draw
            raise ValueError(f"ranks must be a non-empty list of distinct ranks from 1..{self.p}")
        object.__setattr__(self, "ranks", ranks)
        if not isinstance(self.config_id, str):
            raise ValueError(f"config_id must be a string, not {self.config_id!r}")

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
        object.__setattr__(self, "mu_true", tuple(_reals(self.mu_true, "mu_true").tolist()))
        object.__setattr__(self, "n_per_group", _integer(self.n_per_group, "n_per_group", 2))
        object.__setattr__(self, "obs_sd", _real(self.obs_sd, "obs_sd"))
        object.__setattr__(self, "n_boot", _integer(self.n_boot, "n_boot", 999))
        object.__setattr__(self, "level", _real(self.level, "level", positive=False))
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be in (0, 1)")
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))

    @property
    def p(self) -> int:
        return len(self.mu_true)


@dataclass
class ResultTable:
    """Result rows of an experiment; ``n_failures`` is always 0 (a failure stops the run)."""

    rows: list[dict]
    n_failures: int = 0


def _solve(obs: ObservedSample, what: str) -> np.ndarray:
    """``ccmle(obs).mu_hat``; a solver failure is re-raised as itself, its message
    led by ``what`` and followed by the ``selex estimate`` command that replays it."""
    try:
        return ccmle(obs).mu_hat
    except (ConvergenceFailure, MaxIterationsExceeded) as exc:
        exc.args = (f"{what}: {exc}; replay: selex estimate --obs="
                    f"{','.join(map(repr, obs.x.tolist()))} --sigma={obs.sigma!r}",)
        raise


def _replicates(first: np.ndarray, sigma: float, seed: int):
    """Solve the drawn (count, p) rows with the CCMLE, replicate b in row b.

    Returns the samples, ranked as ObservedSample ranks one, the estimates and
    the selected labels, each (count, p) in rank order and replicate order.
    """
    order = np.argsort(-first, axis=1, kind="stable")
    x = np.take_along_axis(first, order, axis=1)
    if x.shape[1] == 2:
        mu_hat, _, moving = ccmle_p2_rows(x, sigma)  # one exact solve for all rows
        for b in moving[:1]:  # each row's root takes its own steps, so its own solve raises
            _solve(ObservedSample(x[b], sigma), f"replicate (seed={seed}, b={b})")
        return x, mu_hat, order
    estimates = [_solve(ObservedSample(row, sigma), f"replicate (seed={seed}, b={b})")
                 for b, row in enumerate(x)]
    return x, np.array(estimates), order


def _keys(seed: int, count: int) -> np.ndarray:
    """Row b: the uint32 words that ``SeedSequence([seed, b])`` hashes, seed's
    lowest first, then b. numpy takes a uint32 array's words as they are, so a
    stream keyed by a row skips turning a list into them."""
    words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    keys = np.empty((count, len(words) + 1), dtype=np.uint32)
    keys[:, :-1] = words
    keys[:, -1] = np.arange(count)
    return keys


def _mse_draws(mu_true: np.ndarray, sigma: float, seed: int, count: int) -> np.ndarray:
    """Replicates 0..count-1: row b is ``default_rng([seed, b]).normal(mu_true, sigma)``."""
    z = np.array([np.random.default_rng(key).standard_normal(mu_true.size)
                  for key in _keys(seed, count)])
    with np.errstate(over="ignore"):  # an overflow is caught here
        x = mu_true + sigma * z
    if not np.all(np.isfinite(x)):
        raise ValueError(f"sigma = {sigma!r} draws an observation that is not finite")
    return x


def run_mse(cfg: MseConfig) -> ResultTable:
    """Per-rank MSE for the naive MLE and the CCMLE, with Monte Carlo SEs."""
    mu_true = np.asarray(cfg.mu_true, dtype=float)
    first = _mse_draws(mu_true, cfg.sigma, cfg.seed, cfg.n_reps)
    x, mu_hat, labels = _replicates(first, cfg.sigma, cfg.seed)
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
    return ResultTable(rows)


def _bc_interval(boots: np.ndarray, point: float, level: float) -> tuple[float, float]:
    """Bias-corrected percentile interval (median-bias constant, no acceleration)."""
    from statistics import NormalDist
    b = boots.size
    frac = float(np.mean(boots < point))
    frac = min(max(frac, 1.0 / (b + 1)), b / (b + 1))
    normal, alpha = NormalDist(), 1.0 - level
    z0 = normal.inv_cdf(frac)
    a1 = normal.cdf(2.0 * z0 + normal.inv_cdf(alpha / 2.0))
    a2 = normal.cdf(2.0 * z0 + normal.inv_cdf(1.0 - alpha / 2.0))
    return float(np.quantile(boots, a1)), float(np.quantile(boots, a2))


def _resample_draw(data, seed, b):
    """Group means of stratified resample b, from stream [seed, 1, b, 0]."""
    rng = np.random.default_rng([seed, 1, b, 0])
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
    elif (data := np.asarray(data, dtype=float)).shape != (p, n):
        raise ValueError(f"data must have shape {(p, n)}")
    with np.errstate(over="ignore", invalid="ignore"):  # a value or a sum that overflows
        means = data.mean(axis=1)
        resamples = np.array([_resample_draw(data, cfg.seed, b) for b in range(cfg.n_boot)])
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(resamples))):
        raise ValueError(f"obs_sd = {cfg.obs_sd!r} draws a group mean that is not finite")
    obs = ObservedSample(means, sigma_eff)
    point_ccmle, point_trad = _solve(obs, f"point estimate (seed={cfg.seed})"), obs.x
    boots_trad, boots_ccmle, _ = _replicates(resamples, sigma_eff, cfg.seed)

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
    return ResultTable(rows)


def _format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def export_results(rows: list[dict], format: str, path) -> None:
    """Write result rows as CSV or JSON with bit-stable formatting.

    CSV: header row, declared column order, floats at 10 significant digits,
    '\\n' line endings, a field quoted only where it holds a comma, quote or line
    break. JSON mirrors the CSV columns as an array of objects.
    """
    if not rows:
        raise ValueError("refusing to export an empty table")
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}")
    try:
        with open(path, "w", newline="") as fh:
            if format == "csv":
                import csv

                header = list(rows[0].keys())
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows([_format_value(row[k]) for k in header] for row in rows)
            else:
                import json

                clean = [
                    {
                        k: float(f"{v:.10g}") if isinstance(v, float) else v
                        for k, v in row.items()
                    }
                    for row in rows
                ]
                fh.write(json.dumps(clean, indent=2) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing results to {path}: {exc}") from exc
