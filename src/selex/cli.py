"""Command-line interface: probability evaluation, estimation, experiments.

Exit codes are a stable contract for scripting:
  0 success, 2 usage/config error, 3 quadrature failure,
  4 optimizer non-convergence, 5 an experiment replicate was redrawn
  (with --strict).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from .estimator import (
    MaxIterationsExceeded,
    ObservedSample,
    ccmle,
    conditional_log_likelihood,
)
from .experiments import (
    BootstrapConfig,
    MseConfig,
    export_results,
    run_bootstrap_ci,
    run_mse,
)
from .ordering import (
    ConvergenceFailure,
    MeanConfig,
    mc_ordering_probability,
    ordering_probability,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_QUADRATURE = 3
EXIT_OPTIMIZER = 4
EXIT_REPLICATE = 5


class CliError(ValueError):
    """Argument/config problem surfaced with exit code 2."""


def _parse_reals(text: str, flag: str, kind=float) -> tuple:
    """A comma-separated flag value as a tuple of ``kind``. Finiteness is left
    to the config or sample that takes the values."""
    try:
        return tuple(kind(t) for t in text.split(",") if t.strip() != "")
    except ValueError:
        raise CliError(f"{flag} must be a comma-separated list of {kind.__name__}s")


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        import json
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_prob(args) -> int:
    means = _parse_reals(args.means, "--means")
    if len(means) < 2:
        raise CliError("--means needs at least 2 values")
    cfg = MeanConfig(means, args.sigma)
    if args.mc is not None:
        prob = mc_ordering_probability(cfg, args.mc, args.seed)
    else:
        prob = ordering_probability(cfg)
    _emit(
        asdict(prob),
        args.json,
        [
            f"P(X1 > ... > Xp) = {prob.value:.10g}",
            f"log P            = {prob.log_value:.10g}",
            f"method           = {prob.method}",
            f"err_est          = {prob.err_est:.3g}",
            f"log_err_est      = {prob.log_err_est:.3g}",
        ],
    )
    return EXIT_OK


def cmd_estimate(args) -> int:
    obs_values = _parse_reals(args.obs, "--obs")
    if len(obs_values) < 2:
        raise CliError("--obs needs at least 2 values")
    obs = ObservedSample(np.array(obs_values), args.sigma)
    try:
        result = ccmle(obs)
    except MaxIterationsExceeded as exc:
        result = exc.result
    estimates = result.in_original_order()
    log_likelihood = conditional_log_likelihood(result.mu_hat, obs)
    payload = {
        "estimates": [float(v) for v in estimates],
        "groups": result.groups,
        "path": result.path,
        "log_likelihood": log_likelihood,
        "converged": result.converged,
    }
    lines = [
        "estimates (original label order): "
        + ", ".join(f"{v:.6g}" for v in estimates),
        f"tie groups (rank order): {result.groups}",
        f"path = {result.path}",
        f"log-likelihood = {log_likelihood:.10g}",
    ]
    if args.diagnostics:
        payload.update(
            iterations=result.iterations,
            fallbacks=result.fallbacks,
            kkt_residual=result.kkt_residual,
        )
        lines.append(
            f"iterations = {result.iterations}, fallbacks = {result.fallbacks}, "
            f"kkt_residual = {result.kkt_residual:.3g}"
        )
    if not result.converged:
        warning = "optimizer did not converge; last (and best) iterate shown"
        payload["warning"] = warning
        lines.append(f"WARNING: {warning}")
    _emit(payload, args.json, lines)
    return EXIT_OK if result.converged else EXIT_OPTIMIZER


def _load_config(path: str, cls, flag_values: dict):
    """Build an experiment config from a JSON file or from CLI flags."""
    if path is not None:
        import json
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config {path}: {exc}")
        if not isinstance(raw, dict):
            raise CliError(f"config {path} must be a JSON object")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise CliError(f"unknown config field(s): {', '.join(sorted(unknown))}")
        flag_values = raw
    try:
        return cls(**{k: v for k, v in flag_values.items() if v is not None})
    except (TypeError, ValueError, OverflowError) as exc:  # float(10**400) overflows
        raise CliError(f"invalid config: {exc}")


def _run_experiment(args, cls, run, flags: dict, rows: str, what: str) -> int:
    """The flow of both experiment commands: config from --config or the
    flags, run, export, print the summary; with --strict any redraw exits 5."""
    table = run(_load_config(args.config, cls, flags))
    fmt = args.format or ("json" if str(args.out).endswith(".json") else "csv")
    export_results(table.rows, fmt, args.out)
    print(
        f"{args.command}: {len(table.rows)} {rows} written to {args.out} "
        f"({table.n_failures} redrawn {what})"
    )
    if args.strict and table.n_failures > 0:
        print(f"ERROR: {what} redrawn in strict mode", file=sys.stderr)
        return EXIT_REPLICATE
    return EXIT_OK


def cmd_simulate_mse(args) -> int:
    flags = {
        "mu_true": _parse_reals(args.mu, "--mu") if args.mu else None,
        "sigma": args.sigma,
        "n_reps": args.reps,
        "seed": args.seed,
        "ranks": _parse_reals(args.ranks, "--ranks", int) if args.ranks else None,
        "config_id": args.config_id,
    }
    return _run_experiment(args, MseConfig, run_mse, flags, "rows", "replicates")


def cmd_bootstrap_ci(args) -> int:
    flags = {
        "mu_true": _parse_reals(args.mu, "--mu") if args.mu else None,
        "n_per_group": args.n_per_group,
        "obs_sd": args.obs_sd,
        "n_boot": args.n_boot,
        "level": args.level,
        "seed": args.seed,
    }
    return _run_experiment(
        args, BootstrapConfig, run_bootstrap_ci, flags, "ranks", "resamples"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selex",
        description="Conditional maximum likelihood estimation for "
        "rank-selected normal means.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prob", help="ordering probability P(X1 > ... > Xp)")
    p.add_argument("--means", required=True, help="comma-separated population means")
    p.add_argument("--sigma", type=float, required=True, help="common std deviation")
    p.add_argument("--mc", type=int, default=None, metavar="N",
                   help="use Monte Carlo with N draws instead of quadrature")
    p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed (default 0)")
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.set_defaults(fn=cmd_prob)

    e = sub.add_parser("estimate", help="constrained conditional MLE")
    e.add_argument("--obs", required=True,
                   help="comma-separated observed values (any order)")
    e.add_argument("--sigma", type=float, required=True, help="common std deviation")
    e.add_argument("--json", action="store_true", help="emit a JSON document")
    e.add_argument("--diagnostics", action="store_true",
                   help="include iterations (quadrature sweeps), Newton "
                   "fallbacks and the KKT residual, the length of the last "
                   "projected step in sigma units")
    e.set_defaults(fn=cmd_estimate)

    m = sub.add_parser("simulate-mse", help="selection-respecting MSE experiment")
    m.add_argument("--mu", help="comma-separated true means")
    m.add_argument("--sigma", type=float, help="common std deviation (default 1)")
    m.add_argument("--reps", type=int, help="number of replicates (default 1000)")
    m.add_argument("--seed", type=int, help="replicate seed (default 0)")
    m.add_argument("--ranks", help="comma-separated 1-based ranks (default all)")
    m.add_argument("--config-id", help="config_id column value (default 0)")
    m.set_defaults(fn=cmd_simulate_mse)

    b = sub.add_parser("bootstrap-ci", help="stratified bootstrap intervals")
    b.add_argument("--mu", help="comma-separated true means")
    b.add_argument("--n-per-group", type=int, help="observations per group (default 50)")
    b.add_argument("--obs-sd", type=float,
                   help="per-observation std deviation (default sqrt(50))")
    b.add_argument("--n-boot", type=int, help="bootstrap resamples (default 9999)")
    b.add_argument("--level", type=float, help="confidence level (default 0.95)")
    b.add_argument("--seed", type=int, help="seed (default 0)")
    b.set_defaults(fn=cmd_bootstrap_ci)

    for sp, cls, what in ((m, "MseConfig", "replicate"), (b, "BootstrapConfig", "resample")):
        sp.add_argument("--config", help=f"JSON config file (exact {cls} fields)")
        sp.add_argument("--out", required=True, help="output file path")
        sp.add_argument("--format", choices=["csv", "json"],
                        help="output format (default from extension)")
        sp.add_argument("--strict", action="store_true",
                        help=f"exit 5 if any {what} had to be redrawn")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceFailure as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except MaxIterationsExceeded as exc:
        print(f"optimizer failure: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
