"""Command-line interface: probability evaluation, estimation, experiments.

Exit codes are a stable contract for scripting:
  0 success, 2 usage/config error, 3 quadrature failure, 4 optimizer
  non-convergence; an experiment's first failing replicate stops it with 3 or
  4, naming the ``selex estimate`` command that replays it.
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


def _listed(kind=float):
    """The argparse type of a comma-separated list of ``kind``: a tuple. Finiteness is left
    to the config or sample that takes the values."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(t) for t in text.split(",") if t.strip() != "")
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be a comma-separated list of {kind.__name__}s"
            ) from None

    return parse


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        import json
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_prob(args) -> int:
    if len(args.means) < 2:
        raise ValueError("--means needs at least 2 values")
    cfg = MeanConfig(args.means, args.sigma)
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
    if len(args.obs) < 2:
        raise ValueError("--obs needs at least 2 values")
    obs = ObservedSample(np.array(args.obs), args.sigma)
    try:
        result = ccmle(obs)
    except MaxIterationsExceeded as exc:
        if (result := exc.result) is None:  # a p = 2 root out of steps: no iterate to show
            raise
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


def _run_experiment(args) -> int:
    """The flow of both experiment commands: the config's fields from the --config file,
    if any, each replaced by its flag where one is given; run, export, print the summary.
    A failing replicate stops the run before any export, and ``main`` maps its error."""
    cls, fields = args.config_class, {}
    if args.config is not None:
        import json
        try:
            with open(args.config) as fh:
                fields = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}")
        if not isinstance(fields, dict):
            raise ValueError(f"config {args.config} must be a JSON object")
        unknown = set(fields) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    for name in cls.__dataclass_fields__:
        if getattr(args, name) is not None:
            fields[name] = getattr(args, name)
    try:
        cfg = cls(**fields)
    except (TypeError, ValueError, OverflowError) as exc:  # float(10**400) overflows
        raise ValueError(f"invalid config: {exc}")
    table = args.runner(cfg)
    fmt = args.format or ("json" if str(args.out).endswith(".json") else "csv")
    export_results(table.rows, fmt, args.out)
    print(f"{args.command}: {len(table.rows)} {args.rows} written to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selex",
        description="Conditional maximum likelihood estimation for "
        "rank-selected normal means.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prob", help="ordering probability P(X1 > ... > Xp)")
    p.add_argument("--means", type=_listed(), required=True,
                   help="comma-separated population means")
    p.add_argument("--sigma", type=float, required=True, help="common std deviation")
    p.add_argument("--mc", type=int, default=None, metavar="N",
                   help="use Monte Carlo with N draws instead of quadrature")
    p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed (default 0)")
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.set_defaults(fn=cmd_prob)

    e = sub.add_parser("estimate", help="constrained conditional MLE")
    e.add_argument("--obs", type=_listed(), required=True,
                   help="comma-separated observed values (any order)")
    e.add_argument("--sigma", type=float, required=True, help="common std deviation")
    e.add_argument("--json", action="store_true", help="emit a JSON document")
    e.add_argument("--diagnostics", action="store_true",
                   help="include iterations (quadrature sweeps), Newton "
                   "fallbacks and the KKT residual, the length of the last "
                   "projected step in sigma units")
    e.set_defaults(fn=cmd_estimate)

    m = sub.add_parser("simulate-mse", help="selection-respecting MSE experiment")
    b = sub.add_parser("bootstrap-ci", help="stratified bootstrap intervals")
    for sp, cls, runner, rows in (
        (m, MseConfig, run_mse, "rows"),
        (b, BootstrapConfig, run_bootstrap_ci, "ranks"),
    ):
        sp.add_argument("--mu", type=_listed(), dest="mu_true", metavar="MU",
                        help="comma-separated true means")
        sp.add_argument("--seed", type=int, help="seed (default 0)")
        sp.add_argument("--config", help=f"JSON config file (exact {cls.__name__} fields)")
        sp.add_argument("--out", required=True, help="output file path")
        sp.add_argument("--format", choices=["csv", "json"],
                        help="output format (default from extension)")
        sp.set_defaults(fn=_run_experiment, config_class=cls, runner=runner, rows=rows)

    m.add_argument("--sigma", type=float, help="common std deviation (default 1)")
    m.add_argument("--reps", type=int, dest="n_reps", metavar="REPS",
                   help="number of replicates (default 1000)")
    m.add_argument("--ranks", type=_listed(int),
                   help="comma-separated 1-based ranks (default all)")
    m.add_argument("--config-id", help="config_id column value (default 0)")

    b.add_argument("--n-per-group", type=int, help="observations per group (default 50)")
    b.add_argument("--obs-sd", type=float,
                   help="per-observation std deviation (default sqrt(50))")
    b.add_argument("--n-boot", type=int, help="bootstrap resamples (default 9999)")
    b.add_argument("--level", type=float, help="confidence level (default 0.95)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()  # per call: binds cli.run_mse as it is now, a tracer's wrapper too
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
