"""Per-layer tracing of selex: which functions are wrapped, and the metrics.

Layers are the selex modules: kernels, ordering, estimator, experiments and
cli. Each public function is wrapped at the module attribute through which
the workloads' calls look it up, so calls made inside selex are seen as well
as the benchmark's own. Grid work in the ordering layer is computed from the inputs
of each call, using the grid recursion of ``selex.ordering``: a probability
call at p >= 3 sweeps 2 rows (full and half resolution), a gradient call
sweeps 2p rows in one batch, and every row is p x m cells of 8 bytes.
"""

from __future__ import annotations

import contextlib

import numpy as np

from selex import cli, estimator, experiments, ordering

from spans import NO_VALUE, SpanTable, Tracer

SOLVE_P = (3, 4, 6, 10, 20)

INVERSE_MILLS = "kernels.inverse_mills"
PROBABILITY = "ordering.ordering_probability"
GRADIENT = "ordering.grad_log_ordering_probability"
CCMLE = "estimator.ccmle"
BOOTSTRAP = "experiments.run_bootstrap_ci"
MSE = "experiments.run_mse"
CLI_MAIN = "cli.main"


def _grid_points(args, kwargs, position: int) -> int:
    g = args[position] if len(args) > position else kwargs.get(
        "grid_points", ordering.DEFAULT_GRID_POINTS
    )
    return g if g % 2 == 1 else g + 1


def _describe_probability(args, kwargs):
    return args[0].p, _grid_points(args, kwargs, 2)


def _describe_gradient(args, kwargs):
    return args[0].p, _grid_points(args, kwargs, 3)


def _describe_solve(args, kwargs):
    return args[0].p, NO_VALUE


def _solve_iterations(outcome):
    if isinstance(outcome, estimator.CcmleResult):
        return outcome.iterations
    if isinstance(outcome, estimator.MaxIterationsExceeded):
        return outcome.result.iterations
    return None


def _rejected(outcome):
    return getattr(outcome, "n_failures", None)


def install(tracer: Tracer) -> None:
    """Wrap each traced function where the workloads' calls look it up."""
    for module in (estimator, ordering):  # ccmle_p2; the p=2 gradient
        tracer.wrap(module, "inverse_mills", INVERSE_MILLS)
    tracer.wrap(estimator, "ordering_probability", PROBABILITY, _describe_probability)
    tracer.wrap(estimator, "grad_log_ordering_probability", GRADIENT, _describe_gradient)
    for module in (estimator, experiments):  # the benchmark; the experiment runners
        tracer.wrap(module, "ccmle", CCMLE, _describe_solve, _solve_iterations)
    tracer.wrap(experiments, "run_bootstrap_ci", BOOTSTRAP, keep_result=_rejected)
    tracer.wrap(cli, "run_mse", MSE, keep_result=_rejected)
    tracer.wrap(cli, "main", CLI_MAIN)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Trace selex for the duration of the block."""
    install(tracer)
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _grid_work(t: SpanTable):
    """Rows, cells and batch bytes of every span (zero outside the grid path)."""
    p = t.p.astype(np.int64)
    m = t.attr
    half = (m - 1) // 2 + 1
    prob = t.mask(PROBABILITY) & (p >= 3)
    grad = t.mask(GRADIENT) & (p >= 3)
    rows = np.where(prob, 2, 0) + np.where(grad, 2 * p, 0)
    cells = np.where(prob, p * m + p * half, 0) + np.where(grad, 2 * p * p * m, 0)
    batch = np.where(prob, p * m * 8, 0) + np.where(grad, 2 * p * p * m * 8, 0)
    return rows, cells, batch


def _per_solve(values: np.ndarray, owner: np.ndarray, solves: np.ndarray) -> np.ndarray:
    """Sum ``values`` over the spans each solve owns; one entry per solve."""
    inside = owner >= 0
    totals = np.bincount(owner[inside], weights=values[inside], minlength=owner.size)
    return totals[solves]


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else 0.0


def metrics(t: SpanTable, experiment_ops: int) -> tuple[dict, list[dict]]:
    """Per-layer metrics, and the per-p work-count table of the solves."""
    rows, cells, batch = _grid_work(t)
    solve_mask = t.mask(CCMLE)
    solves = np.flatnonzero(solve_mask)
    solve_p = t.p[solves]
    owner = t.owner(CCMLE)
    solve_rows = _per_solve(rows.astype(float), owner, solves)
    objective = _per_solve(t.mask(PROBABILITY).astype(float), owner, solves)
    gradient = _per_solve(t.mask(GRADIENT).astype(float), owner, solves)
    iterations = t.attr[solves].astype(float)
    known = iterations >= 0

    out = {
        "kernels.inverse_mills.calls": t.calls(INVERSE_MILLS),
        "kernels.inverse_mills.s": t.seconds(INVERSE_MILLS),
        "ordering.ordering_probability.calls": t.calls(PROBABILITY),
        "ordering.ordering_probability.s": t.seconds(PROBABILITY),
        "ordering.grad_log_ordering_probability.calls": t.calls(GRADIENT),
        "ordering.grad_log_ordering_probability.s": t.seconds(GRADIENT),
        "ordering.rows": int(rows.sum()),
        "ordering.cells": int(cells.sum()),
        "ordering.peak_batch_bytes": int(batch.max(initial=0)),
        "estimator.ccmle.calls": int(solves.size),
        "estimator.ccmle.s": t.seconds(CCMLE),
        "estimator.ccmle.self_s": t.self_seconds(CCMLE),
        "estimator.iterations_per_solve": _mean(iterations[known]),
    }
    for p in SOLVE_P:
        out[f"estimator.iterations_per_solve.p{p}"] = _mean(
            iterations[known & (solve_p == p)]
        )
    out["estimator.rows_per_solve"] = _mean(solve_rows)
    for p in SOLVE_P:
        out[f"estimator.rows_per_solve.p{p}"] = _mean(solve_rows[solve_p == p])
    out["estimator.objective_evals_per_solve"] = _mean(objective)
    out["estimator.gradient_evals_per_solve"] = _mean(gradient)
    out["estimator.failed"] = int(t.raised[solves].sum())

    experiment_mask = t.mask(BOOTSTRAP) | t.mask(MSE)
    in_experiment = t.owner(BOOTSTRAP, MSE)[solves] >= 0
    out["experiments.run_bootstrap_ci.s"] = t.seconds(BOOTSTRAP)
    out["experiments.run_mse.s"] = t.seconds(MSE)
    out["experiments.self_s"] = t.self_seconds(BOOTSTRAP, MSE)
    out["experiments.solves_per_op"] = (
        float(in_experiment.sum()) / experiment_ops if experiment_ops else 0.0
    )
    out["experiments.rejected"] = int(t.attr[experiment_mask & (t.attr > 0)].sum())
    out["cli.main.s"] = t.seconds(CLI_MAIN)
    out["cli.main.self_s"] = t.self_seconds(CLI_MAIN)

    table = []
    for p in sorted(set(solve_p.tolist())):
        sel = solve_p == p
        table.append(
            {
                "p": p,
                "solves": int(sel.sum()),
                "iterations": _mean(iterations[sel & known]),
                "objective_evals": _mean(objective[sel]),
                "gradient_evals": _mean(gradient[sel]),
                "rows": _mean(solve_rows[sel]),
                "ms": 1e3 * _mean(t.dur[solves][sel]),
            }
        )
    return out, table
