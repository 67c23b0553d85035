"""Workload process of the selex benchmark; run.py starts it.

Usage: python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE RESULT_JSON

Runs from the root of a checkout. It first times the import of
``selex.cli`` from ``src/`` in this fresh interpreter, then runs one
workload, checks its outputs and writes the measured metrics to
RESULT_JSON: the end-to-end metrics other than ``setup_s`` when TRACE is 0
(times scaled to the reference speed of clock.py, with the raw wall-time
figures beside them), the per-layer metrics when TRACE is 1.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest pool worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, result_path = argv
    root = Path.cwd()
    src = root / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import selex.cli

    import_s = time.perf_counter() - t0
    if not Path(selex.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: selex imported from {selex.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    import numpy as np
    import scipy

    import layers
    import workloads
    from spans import SpanTable, Tracer

    out_dir = Path(result_path).parent
    tracer = Tracer() if trace == "1" else None
    run = workloads.WORKLOADS[workload](int(seed), float(seconds), tracer, out_dir)
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "correct": run.correct,
        "problems": run.problems,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    if tracer is None:
        lat = np.asarray(run.op_seconds)
        p50, p90 = np.percentile(lat, [50, 90]) * 1e3
        result["metrics"] = {
            "ops_per_s": lat.size / run.busy_seconds,
            "op_ms_p50": float(p50),
            "op_ms_p90": float(p90),
            "ok_frac": (run.attempted - run.failed) / run.attempted,
            "peak_rss_mb": _peak_rss_mb(),
        }
        result["operations"] = int(lat.size)
        result["raw"] = {
            "ops_per_s": lat.size / run.raw_seconds,
            "scale": run.busy_seconds / run.raw_seconds,
        }
    else:
        spans_path = out_dir / f"spans-{workload}-seed{seed}.npz"
        tracer.write(spans_path)
        metrics, table = layers.metrics(SpanTable(tracer), run.experiment_ops)
        metrics["estimator.check_failed"] = run.check_failed
        probe_error = run.probe["block_error_sigma"] if run.probe else 0.0
        metrics["estimator.probe_block_error_sigma"] = probe_error
        result["probe"] = run.probe
        metrics["cli.import_s"] = import_s
        metrics["trace.overhead_s"] = run.busy_seconds - run.untraced_seconds
        result["metrics"] = metrics
        result["work_table"] = table
        result["spans"] = {"path": str(spans_path.relative_to(root)), "count": len(tracer.start)}
        result["traced_s"] = run.busy_seconds
        result["untraced_s"] = run.untraced_seconds
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
