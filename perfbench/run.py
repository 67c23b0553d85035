"""Benchmark of selex: three workloads, end-to-end metrics, a per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-mixed-p --seed 1 --seconds 45 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
``solve-mixed-p`` and ``mse-p2-cli``, which BENCHMARK.json lists, and
``boot-p3-ties``, which it does not: one run of it is a single ~40 s
bootstrap call (999 resamples is the config's floor), so its ten-run spread
follows the machine's drift (it went past the 0.25 bound), and a third
workload at the run length the other two need would not fit the time all
gated runs may take. It is run by hand for the criterion-8 path.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
``setup_s`` is the median of several fresh interpreters importing
``selex.cli``; the rest come from a workload process (child.py) that runs the
workload for ``--seconds`` seconds in whole rounds and checks its outputs.
Times are scaled to a reference machine speed by a calibration kernel timed
between stretches of calls (clock.py); the raw wall-time figures are printed
too.
With ``--trace 1`` the workload process runs a fixed amount of work twice,
untraced and then traced with SELEX_THREADS=1, and reports the per-layer
metrics derived from the spans (layers.py).

BLAS and OpenMP pools are pinned to one thread; the experiment workloads
use SELEX_THREADS=2. The environment (CPU, core count, versions, commit) is
printed and stored with every result under .bench_build/perfbench/. The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import Clock

HERE = Path(__file__).resolve().parent
WORKLOADS = ("boot-p3-ties", "solve-mixed-p", "mse-p2-cli")
SETUP_REPEATS = 3
# The third-party imports of selex.cli at the parent commit: set-up time is
# scaled by how long a fresh interpreter takes to import them (clock.py).
IMPORT_KERNEL = (
    "import argparse, json, concurrent.futures, numpy, "
    "scipy.optimize, scipy.special, scipy.integrate"
)
IMPORT_REFERENCE_S = 0.55
DEADLINE_S = 170.0
EXPERIMENT_THREADS = "2"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _environment(root: Path, selex_threads: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": _commit(root),
        "SELEX_THREADS": selex_threads,
        **PINNED,
    }


def _commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child_env(root: Path, selex_threads: str) -> dict:
    env = dict(os.environ, SELEX_THREADS=selex_threads, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def _interpreter_seconds(root: Path, env: dict, code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, check=True,
        stdout=subprocess.DEVNULL, timeout=DEADLINE_S / (4 * SETUP_REPEATS),
    )
    return time.perf_counter() - t0


def measure_setup(root: Path, env: dict) -> tuple[list[float], list[float]]:
    """Seconds for fresh interpreters to import selex.cli and build its parser,
    scaled to reference speed, and the same as raw wall seconds."""
    clock = Clock(lambda: _interpreter_seconds(root, env, IMPORT_KERNEL), IMPORT_REFERENCE_S)
    raw = []
    for _ in range(SETUP_REPEATS):
        raw.append(_interpreter_seconds(
            root, env, "import selex.cli; selex.cli.build_parser()"
        ))
        clock.mark()
    return [t * f for t, f in zip(raw, clock.factors())], raw


def run_child(root: Path, env: dict, args, result_path: Path, timeout: float) -> int:
    cmd = [
        sys.executable, str(HERE / "child.py"), args.workload, str(args.seed),
        str(args.seconds), str(args.trace), str(result_path),
    ]
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"error: workload did not finish within {timeout:.0f} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:  # interrupted: take the workload and its pool down
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def report(spec_metrics: list[dict], result: dict) -> dict:
    """Print the human-readable summary; return the metrics for the JSON line."""
    out = {}
    for m in spec_metrics:
        value = result["metrics"][m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<46} {value:>16.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'fail_frac':<46} {failed / attempted:>16.6g} ratio ({failed} of {attempted})")
    for problem in result["problems"]:
        print(f"failure: {problem}")
    if "raw" in result:
        raw = result["raw"]
        print(
            f"raw wall time: ops_per_s {raw['ops_per_s']:.6g} 1/s, setup_s "
            f"{raw['setup_s']:.6g} s; times scaled by {raw['scale']:.4f} to reference speed"
        )
    probe = result.get("probe")
    if probe:
        verdict = "; ".join(probe["problems"]) or "passed its checks"
        print(f"outlier probe (known quadrature defect) p={probe['p']} {probe['kind']}: {verdict}")
    for row in result.get("work_table", []):
        print(
            "work p={p:<3} solves={solves:<4} iterations={iterations:8.2f} "
            "objective_evals={objective_evals:8.2f} gradient_evals={gradient_evals:8.2f} "
            "rows={rows:9.2f} ms={ms:9.2f}".format(**row)
        )
    if "traced_s" in result:
        print(
            f"trace: {result['spans']['count']} spans in {result['spans']['path']}; "
            f"traced {result['traced_s']:.3f} s vs untraced {result['untraced_s']:.3f} s"
        )
    print("env: " + json.dumps(result["environment"]))
    return out


def _terminate(signum, frame):
    raise SystemExit(1)  # unwinds run_child, which takes the workload down


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "selex" / "__init__.py").is_file():
        print(f"error: no selex sources under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    out_dir = root / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    threads = "1" if args.trace else EXPERIMENT_THREADS
    env = _child_env(root, threads)

    setup = None if args.trace else measure_setup(root, env)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = out_dir / f"result-{stem}.json"
    result_path.unlink(missing_ok=True)
    timeout = DEADLINE_S - (time.perf_counter() - started)
    if run_child(root, env, args, result_path, timeout) != 0 or not result_path.is_file():
        print("error: workload process failed", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    if setup is not None:
        result["metrics"]["setup_s"] = statistics.median(setup[0])
        result["raw"]["setup_s"] = statistics.median(setup[1])
    result["environment"] = _environment(root, threads) | result.pop("versions")
    result_path.write_text(json.dumps(result, indent=1))

    metrics = report(spec["per_layer" if args.trace else "end_to_end"], result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
