"""Benchmark of occlugrasp's dataset-generation stages.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload episode --seed 1 --seconds 25 --trace 0

Workloads: episode, occlusion_sweep, grasp_clutter (see workloads.py). With
`--trace 0` the result holds the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run. The last line of standard output is the
result as one JSON object; the lines above it are a readable report.

Set-up is timed from starting a process until it is ready to time scenes, on
SETUP_SAMPLES processes; `setup_s` is their median. The last of them runs the
measured loop. Every process runs single-threaded BLAS, as one process of a
dataset script would. Times are scaled to a reference machine speed by a
probe run in each process (see speed.py); the report gives the unscaled ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOADS = ("episode", "occlusion_sweep", "grasp_clutter")
SETUP_SAMPLES = 3
# the whole run, set-up samples included, must end well within 180 s
TIME_LIMIT_S = 170.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def start_worker(args, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its scaled set-up time and, unless `setup_only`, its result."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **SINGLE_THREAD}
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(max(deadline - monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - start
            time_scale = proc.stdout.readline()
            rest = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.kill()  # no-op once the worker has exited; leaving the block waits for it
    if ready.strip() != "READY" or not time_scale.startswith("SCALE ") or code != 0:
        raise WorkerError(f"worker exited with code {code} (set-up {'done' if ready else 'not done'})")
    # the worker probes the machine's speed right after set-up; see speed.py
    setup_s *= float(time_scale.split()[1])
    if setup_only:
        return setup_s, None
    if not rest:
        raise WorkerError("worker printed no result")
    return setup_s, json.loads(rest[-1])


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def report(args, result: dict, setup_samples: list[float]) -> list[str]:
    rep = result["report"]
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"  scenes attempted {attempted}, failed {failed}, fail_ratio {failed / attempted:.4g}")
    tail = rep["tail"]
    lines.append(f"  times scaled by {rep['time_scale']:.4f} (speed probe {rep['probe_s'] * 1000:.2f} ms)")
    if not args.trace:
        lines.append(f"  scene_s.tail is p{tail['percentile']:.1f} of {tail['samples']} scenes, "
                     f"{tail['beyond']} beyond it")
        lines.append("  setup_s samples " + " ".join(f"{s:.3f}" for s in setup_samples))
        lines.append("  unscaled " + " ".join(f"{k} {v:.6g}" for k, v in rep["raw"].items()))
    for f in rep["failures"]:
        lines.append(f"  FAILED {f['scene']} (scene seed {f['seed']}): {f['error'] or ''} {f['problems']}")
    lines.append(f"  digest {rep['digest']}")
    lines.append("  meta " + json.dumps(rep["meta"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "occlugrasp" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'occlugrasp'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    deadline = monotonic() + TIME_LIMIT_S
    try:
        # a traced run reports no setup_s, so it takes no extra samples
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setup_samples = [start_worker(args, True, deadline)[0] for _ in range(extra)]
        setup_s, result = start_worker(args, False, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(setup_s)
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
                             **result["metrics"]}
    result["report"]["meta"]["commit"] = commit()

    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    print("\n".join(report(args, result, setup_samples)))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
