"""One benchmark process: set up, print READY, run one workload, print its result.

`run.py` starts this file once per set-up sample (`--setup-only`) and once for
the measured run. The measured run is a closed loop in one single-threaded
process: one scene at a time, each step starting when the previous call has
returned. It makes whole passes over the workload's corpus of scenes, at
least one, until the scenes' time adds up to `--seconds`. The last line of
standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from occlugrasp.scenes import generate_packed_scene  # noqa: E402

from checks import raycast_problems  # noqa: E402
from metrics import end_to_end, per_layer, tail_rank  # noqa: E402
from speed import probe, scale  # noqa: E402
from tracing import Calls  # noqa: E402
from workloads import (  # noqa: E402
    CORPUS, PACKAGE_ERRORS, SCENE_FUNCTIONS, complete_designated_target, make_env, new_record)

# set-up warms up on this scene seed, outside every corpus, so set-up does the same work on every run
WARMUP_SEED = 1_000_001
# designated targets of occlusion_sweep scenes whose completion is measured after its loop
SWEEP_COMPLETION_SAMPLES = 4
# speed probes run right after set-up, to scale the set-up time
SETUP_PROBES = 5


def visiting_order(workload: str, seed: int) -> list[int]:
    """The workload's corpus scene seeds in the order that `seed` gives them."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [int(k) for k in rng.permutation(CORPUS[workload])]


def setup(workload: str, calls, workdir: Path):
    """Build the catalog, fill the per-mesh caches and run one untimed warm-up scene."""
    env = make_env(workload, calls, workdir)
    tracing, calls.trace = calls.trace, False
    run_one(env, calls, new_record("warmup", False), WARMUP_SEED)
    calls.trace = tracing
    return env


def run_one(env, calls, rec, seed: int) -> str | None:
    """Run one scene; return None, or the package error it raised and the call that raised it."""
    try:
        calls.time_scene(rec.scene_id, SCENE_FUNCTIONS[env.workload], env, calls, rec, seed)
        return None
    except PACKAGE_ERRORS as exc:
        return f"{calls.failed_call}: {type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(env.workdir / rec.scene_id, ignore_errors=True)


@dataclass
class Attempt:
    """One scene run of the timed loop."""

    seed: int
    rec: object  # the scene's SceneRecord
    seconds: float
    error: str | None
    first_pass: bool
    untraced_seconds: float = 0.0  # traced run only: the same scene run without spans

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.rec.problems)


def measure(env, calls, seed: int, seconds: float, corpus: int | None = None) -> tuple[list[Attempt], list[float]]:
    """The timed closed loop: whole passes over the corpus, in the order `seed` gives.

    The loop runs one pass, then more while the scenes' time is below
    `seconds`, so every run measures each corpus scene equally often.
    `corpus` shortens the corpus to its first scenes in that order. Returns
    the scenes and the speed probes run between them.
    """
    traced = calls.trace
    order = visiting_order(env.workload, seed)[:corpus]
    scenes: list[Attempt] = []
    probes = []
    busy = 0.0
    while not scenes or busy < seconds or len(scenes) % len(order):
        probes.append(probe())
        i = len(scenes)
        scene_seed = order[i % len(order)]
        first_pass = i < len(order)
        rec = new_record(f"{env.workload}-{scene_seed:03d}", first_pass)
        if traced:
            # an untraced twin of each traced scene measures the tracing overhead;
            # which of the two runs first alternates
            times, errors = {}, {}
            for trace in ((True, False) if i % 2 == 0 else (False, True)):
                calls.trace = trace
                errors[trace] = run_one(env, calls, rec if trace else new_record(rec.scene_id, False), scene_seed)
                times[trace] = calls.scene_s
            attempt = Attempt(scene_seed, rec, times[True], errors[True], first_pass, times[False])
        else:
            error = run_one(env, calls, rec, scene_seed)
            attempt = Attempt(scene_seed, rec, calls.scene_s, error, first_pass)
        scenes.append(attempt)
        busy += attempt.seconds + attempt.untraced_seconds
    probes.append(probe())
    calls.trace = False  # what follows the loop is not traced
    return scenes, probes


def check(env, calls, scenes: list[Attempt]) -> None:
    """Correctness checks after the loop; a problem marks its scene failed."""
    first = scenes[0]
    again = new_record(first.rec.scene_id, True)
    error = run_one(env, calls, again, first.seed)
    if error != first.error or again.hexdigest() != first.rec.hexdigest():
        first.rec.problems.append("re-running the first scene with its seed gave different output")
    for s in scenes:
        # later passes repeat first-pass scenes; a scene that failed before its render has no sample
        if s.first_pass and s.rec.ray_check:
            s.rec.problems += raycast_problems(env.camera, env.check_pixels, *s.rec.ray_check)


def sweep_completion(env, calls) -> list:
    """Completion quality on occlusion_sweep, measured outside its timed loop.

    The sweep never calls completion in its scenes. Its completion metrics
    come from mirror-completing the designated targets of the first scenes of
    its corpus, as the other workloads do inside theirs.
    """
    records = []
    for scene_seed in range(CORPUS[env.workload]):
        rec = new_record("sweep-completion", False)
        scene = generate_packed_scene(env.scene_config(scene_seed), env.catalog)
        complete_designated_target(env, calls, rec, scene)
        if rec.completion:
            records.append(rec)
        if len(records) == SWEEP_COMPLETION_SAMPLES:
            break
    return records


def metadata() -> dict:
    src = ROOT / "src"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k, "unset")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py"))),
    }


def run(env, calls, seed: int, seconds: float, corpus: int | None = None) -> dict:
    """Measure one workload, check its outputs and return the result."""
    traced = calls.trace
    scenes, probes = measure(env, calls, seed, seconds, corpus)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    check(env, calls, scenes)
    time_scale = scale(probes)
    raw = {}
    if traced:
        metrics = per_layer(scenes, calls.spans, time_scale)
    else:
        extra = sweep_completion(env, calls) if env.workload == "occlusion_sweep" else []
        metrics = end_to_end(scenes, peak_rss_mb, extra, time_scale)
        raw = {k: m["value"] for k, m in end_to_end(scenes, peak_rss_mb, extra, 1.0).items()
               if m["unit"] in ("s", "1/s")}
    failed = [s for s in scenes if s.failed]
    rank = tail_rank(len(scenes))
    return {
        "correct": not any(s.rec.problems for s in scenes),
        "attempted": len(scenes),
        "failed": len(failed),
        "metrics": metrics,
        "report": {
            "digest": hashlib.sha256("".join(s.rec.hexdigest() for s in scenes).encode()).hexdigest(),
            "time_scale": time_scale,
            "probe_s": statistics.fmean(probes),
            "raw": raw,
            "tail": {"percentile": 100.0 * rank / len(scenes), "samples": len(scenes),
                     "beyond": len(scenes) - rank},
            "failures": [{"scene": s.rec.scene_id, "seed": s.seed, "error": s.error, "problems": s.rec.problems}
                         for s in failed],
            "meta": metadata(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=SCENE_FUNCTIONS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    t0 = perf_counter()
    calls = Calls(trace=bool(args.trace))
    workdir = OUT / f"tmp-{os.getpid()}"
    try:
        env = setup(args.workload, calls, workdir)
        print("READY", flush=True)
        print(f"SCALE {scale([probe() for _ in range(SETUP_PROBES)])!r}", flush=True)
        if args.setup_only:
            return 0
        result = run(env, calls, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        calls.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl", t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
