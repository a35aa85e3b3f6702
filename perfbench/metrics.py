"""End-to-end and per-layer metrics from one run's scenes and spans.

`END_TO_END` and `PER_LAYER` list every metric name with its unit; they are
the lists in `BENCHMARK.json`. `setup_s` is measured by `run.py`, which starts
the processes; every other metric comes from here.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import HARNESS, durations, self_times
from workloads import GRASP_COUNT, REASONS

END_TO_END = {
    "setup_s": "s",
    "scenes_per_s": "1/s",
    "scene_s.p50": "s",
    "scene_s.tail": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "completion_cd_mm": "mm",
    "completion_iou": "ratio",
}

# calls timed per layer: metric `<name>_s` is the median wall time of span `<name>`
TIMED_CALLS = [
    "scenes.build_catalog", "scenes.generate", "scenes.save_scene",
    "camera.render_cluttered", "camera.render_single", "camera.back_project", "camera.save_frame",
    "occlusion.level",
    "completion.mirror", "completion.ground_truth", "completion.chamfer", "completion.iou",
    "tsdf.fuse", "tsdf.splat", "tsdf.save_grid",
    "grasping.label_pair", "grasping.sample", "grasping.simulate_single", "grasping.simulate_cluttered",
    "grasping.write_labels",
]
MODULES = ["scenes", "camera", "occlusion", "completion", "tsdf", "grasping", HARNESS]
# per-scene quantities the workloads record, reported as their mean
MEANS = {
    "scenes.objects": "count",
    "camera.covered_px": "px",
    "camera.partial_points": "count",
    "camera.save_frame_bytes": "B",
    "completion.added_ratio": "ratio",
    "tsdf.fuse_observed_ratio": "ratio",
    "tsdf.splat_observed_ratio": "ratio",
    "tsdf.save_grid_bytes": "B",
    "grasping.write_labels_bytes": "B",
}
# event counts over the traced scenes
COUNTS = ["occlusion.targets", "occlusion.unbinned", "completion.passthrough", "grasping.candidates"] + [
    f"grasping.reason.{r}" for r in REASONS]

PER_LAYER = {
    **{f"{name}_s": "s" for name in TIMED_CALLS},
    **{f"{name}_s.calls": "count" for name in TIMED_CALLS},
    "camera.render_calls": "count",
    "occlusion.errors": "count",
    **MEANS,
    **{name: "count" for name in COUNTS},
    "grasping.sample_yield": "ratio",
    "grasping.success_single_ratio": "ratio",
    "grasping.success_cluttered_ratio": "ratio",
    **{f"{m}.self_s": "s" for m in MODULES},
    **{f"{m}.self_share": "ratio" for m in MODULES},
    "bench.scenes": "count",
    "trace.spans": "count",
    "trace.scenes_per_s": "1/s",
    "trace.untraced_scenes_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def tail_rank(n: int) -> int:
    """1-based rank of the highest percentile with at least 10 samples beyond it.

    With fewer than 20 samples no rank above the median has 10 beyond it;
    the median's rank is returned and the tail reads as the median.
    """
    return max(n - 10, math.ceil(n / 2))


def _metric(values: dict, units: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def end_to_end(scenes, peak_rss_mb: float, extra_completion, time_scale: float) -> dict:
    """Every end-to-end metric except `setup_s`.

    Times come from every scene run, failed ones counting as infinitely slow,
    multiplied by `time_scale` (see speed.py); completion quality comes from
    the first pass over the corpus.
    """
    times = sorted(math.inf if s.failed else s.seconds * time_scale for s in scenes)
    ok = sum(not s.failed for s in scenes)
    completion = [s.rec.completion for s in scenes if s.first_pass and s.rec.completion] + [
        r.completion for r in extra_completion]
    values = {
        "scenes_per_s": ok / (sum(s.seconds for s in scenes) * time_scale),
        "scene_s.p50": statistics.median(times),
        "scene_s.tail": max(times[tail_rank(len(times)) - 1], statistics.median(times)),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": ok / len(scenes),
        "completion_cd_mm": _mean([c[0] for c in completion]),
        "completion_iou": _mean([c[1] for c in completion]),
    }
    return _metric(values, {k: u for k, u in END_TO_END.items() if k != "setup_s"})


def per_layer(scenes, spans, time_scale: float) -> dict:
    """Per-layer metrics of a traced run: call times, counts, ratios, self times, tracing overhead.

    Times are multiplied by `time_scale` (see speed.py). Counts, means and
    ratios cover the first pass over the corpus, so they are the same on every
    run of the same program.
    """
    calls = durations(spans)
    values = {}
    for name in TIMED_CALLS:
        values[f"{name}_s"] = statistics.median(calls[name]) * time_scale if name in calls else 0.0
        values[f"{name}_s.calls"] = len(calls.get(name, []))
    values["camera.render_calls"] = values["camera.render_cluttered_s.calls"] + values["camera.render_single_s.calls"]
    first_pass = [s for s in scenes if s.first_pass]
    values["occlusion.errors"] = sum(1 for s in first_pass if s.error and s.error.startswith("occlusion."))

    counts: dict = defaultdict(float)
    samples: dict = defaultdict(list)
    for s in first_pass:
        for k, v in s.rec.counts.items():
            counts[k] += v
        for k, v in s.rec.samples.items():
            samples[k] += v
    for name in MEANS:
        values[name] = _mean(samples[name])
    for name in COUNTS:
        values[name] = counts[name]
    candidates = counts["grasping.candidates"]
    values["grasping.sample_yield"] = candidates / (counts["grasping.sampled"] * GRASP_COUNT) if candidates else 0.0
    values["grasping.success_single_ratio"] = counts["grasping.success_single"] / candidates if candidates else 0.0
    values["grasping.success_cluttered_ratio"] = (
        counts["grasping.success_cluttered"] / candidates if candidates else 0.0)

    scene_spans = [s for s in spans if s.scene_id != "setup"]
    own = {m: t * time_scale for m, t in self_times(scene_spans).items()}
    traced = sum(s.seconds for s in scenes) * time_scale
    untraced = sum(s.untraced_seconds for s in scenes) * time_scale
    for m in MODULES:
        values[f"{m}.self_s"] = own.get(m, 0.0) / len(scenes)
        values[f"{m}.self_share"] = own.get(m, 0.0) / traced
    values["bench.scenes"] = len(scenes)
    values["trace.spans"] = len(spans)
    values["trace.scenes_per_s"] = len(scenes) / traced
    values["trace.untraced_scenes_per_s"] = len(scenes) / untraced
    values["trace.overhead_ratio"] = traced / untraced - 1.0
    return _metric(values, PER_LAYER)
