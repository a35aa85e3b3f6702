"""The benchmark's three workloads, each a function that runs one scene.

The functions call `occlugrasp`'s public API the way a dataset script would,
one step after the other, each through `Calls.run` so a traced run gets one
span per call. What the harness does between calls (hashing outputs for the
digest, keeping check samples, counting) sits in `calls.aside()` blocks and
is not scene time.

Why these workloads:
- `episode` runs the whole dataset-generation chain and is the only one that
  writes files, so changes to the persistence formats show here alone.
- `occlusion_sweep` bins every target of a dense scene. It is render-bound
  and never calls completion, TSDF or grasping, so a change to those layers
  should not move it.
- `grasp_clutter` plans grasps from the completed partial view and judges them
  in the single and the dense cluttered scene. It is grasp-oracle-bound and
  does no TSDF work.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from occlugrasp.camera import BACKGROUND_ID, CameraModel, back_project, default_camera, render, save_frame
from occlugrasp.completion import MirrorCompleter, chamfer_l1, completion_ground_truth, volumetric_iou
from occlugrasp.errors import GenerationError, InputError, MeasurementError
from occlugrasp.grasping import (
    FailureReason,
    GripperModel,
    label_pair,
    label_to_record,
    sample_candidate_grasps,
    simulate_grasp,
    taxonomy_counts,
    write_labels_jsonl,
)
from occlugrasp.occlusion import BinScheme, occlusion_level
from occlugrasp.scenes import (
    CatalogConfig,
    SceneConfig,
    build_catalog,
    derive_single_scene,
    enumerate_targets,
    generate_packed_scene,
    save_scene,
)
from occlugrasp.tsdf import fuse, save_grid, splat

from checks import roundtrip_problems

# Each workload runs a fixed corpus: the scenes with seeds 0 .. n-1. A run's seed
# sets the order, and a run covers the corpus at least once, so every run
# measures the same scenes. A pass is 15-20 s of scene time at the reference
# speed of speed.py, 20-30 s of wall time on a loaded 2-vCPU x86 VM.
CORPUS = {"episode": 16, "occlusion_sweep": 40, "grasp_clutter": 16}
PACKAGE_ERRORS = (InputError, GenerationError, MeasurementError)
GRASP_COUNT = 120
DENSE_OBJECTS = (8, 10)
# a 6 x 4 grid of pixel centres over the image of the workspace, compared with ray casts
CHECK_GRID = (6, 4)


@dataclass
class Env:
    """What set-up builds once per process and every scene shares."""

    workload: str
    catalog_config: CatalogConfig
    catalog: list
    camera: CameraModel
    gripper: GripperModel
    scheme: BinScheme
    completer: MirrorCompleter
    workdir: Path
    check_pixels: tuple[np.ndarray, np.ndarray]

    def scene_config(self, seed: int) -> SceneConfig:
        if self.workload == "episode":
            return SceneConfig(seed=seed, catalog=self.catalog_config)
        return SceneConfig(object_count_range=DENSE_OBJECTS, seed=seed, catalog=self.catalog_config)


def make_env(workload: str, calls, workdir: Path) -> Env:
    catalog_config = CatalogConfig()
    catalog = calls.run("scenes.build_catalog", build_catalog, catalog_config)
    # fill the lazy per-mesh caches the timed chain reads
    for obj in catalog:
        obj.mesh.face_areas, obj.mesh.face_normals, obj.mesh.contact_samples
    camera = default_camera()
    return Env(workload, catalog_config, catalog, camera, GripperModel(), BinScheme.test(),
               MirrorCompleter(), workdir, _check_pixels(camera, catalog_config, SceneConfig().workspace_extent))


def _check_pixels(camera, catalog_config: CatalogConfig, extent: float):
    """Fixed pixel sample: a grid over the image of the workspace box."""
    top = catalog_config.height[1]
    corners = np.array([[x, y, z] for x in (0, extent) for y in (0, extent) for z in (0, top)])
    cam = camera.pose.inverse().transform(corners)
    us = cam[:, 0] / cam[:, 2] * camera.fx + camera.cx
    vs = cam[:, 1] / cam[:, 2] * camera.fy + camera.cy
    nu, nv = CHECK_GRID
    u = us.min() + (np.arange(nu) + 0.5) / nu * (us.max() - us.min())
    v = vs.min() + (np.arange(nv) + 0.5) / nv * (vs.max() - vs.min())
    gv, gu = np.meshgrid(np.clip(v, 0, camera.height - 1).astype(int),
                         np.clip(u, 0, camera.width - 1).astype(int), indexing="ij")
    return gv.ravel(), gu.ravel()


@dataclass
class SceneRecord:
    """What the harness keeps from one scene: digest, counts, check samples, problems."""

    scene_id: str
    hash: object = None  # hashlib object when this scene is part of the digest
    counts: dict = field(default_factory=lambda: defaultdict(float))
    samples: dict = field(default_factory=lambda: defaultdict(list))  # per-scene values, reported as means
    ray_check: tuple | None = None  # (scene, ids, depths) of the cluttered frame's check pixels
    problems: list = field(default_factory=list)
    completion: tuple | None = None  # (chamfer mm, IoU)

    def hexdigest(self) -> str:
        return self.hash.hexdigest() if self.hash is not None else ""

    def digest(self, *items) -> None:
        if self.hash is None:
            return
        for item in items:
            if isinstance(item, np.ndarray):
                self.hash.update(np.ascontiguousarray(item).tobytes())
            else:
                self.hash.update(json.dumps(item, sort_keys=True).encode())

    def frame(self, env: Env, frame, scene=None) -> None:
        """Digest a frame; for a cluttered frame, keep the check-pixel sample."""
        self.digest(frame.depth, frame.instance_id)
        if scene is not None:
            vs, us = env.check_pixels
            self.ray_check = (scene, frame.instance_id[vs, us].copy(), frame.depth[vs, us].copy())
            self.samples["camera.covered_px"].append(int((frame.instance_id != BACKGROUND_ID).sum()))

    def occlusion(self, record) -> None:
        self.digest([record.level, record.bin_index, record.visible_pixels, record.total_pixels])
        self.counts["occlusion.targets"] += 1
        self.counts["occlusion.unbinned"] += record.bin_index is None
        if not (0.0 <= record.level <= 1.0 and record.visible_pixels <= record.total_pixels):
            self.problems.append(f"occlusion record out of range: {record}")

    def completed(self, partial, completed, cd: float, iou: float) -> None:
        self.digest(completed.points, completed.normals, [cd, iou])
        self.completion = (cd * 1000.0, iou)
        self.samples["camera.partial_points"].append(len(partial))
        self.samples["completion.added_ratio"].append((len(completed) - len(partial)) / len(partial))
        self.counts["completion.passthrough"] += len(completed) == len(partial)

    def grasps(self, sampled: int, success_single: list, success_cluttered: list, reasons: list) -> None:
        self.counts["grasping.sampled"] += 1
        self.counts["grasping.candidates"] += sampled
        self.counts["grasping.success_single"] += sum(success_single)
        self.counts["grasping.success_cluttered"] += sum(success_cluttered)
        for reason in reasons:
            self.counts[f"grasping.reason.{reason.value}"] += 1
        if any(c and not s for s, c in zip(success_single, success_cluttered)):
            self.problems.append("a cluttered success is not a single-scene success")

    def files(self, name: str, paths) -> None:
        self.samples[name].append(sum(Path(p).stat().st_size for p in paths))


def _generate(env: Env, calls, rec: SceneRecord, seed: int):
    scene = calls.run("scenes.generate", generate_packed_scene, env.scene_config(seed), env.catalog)
    with calls.aside():
        rec.samples["scenes.objects"].append(len(scene.instances))
    return scene


def _render_pair(env: Env, calls, rec: SceneRecord, scene):
    single = calls.run("scenes.derive_single", derive_single_scene, scene, scene.target_index)
    cluttered_f = calls.run("camera.render_cluttered", render, scene, env.camera)
    single_f = calls.run("camera.render_single", render, single, env.camera)
    record = calls.run("occlusion.level", occlusion_level, single_f, cluttered_f, scene.target_index, env.scheme)
    with calls.aside():
        rec.frame(env, cluttered_f, scene)
        rec.frame(env, single_f)
        rec.occlusion(record)
    return single, cluttered_f, single_f, record


def _complete(env: Env, calls, rec: SceneRecord, scene, cluttered_f):
    partial = calls.run("camera.back_project", back_project, cluttered_f, scene.target_index)
    completed = calls.run("completion.mirror", env.completer, partial, scene, env.camera)
    gt = calls.run("completion.ground_truth", completion_ground_truth, scene)
    cd = calls.run("completion.chamfer", chamfer_l1, completed, gt)
    iou = calls.run("completion.iou", volumetric_iou, completed, gt)
    with calls.aside():
        rec.completed(partial, completed, cd, iou)
    return completed


def episode(env: Env, calls, rec: SceneRecord, seed: int) -> None:
    scene = _generate(env, calls, rec, seed)
    single, cluttered_f, single_f, record = _render_pair(env, calls, rec, scene)
    if record.bin_index is None:
        return
    completed = _complete(env, calls, rec, scene, cluttered_f)
    grid = calls.run("tsdf.fuse", fuse, cluttered_f)
    target_grid = calls.run("tsdf.splat", splat, completed)
    labels = calls.run("grasping.label_pair", label_pair, scene, env.gripper, GRASP_COUNT, seed)
    taxonomy = calls.run("grasping.taxonomy", taxonomy_counts, labels)

    out = env.workdir / rec.scene_id
    out.mkdir(parents=True)
    calls.run("scenes.save_scene", save_scene, out / "scene.json", scene, env.catalog_config)
    cluttered_files = calls.run("camera.save_frame", save_frame, out, "cluttered", cluttered_f)
    single_files = calls.run("camera.save_frame", save_frame, out, "single", single_f)
    grid_files = calls.run("tsdf.save_grid", save_grid, out, "scene", grid)
    target_files = calls.run("tsdf.save_grid", save_grid, out, "target", target_grid)
    calls.run("grasping.write_labels", write_labels_jsonl, out / "labels.jsonl", rec.scene_id,
              scene.target_index, labels)

    with calls.aside():
        records = [label_to_record(rec.scene_id, scene.target_index, lab) for lab in labels]
        rec.digest(grid.values, grid.weights, target_grid.values, target_grid.weights, records, taxonomy)
        rec.samples["tsdf.fuse_observed_ratio"].append(float((grid.weights > 0).mean()))
        rec.samples["tsdf.splat_observed_ratio"].append(float((target_grid.weights > 0).mean()))
        rec.grasps(len(labels), [lab.success_single for lab in labels],
                   [lab.success_cluttered for lab in labels], [lab.failure_reason for lab in labels])
        rec.files("camera.save_frame_bytes", cluttered_files)
        rec.files("camera.save_frame_bytes", single_files)
        rec.files("tsdf.save_grid_bytes", grid_files)
        rec.files("tsdf.save_grid_bytes", target_files)
        rec.files("grasping.write_labels_bytes", [out / "labels.jsonl"])
        rec.problems += roundtrip_problems(
            out, env, scene, {"cluttered": cluttered_f, "single": single_f},
            {"scene": grid, "target": target_grid}, records)


def occlusion_sweep(env: Env, calls, rec: SceneRecord, seed: int) -> None:
    scene = _generate(env, calls, rec, seed)
    cluttered_f = calls.run("camera.render_cluttered", render, scene, env.camera)
    with calls.aside():
        rec.frame(env, cluttered_f, scene)
    for target in calls.run("scenes.enumerate_targets", enumerate_targets, scene):
        single = calls.run("scenes.derive_single", derive_single_scene, target, target.target_index)
        single_f = calls.run("camera.render_single", render, single, env.camera)
        record = calls.run("occlusion.level", occlusion_level, single_f, cluttered_f,
                           target.target_index, env.scheme)
        with calls.aside():
            rec.frame(env, single_f)
            rec.occlusion(record)


def grasp_clutter(env: Env, calls, rec: SceneRecord, seed: int) -> None:
    scene = _generate(env, calls, rec, seed)
    single, cluttered_f, _, record = _render_pair(env, calls, rec, scene)
    if record.bin_index is None:
        return
    completed = _complete(env, calls, rec, scene, cluttered_f)
    candidates = calls.run("grasping.sample", sample_candidate_grasps, completed, env.gripper, GRASP_COUNT, seed)
    single_ok, cluttered_ok, reasons = [], [], []
    for grasp in candidates:
        s = calls.run("grasping.simulate_single", simulate_grasp, grasp, single, env.gripper)
        c = calls.run("grasping.simulate_cluttered", simulate_grasp, grasp, scene, env.gripper)
        single_ok.append(s.success)
        cluttered_ok.append(c.success)
        reasons.append(c.reason)
    with calls.aside():
        rec.digest([[list(g.center), g.rotation.canonical().as_array().tolist(), g.width] for g in candidates],
                   single_ok, cluttered_ok, [r.value for r in reasons])
        rec.grasps(len(candidates), single_ok, cluttered_ok, reasons)


SCENE_FUNCTIONS = {"episode": episode, "occlusion_sweep": occlusion_sweep, "grasp_clutter": grasp_clutter}
WORKLOADS = tuple(SCENE_FUNCTIONS)

REASONS = [r.value for r in FailureReason]


def complete_designated_target(env: Env, calls, rec: SceneRecord, scene) -> None:
    """Mirror completion of a scene's designated target, if binned; for occlusion_sweep, outside its loop."""
    cluttered_f = render(scene, env.camera)
    single_f = render(derive_single_scene(scene, scene.target_index), env.camera)
    if occlusion_level(single_f, cluttered_f, scene.target_index, env.scheme).bin_index is not None:
        _complete(env, calls, rec, scene, cluttered_f)


def new_record(scene_id: str, digest: bool) -> SceneRecord:
    return SceneRecord(scene_id, hashlib.sha256() if digest else None)
