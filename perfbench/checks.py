"""Correctness checks the benchmark runs on the program's outputs, outside scene time."""

from __future__ import annotations

import numpy as np

from occlugrasp.camera import BACKGROUND_ID, load_frame
from occlugrasp.grasping import read_labels_jsonl
from occlugrasp.meshes import ray_cast
from occlugrasp.scenes import load_scene, scene_to_manifest
from occlugrasp.tsdf import load_grid


def raycast_problems(camera, pixels, scene, ids, depths) -> list[str]:
    """Compare sampled pixels of a cluttered frame with `meshes.ray_cast` through their centres.

    The instance id must match; the depth (camera-frame z) must match the
    ray-cast hit to within one float32 step.
    """
    vs, us = pixels
    rot = camera.pose.rotation.as_matrix()
    mesh_set = scene.mesh_set()
    problems = []
    for v, u, iid, depth in zip(vs, us, ids, depths):
        ray = np.array([(u + 0.5 - camera.cx) / camera.fx, (v + 0.5 - camera.cy) / camera.fy, 1.0])
        norm = float(np.linalg.norm(ray))
        hit = ray_cast(mesh_set, camera.pose.translation, rot @ (ray / norm))
        if hit is None:
            ok = iid == BACKGROUND_ID and depth == 0.0
        else:
            z = np.float32(hit.distance / norm)
            ok = iid == hit.instance_index and abs(z - depth) <= np.spacing(depth)
        if not ok:
            problems.append(f"pixel ({u}, {v}): render gave id {iid} depth {depth}, ray cast gave {hit}")
    return problems


def roundtrip_problems(out, env, scene, frames: dict, grids: dict, label_records: list) -> list[str]:
    """Load back every file an episode scene wrote and compare it with what was saved."""
    problems = []
    for stem, frame in frames.items():
        back = load_frame(out, stem)
        if not (np.array_equal(back.depth, frame.depth) and np.array_equal(back.instance_id, frame.instance_id)
                and back.camera.same_view(frame.camera)):
            problems.append(f"frame {stem} does not load back equal")
    for stem, grid in grids.items():
        back = load_grid(out, stem)
        if not (np.array_equal(back.values, grid.values) and np.array_equal(back.weights, grid.weights)
                and back.config == grid.config):
            problems.append(f"grid {stem} does not load back equal")
    if read_labels_jsonl(out / "labels.jsonl") != label_records:
        problems.append("labels do not load back equal")
    back_scene = load_scene(out / "scene.json", env.catalog)
    if scene_to_manifest(back_scene, env.catalog_config) != scene_to_manifest(scene, env.catalog_config):
        problems.append("scene does not load back equal")
    return problems
