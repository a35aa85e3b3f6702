"""The shared corpus hands every test the inputs a fresh build gives, and
nothing a test reads from it can be changed."""

import numpy as np

from occlugrasp.camera import default_camera
from occlugrasp.grasping import GripperModel, sample_candidate_grasps
from occlugrasp.meshes import surface_sample
from occlugrasp.scenes import SceneConfig, generate_packed_scene

from . import corpus
from .test_camera import reference_rasterise, reference_render
from .test_grasping import reference_offenders
from .test_scenes import scene_key


def arrays(value, seen: set):
    """Every ndarray reachable from `value` through containers and the package's objects."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from arrays(item, seen)
    elif type(value).__module__.startswith("occlugrasp") and hasattr(value, "__dict__"):
        for item in vars(value).values():
            yield from arrays(item, seen)


def test_shared_inputs_are_read_only_and_equal_fresh_ones():
    configs = [(corpus.EPISODE_OBJECTS, 0), (corpus.DENSE_OBJECTS, 500), ((2, 2), 4), ((1, 1), 5)]
    scenes = [corpus.scene(count_range, seed) for count_range, seed in configs]
    for (count_range, seed), scene in zip(configs, scenes):
        assert scene_key(scene) == scene_key(generate_packed_scene(SceneConfig(object_count_range=count_range, seed=seed)))
    for inst in (inst for scene in scenes for inst in scene.instances):
        # fill the lazy arrays, so that the walk meets them too
        inst.world_aabb, inst.mesh.face_normals, inst.mesh.contact_samples
    cam = default_camera(width=160, height=120, focal=135.0)
    scene = scenes[1]
    frame = corpus.shared(reference_render)(scene, cam)
    layers = corpus.shared(reference_rasterise)(list(scene.instances), cam)
    cloud = surface_sample(scene.target.mesh, 256, seed=1).transformed(scene.target.pose)
    grasp = sample_candidate_grasps(cloud, GripperModel(), 1, seed=1)[0]
    offenders = corpus.shared(reference_offenders)(grasp, scene, GripperModel())
    found = list(arrays([scenes, corpus.catalog(), frame, layers, offenders], set()))
    named = [frame.depth, frame.instance_id, *(layer.t for layer in layers if layer is not None)]
    by_id = {obj.catalog_id: obj for obj in corpus.catalog()}
    for inst in scene.instances:
        named += [inst.mesh.vertices, inst.mesh.triangles, by_id[inst.catalog_id].footprint_poly, *inst.world_aabb]
    assert {id(a) for a in named} <= {id(a) for a in found}
    assert [a.shape for a in found if a.flags.writeable] == []
