"""The test inputs that more than one test reads, each built once per run.

Each cached function is a bounded `functools.lru_cache`: the first test that
asks builds, and the rest read the same immutable object. None may run while
what it calls is patched, so a test that patches placement or
`polygon_distance` reads the corpus first (the oracles keep their own chunk
size, so a patched `_CHUNK_PAIRS` leaves them alone); a test that observes a
slot or a `tracemalloc` peak builds its own input where sharing would change
what it sees.
- `catalog()`: the default catalog, the one `generate_packed_scene` places from.
- `scene(count_range, seed)`, with named sets that mirror `perfbench`'s `CORPUS`:
  `episode_scene`, 4-6 objects at `EPISODE_SEEDS` (0-15, `episode`'s 16), and
  `dense_scene`, 8-10 objects at `SWEEP_SEEDS` (0-39, `occlusion_sweep`'s 40;
  `grasp_clutter`'s 16 are 0-15), at 400-419 (the grasp oracle's cases) and at
  `RENDER_SEEDS` (500-509, the render cases); `generation_scenes()`, both
  counts at 0-199, the placements `tests/test_scenes.py` checks.
- `frame(count_range, seed)`: `render` of a corpus scene at the default
  640x480 camera, the cluttered frame the benchmark renders.
- `pair_labels(count_range, scene_seed, count, seed)`: `label_pair` of a corpus
  scene with the default gripper, for the tests that label one input twice.
- `clutter_cloud(seed)`: the mirror-completed target cloud of `dense_scene(seed)`
  at the default camera, the cloud `grasp_clutter` samples its candidates from.
  A cloud keeps the KD-tree of its first query, so a test that patches
  `cKDTree` queries a cloud of its own.
- `box_instance`, `mesh_instance`, `make_scene` and `with_normals` build new
  inputs by hand; `lone_box` and the full-screen triangles are the hand-made
  inputs that two tests read.
- `shared(oracle)`: `reference_render`, `reference_rasterise` or
  `reference_offenders` with each result kept, where two tests compare with it.
"""

import functools

import numpy as np

from occlugrasp.camera import DepthFrame, back_project, default_camera, render
from occlugrasp.completion import MirrorCompleter
from occlugrasp.geometry import PointCloud, Pose, quaternion_about_axis
from occlugrasp.grasping import GraspLabel, GripperModel, label_pair
from occlugrasp.meshes import TriMesh, make_box
from occlugrasp.scenes import CatalogConfig, ObjectInstance, Scene, SceneConfig, _shared_catalog, generate_packed_scene

EPISODE_OBJECTS, DENSE_OBJECTS = (4, 6), (8, 10)
EPISODE_SEEDS, SWEEP_SEEDS, RENDER_SEEDS, GENERATION_SEEDS = range(16), range(40), range(500, 510), range(200)


def catalog() -> tuple:
    return _shared_catalog(CatalogConfig())


@functools.lru_cache(maxsize=1024)  # more than the distinct scene configs the tests read
def scene(count_range: tuple[int, int], seed: int) -> Scene:
    return generate_packed_scene(SceneConfig(object_count_range=count_range, seed=seed))


def episode_scene(seed: int) -> Scene:
    return scene(EPISODE_OBJECTS, seed)


def dense_scene(seed: int) -> Scene:
    return scene(DENSE_OBJECTS, seed)


def generation_scenes() -> list[Scene]:
    return [scene(count_range, seed) for count_range in (EPISODE_OBJECTS, DENSE_OBJECTS) for seed in GENERATION_SEEDS]


@functools.lru_cache(maxsize=56)  # the episode and dense corpora, 1.8 MB each
def frame(count_range: tuple[int, int], seed: int) -> DepthFrame:
    return render(scene(count_range, seed), default_camera())


@functools.lru_cache(maxsize=64)  # more than the labelled inputs the tests share
def pair_labels(count_range: tuple[int, int], scene_seed: int, count: int, seed: int) -> tuple[GraspLabel, ...]:
    return tuple(label_pair(scene(count_range, scene_seed), GripperModel(), count, seed))


@functools.lru_cache(maxsize=16)  # the 16 scenes of `grasp_clutter`
def clutter_cloud(seed: int) -> PointCloud:
    target_scene = dense_scene(seed)
    partial = back_project(frame(DENSE_OBJECTS, seed), target_scene.target_index)
    return MirrorCompleter()(partial, target_scene, default_camera())


def box_instance(lx, ly, lz, x, y, yaw=0.0) -> ObjectInstance:
    mesh = make_box(lx, ly, lz)
    pose = Pose(quaternion_about_axis((0, 0, 1), yaw), np.array([x, y, 0.0]))
    return ObjectInstance(f"box_{lx}x{ly}", mesh, pose)


def mesh_instance(vertices, triangles) -> ObjectInstance:
    """Instance at the identity pose, so vertices are world coordinates."""
    return ObjectInstance("mesh", TriMesh(vertices, triangles), Pose.identity())


def make_scene(instances, target=0, seed=0) -> Scene:
    return Scene(tuple(instances), target, seed)


def with_normals(points) -> PointCloud:
    """A cloud of `points`, each with the unit normal +z, for code that reads only the points."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    return PointCloud(points, np.tile([0.0, 0.0, 1.0], (len(points), 1)))


@functools.lru_cache(maxsize=1)
def lone_box() -> Scene:
    """A 5 x 5 x 10 cm box alone at the middle of the workspace."""
    return make_scene([box_instance(0.05, 0.05, 0.1, 0.15, 0.15)])


# the image at 160x120 and 640x480 spans x in [-0.8, 0.8] and y in [-0.6, 0.6]
# at depth 1, and this triangle covers it, so every box row is a whole image row
FULL_SCREEN = ([[-4.0, -4.0, 1.0], [8.0, -4.0, 1.5], [-4.0, 8.0, 2.0]], [[0, 1, 2]])


@functools.lru_cache(maxsize=1)
def full_screen_instance() -> ObjectInstance:
    return mesh_instance(*FULL_SCREEN)


@functools.lru_cache(maxsize=1)
def full_screen_instances() -> tuple[ObjectInstance, ...]:
    """12 copies of `FULL_SCREEN`, each vertex scaled along its ray: the same pixels at other depths."""
    verts, tris = FULL_SCREEN
    scales = np.random.default_rng(3).uniform(0.5, 2.0, size=(12, 3, 1))
    return tuple(mesh_instance(np.asarray(verts) * scale, tris) for scale in scales)


class _Arg:
    """An oracle argument as a cache key: a scene by its instances' ids, target
    and seed, a list of instances by their ids, the rest by value. It holds the
    argument, so that no other object takes one of those ids while it is cached."""

    def __init__(self, value):
        if isinstance(value, list):
            value = list(value)  # a copy, which no caller can change
            self.key = tuple(map(id, value))
        elif isinstance(value, Scene):
            self.key = tuple(map(id, value.instances)), value.target_index, value.seed
        else:
            self.key = value
        self.value = value

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return self.key == other.key


@functools.lru_cache(maxsize=8192)  # more than the oracle results the tests share
def _result(oracle, *args: _Arg):
    return oracle(*(arg.value for arg in args))


def shared(oracle):
    """`oracle` with each input's result computed once per run."""
    return functools.wraps(oracle)(lambda *args: _result(oracle, *map(_Arg, args)))
