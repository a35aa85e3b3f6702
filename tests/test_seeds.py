"""Every entry point that draws random numbers takes a non-negative integer
seed, and raises `InputError` for any other."""

import numpy as np
import pytest

from occlugrasp.camera import CameraModel, DepthFrame, add_depth_noise
from occlugrasp.completion import completion_ground_truth
from occlugrasp.errors import InputError, _rng
from occlugrasp.grasping import GripperModel, label_pair, sample_candidate_grasps
from occlugrasp.meshes import make_box, surface_sample
from occlugrasp.scenes import CatalogConfig, Scene, SceneConfig, build_catalog, generate_packed_scene

from . import corpus

BOX = make_box(0.05, 0.04, 0.06)


def scene(seed=0) -> Scene:
    packed = corpus.scene((2, 2), 3)
    return Scene(packed.instances, packed.target_index, seed)


def frame() -> DepthFrame:
    camera = CameraModel(32, 24, 30.0, 30.0, 16.0, 12.0)
    return DepthFrame(np.full((24, 32), 0.5), np.zeros((24, 32)), camera)


ENTRY_POINTS = {
    "generate_packed_scene": lambda seed: generate_packed_scene(SceneConfig(seed=seed)),
    "build_catalog": lambda seed: build_catalog(CatalogConfig(seed=seed, size=4)),
    "surface_sample": lambda seed: surface_sample(BOX, 10, seed),
    "sample_candidate_grasps": lambda seed: sample_candidate_grasps(surface_sample(BOX, 64, 0), GripperModel(), 4, seed),
    "label_pair": lambda seed: label_pair(scene(), GripperModel(), 4, seed),
    "completion_ground_truth": lambda seed: completion_ground_truth(scene(seed)),
    "add_depth_noise": lambda seed: add_depth_noise(frame(), 0.001, seed),
    "add_depth_noise_sigma_0": lambda seed: add_depth_noise(frame(), 0.0, seed),
}


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1", None])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_seed_rejected(entry, seed):
    with pytest.raises(InputError, match="seed"):
        ENTRY_POINTS[entry](seed)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_numpy_integer_seed_accepted(entry):
    ENTRY_POINTS[entry](np.int64(5))


@pytest.mark.parametrize("seed, key", [(0, ()), (7, (1,)), (7, (1, 2)), (2**40, (2,))])
def test_streams_are_those_of_the_seed_sequence(seed, key):
    want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key)).random(8).tobytes()
    assert _rng(seed, *key).random(8).tobytes() == want
    assert _rng(np.int64(seed), *key).random(8).tobytes() == want
