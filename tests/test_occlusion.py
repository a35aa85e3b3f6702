import dataclasses
import json

import numpy as np
import pytest

from occlugrasp.camera import BACKGROUND_ID, CameraModel, DepthFrame, default_camera, load_frame, render, save_frame
from occlugrasp.errors import InputError, MeasurementError
from occlugrasp.geometry import Pose
from occlugrasp.occlusion import (
    BinScheme,
    assign_bin,
    occlusion_level,
)
from occlugrasp.scenes import derive_single_scene, enumerate_targets

from . import corpus
from .corpus import box_instance, make_scene


def hand_built_pair(total=100, hidden=30):
    """Single frame with `total` target pixels; cluttered hides `hidden` of them."""
    cam = CameraModel(20, 20, 20.0, 20.0, 10.0, 10.0, Pose.identity())
    depth_s = np.zeros((20, 20), np.float32)
    inst_s = np.full((20, 20), BACKGROUND_ID, np.uint16)
    flat = np.arange(total)
    rows, cols = flat // 20, flat % 20
    depth_s[rows, cols] = 0.5
    inst_s[rows, cols] = 0
    depth_c = depth_s.copy()
    inst_c = inst_s.copy()
    inst_c[rows[:hidden], cols[:hidden]] = 1  # occluder owns these pixels
    depth_c[rows[:hidden], cols[:hidden]] = 0.3
    single = DepthFrame(depth_s, inst_s, cam)
    cluttered = DepthFrame(depth_c, inst_c, cam)
    return single, cluttered


class TestOcclusionLevel:
    def test_constructed_30_of_100(self):
        single, cluttered = hand_built_pair(100, 30)
        rec = occlusion_level(single, cluttered, target_index=0, scheme=BinScheme.test())
        assert rec.level == 0.300
        assert rec.visible_pixels == 70
        assert rec.total_pixels == 100

    def test_fully_hidden(self):
        single, cluttered = hand_built_pair(100, 100)
        rec = occlusion_level(single, cluttered, target_index=0, scheme=BinScheme.test())
        assert rec.level == 1.0
        assert rec.visible_pixels == 0

    def test_no_occluders_level_zero(self):
        for seed in range(5):
            scene = corpus.scene((1, 3), seed)
            cam = default_camera(width=160, height=120, focal=135.0)
            single_scene = derive_single_scene(scene, scene.target_index)
            single = render(single_scene, cam)
            rec = occlusion_level(single, render(single_scene, cam), target_index=0, scheme=BinScheme.test())
            assert rec.level == 0.0

    def test_rendered_two_box_counting_oracle(self):
        # occluder in front of the target; an independent pixel count must agree
        target = box_instance(0.06, 0.06, 0.1, 0.15, 0.2)
        occluder = box_instance(0.08, 0.04, 0.12, 0.15, 0.1)
        cluttered_scene = make_scene([target, occluder], target=0)
        cam = default_camera(width=160, height=120, focal=135.0)
        cluttered = render(cluttered_scene, cam)
        single = render(derive_single_scene(cluttered_scene, 0), cam)
        rec = occlusion_level(single, cluttered, target_index=0, scheme=BinScheme.test())
        total = int((single.instance_id == 0).sum())
        visible = int((cluttered.instance_id == 0).sum())
        assert rec.total_pixels == total
        assert rec.visible_pixels == visible
        assert rec.level == 1.0 - visible / total
        assert 0.0 < rec.level < 1.0

    def test_monotone_under_occluder_addition(self):
        cam = default_camera(width=160, height=120, focal=135.0)
        rng = np.random.default_rng(17)
        for _ in range(20):
            target = box_instance(0.05, 0.05, 0.1, 0.15, 0.2)
            occ1 = box_instance(0.05, 0.03, 0.11, float(rng.uniform(0.08, 0.22)), 0.12)
            occ2 = box_instance(0.06, 0.03, 0.13, float(rng.uniform(0.08, 0.22)), 0.07)
            base = make_scene([target, occ1], target=0)
            more = make_scene([target, occ1, occ2], target=0)
            single = render(derive_single_scene(base, 0), cam)
            lvl_base = occlusion_level(single, render(base, cam), 0, BinScheme.test()).level
            lvl_more = occlusion_level(single, render(more, cam), 0, BinScheme.test()).level
            assert lvl_more >= lvl_base

    def test_counts_are_ints_equal_to_the_summed_masks(self):
        # np.count_nonzero returns np.intp, which json.dumps refuses
        cam = default_camera(width=320, height=240, focal=270.0)
        scheme = BinScheme.test()
        targets = 0
        for seed in range(40):
            scene = corpus.dense_scene(seed)
            cluttered = render(scene, cam)
            for target in enumerate_targets(scene):
                single = render(derive_single_scene(target, target.target_index), cam)
                rec = occlusion_level(single, cluttered, target.target_index, scheme)
                assert type(rec.visible_pixels) is int and type(rec.total_pixels) is int
                assert rec.visible_pixels == int((cluttered.instance_id == target.target_index).sum())
                assert rec.total_pixels == int((single.instance_id == 0).sum())
                json.dumps([rec.level, rec.bin_index, rec.visible_pixels, rec.total_pixels])
                targets += 1
        assert targets >= 320

    def test_same_camera_object_needs_no_view_comparison(self):
        # the same camera object, and an equal copy of it, are both accepted
        single, cluttered = hand_built_pair(100, 30)
        assert occlusion_level(single, cluttered, 0, BinScheme.test()).visible_pixels == 70
        equal = dataclasses.replace(cluttered.camera)
        assert equal is not cluttered.camera
        copy = DepthFrame(cluttered.depth, cluttered.instance_id, equal)
        assert (occlusion_level(single, copy, 0, BinScheme.test())
                == occlusion_level(single, cluttered, 0, BinScheme.test()))

    @pytest.mark.parametrize("seed", range(4))
    def test_loaded_frame_pairs_with_its_rendered_twin(self, tmp_path, seed):
        # `load_frame` builds a new camera from the saved intrinsics and pose;
        # it equals the rendered frame's camera, so the pair is accepted
        scene = corpus.dense_scene(seed)
        cam = default_camera(width=160, height=120, focal=135.0, elevation_deg=30.0 + 10 * seed)
        cluttered = render(scene, cam)
        single = render(derive_single_scene(scene, scene.target_index), cam)
        save_frame(tmp_path, "cluttered", cluttered)
        save_frame(tmp_path, "single", single)
        loaded_cluttered, loaded_single = load_frame(tmp_path, "cluttered"), load_frame(tmp_path, "single")
        assert loaded_cluttered.camera is not cam and loaded_single.camera is not cam
        for scheme in (BinScheme.test(), BinScheme.training(), BinScheme.real_world()):
            rendered = occlusion_level(single, cluttered, scene.target_index, scheme)
            assert occlusion_level(single, loaded_cluttered, scene.target_index, scheme) == rendered
            assert occlusion_level(loaded_single, cluttered, scene.target_index, scheme) == rendered
            assert occlusion_level(loaded_single, loaded_cluttered, scene.target_index, scheme) == rendered

    def test_camera_mismatch_rejected(self):
        single, cluttered = hand_built_pair()
        other = CameraModel(20, 20, 25.0, 20.0, 10.0, 10.0, Pose.identity())
        moved = DepthFrame(cluttered.depth, cluttered.instance_id, other)
        with pytest.raises(InputError):
            occlusion_level(single, moved, 0, BinScheme.test())

    @pytest.mark.parametrize("target_index", [-1, 70000, BACKGROUND_ID, 2.5, "a", None, True])
    def test_target_index_must_be_an_instance_index(self, target_index):
        # each of these gave level 1.0 and no bin, except True, which counted instance 1
        single, cluttered = hand_built_pair(100, 30)
        with pytest.raises(InputError, match="target_index"):
            occlusion_level(single, cluttered, target_index, BinScheme.test())

    @pytest.mark.parametrize("frame", ["a", None, np.zeros((20, 20))])
    def test_frames_must_be_depth_frames(self, frame):
        # "a" raised a bare AttributeError: no attribute 'camera'
        single, cluttered = hand_built_pair(100, 30)
        with pytest.raises(InputError, match="single_frame"):
            occlusion_level(frame, cluttered, 0, BinScheme.test())
        with pytest.raises(InputError, match="cluttered_frame"):
            occlusion_level(single, frame, 0, BinScheme.test())

    def test_numpy_integer_target_index(self):
        single, cluttered = hand_built_pair(100, 30)
        assert (occlusion_level(single, cluttered, np.uint16(0), BinScheme.test())
                == occlusion_level(single, cluttered, 0, BinScheme.test()))
        assert occlusion_level(single, cluttered, np.int64(BACKGROUND_ID - 1), BinScheme.test()).visible_pixels == 0

    def test_target_absent_from_single(self):
        cam = CameraModel(20, 20, 20.0, 20.0, 10.0, 10.0, Pose.identity())
        empty = DepthFrame(np.zeros((20, 20), np.float32), np.full((20, 20), BACKGROUND_ID, np.uint16), cam)
        with pytest.raises(MeasurementError):
            occlusion_level(empty, empty, 0, BinScheme.test())


class TestBins:
    def test_test_scheme_has_nine_bins(self):
        assert len(BinScheme.test().edges) - 1 == 9

    def test_training_scheme_last_bin(self):
        s = BinScheme.training()
        assert len(s.edges) - 1 == 10
        assert s.edges[-2:] == (0.9, 0.95)

    def test_low_level(self):
        assert assign_bin(0.05, BinScheme.test()) == 0

    def test_out_of_range_flag(self):
        assert assign_bin(0.90, BinScheme.test()) is None
        assert assign_bin(0.95, BinScheme.test()) is None

    def test_real_world_medium(self):
        scheme = BinScheme.real_world()
        assert assign_bin(0.30, scheme) == 1  # Medium [0.3, 0.6)

    def test_level_outside_unit_interval(self):
        with pytest.raises(InputError):
            assign_bin(1.5, BinScheme.test())
        with pytest.raises(InputError):
            assign_bin(-0.1, BinScheme.test())

    @pytest.mark.parametrize("level", ["x", None, True, float("nan")])
    def test_level_must_be_a_number(self, level):
        # "x" and None raised a bare TypeError from the comparison
        with pytest.raises(InputError, match="occlusion level"):
            assign_bin(level, BinScheme.test())

    @pytest.mark.parametrize("scheme", ["x", None, 0.5, (0.0, 0.5, 1.0), BinScheme.test().edges])
    def test_scheme_must_be_a_bin_scheme(self, scheme):
        # "x" and None raised a bare AttributeError: no attribute 'edges'
        with pytest.raises(InputError, match="scheme"):
            assign_bin(0.5, scheme)
        single, cluttered = hand_built_pair(100, 30)
        with pytest.raises(InputError, match="scheme"):
            occlusion_level(single, cluttered, 0, scheme)
        # checked before the frames are measured: no MeasurementError for an absent target
        empty = DepthFrame(np.zeros((20, 20)), np.full((20, 20), BACKGROUND_ID), single.camera)
        with pytest.raises(InputError, match="scheme"):
            occlusion_level(empty, empty, 0, scheme)

    def test_partition_covers_and_is_disjoint(self):
        scheme = BinScheme.test()
        rng = np.random.default_rng(1)
        for level in rng.uniform(0, 0.9 - 1e-9, size=500):
            idx = assign_bin(float(level), scheme)
            assert idx is not None
            assert scheme.edges[idx] <= level < scheme.edges[idx + 1]

    def test_bad_edges(self):
        with pytest.raises(InputError):
            BinScheme((0.1, 0.5))
        with pytest.raises(InputError):
            BinScheme((0.0, 0.5, 0.5))
        with pytest.raises(InputError):
            BinScheme((0.0, 1.5))

    @pytest.mark.parametrize("edges", [(0.0, float("nan"), 1.0), (0.0, 0.5, float("nan")), (0.0, "0.5")])
    def test_edges_must_be_finite_numbers(self, edges):
        # every comparison with a NaN edge is False, so the order checks pass it
        with pytest.raises(InputError):
            BinScheme(edges)

