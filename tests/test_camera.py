import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from occlugrasp import camera as camera_module
from occlugrasp.camera import (
    BACKGROUND_ID,
    CAMERA_DISTANCE,
    CameraModel,
    DepthFrame,
    _BACK_FACE_TOL,
    _CHUNK_PAIRS,
    _Layer,
    _pixel_rays,
    add_depth_noise,
    back_project,
    default_camera,
    load_frame,
    look_at_pose,
    render,
    save_frame,
)
from occlugrasp.errors import InputError
from occlugrasp.geometry import PointCloud, Pose, Quaternion, quaternion_about_axis
from occlugrasp.meshes import TriMesh, make_box, ray_cast
from occlugrasp.scenes import ObjectInstance, Scene, SceneConfig, derive_single_scene, generate_packed_scene

from . import corpus
from .corpus import box_instance, dense_scene, make_scene, mesh_instance


class TestCameraModel:
    def test_invalid_intrinsics(self):
        with pytest.raises(InputError):
            CameraModel(fx=-1.0)
        with pytest.raises(InputError):
            CameraModel(cx=900.0)

    @pytest.mark.parametrize("focal", [{"fx": math.nan}, {"fy": math.nan}, {"fx": math.inf}, {"fy": 0.0}])
    def test_focal_lengths_finite_and_positive(self, focal):
        # NaN compares False with 0, so a test of `fx <= 0` alone passes it
        with pytest.raises(InputError, match="focal"):
            CameraModel(**focal)

    @pytest.mark.parametrize("size", [{"width": 32.5}, {"height": 480.0}, {"width": True}, {"height": 0},
                                      {"width": -640}, {"width": "640"}, {"height": None}])
    def test_width_and_height_positive_integers(self, size):
        with pytest.raises(InputError, match="positive integer"):
            CameraModel(**size)

    @pytest.mark.parametrize("point", [{"cx": "1"}, {"cy": "1"}, {"cx": True}, {"cy": False}, {"cx": math.nan},
                                       {"cy": None}])
    def test_principal_point_is_two_numbers(self, point):
        # "1" raised a bare TypeError from the comparison, and True was kept as the bool
        with pytest.raises(InputError, match="principal point"):
            CameraModel(**point)

    def test_numpy_integer_size_accepted(self):
        assert CameraModel(np.int64(640), np.int32(480)) == CameraModel()

    @pytest.mark.parametrize("pose", [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5], Quaternion.identity(), np.eye(4), "identity",
                                      None])
    def test_pose_must_be_a_pose(self, pose):
        # None gave the identity pose, the default's second form
        with pytest.raises(InputError, match="Pose"):
            CameraModel(pose=pose)

    @pytest.mark.parametrize("name, value", [("width", "a"), ("height", 480.5), ("focal", None), ("focal", -1.0),
                                             ("elevation_deg", "a"), ("elevation_deg", math.nan),
                                             ("elevation_deg", True)])
    def test_default_camera_arguments_are_numbers(self, name, value):
        # "a" raised a bare TypeError from the arithmetic before the camera checks
        with pytest.raises(InputError, match=name):
            default_camera(**{name: value})

    def test_default_camera_looks_at_the_workspace_centre(self):
        # the optical axis meets the vertical centre line of the workspace cube,
        # `CAMERA_DISTANCE` from the middle of its floor
        c = SceneConfig().workspace_extent / 2
        for elevation in (30.0, 45.0, 60.0):
            cam = default_camera(elevation_deg=elevation)
            on_axis = cam.pose.inverse().transform(np.array([c, c, 0.05]))
            assert np.allclose(on_axis[:2], 0.0, atol=1e-12) and on_axis[2] > 0
            assert math.isclose(np.linalg.norm(cam.pose.translation - [c, c, 0.0]), CAMERA_DISTANCE)

    def test_equality(self):
        assert default_camera() == default_camera()
        assert default_camera() != default_camera(width=320, height=240, focal=270.0)
        assert CameraModel() == CameraModel()

    def test_look_at_axes(self):
        pose = look_at_pose((0, -1, 0), (0, 0, 0))
        fwd = pose.rotation.rotate(np.array([0.0, 0.0, 1.0]))
        assert np.allclose(fwd, [0, 1, 0], atol=1e-12)
        down = pose.rotation.rotate(np.array([0.0, 1.0, 0.0]))
        assert np.allclose(down, [0, 0, -1], atol=1e-12)


class TestRender:
    def test_empty_scene_all_background(self):
        # a scene cannot be empty, so point the camera away from its objects
        scene = make_scene([box_instance(0.05, 0.05, 0.05, 0.15, 0.15)])
        cam = CameraModel(
            64, 48, 50.0, 50.0, 32.0, 24.0,
            look_at_pose((0.15, 0.15, 1.0), (0.15, 0.15, 2.0), up=(0.0, 1.0, 0.0)),
        )
        frame = render(scene, cam)
        assert (frame.instance_id == BACKGROUND_ID).all()
        assert (frame.depth == 0).all()

    def test_cube_on_axis_depth(self):
        # camera looks straight down at the top face of a cube
        scene = make_scene([box_instance(0.1, 0.1, 0.1, 0.15, 0.15)])
        eye = np.array([0.15, 0.15, 0.6])
        pose = look_at_pose(eye, (0.15, 0.15, 0.0), up=(0.0, 1.0, 0.0))
        cam = CameraModel(160, 120, 200.0, 200.0, 80.0, 60.0, pose)
        frame = render(scene, cam)
        hit = frame.instance_id == 0
        assert hit.any()
        # face at z=0.1 -> depth 0.5 under a straight-down view
        assert np.abs(frame.depth[hit] - 0.5).max() < 1e-6
        # contiguous block: bounding box of hits is fully hit
        vs, us = np.nonzero(hit)
        assert hit[vs.min() : vs.max() + 1, us.min() : us.max() + 1].all()

    def test_single_superset_of_cluttered_target_pixels(self):
        for seed in range(5):
            scene = corpus.scene((5, 6), seed)
            cam = default_camera(width=160, height=120, focal=135.0)
            cluttered = render(scene, cam)
            single = render(derive_single_scene(scene, scene.target_index), cam)
            vis_clut = cluttered.instance_id == scene.target_index
            vis_single = single.instance_id == 0
            assert (vis_clut & ~vis_single).sum() == 0

    @pytest.mark.parametrize("bad", ["x", None, 0.5])
    def test_scene_and_camera_must_be_a_scene_and_a_camera(self, bad):
        # "x" raised a bare AttributeError: no attribute 'instances', or 'height'
        scene = make_scene([box_instance(0.05, 0.05, 0.05, 0.15, 0.15)])
        cam = CameraModel(32, 24, 30.0, 30.0, 16.0, 12.0, Pose.identity())
        with pytest.raises(InputError, match="scene"):
            render(bad, cam)
        with pytest.raises(InputError, match="camera"):
            render(scene, bad)

    def test_deterministic(self):
        scene = corpus.scene((4, 4), 2)
        cam = default_camera(width=160, height=120, focal=135.0)
        a = render(scene, cam)
        b = render(scene, cam)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.instance_id, b.instance_id)


class TestNoise:
    def frame(self):
        scene = corpus.scene((5, 5), 4)
        return render(scene, default_camera(width=320, height=240, focal=270.0))

    def test_sigma_zero_identity(self):
        f = self.frame()
        g = add_depth_noise(f, 0.0, seed=1)
        assert np.array_equal(f.depth, g.depth)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InputError):
            add_depth_noise(self.frame(), -0.1, seed=1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), "0.1", None])
    def test_sigma_not_finite_rejected(self, sigma):
        with pytest.raises(InputError):
            add_depth_noise(self.frame(), sigma, seed=1)

    @pytest.mark.parametrize("frame", ["f", None, np.zeros((24, 32))])
    def test_frame_must_be_a_depth_frame(self, frame):
        # "f" raised a bare AttributeError: no attribute 'depth'
        with pytest.raises(InputError, match="frame"):
            add_depth_noise(frame, 0.1, seed=1)

    def test_background_untouched(self):
        f = self.frame()
        g = add_depth_noise(f, 0.005, seed=2)
        bg = ~f.valid
        assert (g.depth[bg] == 0).all()
        assert np.array_equal(f.instance_id, g.instance_id)

    def test_statistics(self):
        # large synthetic frame: 10^6 valid pixels at depth 0.5
        depth = np.full((1000, 1000), 0.5, dtype=np.float32)
        inst = np.zeros((1000, 1000), dtype=np.uint16)
        cam = CameraModel(1000, 1000, 500.0, 500.0, 500.0, 500.0, Pose.identity())
        f = DepthFrame(depth, inst, cam)
        sigma = 0.002
        g = add_depth_noise(f, sigma, seed=3)
        pert = (g.depth - f.depth).astype(np.float64).ravel()
        n = pert.size
        assert abs(pert.mean()) < 3 * sigma / np.sqrt(n)
        assert abs(pert.std() - sigma) < 0.02 * sigma

    def test_variance_layering(self):
        depth = np.full((600, 600), 0.5, dtype=np.float32)
        inst = np.zeros((600, 600), dtype=np.uint16)
        cam = CameraModel(600, 600, 500.0, 500.0, 300.0, 300.0, Pose.identity())
        f = DepthFrame(depth, inst, cam)
        g = add_depth_noise(add_depth_noise(f, 0.002, seed=5), 0.005, seed=6)
        pert = (g.depth - f.depth).astype(np.float64).ravel()
        expected = np.sqrt(0.002**2 + 0.005**2)
        assert abs(pert.std() - expected) < 0.02 * expected

    def test_deterministic_for_seed(self):
        f = self.frame()
        a = add_depth_noise(f, 0.002, seed=9)
        b = add_depth_noise(f, 0.002, seed=9)
        assert np.array_equal(a.depth, b.depth)


class TestDepthFrame:
    @pytest.mark.parametrize("depth_shape, inst_shape", [((24, 31), (24, 32)), ((24, 32), (32, 24)), ((768,), (24, 32))])
    def test_shape_must_match_the_camera(self, depth_shape, inst_shape):
        cam = CameraModel(32, 24, 30.0, 30.0, 16.0, 12.0, Pose.identity())
        with pytest.raises(InputError):
            DepthFrame(np.zeros(depth_shape, np.float32), np.zeros(inst_shape, np.uint16), cam)


class TestBackProject:
    def test_empty_frame(self):
        cam = CameraModel(32, 24, 30.0, 30.0, 16.0, 12.0, Pose.identity())
        f = DepthFrame(np.zeros((24, 32), np.float32), np.full((24, 32), BACKGROUND_ID, np.uint16), cam)
        assert len(back_project(f, 0)) == 0

    def test_instance_filter(self):
        scene = corpus.scene((5, 5), 7)
        cam = default_camera(width=160, height=120, focal=135.0)
        frame = render(scene, cam)
        t = scene.target_index
        cloud = back_project(frame, t)
        assert len(cloud) == int((frame.instance_id == t).sum())

    @staticmethod
    def one_instance_frame() -> DepthFrame:
        """A 32x24 frame with 128 pixels of instance 1 and background elsewhere."""
        cam = CameraModel(32, 24, 30.0, 30.0, 16.0, 12.0, Pose.identity())
        inst = np.full((24, 32), BACKGROUND_ID, np.uint16)
        inst[8:16, 8:24] = 1
        return DepthFrame(np.where(inst == 1, 0.5, 0.0).astype(np.float32), inst, cam)

    @pytest.mark.parametrize("instance_filter", [-1, 70000, BACKGROUND_ID, 2.5, "a", True])
    def test_instance_filter_must_be_an_instance_index(self, instance_filter):
        # each of these gave an empty cloud, except BACKGROUND_ID, which raised
        # "normals contain NaN/Inf", and True, which kept instance 1
        f = self.one_instance_frame()
        with pytest.raises(InputError, match="instance_filter"):
            back_project(f, instance_filter)

    @pytest.mark.parametrize("frame", ["frame", None, np.zeros((24, 32))])
    def test_frame_must_be_a_depth_frame(self, frame):
        # "frame" raised a bare AttributeError: no attribute 'instance_id'
        with pytest.raises(InputError, match="frame"):
            back_project(frame, 0)

    def test_numpy_integer_instance_filter(self):
        f = self.one_instance_frame()
        assert_same_cloud(back_project(f, np.uint16(1)), back_project(f, 1))
        assert len(back_project(f, 1)) == 128

    def test_reprojection_round_trip(self):
        max_err = 0.0
        for seed in range(10):
            scene = corpus.scene((4, 6), 30 + seed)
            cam = default_camera(width=160, height=120, focal=135.0)
            frame = render(scene, cam)
            inv = cam.pose.inverse()
            for i in np.unique(frame.instance_id[frame.valid]):  # every valid pixel, one instance at a time
                pts_cam = inv.transform(back_project(frame, i).points)
                z = pts_cam[:, 2]
                u = pts_cam[:, 0] / z * cam.fx + cam.cx
                v = pts_cam[:, 1] / z * cam.fy + cam.cy
                vs, us = np.nonzero(frame.instance_id == i)
                order_uv = np.stack([np.floor(u), np.floor(v)], axis=1)
                expect_uv = np.stack([us, vs], axis=1)
                assert np.array_equal(order_uv.astype(int), expect_uv)
                max_err = max(max_err, np.abs(z - frame.depth[vs, us]).max())
        assert max_err < 1e-6

    def test_normals_point_at_camera(self):
        scene = corpus.scene((3, 3), 1)
        cam = default_camera(width=160, height=120, focal=135.0)
        frame = render(scene, cam)
        clouds = [back_project(frame, i) for i in range(len(scene.instances))]
        to_cam = cam.pose.translation - np.concatenate([c.points for c in clouds])
        dots = np.einsum("ij,ij->i", np.concatenate([c.normals for c in clouds]), to_cam)
        assert (dots > 0).mean() > 0.99


class TestPersistence:
    @pytest.mark.parametrize("frame", ["f", None, np.zeros((24, 32))])
    def test_save_needs_a_depth_frame(self, frame, tmp_path):
        # "f" raised a bare AttributeError: no attribute 'camera'
        with pytest.raises(InputError, match="frame"):
            save_frame(tmp_path, "x", frame)
        assert not list(tmp_path.iterdir())

    def test_round_trip(self, tmp_path):
        scene = corpus.scene((4, 4), 12)
        cam = default_camera(width=160, height=120, focal=135.0)
        frame = render(scene, cam)
        save_frame(tmp_path, "cluttered", frame)
        loaded = load_frame(tmp_path, "cluttered")
        assert np.array_equal(frame.depth, loaded.depth)
        assert np.array_equal(frame.instance_id, loaded.instance_id)
        assert frame.camera.same_view(loaded.camera)

    def test_round_trip_camera_equal(self, tmp_path):
        # the stored pose has the canonical quaternion sign; default_camera's has w < 0
        frame = render(corpus.episode_scene(1), default_camera())
        assert frame.camera.pose.rotation.w < 0
        save_frame(tmp_path, "cluttered", frame)
        assert load_frame(tmp_path, "cluttered").camera == frame.camera

    def test_cameras_hashable(self, tmp_path):
        cam = default_camera()
        save_frame(tmp_path, "empty", DepthFrame(np.zeros((cam.height, cam.width)),
                                                 np.zeros((cam.height, cam.width)), cam))
        loaded = load_frame(tmp_path, "empty").camera
        assert loaded.pose.rotation != cam.pose.rotation
        assert hash(loaded) == hash(cam)
        assert len({default_camera(), loaded}) == 1

    def test_missing_array_rejected(self, tmp_path):
        cam = CameraModel(32, 24, 30.0, 30.0, 16.0, 12.0, Pose.identity())
        np.savez(tmp_path / "frame.frame.npz", depth=np.zeros((24, 32), np.float32),
                 instance_id=np.zeros((24, 32), np.uint16), intrinsics=np.array([32, 24, 30.0, 30.0, 16.0, 12.0]))
        with pytest.raises(InputError, match="pose"):
            load_frame(tmp_path, "frame")
        save_frame(tmp_path, "whole", DepthFrame(np.zeros((24, 32)), np.zeros((24, 32)), cam))
        assert load_frame(tmp_path, "whole").camera.same_view(cam)

    def test_non_finite_pose_rotation_rejected(self, tmp_path):
        np.savez(tmp_path / "frame.frame.npz", depth=np.zeros((24, 32), np.float32),
                 instance_id=np.zeros((24, 32), np.uint16), intrinsics=np.array([32, 24, 30.0, 30.0, 16.0, 12.0]),
                 pose=np.array([np.nan, 0.0, 0.0, 1.0, 0.0, 0.0, 0.5]))
        with pytest.raises(InputError, match="finite"):
            load_frame(tmp_path, "frame")

    @staticmethod
    def save_arrays(tmp_path, intrinsics=(32, 24, 30.0, 30.0, 16.0, 12.0), pose=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5)):
        np.savez(tmp_path / "frame.frame.npz", depth=np.zeros((24, 32), np.float32),
                 instance_id=np.zeros((24, 32), np.uint16), intrinsics=np.array(intrinsics), pose=np.array(pose))

    def test_arrays_of_the_written_shapes_load(self, tmp_path):
        self.save_arrays(tmp_path)
        assert load_frame(tmp_path, "frame").camera == CameraModel(32, 24, 30.0, 30.0, 16.0, 12.0,
                                                                   Pose(Quaternion.identity(), [0.0, 0.0, 0.5]))

    def test_non_finite_pose_translation_rejected(self, tmp_path):
        self.save_arrays(tmp_path, pose=(1.0, 0.0, 0.0, 0.0, np.nan, 0.1, 0.0))
        with pytest.raises(InputError, match="finite"):
            load_frame(tmp_path, "frame")

    def test_pose_of_six_numbers_rejected(self, tmp_path):
        self.save_arrays(tmp_path, pose=(1.0, 0.0, 0.0, 0.0, 0.0, 0.5))
        with pytest.raises(InputError, match="7 floats"):
            load_frame(tmp_path, "frame")

    def test_intrinsics_of_five_numbers_rejected(self, tmp_path):
        self.save_arrays(tmp_path, intrinsics=(32, 24, 30.0, 30.0, 16.0))
        with pytest.raises(InputError, match="intrinsics"):
            load_frame(tmp_path, "frame")

    @pytest.mark.parametrize("key, strings", [("intrinsics", ["1"] * 6), ("pose", ["1"] * 7)])
    def test_array_of_strings_rejected(self, tmp_path, key, strings):
        self.save_arrays(tmp_path, **{key: strings})
        with pytest.raises(InputError, match=f"{key} must hold numbers"):
            load_frame(tmp_path, "frame")

    @pytest.mark.parametrize("intrinsics", [(32.5, 24, 30.0, 30.0, 16.0, 12.0), (32, 24.25, 30.0, 30.0, 16.0, 12.0)])
    def test_fractional_width_or_height_rejected(self, tmp_path, intrinsics):
        # int() would truncate 32.5 to a 32-pixel camera that matches the arrays
        self.save_arrays(tmp_path, intrinsics=intrinsics)
        with pytest.raises(InputError, match="whole numbers"):
            load_frame(tmp_path, "frame")

    def test_nan_focal_length_rejected(self, tmp_path):
        self.save_arrays(tmp_path, intrinsics=(32, 24, np.nan, 30.0, 16.0, 12.0))
        with pytest.raises(InputError, match="finite"):
            load_frame(tmp_path, "frame")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_saved_depth_not_finite_or_negative_rejected(self, tmp_path, bad):
        # an all-NaN depth loaded without complaint, and `fuse` of it gave a grid of mostly NaN voxels
        cam = CameraModel(32, 24, 30.0, 30.0, 16.0, 12.0, Pose.identity())
        save_frame(tmp_path, "frame", DepthFrame(np.full((24, 32), bad), np.zeros((24, 32)), cam))
        with pytest.raises(InputError, match="depth must be finite and >= 0"):
            load_frame(tmp_path, "frame")

    def test_not_an_npz_archive_rejected(self, tmp_path):
        (tmp_path / "frame.frame.npz").write_text('{"width": 32}')
        with pytest.raises(InputError):
            load_frame(tmp_path, "frame")
        np.save(tmp_path / "array.frame.npz", np.zeros((24, 32)), allow_pickle=False)
        (tmp_path / "array.frame.npz.npy").rename(tmp_path / "array.frame.npz")
        with pytest.raises(InputError):
            load_frame(tmp_path, "array")


# ---------------------------------------------------------------------------
# reference oracles: the per-triangle render loop and the full-image
# back-projection that `render` and `back_project` replaced, and the
# rasteriser that evaluated every pixel of a triangle's box, one batch
# element per box row (its chunk size is its own, fixed at import); and
# `back_project` on the mask's bounding box and the z-buffer compose of one
# layer, which the code on the mask's own pixels and the one-layer copy replaced


def reference_render(scene: Scene, camera: CameraModel) -> DepthFrame:
    h, w = camera.height, camera.width
    zbuf = np.full((h, w), np.inf, dtype=np.float64)
    inst = np.full((h, w), BACKGROUND_ID, dtype=np.uint16)
    world_to_cam = camera.pose.inverse()
    rot = world_to_cam.rotation.as_matrix()
    trans = world_to_cam.translation
    fx, fy, cx, cy = camera.fx, camera.fy, camera.cx, camera.cy
    for index, instance in enumerate(scene.instances):
        verts_cam = instance.pose.transform(instance.mesh.vertices) @ rot.T + trans
        tris = instance.mesh.triangles
        tv = verts_cam[tris]  # (m, 3, 3)
        # skip triangles touching or behind the camera plane
        front = tv[:, :, 2].min(axis=1) > 1e-6
        if not front.any():
            continue
        tv = tv[front]
        u = tv[:, :, 0] / tv[:, :, 2] * fx + cx
        v = tv[:, :, 1] / tv[:, :, 2] * fy + cy
        u0 = np.maximum(np.ceil(u.min(axis=1) - 0.5), 0).astype(int)
        u1 = np.minimum(np.floor(u.max(axis=1) - 0.5), w - 1).astype(int)
        v0 = np.maximum(np.ceil(v.min(axis=1) - 0.5), 0).astype(int)
        v1 = np.minimum(np.floor(v.max(axis=1) - 0.5), h - 1).astype(int)
        keep = (u1 >= u0) & (v1 >= v0)
        for a, b, c, iu0, iu1, iv0, iv1 in zip(
            tv[keep, 0], tv[keep, 1], tv[keep, 2], u0[keep], u1[keep], v0[keep], v1[keep]
        ):
            px = np.arange(iu0, iu1 + 1)
            py = np.arange(iv0, iv1 + 1)
            # pixel-center rays in camera frame, z component 1 => t equals depth
            dx = (px + 0.5 - cx) / fx
            dy = (py + 0.5 - cy) / fy
            dirs = np.empty((len(py), len(px), 3))
            dirs[:, :, 0] = dx[None, :]
            dirs[:, :, 1] = dy[:, None]
            dirs[:, :, 2] = 1.0
            e1 = b - a
            e2 = c - a
            pvec = np.cross(dirs, e2)
            det = pvec @ e1
            ok = np.abs(det) > 1e-14
            inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
            s = -a  # ray origin is the camera center
            uu = (pvec @ s) * inv_det
            qvec = np.cross(s, e1)
            vv = (dirs @ qvec) * inv_det
            t = float(e2 @ qvec) * inv_det
            hit = ok & (uu >= -1e-12) & (vv >= -1e-12) & (uu + vv <= 1 + 1e-12) & (t > 1e-9)
            if not hit.any():
                continue
            sub = zbuf[iv0 : iv1 + 1, iu0 : iu1 + 1]
            better = hit & (t < sub)
            sub[better] = t[better]
            inst[iv0 : iv1 + 1, iu0 : iu1 + 1][better] = index
    depth = np.where(np.isfinite(zbuf), zbuf, 0.0).astype(np.float32)
    return DepthFrame(depth, inst, camera)


def reference_rasterise(instances: list[ObjectInstance], camera: CameraModel) -> list[_Layer | None]:
    """The depth layer of each instance; None where every pixel box is empty."""
    h, w = camera.height, camera.width
    world_to_cam = camera.pose.inverse()
    rot = world_to_cam.rotation.as_matrix()
    trans = world_to_cam.translation
    fx, fy, cx, cy = camera.fx, camera.fy, camera.cx, camera.cy
    boxes, parts = [], []
    for instance in instances:
        mesh = instance.mesh
        verts_cam = instance.pose.transform(mesh.vertices) @ rot.T + trans
        tv = verts_cam[mesh.triangles]  # (m, 3, 3)
        # skip triangles touching or behind the camera plane
        tv = tv[tv[:, :, 2].min(axis=1) > 1e-6]
        if mesh.is_closed_outward and verts_cam[:, 2].min() > 1e-6:
            # the camera is outside the closed mesh: skip its back faces
            a = tv[:, 0]
            n = np.cross(tv[:, 1] - a, tv[:, 2] - a)
            tol = _BACK_FACE_TOL * np.linalg.norm(n, axis=1) * np.linalg.norm(a, axis=1)
            tv = tv[np.einsum("ij,ij->i", n, a) <= tol]
        u = tv[:, :, 0] / tv[:, :, 2] * fx + cx
        v = tv[:, :, 1] / tv[:, :, 2] * fy + cy
        u0 = np.maximum(np.ceil(u.min(axis=1) - 0.5), 0).astype(int)
        u1 = np.minimum(np.floor(u.max(axis=1) - 0.5), w - 1).astype(int)
        v0 = np.maximum(np.ceil(v.min(axis=1) - 0.5), 0).astype(int)
        v1 = np.minimum(np.floor(v.max(axis=1) - 0.5), h - 1).astype(int)
        keep = (u1 >= u0) & (v1 >= v0)
        if not keep.any():
            boxes.append(None)
            continue
        u0, u1, v0, v1 = u0[keep], u1[keep], v0[keep], v1[keep]
        row, col = int(v0.min()), int(u0.min())
        boxes.append((row, col, int(v1.max()) + 1 - row, int(u1.max()) + 1 - col))
        parts.append((tv[keep], u0, u1, v0, v1))
    drawn = [box for box in boxes if box is not None]
    if not drawn:
        return [None] * len(instances)
    # all layers are blocks of one flat z-buffer: pixel (py, px) of a
    # triangle's layer is element base + py * stride + px
    sizes = [rows * cols for _, _, rows, cols in drawn]
    starts = np.cumsum(sizes) - sizes
    counts = [len(part[0]) for part in parts]
    base = np.repeat([s - row * cols - col for s, (row, col, _, cols) in zip(starts, drawn)], counts)
    stride = np.repeat([cols for _, _, _, cols in drawn], counts)
    tv, u0, u1, v0, v1 = (np.concatenate(arrays) for arrays in zip(*parts))
    zbuf = np.full(sum(sizes), np.inf)
    widths = u1 - u0 + 1
    heights = v1 - v0 + 1
    a = tv[:, 0]
    e1 = tv[:, 1] - a
    e2 = tv[:, 2] - a
    s = -a  # ray origin is the camera center
    qvec = np.cross(s, e1)
    t_num = np.matmul(e2[:, None, :], qvec[:, :, None])[:, 0, 0]
    # pixel-center rays in camera frame, z component 1 => t equals depth
    dx, dy = _pixel_rays(camera, np.arange(w), np.arange(h))

    # one segment per box row, grouped by width, triangle order kept inside a group
    order = np.argsort(widths, kind="stable")
    seg_tri = np.repeat(order, heights[order])
    first_row = np.cumsum(heights[order]) - heights[order]
    seg_row = np.arange(len(seg_tri)) - np.repeat(first_row, heights[order]) + v0[seg_tri]
    seg_base = base[seg_tri] + seg_row * stride[seg_tri]
    seg_width = widths[seg_tri]
    bounds = np.flatnonzero(np.diff(seg_width)) + 1
    for g0, g1 in zip(np.r_[0, bounds], np.r_[bounds, len(seg_tri)]):
        n = int(seg_width[g0])
        step = max(1, _CHUNK_PAIRS // n)
        for c0 in range(g0, g1, step):
            c1 = min(c0 + step, g1)
            tri, py = seg_tri[c0:c1], seg_row[c0:c1]
            px = u0[tri][:, None] + np.arange(n)
            dirs = np.empty((len(tri), n, 3))
            dirs[:, :, 0] = dx[px]
            dirs[:, :, 1] = dy[py][:, None]
            dirs[:, :, 2] = 1.0
            # np.cross(dirs, e2) term by term; the factors 1.0 are exact
            e2x, e2y, e2z = e2[tri].T[:, :, None]
            pvec = np.empty_like(dirs)
            pvec[:, :, 0] = dirs[:, :, 1] * e2z - e2y
            pvec[:, :, 1] = e2x - dirs[:, :, 0] * e2z
            pvec[:, :, 2] = dirs[:, :, 0] * e2y - dirs[:, :, 1] * e2x
            det = np.matmul(pvec, e1[tri][:, :, None])[:, :, 0]
            ok = np.abs(det) > 1e-14
            inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
            uu = np.matmul(pvec, s[tri][:, :, None])[:, :, 0] * inv_det
            vv = np.matmul(dirs, qvec[tri][:, :, None])[:, :, 0] * inv_det
            t = t_num[tri][:, None] * inv_det
            hit = ok & (uu >= -1e-12) & (vv >= -1e-12) & (uu + vv <= 1 + 1e-12) & (t > 1e-9)
            rows, cols = np.nonzero(hit)
            if len(rows):
                np.minimum.at(zbuf, seg_base[c0:c1][rows] + px[rows, cols], t[rows, cols])

    layers, blocks = [], iter(np.split(zbuf, starts[1:]))
    for box in boxes:
        if box is None:
            layers.append(None)
            continue
        row, col, rows, cols = box
        t = next(blocks).reshape(rows, cols).copy()  # its own buffer, freed with the layer
        t.flags.writeable = False
        layers.append(_Layer(row, col, t))
    return layers


def reference_back_project(frame: DepthFrame, instance_filter: int):
    cam = frame.camera
    mask = frame.instance_id == instance_filter
    if not mask.any():
        return PointCloud.empty()
    h, w = frame.depth.shape
    vs_all, us_all = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    z = frame.depth.astype(np.float64)
    dx = (us_all + 0.5 - cam.cx) / cam.fx
    dy = (vs_all + 0.5 - cam.cy) / cam.fy
    pts_cam = np.stack([dx * z, dy * z, z], axis=-1)

    rot = cam.pose.rotation.as_matrix()
    pts_world = pts_cam @ rot.T + cam.pose.translation
    du = np.zeros_like(pts_cam)
    dv = np.zeros_like(pts_cam)
    same_u = np.zeros((h, w), dtype=bool)
    same_v = np.zeros((h, w), dtype=bool)
    inst = frame.instance_id
    same_u[:, :-1] = (inst[:, :-1] == inst[:, 1:]) & mask[:, :-1] & mask[:, 1:]
    same_v[:-1, :] = (inst[:-1, :] == inst[1:, :]) & mask[:-1, :] & mask[1:, :]
    du[:, :-1][same_u[:, :-1]] = (pts_cam[:, 1:] - pts_cam[:, :-1])[same_u[:, :-1]]
    dv[:-1, :][same_v[:-1, :]] = (pts_cam[1:, :] - pts_cam[:-1, :])[same_v[:-1, :]]
    n_cam = np.cross(du, dv)
    lens = np.linalg.norm(n_cam, axis=-1)
    good = lens > 1e-12
    n_cam[good] /= lens[good][..., None]
    flip = np.einsum("hwc,hwc->hw", n_cam, pts_cam) > 0
    n_cam[flip] *= -1.0
    view = pts_cam / np.maximum(np.linalg.norm(pts_cam, axis=-1), 1e-12)[..., None]
    n_cam[~good] = -view[~good]
    n_world = n_cam @ rot.T
    n_sel = n_world[mask]
    n_sel /= np.linalg.norm(n_sel, axis=1)[:, None]
    return PointCloud(pts_world[mask], n_sel)


def reference_masked_points(frame: DepthFrame, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_masked_points` as it was on the mask's bounding box: the world points
    and the world normals, not yet unit, of the pixels of `mask`."""
    cam = frame.camera
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    mask = mask[box]
    vs_all, us_all = np.mgrid[box]
    z = frame.depth[box].astype(np.float64)
    dx, dy = _pixel_rays(cam, us_all, vs_all)
    pts_cam = np.stack([dx * z, dy * z, z], axis=-1)

    rot = cam.pose.rotation.as_matrix()
    pts_world = pts_cam @ rot.T + cam.pose.translation
    du = np.zeros_like(pts_cam)
    dv = np.zeros_like(pts_cam)
    same_u = mask[:, :-1] & mask[:, 1:]
    same_v = mask[:-1, :] & mask[1:, :]
    du[:, :-1][same_u] = (pts_cam[:, 1:] - pts_cam[:, :-1])[same_u]
    dv[:-1, :][same_v] = (pts_cam[1:, :] - pts_cam[:-1, :])[same_v]
    n_cam = np.cross(du, dv)
    lens = np.linalg.norm(n_cam, axis=-1)
    good = lens > 1e-12
    n_cam[good] /= lens[good][..., None]
    flip = np.einsum("hwc,hwc->hw", n_cam, pts_cam) > 0
    n_cam[flip] *= -1.0
    view = pts_cam / np.maximum(np.linalg.norm(pts_cam, axis=-1), 1e-12)[..., None]
    n_cam[~good] = -view[~good]
    return pts_world[mask], (n_cam @ rot.T)[mask]


def reference_box_back_project(frame: DepthFrame, instance_filter: int) -> PointCloud:
    """`back_project` as it was, over `reference_masked_points`."""
    mask = frame.instance_id == instance_filter
    if not mask.any():
        return PointCloud.empty()
    points, normals = reference_masked_points(frame, mask)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return PointCloud(points, normals)


def reference_frame_from_layers(layers: list[_Layer | None], camera: CameraModel) -> DepthFrame:
    """`_frame_from_layers` as it was: every frame through a z-buffer, one layer too."""
    depth = np.zeros((camera.height, camera.width), dtype=np.float32)
    inst = np.full((camera.height, camera.width), BACKGROUND_ID, dtype=np.uint16)
    drawn = [(index, layer) for index, layer in enumerate(layers) if layer is not None]
    if not drawn:
        return DepthFrame(depth, inst, camera)
    r0 = min(layer.row for _, layer in drawn)
    c0 = min(layer.col for _, layer in drawn)
    r1 = max(layer.row + layer.t.shape[0] for _, layer in drawn)
    c1 = max(layer.col + layer.t.shape[1] for _, layer in drawn)
    zbuf = np.full((r1 - r0, c1 - c0), np.inf)
    ids = inst[r0:r1, c0:c1]
    for index, layer in drawn:
        rows, cols = layer.t.shape
        box = (slice(layer.row - r0, layer.row - r0 + rows), slice(layer.col - c0, layer.col - c0 + cols))
        nearer = layer.t < zbuf[box]
        np.copyto(zbuf[box], layer.t, where=nearer)
        np.copyto(ids[box], index, where=nearer)
    np.copyto(depth[r0:r1, c0:c1], zbuf, where=np.isfinite(zbuf))
    return DepthFrame(depth, inst, camera)


def assert_same_frame(got: DepthFrame, want: DepthFrame):
    assert got.depth.tobytes() == want.depth.tobytes()
    assert got.instance_id.tobytes() == want.instance_id.tobytes()


def assert_same_cloud(got: PointCloud, want: PointCloud):
    assert got.points.tobytes() == want.points.tobytes()
    assert (got.normals is None) == (want.normals is None)
    if want.normals is not None:
        assert got.normals.tobytes() == want.normals.tobytes()


# results that two tests compare with: the frames of the dense render cases
# at 160x120, and the layers of the chunk-size cases and of the scenes that
# `TestRasteriseMemory` traces
shared_render = corpus.shared(reference_render)
shared_rasterise = corpus.shared(reference_rasterise)


def scene_and_singles(scene: Scene) -> list[Scene]:
    return [scene] + [derive_single_scene(scene, i) for i in range(len(scene.instances))]


# camera at the world origin looking along +z, +x right, +y down
AXIS_CAMERA = CameraModel(160, 120, 100.0, 100.0, 80.0, 60.0, Pose.identity())


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of 7 pairs: most rows fill a chunk alone, so chunks split triangles."""
    monkeypatch.setattr(camera_module, "_CHUNK_PAIRS", 7)


class TestRenderMatchesReference:
    @pytest.mark.parametrize("seed", range(10))
    def test_dense_scene_split_chunks(self, seed, monkeypatch):
        # 61 pairs hold a few rows of a box at 160x120, so chunks split most
        # triangles; 7 pairs would make these scenes about five times slower
        monkeypatch.setattr(camera_module, "_CHUNK_PAIRS", 61)
        cam = default_camera(width=160, height=120, focal=135.0)
        for scene in scene_and_singles(dense_scene(500 + seed)):
            assert_same_frame(render(scene, cam), shared_render(scene, cam))

    def test_full_resolution(self):
        cam = default_camera()
        for scene in scene_and_singles(dense_scene(500))[:4]:
            assert_same_frame(render(scene, cam), reference_render(scene, cam))

    def test_triangle_straddling_camera_plane(self, small_chunks):
        # the first triangle crosses z = 0; the second starts just in front of
        # the camera plane, so its projected box covers the whole image
        verts = [[-0.1, 0.0, -0.2], [0.1, 0.05, 0.5], [0.0, -0.1, 0.5],
                 [-0.02, -0.01, 2e-6], [0.3, 0.2, 0.6], [-0.2, 0.25, 0.7]]
        scene = make_scene([mesh_instance(verts, [[0, 1, 2], [3, 4, 5]])])
        frame = render(scene, AXIS_CAMERA)
        assert frame.valid.any()
        assert_same_frame(frame, reference_render(scene, AXIS_CAMERA))
        rasterise_both(scene.instances, AXIS_CAMERA)

    def test_offscreen_and_border_triangles(self, small_chunks):
        # at depth 1, x = +-0.8 and y = +-0.6 are the image borders
        tris = [
            [[-2.0, 0.0, 1.0], [-1.5, 0.1, 1.0], [-1.8, -0.2, 1.0]],    # off the left
            [[0.0, 2.0, 1.0], [0.1, 1.5, 1.0], [-0.1, 1.7, 1.0]],       # off the bottom
            [[0.0, 0.0, 1.0], [0.1, 0.1, 1.0], [0.0, 0.0, -1.0]],       # touches z < 0
            [[-1.0, -0.1, 1.0], [-0.6, 0.1, 1.1], [-0.7, -0.2, 0.9]],   # left border
            [[1.0, 0.1, 1.0], [0.6, -0.1, 1.1], [0.7, 0.2, 0.9]],       # right border
            [[-0.1, -0.9, 1.0], [0.1, -0.5, 1.1], [0.2, -0.7, 0.9]],    # top border
            [[0.1, 0.9, 1.0], [-0.1, 0.5, 1.1], [-0.2, 0.7, 0.9]],      # bottom border
            [[-1.0, -0.8, 1.0], [-0.5, -0.7, 1.0], [-0.7, -0.4, 1.0]],  # top-left corner
        ]
        verts = np.asarray(tris, dtype=float).reshape(-1, 3)
        scene = make_scene([mesh_instance(verts, np.arange(len(verts)).reshape(-1, 3))])
        frame = render(scene, AXIS_CAMERA)
        for border in (frame.valid[:, 0], frame.valid[:, -1], frame.valid[0], frame.valid[-1]):
            assert border.any()
        assert_same_frame(frame, reference_render(scene, AXIS_CAMERA))
        rasterise_both(scene.instances, AXIS_CAMERA)

    def test_zero_area_triangles(self, small_chunks):
        verts = [[-0.2, -0.1, 1.0], [0.2, 0.1, 1.0], [0.0, 0.0, 1.0],   # collinear
                 [0.1, 0.1, 1.0], [0.1, 0.1, 1.0], [0.3, 0.2, 1.0],     # repeated vertex
                 [-0.1, 0.2, 0.8], [0.1, 0.2, 0.8], [0.0, 0.3, 0.8]]    # a proper one
        scene = make_scene([mesh_instance(verts, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])])
        frame = render(scene, AXIS_CAMERA)
        assert frame.valid.any()
        assert_same_frame(frame, reference_render(scene, AXIS_CAMERA))
        rasterise_both(scene.instances, AXIS_CAMERA)

    def test_coincident_faces_lower_instance_wins(self, small_chunks):
        box = box_instance(0.05, 0.05, 0.05, 0.15, 0.15, yaw=0.3)
        other = box_instance(0.04, 0.06, 0.08, 0.08, 0.12)
        scene = make_scene([other, box, box, other])
        cam = default_camera(width=160, height=120, focal=135.0)
        frame = render(scene, cam)
        ids = set(np.unique(frame.instance_id)) - {BACKGROUND_ID}
        assert ids == {0, 1}
        assert_same_frame(frame, reference_render(scene, cam))
        rasterise_both(scene.instances, cam)

    def test_equal_depth_from_a_narrower_box_of_a_higher_instance(self, small_chunks):
        # both triangles lie on z = 1 with power-of-two determinants, so every
        # pixel of the small one gets t = 1.0 exactly from both; the small one
        # has the narrower box and is evaluated first, yet instance 0 must win
        big = mesh_instance([[-0.5, -0.5, 1.0], [0.5, -0.5, 1.0], [-0.5, 0.5, 1.0]], [[0, 1, 2]])
        small = mesh_instance([[-0.125, -0.125, 1.0], [0.125, -0.125, 1.0], [-0.125, 0.125, 1.0]],
                              [[0, 1, 2]])
        scene = make_scene([big, small])
        frame = render(scene, AXIS_CAMERA)
        assert (frame.depth[frame.valid] == 1.0).all()
        assert set(np.unique(frame.instance_id)) == {0, BACKGROUND_ID}
        assert_same_frame(frame, reference_render(scene, AXIS_CAMERA))

    def test_lone_triangle_facing_away(self, small_chunks):
        # n . a > 0, but an open mesh keeps its back faces
        scene = make_scene([mesh_instance([[-0.2, -0.1, 1.0], [0.2, -0.1, 1.0], [0.0, 0.2, 1.0]], [[0, 1, 2]])])
        assert not scene.instances[0].mesh.is_closed_outward
        frame = render(scene, AXIS_CAMERA)
        assert frame.valid.any()
        assert_same_frame(frame, reference_render(scene, AXIS_CAMERA))
        rasterise_both(scene.instances, AXIS_CAMERA)

    def test_camera_inside_closed_box(self, small_chunks):
        # every face the camera sees from inside is a back face
        box = ObjectInstance("box", make_box(1.0, 1.0, 1.0), Pose(Quaternion.identity(), np.array([0.0, 0.0, -0.5])))
        scene = make_scene([box])
        frame = render(scene, AXIS_CAMERA)
        assert frame.valid.all() and (frame.depth == 0.5).all()
        assert_same_frame(frame, reference_render(scene, AXIS_CAMERA))
        rasterise_both(scene.instances, AXIS_CAMERA)

    def test_closed_box_with_a_vertex_behind_the_camera(self, small_chunks):
        # the near-plane test drops the front faces at that corner, which
        # opens the box: its back faces show through the gap
        pose = Pose(quaternion_about_axis((0.6, 0.8, 0.0), 0.7), np.array([0.0, -0.1, 0.1]))
        box = ObjectInstance("box", make_box(0.4, 0.4, 0.4), pose)
        assert (pose.transform(box.mesh.vertices)[:, 2] <= 0).sum() == 1
        scene = make_scene([box])
        frame = render(scene, AXIS_CAMERA)
        assert frame.valid.any()
        assert_same_frame(frame, reference_render(scene, AXIS_CAMERA))
        rasterise_both(scene.instances, AXIS_CAMERA)

    def test_box_with_inverted_winding(self, small_chunks):
        box = make_box(0.2, 0.3, 0.25)
        inverted = TriMesh(box.vertices, box.triangles[:, ::-1])
        assert not inverted.is_closed_outward
        pose = Pose(quaternion_about_axis((0.6, 0.8, 0.0), 0.7), np.array([0.05, -0.1, 0.6]))
        scene = make_scene([ObjectInstance("inverted", inverted, pose)])
        frame = render(scene, AXIS_CAMERA)
        assert frame.valid.any()
        assert_same_frame(frame, reference_render(scene, AXIS_CAMERA))
        rasterise_both(scene.instances, AXIS_CAMERA)

    def test_camera_sees_nothing(self, small_chunks):
        scene = dense_scene(500)
        cam = CameraModel(
            64, 48, 50.0, 50.0, 32.0, 24.0,
            look_at_pose((0.15, 0.15, 1.0), (0.15, 0.15, 2.0), up=(0.0, 1.0, 0.0)),
        )
        frame = render(scene, cam)
        assert not frame.valid.any()
        assert_same_frame(frame, reference_render(scene, cam))
        assert rasterise_both(scene.instances, cam) == [None] * len(scene.instances)


def assert_same_layers(got: list, want: list):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert (g.row, g.col, g.t.shape) == (w.row, w.col, w.t.shape)
            assert g.t.tobytes() == w.t.tobytes()


def rasterise_both(instances, camera, reference=reference_rasterise) -> list:
    """The layers of `_rasterise`, asserted byte-equal to the reference's."""
    got = camera_module._rasterise(list(instances), camera)
    assert_same_layers(got, reference(list(instances), camera))
    return got


def traced_peak(rasterise, instances, camera, untraced=None) -> int:
    # one untraced call first fills the meshes' lazy caches (`is_closed_outward`),
    # which would otherwise count against whichever rasteriser runs first; for the
    # reference it can read the shared result, so that the oracle itself runs only traced
    (untraced or rasterise)(list(instances), camera)
    tracemalloc.start()
    try:
        rasterise(list(instances), camera)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pixel_vertices(camera: CameraModel, uvz) -> list:
    """Camera-frame vertices, at the identity pose, that project to the given (u, v) at depth z."""
    return [[(u - camera.cx) / camera.fx * z, (v - camera.cy) / camera.fy * z, z] for u, v, z in uvz]


FULL_CAMERA = CameraModel(640, 480, 400.0, 400.0, 320.0, 240.0, Pose.identity())
# focal length 128: a row centre v + 0.5 is y / z = (v + 0.5 - 60) / 128, a
# binary fraction, so a vertex can project onto it exactly
ROW_CAMERA = CameraModel(160, 120, 128.0, 128.0, 80.0, 60.0, Pose.identity())
# f sec^2 of about 2e5 and 4.9e3 at the corner pixels, against the default camera's 835
LONG_CAMERA = CameraModel(160, 120, 2e5, 2e5, 80.0, 60.0, Pose.identity())
WIDE_CAMERA = CameraModel(160, 120, 2.0, 2.0, 80.0, 60.0, Pose.identity())
# every 4th `occlusion_sweep` scene: tracing makes the reference about eight times slower
TRACED_SEEDS = range(2, 40, 4)


class TestRasteriseMatchesReference:
    """`_rasterise` evaluates the union of each triangle's padded row spans,
    one batch element per triangle; its layers equal the box-row rasteriser's
    byte for byte."""

    def test_benchmark_corpora_at_full_resolution(self):
        # the 40 scenes of occlusion_sweep and the 16 of episode
        cam = default_camera()
        for seed in corpus.SWEEP_SEEDS:
            rasterise_both(dense_scene(seed).instances, cam,
                           shared_rasterise if seed in TRACED_SEEDS else reference_rasterise)
        for seed in corpus.EPISODE_SEEDS:
            rasterise_both(corpus.episode_scene(seed).instances, cam)

    @pytest.mark.parametrize("chunk", [61, 7])
    def test_dense_scenes_in_small_chunks(self, chunk, monkeypatch):
        monkeypatch.setattr(camera_module, "_CHUNK_PAIRS", chunk)
        cam = default_camera(width=160, height=120, focal=135.0)
        for seed in corpus.RENDER_SEEDS:
            rasterise_both(dense_scene(seed).instances, cam, shared_rasterise)

    def test_one_column_boxes_over_several_rows(self, small_chunks):
        # each box is one column wide, so each pixel was a batch element of
        # one row (a BLAS dot, which rounds otherwise than gemv)
        tris = [pixel_vertices(AXIS_CAMERA, [(u + 0.3, v, z), (u + 0.9, v + 25.0, z + 0.1), (u + 0.3, v + 40.0, z + 0.37)])
                for u, v, z in [(40, 20.2, 1.0), (52, 31.7, 0.6), (97, 5.1, 1.9), (120, 60.4, 0.8)]]
        verts = np.asarray(tris, dtype=float).reshape(-1, 3)
        scene = make_scene([mesh_instance(verts, [[3 * i, 3 * i + 1, 3 * i + 2]]) for i in range(len(tris))])
        for layer in rasterise_both(scene.instances, AXIS_CAMERA):
            assert layer.t.shape[1] == 1
            assert np.isfinite(layer.t).sum() >= 10

    def test_one_pair_triangle_in_a_wider_box(self):
        # the box is columns 10 and 11 of row 20, and the span at the row
        # centre clips to column 11 alone: an element of one pair, padded to two
        uvz = [(10.2, 20.0, 1.0), (12.2, 20.0, 1.0), (12.3, 20.6, 1.0)]
        u, v = np.array([[10.2, 12.2, 12.3]]), np.array([[20.0, 20.0, 20.6]])
        lo, count = camera_module._row_spans(u, v, np.array([10]), np.array([11]), np.array([1]), np.array([20]),
                                             np.array([False]))
        assert (lo[0], count[0]) == (11, 1)
        (layer,) = rasterise_both([mesh_instance(pixel_vertices(AXIS_CAMERA, uvz), [[0, 1, 2]])], AXIS_CAMERA)
        assert (layer.row, layer.col, layer.t.shape) == (20, 10, (1, 2))

    @pytest.mark.parametrize("chunk", [_CHUNK_PAIRS, 61, 160 * 120 - 1])
    def test_full_screen_triangles_split_across_chunks(self, chunk, monkeypatch):
        # 19,200 pairs each; in chunks of 19,199 the last piece is one pair.
        # Scaling a vertex along its ray keeps the projection and moves the depths.
        monkeypatch.setattr(camera_module, "_CHUNK_PAIRS", chunk)
        for layer in rasterise_both(corpus.full_screen_instances(), AXIS_CAMERA, shared_rasterise):
            assert np.isfinite(layer.t).all() and layer.t.shape == (120, 160)

    def test_full_screen_triangle_at_full_resolution(self):
        (layer,) = rasterise_both([corpus.full_screen_instance()], FULL_CAMERA, shared_rasterise)
        assert np.isfinite(layer.t).all() and layer.t.shape == (480, 640)

    def test_edges_through_pixel_centres(self, small_chunks):
        # the first two vertices lie on a line through a pixel centre, which a
        # ray meets within the barycentric tolerance, while the row's crossing
        # with that edge may round past the centre: the padding keeps the pixel
        rng = np.random.default_rng(0)
        instances = []
        for _ in range(40):
            uc, vc = rng.integers(20, 140) + 0.5, rng.integers(20, 100) + 0.5
            du, dv = rng.uniform(-1, 1, 2) * [7, 5]
            a, b = rng.uniform(0.3, 1.7, 2)
            side = rng.uniform(-1, 1, 2) * 9
            z = rng.uniform(0.5, 2.0, 3)
            uvz = [(uc - a * du, vc - a * dv, z[0]), (uc + b * du, vc + b * dv, z[1]),
                   (uc + side[0], vc + side[1], z[2])]
            instances.append(mesh_instance(pixel_vertices(AXIS_CAMERA, uvz), [[0, 1, 2]]))
        rasterise_both(instances, AXIS_CAMERA)

    def test_horizontal_edges_on_row_centres(self, small_chunks):
        tris = [
            [(20.0, 40.5, 1.0), (90.0, 40.5, 1.3), (60.0, 70.2, 1.1)],   # top edge on row 40's centre
            [(30.0, 80.5, 0.9), (100.0, 80.5, 1.0), (70.0, 50.8, 1.2)],  # bottom edge on row 80's
            [(110.0, 10.5, 1.0), (150.0, 10.5, 1.0), (130.5, 30.5, 1.0)],  # both on row centres
        ]
        verts = np.array([pixel_vertices(ROW_CAMERA, uvz) for uvz in tris]).reshape(-1, 3)
        v = verts[:, 1] / verts[:, 2] * ROW_CAMERA.fy + ROW_CAMERA.cy  # as `_rasterise` projects
        assert list(v[[0, 1, 3, 4, 6, 7, 8]]) == [40.5, 40.5, 80.5, 80.5, 10.5, 10.5, 30.5]
        scene = make_scene([mesh_instance(verts, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])])
        (layer,) = rasterise_both(scene.instances, ROW_CAMERA)
        assert np.isfinite(layer.t).sum() > 1000

    def test_edge_on_triangles(self, small_chunks):
        # the camera centre lies in each triangle's plane: the first projects
        # onto row 100's centre line, the second onto a slanted segment
        flat = pixel_vertices(ROW_CAMERA, [(20.0, 100.5, 1.0), (140.0, 100.5, 1.5), (70.0, 100.5, 2.0)])
        p, q = np.array([0.1, 0.05, 1.0]), np.array([0.3, 0.2, 1.5])
        slanted = [p, q, 0.5 * p + 0.7 * q]
        verts = np.vstack([flat, slanted])
        assert (verts[:3, 1] / verts[:3, 2] * ROW_CAMERA.fy + ROW_CAMERA.cy == 100.5).all()
        scene = make_scene([mesh_instance(verts, [[0, 1, 2], [3, 4, 5]])])
        rasterise_both(scene.instances, ROW_CAMERA)
        rasterise_both(scene.instances, AXIS_CAMERA)

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4, 5, 6], [2, 3, 6, 1, 5, 0, 4]])
    def test_instances_without_a_layer_between_visible_ones(self, order, small_chunks):
        # the set-up is one pass over all instances, so each gate and each
        # empty run must stay with its own instance
        box = make_box(0.2, 0.15, 0.1)
        tilt = quaternion_about_axis((0.6, 0.8, 0.0), 0.4)
        instances = [
            ObjectInstance("visible", box, Pose(tilt, np.array([-0.2, -0.1, 0.9]))),
            mesh_instance(np.zeros((0, 3)), np.zeros((0, 3))),                            # no vertices
            ObjectInstance("behind", box, Pose(tilt, np.array([0.0, 0.0, -1.0]))),        # wholly behind the camera
            # open: no bottom face, which faces the camera, so its back faces show
            ObjectInstance("open", TriMesh(box.vertices, box.triangles[2:]),
                           Pose(Quaternion.identity(), np.array([0.15, 0.1, 0.7]))),
            ObjectInstance("offscreen", box, Pose(tilt, np.array([5.0, 0.0, 1.0]))),      # in front, no pixel box
            ObjectInstance("corner", make_box(0.4, 0.4, 0.4),                             # a vertex behind the camera
                           Pose(quaternion_about_axis((0.6, 0.8, 0.0), 0.7), np.array([0.0, -0.1, 0.1]))),
            ObjectInstance("visible", make_box(0.1, 0.3, 0.2), Pose(tilt, np.array([0.1, 0.2, 1.2]))),
        ]
        assert not instances[3].mesh.is_closed_outward
        assert (instances[5].pose.transform(instances[5].mesh.vertices)[:, 2] <= 0).sum() == 1
        layers = rasterise_both([instances[i] for i in order], AXIS_CAMERA)
        assert [layer is None for layer in layers] == [i in (1, 2, 4) for i in order]

    def test_one_instance(self):
        box = ObjectInstance("box", make_box(0.2, 0.15, 0.1),
                             Pose(quaternion_about_axis((0.6, 0.8, 0.0), 0.4), np.array([0.0, 0.0, 0.8])))
        (layer,) = rasterise_both([box], AXIS_CAMERA)
        assert np.isfinite(layer.t).any()
        assert rasterise_both([mesh_instance(np.zeros((0, 3)), np.zeros((0, 3)))], AXIS_CAMERA) == [None]

    def test_row_meeting_no_edge_keeps_the_box_row(self):
        # the triangle lies between rows 19 and 20's centres; asked for row
        # 25, which no edge meets, the span is the whole box row
        u, v = np.array([[10.0, 14.0, 12.0]]), np.array([[20.2, 20.2, 20.4]])
        lo, count = camera_module._row_spans(u, v, np.array([10]), np.array([13]), np.array([1]), np.array([25]),
                                             np.array([False]))
        assert (lo[0], count[0]) == (10, 4)


class TestRowSpans:
    """A well-conditioned triangle's row spans hold the pixel centres within a
    sliver of the row's edge crossings; every other triangle's are padded by a
    whole pixel."""

    @pytest.mark.parametrize("k", [0.5, 0.99, 1.01, 2.0])
    def test_sliver_span_holds_the_centres_within_the_pad(self, k):
        # row 20 of each triangle crosses a vertical edge, padded by P, and an
        # edge of slope du/dv = +-2, padded by 3 P; the box is wider than the
        # triangles. One crossing of each lies k pads beyond a pixel centre.
        pad = camera_module._SPAN_PAD
        left = 12.5 + k * pad         # vertical edge; then 31.5 + k P
        slanted = 12.5 - 3 * k * pad  # vertical edge; then 31.5 - 3 k P
        right = 30.5 - k * pad        # 11.5 - k P; then the vertical edge
        u = np.array([[left, left, left + 20.0], [slanted, slanted, slanted + 20.0], [right, right, right - 20.0]])
        v = np.tile([10.0, 30.0, 20.0], (3, 1))
        box = (np.zeros(3, dtype=int), np.full(3, 60))
        rows = (np.ones(3, dtype=int), np.full(3, 20))
        lo, count = camera_module._row_spans(u, v, *box, *rows, np.ones(3, dtype=bool))
        near = k <= 1
        assert lo.tolist() == [12 if near else 13, 12, 11]
        assert (lo + count - 1).tolist() == [31, 31 if near else 30, 30 if near else 29]
        lo, count = camera_module._row_spans(u, v, *box, *rows, np.zeros(3, dtype=bool))
        assert lo.tolist() == [12, 11, 10] and (lo + count - 1).tolist() == [32, 31, 30]

    def test_near_horizontal_edge_across_a_row_centre(self):
        # the top edge rises 2e-11 px over 70 columns across row 40's centre,
        # which it crosses at column 55: rays through row 40 out to column 89
        # pass within the barycentric tolerance, beyond a one-pixel pad (the
        # slope factor of the sliver covers them)
        uvz = [(20.0, 40.5 - 1e-11, 1.0), (90.0, 40.5 + 1e-11, 1.0), (60.0, 70.0, 1.0)]
        (layer,) = rasterise_both([mesh_instance(pixel_vertices(AXIS_CAMERA, uvz), [[0, 1, 2]])], AXIS_CAMERA)
        assert layer.row == 40 and np.isfinite(layer.t[0]).sum() > 60

    def test_near_edge_on_triangle_keeps_the_whole_pixel_pad(self, monkeypatch):
        # the camera centre lies 1e-5 off the second triangle's plane
        p, q = np.array([0.1, 0.05, 1.0]), np.array([0.3, 0.2, 1.5])
        normal = np.cross(p, q) / np.linalg.norm(np.cross(p, q))
        face_on = pixel_vertices(AXIS_CAMERA, [(30.0, 20.0, 1.0), (70.0, 25.0, 1.2), (40.0, 90.0, 0.9)])
        tilted = np.array([p, q, 0.5 * p + 0.7 * q + 1e-5 * normal])
        a, e1, e2 = tilted[0], tilted[1] - tilted[0], tilted[2] - tilted[0]
        gate = abs(np.cross(e1, e2) @ a) / (np.linalg.norm(e1) * np.linalg.norm(e2) * np.linalg.norm(tilted, axis=1).max())
        assert 0.0 < gate < camera_module._SPAN_GATE
        seen = []
        row_spans = camera_module._row_spans

        def spy(*args):
            seen.append(args)
            return row_spans(*args)

        monkeypatch.setattr(camera_module, "_row_spans", spy)
        scene = make_scene([mesh_instance(np.vstack([face_on, tilted]), [[0, 1, 2], [3, 4, 5]])])
        rasterise_both(scene.instances, AXIS_CAMERA)
        ((u, v, u0, u1, heights, seg_row, tight),) = seen
        assert tight.tolist() == [True, False]
        lo, count = row_spans(u, v, u0, u1, heights, seg_row, tight)
        second = slice(heights[0], None)  # the rows of the tilted triangle
        args = (u[1:], v[1:], u0[1:], u1[1:], heights[1:], seg_row[second])
        whole_lo, whole_count = row_spans(*args, np.array([False]))
        assert np.array_equal(lo[second], whole_lo) and np.array_equal(count[second], whole_count)
        assert whole_count.sum() > row_spans(*args, np.array([True]))[1].sum()

    def test_gate_bounds_the_error_by_a_hundredth_of_the_pad(self):
        pad, floor = camera_module._SPAN_PAD, camera_module._SPAN_GATE
        for camera, raised in ((default_camera(), False), (AXIS_CAMERA, False), (LONG_CAMERA, True),
                               (WIDE_CAMERA, True)):
            x = max(camera.cx - 0.5, camera.width - 0.5 - camera.cx) / camera.fx
            y = max(camera.cy - 0.5, camera.height - 0.5 - camera.cy) / camera.fy
            f_sec2 = max(camera.fx, camera.fy) * (1.0 + x * x + y * y)
            gate = camera_module._span_gate(camera)
            bound = f_sec2 * (30 * 2.0 ** -53 / gate ** 2 + 6e-12 / gate)
            assert (gate > floor) == raised
            assert bound == pytest.approx(pad / 100, rel=1e-9) if raised else bound < pad / 100

    @pytest.mark.parametrize("camera", [LONG_CAMERA, WIDE_CAMERA], ids=["long", "wide"])
    def test_cameras_far_from_the_default_match_the_reference(self, camera, small_chunks):
        # random triangles at depth about 1, from face-on to near edge-on;
        # some gates lie between `_SPAN_GATE` and the camera's raised gate
        rng = np.random.default_rng(3)
        tris = []
        for spread in np.repeat([1.0, 1e-2, 1e-3, 1e-4, 1e-5], 12):
            uv = rng.uniform([4.0, 4.0], [156.0, 116.0], (3, 2))
            z = 1.0 + spread * rng.uniform(-0.5, 0.5, 3)
            tris.append(pixel_vertices(camera, [(u, v, depth) for (u, v), depth in zip(uv, z)]))
        tv = np.array(tris)
        e1, e2 = tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0]
        gates = np.abs(np.einsum("ij,ij->i", np.cross(e1, e2), tv[:, 0])) / (
            np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1) * np.linalg.norm(tv, axis=2).max(axis=1))
        assert ((camera_module._SPAN_GATE < gates) & (gates <= camera_module._span_gate(camera))).sum() >= 3
        instances = [mesh_instance(t, [[0, 1, 2]]) for t in tris]
        layers = rasterise_both(instances, camera)
        assert sum(np.isfinite(layer.t).sum() for layer in layers if layer is not None) > 1000

    def test_row_without_a_coverable_centre_is_dropped(self, monkeypatch):
        # row 20's centre line crosses the triangle between 11.95 and 12.28:
        # within the box, columns 10 and 11, no centre lies a sliver from it
        uvz = [(10.2, 20.0, 1.0), (12.2, 20.0, 1.0), (12.3, 20.6, 1.0)]
        u, v = np.array([[10.2, 12.2, 12.3]]), np.array([[20.0, 20.0, 20.6]])
        lo, count = camera_module._row_spans(u, v, np.array([10]), np.array([11]), np.array([1]), np.array([20]),
                                             np.array([True]))
        assert count.tolist() == [0]
        tested = []
        ray_hits = camera_module._ray_hits
        monkeypatch.setattr(camera_module, "_ray_hits", lambda *args: tested.append(args) or ray_hits(*args))
        (layer,) = rasterise_both([mesh_instance(pixel_vertices(AXIS_CAMERA, uvz), [[0, 1, 2]])], AXIS_CAMERA)
        assert tested == [] and (layer.row, layer.col, layer.t.shape) == (20, 10, (1, 2))
        assert np.isinf(layer.t).all()


class TestRasteriseMemory:
    """`_rasterise` builds its pixel indices a chunk at a time: its traced peak
    stays within the reference's, which bounds the benchmark's peak RSS."""

    def test_dense_corpus_at_full_resolution(self):
        cam = default_camera()
        for seed in TRACED_SEEDS:
            instances = dense_scene(seed).instances
            assert traced_peak(camera_module._rasterise, instances, cam) <= traced_peak(
                reference_rasterise, instances, cam, shared_rasterise), seed

    def test_full_screen_triangle(self):
        instances = [corpus.full_screen_instance()]
        assert traced_peak(camera_module._rasterise, instances, FULL_CAMERA) <= traced_peak(
            reference_rasterise, instances, FULL_CAMERA, shared_rasterise)


class TestRenderMatchesRayCast:
    @pytest.mark.parametrize("seed", range(3))
    def test_dense_scene_every_4th_pixel(self, seed):
        # the rule of the benchmark's ray check: the id matches exactly, and the
        # depth is the ray-cast hit's camera-frame z within one float32 step
        cam = default_camera(width=160, height=120, focal=135.0)
        scene = dense_scene(500 + seed)
        frame = render(scene, cam)
        rot = cam.pose.rotation.as_matrix()
        mesh_set = scene.mesh_set()
        wrong = []
        for v in range(0, cam.height, 4):
            for u in range(0, cam.width, 4):
                ray = np.array([(u + 0.5 - cam.cx) / cam.fx, (v + 0.5 - cam.cy) / cam.fy, 1.0])
                norm = float(np.linalg.norm(ray))
                hit = ray_cast(mesh_set, cam.pose.translation, rot @ (ray / norm))
                iid, depth = frame.instance_id[v, u], frame.depth[v, u]
                if hit is None:
                    ok = iid == BACKGROUND_ID and depth == 0.0
                else:
                    z = np.float32(hit.distance / norm)
                    ok = iid == hit.instance_index and abs(z - depth) <= np.spacing(depth)
                if not ok:
                    wrong.append((u, v, iid, depth, hit))
        assert not wrong
        assert (frame.instance_id[::4, ::4] != BACKGROUND_ID).sum() > 100


def synthetic_frame(inst: np.ndarray, seed: int) -> DepthFrame:
    h, w = inst.shape
    rng = np.random.default_rng(seed)
    vs, us = np.mgrid[0:h, 0:w]
    depth = 0.5 + 0.002 * us + 0.001 * vs + rng.uniform(0.0, 0.003, size=(h, w))
    depth[inst == BACKGROUND_ID] = 0.0
    cam = default_camera(width=w, height=h, focal=0.84 * w)
    return DepthFrame(depth.astype(np.float32), inst, cam)


def instance_filters(values, numpy_index: bool) -> list:
    """`values`, each index as a Python int, or as the np.uint16 that np.unique(frame.instance_id) yields."""
    return [np.uint16(v) if numpy_index else v for v in values]


class TestBackProjectMatchesReference:
    @pytest.mark.parametrize("numpy_index", [True, False])
    def test_seeded_frames(self, numpy_index):
        cam = default_camera(width=160, height=120, focal=135.0)
        for seed in (500, 501):
            scene = dense_scene(seed)
            frame = render(scene, cam)
            for instance_filter in instance_filters(range(len(scene.instances)), numpy_index):
                assert_same_cloud(back_project(frame, instance_filter), reference_back_project(frame, instance_filter))

    def test_full_resolution(self):
        scene = dense_scene(500)
        frame = render(scene, default_camera())
        assert_same_cloud(back_project(frame, scene.target_index), reference_back_project(frame, scene.target_index))

    @pytest.mark.parametrize("numpy_index", [True, False])
    def test_mask_touching_borders_and_single_pixel(self, numpy_index):
        inst = np.full((48, 64), BACKGROUND_ID, dtype=np.uint16)
        inst[:20, :30] = 1   # top-left corner
        inst[30:, 40:] = 2   # bottom-right corner
        inst[10:40, 50:] = 3  # right border, touching instance 2
        inst[25, 20] = 4     # one pixel
        frame = synthetic_frame(inst, seed=5)
        for instance_filter in instance_filters([1, 2, 3, 4], numpy_index):
            assert_same_cloud(back_project(frame, instance_filter), reference_back_project(frame, instance_filter))
        assert len(back_project(frame, *instance_filters([4], numpy_index))) == 1

    def test_memory_on_the_largest_dense_target(self):
        # the designated target of dense seed 3 covers 12,372 pixels at 640x480, the
        # most of seeds 0-15; building the cloud while the box-sized temporaries
        # were alive peaked at 5.76 MB
        scene = dense_scene(3)
        frame = render(scene, default_camera())
        back_project(frame, scene.target_index)
        tracemalloc.start()
        try:
            cloud = back_project(frame, scene.target_index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cloud) == 12_372
        assert_same_cloud(cloud, reference_back_project(frame, scene.target_index))
        assert peak < 5.2e6


def thin_masks(h: int, w: int) -> dict[str, np.ndarray]:
    """Masks one pixel, one row or one column thick, a diagonal of pixels
    with no neighbour, and masks along the image border."""
    cases = {}

    def add(name, *index):
        mask = np.zeros((h, w), dtype=bool)
        for i in index:
            mask[i] = True
        cases[name] = mask

    for v, u in [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1), (h // 2, w // 3), (0, w // 2), (h // 2, 0)]:
        add(f"pixel {v},{u}", (v, u))
    add("top row", (0, slice(None)))
    add("bottom row", (h - 1, slice(None)))
    add("middle row", (h // 2, slice(None)))
    add("row segment", (5, slice(3, 21)))
    add("row segment at the right border", (h // 3, slice(w - 9, None)))
    add("two pixels of a row", (7, slice(10, 12)))
    add("left column", (slice(None), 0))
    add("right column", (slice(None), w - 1))
    add("middle column", (slice(None), w // 2))
    add("column segment", (slice(4, 30), 9))
    add("column segment at the bottom border", (slice(h - 11, None), w // 4))
    add("two pixels of a column", (slice(20, 22), 13))
    add("every 7th diagonal", (np.arange(0, min(h, w), 7), np.arange(0, min(h, w), 7)))
    add("every 7th anti-diagonal", (np.arange(0, min(h, w), 7), w - 1 - np.arange(0, min(h, w), 7)))
    add("row and column crossing", (h // 2, slice(None)), (slice(None), w // 2))
    add("image border", (0, slice(None)), (h - 1, slice(None)), (slice(None), 0), (slice(None), w - 1))
    add("top-left corner block", (slice(0, 9), slice(0, 13)))
    add("bottom-right corner block", (slice(h - 9, None), slice(w - 13, None)))
    add("L along the left and bottom borders", (slice(None), slice(0, 2)), (slice(h - 2, None), slice(None)))
    add("two rows at the top", (slice(0, 2), slice(5, w - 5)))
    return cases


class TestBackProjectOnTheMasksPixels:
    """`back_project` computes on the mask's own pixels; every point and normal
    equals the bounding-box computation's, `reference_masked_points`, byte for byte."""

    def test_every_instance_of_the_benchmark_corpora(self):
        # the 16 scenes of `episode` and the 40 of `occlusion_sweep` at 640x480
        points = 0
        for count_range, seeds in ((corpus.EPISODE_OBJECTS, corpus.EPISODE_SEEDS),
                                   (corpus.DENSE_OBJECTS, corpus.SWEEP_SEEDS)):
            for seed in seeds:
                frame = corpus.frame(count_range, seed)
                for i in range(len(corpus.scene(count_range, seed).instances)):
                    cloud = back_project(frame, i)
                    assert_same_cloud(cloud, reference_box_back_project(frame, i))
                    points += len(cloud)
        assert points > 1_900_000

    @pytest.mark.parametrize("shape, surround", [((48, 64), BACKGROUND_ID), ((48, 64), 0), ((480, 640), 0)])
    def test_thin_masks(self, shape, surround):
        # the world and normal products are one (n, 3) product here, one (w, 3)
        # product per box row in the reference, which BLAS might round otherwise
        # for a single row or column; the rest of the image is background or an
        # instance whose pixels must not reach a normal
        for name, mask in thin_masks(*shape).items():
            inst = np.where(mask, 1, surround).astype(np.uint16)
            frame = synthetic_frame(inst, seed=len(name))
            cloud = back_project(frame, 1)
            assert len(cloud) == mask.sum(), name
            assert_same_cloud(cloud, reference_box_back_project(frame, 1))
            if shape == (48, 64):
                assert_same_cloud(cloud, reference_back_project(frame, 1))

    def test_peak_below_the_box_reference(self):
        # instance 3 of dense seed 35 covers 15,353 pixels at 640x480, the most
        # of any instance of the `episode` and `occlusion_sweep` corpora
        frame = corpus.frame(corpus.DENSE_OBJECTS, 35)
        assert (frame.instance_id == 3).sum() == 15_353
        peaks = {}
        for name, project in (("box", reference_box_back_project), ("pixels", back_project)):
            project(frame, 3)
            tracemalloc.start()
            try:
                project(frame, 3)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["pixels"] < peaks["box"]


class TestFrameFromLayers:
    def test_one_layer_equals_the_z_buffer_on_the_dense_corpus(self):
        # each instance of `occlusion_sweep`'s 40 scenes alone, as a slot-served
        # single render composes it, against the z-buffer compose
        cam = default_camera()
        composed = 0
        for seed in corpus.SWEEP_SEEDS:
            layers = camera_module._rasterise(list(dense_scene(seed).instances), cam)
            for i, layer in enumerate(layers):
                one = [None] * len(layers)
                one[i] = layer
                assert_same_frame(camera_module._frame_from_layers(one, cam), reference_frame_from_layers(one, cam))
                composed += layer is not None
        assert composed > 300


class TestLayerSlot:
    """`render` reuses the last rasterised scene's per-instance layers; every frame matches the loop."""

    @pytest.mark.parametrize("seed", range(10))
    def test_singles_after_their_cluttered_scene(self, seed, monkeypatch):
        monkeypatch.setattr(camera_module, "_CHUNK_PAIRS", 61)
        cam = default_camera(width=160, height=120, focal=135.0)
        scene = dense_scene(500 + seed)
        singles = scene_and_singles(scene)[1:]
        render(scene, cam)
        slot = camera_module._slot
        hits = [render(single, cam) for single in singles]
        assert camera_module._slot is slot  # every single was a hit
        for single, hit in zip(singles, hits):
            want = shared_render(single, cam)
            assert_same_frame(hit, want)
            # an equal camera that is another object misses and rasterises again
            assert_same_frame(render(single, dataclasses.replace(cam)), want)

    def test_scene_mixing_two_scenes(self):
        cam = default_camera(width=160, height=120, focal=135.0)
        a, b = dense_scene(500), dense_scene(501)
        render(a, cam)
        mixed = make_scene([b.instances[0], a.instances[1], b.instances[2], a.instances[3], a.instances[0]])
        assert_same_frame(render(mixed, cam), shared_render(mixed, cam))
        # the slot now holds the mixed scene's layers, all rasterised again
        assert {id(inst) for inst in mixed.instances} == set(camera_module._slot[1])
        assert_same_frame(render(mixed, cam), shared_render(mixed, cam))

    def test_partial_hit_rasterises_the_whole_scene(self, monkeypatch):
        cam = default_camera(width=160, height=120, focal=135.0)
        a, b = dense_scene(500), dense_scene(501)
        render(a, cam)
        mixed = make_scene([a.instances[0], b.instances[1], a.instances[2]])
        # two of its three instances are in the slot: all three are rasterised again
        rasterise, rasterised = camera_module._rasterise, []
        monkeypatch.setattr(camera_module, "_rasterise",
                            lambda instances, camera: rasterised.append(list(instances)) or rasterise(instances, camera))
        assert_same_frame(render(mixed, cam), reference_render(mixed, cam))
        assert [[id(i) for i in call] for call in rasterised] == [[id(i) for i in mixed.instances]]

    def test_instance_listed_twice(self):
        cam = default_camera(width=160, height=120, focal=135.0)
        scene = dense_scene(502)
        x, y = scene.instances[1], scene.instances[0]
        twice = make_scene([x, y, x])
        fresh = make_scene([box_instance(0.05, 0.05, 0.05, 0.15, 0.15, yaw=0.3)] * 2)
        render(scene, cam)
        # from the slot, then rasterised; the later listing never wins a pixel
        for listed, later in ((twice, 2), (fresh, 1)):
            frame = render(listed, cam)
            assert_same_frame(frame, reference_render(listed, cam))
            assert 0 in frame.instance_id and later not in frame.instance_id

    def test_second_camera_in_between(self):
        cam = default_camera(width=160, height=120, focal=135.0)
        other = default_camera(width=120, height=90, focal=100.0, elevation_deg=60.0)
        scene = dense_scene(503)
        first, second = derive_single_scene(scene, 0), derive_single_scene(scene, 1)
        render(scene, cam)
        assert_same_frame(render(first, other), reference_render(first, other))
        assert camera_module._slot[0] is other
        assert set(camera_module._slot[1]) == {id(first.instances[0])}
        assert_same_frame(render(second, cam), shared_render(second, cam))
        assert_same_frame(render(scene, cam), shared_render(scene, cam))

    def test_slot_releases_a_replaced_scene(self):
        cam = default_camera(width=160, height=120, focal=135.0)
        scene = generate_packed_scene(SceneConfig(object_count_range=(3, 3), seed=77), corpus.catalog())
        ref = weakref.ref(scene.instances[0])
        render(scene, cam)
        del scene
        gc.collect()
        assert ref() is not None  # the slot keeps its id from being reused
        render(dense_scene(504), cam)
        gc.collect()
        assert ref() is None

    def test_layers_read_only_and_never_aliased(self):
        cam = default_camera(width=160, height=120, focal=135.0)
        scene = dense_scene(505)
        frames = [render(s, cam) for s in scene_and_singles(scene)]
        frames.append(render(derive_single_scene(scene, 0), cam))
        layers = [layer for _, layer in camera_module._slot[1].values() if layer is not None]
        assert len(layers) == len(scene.instances)
        for layer in layers:
            with pytest.raises(ValueError):
                layer.t[0, 0] = 0.0
            for frame in frames:
                assert not np.shares_memory(frame.depth, layer.t)
                assert not np.shares_memory(frame.instance_id, layer.t)
        assert not np.shares_memory(frames[1].depth, frames[-1].depth)
