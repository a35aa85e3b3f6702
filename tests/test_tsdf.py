import dataclasses
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from occlugrasp import tsdf
from occlugrasp.camera import (
    BACKGROUND_ID,
    CameraModel,
    DepthFrame,
    back_project,
    default_camera,
    load_frame,
    render,
    save_frame,
)
from occlugrasp.completion import MirrorCompleter
from occlugrasp.errors import InputError
from occlugrasp.geometry import PointCloud, Pose, Quaternion
from occlugrasp.meshes import make_box, make_cylinder, make_sphere, surface_sample
from occlugrasp.scenes import WORKSPACE_EXTENT, SceneConfig
from occlugrasp.tsdf import (
    TsdfConfig,
    TsdfGrid,
    _voxel_projection,
    fuse,
    load_grid,
    near_surface_mask,
    save_grid,
    splat,
)

from .corpus import EPISODE_SEEDS, RENDER_SEEDS, box_instance, dense_scene, episode_scene, make_scene, with_normals
from .corpus import scene as corpus_scene


def straight_down_camera(extent=0.3, h=0.6):
    from occlugrasp.camera import look_at_pose

    c = extent / 2
    pose = look_at_pose((c, c, h), (c, c, 0.0), up=(0.0, 1.0, 0.0))
    return CameraModel(160, 120, 200.0, 200.0, 80.0, 60.0, pose)


class TestConfig:
    def test_defaults(self):
        cfg = TsdfConfig()
        assert cfg.resolution == 40
        assert cfg.extent == 0.3
        assert abs(cfg.voxel_size - 0.0075) < 1e-12
        assert abs(cfg.truncation - 0.03) < 1e-12

    def test_extent_is_the_workspace_extent(self):
        assert TsdfConfig().extent == SceneConfig().workspace_extent == WORKSPACE_EXTENT

    def test_degenerate_rejected(self):
        with pytest.raises(InputError):
            TsdfConfig(resolution=0)
        with pytest.raises(InputError):
            TsdfConfig(extent=-1.0)


class TestFuse:
    def box_frame(self):
        scene = make_scene([box_instance(0.1, 0.1, 0.08, 0.15, 0.15)])
        cam = straight_down_camera()
        return render(scene, cam), scene

    def test_values_bounded_and_weights_flag_observed(self):
        frame, _ = self.box_frame()
        grid = fuse(frame)
        assert np.abs(grid.values).max() <= 1.0
        assert (grid.weights >= 0).all()

    def test_free_space_is_plus_one(self):
        frame, _ = self.box_frame()
        cfg = TsdfConfig()
        grid = fuse(frame, cfg)
        # voxel well above the box top (z=0.08), more than 2 truncations in front
        ix, iy, iz = 20, 20, 36  # z center = 0.27375, sdf = 0.27375-0.08 >> trunc
        assert grid.values[ix, iy, iz] == 1.0
        assert grid.weights[ix, iy, iz] > 0

    def test_surface_voxel_near_zero(self):
        frame, _ = self.box_frame()
        cfg = TsdfConfig()
        grid = fuse(frame, cfg)
        # voxel straddling the top face: z = 0.08 sits between voxel centers
        half_width_norm = 0.5 * cfg.voxel_size / cfg.truncation
        iz = int(0.08 / cfg.voxel_size)  # voxel containing the face
        v = grid.values[20, 20, iz]
        assert abs(v) <= half_width_norm + 1e-9

    def test_sign_profile_along_ray(self):
        frame, _ = self.box_frame()
        grid = fuse(frame)
        col = grid.values[20, 20, :]  # straight-down ray above box center
        w = grid.weights[20, 20, :]
        obs = w > 0
        # from above (+1 free) down through the surface into negatives
        seq = col[obs][::-1]  # top of workspace first
        diffs = np.diff(seq)
        assert (diffs <= 1e-6).all()
        assert seq[0] == 1.0
        assert seq[-1] < 0

    def test_zero_crossing_matches_face_plane(self):
        frame, _ = self.box_frame()
        cfg = TsdfConfig()
        grid = fuse(frame, cfg)
        zs = (np.arange(cfg.resolution) + 0.5) * cfg.voxel_size
        crossings = []
        for ix in range(16, 25):
            for iy in range(16, 25):
                col = grid.values[ix, iy, :]
                w = grid.weights[ix, iy, :]
                for k in range(cfg.resolution - 1):
                    if w[k] and w[k + 1] and col[k + 1] > 0 >= col[k]:
                        t = col[k] / (col[k] - col[k + 1])
                        crossings.append(zs[k] + t * cfg.voxel_size)
        crossings = np.asarray(crossings)
        assert len(crossings) > 20
        assert np.abs(crossings - 0.08).max() < cfg.voxel_size

    def test_refinement_halves_plane_error(self):
        # box pitched out of the grid planes so crossing phases average out;
        # fine pixels keep the voxel term dominant
        from occlugrasp.camera import look_at_pose
        from occlugrasp.geometry import quaternion_about_axis
        from occlugrasp.meshes import make_box
        from occlugrasp.scenes import ObjectInstance

        lx, ly, lz = 0.16, 0.16, 0.06
        rot = quaternion_about_axis((0, 1, 0), np.deg2rad(15))
        pose = Pose(rot, np.array([0.15, 0.15, 0.05]))
        inst = ObjectInstance("tilted", make_box(lx, ly, lz), pose)
        scene = make_scene([inst])
        cam_pose = look_at_pose((0.15, 0.15, 0.7), (0.15, 0.15, 0.0), up=(0.0, 1.0, 0.0))
        cam = CameraModel(640, 480, 800.0, 800.0, 320.0, 240.0, cam_pose)
        frame = render(scene, cam)
        normal = rot.rotate(np.array([0.0, 0.0, 1.0]))
        p0 = pose.transform(np.array([0.0, 0.0, lz]))

        def plane_error(res):
            cfg = TsdfConfig(resolution=res, extent=0.3)
            grid = fuse(frame, cfg)
            vs = cfg.voxel_size
            centers = (np.arange(res) + 0.5) * vs
            errs = []
            lo, hi = int(res * 0.35), int(res * 0.65)
            for ix in range(lo, hi):
                for iy in range(lo, hi):
                    col = grid.values[ix, iy, :]
                    w = grid.weights[ix, iy, :]
                    for k in range(res - 1):
                        if w[k] and w[k + 1] and col[k + 1] > 0 >= col[k]:
                            # grid-precision crossing: boundary between the voxels
                            mid = np.array([centers[ix], centers[iy], centers[k] + 0.5 * vs])
                            errs.append(abs(normal @ (mid - p0)))
            return float(np.mean(errs))

        e40 = plane_error(40)
        e80 = plane_error(80)
        assert 0.375 * e40 <= e80 <= 0.625 * e40

    def test_degenerate_config_rejected(self):
        frame, _ = self.box_frame()
        with pytest.raises(InputError):
            fuse(frame, TsdfConfig(resolution=0))


class TestSplatAndMask:
    def test_empty_scene_grid_all_false(self):
        cam = straight_down_camera()
        empty = DepthFrame(
            np.zeros((cam.height, cam.width), np.float32),
            np.full((cam.height, cam.width), BACKGROUND_ID, np.uint16),
            cam,
        )
        grid = fuse(empty)
        assert not near_surface_mask(grid, 0.5).any()

    def test_interior_voxels_never_masked(self):
        frame = render(make_scene([box_instance(0.1, 0.1, 0.08, 0.15, 0.15)]), straight_down_camera())
        grid = fuse(frame)
        mask = near_surface_mask(grid, 0.5)
        assert not (mask & (grid.values < 0)).any()

    def test_sphere_shell_count(self):
        # splat a dense sphere cloud; the band mask should be a one-voxel shell
        mesh = make_sphere(0.05)
        cloud = surface_sample(mesh, 6000, seed=2)
        shifted = PointCloud(cloud.points + np.array([0.15, 0.15, 0.05]), cloud.normals)
        cfg = TsdfConfig()
        grid = splat(shifted, cfg)
        mask = near_surface_mask(grid, 1.0)
        # independent shell estimate: voxels whose center is within one voxel
        # of the analytic sphere surface
        centers = cfg.voxel_centers()
        d = np.abs(np.linalg.norm(centers - np.array([0.15, 0.15, 0.1]), axis=1) - 0.05)
        shell = (d <= cfg.voxel_size).sum()
        assert 0.5 * shell <= mask.sum() <= 1.5 * shell

    def test_splat_far_voxels_unobserved(self):
        cloud = with_normals(np.array([[0.15, 0.15, 0.1]]))
        grid = splat(cloud)
        assert grid.weights.sum() <= 27
        assert grid.values.max() == 1.0

    def test_band_bounds(self):
        grid = splat(with_normals(np.array([[0.15, 0.15, 0.1]])))
        with pytest.raises(InputError):
            near_surface_mask(grid, 0.0)
        with pytest.raises(InputError):
            near_surface_mask(grid, 1.5)

    @pytest.mark.parametrize("band", ["x", None, True, float("nan")])
    def test_band_must_be_a_number(self, band):
        # "x" and None raised a bare TypeError from the comparison
        grid = splat(with_normals(np.array([[0.15, 0.15, 0.1]])))
        with pytest.raises(InputError, match="band"):
            near_surface_mask(grid, band)

    def test_empty_cloud_rejected(self):
        with pytest.raises(InputError):
            splat(PointCloud.empty())


def splat_with(cloud: PointCloud, config: TsdfConfig, kernel_radius_voxels: float) -> TsdfGrid:
    """`splat` with `tsdf.KERNEL_RADIUS_VOXELS` set to `kernel_radius_voxels` for the call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tsdf, "KERNEL_RADIUS_VOXELS", kernel_radius_voxels)
        return splat(cloud, config)


def unbounded_distances(cloud: PointCloud, config: TsdfConfig) -> np.ndarray:
    return cKDTree(cloud.points).query(config.voxel_centers(), k=1)[0]


class TestSplatMatchesUnboundedQuery:
    """`splat` against its values and weights from an unbounded kd-tree query."""

    def assert_same(self, cloud, config, kernel_radius_voxels=1.0, dist=None):
        dist = unbounded_distances(cloud, config) if dist is None else dist
        values = np.minimum(dist / config.truncation, 1.0)
        weights = (dist <= kernel_radius_voxels * config.voxel_size).astype(np.float64)
        grid = splat_with(cloud, config, kernel_radius_voxels)
        assert grid.values.ravel().tobytes() == values.astype(np.float32).tobytes()
        assert grid.weights.ravel().tobytes() == weights.astype(np.float32).tobytes()

    def test_seeded_clouds(self):
        meshes = [make_sphere(0.04), make_box(0.05, 0.08, 0.1), make_cylinder(0.03, 0.12)]
        for seed, mesh in enumerate(meshes):
            pose = Pose(Quaternion.identity(), np.array([0.1 + 0.05 * seed, 0.15, 0.0]))
            cloud = surface_sample(mesh, 2048, seed=seed).transformed(pose)
            dist = unbounded_distances(cloud, TsdfConfig())
            for kernel_radius_voxels in (1.0, 2.5, 6.0):
                self.assert_same(cloud, TsdfConfig(), kernel_radius_voxels, dist)

    def test_cloud_outside_the_grid(self):
        cloud = with_normals(np.array([[1.0, 1.0, 1.0], [-0.5, 0.1, 0.1]]))
        self.assert_same(cloud, TsdfConfig())
        self.assert_same(cloud, TsdfConfig(), kernel_radius_voxels=6.0)
        assert not splat(cloud).weights.any()

    @pytest.mark.parametrize("kernel_radius_voxels", [1.0, 4.0, 6.0])
    def test_distances_exactly_at_the_radii(self, kernel_radius_voxels):
        # voxel size 1/8 and truncation 1/2 are exact in binary, and so is every
        # distance along z from the point below to a voxel center of its column
        config = TsdfConfig(resolution=8, extent=1.0)
        reach = max(config.truncation, kernel_radius_voxels * config.voxel_size)
        point = (np.array([3, 4, 2]) + 0.5) * config.voxel_size + np.array([0.0, 0.0, reach])
        cloud = with_normals(point[None, :])
        self.assert_same(cloud, config, kernel_radius_voxels)
        grid = splat_with(cloud, config, kernel_radius_voxels)
        at_kernel = 2 + int(reach / config.voxel_size - kernel_radius_voxels)
        assert grid.weights[3, 4, at_kernel] == 1.0
        assert grid.weights[3, 4, at_kernel - 1] == 0.0
        assert grid.values[3, 4, 2] == 1.0


class TestPersistence:
    def test_round_trip(self, tmp_path):
        scene = corpus_scene((4, 4), 8)
        frame = render(scene, default_camera(width=160, height=120, focal=135.0))
        grid = fuse(frame)
        save_grid(tmp_path, "scene", grid)
        loaded = load_grid(tmp_path, "scene")
        assert np.array_equal(grid.values, loaded.values)
        assert np.array_equal(grid.weights, loaded.weights)
        assert loaded.config.resolution == 40

    def test_missing_array_rejected(self, tmp_path):
        np.savez(tmp_path / "grid.tsdf.npz", values=np.zeros((4, 4, 4), np.float32), config=np.array([4, 0.3, 0.03]))
        with pytest.raises(InputError, match="weights"):
            load_grid(tmp_path, "grid")

    @pytest.mark.parametrize("config", [[4, 0.3], [4, 0.3, 0.03, 1.0], [np.nan, 0.3, 0.03], ["4", "0.3", "0.03"]])
    def test_config_not_three_finite_numbers_rejected(self, tmp_path, config):
        zeros = np.zeros((4, 4, 4), np.float32)
        np.savez(tmp_path / "grid.tsdf.npz", values=zeros, weights=zeros, config=np.array(config))
        with pytest.raises(InputError, match="config"):
            load_grid(tmp_path, "grid")

    def test_fractional_resolution_rejected(self, tmp_path):
        # int() would truncate 4.5 to a resolution that matches the (4, 4, 4) arrays
        zeros = np.zeros((4, 4, 4), np.float32)
        np.savez(tmp_path / "grid.tsdf.npz", values=zeros, weights=zeros, config=np.array([4.5, 0.3, 0.03]))
        with pytest.raises(InputError, match="resolution"):
            load_grid(tmp_path, "grid")
        np.savez(tmp_path / "whole.tsdf.npz", values=zeros, weights=zeros, config=np.array([4.0, 0.3, 0.03]))
        assert load_grid(tmp_path, "whole").config.resolution == 4

    @pytest.mark.parametrize("key, bad", [("values", np.nan), ("values", -np.inf), ("values", 1.5), ("weights", np.nan),
                                          ("weights", np.inf), ("weights", -1.0)])
    def test_saved_arrays_out_of_range_rejected(self, tmp_path, key, bad):
        # each passed `load_grid`, and NaN and inf weights reached every later use of the grid
        arrays = {"values": np.zeros((4, 4, 4), np.float32), "weights": np.ones((4, 4, 4), np.float32)}
        arrays[key][1, 2, 3] = bad
        np.savez(tmp_path / "grid.tsdf.npz", **arrays, config=np.array([4, 0.3, 0.03]))
        with pytest.raises(InputError, match=f"{key} must be finite"):
            load_grid(tmp_path, "grid")

    def test_not_an_npz_archive_rejected(self, tmp_path):
        (tmp_path / "grid.tsdf.npz").write_bytes(b"PK\x03\x04 truncated")
        with pytest.raises(InputError):
            load_grid(tmp_path, "grid")
        (tmp_path / "empty.tsdf.npz").write_bytes(b"")
        with pytest.raises(InputError):
            load_grid(tmp_path, "empty")


class TestGridShape:
    @pytest.mark.parametrize("shape", [(4, 4, 5), (4, 4), (5, 5, 5)])
    def test_shape_must_be_the_resolution_cubed(self, shape):
        with pytest.raises(InputError):
            TsdfGrid(np.zeros(shape), np.zeros(shape), TsdfConfig(resolution=4))
        with pytest.raises(InputError):
            TsdfGrid(np.zeros((4, 4, 4)), np.zeros(shape), TsdfConfig(resolution=4))


class TestBadInput:
    @pytest.mark.parametrize("resolution", [40.5, 40.0, True, np.float64(40.0), "40"])
    def test_resolution_must_be_an_integer(self, resolution):
        with pytest.raises(InputError, match="resolution"):
            TsdfConfig(resolution=resolution)

    def test_numpy_integer_resolution_accepted(self):
        cfg = TsdfConfig(resolution=np.int64(8))
        assert type(cfg.resolution) is int and cfg == TsdfConfig(resolution=8)

    @pytest.mark.parametrize("extent", [math.nan, math.inf, -math.inf, 0.0])
    def test_extent_must_be_finite_and_positive(self, extent):
        with pytest.raises(InputError, match="extent"):
            TsdfConfig(extent=extent)

    @pytest.mark.parametrize("truncation", [math.nan, math.inf, 0.0, -0.01])
    def test_truncation_must_be_finite_and_positive(self, truncation):
        with pytest.raises(InputError, match="truncation"):
            TsdfConfig(truncation=truncation)

    @pytest.mark.parametrize("config", ["cfg", None, 40, (40, 0.3, 0.03)])
    def test_config_must_be_a_tsdf_config(self, config):
        # "cfg" raised a bare AttributeError: no attribute 'resolution'
        frame = render(make_scene([box_instance(0.1, 0.1, 0.08, 0.15, 0.15)]), straight_down_camera())
        with pytest.raises(InputError, match="config"):
            fuse(frame, config)
        with pytest.raises(InputError, match="config"):
            splat(with_normals(np.array([[0.15, 0.15, 0.1]])), config)

    @pytest.mark.parametrize("value", ["x", None, np.zeros((40, 40, 40))])
    def test_frame_and_cloud_must_be_a_frame_and_a_cloud(self, value):
        # "x" raised a bare AttributeError: no attribute 'camera', or 'points'
        with pytest.raises(InputError, match="frame"):
            fuse(value)
        with pytest.raises(InputError, match="cloud"):
            splat(value)

    @pytest.mark.parametrize("grid", ["grid", None, np.zeros((40, 40, 40))])
    def test_grid_must_be_a_tsdf_grid(self, grid, tmp_path):
        # "grid" raised a bare AttributeError: no attribute 'values', or 'config'
        with pytest.raises(InputError, match="grid"):
            near_surface_mask(grid, 0.5)
        with pytest.raises(InputError, match="grid"):
            save_grid(tmp_path, "x", grid)
        assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# reference builders: `fuse` and `splat` as they were before `fuse` cached each
# camera's voxel projection and `splat` queried only the voxels within reach.
# The builders in `tsdf` must give the same bytes.


def reference_fuse(frame: DepthFrame, config: TsdfConfig | None = None) -> TsdfGrid:
    config = TsdfConfig() if config is None else config
    r = config.resolution
    centers = config.voxel_centers()
    cam = frame.camera
    world_to_cam = cam.pose.inverse()
    pts = world_to_cam.transform(centers)
    z = pts[:, 2]
    values = np.zeros(r**3, dtype=np.float64)
    weights = np.zeros(r**3, dtype=np.float64)
    in_front = z > 1e-9
    u = np.full(len(z), -1, dtype=np.int64)
    v = np.full(len(z), -1, dtype=np.int64)
    u[in_front] = np.floor(pts[in_front, 0] / z[in_front] * cam.fx + cam.cx).astype(np.int64)
    v[in_front] = np.floor(pts[in_front, 1] / z[in_front] * cam.fy + cam.cy).astype(np.int64)
    onscreen = in_front & (u >= 0) & (u < cam.width) & (v >= 0) & (v < cam.height)
    uu = u[onscreen]
    vv = v[onscreen]
    measured = frame.depth[vv, uu].astype(np.float64)
    background = measured == 0.0
    sdf = measured - z[onscreen]
    norm = np.clip(sdf / config.truncation, -1.0, 1.0)
    observed = background | (sdf > -config.truncation)
    vals = np.where(background, 1.0, norm)
    values[np.nonzero(onscreen)[0]] = np.where(observed, vals, norm)
    weights[np.nonzero(onscreen)[0]] = observed.astype(np.float64)
    return TsdfGrid(values.reshape(r, r, r), weights.reshape(r, r, r), config)


def reference_splat(cloud: PointCloud, config: TsdfConfig | None = None,
                    kernel_radius_voxels: float = 1.0) -> TsdfGrid:
    config = TsdfConfig() if config is None else config
    r = config.resolution
    centers = config.voxel_centers()
    reach = max(config.truncation, kernel_radius_voxels * config.voxel_size)
    dist, _ = cKDTree(cloud.points).query(centers, k=1, distance_upper_bound=np.nextafter(reach, np.inf))
    values = np.minimum(dist / config.truncation, 1.0)
    weights = (dist <= kernel_radius_voxels * config.voxel_size).astype(np.float64)
    return TsdfGrid(values.reshape(r, r, r), weights.reshape(r, r, r), config)


def assert_same_grid(grid: TsdfGrid, want: TsdfGrid):
    """`grid` equals `want` byte for byte, and its arrays are float32, C-contiguous and read-only."""
    assert grid.config == want.config
    for got, ref in ((grid.values, want.values), (grid.weights, want.weights)):
        assert got.dtype == np.float32 and got.flags.c_contiguous and not got.flags.writeable
        assert got.tobytes() == ref.tobytes()


# the explicit truncation (1.5 voxels) is below a 2.5 voxel kernel, which a
# kernel of 6 voxels reaches past for the other configs
CONFIGS = [TsdfConfig(), TsdfConfig(32, 0.4), TsdfConfig(40, 0.3, 0.01125)]
KERNEL_RADII = [1.0, 2.5, 6.0]
SMALL_CAMERA = default_camera(width=160, height=120, focal=135.0)


@pytest.fixture(scope="module")
def corpus():
    """(frame, clouds) of the benchmark's episode scenes (seeds 0-15, 4-6 objects)
    and 10 dense scenes: every visible instance's back-projected cloud, and the
    mirror-completed target."""
    scenes = [episode_scene(seed) for seed in EPISODE_SEEDS]
    scenes += [dense_scene(seed) for seed in RENDER_SEEDS]
    completer = MirrorCompleter()
    cases = []
    for scene in scenes:
        frame = render(scene, SMALL_CAMERA)
        clouds = [back_project(frame, i) for i in range(len(scene.instances))]
        clouds = [cloud for cloud in clouds if len(cloud)]
        partial = back_project(frame, scene.target_index)
        if len(partial):
            clouds.append(completer(partial, scene, SMALL_CAMERA))
        cases.append((frame, clouds))
    return cases


class TestMatchesReference:
    def test_fuse(self, corpus):
        for frame, _ in corpus:
            for config in CONFIGS:
                assert_same_grid(fuse(frame, config), reference_fuse(frame, config))

    def test_grid_keeps_float32_arrays_without_a_copy(self):
        r = TsdfConfig().resolution
        values, weights = np.zeros((r, r, r), dtype=np.float32), np.ones((r, r, r), dtype=np.float32)
        grid = TsdfGrid(values, weights, TsdfConfig())
        assert np.shares_memory(grid.values, values) and np.shares_memory(grid.weights, weights)
        cast = TsdfGrid(values.astype(np.float64), weights, TsdfConfig())
        assert cast.values.dtype == np.float32 and cast.values.tobytes() == values.tobytes()

    def test_fuse_camera_inside_the_grid(self):
        # voxel centres on the image plane, 0.5 mm and 1e-10 m in front of it
        config = TsdfConfig(resolution=8, extent=0.4)
        vs = config.voxel_size
        for ahead in (0.0, 5e-4, 1e-10):
            eye = (np.array([3, 4, 5]) + 0.5) * vs - np.array([0.0, 0.0, ahead])
            cam = CameraModel(64, 48, 40.0, 40.0, 32.0, 24.0, Pose(Quaternion.identity(), eye))
            depth = np.random.default_rng(1).uniform(0.0, 0.3, size=(48, 64))
            depth[depth < 0.05] = 0.0
            frame = DepthFrame(depth, np.zeros((48, 64)), cam)
            assert_same_grid(fuse(frame, config), reference_fuse(frame, config))

    def test_splat(self, corpus):
        # each cloud under one of the 9 (config, kernel radius) pairs in turn,
        # so every pair meets about 25 clouds of every kind
        pairs = [(config, k) for config in CONFIGS for k in KERNEL_RADII]
        clouds = [cloud for _, cs in corpus for cloud in cs]
        assert len(clouds) > 150
        for i, cloud in enumerate(clouds):
            config, k = pairs[i % len(pairs)]
            assert_same_grid(splat_with(cloud, config, k), reference_splat(cloud, config, k))

    @staticmethod
    def edge_clouds(config: TsdfConfig) -> dict[str, PointCloud]:
        e = config.extent
        rng = np.random.default_rng(5)
        blob = 0.5 * e + rng.uniform(-0.05, 0.05, size=(40, 3)) * e
        clouds = {"one point": with_normals(np.array([[0.41, 0.52, 0.33]]) * e)}
        for axis in range(3):
            for side in (0.0, e):
                touching = blob.copy()
                touching[0, axis] = side
                clouds[f"face {axis} at {side}"] = with_normals(touching)
        clouds["on a corner"] = with_normals(np.array([[0.0, 0.0, 0.0], [e, e, e]]))
        return clouds

    @pytest.mark.parametrize("config", CONFIGS)
    def test_splat_edge_clouds(self, config):
        for name, cloud in self.edge_clouds(config).items():
            for k in KERNEL_RADII:
                assert_same_grid(splat_with(cloud, config, k), reference_splat(cloud, config, k))

    @pytest.mark.parametrize("config", CONFIGS)
    def test_splat_cloud_outside_the_grid(self, config):
        e = config.extent
        far = max(config.truncation, 6.0 * config.voxel_size) + 2.0 * config.voxel_size
        clouds = [with_normals(np.array([[0.5 * e, 0.5 * e, e + far]])),
                  with_normals(np.array([[-far, -far, -far], [-far, 0.5 * e, -far]])),
                  with_normals(np.array([[1e300, 0.1, 0.1], [-1e300, 0.1, 0.1]]))]
        for cloud in clouds:
            for k in KERNEL_RADII:
                grid = splat_with(cloud, config, k)
                assert_same_grid(grid, reference_splat(cloud, config, k))
                assert (grid.values == 1.0).all() and not grid.weights.any()


class TestProjectionCache:
    def frame(self):
        scene = episode_scene(3)
        return render(scene, SMALL_CAMERA)

    def test_arrays_read_only(self):
        for array in _voxel_projection(TsdfConfig(), SMALL_CAMERA):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[:1] = 0

    def test_grid_never_aliases_the_cache(self):
        frame = self.frame()
        grid = fuse(frame)
        for array in _voxel_projection(TsdfConfig(), frame.camera):
            assert not np.shares_memory(array, grid.values)
            assert not np.shares_memory(array, grid.weights)

    def test_equal_cameras_hit(self, tmp_path):
        frame = self.frame()
        cam = frame.camera
        q = cam.pose.rotation
        save_frame(tmp_path, "frame", frame)
        loaded = load_frame(tmp_path, "frame")
        assert loaded.camera.pose.rotation != q
        equal = [dataclasses.replace(cam),
                 dataclasses.replace(cam, pose=Pose(Quaternion(-q.w, -q.x, -q.y, -q.z), cam.pose.translation)),
                 loaded.camera]
        _voxel_projection.cache_clear()
        want = fuse(frame)
        assert_same_grid(want, reference_fuse(frame))
        for other in equal:
            assert other == cam and other is not cam
            hits = _voxel_projection.cache_info().hits
            assert_same_grid(fuse(DepthFrame(frame.depth, frame.instance_id, other)), want)
            assert _voxel_projection.cache_info().hits == hits + 1
        assert_same_grid(fuse(loaded), want)

    def test_different_camera_misses(self):
        frame = self.frame()
        fuse(frame)
        cam = frame.camera
        moved = dataclasses.replace(cam, pose=Pose(cam.pose.rotation, np.nextafter(cam.pose.translation, 0.0)))
        other = DepthFrame(frame.depth, frame.instance_id, moved)
        info = _voxel_projection.cache_info()
        grid = fuse(other)
        assert _voxel_projection.cache_info().misses == info.misses + 1
        assert_same_grid(grid, reference_fuse(other))
