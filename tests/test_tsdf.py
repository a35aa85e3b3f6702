import numpy as np
import pytest
from scipy.spatial import cKDTree

from occlugrasp.camera import BACKGROUND_ID, CameraModel, DepthFrame, default_camera, render
from occlugrasp.errors import InputError
from occlugrasp.geometry import PointCloud, Pose, Quaternion
from occlugrasp.meshes import make_box, make_cylinder, make_sphere, surface_sample
from occlugrasp.scenes import SceneConfig, generate_packed_scene
from occlugrasp.tsdf import TsdfConfig, TsdfGrid, fuse, load_grid, near_surface_mask, save_grid, splat

from .test_camera import box_instance, make_scene


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
        poly = np.array([[-lx / 2, -ly / 2], [lx / 2, -ly / 2], [lx / 2, ly / 2], [-lx / 2, ly / 2]])
        inst = ObjectInstance("tilted", make_box(lx, ly, lz), pose, (lx, ly, lz), poly)
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
        cloud = PointCloud(np.array([[0.15, 0.15, 0.1]]))
        grid = splat(cloud)
        assert grid.weights.sum() <= 27
        assert grid.values.max() == 1.0

    def test_band_bounds(self):
        grid = splat(PointCloud(np.array([[0.15, 0.15, 0.1]])))
        with pytest.raises(InputError):
            near_surface_mask(grid, 0.0)
        with pytest.raises(InputError):
            near_surface_mask(grid, 1.5)

    def test_empty_cloud_rejected(self):
        with pytest.raises(InputError):
            splat(PointCloud.empty())


def unbounded_distances(cloud: PointCloud, config: TsdfConfig) -> np.ndarray:
    return cKDTree(cloud.points).query(config.voxel_centers(), k=1)[0]


class TestSplatMatchesUnboundedQuery:
    """`splat` against its values and weights from an unbounded kd-tree query."""

    def assert_same(self, cloud, config, kernel_radius_voxels=1.0, dist=None):
        dist = unbounded_distances(cloud, config) if dist is None else dist
        values = np.minimum(dist / config.truncation, 1.0)
        weights = (dist <= kernel_radius_voxels * config.voxel_size).astype(np.float64)
        grid = splat(cloud, config, kernel_radius_voxels)
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
        cloud = PointCloud(np.array([[1.0, 1.0, 1.0], [-0.5, 0.1, 0.1]]))
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
        cloud = PointCloud(point[None, :])
        self.assert_same(cloud, config, kernel_radius_voxels)
        grid = splat(cloud, config, kernel_radius_voxels)
        at_kernel = 2 + int(reach / config.voxel_size - kernel_radius_voxels)
        assert grid.weights[3, 4, at_kernel] == 1.0
        assert grid.weights[3, 4, at_kernel - 1] == 0.0
        assert grid.values[3, 4, 2] == 1.0


class TestPersistence:
    def test_round_trip(self, tmp_path):
        scene = generate_packed_scene(SceneConfig(object_count_range=(4, 4), seed=8))
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
