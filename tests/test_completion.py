import numpy as np
import pytest
import scipy.spatial
from scipy.spatial import cKDTree

from occlugrasp import completion
from occlugrasp.camera import back_project, default_camera, render
from occlugrasp.completion import (
    MirrorCompleter,
    OracleCompleter,
    PassthroughCompleter,
    chamfer_l1,
    completion_ground_truth,
    volumetric_iou,
)
from occlugrasp.errors import InputError
from occlugrasp.geometry import PointCloud, Pose, Quaternion, _nearest_distances
from occlugrasp.meshes import make_cylinder, surface_sample
from occlugrasp.occlusion import BinScheme, occlusion_level
from occlugrasp.scenes import ObjectInstance, derive_single_scene
from occlugrasp.tsdf import KERNEL_RADIUS_VOXELS, TsdfConfig

from . import corpus
from .corpus import make_scene, with_normals


def brute_chamfer(a: np.ndarray, b: np.ndarray) -> float:
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())


class TestChamfer:
    def test_identical_zero(self):
        pts = np.random.default_rng(0).normal(size=(50, 3))
        assert chamfer_l1(with_normals(pts), with_normals(pts.copy())) == 0.0

    def test_unit_separation(self):
        a = with_normals(np.array([[0.0, 0.0, 0.0]]))
        b = with_normals(np.array([[1.0, 0.0, 0.0]]))
        assert chamfer_l1(a, b) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.normal(size=(100, 3))
            b = rng.normal(size=(100, 3))
            fast = chamfer_l1(with_normals(a), with_normals(b))
            slow = brute_chamfer(a, b)
            assert abs(fast - slow) < 1e-12

    def test_symmetry_exact(self):
        rng = np.random.default_rng(6)
        a = with_normals(rng.normal(size=(64, 3)))
        b = with_normals(rng.normal(size=(80, 3)))
        assert chamfer_l1(a, b) == chamfer_l1(b, a)

    def test_zero_iff_mutual_subsets(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(30, 3))
        a = with_normals(base)
        b = with_normals(base[rng.permutation(30)])
        assert chamfer_l1(a, b) == 0.0
        c = with_normals(np.vstack([base, [[9.0, 9.0, 9.0]]]))
        assert chamfer_l1(a, c) > 0.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            chamfer_l1(PointCloud.empty(), with_normals(np.zeros((1, 3))))

    @pytest.mark.parametrize("metric", [chamfer_l1, volumetric_iou])
    @pytest.mark.parametrize("bad", ["a", None, np.zeros((4, 3))])
    def test_clouds_must_be_point_clouds(self, metric, bad):
        # "a" raised a bare AttributeError: no attribute 'points'
        cloud = with_normals(np.zeros((1, 3)))
        with pytest.raises(InputError, match="a must be a PointCloud"):
            metric(bad, cloud)
        with pytest.raises(InputError, match="b must be a PointCloud"):
            metric(cloud, bad)


def reference_chamfer_l1(a: PointCloud, b: PointCloud) -> float:
    """`chamfer_l1` on balanced, compact trees, scipy's defaults."""
    d_ab = cKDTree(b.points).query(a.points, k=1)[0]
    d_ba = cKDTree(a.points).query(b.points, k=1)[0]
    return 0.5 * (float(d_ab.mean()) + float(d_ba.mean()))


class TestChamferMatchesReference:
    def test_binned_targets_of_the_corpora(self):
        # the designated target of every scene the benchmark completes: the
        # episode corpus (4-6 objects, seeds 0-15) and the dense one (8-10
        # objects, seeds 0-39), at 640x480 with the test bins
        cam, scheme, completer = default_camera(), BinScheme.test(), MirrorCompleter()
        compared = 0
        for count_range, seeds in (((4, 6), range(16)), ((8, 10), range(40))):
            for seed in seeds:
                scene = corpus.scene(count_range, seed)
                cluttered = render(scene, cam)
                single = render(derive_single_scene(scene, scene.target_index), cam)
                if occlusion_level(single, cluttered, scene.target_index, scheme).bin_index is None:
                    continue
                completed = completer(back_project(cluttered, scene.target_index), scene, cam)
                gt = completion_ground_truth(scene)
                assert chamfer_l1(completed, gt) == reference_chamfer_l1(completed, gt), (count_range, seed)
                compared += 1
        assert compared >= 40

    def test_duplicate_and_collinear_points(self):
        # ties between equally near points, and a degenerate split direction
        line = np.zeros((200, 3))
        line[:, 0] = np.repeat(np.arange(50), 4) * 1e-3
        rng = np.random.default_rng(8)
        for a, b in [(line, line[::3] + 5e-4), (np.vstack([line, line]), rng.uniform(0, 0.05, size=(300, 3)))]:
            a, b = with_normals(a), with_normals(b)
            assert chamfer_l1(a, b) == reference_chamfer_l1(a, b)


def iou_with(a: PointCloud, b: PointCloud, voxel_size: float) -> float:
    """`volumetric_iou` with `completion.IOU_VOXEL_SIZE` set to `voxel_size` for the call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(completion, "IOU_VOXEL_SIZE", voxel_size)
        return volumetric_iou(a, b)


class TestIou:
    def test_identical(self):
        pts = np.random.default_rng(1).uniform(0, 0.3, size=(200, 3))
        assert volumetric_iou(with_normals(pts), with_normals(pts.copy())) == 1.0

    def test_disjoint(self):
        a = with_normals(np.random.default_rng(2).uniform(0, 0.1, size=(50, 3)))
        b = with_normals(np.random.default_rng(3).uniform(10, 10.1, size=(50, 3)))
        assert volumetric_iou(a, b) == 0.0

    def test_half_overlap_is_one_third(self):
        vox = 0.01
        # equal-size occupancy sets, half of each overlapping: |A∩B| = k, |A∪B| = 3k
        k = 8
        centers = (np.arange(3 * k)[:, None] + 0.5) * vox * np.array([[1.0, 0.0, 0.0]])
        a = with_normals(centers[: 2 * k])
        b = with_normals(centers[k:])
        assert iou_with(a, b, vox) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_both_empty_rejected(self):
        with pytest.raises(InputError):
            volumetric_iou(PointCloud.empty(), PointCloud.empty())


def reference_iou(a: PointCloud, b: PointCloud, voxel_size: float = 0.0075) -> float:
    """`volumetric_iou` as sets of voxel index tuples, before one int64 key per voxel."""
    occ_a = {tuple(v) for v in np.floor(a.points / voxel_size).astype(np.int64)}
    occ_b = {tuple(v) for v in np.floor(b.points / voxel_size).astype(np.int64)}
    return len(occ_a & occ_b) / len(occ_a | occ_b)


class TestIouMatchesReference:
    def test_completed_against_ground_truth(self):
        cam = default_camera(width=160, height=120, focal=135.0)
        completer = MirrorCompleter()
        results = []
        for seed in range(40):
            scene = corpus.scene((4, 6), seed)
            completed = completer(rendered_partial(scene, cam), scene, cam)
            gt = completion_ground_truth(scene)
            assert volumetric_iou(completed, gt) == reference_iou(completed, gt), seed
            results.append(volumetric_iou(completed, gt))
        assert 0.0 < min(results) and max(results) < 1.0

    def test_one_empty_cloud(self):
        cloud = with_normals(np.random.default_rng(4).uniform(0, 0.3, size=(100, 3)))
        assert volumetric_iou(cloud, PointCloud.empty()) == reference_iou(cloud, PointCloud.empty()) == 0.0
        assert volumetric_iou(PointCloud.empty(), cloud) == 0.0

    def test_negative_coordinates(self):
        rng = np.random.default_rng(5)
        a = with_normals(rng.uniform(-0.2, 0.05, size=(400, 3)))
        b = with_normals(rng.uniform(-0.05, 0.2, size=(400, 3)))
        for voxel_size in (0.0075, 0.02, 0.05):
            iou = iou_with(a, b, voxel_size)
            assert iou == reference_iou(a, b, voxel_size)
            assert 0.0 < iou < 1.0

    def test_points_on_voxel_faces(self):
        vox = 0.0075
        # exact multiples of the voxel size, negative ones included, and their
        # neighbours one float step away on either side
        faces = np.arange(-6, 7)[:, None] * vox * np.ones((1, 3))
        a = with_normals(np.vstack([faces, np.nextafter(faces, -np.inf)]))
        b = with_normals(np.vstack([faces, np.nextafter(faces, np.inf)]))
        assert iou_with(a, b, vox) == reference_iou(a, b, vox)
        assert iou_with(a, a, vox) == 1.0


def rendered_partial(scene, cam):
    frame = render(scene, cam)
    return back_project(frame, scene.target_index)


class TestOracleCompleter:
    def test_cd_at_noise_floor(self):
        scene = corpus.scene((1, 1), 3)
        gt = completion_ground_truth(scene)
        completed = OracleCompleter()(PointCloud.empty(), scene)
        # independent resample of the same surface: CD ~ sampling noise floor
        floor = chamfer_l1(
            surface_sample(scene.target.mesh, 2048, seed=1).transformed(scene.target.pose),
            surface_sample(scene.target.mesh, 2048, seed=2).transformed(scene.target.pose),
        )
        assert chamfer_l1(completed, gt) < 2.0 * floor

    def test_ignores_partial_input(self):
        scene = corpus.scene((1, 1), 4)
        full = OracleCompleter()(PointCloud.empty(), scene)
        assert len(full) > 0

    def test_iou_against_ground_truth(self):
        scene = corpus.scene((1, 1), 5)
        completed = OracleCompleter()(PointCloud.empty(), scene)
        gt = completion_ground_truth(scene)
        assert volumetric_iou(completed, gt) >= 0.95

    def test_is_the_ground_truth_sample(self):
        scene = corpus.scene((1, 1), 5)
        completed = OracleCompleter()(PointCloud.empty(), scene)
        np.testing.assert_array_equal(completed.points, completion_ground_truth(scene).points)

    @pytest.mark.parametrize("bad", ["s", None, np.zeros((8, 3))])
    def test_ground_truth_needs_a_scene(self, bad):
        # "s" raised a bare AttributeError: no attribute 'target'
        with pytest.raises(InputError, match="scene"):
            completion_ground_truth(bad)
        with pytest.raises(InputError, match="scene"):
            OracleCompleter()(PointCloud.empty(), bad)


class TestMirrorCompleter:
    def test_half_visible_cylinder_recovers_extent(self):
        cyl = make_cylinder(0.035, 0.1)
        from occlugrasp.scenes import ObjectInstance
        from occlugrasp.geometry import Pose, Quaternion

        inst = ObjectInstance("cyl", cyl, Pose(Quaternion.identity(), np.array([0.15, 0.15, 0.0])))
        scene = make_scene([inst])
        cam = default_camera(width=320, height=240, focal=270.0, elevation_deg=30.0)
        partial = rendered_partial(scene, cam)
        completed = MirrorCompleter()(partial, scene, cam)
        # extent along the horizontal view direction within 10% of the diameter
        view = np.array([0.15, 0.15, 0.05]) - cam.pose.translation
        horiz = view - view[2] * np.array([0.0, 0.0, 1.0])
        horiz /= np.linalg.norm(horiz)
        span = (completed.points @ horiz).max() - (completed.points @ horiz).min()
        partial_span = (partial.points @ horiz).max() - (partial.points @ horiz).min()
        assert abs(span - 0.07) < 0.1 * 0.07
        assert span > partial_span

    def test_reflections_land_behind_the_visible_front(self):
        inst = ObjectInstance("cyl", make_cylinder(0.035, 0.1),
                              Pose(Quaternion.identity(), np.array([0.15, 0.15, 0.0])))
        cam = default_camera(width=320, height=240, focal=270.0, elevation_deg=30.0)
        partial = rendered_partial(make_scene([inst]), cam)
        completed = MirrorCompleter()(partial, None, cam)
        reflected = completed.points[len(partial):]
        view = partial.points.mean(axis=0) - cam.pose.translation
        view[2] = 0.0
        view /= np.linalg.norm(view)
        assert len(reflected) > 0
        assert (reflected @ view).min() >= (partial.points @ view).min() - 1e-9

    def test_no_lateral_extent_passthrough(self, caplog):
        cam = default_camera()
        # a vertical line of points: no extent across the view direction
        cloud = with_normals(np.column_stack([np.full(5, 0.15), np.full(5, 0.15), np.linspace(0.0, 0.1, 5)]))
        with caplog.at_level("WARNING", logger="occlugrasp.completion"):
            out = MirrorCompleter()(cloud, None, cam)
        assert out is cloud
        assert "no lateral extent" in caplog.text

    def test_symmetric_complete_cloud_unchanged(self):
        scene = corpus.scene((1, 1), 6)
        cam = default_camera(width=160, height=120, focal=135.0)
        full = completion_ground_truth(scene)
        out = MirrorCompleter()(full, scene, cam)
        # reflections of a complete symmetric cloud add (almost) nothing
        assert chamfer_l1(out, full) < 2.0 * 0.002

    def test_three_points_passthrough(self):
        cam = default_camera()
        cloud = with_normals(np.random.default_rng(0).uniform(0.1, 0.2, size=(3, 3)))
        out = MirrorCompleter()(cloud, None, cam)
        assert out is cloud

    @pytest.mark.parametrize("bad", ["p", None, np.zeros((8, 3))])
    def test_partial_and_camera_must_be_a_cloud_and_a_camera(self, bad):
        # "p" came back unchanged, as a cloud of fewer than 4 points; a camera
        # of the wrong type raised a bare AttributeError: no attribute 'pose'
        with pytest.raises(InputError, match="partial"):
            MirrorCompleter()(bad, None, default_camera())
        cloud = with_normals(np.random.default_rng(0).uniform(0.1, 0.2, size=(8, 3)))
        with pytest.raises(InputError, match="camera"):
            MirrorCompleter()(cloud, None, bad)


class TestPassthroughCompleter:
    @pytest.mark.parametrize("bad", ["p", None, np.zeros((8, 3))])
    def test_partial_must_be_a_cloud(self, bad):
        # "p" came back unchanged as the completed cloud
        with pytest.raises(InputError, match="partial"):
            PassthroughCompleter()(bad)

    def test_returns_the_partial_cloud(self):
        cloud = with_normals(np.random.default_rng(0).uniform(0.1, 0.2, size=(8, 3)))
        assert PassthroughCompleter()(cloud, None, default_camera()) is cloud


class _UnboundedTree(cKDTree):
    """A `cKDTree` whose queries drop `distance_upper_bound`: the unbounded dedupe query."""

    def query(self, x, k=1, distance_upper_bound=np.inf, **kwargs):
        return super().query(x, k=k, **kwargs)


def _mirror_unbounded(completer, partial, scene, cam, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(scipy.spatial, "cKDTree", _UnboundedTree)
        return completer(partial, scene, cam)


def _assert_same_cloud(a, b):
    assert a.points.tobytes() == b.points.tobytes()
    assert a.normals.tobytes() == b.normals.tobytes()


class TestMirrorDedupeBound:
    """The bounded dedupe query keeps exactly the points the unbounded one keeps."""

    def test_matches_unbounded_query(self, monkeypatch):
        cam = default_camera(width=320, height=240, focal=270.0)
        completer = MirrorCompleter()
        added = 0
        for seed in range(40):
            scene = corpus.scene((4, 6), seed)
            partial = rendered_partial(scene, cam)
            assert len(partial) >= 4, seed
            bounded = completer(partial, scene, cam)
            _assert_same_cloud(bounded, _mirror_unbounded(completer, partial, scene, cam, monkeypatch))
            added += len(bounded) - len(partial)
        assert added > 0

    def test_distance_exactly_at_the_radius_is_a_duplicate(self, monkeypatch):
        cam = default_camera(width=320, height=240, focal=270.0)
        scene = corpus.scene((4, 6), 0)
        partial = rendered_partial(scene, cam)
        distances = []

        class Recording(_UnboundedTree):
            def query(self, x, k=1, distance_upper_bound=np.inf, **kwargs):
                out = super().query(x, k=k, **kwargs)
                distances.append(out[0])
                return out

        with monkeypatch.context() as mp:
            mp.setattr(scipy.spatial, "cKDTree", Recording)
            MirrorCompleter()(partial, scene, cam)
        dist = np.sort(distances[0])
        # radii equal to reflected points' exact nearest distances; the tree
        # compares squared distances, so some of these lie just inside the
        # squared radius and some just outside
        completer = MirrorCompleter()
        for radius in dist[:: len(dist) // 24][:24]:
            monkeypatch.setattr(completion, "DEDUPE_RADIUS", float(radius))
            bounded = completer(partial, scene, cam)
            _assert_same_cloud(bounded, _mirror_unbounded(completer, partial, scene, cam, monkeypatch))
            assert len(bounded) == len(partial) + int((dist > radius).sum())


class TestNearestDistancesMatchesReference:
    def test_episode_target_clouds(self):
        # the partial, kept reflected and completed clouds of the episode
        # targets, each queried against the others at no reach, the dedupe
        # radius and `splat`'s reach, against a tree of scipy's defaults
        cam, config = default_camera(width=320, height=240, focal=270.0), TsdfConfig()
        reaches = (np.inf, completion.DEDUPE_RADIUS, max(config.truncation, KERNEL_RADIUS_VOXELS * config.voxel_size))
        compared = 0
        for seed in corpus.EPISODE_SEEDS:
            partial = rendered_partial(corpus.episode_scene(seed), cam)
            completed = MirrorCompleter()(partial, None, cam)
            clouds = (partial.points, completed.points[len(partial):], completed.points)
            for points in clouds:
                if len(points) == 0:
                    continue
                tree = cKDTree(points)
                for queries in clouds:
                    if queries is points:
                        continue
                    for reach in reaches:
                        expected = tree.query(queries, k=1, distance_upper_bound=np.nextafter(reach, np.inf))[0]
                        assert _nearest_distances(points, queries, reach).tobytes() == expected.tobytes()
                        compared += len(queries)
        assert compared > 0


class TestOrdering:
    def test_completer_cd_ordering(self):
        # oracle <= mirror <= passthrough, averaged over many single scenes
        cam = default_camera(width=160, height=120, focal=135.0)
        completers = {"oracle": OracleCompleter(), "mirror": MirrorCompleter(), "none": PassthroughCompleter()}
        sums = dict.fromkeys(completers, 0.0)
        n = 0
        for seed in range(40):
            scene = corpus.scene((1, 1), 700 + seed)
            partial = rendered_partial(scene, cam)
            if len(partial) < 4:
                continue
            gt = completion_ground_truth(scene)
            for name in sums:
                completed = completers[name](partial, scene, cam)
                sums[name] += chamfer_l1(completed, gt)
            n += 1
        assert n >= 30
        assert sums["oracle"] < sums["mirror"] < sums["none"]
