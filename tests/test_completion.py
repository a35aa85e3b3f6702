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
from occlugrasp.tsdf import KERNEL_RADIUS_VOXELS, TsdfConfig, splat

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
                cluttered = corpus.frame(count_range, seed)
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


def voxel_set(cloud: PointCloud, voxel_size: float = 0.0075) -> set:
    """The index tuples of the voxels `cloud` occupies."""
    return {tuple(v) for v in np.floor(cloud.points / voxel_size).astype(np.int64)}


def reference_iou(a: PointCloud, b: PointCloud, voxel_size: float = 0.0075) -> float:
    """`volumetric_iou` as sets of voxel index tuples, before one int64 key per voxel."""
    occ_a, occ_b = voxel_set(a, voxel_size), voxel_set(b, voxel_size)
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

    def test_clouds_far_apart(self):
        # the box around both clouds' voxels held more voxels than an int64 index
        # reaches: a bare ValueError from `ravel_multi_index`
        rng = np.random.default_rng(6)
        a = with_normals(rng.uniform(0.0, 0.3, size=(300, 3)))
        far = with_normals(rng.uniform(0.0, 0.3, size=(300, 3)) + 1e6)
        for pair in ((a, far), (far, a)):
            with pytest.raises(InputError, match=r"within 524288 voxels \(3932.16 m\) of the origin"):
                volumetric_iou(*pair)

    @pytest.mark.parametrize("corner", [(1e6, 1e6, 1e6), (0.1, -1e6, 0.1), (1e300, -1e300, 0.1)])
    def test_one_cloud_spanning_far(self, corner):
        rng = np.random.default_rng(7)
        a = with_normals(rng.uniform(0.0, 0.1, size=(200, 3)))
        b = with_normals(np.vstack([rng.uniform(0.05, 0.15, size=(200, 3)), corner]))
        with pytest.raises(InputError, match="of the origin on each axis"):
            volumetric_iou(a, b)

    def test_points_at_the_reach(self):
        # the last voxel within reach on either side of the origin, and the first beyond
        reach = 2**19 * completion.IOU_VOXEL_SIZE
        a = with_normals(np.random.default_rng(8).uniform(0.0, 0.1, size=(50, 3)))
        inside = with_normals(np.vstack([a.points, [[-reach, reach - 0.01, 0.0]]]))
        assert volumetric_iou(a, inside) == reference_iou(a, inside) == len(voxel_set(a)) / (len(voxel_set(a)) + 1)
        for corner in ([reach, 0.0, 0.0], [0.0, 0.0, -reach - 0.01]):
            with pytest.raises(InputError, match="of the origin on each axis"):
                volumetric_iou(a, with_normals(np.vstack([a.points, [corner]])))

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

    queries = 0

    def query(self, x, k=1, distance_upper_bound=np.inf, **kwargs):
        _UnboundedTree.queries += 1
        return super().query(x, k=k, **kwargs)


def _fresh(cloud: PointCloud) -> PointCloud:
    """A new cloud of `cloud`'s arrays, without the tree `cloud` keeps from its first query."""
    return PointCloud(cloud.points, cloud.normals)


def _mirror_unbounded(completer, partial, scene, cam, monkeypatch):
    queries = _UnboundedTree.queries
    with monkeypatch.context() as mp:
        mp.setattr(scipy.spatial, "cKDTree", _UnboundedTree)
        completed = completer(_fresh(partial), scene, cam)
    assert _UnboundedTree.queries == queries + 1  # the dedupe queried the patched tree
    return completed


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
            MirrorCompleter()(_fresh(partial), scene, cam)
        assert len(distances) == 1
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
    """Every query of a cloud runs on the one tree the cloud keeps; each equals a
    fresh tree of scipy's defaults per query."""

    REACHES = (np.inf, completion.DEDUPE_RADIUS,
               max(TsdfConfig().truncation, KERNEL_RADIUS_VOXELS * TsdfConfig().voxel_size))

    def assert_fresh_tree_distances(self, clouds) -> int:
        """Queries each cloud with the points of the others, at every reach; the number of queries."""
        compared = 0
        for cloud in clouds:
            for other in clouds:
                if other is cloud:
                    continue
                for reach in self.REACHES:
                    want = cKDTree(cloud.points).query(other.points, k=1,
                                                       distance_upper_bound=np.nextafter(reach, np.inf))[0]
                    assert _nearest_distances(cloud, other.points, reach).tobytes() == want.tobytes()
                    compared += len(other)
            assert cloud._tree is cloud._tree
        return compared

    def test_episode_target_clouds(self):
        # the partial, kept reflected and completed clouds of the episode targets
        cam = default_camera(width=320, height=240, focal=270.0)
        compared = 0
        for seed in corpus.EPISODE_SEEDS:
            partial = rendered_partial(corpus.episode_scene(seed), cam)
            completed = MirrorCompleter()(partial, None, cam)
            kept = PointCloud(completed.points[len(partial):], completed.normals[len(partial):])
            compared += self.assert_fresh_tree_distances([c for c in (partial, kept, completed) if len(c)])
        assert compared > 0

    def test_dense_target_clouds(self):
        # the completed clouds `grasp_clutter` samples from, against their ground truth, at 640x480
        compared = 0
        for seed in range(0, 16, 3):
            gt = completion_ground_truth(corpus.dense_scene(seed))
            compared += self.assert_fresh_tree_distances([corpus.clutter_cloud(seed), gt])
        assert compared > 0


class _CountingTree(cKDTree):
    """A `cKDTree` that counts the trees built and the queries made."""

    built = queried = 0

    def __init__(self, *args, **kwargs):
        _CountingTree.built += 1
        super().__init__(*args, **kwargs)

    def query(self, *args, **kwargs):
        _CountingTree.queried += 1
        return super().query(*args, **kwargs)


class TestOneTreePerCloud:
    def test_episode_chain_builds_three_trees(self, monkeypatch):
        # `episode`'s completion, metrics and target grid query four times: the mirror
        # dedupe on the partial cloud, `chamfer_l1` on the ground truth and on the
        # completed cloud, and `splat` on the completed cloud again, whose tree it
        # reuses; a tree per query built four
        monkeypatch.setattr(scipy.spatial, "cKDTree", _CountingTree)
        cam, scheme = default_camera(), BinScheme.test()
        chains = 0
        for seed in range(6):
            scene = corpus.episode_scene(seed)
            cluttered = corpus.frame(corpus.EPISODE_OBJECTS, seed)
            single = render(derive_single_scene(scene, scene.target_index), cam)
            if occlusion_level(single, cluttered, scene.target_index, scheme).bin_index is None:
                continue
            _CountingTree.built = _CountingTree.queried = 0
            partial = back_project(cluttered, scene.target_index)
            completed = MirrorCompleter()(partial, scene, cam)
            assert len(completed) > len(partial), seed
            gt = completion_ground_truth(scene)
            chamfer_l1(completed, gt)
            volumetric_iou(completed, gt)
            splat(completed)
            assert (_CountingTree.built, _CountingTree.queried) == (3, 4), seed
            chains += 1
        assert chains >= 4

    def test_a_passed_through_cloud_keeps_its_tree(self, monkeypatch):
        monkeypatch.setattr(scipy.spatial, "cKDTree", _CountingTree)
        _CountingTree.built = 0
        cloud = with_normals(np.random.default_rng(9).uniform(0.1, 0.2, size=(64, 3)))
        _nearest_distances(cloud, cloud.points[:5])
        tree = cloud._tree
        other = with_normals(cloud.points[::-1])
        chamfer_l1(cloud, other)
        assert PassthroughCompleter()(cloud)._tree is tree
        assert _CountingTree.built == 2
        # an equal cloud is another cloud, with a tree of its own
        assert _fresh(cloud)._tree is not tree


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
