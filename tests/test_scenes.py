import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlugrasp import scenes as scenes_module
from occlugrasp.errors import GenerationError, InputError
from occlugrasp.geometry import Pose, quaternion_about_axis
from occlugrasp.meshes import CYLINDER_SEGMENTS, _make_prism, make_box, surface_sample
from occlugrasp.scenes import (
    CatalogConfig,
    ObjectInstance,
    Scene,
    SceneConfig,
    build_catalog,
    derive_single_scene,
    enumerate_targets,
    generate_packed_scene,
    load_scene,
    polygon_distance,
    save_scene,
    scene_from_manifest,
    scene_to_manifest,
)

from . import corpus


def points_inside_mesh(points: np.ndarray, mesh, pose: Pose) -> np.ndarray:
    """Ray-parity containment oracle using brute-force all-triangle intersection,
    every point against every triangle at once."""
    inv = pose.inverse()
    local = inv.transform(points)
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    v1 = mesh.vertices[mesh.triangles[:, 1]]
    v2 = mesh.vertices[mesh.triangles[:, 2]]
    d = np.array([0.577350269, 0.577350269, 0.577350269])
    e1 = v1 - v0
    e2 = v2 - v0
    p = np.cross(d, e2)
    det = np.einsum("ij,ij->i", e1, p)
    ok = np.abs(det) > 1e-14
    s = local[:, None] - v0  # (point, triangle, 3)
    u = np.einsum("nij,ij->ni", s, p) / np.where(ok, det, 1.0)
    q = np.cross(s, e1)
    v = np.einsum("j,nij->ni", d, q) / np.where(ok, det, 1.0)
    t = np.einsum("ij,nij->ni", e2, q) / np.where(ok, det, 1.0)
    hits = ok & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 1e-9)
    return hits.sum(axis=1) % 2 == 1


def meshes_interpenetrate(inst_a, inst_b, n_samples: int = 400) -> bool:
    sa = surface_sample(inst_a.mesh, n_samples, seed=5).transformed(inst_a.pose)
    sb = surface_sample(inst_b.mesh, n_samples, seed=6).transformed(inst_b.pose)
    return bool(
        points_inside_mesh(sa.points, inst_b.mesh, inst_b.pose).any()
        or points_inside_mesh(sb.points, inst_a.mesh, inst_a.pose).any()
    )


class TestCatalog:
    def test_deterministic(self):
        a = build_catalog(CatalogConfig(seed=3, size=20))
        b = build_catalog(CatalogConfig(seed=3, size=20))
        for oa, ob in zip(a, b):
            assert oa.catalog_id == ob.catalog_id
            assert np.array_equal(oa.mesh.vertices, ob.mesh.vertices)

    def test_all_primitives_watertight(self):
        for obj in build_catalog(CatalogConfig(seed=1, size=12)):
            assert obj.mesh.is_closed_outward, obj.catalog_id

    def test_default_catalog_closed_outward(self):
        # `render` culls the back faces of exactly these meshes
        for obj in corpus.catalog():
            assert obj.mesh.is_closed_outward, obj.catalog_id

    # each raised a bare TypeError, ValueError or OverflowError, built an empty
    # catalog, or (box_side=(0.1,)) drew boxes from [0.1, 1.0)
    BAD = [{"size": 2.5}, {"box_side": (0.09, 0.03)}, {"height": (float("nan"), 0.1)}, {"size": 0},
           {"box_side": (0.1,)}, {"size": -3}, {"size": True}, {"size": "4"}, {"sphere_radius": (0.0, 0.03)},
           {"cylinder_radius": (-0.02, 0.03)}, {"hex_circumradius": (0.02, float("inf"))},
           {"height": (0.05, 0.1, 0.2)}, {"box_side": 0.05}, {"box_side": ("0.03", "0.09")},
           {"height": (True, True)}]

    @pytest.mark.parametrize("bad", BAD)
    def test_malformed_config_rejected(self, bad):
        with pytest.raises(InputError):
            build_catalog(CatalogConfig(**bad))

    @pytest.mark.parametrize("bad", BAD)
    def test_malformed_manifest_catalog_rejected(self, bad):
        data = scene_to_manifest(corpus.scene((2, 2), 4), CatalogConfig())
        data["catalog"].update(json.loads(json.dumps(bad)))
        with pytest.raises(InputError):
            scene_from_manifest(data)

    def test_range_must_be_a_tuple(self):
        # a list would pass `build_catalog` but leave the config unhashable for the shared catalog
        with pytest.raises(InputError):
            CatalogConfig(box_side=[0.03, 0.09])

    def test_degenerate_range_and_numpy_size_accepted(self):
        catalog = build_catalog(CatalogConfig(size=np.int64(4), box_side=(0.05, 0.05), height=(0.1, 0.1)))
        assert len(catalog) == 4
        vertices = catalog[0].mesh.vertices
        assert catalog[0].height == 0.1
        assert (vertices.max(axis=0) - vertices.min(axis=0))[:2].tolist() == [0.05, 0.05]

    def test_prisms_match_the_written_out_polygon(self):
        # each maker once wrote its own `ang = 2 pi k / n; r [cos, sin]`; the first
        # vertex is (r, 0) exactly, and the top is the height
        sides = {"cylinder": CYLINDER_SEGMENTS, "hex": 6}
        checked = 0
        for obj in corpus.catalog():
            kind = obj.catalog_id.split("_")[0]
            if kind in sides:
                n, verts = sides[kind], obj.mesh.vertices
                ang = 2.0 * np.pi * np.arange(n) / n
                want = _make_prism(verts[0, 0] * np.column_stack([np.cos(ang), np.sin(ang)]), verts[:, 2].max())
                assert verts.tobytes() == want.vertices.tobytes(), obj.catalog_id
                assert np.array_equal(obj.mesh.triangles, want.triangles), obj.catalog_id
                checked += 1
        assert checked == 50


# ---------------------------------------------------------------------------
# reference footprint: the catalog's footprint before it read the extrusion's
# ring, the monotone-chain convex hull of the mesh's xy projection, or the
# 24-gon circumscribing a sphere


def reference_convex_hull_xy(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain over xy projections; returns CCW hull."""
    pts = np.unique(np.round(points[:, :2], 12), axis=0)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    if len(pts) <= 2:
        return pts

    def cross2(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross2(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.asarray(lower[:-1] + upper[:-1])


def reference_footprint(obj) -> np.ndarray:
    if not obj.catalog_id.startswith("sphere_"):
        return reference_convex_hull_xy(obj.mesh.vertices)
    r = obj.mesh.vertices[:, 2].max() / 2.0 / math.cos(math.pi / 24)  # the north pole is at z = 2 radius
    ang = 2 * np.pi * np.arange(24) / 24
    return r * np.column_stack([np.cos(ang), np.sin(ang)])


class TestFootprintMatchesHull:
    @pytest.mark.parametrize("config", [CatalogConfig(), CatalogConfig(seed=7, size=400)], ids=["default", "seed7"])
    def test_every_footprint(self, config):
        catalog = corpus.catalog() if config == CatalogConfig() else build_catalog(config)
        for obj in catalog:
            want = reference_footprint(obj)
            assert obj.footprint_poly.shape == want.shape, obj.catalog_id
            assert obj.footprint_poly.tobytes() == want.tobytes(), obj.catalog_id
            assert not obj.footprint_poly.flags.writeable
        assert {obj.catalog_id.split("_")[0] for obj in catalog} == {"box", "cylinder", "hex", "sphere"}


class TestPolygonDistance:
    def test_overlapping_is_zero(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]])
        assert polygon_distance(sq, sq + 0.5) == 0.0

    def test_separated_squares(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]])
        assert abs(polygon_distance(sq, sq + np.array([2.0, 0.0])) - 1.0) < 1e-12

    def test_diagonal_separation(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]])
        d = polygon_distance(sq, sq + np.array([2.0, 2.0]))
        assert abs(d - np.sqrt(2.0)) < 1e-12


# ---------------------------------------------------------------------------
# reference oracle: the per-edge separating-axis and distance loops that
# `polygon_distance` replaced


def _polygons_intersect(p: np.ndarray, q: np.ndarray) -> bool:
    """SAT over both polygons' edge normals (convex, CCW)."""
    for poly_a, poly_b in ((p, q), (q, p)):
        edges = np.roll(poly_a, -1, axis=0) - poly_a
        normals = np.column_stack([-edges[:, 1], edges[:, 0]])
        for n in normals:
            if (poly_b @ n).max() < (poly_a @ n).min():
                return False
    return True


def _segment_point_dist(a, b, pts):
    ab = b - a
    t = np.clip(((pts - a) @ ab) / max(float(ab @ ab), 1e-300), 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.linalg.norm(pts - proj, axis=1).min()


def reference_polygon_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Euclidean separation between two convex polygons (0 if they overlap)."""
    if _polygons_intersect(p, q):
        return 0.0
    best = math.inf
    for poly_a, poly_b in ((p, q), (q, p)):
        for i in range(len(poly_a)):
            a = poly_a[i]
            b = poly_a[(i + 1) % len(poly_a)]
            best = min(best, _segment_point_dist(a, b, poly_b))
    return best


def footprint_pairs(n: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pairs of catalog footprints at random yaw, in turn: overlapping or apart by
    up to 3 mm, touching, within 10 um of the 1 mm margin, two boxes sharing an
    edge, and a footprint holding a shrunken copy of itself."""
    catalog = corpus.catalog()
    boxes = [obj.footprint_poly for obj in catalog if obj.catalog_id.startswith("box_")]
    rng = np.random.default_rng(seed)

    def posed(poly, at):
        yaw = rng.uniform(0.0, 2 * math.pi)
        return poly @ np.array([[math.cos(yaw), -math.sin(yaw)], [math.sin(yaw), math.cos(yaw)]]).T + at

    pairs = []
    for i in range(n):
        a = posed(catalog[rng.integers(len(catalog))].footprint_poly, rng.uniform(0.05, 0.25, 2))
        kind = i % 5
        if kind < 3:
            # b's lowest vertex along the outward normal u of an edge of a goes to a
            # point inside that edge, moved by `gap` along u: the distance is the gap
            b = posed(catalog[rng.integers(len(catalog))].footprint_poly, 0.0)
            gap = (rng.uniform(-2e-3, 3e-3), 0.0, rng.uniform(0.99e-3, 1.01e-3))[kind]
            j = rng.integers(len(a))
            edge = a[(j + 1) % len(a)] - a[j]
            u = np.array([edge[1], -edge[0]]) / np.linalg.norm(edge)
            b = b + (a[j] + rng.uniform(0.2, 0.8) * edge + gap * u - b[np.argmin(b @ u)])
        elif kind == 3:
            # an axis-aligned box mirrored about its right edge: x = 2 right - x is exact there
            a = boxes[rng.integers(len(boxes))] + rng.uniform(0.05, 0.25, 2)
            b = (a * [-1.0, 1.0] + [2 * a[:, 0].max(), 0.0])[::-1]
        else:
            b = 0.5 * (a - a.mean(axis=0)) + a.mean(axis=0)
        pairs.append((a, b))
    return pairs


class TestPolygonDistanceMatchesLoop:
    def test_matches_reference_on_catalog_footprints(self):
        pairs = footprint_pairs(2000, seed=17)
        refs = [reference_polygon_distance(a, b) for a, b in pairs]
        for (a, b), ref in zip(pairs, refs):
            d = polygon_distance(a, b)
            assert (d < 1e-3) == (ref < 1e-3)
            assert abs(d - ref) <= 1e-15
            assert (d == 0.0) == (ref == 0.0)
            assert polygon_distance(b, a) == d
        # the corpus holds overlaps and both outcomes close to the margin
        near = [ref for ref in refs if 0.9e-3 < ref < 1.1e-3]
        assert sum(ref == 0.0 for ref in refs) > 500
        assert sum(ref < 1e-3 for ref in near) > 50 and sum(ref >= 1e-3 for ref in near) > 50

    def test_scenes_equal_with_the_reference(self, monkeypatch):
        catalog = corpus.catalog()
        configs = [SceneConfig(object_count_range=count_range, seed=seed)
                   for count_range in (corpus.EPISODE_OBJECTS, corpus.DENSE_OBJECTS) for seed in corpus.GENERATION_SEEDS]
        fast = [scene_key(scene) for scene in corpus.generation_scenes()]
        monkeypatch.setattr(scenes_module, "polygon_distance", reference_polygon_distance)
        assert [scene_key(generate_packed_scene(c, catalog)) for c in configs] == fast


class TestGeneratePacked:
    def test_single_object_is_target(self):
        scene = corpus.scene((1, 1), 5)
        assert len(scene.instances) == 1
        assert scene.target_index == 0

    def test_deterministic(self):
        cfg = SceneConfig(object_count_range=(5, 5), seed=42)
        a = generate_packed_scene(cfg)
        b = generate_packed_scene(cfg)
        assert a.target_index == b.target_index
        for ia, ib in zip(a.instances, b.instances):
            assert ia.catalog_id == ib.catalog_id
            assert ia.pose.as_7floats() == ib.pose.as_7floats()

    def test_instances_inside_workspace_and_resting(self):
        cfg = SceneConfig(object_count_range=(4, 6), seed=7)
        for s in range(20):
            scene = corpus.scene((4, 6), s)
            for inst in scene.instances:
                world = inst.pose.transform(inst.mesh.vertices)
                assert world.min() > -1e-9
                assert world[:, :2].max() < cfg.workspace_extent + 1e-9
                assert world[:, 2].max() < cfg.workspace_extent + 1e-9
                assert abs(world[:, 2].min()) < 1e-6

    def test_yaw_only_rotation(self):
        scene = corpus.scene((5, 5), 11)
        up = np.array([0.0, 0.0, 1.0])
        for inst in scene.instances:
            assert np.allclose(inst.pose.rotation.rotate(up), up, atol=1e-12)

    def test_no_interpenetration_brute_force(self):
        # scaled-down version of the exhaustive pairwise oracle sweep
        for s in range(30):
            scene = corpus.scene((5, 5), 1000 + s)
            n = len(scene.instances)
            for i in range(n):
                for j in range(i + 1, n):
                    assert not meshes_interpenetrate(scene.instances[i], scene.instances[j]), (
                        f"seed {1000 + s}: instances {i},{j} interpenetrate"
                    )

    def test_bad_count_range_rejected(self):
        with pytest.raises(InputError):
            generate_packed_scene(SceneConfig(object_count_range=(0, 3)))
        with pytest.raises(InputError):
            generate_packed_scene(SceneConfig(object_count_range=(2, 11)))

    @pytest.mark.parametrize("count_range", [(1.5, 3), (2, 3.0), (True, 3), ("2", 3), (2, None)])
    def test_count_range_of_integers(self, count_range):
        # (1.5, 3) built a scene
        with pytest.raises(InputError, match="object_count_range"):
            generate_packed_scene(SceneConfig(object_count_range=count_range))

    def test_numpy_integer_count_range_accepted(self):
        want = generate_packed_scene(SceneConfig(object_count_range=(2, 3), seed=5))
        got = generate_packed_scene(SceneConfig(object_count_range=(np.int64(2), np.int32(3)), seed=5))
        assert got == want

    @pytest.mark.parametrize("catalog", [None, {"size": 3}, [CatalogConfig()]])
    def test_catalog_config_must_be_a_catalog_config(self, catalog):
        # None raised a bare AttributeError, and a dict a bare TypeError, as it does not hash
        with pytest.raises(InputError, match="CatalogConfig"):
            generate_packed_scene(SceneConfig(catalog=catalog))

    @pytest.mark.parametrize("config", ["c", None, CatalogConfig()])
    def test_config_must_be_a_scene_config(self, config):
        # "c" raised a bare AttributeError: no attribute 'object_count_range'
        with pytest.raises(InputError, match="SceneConfig"):
            generate_packed_scene(config)

    @pytest.mark.parametrize("catalog", [[1, 2], "ab", CatalogConfig(), [CatalogConfig()]])
    def test_catalog_must_hold_catalog_objects(self, catalog):
        # [1, 2] raised a bare AttributeError: no attribute 'height'
        with pytest.raises(InputError, match="catalog"):
            generate_packed_scene(SceneConfig(), catalog)

    def test_empty_catalog_rejected(self):
        # an empty catalog raised a bare ValueError from `Generator.integers`
        with pytest.raises(InputError, match="empty"):
            generate_packed_scene(SceneConfig(), [])

    @pytest.mark.parametrize("extent", [math.nan, math.inf, 0.0])
    def test_workspace_extent_must_be_finite_and_positive(self, extent):
        # `Generator.uniform` raises a bare OverflowError for a NaN or infinite span
        with pytest.raises(InputError, match="workspace_extent"):
            generate_packed_scene(SceneConfig(workspace_extent=extent))

    def test_placement_failure_names_instance(self):
        # a workspace too small for any catalog object
        cfg = SceneConfig(object_count_range=(1, 1), workspace_extent=0.01, seed=0)
        with pytest.raises(GenerationError, match="instance 0"):
            generate_packed_scene(cfg)


class TestDeriveSingle:
    def test_keeps_target_pose_exactly(self):
        scene = corpus.scene((5, 5), 3)
        single = derive_single_scene(scene, 2)
        assert len(single.instances) == 1
        assert single.instances[0].pose.as_7floats() == scene.instances[2].pose.as_7floats()
        assert single.seed == scene.seed

    def test_idempotent_on_single(self):
        scene = corpus.scene((1, 1), 9)
        again = derive_single_scene(scene, 0)
        assert again.instances[0].pose.as_7floats() == scene.instances[0].pose.as_7floats()

    @pytest.mark.parametrize("bad", ["s", None, SceneConfig()])
    def test_scene_must_be_a_scene(self, bad):
        # "s" raised a bare AttributeError: no attribute 'instances'
        with pytest.raises(InputError, match="scene"):
            derive_single_scene(bad, 0)
        with pytest.raises(InputError, match="scene"):
            enumerate_targets(bad)
        with pytest.raises(InputError, match="scene"):
            scene_to_manifest(bad, CatalogConfig())

    def test_invalid_index(self):
        scene = corpus.scene((2, 2), 1)
        with pytest.raises(InputError):
            derive_single_scene(scene, 5)

    @pytest.mark.parametrize("index", [1.5, "1", None])
    def test_index_must_be_an_integer(self, index):
        scene = corpus.scene((2, 2), 1)
        with pytest.raises(InputError):
            derive_single_scene(scene, index)


class TestEnumerateTargets:
    def test_one_scene_per_instance(self):
        scene = corpus.scene((5, 5), 13)
        variants = enumerate_targets(scene)
        assert len(variants) == len(scene.instances)
        assert [v.target_index for v in variants] == list(range(len(scene.instances)))
        for v in variants:
            assert v.instances is scene.instances

    def test_single_object(self):
        scene = corpus.scene((1, 1), 2)
        assert len(enumerate_targets(scene)) == 1

    def test_union_of_singles_is_distinct(self):
        scene = corpus.scene((5, 5), 17)
        singles = [derive_single_scene(v, v.target_index) for v in enumerate_targets(scene)]
        keys = {tuple(s.instances[0].pose.as_7floats()) + (s.instances[0].catalog_id,) for s in singles}
        assert len(keys) == len(scene.instances)


class TestSceneFields:
    @pytest.mark.parametrize("bad", ["ab", None, 3])
    def test_instances_must_be_a_tuple(self, bad):
        with pytest.raises(InputError, match="instances"):
            Scene(bad, 0, 0)

    @pytest.mark.parametrize("item", ["a", None, SceneConfig()])
    def test_each_instance_must_be_an_object_instance(self, item):
        # ("a",) raised a bare AttributeError in `render`: no attribute 'mesh'
        scene = corpus.scene((2, 2), 1)
        with pytest.raises(InputError, match="instances"):
            Scene((item,), 0, 0)
        with pytest.raises(InputError, match="instances"):
            Scene(scene.instances + (item,), 0, 0)

    @pytest.mark.parametrize("field, value", [("catalog_id", 7), ("catalog_id", None), ("mesh", "m"),
                                              ("mesh", None), ("pose", "p"), ("pose", np.zeros(7)),
                                              ("footprint_poly", "abc"), ("footprint_poly", np.zeros(2)),
                                              ("footprint_poly", np.zeros((2, 2))), ("footprint_poly", np.zeros((4, 3))),
                                              ("footprint_poly", [[0.0, 0.0], [0.1, 0.0], [np.nan, 0.1]]),
                                              ("footprint_poly", [[0.0, 0.0], [0.1, 0.0], [0.0, np.inf]])])
    def test_object_instance_fields_typed(self, field, value):
        # ObjectInstance("x", "m", pose) in a scene raised a bare AttributeError in `render`;
        # a footprint "abc" raised a bare UFuncTypeError from the footprint's box, and a
        # (2,) array gave a [0, 0] box, a NaN vertex a NaN box
        fields = {"catalog_id": "box", "mesh": make_box(0.1, 0.1, 0.1), "pose": Pose.identity()}
        with pytest.raises(InputError, match=field.split("_")[-1]):
            ObjectInstance(**{**fields, field: value})

    def test_footprint_poly_of_numbers_accepted(self):
        inst = ObjectInstance("box", make_box(0.1, 0.1, 0.1), Pose.identity(), [[0, 0], [0.1, 0], [0.1, 0.1]])
        assert inst.world_footprint_poly().tolist() == [[0.0, 0.0], [0.1, 0.0], [0.1, 0.1]]

    def test_instance_without_a_footprint_poly(self):
        # placement reads the polygon of every placed instance; None raised a bare ValueError
        inst = ObjectInstance("box", make_box(0.1, 0.1, 0.1), Pose.identity())
        with pytest.raises(InputError, match="footprint_poly"):
            inst.world_footprint_poly()

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        scene = corpus.scene((2, 2), 1)
        with pytest.raises(InputError, match="seed"):
            Scene(scene.instances, 0, seed)

    def test_numpy_integers_stored_as_ints(self, tmp_path):
        # NumPy integers passed the checks, then `save_scene` raised a bare
        # TypeError: Object of type int64 is not JSON serializable
        scene = Scene(corpus.scene((4, 4), 21).instances, np.int64(1), np.int64(3))
        assert (type(scene.target_index), type(scene.seed)) == (int, int)
        save_scene(tmp_path / "scene.json", scene, CatalogConfig())
        loaded = load_scene(tmp_path / "scene.json")
        assert (loaded.target_index, loaded.seed) == (1, 3)


class TestManifest:
    def test_round_trip(self, tmp_path):
        scene = corpus.scene((4, 4), 21)
        path = tmp_path / "scene.json"
        save_scene(path, scene, CatalogConfig())
        loaded = load_scene(path)
        assert loaded.target_index == scene.target_index
        for ia, ib in zip(scene.instances, loaded.instances):
            assert ia.catalog_id == ib.catalog_id
            assert ia.pose.as_7floats() == ib.pose.as_7floats()
            assert np.array_equal(ia.mesh.vertices, ib.mesh.vertices)

    @pytest.mark.parametrize("content", [b"not json {", b'{"seed": 1', b"\x89PNG\xff\xfe"], ids=["text", "cut", "binary"])
    def test_file_that_is_not_json(self, tmp_path, content):
        # a bare json.JSONDecodeError, or UnicodeDecodeError for bytes that are not UTF-8
        path = tmp_path / "scene.json"
        path.write_bytes(content)
        with pytest.raises(InputError, match="not JSON"):
            load_scene(path)

    def test_manifest_with_a_workspace_extent_loads(self):
        # manifests once recorded the workspace size, which no scene keeps now
        data = scene_to_manifest(corpus.scene((3, 3), 8), CatalogConfig())
        assert "workspace_extent" not in data
        loaded = scene_from_manifest({**data, "workspace_extent": 0.3})
        assert scene_to_manifest(loaded, CatalogConfig()) == data

    def test_manifest_is_stable_json(self):
        cfg = SceneConfig(object_count_range=(3, 3), seed=8)
        scene = generate_packed_scene(cfg)
        a = json.dumps(scene_to_manifest(scene, cfg.catalog), sort_keys=True)
        b = json.dumps(scene_to_manifest(generate_packed_scene(cfg), cfg.catalog), sort_keys=True)
        assert a == b

    @pytest.mark.parametrize("bad", ["c", None, [1, 2]])
    def test_catalog_config_and_catalog_must_have_their_types(self, bad):
        # "c" raised a bare AttributeError: no attribute 'seed', and [1, 2] one for 'catalog_id'
        scene = corpus.scene((2, 2), 4)
        with pytest.raises(InputError, match="catalog_config"):
            scene_to_manifest(scene, bad)
        if bad is not None:  # None is the manifest's own catalog
            with pytest.raises(InputError, match="catalog"):
                scene_from_manifest(scene_to_manifest(scene, CatalogConfig()), bad)

    def test_unknown_catalog_id(self):
        data = scene_to_manifest(corpus.scene((2, 2), 4), CatalogConfig())
        data["instances"][0]["catalog_id"] = "mystery_999"
        with pytest.raises(InputError):
            scene_from_manifest(data)

    @pytest.mark.parametrize("path", [("seed",), ("catalog",), ("catalog", "height"), ("instances",),
                                      ("instances", 1, "pose"), ("instances", 0, "catalog_id")])
    def test_missing_key(self, path):
        data = scene_to_manifest(corpus.scene((2, 2), 4), CatalogConfig())
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        with pytest.raises(InputError, match=repr(path[-1])):
            scene_from_manifest(data)

    @pytest.mark.parametrize("pose", [[1.0, 0.0, 0.0, 0.0, 0.1, 0.1], [1.0] * 8, "identity", None,
                                      [1.0, 0.0, 0.0, 0.0, 0.1, 0.1, "z"], {"w": 1.0}])
    def test_pose_not_seven_floats(self, pose):
        data = scene_to_manifest(corpus.scene((2, 2), 4), CatalogConfig())
        data["instances"][1]["pose"] = pose
        with pytest.raises(InputError, match="7 floats"):
            scene_from_manifest(data)

    @pytest.mark.parametrize("rotation", [[math.nan, 0.0, 0.0, 1.0], [1.0, 0.0, math.inf, 0.0]])
    def test_pose_rotation_not_finite(self, rotation):
        data = scene_to_manifest(corpus.scene((2, 2), 4), CatalogConfig())
        data["instances"][1]["pose"] = rotation + [0.1, 0.1, 0.0]
        with pytest.raises(InputError, match="finite"):
            scene_from_manifest(data)

    @pytest.mark.parametrize("translation", [[math.nan, 0.1, 0.0], [0.1, math.inf, 0.0]])
    def test_pose_translation_not_finite(self, translation):
        # a NaN translation would give the instance a NaN world_aabb
        data = scene_to_manifest(corpus.scene((2, 2), 4), CatalogConfig())
        data["instances"][1]["pose"] = [1.0, 0.0, 0.0, 0.0] + translation
        with pytest.raises(InputError, match="finite"):
            scene_from_manifest(data)

    @pytest.mark.parametrize("key,value", [("target_index", "1"), ("target_index", 1.5), ("target_index", True),
                                           ("target_index", None), ("instances", 5), ("instances", [5])])
    def test_value_of_the_wrong_type(self, key, value):
        data = scene_to_manifest(corpus.scene((2, 2), 4), CatalogConfig())
        data[key] = value
        with pytest.raises(InputError):
            scene_from_manifest(data)

    @pytest.mark.parametrize("data", [{"catalog": {}}, {}, {"catalog": None}, {"catalog": {"seed": 0}}])
    def test_catalog_config_without_its_keys(self, data):
        # {"catalog": {}} raised a bare KeyError: 'seed'
        with pytest.raises(InputError):
            scene_from_manifest(data)

    def test_numpy_integer_target_index_accepted(self):
        scene = corpus.scene((2, 2), 4)
        assert Scene(scene.instances, np.int64(1), 0).target is scene.instances[1]


def scene_key(scene: Scene) -> list:
    return [scene.target_index] + [(inst.catalog_id, inst.pose.as_7floats()) for inst in scene.instances]


# ---------------------------------------------------------------------------
# reference oracle: the placement loop that tested each placed instance in
# turn, before the broad phase became array passes over the placed
# instances; it builds the pose before the tests


def reference_footprint_gap(lo: np.ndarray, hi: np.ndarray, other: np.ndarray) -> float:
    """Gap between the xy boxes (lo, hi) and `other`'s: the larger of the x and y gaps.

    The distance between two polygons is at least the gap between their boxes.
    """
    return float(np.max(np.maximum(other.min(axis=0) - hi, lo - other.max(axis=0))))


def reference_place_instance(obj, extent, placed, rng, position=None, yaw=None):
    margin = scenes_module.PLACEMENT_MARGIN
    if obj.height > extent:
        return None
    yaw = rng.uniform(0.0, 2.0 * math.pi) if yaw is None else yaw
    rot = quaternion_about_axis((0.0, 0.0, 1.0), yaw)
    cos, sin = math.cos(yaw), math.sin(yaw)
    rot2d = np.array([[cos, -sin], [sin, cos]])
    poly = obj.footprint_poly @ rot2d.T
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    if position is None:
        span_lo = -lo
        span_hi = extent - hi
        if (span_hi <= span_lo).any():
            return None
        position = rng.uniform(span_lo, span_hi)
    else:
        position = np.asarray(position, dtype=float)
        if (position + lo < -1e-12).any() or (position + hi > extent + 1e-12).any():
            return None
    world_poly = poly + position
    world_lo, world_hi = lo + position, hi + position
    for other in placed.instances:
        other_poly = other.world_footprint_poly()
        if reference_footprint_gap(world_lo, world_hi, other_poly) > margin + 1e-9:
            continue
        if scenes_module.polygon_distance(world_poly, other_poly) < margin:
            return None
    return Pose(rot, np.array([position[0], position[1], 0.0]))


class ScriptedRng:
    """A generator whose `uniform` returns the given draws in turn, whatever
    its bounds: for `_place_instance`, the yaw, then x and y."""

    def __init__(self, *draws):
        self.draws = iter(draws)

    def uniform(self, low, high):
        return next(self.draws)


class TestPlacementBroadPhase:
    @pytest.mark.parametrize("count_range, seeds", [((4, 6), range(200)), ((8, 10), range(200))])
    def test_matches_every_pair_loop(self, count_range, seeds, monkeypatch):
        catalog = corpus.catalog()
        configs = [SceneConfig(object_count_range=count_range, seed=seed) for seed in seeds]
        calls = []
        distance = scenes_module.polygon_distance

        def recorded(p, q):
            calls.append((p.tobytes(), q.tobytes()))
            return distance(p, q)

        monkeypatch.setattr(scenes_module, "polygon_distance", recorded)
        fast = [scene_key(generate_packed_scene(c, catalog)) for c in configs]
        fast_calls, calls[:] = calls[:], []
        monkeypatch.setattr(scenes_module, "_place_instance", reference_place_instance)
        assert [scene_key(generate_packed_scene(c, catalog)) for c in configs] == fast
        # the pairs that reach polygon_distance are the loop's, in its order,
        # less those of the attempts that the inradius discs reject
        loop_calls = iter(calls[:])
        assert all(call in loop_calls for call in fast_calls)
        assert len(fast_calls) < len(calls) / 2
        calls.clear()
        # a gap of -inf skips no pair: every placed instance meets polygon_distance
        monkeypatch.setitem(globals(), "reference_footprint_gap", lambda *args: -math.inf)
        assert [scene_key(generate_packed_scene(c, catalog)) for c in configs] == fast
        assert len(fast_calls) < len(calls) / 2

    def test_pose_built_for_accepted_attempts_only(self, monkeypatch):
        catalog = corpus.catalog()
        built = [0]
        about_axis = scenes_module.quaternion_about_axis

        def counted(axis, angle):
            built[0] += 1
            return about_axis(axis, angle)

        monkeypatch.setattr(scenes_module, "quaternion_about_axis", counted)
        attempts = [0]
        place = scenes_module._place_instance

        def attempt(*args, **kwargs):
            attempts[0] += 1
            return place(*args, **kwargs)

        monkeypatch.setattr(scenes_module, "_place_instance", attempt)
        scenes = [generate_packed_scene(SceneConfig(object_count_range=(8, 10), seed=s), catalog) for s in range(5)]
        assert built[0] == sum(len(scene.instances) for scene in scenes) < attempts[0]

    def test_margin_decided_near_the_boundary(self):
        # two axis-aligned boxes side by side: the footprint distance is the x gap
        box = build_catalog(CatalogConfig(size=1))[0]
        length = box.mesh.vertices[:, 0].max() - box.mesh.vertices[:, 0].min()
        placed = scenes_module._Placed()
        placed.add(box, scenes_module._place_instance(box, 0.3, scenes_module._Placed(), ScriptedRng(0.0, 0.1, 0.15)))
        for gap, fits in ((0.5e-3, False), (0.95e-3, False), (0.999e-3, False), (1.001e-3, True), (5e-3, True)):
            second = scenes_module._place_instance(box, 0.3, placed, ScriptedRng(0.0, 0.1 + length + gap, 0.15))
            assert (second is not None) == fits, gap

    def test_inradius_of_every_catalog_footprint(self):
        # the distance from the origin to the nearest edge line, taken edge by edge
        for obj in corpus.catalog():
            poly = obj.footprint_poly.tolist()
            inner = []
            for (px, py), (qx, qy) in zip(poly, poly[1:] + poly[:1]):
                inner.append((px * qy - py * qx) / math.hypot(qx - px, qy - py))
            assert obj.footprint_inradius == pytest.approx(min(inner), rel=1e-12, abs=0.0)
            assert obj.footprint_inradius > 0.0
        square = build_catalog(CatalogConfig(size=1))[0]
        aside = dataclasses.replace(square, footprint_poly=square.footprint_poly + 1.0)
        assert aside.footprint_inradius == -math.inf
        # an origin on an edge has a disc of radius 0: the origin itself
        on_edge = dataclasses.replace(square, footprint_poly=square.footprint_poly - square.footprint_poly[0])
        assert on_edge.footprint_inradius == 0.0

    def test_origin_outside_the_footprint_rejects_nothing(self):
        # two footprints 0.1 beyond their origins, at opposite yaws with the
        # origins 0.5 mm apart: the footprints lie 0.2 apart, and the second
        # is placed; with a disc of radius 0 at each origin it was rejected
        square = build_catalog(CatalogConfig(size=1))[0]
        aside = dataclasses.replace(square, footprint_poly=square.footprint_poly + 0.1)
        placed = scenes_module._Placed()
        placed.add(aside, scenes_module._place_instance(aside, 1.0, placed, ScriptedRng(0.0, 0.5, 0.5)))
        assert scenes_module._place_instance(aside, 1.0, placed, ScriptedRng(math.pi, 0.5005, 0.5)) is not None
        assert reference_place_instance(aside, 1.0, placed, None, (0.5005, 0.5), math.pi) is not None

    @pytest.mark.parametrize("count_range", [(4, 6), (8, 10)])
    def test_off_origin_footprints_match_every_pair_loop(self, count_range, monkeypatch):
        # every footprint shifted off its object's origin: no disc rejects, and
        # the scenes and the pairs that reach polygon_distance are the loop's
        catalog = [dataclasses.replace(obj, footprint_poly=obj.footprint_poly + (0.01 - obj.footprint_poly[:, 0].min(), 0.0))
                   for obj in corpus.catalog()]
        assert all(obj.footprint_inradius == -math.inf for obj in catalog)
        configs = [SceneConfig(object_count_range=count_range, seed=seed) for seed in range(40)]
        calls = []
        distance = scenes_module.polygon_distance
        monkeypatch.setattr(scenes_module, "polygon_distance", lambda p, q: calls.append((p.tobytes(), q.tobytes()))
                            or distance(p, q))
        fast = [scene_key(generate_packed_scene(c, catalog)) for c in configs]
        fast_calls, calls[:] = calls[:], []
        monkeypatch.setattr(scenes_module, "_place_instance", reference_place_instance)
        assert [scene_key(generate_packed_scene(c, catalog)) for c in configs] == fast
        assert fast_calls == calls

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.integers(0, 99), st.integers(0, 99), st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi),
           st.floats(0.0, 2 * math.pi),
           st.one_of(st.tuples(st.just(True), st.floats(-4e-9, 4e-9)), st.tuples(st.just(False), st.floats(0.0, 2.0))))
    def test_inradius_discs_reject_only_overlaps(self, i, j, yaw1, yaw2, heading, distance_draw):
        # the origins lie within 4e-9 of the sum of the radii and the margin,
        # or anywhere within twice the sum of the radii
        catalog = corpus.catalog()
        first, second = catalog[i], catalog[j]
        radii = first.footprint_inradius + second.footprint_inradius
        margin = scenes_module.PLACEMENT_MARGIN
        near, draw = distance_draw
        apart = radii + margin + draw if near else draw * radii
        x, y = 0.5 + apart * math.cos(heading), 0.5 + apart * math.sin(heading)
        placed = scenes_module._Placed()
        placed.add(first, scenes_module._place_instance(first, 1.0, scenes_module._Placed(), ScriptedRng(yaw1, 0.5, 0.5)))
        calls = []

        def recorded(p, q):
            calls.append(polygon_distance(p, q))
            return calls[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenes_module, "polygon_distance", recorded)
            attempt = scenes_module._place_instance(second, 1.0, placed, ScriptedRng(yaw2, x, y))
        alone = scenes_module._Placed()
        alone.add(second, scenes_module._place_instance(second, 1.0, alone, ScriptedRng(yaw2, x, y)))
        distance = polygon_distance(alone.polys[0], placed.polys[0])
        fired = attempt is None and not calls
        if fired:
            assert distance < margin
        if math.hypot(x - 0.5, y - 0.5) < radii + margin - 2e-9:
            assert fired
        elif not fired:
            assert (attempt is None) == (distance < margin)

    def test_gap_is_a_lower_bound_on_distance(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]])
        lo, hi = sq.min(axis=0), sq.max(axis=0)
        others = [sq + np.array(shift) for shift in ([2.0, 0.0], [2.0, 2.0], [0.5, 3.0], [0.5, 0.5], [-1.5, 0.2])]
        gaps = scenes_module._footprint_gap(lo, hi, np.array([[o.min(axis=0), o.max(axis=0)] for o in others]))
        assert gaps.shape == (len(others),)
        for gap, other in zip(gaps, others):
            assert gap <= polygon_distance(sq, other) + 1e-15
            assert gap == reference_footprint_gap(lo, hi, other)
        assert scenes_module._footprint_gap(lo, hi, np.array([[[2.0, 0.5], [3.0, 1.5]]])).tolist() == [1.0]


class TestSharedCatalog:
    def test_calls_without_a_catalog_share_its_meshes(self):
        cfg = SceneConfig(object_count_range=(5, 5), seed=3)
        a = generate_packed_scene(cfg)
        b = generate_packed_scene(cfg)
        loaded = scene_from_manifest(scene_to_manifest(a, cfg.catalog))
        for ia, ib, il in zip(a.instances, b.instances, loaded.instances):
            assert ia.mesh is ib.mesh is il.mesh
            assert ia.footprint_poly is ib.footprint_poly

    def test_build_catalog_returns_a_fresh_catalog(self):
        cfg = CatalogConfig(seed=3, size=4)
        assert build_catalog(cfg)[0].mesh is not build_catalog(cfg)[0].mesh

    def test_footprints_are_read_only(self):
        scene = corpus.scene((3, 3), 4)
        for poly in [obj.footprint_poly for obj in build_catalog(CatalogConfig(size=8))] + [
            inst.footprint_poly for inst in scene.instances
        ]:
            with pytest.raises(ValueError):
                poly[0, 0] = 1.0

    def test_world_aabb_is_read_only(self):
        # the grasp oracle's broad phase reads these arrays of every instance
        for inst in corpus.scene((3, 3), 4).instances:
            for corner in inst.world_aabb:
                with pytest.raises(ValueError):
                    corner[0] = 1.0

    def test_placed_arrays_hold_the_posed_polygons_and_boxes(self):
        scene = corpus.dense_scene(4)
        by_id = {obj.catalog_id: obj for obj in corpus.catalog()}
        placed = scenes_module._Placed()
        for inst in scene.instances:
            placed.add(by_id[inst.catalog_id], inst.pose)
        for k, inst in enumerate(scene.instances):
            assert scene_key(Scene(tuple(placed.instances), 0, 0))[k + 1] == (inst.catalog_id, inst.pose.as_7floats())
            assert placed.instances[k].mesh is inst.mesh and placed.instances[k].footprint_poly is inst.footprint_poly
            yaw_rot = inst.pose.rotation.as_matrix()[:2, :2]
            world = inst.footprint_poly @ yaw_rot.T + inst.pose.translation[:2]
            assert np.array_equal(inst.world_footprint_poly(), world)
            assert np.array_equal(placed.polys[k], world)
            assert np.array_equal(placed.boxes[k], [world.min(axis=0), world.max(axis=0)])
            assert np.array_equal(placed.origins[k], inst.pose.translation[:2])
            assert placed.radii[k] == by_id[inst.catalog_id].footprint_inradius
