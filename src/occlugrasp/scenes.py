"""Packed tabletop scenes: procedural object catalog, collision-free placement,
and paired single-scene derivation.

Objects are placed upright in their canonical poses (yaw-only rotation) on the
table plane z=0, so removing any instance never changes another's pose. All
catalog shapes are convex extrusions (the sphere is bounded by its extruded
footprint disk), which makes footprint-polygon separation a sound
non-penetration certificate for placement. An extrusion's footprint is its
mesh's bottom ring, the first vertices, rounded to 12 decimals and started at
its lowest (x, y); the sphere's is a 24-gon circumscribing its equator.
An object keeps id, mesh, height and footprint; an instance keeps id, mesh
and pose, as only placement reads footprints.

A placement attempt is tested against what `_Placed` keeps of each placed
instance, in Python floats: its origin, footprint inradius and footprint box,
and its world footprint polygon. First the discs of the footprints' inradii
(`CatalogObject.footprint_inradius`) about the objects' origins: lying inside
the footprints, two discs nearer than the margin reject the attempt at once.
An object whose origin lies outside its footprint has no disc. Then one loop
over the instances in placement order: a box gap is a lower bound on the
polygon distance, so an instance whose gap exceeds the margin cannot reject
the attempt, and a near one goes to `polygon_distance`, which looks for a
separating axis before it measures any distance. A loop that tests each
placed instance in turn rejects every attempt that the discs reject, and
otherwise makes the same calls in the same order with the same arithmetic, so
every scene is the same.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .errors import (GenerationError, InputError, _check_items, _check_type, _finite_array, _finite_positive, _integer,
                     _positive_int, _rng, _seed)
from .geometry import Pose, Quaternion, quaternion_about_axis
from .meshes import (CYLINDER_SEGMENTS, TriMesh, _regular_polygon, make_box, make_cylinder, make_hex_prism,
                     make_sphere)


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class CatalogConfig:
    seed: int = 0
    size: int = 100
    # uniform sampling ranges for primitive dimensions, meters
    box_side: tuple[float, float] = (0.03, 0.09)
    cylinder_radius: tuple[float, float] = (0.015, 0.045)
    hex_circumradius: tuple[float, float] = (0.02, 0.05)
    sphere_radius: tuple[float, float] = (0.02, 0.035)
    height: tuple[float, float] = (0.05, 0.14)

    def __post_init__(self):
        # `range` and `rng.uniform` would take a bad size or range with a bare
        # error, or not at all: uniform(0.1) draws from [0.1, 1.0); a range
        # is a tuple, so that the config hashes for `_shared_catalog`
        if not _positive_int(self.size):
            raise InputError(f"catalog size must be a positive integer, got {self.size!r}")
        for f in dataclasses.fields(self):
            r = getattr(self, f.name)
            if isinstance(f.default, tuple) and not (
                    isinstance(r, tuple) and len(r) == 2 and all(map(_finite_positive, r)) and r[0] <= r[1]):
                raise InputError(f"catalog {f.name} must be 2 finite numbers with 0 < low <= high, got {r!r}")


@dataclass(frozen=True)
class CatalogObject:
    """A catalog primitive in its canonical frame; its id is its kind and index (`box_000`)."""

    catalog_id: str
    mesh: TriMesh
    height: float  # top of the mesh, which placement tests against the workspace size
    footprint_poly: np.ndarray  # convex CCW xy polygon bounding the solid, read-only

    @cached_property
    def footprint_inradius(self) -> float:
        """Radius of the largest disc about the origin inside the footprint, or -inf if the origin lies
        outside it, so that no disc of this object can reject a placement."""
        p = self.footprint_poly
        q = np.roll(p, -1, axis=0)
        # each edge's distance from the origin, positive on the inner side of a CCW edge
        inner = float(((p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]) / np.linalg.norm(q - p, axis=1)).min())
        return inner if inner >= 0.0 else -math.inf


# per kind, in catalog order: name, config ranges in draw order, mesh maker of the
# draws, and length of the footprint ring that starts the vertices (None: sphere)
_KINDS = (
    ("box", ("box_side", "box_side", "height"), make_box, 4),
    ("cylinder", ("cylinder_radius", "height"), make_cylinder, CYLINDER_SEGMENTS),
    ("hex", ("hex_circumradius", "height"), make_hex_prism, 6),
    ("sphere", ("sphere_radius",), make_sphere, None),
)


def build_catalog(config: CatalogConfig) -> list[CatalogObject]:
    """Deterministic procedural catalog of box/cylinder/hex-prism/sphere primitives."""
    _check_type(config, CatalogConfig, "config")
    rng = _rng(config.seed)
    out = []
    for i in range(config.size):
        kind, ranges, make, ring = _KINDS[i % len(_KINDS)]
        dims = [rng.uniform(*getattr(config, name)) for name in ranges]
        mesh = make(*dims)
        verts = mesh.vertices
        if ring is None:
            # circumscribed polygon so the footprint bound contains the full sphere
            poly = _regular_polygon(dims[0] / math.cos(math.pi / 24), 24)
        else:
            poly = np.round(verts[:ring, :2], 12)
            poly = np.roll(poly, -int(np.lexsort((poly[:, 1], poly[:, 0]))[0]), axis=0)
        poly.flags.writeable = False
        out.append(CatalogObject(f"{kind}_{i:03d}", mesh, float(verts[:, 2].max()), poly))
    return out


@lru_cache(maxsize=8)
def _shared_catalog(config: CatalogConfig) -> tuple[CatalogObject, ...]:
    """One catalog per config for callers that pass none; its objects are immutable."""
    return tuple(build_catalog(config))


# ---------------------------------------------------------------------------
# scene types


@dataclass(frozen=True)
class ObjectInstance:
    """A catalog object, by its id and mesh, at a pose."""

    catalog_id: str
    mesh: TriMesh
    pose: Pose

    def __post_init__(self):
        _check_type(self.catalog_id, str, "catalog_id")
        _check_type(self.mesh, TriMesh, "instance mesh")
        _check_type(self.pose, Pose, "instance pose")

    @cached_property
    def world_aabb(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) corners of the posed mesh's axis-aligned bounding box, read-only."""
        verts = self.pose.transform(self.mesh.vertices)
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi


@dataclass(frozen=True)
class Scene:
    instances: tuple[ObjectInstance, ...]
    target_index: int
    seed: int

    def __post_init__(self):
        _check_items(self.instances, ObjectInstance, "scene instances")
        # Python ints, so that a NumPy integer reaches no JSON manifest
        object.__setattr__(self, "seed", _seed(self.seed))
        if not _integer(self.target_index):
            raise InputError(f"target_index must be an integer, got {self.target_index!r}")
        if not 0 <= self.target_index < len(self.instances):
            raise InputError(f"target_index {self.target_index} out of range")
        object.__setattr__(self, "target_index", int(self.target_index))

    @property
    def target(self) -> ObjectInstance:
        return self.instances[self.target_index]

    def mesh_set(self) -> list[tuple[TriMesh, Pose]]:
        return [(inst.mesh, inst.pose) for inst in self.instances]


# ---------------------------------------------------------------------------
# 2D separation between convex footprint polygons


def polygon_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Euclidean separation between two convex CCW polygons (0 if they overlap).

    Each side takes one polygon as `a` and the other as `b`. The polygons are
    apart if an edge normal of `a` has all of `b` below all of `a` (the
    separating axis test), and their distance is the least one from a vertex
    of one to an edge of the other. The test runs on both sides before any
    distance: two convex polygons with no separating edge normal on either
    side overlap, and the answer is 0.0 whatever the distances are, so
    measuring them only for polygons that are apart changes no result. In
    dense scenes most pairs that reach this function overlap. Each side is one
    pass over all its edges and (edge, vertex) pairs; the dot products are
    stacks of per-edge matrix-vector products, the ones a loop over the edges
    would take. Polygons that are not (n, 2) arrays of finite numbers with n >= 3
    raise `InputError`.
    """
    p, q = (_finite_array(a, (-1, 2), "polygons must be (n, 2) arrays of finite numbers") for a in (p, q))
    if min(len(p), len(q)) < 3:
        raise InputError(f"polygons need at least 3 vertices, got {len(p)} and {len(q)}")
    sides, apart = [], False
    for a, b in ((p, q), (q, p)):
        edges = np.concatenate((a[1:], a[:1])) - a
        if not apart:
            normals = (edges[:, ::-1] * (-1.0, 1.0))[:, None]  # (-ey, ex) per edge: (edge, 1, xy)
            apart = bool(((normals @ b.T).max(axis=2) < (normals @ a.T).min(axis=2)).any())
        sides.append((a, b, edges))
    if not apart:
        return 0.0
    best = math.inf
    for a, b, edges in sides:
        start, row, col = a[:, None], edges[:, None], edges[:, :, None]
        t = np.clip(((b - start) @ col) / np.maximum(row @ col, 1e-300), 0.0, 1.0)  # (edge, vertex, 1)
        best = min(best, float(np.linalg.norm(b - (start + t * row), axis=2).min()))
    return best


# ---------------------------------------------------------------------------
# packed generation


WORKSPACE_EXTENT = 0.3  # edge (m) of the workspace cube, the 30 cm of VGN that TARGO keeps
MAX_PLACEMENT_ATTEMPTS = 1000  # draws per instance before generation gives up
PLACEMENT_MARGIN = 1e-3  # least footprint separation (m) between two instances


@dataclass(frozen=True)
class SceneConfig:
    """What a packed scene is drawn from, by default in the `WORKSPACE_EXTENT` cube. Each
    instance gets up to `MAX_PLACEMENT_ATTEMPTS` draws, and instances keep
    `PLACEMENT_MARGIN` apart."""

    object_count_range: tuple[int, int] = (4, 6)
    workspace_extent: float = WORKSPACE_EXTENT
    catalog: CatalogConfig = field(default_factory=CatalogConfig)
    seed: int = 0


class _Placed:
    """The instances placed so far, and what every attempt reads of each, in
    placement order: the disc (origin x, y and footprint inradius) and the
    footprint (box lo x, lo y, hi x, hi y and world polygon)."""

    def __init__(self):
        self.instances: list[ObjectInstance] = []
        self.discs: list[tuple[float, float, float]] = []
        self.footprints: list[tuple[float, float, float, float, np.ndarray]] = []

    def add(self, obj: CatalogObject, pose: Pose) -> None:
        """Place an instance of `obj` at `pose`."""
        poly = obj.footprint_poly @ pose.rotation.as_matrix()[:2, :2].T + pose.translation[:2]
        self.instances.append(ObjectInstance(obj.catalog_id, obj.mesh, pose))
        self.discs.append((*pose.translation[:2].tolist(), obj.footprint_inradius))
        self.footprints.append((*poly.min(axis=0).tolist(), *poly.max(axis=0).tolist(), poly))


def _place_instance(obj: CatalogObject, extent: float, placed: _Placed, rng: np.random.Generator) -> Pose | None:
    """The pose of an accepted attempt to place `obj`, or None."""
    if obj.height > extent:
        return None
    yaw = rng.uniform(0.0, 2.0 * math.pi)
    cos, sin = math.cos(yaw), math.sin(yaw)
    poly = obj.footprint_poly @ np.array([[cos, -sin], [sin, cos]]).T
    (lo_x, lo_y), (hi_x, hi_y) = poly.min(axis=0).tolist(), poly.max(axis=0).tolist()
    if extent - hi_x <= -lo_x or extent - hi_y <= -lo_y:
        return None
    # one scalar draw per axis gives the numbers of one draw over both axes
    x, y = rng.uniform(-lo_x, extent - hi_x), rng.uniform(-lo_y, extent - hi_y)
    # all objects rest on z=0, so z-intervals always overlap and the
    # footprint separation decides collision. Inradius discs nearer than the
    # margin, or a box gap above it, decide it too: the 1e-9 slack lies far
    # above the rounding error of coordinates within the workspace, so no
    # `< margin` outcome changes. A radius of -inf (no disc) rejects nothing.
    reach = obj.footprint_inradius + PLACEMENT_MARGIN - 1e-9
    if any(math.hypot(ox - x, oy - y) < r + reach for ox, oy, r in placed.discs):
        return None
    lo_x, lo_y, hi_x, hi_y = lo_x + x, lo_y + y, hi_x + x, hi_y + y
    world_poly = poly + (x, y)
    for other_lo_x, other_lo_y, other_hi_x, other_hi_y, other in placed.footprints:
        if (max(other_lo_x - hi_x, lo_x - other_hi_x, other_lo_y - hi_y, lo_y - other_hi_y) <= PLACEMENT_MARGIN + 1e-9
                and polygon_distance(world_poly, other) < PLACEMENT_MARGIN):
            return None
    return Pose(quaternion_about_axis((0.0, 0.0, 1.0), yaw), np.array([x, y, 0.0]))


def generate_packed_scene(config: SceneConfig, catalog: list[CatalogObject] | None = None) -> Scene:
    """Rejection-sampled collision-free packed scene; pure function of config."""
    _check_type(config, SceneConfig, "config")
    try:
        lo, hi = config.object_count_range
    except (TypeError, ValueError):  # not a pair
        lo = hi = None
    if not (_positive_int(lo) and _positive_int(hi) and lo <= hi <= 10):
        raise InputError(f"object_count_range must be two integers within [1, 10], got {config.object_count_range!r}")
    if not _finite_positive(config.workspace_extent):
        raise InputError(f"workspace_extent must be finite and positive, got {config.workspace_extent!r}")
    if catalog is None:
        _check_type(config.catalog, CatalogConfig, "catalog")
        catalog = _shared_catalog(config.catalog)
    else:
        _check_items(catalog, CatalogObject, "catalog")
        if not catalog:
            raise InputError("the catalog to place from is empty")
    rng = _rng(config.seed, 0)
    count = int(rng.integers(lo, hi + 1))
    placed = _Placed()
    for i in range(count):
        inst_rng = _rng(config.seed, 1, i)
        pose = None
        for _ in range(MAX_PLACEMENT_ATTEMPTS):
            obj = catalog[int(inst_rng.integers(len(catalog)))]
            pose = _place_instance(obj, config.workspace_extent, placed, inst_rng)
            if pose is not None:
                break
        if pose is None:
            raise GenerationError(f"could not place instance {i} after {MAX_PLACEMENT_ATTEMPTS} attempts")
        placed.add(obj, pose)
    target_index = int(_rng(config.seed, 2).integers(count))
    return Scene(tuple(placed.instances), target_index, config.seed)


def derive_single_scene(scene: Scene, target_index: int) -> Scene:
    """Scene containing only the designated target at its unchanged pose."""
    _check_type(scene, Scene, "scene")
    target = Scene(scene.instances, target_index, scene.seed).target  # checks the index
    return Scene((target,), 0, scene.seed)


def enumerate_targets(scene: Scene) -> list[Scene]:
    """One scene per instance, differing only in target designation."""
    _check_type(scene, Scene, "scene")
    return [Scene(scene.instances, i, scene.seed) for i in range(len(scene.instances))]


# ---------------------------------------------------------------------------
# manifest serialization


def scene_to_manifest(scene: Scene, catalog_config: CatalogConfig) -> dict:
    _check_type(scene, Scene, "scene")
    _check_type(catalog_config, CatalogConfig, "catalog_config")
    catalog = {}
    for f in dataclasses.fields(CatalogConfig):
        value = getattr(catalog_config, f.name)
        catalog[f.name] = list(value) if isinstance(f.default, tuple) else value
    return {
        "seed": scene.seed,
        "target_index": scene.target_index,
        "catalog": catalog,
        "instances": [
            {"catalog_id": inst.catalog_id, "pose": inst.pose.as_7floats()}
            for inst in scene.instances
        ],
    }


def save_scene(path, scene: Scene, catalog_config: CatalogConfig) -> None:
    Path(path).write_text(json.dumps(scene_to_manifest(scene, catalog_config), sort_keys=True, indent=1))


def scene_from_manifest(data: dict, catalog: list[CatalogObject] | None = None) -> Scene:
    """The scene a manifest describes, placed from `catalog` or else from the
    catalog its manifest records; a missing key, a value of the wrong type, a
    pose that is not 7 floats or an unknown catalog id raises `InputError`."""
    try:
        if catalog is None:
            c = data["catalog"]
            # the range fields, whose defaults are tuples, are lists in the manifest
            catalog = _shared_catalog(CatalogConfig(**{
                f.name: tuple(c[f.name]) if isinstance(f.default, tuple) else c[f.name]
                for f in dataclasses.fields(CatalogConfig)}))
        else:
            _check_items(catalog, CatalogObject, "catalog")
        by_id = {obj.catalog_id: obj for obj in catalog}
        instances = []
        for rec in data["instances"]:
            cid = rec["catalog_id"]
            if cid not in by_id:
                raise InputError(f"unknown catalog id {cid!r}")
            obj = by_id[cid]
            instances.append(ObjectInstance(cid, obj.mesh, Pose.from_7floats(rec["pose"])))
        return Scene(tuple(instances), data["target_index"], data["seed"])
    except KeyError as exc:
        raise InputError(f"scene manifest lacks the key {exc}") from exc
    except TypeError as exc:
        raise InputError(f"scene manifest holds a value of the wrong type: {exc}") from exc


def load_scene(path, catalog: list[CatalogObject] | None = None) -> Scene:
    try:
        data = json.loads(Path(path).read_bytes())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise InputError(f"scene file {path} is not JSON: {exc}") from exc
    return scene_from_manifest(data, catalog)
