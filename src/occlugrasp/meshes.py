"""Triangle meshes: closed primitives, ray casting, surface sampling.

`ray_cast` is the exact reference that `camera.render` is checked against;
only tests and benchmark checks call it, and it gives them the nearest hit's
distance and instance index. It tests every triangle, back faces
included: `render` skips the back faces of closed meshes by an argument that
holds only for some meshes and camera positions, so a reference that made
the same cut could not catch a mistake in it. Every mesh comes from the four
primitives here, so a mesh has at most 352 triangles (the sphere).
The ray gets one slab test per mesh, against the box of the mesh's vertices
padded by 1e-9, and skips a mesh it misses. That skips most meshes of a scene
and is what keeps a ray cheap. A mesh the ray reaches gets one vectorised
Moller-Trumbore pass over all its triangles, which at these sizes costs about
what a bounding-volume hierarchy saved. The pass is exact on its own, so the
box only decides the time, never the hit, as long as it holds every triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, _check_type, _finite_array, _positive_int, _rng
from .geometry import PointCloud, Pose

_EPS = 1e-12
CYLINDER_SEGMENTS = 24  # sides of the cylinder's footprint polygon
SPHERE_RINGS, SPHERE_SEGMENTS = 12, 16  # latitude bands and longitude steps of the UV sphere


class TriMesh:
    """Immutable triangle mesh with outward per-face normals from winding."""

    def __init__(self, vertices, triangles):
        what = "vertices and triangles must be (n, 3) arrays of finite numbers"
        v, t = (_finite_array(a, (-1, 3), what) for a in (vertices, triangles))
        if t.size and not ((t == np.floor(t)).all() and t.min() >= 0 and t.max() < len(v)):
            raise InputError(f"triangle indices must be whole numbers in [0, {len(v)})")
        t = t.astype(np.int32)
        t.flags.writeable = False
        self.vertices = v
        self.triangles = t

    def _face_cross(self) -> np.ndarray:
        """cross(b - a, c - a) per triangle; not cached, so a mesh holds no third array."""
        a, b, c = (self.vertices[self.triangles[:, i]] for i in range(3))
        return np.cross(b - a, c - a)

    @cached_property
    def face_normals(self) -> np.ndarray:
        n = self._face_cross()
        lens = np.linalg.norm(n, axis=1)
        lens[lens == 0.0] = 1.0
        n = n / lens[:, None]
        n.flags.writeable = False
        return n

    @cached_property
    def face_areas(self) -> np.ndarray:
        ar = 0.5 * np.linalg.norm(self._face_cross(), axis=1)
        ar.flags.writeable = False
        return ar

    @cached_property
    def contact_samples(self) -> PointCloud:
        # dense on-surface samples with normals, used by grasp contact checks
        return surface_sample(self, 2048, seed=0x5EED)

    @cached_property
    def is_closed_outward(self) -> bool:
        """Whether the surface is closed and wound with its normals outward.

        Every directed edge appears exactly once and its reverse exactly once,
        so each edge joins two faces of opposite, consistent winding, and the
        signed volume is positive, so the winding faces out of the solid.
        Self-intersection is not checked; the primitives here are all convex.
        """
        if not len(self.triangles):
            return False
        heads = self.triangles.ravel().astype(np.int64)
        tails = self.triangles[:, [1, 2, 0]].ravel().astype(np.int64)
        edges = np.unique(heads * len(self.vertices) + tails)
        if len(edges) != len(heads):
            return False
        if not np.array_equal(edges, np.unique(tails * len(self.vertices) + heads)):
            return False
        a, b, c = (self.vertices[self.triangles[:, i]] for i in range(3))
        return bool(np.einsum("ij,ij->", a, np.cross(b, c)) > 0.0)


# ---------------------------------------------------------------------------
# primitives (canonical pose: resting on z=0, centered in x/y)


def make_box(lx: float, ly: float, lz: float) -> TriMesh:
    hx, hy = lx / 2.0, ly / 2.0
    v = np.array(
        [
            [-hx, -hy, 0], [hx, -hy, 0], [hx, hy, 0], [-hx, hy, 0],
            [-hx, -hy, lz], [hx, -hy, lz], [hx, hy, lz], [-hx, hy, lz],
        ],
        dtype=float,
    )
    t = np.array(
        [
            [0, 2, 1], [0, 3, 2],          # bottom (outward -z)
            [4, 5, 6], [4, 6, 7],          # top
            [0, 1, 5], [0, 5, 4],          # -y side
            [1, 2, 6], [1, 6, 5],          # +x side
            [2, 3, 7], [2, 7, 6],          # +y side
            [3, 0, 4], [3, 4, 7],          # -x side
        ]
    )
    return TriMesh(v, t)


def _make_prism(footprint_xy: np.ndarray, height: float) -> TriMesh:
    """Extrude a convex CCW polygon footprint from z=0 to z=height."""
    n = len(footprint_xy)
    bottom = np.column_stack([footprint_xy, np.zeros(n)])
    top = np.column_stack([footprint_xy, np.full(n, height)])
    v = np.vstack([bottom, top, [[0, 0, 0]], [[0, 0, height]]])
    cb, ct = 2 * n, 2 * n + 1
    tris = []
    for i in range(n):
        j = (i + 1) % n
        tris.append([cb, j, i])            # bottom fan, outward -z
        tris.append([ct, n + i, n + j])    # top fan, outward +z
        tris.append([i, j, n + j])         # side
        tris.append([i, n + j, n + i])
    return TriMesh(v, np.array(tris))


def _regular_polygon(circumradius: float, sides: int) -> np.ndarray:
    """(sides, 2) CCW vertices of the regular polygon about the origin, the first on +x."""
    ang = 2.0 * np.pi * np.arange(sides) / sides
    return circumradius * np.column_stack([np.cos(ang), np.sin(ang)])


def make_cylinder(radius: float, height: float) -> TriMesh:
    return _make_prism(_regular_polygon(radius, CYLINDER_SEGMENTS), height)


def make_hex_prism(circumradius: float, height: float) -> TriMesh:
    return _make_prism(_regular_polygon(circumradius, 6), height)


def make_sphere(radius: float) -> TriMesh:
    """UV sphere with exact pole vertices, resting on z=0 (center at z=radius)."""
    rings, segments = SPHERE_RINGS, SPHERE_SEGMENTS
    verts = [[0.0, 0.0, 0.0]]  # south pole (on the table)
    for i in range(1, rings):
        phi = np.pi * i / rings
        z = radius - radius * math.cos(phi)
        r = radius * math.sin(phi)
        for j in range(segments):
            th = 2.0 * np.pi * j / segments
            verts.append([r * math.cos(th), r * math.sin(th), z])
    verts.append([0.0, 0.0, 2.0 * radius])  # north pole
    north = len(verts) - 1
    tris = []
    ring = lambda i, j: 1 + (i - 1) * segments + (j % segments)
    for j in range(segments):
        tris.append([0, ring(1, j + 1), ring(1, j)])
    for i in range(1, rings - 1):
        for j in range(segments):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j), ring(i + 1, j + 1)
            tris.append([a, b, d])
            tris.append([a, d, c])
    for j in range(segments):
        tris.append([north, ring(rings - 1, j), ring(rings - 1, j + 1)])
    return TriMesh(np.array(verts), np.array(tris))


# ---------------------------------------------------------------------------
# ray casting


@dataclass(frozen=True)
class RayHit:
    """The nearest hit of a ray: its distance along the ray and the index of the mesh it hits."""

    distance: float
    instance_index: int


def _ray_triangles(origin, direction, v0, v1, v2):
    """Vectorized Moller-Trumbore; returns per-triangle t (inf on miss)."""
    e1 = v1 - v0
    e2 = v2 - v0
    p = np.cross(direction, e2)
    det = np.einsum("ij,ij->i", e1, p)
    ok = np.abs(det) > _EPS
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    s = origin - v0
    u = np.einsum("ij,ij->i", s, p) * inv
    q = np.cross(s, e1)
    v = np.einsum("j,ij->i", direction, q) * inv
    t = np.einsum("ij,ij->i", e2, q) * inv
    good = ok & (u >= -1e-12) & (v >= -1e-12) & (u + v <= 1.0 + 1e-12) & (t > 1e-9)
    return np.where(good, t, np.inf)


def ray_cast(mesh_set: list[tuple[TriMesh, Pose]], origin, direction) -> RayHit | None:
    """Nearest intersection of a world-space ray with a set of posed meshes:
    its distance and the index of its mesh in `mesh_set`, the lower index on a tie."""
    if not (isinstance(mesh_set, (list, tuple)) and mesh_set):
        raise InputError(f"mesh_set must be a non-empty list, got {mesh_set!r}")
    for item in mesh_set:
        if not (isinstance(item, tuple) and len(item) == 2
                and isinstance(item[0], TriMesh) and isinstance(item[1], Pose)):
            raise InputError(f"mesh_set must hold (TriMesh, Pose) pairs, got {item!r}")
    what = "origin and direction must be 3 finite numbers each"
    origin, direction = (_finite_array(a, (3,), what) for a in (origin, direction))
    n = float(np.linalg.norm(direction))
    if abs(n - 1.0) > 1e-6:
        raise InputError(f"direction must be unit length, norm={n}")
    best_t, best = np.inf, None
    for i, (mesh, pose) in enumerate(mesh_set):
        if not len(mesh.triangles):
            continue
        inv = pose.inverse()
        o_local = inv.transform(origin)
        d_local = inv.rotation.rotate(direction)
        # slab test against the vertex box, padded against grazing-ray misses
        safe = np.where(np.abs(d_local) < 1e-12, np.copysign(1e-12, d_local + 1e-300), d_local)
        inv_d = 1.0 / safe
        t0 = (mesh.vertices.min(axis=0) - 1e-9 - o_local) * inv_d
        t1 = (mesh.vertices.max(axis=0) + 1e-9 - o_local) * inv_d
        if np.maximum(t0, t1).min() < max(np.minimum(t0, t1).max(), 0.0):
            continue
        tv = mesh.vertices[mesh.triangles]
        t = _ray_triangles(o_local, d_local, tv[:, 0], tv[:, 1], tv[:, 2])
        near = float(t.min())
        if near < best_t:
            best_t, best = near, i
    if best is None:
        return None
    return RayHit(distance=best_t, instance_index=best)


# ---------------------------------------------------------------------------
# surface sampling


def surface_sample(mesh: TriMesh, count: int, seed: int) -> PointCloud:
    """Area-proportional on-surface samples with face normals.

    Per-triangle counts use largest-remainder allocation so density tracks
    area exactly; in-triangle positions are uniform via the seeded RNG. Face
    by face, face f draws `base[f]` uniforms for r1, then `base[f]` for r2. A
    float64 draw is one generator step however draws are grouped, so one
    `random(2 * count)` is that stream: with `start` samples on earlier faces,
    sample w of f reads r1 at `2 * start + w` and r2 at `2 * start + base[f] + w`.
    """
    _check_type(mesh, TriMesh, "mesh")
    if not _positive_int(count):
        raise InputError(f"count must be a positive integer, got {count!r}")
    areas = mesh.face_areas
    total = float(areas.sum())
    if total <= 0.0:
        raise InputError("mesh has zero surface area")
    quota = areas / total * count
    base = np.floor(quota).astype(int)
    rem = count - int(base.sum())
    if rem > 0:
        frac = quota - base
        extra = np.argsort(-frac, kind="stable")[:rem]
        base[extra] += 1
    faces = np.repeat(np.arange(len(base)), base)
    first = np.arange(count) + (np.cumsum(base) - base)[faces]  # 2 * start + w
    u = _rng(seed).random(2 * count)
    r1 = np.sqrt(u[first])
    r2 = u[first + base[faces]]
    a, b, c = (mesh.vertices[mesh.triangles[faces, i]] for i in range(3))
    pts = (1 - r1)[:, None] * a + (r1 * (1 - r2))[:, None] * b + (r1 * r2)[:, None] * c
    return PointCloud._computed(pts, mesh.face_normals[faces])
