"""Pinhole depth camera: rendering, sensor noise, back-projection, `.npz` persistence.

`render` resolves each covered pixel by an exact ray/triangle intersection
through the pixel center, so the result is identical to per-pixel ray
casting; depth is the camera-frame z coordinate. `_rasterise` sets up all
instances of a scene in one array pass and gives each its own depth layer;
`_frame_from_layers` composes a frame from the layers with masked copies.
`back_project` works on the retained pixels alone.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (InputError, _check_type, _finite_array, _finite_non_negative, _finite_positive, _finite_real,
                     _integer, _positive_int, _rng)
from .geometry import PointCloud, Pose, Quaternion, _rotate
from .scenes import WORKSPACE_EXTENT, ObjectInstance, Scene

BACKGROUND_ID = 65535


def _check_instance(index, name: str) -> None:
    """Raise `InputError` unless `index` is an integer, not a bool, in [0, BACKGROUND_ID)."""
    if not (_integer(index) and 0 <= index < BACKGROUND_ID):
        raise InputError(f"{name} must be an integer in [0, {BACKGROUND_ID}), got {index!r}")


@dataclass(frozen=True)
class CameraModel:
    width: int = 640
    height: int = 480
    fx: float = 540.0
    fy: float = 540.0
    cx: float = 320.0
    cy: float = 240.0
    pose: Pose = field(default_factory=Pose.identity)  # camera-to-world

    def __post_init__(self):
        for name in ("width", "height"):
            size = getattr(self, name)
            if not _positive_int(size):
                raise InputError(f"{name} must be a positive integer, got {size!r}")
        if not (_finite_positive(self.fx) and _finite_positive(self.fy)):
            raise InputError(f"focal lengths must be finite and positive, got {(self.fx, self.fy)}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise InputError("principal point must lie inside the image")
        _check_type(self.pose, Pose, "camera pose")

    def same_view(self, other: "CameraModel") -> bool:
        """Exact equality: the intrinsics, and the poses as `Pose.__eq__` compares them."""
        return self == other


def look_at_pose(eye, target, up=(0.0, 0.0, 1.0)) -> Pose:
    """Camera-to-world pose: +z looks at target, +x right, +y down."""
    eye, target, up = (_finite_array(v, (3,), "eye, target and up must be 3 finite numbers each")
                       for v in (eye, target, up))
    forward = target - eye
    length = np.linalg.norm(forward)
    if length == 0.0:
        raise InputError("eye and target must differ")
    forward = forward / length
    x = np.cross(forward, up)
    n = np.linalg.norm(x)
    if n < 1e-12:
        raise InputError("view direction parallel to up vector")
    x /= n
    y = np.cross(forward, x)
    rot = np.column_stack([x, y, forward])
    return Pose(Quaternion.from_matrix(rot), eye)


CAMERA_DISTANCE = 0.6  # meters from `default_camera`'s eye to the centre of the workspace floor


def default_camera(width: int = 640, height: int = 480, focal: float = 540.0,
                   elevation_deg: float = 45.0) -> CameraModel:
    """Side-view camera at the given elevation, `CAMERA_DISTANCE` from the centre of the
    `WORKSPACE_EXTENT` square on the table, looking at the point 5 cm above it."""
    if not (_positive_int(width) and _positive_int(height)):
        raise InputError(f"width and height must be positive integers, got {(width, height)!r}")
    if not _finite_positive(focal):
        raise InputError(f"focal must be finite and positive, got {focal!r}")
    if not _finite_real(elevation_deg):
        raise InputError(f"elevation_deg must be a finite number, got {elevation_deg!r}")
    c = WORKSPACE_EXTENT / 2.0
    el = np.deg2rad(elevation_deg)
    eye = np.array([c, c - CAMERA_DISTANCE * np.cos(el), CAMERA_DISTANCE * np.sin(el)])
    pose = look_at_pose(eye, (c, c, 0.05))
    return CameraModel(width, height, focal, focal, width / 2.0, height / 2.0, pose)


@dataclass(frozen=True)
class DepthFrame:
    depth: np.ndarray        # (H, W) float32 meters, 0 where no hit
    instance_id: np.ndarray  # (H, W) uint16, BACKGROUND_ID where no hit
    camera: CameraModel

    def __post_init__(self):
        object.__setattr__(self, "depth", np.ascontiguousarray(self.depth, dtype=np.float32))
        object.__setattr__(self, "instance_id", np.ascontiguousarray(self.instance_id, dtype=np.uint16))
        shape = (self.camera.height, self.camera.width)
        if self.depth.shape != shape or self.instance_id.shape != shape:
            raise InputError(f"depth and instance_id must be {shape}, got {self.depth.shape}, {self.instance_id.shape}")
        self.depth.flags.writeable = False
        self.instance_id.flags.writeable = False

    @property
    def valid(self) -> np.ndarray:
        return self.instance_id != BACKGROUND_ID


# Target number of (triangle, pixel) pairs `render` evaluates at once, padding
# included. A triangle with more pairs is split across chunks; the size bounds
# the temporaries to a few hundred kilobytes.
_CHUNK_PAIRS = 4096

# `_row_spans` pads the row crossings of a triangle whose gate exceeds the
# camera's `_span_gate` by `_SPAN_PAD` pixels times 1 + |du/dv| of the edge,
# and every other triangle's by one whole pixel; `_nearest_hits` defines the
# gate and bounds the error that the sliver covers. The gate is at least
# `_SPAN_GATE`, and higher where the camera's bound at that gate would exceed a
# hundredth of the pad.
_SPAN_PAD = 1e-3
_SPAN_GATE = 1e-3

# A triangle of a culled instance, with vertices a, b, c in camera
# coordinates and normal n = cross(b - a, c - a), is a back face when n . a
# exceeds this fraction of |n| |a|. A face nearer edge-on than that is kept.
_BACK_FACE_TOL = 1e-9


class _Layer(NamedTuple):
    """One instance's nearest hit t per pixel of its own pixel box, the union
    of its triangles' boxes, inf where it misses. `t` is a read-only view of
    the z-buffer its scene was rasterised into, freed with that scene's slot."""

    row: int
    col: int
    t: np.ndarray  # (rows, cols) float64, read-only


# The last scene `render` rasterised, its one key: the camera object, and
# {id(instance): (instance, layer or None)} for every instance of that scene.
# `render` replaces the whole tuple and never mutates a published dict, so a
# concurrent render sees either the old slot or the new.
_slot: tuple[CameraModel | None, dict[int, tuple[ObjectInstance, _Layer | None]]] = (None, {})


def render(scene: Scene, camera: CameraModel) -> DepthFrame:
    """Nearest-surface depth + owning instance id per pixel.

    Each instance has a depth layer (`_Layer`). `_frame_from_layers`
    composes the frame from the layers in instance order with a strict `<`,
    so the nearest hit wins a pixel and, on equal depth, the lower instance
    index.

    The slot holds the layers of the last scene rasterised. A render whose
    camera is the slot's camera object and whose instances are all in the
    slot is composed from it; any other render rasterises its whole scene
    and replaces the slot. Rendering a cluttered scene and then its singles
    (`derive_single_scene`) thus rasterises each instance once. The identity
    keys are sound because `CameraModel`, `ObjectInstance`, `Pose` and the
    `TriMesh` arrays are immutable, and because the slot holds strong
    references to the camera and the instances, so no id it keys can be
    reused while it is cached. Every frame gets new arrays.
    """
    _check_type(scene, Scene, "scene")
    _check_type(camera, CameraModel, "camera")
    global _slot
    cached_camera, layers = _slot
    if camera is cached_camera and all(id(instance) in layers for instance in scene.instances):
        return _frame_from_layers([layers[id(instance)][1] for instance in scene.instances], camera)
    fresh = _rasterise(list(scene.instances), camera)
    _slot = (camera, {id(instance): (instance, layer) for instance, layer in zip(scene.instances, fresh)})
    return _frame_from_layers(fresh, camera)


def _rasterise(instances: list[ObjectInstance], camera: CameraModel) -> list[_Layer | None]:
    """The depth layer of each instance; None where every pixel box is empty.

    Triangles with a vertex at camera z <= 1e-6 are skipped, and so are the
    back faces (`_BACK_FACE_TOL`) of an instance whose mesh
    `is_closed_outward` and whose vertices all have camera z > 1e-6. That
    gate means the near-plane test drops none of its triangles, and it puts
    the camera outside the mesh (from inside a closed box the camera sees
    only back faces). A ray from the camera that meets a back face leaves
    the solid there, so it entered earlier through a front face of the same
    mesh, and the instance's nearest hit is what it is without the cull.
    That holds in exact arithmetic for a surface that does not cross itself,
    as the convex primitives of `meshes` do. In floating point, a ray within
    the barycentric tolerance of a silhouette edge could hit the back face
    and miss the front one; no frame of the benchmark corpora does.

    One pass over the concatenated vertices and triangles gives every value
    the bits of a loop over instances: `Pose.transform` is `geometry._rotate`
    on per-vertex pose components, each mask row is computed as the loop
    computes it, and `reduceat` minima and maxima are exact. Only the camera
    product is one call per instance: NumPy makes an (n, 3) @ (3, 3) product
    a BLAS `gemv` for n = 1 and a `gemm` otherwise, and no BLAS promises that
    a row of a stacked `gemm` rounds alike.
    """
    n = len(instances)
    meshes = [instance.mesh for instance in instances]
    n_verts, n_tris = np.array([(len(m.vertices), len(m.triangles)) for m in meshes], dtype=int).T
    layers = [None] * n
    world_to_cam = camera.pose.inverse()
    rot = world_to_cam.rotation.as_matrix()
    vert_start = np.cumsum(n_verts) - n_verts
    # each vertex's pose (w, x, y, z, t0, t1, t2), as rows
    pose = np.repeat([(*i.pose.rotation.as_array(), *i.pose.translation) for i in instances], n_verts, axis=0).T
    verts = np.concatenate([mesh.vertices for mesh in meshes]).T
    world = np.stack([c + t for c, t in zip(_rotate(pose[:4], verts), pose[4:])], axis=1)
    cam = np.concatenate([part @ rot.T for part in np.split(world, vert_start[1:])]) + world_to_cam.translation
    # the cull gate, over the runs that hold vertices: `reduceat` reads an empty run as one element
    z_min = np.full(n, -np.inf)
    z_min[n_verts > 0] = np.minimum.reduceat(cam[:, 2], vert_start[n_verts > 0])
    culled = np.array([mesh.is_closed_outward for mesh in meshes]) & (z_min > 1e-6)
    tv = cam[np.concatenate([mesh.triangles for mesh in meshes]) + np.repeat(vert_start, n_tris)[:, None]]
    del pose, verts, world, cam
    # skip triangles touching or behind the camera plane, then the back faces of culled instances
    front = tv[:, :, 2].min(axis=1) > 1e-6
    tv, owner = tv[front], np.repeat(np.arange(n), n_tris)[front]
    a = tv[:, 0]
    normal = np.cross(tv[:, 1] - a, tv[:, 2] - a)
    tol = _BACK_FACE_TOL * np.linalg.norm(normal, axis=1) * np.linalg.norm(a, axis=1)
    keep = ~culled[owner] | (np.einsum("ij,ij->i", normal, a) <= tol)
    del front, a, normal, tol
    tv, owner = tv[keep], owner[keep]
    u = tv[:, :, 0] / tv[:, :, 2] * camera.fx + camera.cx
    v = tv[:, :, 1] / tv[:, :, 2] * camera.fy + camera.cy
    u0 = np.maximum(np.ceil(u.min(axis=1) - 0.5), 0).astype(int)
    u1 = np.minimum(np.floor(u.max(axis=1) - 0.5), camera.width - 1).astype(int)
    v0 = np.maximum(np.ceil(v.min(axis=1) - 0.5), 0).astype(int)
    v1 = np.minimum(np.floor(v.max(axis=1) - 0.5), camera.height - 1).astype(int)
    keep = (u1 >= u0) & (v1 >= v0)
    tv, u, v, u0, u1, v0, v1, owner = (x[keep] for x in (tv, u, v, u0, u1, v0, v1, owner))
    counts = np.bincount(owner, minlength=n)
    drawn = np.flatnonzero(counts)
    if not len(drawn):
        return layers
    # a drawn instance's triangles are one run, and its layer box spans their boxes
    first, counts = (np.cumsum(counts) - counts)[drawn], counts[drawn]
    row, col = np.minimum.reduceat(v0, first), np.minimum.reduceat(u0, first)
    rows, cols = np.maximum.reduceat(v1, first) + 1 - row, np.maximum.reduceat(u1, first) + 1 - col
    start = np.cumsum(rows * cols) - rows * cols
    # layer i is the block of one flat z-buffer from element start[i], row by row
    base, stride = np.repeat(start - row * cols - col, counts), np.repeat(cols, counts)
    zbuf = _nearest_hits(camera, int((rows * cols).sum()), tv, u, v, u0, u1, v0, v1, base, stride)
    zbuf.flags.writeable = False
    for i, r, c, nr, nc, s in zip(*(x.tolist() for x in (drawn, row, col, rows, cols, start))):
        layers[i] = _Layer(r, c, zbuf[s:s + nr * nc].reshape(nr, nc))
    return layers


def _nearest_hits(camera: CameraModel, size: int, tv, u, v, u0, u1, v0, v1, base, stride) -> np.ndarray:
    """The flat z-buffer of `size` elements: the nearest hit t of each pixel, inf where none.

    Triangle i has camera-frame vertices tv[i], projected vertices u[i], v[i],
    pixel box columns u0[i]..u1[i] and rows v0[i]..v1[i], and writes pixel
    (py, px) to element base[i] + py * stride[i] + px.

    A (triangle, pixel) pair hits when the ray through the pixel center
    meets the triangle (Moller-Trumbore, barycentric tolerance 1e-12,
    determinant above 1e-14, t above 1e-9). A triangle is tested only on
    its row spans (`_row_spans`), and a row or a triangle left with no pixel
    to test is dropped.

    The spans of a triangle with vertices a, b, c in camera coordinates,
    e1 = b - a, e2 = c - a, n = e1 x e2 and r the largest of |a|, |b|, |c|
    are padded by a sliver, `_SPAN_PAD`, where its gate
    g = |n . a| / (|e1| |e2| r) exceeds the camera's `_span_gate`. As
    n . p = n . a for every point p of the plane, g is the sine of the corner
    angle at a times the least cosine between n and the ray to a point of
    the triangle, so the relative error of the Moller-Trumbore determinant
    is at most about 5 eps / g (eps = 2^-53). Rounding thus moves the point
    a ray is taken to hit by at most about 30 eps r / g, and the tolerance
    by 6e-12 r. Seen at depth z >= g r / sec, with sec = |ray| / z the
    secant of the ray's angle to the optical axis, a hit thus lies within
    f sec^2 (30 eps / g^2 + 6e-12 / g) pixels of the exact triangle, f the
    larger focal length: below 1e-5 px at g > 1e-3, f = 540 and
    sec^2 < 1.6. `_span_gate` raises the gate above `_SPAN_GATE` where the
    camera's largest f sec^2 over its pixel centres would take the bound
    past a hundredth of the pad (f sec^2 above about 1,070, as at a long
    focal length or a very wide view). A point that near the triangle lies,
    along a row, within that distance times 1 + |du/dv| of a crossing of an
    edge with slope du/dv, which is the pad `_row_spans` gives it; the
    crossings themselves round by about 1e-13 px. Every other triangle
    keeps the whole-pixel pad.

    A triangle's spans, row after row, are one batch element. Triangles,
    sorted by pair count, fill chunks of about `_CHUNK_PAIRS` pairs, and a
    larger one is split across chunks. A shorter element is padded to the
    widest of its chunk by repeating its last pixel; that gives the same t
    again, and `np.minimum.at` keeps the same minimum in any order, so
    padding and chunking change no bit.

    The three dot products are `matmul`s over (n, 3) @ (3, 1) batch
    elements. NumPy runs these as BLAS `gemv` where n >= 2, which rounds
    each row alone, whatever n and the row's position, and as `dot` where
    n = 1, which rounds otherwise. A loop over triangles and box rows calls
    `dot` exactly where the box is one column wide, so such a triangle's
    pixels are evaluated one per element and every other element has at
    least two pairs: t is bit-identical to that loop's. An elementwise sum
    would round differently where BLAS fuses multiply-adds.
    """
    a = tv[:, 0]
    e1 = tv[:, 1] - a
    e2 = tv[:, 2] - a
    n_dot_a = np.einsum("ij,ij->i", np.cross(e1, e2), a)
    r = np.linalg.norm(tv, axis=2).max(axis=1)
    tight = np.abs(n_dot_a) > _span_gate(camera) * np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1) * r
    # one segment per box row: the row's span of pixels; the rows, and then
    # the triangles, with no pixel to test are dropped
    heights = v1 - v0 + 1
    first = np.cumsum(heights) - heights
    seg_row = np.arange(heights.sum()) - np.repeat(first - v0, heights)
    seg_lo, seg_n = _row_spans(u, v, u0, u1, heights, seg_row, tight)
    live = seg_n > 0
    heights = np.add.reduceat(live, first, dtype=int)
    seg_row, seg_lo, seg_n = seg_row[live], seg_lo[live], seg_n[live]
    drawn = heights > 0
    a, e1, e2, heights, column, base, stride = (x[drawn] for x in (a, e1, e2, heights, u0 == u1, base, stride))
    first = np.cumsum(heights) - heights
    pairs = np.add.reduceat(seg_n, first)
    s = -a  # ray origin is the camera center
    qvec = np.cross(s, e1)
    t_num = np.matmul(e2[:, None, :], qvec[:, :, None])[:, 0, 0]
    # pixel-center rays in camera frame, z component 1 => t equals depth
    dx, dy = _pixel_rays(camera, np.arange(camera.width), np.arange(camera.height))
    # triangles in batch order, 1-column boxes first, the rest by pair count;
    # segments and pairs are numbered in that order
    order = np.argsort(np.where(column, 0, pairs), kind="stable")
    heights, pairs, column = heights[order], pairs[order], column[order]
    seg = np.arange(len(seg_row)) + np.repeat(first[order] - (np.cumsum(heights) - heights), heights)
    seg_row, seg_lo, seg_n = seg_row[seg], seg_lo[seg], seg_n[seg]
    bounds = np.r_[0, np.cumsum(seg_n)]  # segment i holds pairs bounds[i] .. bounds[i + 1] - 1
    xoff = seg_lo - bounds[:-1]  # pixel column = xoff + pair number
    seg_tri = np.repeat(order, heights)
    zoff = base[seg_tri] + seg_row * stride[seg_tri] + xoff  # z-buffer element = zoff + pair number
    ydir = dy[seg_row]
    del seg, seg_row, seg_lo, seg_n, seg_tri
    # batch elements: each pixel of a 1-column box alone, any other
    # triangle whole or in pieces of _CHUNK_PAIRS pairs
    cap = _CHUNK_PAIRS
    piece = np.where(column, 1, cap)
    pieces = -(-pairs // piece)
    elem_tri = np.repeat(order, pieces)
    tri_end = np.cumsum(pairs)
    index = np.arange(len(elem_tri)) - np.repeat(np.cumsum(pieces) - pieces, pieces)  # within the triangle
    elem_start = np.repeat(tri_end - pairs, pieces) + index * np.repeat(piece, pieces)
    elem_end = np.minimum(elem_start + np.repeat(piece, pieces), np.repeat(tri_end, pieces))
    n_column = int(heights[column].sum())

    zbuf = np.full(size, np.inf)
    for group, least in ((slice(0, n_column), 1), (slice(n_column, len(elem_tri)), 2)):
        for c0, c1, n in _chunks(np.maximum(elem_end[group] - elem_start[group], least), cap):
            c0, c1 = c0 + group.start, c1 + group.start
            p0, p1 = elem_start[c0], elem_end[c1 - 1]
            s0, s1 = np.searchsorted(bounds, p0, side="right") - 1, np.searchsorted(bounds, p1)
            # the pair number at each batch position: an element is padded
            # to n pairs by repeating its last one
            pair = np.minimum(elem_start[c0:c1, None] + np.arange(n), elem_end[c0:c1, None] - 1)
            edges = bounds[s0:s1 + 1].copy()
            edges[0], edges[-1] = p0, p1
            seg = np.repeat(np.arange(s0, s1), np.diff(edges))[pair - p0]
            zi = zoff[seg] + pair
            x, y = dx[xoff[seg] + pair], ydir[seg]
            del pair, seg  # fewer batch-sized arrays alive at once
            tri = elem_tri[c0:c1]
            hits, t = _ray_hits(x, y, e1[tri], e2[tri], s[tri], qvec[tri], t_num[tri])
            np.minimum.at(zbuf, zi.ravel()[hits], t)
    return zbuf


def _ray_hits(x, y, e1, e2, s, qvec, t_num):
    """Flat indices and t of the hits of the rays (x, y, 1) from the camera
    center, row i of x and y against triangle i (Moller-Trumbore)."""
    # np.cross(dirs, e2) term by term; the factors 1.0 are exact
    e2x, e2y, e2z = e2.T[:, :, None]
    pvec = np.empty(x.shape + (3,))
    np.subtract(y * e2z, e2y, out=pvec[:, :, 0])
    np.subtract(e2x, x * e2z, out=pvec[:, :, 1])
    np.subtract(x * e2y, y * e2x, out=pvec[:, :, 2])
    det = np.matmul(pvec, e1[:, :, None])[:, :, 0]
    ok = np.abs(det) > 1e-14
    inv_det = np.divide(1.0, det, out=np.zeros_like(det), where=ok)
    uu = np.matmul(pvec, s[:, :, None])[:, :, 0] * inv_det
    del pvec, det  # fewer batch-sized arrays alive at once
    dirs = np.empty(x.shape + (3,))
    dirs[:, :, 0] = x
    dirs[:, :, 1] = y
    dirs[:, :, 2] = 1.0
    vv = np.matmul(dirs, qvec[:, :, None])[:, :, 0] * inv_det
    del dirs
    t = t_num[:, None] * inv_det
    hits = np.flatnonzero(ok & (uu >= -1e-12) & (vv >= -1e-12) & (uu + vv <= 1 + 1e-12) & (t > 1e-9))
    return hits, t.ravel()[hits]


def _span_gate(camera: CameraModel) -> float:
    """The least gate g at or above `_SPAN_GATE` where `_nearest_hits`'s error bound,
    f sec^2 (30 eps / g^2 + 6e-12 / g) pixels, is at most a hundredth of `_SPAN_PAD`."""
    dx, dy = _pixel_rays(camera, np.array([0, camera.width - 1]), np.array([0, camera.height - 1]))
    f_sec2 = max(camera.fx, camera.fy) * (1.0 + float(np.abs(dx).max()) ** 2 + float(np.abs(dy).max()) ** 2)
    # the root of budget g^2 - c2 g - c1
    budget, c1, c2 = _SPAN_PAD / 100, 30 * 2.0 ** -53 * f_sec2, 6e-12 * f_sec2
    return max(_SPAN_GATE, (c2 + (c2 * c2 + 4 * budget * c1) ** 0.5) / (2 * budget))


def _row_spans(u, v, u0, u1, heights, seg_row, tight):
    """First pixel and pixel count, possibly 0, of each box row that the row's triangle can hit.

    u and v hold each triangle's projected vertices, u0 and u1 its box
    columns, heights its number of box rows; seg_row lists the rows, triangle
    by triangle. The row-centre line meets the projected edges between the
    smallest and the largest crossing. An edge's crossing is taken from its
    first vertex, so a horizontal edge on the line adds its first endpoint and
    the next edge its second. Where `tight` holds for the triangle, each
    crossing is padded by `_SPAN_PAD` times 1 + |du/dv| of its edge, and the
    row's pixels are those whose centres lie within the padded interval;
    elsewhere the interval is padded by one pixel on each side. The span is
    clipped to the box. A row that meets no edge keeps the whole box row.
    """
    y = seg_row + 0.5
    xmin = np.full(len(y), np.inf)
    xmax = np.full(len(y), -np.inf)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        ua, va, ub, vb = u[:, i], v[:, i], u[:, j], v[:, j]
        flat = va == vb
        slope = np.where(flat, 0.0, (ub - ua) / np.where(flat, 1.0, vb - va))
        pad = np.repeat(np.where(tight, _SPAN_PAD * (1.0 + np.abs(slope)), 0.0), heights)
        meets = (np.repeat(np.minimum(va, vb), heights) <= y) & (y <= np.repeat(np.maximum(va, vb), heights))
        x = np.repeat(ua, heights) + (y - np.repeat(va, heights)) * np.repeat(slope, heights)
        xmin = np.where(meets, np.minimum(xmin, x - pad), xmin)
        xmax = np.where(meets, np.maximum(xmax, x + pad), xmax)
    none = xmin > xmax
    xmin[none], xmax[none] = -np.inf, np.inf
    whole = np.repeat(~tight, heights)
    lo = np.maximum(np.ceil(xmin - 0.5) - whole, np.repeat(u0, heights)).astype(int)
    hi = np.minimum(np.floor(xmax - 0.5) + whole, np.repeat(u1, heights)).astype(int)
    return lo, np.maximum(hi - lo + 1, 0)


def _chunks(widths, cap: int):
    """Runs (start, stop, width) of the batch elements' widths, each of at
    most `cap` pairs once padded to its widest element, or of one element."""
    c0 = 0
    while c0 < len(widths):
        # a run holds at most cap elements, each at least one pair wide
        n = np.maximum.accumulate(widths[c0:c0 + cap])
        c1 = c0 + max(1, np.count_nonzero(np.arange(1, len(n) + 1) * n <= cap))
        yield c0, c1, int(n[c1 - c0 - 1])
        c0 = c1


def _frame_from_layers(layers: list[_Layer | None], camera: CameraModel) -> DepthFrame:
    """The frame of a scene from its instances' layers, in instance order."""
    depth = np.zeros((camera.height, camera.width), dtype=np.float32)
    inst = np.full((camera.height, camera.width), BACKGROUND_ID, dtype=np.uint16)
    drawn = [(index, layer) for index, layer in enumerate(layers) if layer is not None]
    if not drawn:
        return DepthFrame(depth, inst, camera)
    if len(drawn) == 1:
        # one layer: its hits are the frame's, with no z-buffer
        (index, layer), = drawn
        box = (slice(layer.row, layer.row + layer.t.shape[0]), slice(layer.col, layer.col + layer.t.shape[1]))
        hit = layer.t < np.inf
        np.copyto(depth[box], layer.t, where=hit)
        np.copyto(inst[box], index, where=hit)
        return DepthFrame(depth, inst, camera)
    # z-buffer over the union of the layers' boxes
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


def add_depth_noise(frame: DepthFrame, sigma: float, seed: int) -> DepthFrame:
    """I.i.d. zero-mean Gaussian perturbation of non-background depths."""
    _check_type(frame, DepthFrame, "frame")
    if not _finite_non_negative(sigma):
        raise InputError(f"sigma must be finite and >= 0, got {sigma!r}")
    noise = _rng(seed).normal(0.0, sigma, size=frame.depth.shape).astype(np.float32)
    depth = frame.depth.copy()
    valid = frame.valid
    depth[valid] = np.maximum(depth[valid] + noise[valid], np.float32(1e-6))
    return DepthFrame(depth, frame.instance_id.copy(), frame.camera)


def _pixel_rays(camera: CameraModel, us, vs):
    dx = (us + 0.5 - camera.cx) / camera.fx
    dy = (vs + 0.5 - camera.cy) / camera.fy
    return dx, dy


def back_project(frame: DepthFrame, instance_filter: int) -> PointCloud:
    """World point and screen-space normal per pixel of instance `instance_filter`."""
    _check_type(frame, DepthFrame, "frame")
    _check_instance(instance_filter, "instance_filter")
    pixels = np.flatnonzero(frame.instance_id == instance_filter)
    if not len(pixels):
        return PointCloud.empty()
    points, normals = _masked_points(frame, pixels)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return PointCloud(points, normals)


def _masked_points(frame: DepthFrame, pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The world points and the world normals, not yet unit, of the image's
    flat `pixels`, ascending and all of one instance.

    Every value is computed on those pixels alone, as (n, 3) rows, with the
    per-pixel arithmetic of the whole image. A pixel's right and down
    neighbours are found through an index map over the pixels' bounding box,
    padded with one row and one column that hold no pixel; a pixel without a
    neighbour among them takes itself, whose difference is exactly 0.
    """
    cam = frame.camera
    rows, cols = np.divmod(pixels, cam.width)
    own = np.arange(len(pixels))
    c0 = cols.min()
    stride = cols.max() - c0 + 2
    cell = (rows - rows[0]) * stride + (cols - c0)
    index = np.full((rows[-1] - rows[0] + 2) * stride, -1, dtype=np.intp)
    index[cell] = own

    z = frame.depth.ravel()[pixels].astype(np.float64)
    dx, dy = _pixel_rays(cam, cols, rows)
    pts_cam = np.stack([dx * z, dy * z, z], axis=-1)
    rot = cam.pose.rotation.as_matrix()
    pts_world = pts_cam @ rot.T + cam.pose.translation
    # screen-space normals: cross of horizontal/vertical neighbor differences,
    # restricted to neighbors among the pixels; fallback points at the camera
    du, dv = (pts_cam.take(np.where(nb < 0, own, nb), axis=0) - pts_cam
              for nb in (index[cell + 1], index[cell + stride]))
    n_cam = np.cross(du, dv)
    lens = np.linalg.norm(n_cam, axis=-1)
    good = lens > 1e-12
    np.divide(n_cam, lens[:, None], out=n_cam, where=good[:, None])
    # orient toward the camera (camera sits at the origin of the cam frame)
    flip = np.einsum("nc,nc->n", n_cam, pts_cam) > 0
    np.negative(n_cam, out=n_cam, where=flip[:, None])
    bad = np.flatnonzero(~good)
    view = pts_cam[bad]
    n_cam[bad] = -(view / np.maximum(np.linalg.norm(view, axis=-1), 1e-12)[:, None])
    return pts_world, n_cam @ rot.T


# ---------------------------------------------------------------------------
# persistence: one uncompressed .npz archive per frame


def read_npz(path, keys: tuple[str, ...]) -> list[np.ndarray]:
    """The arrays stored under `keys` in the `.npz` archive at `path`.

    A file that is not an `.npz` archive (a lone `.npy` array included), one
    that lacks a key, or an array that does not hold numbers raises
    `InputError`. Pickled arrays are refused.
    """
    try:
        with np.load(path) as data:  # an ndarray from a .npy file is no context manager: TypeError
            arrays = [data[key] for key in keys]
    except (KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise InputError(f"{path} is not an .npz archive holding {list(keys)}: {exc}") from exc
    for key, array in zip(keys, arrays):
        if array.dtype.kind not in "biuf":
            raise InputError(f"{path}: {key} must hold numbers, got dtype {array.dtype}")
    return arrays


def save_frame(dir_path, stem: str, frame: DepthFrame) -> list[Path]:
    """Write `<stem>.frame.npz`: `depth` (H, W) float32, `instance_id` (H, W)
    uint16, `intrinsics` (width, height, fx, fy, cx, cy) and `pose`, the
    camera-to-world pose as `Pose.as_7floats`.
    """
    _check_type(frame, DepthFrame, "frame")
    path = Path(dir_path) / f"{stem}.frame.npz"
    path.parent.mkdir(parents=True, exist_ok=True)
    cam = frame.camera
    np.savez(path, depth=frame.depth, instance_id=frame.instance_id,
             intrinsics=np.array([cam.width, cam.height, cam.fx, cam.fy, cam.cx, cam.cy], dtype=float),
             pose=np.array(cam.pose.as_7floats()))
    return [path]


def load_frame(dir_path, stem: str) -> DepthFrame:
    """The frame `save_frame` wrote as `<stem>.frame.npz`; depth that is not
    finite and >= 0, intrinsics that are not 6 finite numbers, a fractional
    width or height, or a pose that is not 7 numbers raise `InputError`."""
    path = Path(dir_path) / f"{stem}.frame.npz"
    depth, inst, intrinsics, pose = read_npz(path, ("depth", "instance_id", "intrinsics", "pose"))
    if not ((depth >= 0) & (depth < np.inf)).all():  # NaN fails both
        raise InputError(f"{path}: depth must be finite and >= 0")
    w, h, fx, fy, cx, cy = _finite_array(intrinsics, (6,), f"{path}: intrinsics must be 6 finite numbers").tolist()
    if not (float(w).is_integer() and float(h).is_integer()):
        raise InputError(f"{path}: width and height must be whole numbers, got {(w, h)}")
    return DepthFrame(depth, inst, CameraModel(int(w), int(h), fx, fy, cx, cy, Pose.from_7floats(pose)))
