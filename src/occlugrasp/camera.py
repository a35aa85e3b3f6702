"""Pinhole depth camera: rendering, sensor noise, back-projection, `.npz` persistence.

`render` resolves each covered pixel by an exact ray/triangle intersection
through the pixel center, so the result is identical to per-pixel ray
casting; depth is the camera-frame z coordinate. `_rasterise` gives each
instance its own depth layer, and `_frame_from_layers` composes a frame from
them. `back_project` works inside the bounding box of the retained pixels.
"""

from __future__ import annotations

import numbers
import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InputError, _check_type, _finite_non_negative, _finite_positive, _positive_int, _rng
from .geometry import PointCloud, Pose, Quaternion
from .scenes import WORKSPACE_EXTENT, ObjectInstance, Scene

BACKGROUND_ID = 65535


def _check_instance(index, name: str) -> None:
    """Raise `InputError` unless `index` is an integer, not a bool, in [0, BACKGROUND_ID)."""
    if not (isinstance(index, numbers.Integral) and not isinstance(index, bool) and 0 <= index < BACKGROUND_ID):
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
    eye = np.asarray(eye, dtype=float)
    forward = np.asarray(target, dtype=float) - eye
    forward = forward / np.linalg.norm(forward)
    up = np.asarray(up, dtype=float)
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
    if not (isinstance(elevation_deg, numbers.Real) and not isinstance(elevation_deg, bool)
            and np.isfinite(elevation_deg)):
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

    Triangles with a vertex at camera z <= 1e-6 are skipped. So are the back
    faces (see `_BACK_FACE_TOL`) of an instance that passes two gates: its
    mesh `is_closed_outward`, and every vertex has camera z > 1e-6. The
    second gate means the near-plane test drops none of its triangles, and
    it puts the camera outside the mesh (from inside a closed box the camera
    sees only back faces). A back face's plane misses the camera, and a ray
    from the camera that meets it leaves the solid there. Having started
    outside, the ray entered the solid earlier, through a front face of the
    same mesh, so the instance's nearest hit, its layer and the frame are
    what they are without the cull. The argument holds in exact arithmetic
    for a surface that does not cross itself, which the convex primitives of
    `meshes` satisfy. In floating point, a ray within the barycentric
    tolerance of a silhouette edge could hit the back face and miss the
    front one; no frame of the benchmark corpora does. The remaining
    triangles are gathered in instance order with their pixel boxes clipped
    to the image.
    """
    h, w = camera.height, camera.width
    world_to_cam = camera.pose.inverse()
    rot = world_to_cam.rotation.as_matrix()
    trans = world_to_cam.translation
    fx, fy, cx, cy = camera.fx, camera.fy, camera.cx, camera.cy
    boxes, parts, size = [], [], 0
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
        rows, cols = int(v1.max()) + 1 - row, int(u1.max()) + 1 - col
        boxes.append((row, col, rows, cols))
        # the layers are blocks of one flat z-buffer: pixel (py, px) of this
        # layer is element base + py * cols + px
        base = np.full(len(u0), size - row * cols - col)
        parts.append((tv[keep], u[keep], v[keep], u0, u1, v0, v1, base, np.full(len(u0), cols)))
        size += rows * cols
    if not parts:
        return [None] * len(instances)
    tris = [np.concatenate(arrays) for arrays in zip(*parts)]
    del parts  # the per-instance copies
    zbuf = _nearest_hits(camera, size, *tris)
    zbuf.flags.writeable = False
    layers, start = [], 0
    for box in boxes:
        if box is None:
            layers.append(None)
            continue
        row, col, rows, cols = box
        layers.append(_Layer(row, col, zbuf[start:start + rows * cols].reshape(rows, cols)))
        start += rows * cols
    return layers


def _nearest_hits(camera: CameraModel, size: int, tv, u, v, u0, u1, v0, v1, base, stride) -> np.ndarray:
    """The flat z-buffer of `size` elements: the nearest hit t of each pixel, inf where none.

    Triangle i has camera-frame vertices tv[i], projected vertices u[i], v[i],
    pixel box columns u0[i]..u1[i] and rows v0[i]..v1[i], and writes pixel
    (py, px) to element base[i] + py * stride[i] + px.

    A (triangle, pixel) pair hits when the ray through the pixel center
    meets the triangle (Moller-Trumbore, barycentric tolerance 1e-12,
    determinant above 1e-14, t above 1e-9). A triangle is tested only on
    its row spans (`_row_spans`). The crossings round by far less than the
    pad, so the spans skip only misses.

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
    s = -a  # ray origin is the camera center
    qvec = np.cross(s, e1)
    t_num = np.matmul(e2[:, None, :], qvec[:, :, None])[:, 0, 0]
    # pixel-center rays in camera frame, z component 1 => t equals depth
    dx, dy = _pixel_rays(camera, np.arange(camera.width), np.arange(camera.height))

    # one segment per box row: the row's span of pixels
    heights = v1 - v0 + 1
    first = np.cumsum(heights) - heights
    seg_row = np.arange(heights.sum()) - np.repeat(first - v0, heights)
    seg_lo, seg_n = _row_spans(u, v, u0, u1, heights, seg_row)
    pairs = np.add.reduceat(seg_n, first)
    # triangles in batch order, 1-column boxes first, the rest by pair count;
    # segments and pairs are numbered in that order
    column = u0 == u1
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


def _row_spans(u, v, u0, u1, heights, seg_row):
    """First pixel and pixel count of each box row that the row's triangle can hit.

    u and v hold each triangle's projected vertices, u0 and u1 its box
    columns, heights its number of box rows; seg_row lists the rows, triangle
    by triangle. The row-centre line meets the projected edges between the
    smallest and the largest crossing. An edge's crossing is taken from its
    first vertex, so a horizontal edge on the line adds its first endpoint and
    the next edge its second. The interval is padded by one pixel on each
    side and clipped to the box. A row that meets no edge keeps the whole box
    row.
    """
    y = seg_row + 0.5
    xmin = np.full(len(y), np.inf)
    xmax = np.full(len(y), -np.inf)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        ua, va, ub, vb = u[:, i], v[:, i], u[:, j], v[:, j]
        flat = va == vb
        slope = np.where(flat, 0.0, (ub - ua) / np.where(flat, 1.0, vb - va))
        meets = (np.repeat(np.minimum(va, vb), heights) <= y) & (y <= np.repeat(np.maximum(va, vb), heights))
        x = np.repeat(ua, heights) + (y - np.repeat(va, heights)) * np.repeat(slope, heights)
        xmin = np.where(meets, np.minimum(xmin, x), xmin)
        xmax = np.where(meets, np.maximum(xmax, x), xmax)
    none = xmin > xmax
    xmin[none], xmax[none] = -np.inf, np.inf
    box0, box1 = np.repeat(u0, heights), np.repeat(u1, heights)
    lo = np.clip(np.ceil(xmin - 0.5) - 1, box0, box1).astype(int)
    hi = np.clip(np.floor(xmax - 0.5) + 1, box0, box1).astype(int)
    return lo, hi - lo + 1


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
        zbuf[box][nearer] = layer.t[nearer]
        ids[box][nearer] = index
    depth[r0:r1, c0:c1] = np.where(np.isfinite(zbuf), zbuf, 0.0)
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


def back_project(frame: DepthFrame, instance_filter: int | None = None) -> PointCloud:
    """World point and screen-space normal per pixel of `instance_filter`, or per valid pixel for None."""
    _check_type(frame, DepthFrame, "frame")
    if instance_filter is None:
        mask = frame.valid
    else:
        _check_instance(instance_filter, "instance_filter")
        mask = frame.instance_id == instance_filter
    if not mask.any():
        return PointCloud.empty()
    # the box-sized temporaries die with `_masked_points`, before the cloud copies its arrays
    points, normals = _masked_points(frame, mask)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return PointCloud(points, normals)


def _masked_points(frame: DepthFrame, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The world points and the world normals, not yet unit, of the pixels of `mask`."""
    cam = frame.camera
    # work inside the mask's bounding box: a neighbor outside the mask never
    # contributes to a normal, and every value is computed per pixel
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    mask = mask[box]
    h, w = mask.shape
    vs_all, us_all = np.mgrid[box]
    z = frame.depth[box].astype(np.float64)
    dx, dy = _pixel_rays(cam, us_all, vs_all)
    pts_cam = np.stack([dx * z, dy * z, z], axis=-1)

    rot = cam.pose.rotation.as_matrix()
    pts_world = pts_cam @ rot.T + cam.pose.translation
    # screen-space normals: cross of horizontal/vertical neighbor differences,
    # restricted to same-instance neighbors; fallback points at the camera
    du = np.zeros_like(pts_cam)
    dv = np.zeros_like(pts_cam)
    same_u = np.zeros((h, w), dtype=bool)
    same_v = np.zeros((h, w), dtype=bool)
    inst = frame.instance_id[box]
    same_u[:, :-1] = (inst[:, :-1] == inst[:, 1:]) & mask[:, :-1] & mask[:, 1:]
    same_v[:-1, :] = (inst[:-1, :] == inst[1:, :]) & mask[:-1, :] & mask[1:, :]
    du[:, :-1][same_u[:, :-1]] = (pts_cam[:, 1:] - pts_cam[:, :-1])[same_u[:, :-1]]
    dv[:-1, :][same_v[:-1, :]] = (pts_cam[1:, :] - pts_cam[:-1, :])[same_v[:-1, :]]
    n_cam = np.cross(du, dv)
    lens = np.linalg.norm(n_cam, axis=-1)
    good = lens > 1e-12
    n_cam[good] /= lens[good][..., None]
    # orient toward the camera (camera sits at the origin of the cam frame)
    flip = np.einsum("hwc,hwc->hw", n_cam, pts_cam) > 0
    n_cam[flip] *= -1.0
    view = pts_cam / np.maximum(np.linalg.norm(pts_cam, axis=-1), 1e-12)[..., None]
    n_cam[~good] = -view[~good]
    return pts_world[mask], (n_cam @ rot.T)[mask]


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
    """The frame `save_frame` wrote as `<stem>.frame.npz`; intrinsics that are
    not 6 finite numbers, a fractional width or height, or a pose that is not
    7 numbers raise `InputError`."""
    path = Path(dir_path) / f"{stem}.frame.npz"
    depth, inst, intrinsics, pose = read_npz(path, ("depth", "instance_id", "intrinsics", "pose"))
    if intrinsics.shape != (6,) or not np.isfinite(intrinsics).all():
        raise InputError(f"{path}: intrinsics must be 6 finite numbers, got {intrinsics!r}")
    w, h, fx, fy, cx, cy = intrinsics.tolist()
    if not (float(w).is_integer() and float(h).is_integer()):
        raise InputError(f"{path}: width and height must be whole numbers, got {(w, h)}")
    return DepthFrame(depth, inst, CameraModel(int(w), int(h), fx, fy, cx, cy, Pose.from_7floats(pose)))
