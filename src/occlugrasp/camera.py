"""Pinhole depth camera: rendering, sensor noise, back-projection, `.npz` persistence.

`render` resolves each covered pixel by an exact ray/triangle intersection
through the pixel center, so the result is identical to per-pixel ray
casting; depth is the camera-frame z coordinate. It rasterises each instance
into its own depth layer, the nearest hit t over the instance's pixel box,
evaluating (triangle, pixel) pairs in batches, pixel-box rows of equal width
together, a chunk of about `_CHUNK_PAIRS` pairs at a time. A frame is
composed from its instances' layers: the nearest hit wins a pixel, and the
lower instance index wins a tie.

`render` skips the back faces of an instance when that cannot change its
layer: its mesh is closed with outward winding (`TriMesh.is_closed_outward`)
and every vertex lies in front of the camera plane, so the camera is outside
the mesh. A ray from a camera outside a closed, outward mesh that meets a
back face has met a front face of the same mesh no farther along, so the
nearest hit is a front face's. Every other instance is rasterised whole.

The layers of the last scene rasterised stay in one module-level slot,
keyed by the camera object and the identity of each instance, so the single
scenes derived from a cluttered scene are composed from its layers without
rasterising again. Identity is a sound key because cameras, instances, poses
and mesh arrays are immutable and the slot holds strong references to what
it keys. `back_project` works inside the bounding box of the retained
pixels.
"""

from __future__ import annotations

import numbers
import zipfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InputError, _finite_positive, _rng
from .geometry import PointCloud, Pose, Quaternion
from .scenes import ObjectInstance, Scene

BACKGROUND_ID = 65535


@dataclass(frozen=True)
class CameraModel:
    width: int = 640
    height: int = 480
    fx: float = 540.0
    fy: float = 540.0
    cx: float = 320.0
    cy: float = 240.0
    pose: Pose = None  # camera-to-world

    def __post_init__(self):
        for name in ("width", "height"):
            size = getattr(self, name)
            if not isinstance(size, numbers.Integral) or isinstance(size, bool) or size <= 0:
                raise InputError(f"{name} must be a positive integer, got {size!r}")
        if not (_finite_positive(self.fx) and _finite_positive(self.fy)):
            raise InputError(f"focal lengths must be finite and positive, got {(self.fx, self.fy)}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise InputError("principal point must lie inside the image")
        if self.pose is None:
            object.__setattr__(self, "pose", Pose.identity())
        elif not isinstance(self.pose, Pose):
            raise InputError(f"camera pose must be a Pose, got {self.pose!r}")

    def same_view(self, other: "CameraModel") -> bool:
        return (
            (self.width, self.height, self.fx, self.fy, self.cx, self.cy)
            == (other.width, other.height, other.fx, other.fy, other.cx, other.cy)
            and self.pose.rotation.rotation_equal(other.pose.rotation, tol=1e-12)
            and np.allclose(self.pose.translation, other.pose.translation, atol=1e-12)
        )


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


def default_camera(workspace_extent: float = 0.3, width: int = 640, height: int = 480,
                   focal: float = 540.0, elevation_deg: float = 45.0,
                   distance: float = 0.6) -> CameraModel:
    """Side-view camera at the given elevation, looking at the workspace center."""
    c = workspace_extent / 2.0
    el = np.deg2rad(elevation_deg)
    eye = np.array([c, c - distance * np.cos(el), distance * np.sin(el)])
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


# Target number of (triangle, pixel) pairs `render` evaluates at once. A chunk
# holds whole pixel-box rows, at least one, so it may split a triangle; the
# size bounds the temporaries to a few hundred kilobytes.
_CHUNK_PAIRS = 4096

# A triangle of a culled instance, with vertices a, b, c in camera
# coordinates and normal n = cross(b - a, c - a), is a back face when n . a
# exceeds this fraction of |n| |a|. A face nearer edge-on than that is kept.
_BACK_FACE_TOL = 1e-9


class _Layer(NamedTuple):
    """One instance's nearest hit t per pixel of its own pixel box, inf where it misses."""

    row: int
    col: int
    t: np.ndarray  # (rows, cols) float64, read-only


# The last scene `render` rasterised: its camera, and {id(instance): (instance,
# layer or None)}. `render` replaces the whole tuple and never mutates a
# published dict, so a concurrent render sees either the old slot or the new.
_slot: tuple[CameraModel | None, dict[int, tuple[ObjectInstance, _Layer | None]]] = (None, {})


def render(scene: Scene, camera: CameraModel) -> DepthFrame:
    """Nearest-surface depth + owning instance id per pixel.

    Each instance has a depth layer: the nearest hit t of every pixel of its
    own pixel box, the union of its triangles' boxes. The frame is composed
    from the layers in instance order with a strict `<`, so the nearest hit
    wins a pixel and, on equal depth, the lower instance index.

    The layers of the last scene rasterised stay in one module-level slot,
    with its camera, keyed by the identity of each instance. A render with
    the same camera object takes each instance it finds there from the slot
    and rasterises only the rest; a render with any miss replaces the slot
    with its own scene's layers, so the slot holds one scene. Rendering a
    cluttered scene and then its singles (`derive_single_scene`) thus
    rasterises each instance once. The identity key is sound because
    `CameraModel`, `ObjectInstance`, `Pose` and the `TriMesh` arrays are
    immutable, and because the slot holds strong references to the camera
    and the instances, so no id it keys can be reused while it is cached.
    The layers are read-only, and every frame gets new arrays.

    Rasterising: triangles with a vertex at camera z <= 1e-6 are skipped.
    So are the back faces of an instance that passes two gates: its mesh
    `is_closed_outward`, and every vertex has camera z > 1e-6. The second
    gate means the near-plane test drops none of its triangles, and it puts
    the camera outside the mesh (from inside a closed box the camera sees
    only back faces). A back face has n . a above `_BACK_FACE_TOL` |n| |a|,
    where a, b, c are its vertices in camera coordinates and
    n = cross(b - a, c - a): its plane misses the camera, and a ray from the
    camera that meets it leaves the solid there. Having started outside, the
    ray entered the solid earlier, through a front face of the same mesh, so
    the instance's nearest hit, its layer and the frame are what they are
    without the cull. Edge-on faces, within the tolerance, are kept. The
    argument holds in exact arithmetic for a surface that does not cross
    itself, which the convex primitives of `meshes` satisfy. In floating
    point, a ray within the barycentric tolerance of a silhouette edge could
    hit the back face and miss the front one; no frame of the benchmark
    corpora does. The remaining triangles are gathered in instance order
    with their pixel boxes clipped to the image; each box row is one
    segment of (triangle, pixel) pairs.
    Segments are sorted by width, stably, and evaluated in chunks of whole
    segments of about `_CHUNK_PAIRS` pairs, so a chunk may split a triangle.
    A pair hits when the ray through the pixel center meets the triangle
    (Moller-Trumbore, barycentric tolerance 1e-12, determinant above 1e-14,
    t above 1e-9). The three dot products are one `matmul` per segment, the
    BLAS call a loop over triangles makes per box row, so t is bit-identical
    to such a loop; an elementwise sum would round differently where BLAS
    fuses multiply-adds.
    """
    global _slot
    cached_camera, cached = _slot
    if camera is not cached_camera:
        cached = {}
    layers, misses = {}, []
    for instance in scene.instances:
        key = id(instance)
        if key in layers:
            continue
        if key in cached:
            layers[key] = cached[key]
        else:
            layers[key] = None
            misses.append(instance)
    if misses:
        for instance, layer in zip(misses, _rasterise(misses, camera)):
            layers[id(instance)] = (instance, layer)
        _slot = (camera, layers)
    return _compose([layers[id(instance)][1] for instance in scene.instances], camera)


def _rasterise(instances: list[ObjectInstance], camera: CameraModel) -> list[_Layer | None]:
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


def _compose(layers: list[_Layer | None], camera: CameraModel) -> DepthFrame:
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
    if not (_finite_positive(sigma) or sigma == 0):
        raise InputError(f"sigma must be finite and >= 0, got {sigma!r}")
    rng = _rng(seed)  # checks the seed for sigma 0 too
    if sigma == 0:
        return DepthFrame(frame.depth.copy(), frame.instance_id.copy(), frame.camera)
    noise = rng.normal(0.0, sigma, size=frame.depth.shape).astype(np.float32)
    depth = frame.depth.copy()
    valid = frame.valid
    depth[valid] = np.maximum(depth[valid] + noise[valid], np.float32(1e-6))
    return DepthFrame(depth, frame.instance_id.copy(), frame.camera)


def _pixel_rays(camera: CameraModel, us, vs):
    dx = (us + 0.5 - camera.cx) / camera.fx
    dy = (vs + 0.5 - camera.cy) / camera.fy
    return dx, dy


def back_project(frame: DepthFrame, instance_filter: int | None = None,
                 estimate_normals: bool = True) -> PointCloud:
    """World-space point per retained pixel, with screen-space normal estimates."""
    cam = frame.camera
    if instance_filter is None:
        mask = frame.valid
    else:
        mask = frame.instance_id == instance_filter
    if not mask.any():
        return PointCloud.empty()
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
    if not estimate_normals:
        return PointCloud(pts_world[mask])

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
    n_world = n_cam @ rot.T
    n_sel = n_world[mask]
    n_sel /= np.linalg.norm(n_sel, axis=1)[:, None]
    return PointCloud(pts_world[mask], n_sel)


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
