"""Synthetic labelled volumes with analytically known structure properties.

Each phantom places simple solids (ellipsoids, cylinders, boxes) into a
noisy background volume. Placement is rejection-sampled so structures
never overlap and structures of the same class stay separated, which
makes the recorded metadata (depth extent, voxel count, per-slice
centroid path) exact ground truth for the structure-feature extractor.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STRUCTURE_KINDS = ("ellipsoid", "cylinder", "box")
# Minimum separation in voxels between structure bounding boxes; two voxels
# guarantees distinct regions under 26-connectivity.
_SEPARATION = 2
_MAX_PLACEMENT_TRIES = 500


@dataclass(frozen=True)
class StructureRecipe:
    """One foreground class worth of structures."""
    kind: str = "ellipsoid"
    count: int = 1
    radius_range: tuple[float, float] = (2.0, 4.0)   # in-plane semi-extent, voxels
    depth_range: tuple[int, int] = (3, 6)            # axial extent, slices
    drift_range: tuple[float, float] = (0.0, 0.5)    # in-plane centre shift per slice
    intensity: float = 1.0
    intensity_noise: float = 0.05

    def __post_init__(self):
        if self.kind not in STRUCTURE_KINDS:
            raise ValueError(f"unknown structure kind {self.kind!r}")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.radius_range[0] < 1.0:
            raise ValueError("in-plane radius must be at least 1 voxel")
        if self.radius_range[1] < self.radius_range[0]:
            raise ValueError("radius_range must be (low, high)")
        if self.depth_range[0] < 1:
            raise ValueError("depth extent must be at least 1 slice")
        if self.depth_range[1] < self.depth_range[0]:
            raise ValueError("depth_range must be (low, high)")


@dataclass(frozen=True)
class PhantomRecipe:
    """Recipe for one volume: per-foreground-class structure recipes."""
    shape: tuple[int, int, int] = (32, 32, 16)        # (H, W, D)
    structures: tuple[StructureRecipe, ...] = (StructureRecipe(),)
    channels: int = 1
    background_intensity: float = 0.0
    background_noise: float = 0.05

    @property
    def num_classes(self) -> int:
        """Total class count including background 0."""
        return len(self.structures) + 1


@dataclass
class StructureMeta:
    """Ground truth for one placed structure."""
    class_id: int
    kind: str
    slices: list[int]
    voxel_count: int
    slice_counts: dict[int, int]
    slice_centroids: dict[int, tuple[float, float]]

    @property
    def depth(self) -> int:
        return len(self.slices)


@dataclass
class PhantomMetadata:
    shape: tuple[int, int, int]
    num_classes: int
    structures: list[StructureMeta] = field(default_factory=list)

    def class_structures(self, class_id: int) -> list[StructureMeta]:
        return [s for s in self.structures if s.class_id == class_id]

    def class_depths(self, class_id: int) -> list[int]:
        return [s.depth for s in self.class_structures(class_id)]

    def class_voxel_count(self, class_id: int) -> int:
        return sum(s.voxel_count for s in self.class_structures(class_id))

    def class_slice_centroids(self, class_id: int) -> dict[int, tuple[float, float]]:
        """Per-slice centroid of all voxels of the class, merged across its
        structures by voxel-count weighting."""
        sums: dict[int, tuple[float, float, int]] = {}
        for s in self.class_structures(class_id):
            for z, (cy, cx) in s.slice_centroids.items():
                n = s.slice_counts[z]
                ty, tx, tn = sums.get(z, (0.0, 0.0, 0))
                sums[z] = (ty + cy * n, tx + cx * n, tn + n)
        return {z: (ty / tn, tx / tn) for z, (ty, tx, tn) in sums.items()}


@dataclass
class LabeledVolume:
    """One training case: channels-last image plus integer label map."""
    image: np.ndarray                       # (H, W, D, C) float64
    labels: np.ndarray                      # (H, W, D) uint8
    patient_id: str


def _rasterize(kind: str, center0: tuple[float, float], z_anchor: float,
               radius: tuple[float, float], depth_extent: float,
               drift: tuple[float, float], shape: tuple[int, int, int]):
    """Voxelise one structure. Returns (coords per slice, slice list).

    The in-plane centre moves linearly with the slice index (the drift),
    so the per-slice centroid path is known by construction.
    """
    h, w, d = shape
    per_slice: dict[int, np.ndarray] = {}
    if kind == "ellipsoid":
        c = depth_extent / 2.0
        z_lo = int(np.ceil(z_anchor - c))
        z_hi = int(np.floor(z_anchor + c))
        candidates = range(max(z_lo, 0), min(z_hi, d - 1) + 1)
    else:
        z_first = int(round(z_anchor))
        candidates = range(max(z_first, 0), min(z_first + int(depth_extent) - 1, d - 1) + 1)

    for z in candidates:
        if kind == "ellipsoid":
            t = (z - z_anchor) / (depth_extent / 2.0)
            s = 1.0 - t * t
            if s <= 0:
                continue
            ry, rx = radius[0] * np.sqrt(s), radius[1] * np.sqrt(s)
            offset = z - z_anchor
        else:
            ry, rx = radius
            offset = z - int(round(z_anchor))
        cy = center0[0] + drift[0] * offset
        cx = center0[1] + drift[1] * offset
        ii = np.arange(max(0, int(np.floor(cy - ry))), min(h - 1, int(np.ceil(cy + ry))) + 1)
        jj = np.arange(max(0, int(np.floor(cx - rx))), min(w - 1, int(np.ceil(cx + rx))) + 1)
        if ii.size == 0 or jj.size == 0:
            continue
        gi, gj = np.meshgrid(ii, jj, indexing="ij")
        if kind == "box":
            inside = (np.abs(gi - cy) <= ry) & (np.abs(gj - cx) <= rx)
        else:
            inside = ((gi - cy) / ry) ** 2 + ((gj - cx) / rx) ** 2 <= 1.0
        if inside.any():
            per_slice[z] = np.stack([gi[inside], gj[inside]], axis=1)
    return per_slice


def generate_phantom(recipe: PhantomRecipe, seed: int,
                     patient_id: str = "p000") -> tuple[LabeledVolume, PhantomMetadata]:
    """Deterministically synthesise one labelled volume plus its metadata.

    Raises ValueError when a structure cannot be placed without violating
    the separation constraints (volume too small for the recipe).
    """
    h, w, d = recipe.shape
    rng = np.random.default_rng(seed)
    labels = np.zeros((h, w, d), dtype=np.uint8)
    meta = PhantomMetadata(shape=recipe.shape, num_classes=recipe.num_classes)
    placed_boxes: list[tuple[int, int, int, int, int, int]] = []

    for class_id, srec in enumerate(recipe.structures, start=1):
        for _ in range(srec.count):
            for _attempt in range(_MAX_PLACEMENT_TRIES):
                ry = rng.uniform(*srec.radius_range)
                rx = rng.uniform(*srec.radius_range)
                depth_extent = int(rng.integers(srec.depth_range[0], srec.depth_range[1] + 1))
                drift_mag = rng.uniform(*srec.drift_range)
                drift_dir = rng.uniform(0, 2 * np.pi)
                drift = (drift_mag * np.sin(drift_dir), drift_mag * np.cos(drift_dir))
                reach_y = ry + abs(drift[0]) * depth_extent
                reach_x = rx + abs(drift[1]) * depth_extent
                if 2 * reach_y + 2 >= h or 2 * reach_x + 2 >= w or depth_extent > d:
                    continue
                cy = rng.uniform(reach_y + 1, h - 1 - reach_y - 1)
                cx = rng.uniform(reach_x + 1, w - 1 - reach_x - 1)
                if depth_extent >= d:
                    z_anchor = 0.0 if srec.kind != "ellipsoid" else d / 2.0
                elif srec.kind == "ellipsoid":
                    z_anchor = rng.uniform(depth_extent / 2.0, d - depth_extent / 2.0)
                else:
                    z_anchor = float(rng.integers(0, d - depth_extent + 1))
                per_slice = _rasterize(srec.kind, (cy, cx), z_anchor, (ry, rx),
                                       depth_extent, drift, recipe.shape)
                if not per_slice:
                    continue
                zs = sorted(per_slice)
                coords = np.concatenate([per_slice[z] for z in zs], axis=0)
                box = (coords[:, 0].min() - _SEPARATION, coords[:, 0].max() + _SEPARATION,
                       coords[:, 1].min() - _SEPARATION, coords[:, 1].max() + _SEPARATION,
                       zs[0] - _SEPARATION, zs[-1] + _SEPARATION)
                clash = any(not (box[1] < o[0] or o[1] < box[0] or box[3] < o[2]
                                 or o[3] < box[2] or box[5] < o[4] or o[5] < box[4])
                            for o in placed_boxes)
                if clash:
                    continue
                placed_boxes.append(box)
                slice_counts = {z: len(per_slice[z]) for z in zs}
                slice_centroids = {z: (float(per_slice[z][:, 0].mean()),
                                       float(per_slice[z][:, 1].mean())) for z in zs}
                for z in zs:
                    labels[per_slice[z][:, 0], per_slice[z][:, 1], z] = class_id
                meta.structures.append(StructureMeta(
                    class_id=class_id, kind=srec.kind, slices=zs,
                    voxel_count=int(coords.shape[0]),
                    slice_counts=slice_counts, slice_centroids=slice_centroids))
                break
            else:
                raise ValueError(
                    f"could not place a class-{class_id} {srec.kind} in volume {recipe.shape}; "
                    "reduce structure sizes or counts")

    image = rng.normal(recipe.background_intensity, recipe.background_noise,
                       size=(h, w, d, recipe.channels))
    for srec, class_id in zip(recipe.structures, range(1, recipe.num_classes)):
        mask = labels == class_id
        n = int(mask.sum())
        image[mask] = rng.normal(srec.intensity, srec.intensity_noise,
                                 size=(n, recipe.channels))
    volume = LabeledVolume(image=image, labels=labels, patient_id=patient_id)
    return volume, meta


def generate_cohort(recipe: PhantomRecipe, count: int, seed: int) -> list[LabeledVolume]:
    """Generate ``count`` phantoms with ids p000, p001, ... under one seed."""
    return [generate_phantom(recipe, seed=seed + i, patient_id=f"p{i:03d}")[0]
            for i in range(count)]


def dataset_presets() -> dict[str, PhantomRecipe]:
    """Desk-scale recipes spanning the qualitative regimes of interest:
    class counts from 2 to 7, large versus small structures, and weak
    versus strong slice-to-slice drift."""

    def s(**kw):
        return StructureRecipe(**kw)

    return {
        # four-channel input, three lesion-like classes of moderate size
        "multi_modal_lesions": PhantomRecipe(
            shape=(32, 32, 16), channels=4,
            structures=(s(kind="ellipsoid", radius_range=(3, 5), depth_range=(4, 8), intensity=1.0),
                        s(kind="ellipsoid", radius_range=(2, 4), depth_range=(3, 6), intensity=1.6),
                        s(kind="box", radius_range=(1.5, 3), depth_range=(3, 5), intensity=2.2))),
        # one large organ plus a small lesion, single channel
        "organ_and_lesion": PhantomRecipe(
            shape=(32, 32, 16),
            structures=(s(kind="ellipsoid", radius_range=(5, 7), depth_range=(8, 12), intensity=1.2),
                        s(kind="ellipsoid", radius_range=(1.5, 2.5), depth_range=(2, 4), intensity=2.0))),
        # three tissue-like classes filling much of the volume
        "tissue_compartments": PhantomRecipe(
            shape=(32, 32, 16),
            structures=(s(kind="box", radius_range=(4, 6), depth_range=(8, 12), intensity=0.8),
                        s(kind="box", radius_range=(3, 5), depth_range=(6, 10), intensity=1.5),
                        s(kind="ellipsoid", radius_range=(3, 5), depth_range=(6, 10), intensity=2.2))),
        # many small drifting structures
        "small_node_field": PhantomRecipe(
            shape=(40, 40, 16),
            structures=tuple(s(kind="ellipsoid", radius_range=(1.2, 2.2), depth_range=(2, 4),
                               drift_range=(0.2, 0.8), intensity=0.8 + 0.35 * i)
                             for i in range(6))),
        # mid-size pelvic-style organs with strong drift
        "three_organ_drift": PhantomRecipe(
            shape=(32, 32, 16),
            structures=(s(kind="cylinder", radius_range=(3, 4.5), depth_range=(6, 10),
                          drift_range=(0.3, 1.0), intensity=1.0),
                        s(kind="ellipsoid", radius_range=(3, 5), depth_range=(5, 8), intensity=1.7),
                        s(kind="cylinder", radius_range=(2, 3), depth_range=(4, 7),
                          drift_range=(0.2, 0.7), intensity=2.4))),
    }


def dataset_preset(name: str) -> PhantomRecipe:
    """One preset's recipe; an unknown name raises ``ValueError`` listing all."""
    presets = dataset_presets()
    if name not in presets:
        raise ValueError(f"unknown phantom preset {name!r}"
                         f" (available: {', '.join(sorted(presets))})")
    return presets[name]
