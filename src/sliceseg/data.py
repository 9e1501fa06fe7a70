"""Volume preprocessing, slice-stack extraction, augmentation and folds."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .phantom import LabeledVolume

CT_CLIP = (-1000.0, 2000.0)
CT_SHIFT = 500.0
CT_SCALE = 1500.0


def normalize_ct(values) -> np.ndarray:
    """Clamp CT-style intensities to [-1000, 2000], centre on 500 and scale
    by 1500, mapping the clamp window onto [-1, 1]."""
    v = np.clip(np.asarray(values, dtype=np.float64), CT_CLIP[0], CT_CLIP[1])
    return (v - CT_SHIFT) / CT_SCALE


def normalize_zscore(values) -> np.ndarray:
    """Zero-mean unit-variance rescaling over the whole array."""
    v = np.asarray(values, dtype=np.float64)
    sd = v.std()
    if sd < 1e-12:
        raise ValueError("z-score normalisation undefined for (near) constant input")
    return (v - v.mean()) / sd


# the config's normalization names and what each does to a whole image
NORMALIZERS = {"zscore": normalize_zscore, "ct": normalize_ct, "none": lambda v: v}


@dataclass
class SliceSample:
    """One training example: a stack of neighbouring slices and its target.

    ``target`` is (H, W) for single-slice prediction or (H, W, D) for
    volumetric patches.
    """
    stack: np.ndarray
    target: np.ndarray


def depth_window(image: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Slices lo..hi-1 of an (H, W, D, C) image along depth, indices
    outside the volume replaced by the nearest boundary slice (edge
    replication)."""
    return image[:, :, np.clip(np.arange(lo, hi), 0, image.shape[2] - 1), :]


def extract_stack(volume: LabeledVolume, center: int, d: int) -> SliceSample:
    """Take the d slices centred on ``center`` plus that slice's labels.

    d must be odd. Neighbour indices falling outside the volume are
    replaced by the nearest boundary slice (edge replication).
    """
    if d < 1 or d % 2 == 0:
        raise ValueError(f"stack depth must be odd and positive, got {d}")
    depth = volume.labels.shape[2]
    if not 0 <= center < depth:
        raise ValueError(f"slice {center} outside volume of depth {depth}")
    r = d // 2
    return SliceSample(stack=depth_window(volume.image, center - r, center + r + 1),
                       target=volume.labels[:, :, center])


@dataclass(frozen=True)
class AugmentParams:
    """Per-sample geometric augmentation; each transform is applied
    independently with the given probability. Magnitudes are drawn
    uniformly from their ranges."""
    probability: float = 0.5
    enable_flip: bool = True
    rotation_degrees: tuple[float, float] = (-1.0, 1.0)
    shear_range: tuple[float, float] = (-0.05, 0.05)
    zoom_range: tuple[float, float] = (0.9, 1.1)
    elastic_sigma: float = 4.0
    elastic_alpha: float = 8.0

    def __post_init__(self):
        if not 0 <= self.probability <= 1:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        for name in ("rotation_degrees", "shear_range", "zoom_range"):
            low, high = getattr(self, name)
            if low > high:
                raise ValueError(f"{name} low end {low} is above its high end {high}")
        # a zero zoom makes the warp matrix singular
        if min(self.zoom_range) <= 0:
            raise ValueError(f"zoom_range values must be positive, got {self.zoom_range}")
        # gaussian_filter skips an axis whose sigma is not positive, so zero
        # or a negative one would leave the displacement field raw noise
        if not 0 < self.elastic_sigma < np.inf:
            raise ValueError(
                f"elastic_sigma must be positive and finite, got {self.elastic_sigma}")


def _warp(a: np.ndarray, coords: np.ndarray, order: int) -> np.ndarray:
    """Resample every (H, W) plane of ``a`` (H, W, ...) at ``coords``."""
    out = np.empty_like(a)
    for k in np.ndindex(a.shape[2:]):
        plane = (slice(None), slice(None), *k)
        out[plane] = ndimage.map_coordinates(a[plane], coords, order=order, mode="nearest")
    return out


def augment(sample: SliceSample, params: AugmentParams,
            rng: np.random.Generator) -> SliceSample:
    """Randomly flip and warp one sample.

    The same geometric transform is applied to every slice of the stack
    and to the target; image planes are interpolated bilinearly, the
    target with nearest neighbour so the label alphabet is preserved.
    With zero probability the sample is returned unchanged (same arrays).
    """
    stack = sample.stack
    target = sample.target
    p = params.probability

    if params.enable_flip and rng.uniform() < p:
        stack = stack[:, ::-1]
        target = target[:, ::-1]

    h, w = stack.shape[:2]
    matrix = np.eye(2)
    warped = False
    if rng.uniform() < p:
        theta = np.deg2rad(rng.uniform(*params.rotation_degrees))
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        matrix = rot @ matrix
        warped = True
    if rng.uniform() < p:
        shear = rng.uniform(*params.shear_range)
        matrix = np.array([[1.0, shear], [0.0, 1.0]]) @ matrix
        warped = True
    if rng.uniform() < p:
        zoom = rng.uniform(*params.zoom_range)
        matrix = matrix * zoom
        warped = True
    elastic = rng.uniform() < p

    if not warped and not elastic:
        if stack is sample.stack:
            return sample
        return replace(sample, stack=stack.copy(), target=target.copy())

    centre = np.array([(h - 1) / 2.0, (w - 1) / 2.0])
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    out_coords = np.stack([rows, cols]).astype(np.float64)
    rel = out_coords.reshape(2, -1) - centre[:, None]
    src = np.linalg.inv(matrix) @ rel + centre[:, None]
    src = src.reshape(2, h, w)
    if elastic:
        # smoothed random displacement field, shared by all slices
        for axis in range(2):
            field = ndimage.gaussian_filter(rng.uniform(-1.0, 1.0, size=(h, w)),
                                            params.elastic_sigma)
            src[axis] += field * params.elastic_alpha

    return replace(sample, stack=_warp(stack, src, order=1), target=_warp(target, src, order=0))


# Share of the non-test patients of a fold held out for validation.
VAL_FRACTION = 0.2


@dataclass(frozen=True)
class FoldSplit:
    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]


def fold_bounds(num_patients: int, num_folds: int) -> list[tuple[int, int, int]]:
    """Each fold's ``(start, end, n_val)`` over the shuffled patients: the
    test partition is ``order[start:end]``, with ``num_folds`` blocks cut
    as ``np.array_split`` cuts them, and val is the first ``n_val`` of the
    rest. Raises ``ValueError`` when some fold would get an empty train,
    val or test partition; needs the counts only, not the ids."""
    if num_folds < 2:
        raise ValueError("need at least 2 folds")
    size, larger = divmod(num_patients, num_folds)
    bounds = []
    for k in range(num_folds):
        start = k * size + min(k, larger)
        end = start + size + (k < larger)
        rest = num_patients - (end - start)
        n_val = int(round(VAL_FRACTION * rest))
        if not (start < end and 0 < n_val < rest):
            raise ValueError(f"{num_patients} patients are too few for {num_folds} folds "
                             "with non-empty train/val/test")
        bounds.append((start, end, n_val))
    return bounds


def make_folds(patient_ids, num_folds: int = 5, seed: int = 0) -> list[FoldSplit]:
    """Patient-level cross-validation splits.

    Patients are shuffled once, the test partition rotates over
    ``num_folds`` equal blocks, and the remaining patients are split
    val/train by ``VAL_FRACTION`` (see :func:`fold_bounds`). Every patient
    appears in exactly one partition per fold.
    """
    ids = list(patient_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("patient ids must be unique")
    bounds = fold_bounds(len(ids), num_folds)
    rng = np.random.default_rng(seed)
    order = tuple(ids[i] for i in rng.permutation(len(ids)))
    folds = []
    for start, end, n_val in bounds:
        rest = order[:start] + order[end:]
        folds.append(FoldSplit(train=rest[n_val:], val=rest[:n_val], test=order[start:end]))
    return folds
