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


@dataclass
class SliceSample:
    """One training example: a stack of neighbouring slices and its target.

    ``target`` is (H, W) for single-slice prediction or (H, W, D) for
    volumetric patches.
    """
    stack: np.ndarray
    target: np.ndarray
    patient_id: str
    slice_index: int


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
    idx = np.clip(np.arange(center - r, center + r + 1), 0, depth - 1)
    return SliceSample(stack=volume.image[:, :, idx, :],
                       target=volume.labels[:, :, center],
                       patient_id=volume.patient_id, slice_index=center)


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

    @classmethod
    def identity(cls) -> "AugmentParams":
        return cls(probability=0.0)


def _warp_plane(plane: np.ndarray, coords: np.ndarray, order: int) -> np.ndarray:
    return ndimage.map_coordinates(plane, coords, order=order, mode="nearest")


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

    new_stack = np.empty_like(stack)
    for k in range(stack.shape[2]):
        for c in range(stack.shape[3]):
            new_stack[:, :, k, c] = _warp_plane(stack[:, :, k, c], src, order=1)
    if target.ndim == 2:
        new_target = _warp_plane(target, src, order=0)
    else:
        new_target = np.stack([_warp_plane(target[:, :, k], src, order=0)
                               for k in range(target.shape[2])], axis=2)
    return replace(sample, stack=new_stack, target=new_target)


@dataclass(frozen=True)
class FoldSplit:
    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]


def make_folds(patient_ids, num_folds: int = 5, seed: int = 0,
               val_fraction: float = 0.2) -> list[FoldSplit]:
    """Patient-level cross-validation splits.

    Patients are shuffled once, the test partition rotates over
    ``num_folds`` equal blocks, and the remaining patients are split
    val/train by ``val_fraction``. Every patient appears in exactly one
    partition per fold.
    """
    ids = list(patient_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("patient ids must be unique")
    check_fold_sizes(len(ids), num_folds, val_fraction)
    rng = np.random.default_rng(seed)
    order = [ids[i] for i in rng.permutation(len(ids))]
    blocks = [list(b) for b in np.array_split(np.array(order, dtype=object), num_folds)]
    folds = []
    for k in range(num_folds):
        rest = [pid for j, b in enumerate(blocks) if j != k for pid in b]
        n_val = int(round(val_fraction * len(rest)))
        folds.append(FoldSplit(train=tuple(rest[n_val:]), val=tuple(rest[:n_val]),
                               test=tuple(blocks[k])))
    return folds


def check_fold_sizes(num_patients: int, num_folds: int, val_fraction: float = 0.2) -> None:
    """Raise ``ValueError`` unless every fold of ``make_folds`` gets non-empty
    train, val and test partitions; needs the counts only, not the ids."""
    if num_folds < 2:
        raise ValueError("need at least 2 folds")
    # array_split's test blocks hold floor(n/k) or ceil(n/k) patients
    for test in {num_patients // num_folds, -(-num_patients // num_folds)}:
        n_val = int(round(val_fraction * (num_patients - test)))
        if min(test, n_val, num_patients - test - n_val) < 1:
            raise ValueError(f"{num_patients} patients are too few for {num_folds} folds "
                             "with non-empty train/val/test")
