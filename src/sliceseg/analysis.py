"""Structure features of label volumes and model cost accounting."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import ops
from .autodiff import Tensor, no_grad
from .models import SegmentationModel

# 26-connectivity: any of the 3x3x3 neighbours joins two voxels.
_CONNECTIVITY = np.ones((3, 3, 3), dtype=int)


def _as_volumes(label_volumes) -> list[np.ndarray]:
    vols = [np.asarray(v) for v in label_volumes]
    if not vols:
        raise ValueError("need at least one label volume")
    for v in vols:
        if v.ndim != 3:
            raise ValueError(f"label volumes must be 3D, got shape {v.shape}")
    return vols


def structure_depth(label_volumes, class_id: int) -> float:
    """Mean axial extent, in slices, of the connected regions of a class.

    Per volume the region extents are averaged, then the per-volume values
    are averaged. The paper's printed formula divides by the sum of the
    region indices 1..R; this code divides by the region count R.
    """
    vols = _as_volumes(label_volumes)
    per_patient = []
    for v in vols:
        mask = v == class_id
        if not mask.any():
            continue
        labeled, count = ndimage.label(mask, structure=_CONNECTIVITY)
        depths = [box[2].stop - box[2].start for box in ndimage.find_objects(labeled)]
        per_patient.append(sum(depths) / count)
    if not per_patient:
        raise ValueError(f"class {class_id} absent from every volume")
    return float(np.mean(per_patient))


def structure_size(label_volumes, class_id: int) -> float:
    """Mean fraction of the volume occupied by a class."""
    vols = _as_volumes(label_volumes)
    shape = vols[0].shape
    for v in vols:
        if v.shape != shape:
            raise ValueError("structure_size expects volumes of identical shape")
    total = sum(int((v == class_id).sum()) for v in vols)
    return total / (len(vols) * float(np.prod(shape)))


def _slice_centroids(mask: np.ndarray) -> dict[int, np.ndarray]:
    out = {}
    for z in range(mask.shape[2]):
        ii, jj = np.nonzero(mask[:, :, z])
        if ii.size:
            out[z] = np.array([ii.mean(), jj.mean()])
    return out


def structure_displacement(label_volumes, class_id: int) -> float:
    """Mean in-plane centroid travel between consecutive slices.

    For every volume, each slice pair (s-1, s) in which the class appears
    in both slices contributes the Euclidean distance between the two
    in-plane centroids; the total is divided by volumes * slices-per-volume.
    """
    vols = _as_volumes(label_volumes)
    depth = vols[0].shape[2]
    for v in vols:
        if v.shape[2] != depth:
            raise ValueError("structure_displacement expects equal volume depths")
    total = 0.0
    pairs = 0
    for v in vols:
        cents = _slice_centroids(v == class_id)
        for z in range(1, depth):
            if z in cents and z - 1 in cents:
                total += float(np.linalg.norm(cents[z - 1] - cents[z]))
                pairs += 1
    if pairs == 0:
        raise ValueError(f"class {class_id} never appears in two consecutive slices")
    return total / (len(vols) * depth)


def class_feature_table(label_volumes, num_classes: int) -> list[dict]:
    """Per-foreground-class depth, size fraction and displacement."""
    rows = []
    for k in range(1, num_classes):
        rows.append({
            "class_id": k,
            "depth": structure_depth(label_volumes, k),
            "size_fraction": structure_size(label_volumes, k),
            "displacement": structure_displacement(label_volumes, k),
        })
    return rows


# ---------------------------------------------------------------------------
# model cost accounting

# FLOP convention: one multiply-accumulate counts as two floating point
# operations, and only convolutions (1x1 output convs included) are
# counted; normalisation, activations, pooling and interpolation are
# excluded.
FLOPS_PER_MAC = 2
BYTES_PER_VALUE = 8  # float64


def count_params(model: SegmentationModel) -> int:
    """Exact number of trainable scalars."""
    return sum(t.data.size for t in model.parameters().values())


@dataclass
class CostReport:
    parameter_count: int
    flop_count: int
    activation_memory_bytes: int


def cost_report(model: SegmentationModel, in_plane: tuple[int, int]) -> CostReport:
    """Parameter, FLOP and activation-memory counts from one traced
    forward pass of a single input at the given in-plane size. The bytes
    count every traced layer output plus the input plus the parameters,
    at 8 bytes per value."""
    x = Tensor(np.zeros((1, *in_plane, model.spec.d, model.spec.in_channels)))
    records: list[ops.OpCost] = []
    with ops.cost_trace(records), no_grad():
        model.forward(x, training=False)
    params = count_params(model)
    values = sum(math.prod(r.shape) for r in records) + x.data.size + params
    return CostReport(parameter_count=params,
                      flop_count=sum(FLOPS_PER_MAC * r.macs for r in records),
                      activation_memory_bytes=BYTES_PER_VALUE * values)


def count_flops(model: SegmentationModel, in_plane: tuple[int, int]) -> int:
    """Forward-pass floating point operations for a single input at the
    given in-plane size, under the 2-FLOPs-per-MAC convention."""
    return cost_report(model, in_plane).flop_count
