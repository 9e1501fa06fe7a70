"""Finite-difference gradient verification.

The checker treats the function under test as a black box: it runs one
analytic backward pass, then re-evaluates the function with each selected
input coordinate nudged by ``+STEP`` and ``-STEP`` and compares the central
difference against the analytic gradient.

A central difference is only a valid derivative oracle where the function
is smooth across [x - STEP, x + STEP]. Piecewise-linear nodes (the ReLU
that ends batch norm, max pooling) create kinks; a coordinate that lands
near one produces an estimate that changes with the step size.
Suspicious coordinates are therefore re-probed at a smaller step, and
ones whose numeric estimate is itself step-unstable are excluded and
counted in the report instead of being compared against the analytic
value.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor, backward

STEP = 1e-5
SUSPECT_REL_ERROR = 1e-3
STABILITY_RATIO = 10.0


@dataclass
class GradCheckReport:
    max_rel_error: float
    coords_checked: int
    skipped_nonsmooth: int
    worst_tensor: int
    worst_coord: tuple[int, ...]
    worst_analytic: float
    worst_numeric: float

    def __str__(self) -> str:
        return (f"max rel error {self.max_rel_error:.3e} over {self.coords_checked} coords "
                f"({self.skipped_nonsmooth} non-smooth skipped; worst: tensor "
                f"{self.worst_tensor} at {self.worst_coord}, analytic "
                f"{self.worst_analytic:.6e}, numeric {self.worst_numeric:.6e})")


def _rel_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-6)


def finite_difference_check(f: Callable[..., Tensor], inputs: Sequence[Tensor],
                            max_coords_per_tensor: int | None = None,
                            rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare analytic gradients of scalar-valued ``f`` against central
    finite differences.

    Checks every coordinate of every input tensor by default. For large
    inputs, ``max_coords_per_tensor`` limits the check to a seeded random
    subset per tensor so the cost stays bounded. Coordinates whose
    numeric estimate exceeds ``SUSPECT_REL_ERROR`` are re-probed at
    ``STEP / STABILITY_RATIO``; if the two numeric estimates disagree by
    more than ``SUSPECT_REL_ERROR`` the coordinate sits on a kink and is
    skipped (a genuinely wrong analytic gradient is step-stable and still
    reported). Raises ``ValueError`` when no coordinate is compared, so a
    check cannot pass with every coordinate skipped.
    """
    inputs = list(inputs)
    for t in inputs:
        t.requires_grad = True
        t.grad = None

    out = f(*inputs)
    if out.data.size != 1:
        raise ValueError(f"function under test must be scalar-valued, got shape {out.data.shape}")
    backward(out)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]

    worst = GradCheckReport(0.0, 0, 0, -1, (), 0.0, 0.0)
    checked = 0
    skipped = 0
    for ti, t in enumerate(inputs):
        n = t.data.size
        if max_coords_per_tensor is not None and n > max_coords_per_tensor:
            if rng is None:
                rng = np.random.default_rng(0)
            flats = sorted(int(i) for i in rng.choice(n, size=max_coords_per_tensor, replace=False))
        else:
            flats = range(n)
        for flat in flats:
            coord = np.unravel_index(flat, t.data.shape) if t.data.ndim else ()
            orig = t.data[coord]

            def numeric_at(h: float) -> float:
                t.data[coord] = orig + h
                hi = float(f(*inputs).data)
                t.data[coord] = orig - h
                lo = float(f(*inputs).data)
                t.data[coord] = orig
                return (hi - lo) / (2.0 * h)

            numeric = numeric_at(STEP)
            a = float(analytic[ti][coord])
            err = _rel_error(a, numeric)
            if err > SUSPECT_REL_ERROR:
                refined = numeric_at(STEP / STABILITY_RATIO)
                if _rel_error(numeric, refined) > SUSPECT_REL_ERROR:
                    skipped += 1
                    continue
                numeric = refined
                err = _rel_error(a, numeric)
            checked += 1
            if err > worst.max_rel_error:
                worst = GradCheckReport(err, 0, 0, ti, coord, a, numeric)
    if checked == 0:
        raise ValueError(f"gradient check compared no coordinate: {skipped} skipped as non-smooth")
    worst.coords_checked = checked
    worst.skipped_nonsmooth = skipped
    return worst
