"""The benchmark's three workloads.

Each workload is a closed loop with one client: the next operation starts
only after the previous one returned. ``setup`` builds every input from
the workload seed and warms the code up; ``run_cycle`` runs one operation
per cell (one grid for ``grid_run``) and returns the timed operations.
After each operation it calls ``pause(seconds of that operation)``, which
returns the seconds it took; no pause is part of an operation's time or of
the cycle's timed seconds.
The program is driven only through its public functions, looked up on
their modules at call time so that the tracer can wrap them.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import shutil
import time
import traceback

import numpy as np

from sliceseg import (autodiff, cli, config, data, losses, models, phantom, training,
                      volio)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
# Seed of the fixed inputs whose first-step losses are stored in REFERENCE_PATH.
REFERENCE_SEED = 0
# Relative tolerance of the first-step loss check: float reordering only.
REFERENCE_RTOL = 1e-9


@dataclasses.dataclass(frozen=True)
class Op:
    """One timed operation."""
    cell: str
    seconds: float
    slices: int
    ok: bool


def timed_op(cell: str, fn) -> Op:
    """Run ``fn() -> (slices, ok)`` as one operation; an exception fails it."""
    t0 = time.perf_counter()
    try:
        slices, ok = fn()
    except Exception:  # noqa: BLE001 - a failing operation is counted, not fatal
        traceback.print_exc()
        slices, ok = 0, False
    return Op(cell, time.perf_counter() - t0, slices, ok)


def normalized_cohort(preset: str, count: int, seed: int):
    """Phantom cohort with z-score normalised images, as the grid runner
    normalises its sources."""
    recipe = phantom.dataset_presets()[preset]
    volumes = phantom.generate_cohort(recipe, count, seed=seed)
    return [dataclasses.replace(v, image=data.normalize_zscore(v.image)) for v in volumes]


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    return np.eye(num_classes)[labels.astype(np.int64)]


# ---------------------------------------------------------------------------
# train_step


class _TrainCell:
    """One model under training with its own batch order and optimiser."""

    def __init__(self, spec, seed: int, index: int, samples, batch_size: int):
        self.name = cli.cell_name(spec)
        self.spec = spec
        self.model = models.assemble_model(spec, seed=seed * 100 + index)
        self.params = self.model.parameters()
        self.decay = self.model.decay_parameters()
        self.adam = training.AdamState(self.params)
        self.samples = samples
        self.batch_size = batch_size
        self.rng = np.random.default_rng([seed, index])
        self.order: list[int] = []

    def next_batch(self):
        while len(self.order) < self.batch_size:
            self.order.extend(self.rng.permutation(len(self.samples)).tolist())
        idx, self.order = self.order[:self.batch_size], self.order[self.batch_size:]
        return [self.samples[i] for i in idx]

    def forward_loss(self, cfg):
        """Augment the next batch and compute its loss; returns the loss
        tensor and the number of target slices."""
        batch = [data.augment(s, cfg.augment, self.rng) for s in self.next_batch()]
        x = np.stack([s.stack for s in batch])
        y = _one_hot(np.stack([s.target for s in batch]), self.spec.num_classes)
        for p in self.params.values():
            p.grad = None
        probs = self.model.forward(autodiff.Tensor(x), training=True)
        slices = int(np.prod(y.shape[:-1])) // (y.shape[1] * y.shape[2])
        return losses.combined_loss(probs, y), slices

    def step(self, cfg) -> tuple[float, int]:
        """One step of the training loop's inner body; returns the loss and
        the number of target slices."""
        loss, slices = self.forward_loss(cfg)
        autodiff.backward(loss)
        training.adam_step(self.params, self.adam, cfg.initial_lr, cfg.l2_coefficient,
                           self.decay)
        return loss.item(), slices


class TrainStep:
    """Training steps round-robin over five (mode, backbone, d, batch) cells."""

    name = "train_step"
    PRESET = "organ_and_lesion"
    VOLUMES = 4
    CELLS = (("end2end_2d", "unet", 1, 8), ("proposed", "unet", 7, 8),
             ("channel_based", "unet", 7, 8), ("proposed", "segnet", 7, 8),
             ("end2end_3d", "unet", 16, 1))
    # Each set-up checks every cell's first-step loss.
    SETUP_CHECKS = len(CELLS)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.cfg = training.TrainConfig()
        self.cells: list[_TrainCell] = []

    @classmethod
    def specs(cls):
        recipe = phantom.dataset_presets()[cls.PRESET]
        return [(models.ModelSpec(mode, backbone, d, recipe.channels, recipe.num_classes), bs)
                for mode, backbone, d, bs in cls.CELLS]

    @classmethod
    def cell_names(cls) -> list[str]:
        return [cli.cell_name(spec) for spec, _ in cls.specs()]

    def build(self, seed: int) -> list[_TrainCell]:
        cohort = normalized_cohort(self.PRESET, self.VOLUMES, seed)
        return [_TrainCell(spec, seed, i, training.build_samples(cohort, spec), bs)
                for i, (spec, bs) in enumerate(self.specs())]

    def setup(self) -> list[str]:
        """Warm up with the first step's forward pass and loss per cell on
        the reference inputs, checking each loss against the stored
        reference, then build the seeded cells. Returns one message per
        failed check."""
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)["train_step_first_loss"]
        failures = []
        for cell in self.build(REFERENCE_SEED):
            loss = cell.forward_loss(self.cfg)[0].item()
            want = reference.get(cell.name)
            if want is None or not math.isclose(loss, want, rel_tol=REFERENCE_RTOL):
                failures.append(f"{cell.name}: first-step loss {loss!r}, reference {want!r}")
        self.cells = self.build(self.seed)
        return failures

    def first_step_losses(self) -> dict[str, float]:
        return {c.name: c.step(self.cfg)[0] for c in self.build(REFERENCE_SEED)}

    def run_cycle(self, pause) -> tuple[list[Op], float]:
        ops = []
        for cell in self.cells:
            def one(cell=cell):
                loss, slices = cell.step(self.cfg)
                return slices, math.isfinite(loss)
            ops.append(timed_op(cell.name, one))
            pause(ops[-1].seconds)
        return ops, sum(op.seconds for op in ops)


# ---------------------------------------------------------------------------
# predict_volume


def reference_labels(model, volume) -> np.ndarray:
    """Labels from ``SegmentationModel.forward`` on each slice stack (each
    depth tile for the volumetric mode), one input at a time."""
    depth = volume.labels.shape[2]
    d = model.spec.d
    out = np.zeros(volume.labels.shape, dtype=np.int64)
    if model.spec.mode == "end2end_3d":
        starts = list(range(0, depth - d + 1, d))
        if starts[-1] + d < depth:
            starts.append(depth - d)
        for z0 in starts:
            x = autodiff.Tensor(volume.image[None, :, :, z0:z0 + d])
            out[:, :, z0:z0 + d] = model.forward(x, training=False).data[0].argmax(axis=-1)
        return out
    for z in range(depth):
        stack = data.extract_stack(volume, z, d).stack
        probs = model.forward(autodiff.Tensor(stack[None]), training=False)
        out[:, :, z] = probs.data[0].argmax(axis=-1)
    return out


class PredictVolume:
    """``training.predict_volume`` round-robin over four untrained cells."""

    name = "predict_volume"
    SETUP_CHECKS = 0
    PRESET = "multi_modal_lesions"
    CELLS = (("proposed", "unet", 13), ("channel_based", "unet", 13),
             ("end2end_3d", "unet", 16), ("proposed", "segnet", 5))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.cells = []

    @classmethod
    def specs(cls):
        recipe = phantom.dataset_presets()[cls.PRESET]
        return [models.ModelSpec(mode, backbone, d, recipe.channels, recipe.num_classes)
                for mode, backbone, d in cls.CELLS]

    @classmethod
    def cell_names(cls) -> list[str]:
        return [cli.cell_name(spec) for spec in cls.specs()]

    def setup(self) -> list[str]:
        self.volume = normalized_cohort(self.PRESET, 1, self.seed)[0]
        self.cells = []
        for i, spec in enumerate(self.specs()):
            model = models.assemble_model(spec, seed=self.seed * 100 + i)
            self.cells.append((cli.cell_name(spec), model, reference_labels(model, self.volume)))
        return []

    def run_cycle(self, pause) -> tuple[list[Op], float]:
        ops = []
        depth = self.volume.labels.shape[2]
        for name, model, want in self.cells:
            def one(model=model, want=want):
                return depth, np.array_equal(training.predict_volume(model, self.volume), want)
            ops.append(timed_op(name, one))
            pause(ops[-1].seconds)
        return ops, sum(op.seconds for op in ops)


# ---------------------------------------------------------------------------
# grid_run


class GridRun:
    """``cli.run_grid`` over a cohort written to disk, one grid per cycle."""

    name = "grid_run"
    SETUP_CHECKS = 0
    PRESET = "three_organ_drift"
    VOLUMES = 6
    FOLDS = 2
    EPOCHS = 2
    MODES = ("end2end_2d", "proposed", "channel_based")
    BACKBONES = ("unet", "segnet")
    D_VALUES = (3,)
    BASE_FILTERS = 4

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.setups = 0
        self.repeats = 0
        self.digest = None

    @classmethod
    def grid(cls) -> dict:
        return {"modes": list(cls.MODES), "backbones": list(cls.BACKBONES),
                "d_values": list(cls.D_VALUES), "base_filters": cls.BASE_FILTERS}

    @classmethod
    def cell_names(cls) -> list[str]:
        grid = config.config_from_dict({"grid": cls.grid()}).grid
        return [cli.cell_name(s) for s in config.expand_grid(grid, in_channels=1, num_classes=2)]

    def cohort(self):
        """The first cohort at or after seed * 1000, in steps of one cohort,
        that the generator can place. For about one phantom seed in sixty
        this preset's structures do not fit and generate_phantom raises by
        design; such a seed is skipped as an input that does not exist."""
        base = self.seed * 1000
        for start in range(base, base + 1000, self.VOLUMES):
            try:
                return normalized_cohort(self.PRESET, self.VOLUMES, start), start
            except ValueError:
                continue
        raise ValueError(f"no placeable {self.PRESET} cohort for seed {self.seed}")

    def setup(self) -> list[str]:
        self.setups += 1
        volumes, cohort_seed = self.cohort()
        directory = os.path.join(self.workdir, f"cohort-{self.setups}")
        for volume in volumes:
            volio.save_case(directory, volume)
        self.cfg = config.config_from_dict({
            "source": {"kind": "volumes", "directory": directory, "normalization": "zscore"},
            "grid": self.grid(),
            "train": {"max_epochs": self.EPOCHS, "batch_size": 8, "seed": cohort_seed},
            "folds": {"count": self.FOLDS, "seed": cohort_seed},
            "output_dir": os.path.join(self.workdir, "unused"),
        })
        recipe = phantom.dataset_presets()[self.PRESET]
        depth = recipe.shape[2]
        folds = data.make_folds(sorted(v.patient_id for v in volumes),
                                num_folds=self.FOLDS, seed=cohort_seed)
        self.fold_slices = [depth * (self.EPOCHS * (len(f.train) + len(f.val)) + len(f.test))
                            for f in folds]
        self.expected_ops = len(self.cell_names()) * self.FOLDS
        # Warm-up: one training step per grid cell at the grid's size.
        train_cfg = self.cfg.train
        for spec in config.expand_grid(self.cfg.grid, recipe.channels, recipe.num_classes):
            _TrainCell(spec, self.seed, 0, training.build_samples(volumes[:1], spec),
                       train_cfg.batch_size).step(train_cfg)
        return []

    def run_cycle(self, pause) -> tuple[list[Op], float]:
        self.repeats += 1
        out_dir = os.path.join(self.workdir, f"grid-{self.repeats}")
        # (end of an operation, its log line, end of the pause after it)
        events = []
        t0 = time.perf_counter()

        def log(line):
            end = time.perf_counter()
            events.append((end, line, end + pause(end - (events[-1][2] if events else t0))))

        try:
            table = cli.run_grid(self.cfg, out_dir, log=log)
        except Exception:  # noqa: BLE001 - counted as failed operations
            traceback.print_exc()
            table = None
        seconds = time.perf_counter() - t0 - sum(resume - end for end, _, resume in events)

        ops = []
        prev = t0
        for end, line, resume in events:
            tag, name, fold = line.split()[:3]
            done = tag == "[done]"
            ops.append(Op(name, end - prev, self.fold_slices[int(fold[4:])] if done else 0, done))
            prev = resume
        ops += [Op("missing", 0.0, 0, False)] * (self.expected_ops - len(ops))

        bad = self._check_table(table)
        if bad:
            ops = [dataclasses.replace(op, ok=False) if op.cell in bad or "*" in bad else op
                   for op in ops]
        shutil.rmtree(out_dir, ignore_errors=True)
        return ops, seconds

    def _check_table(self, table) -> set[str]:
        """Cells whose mean overlap is not finite in [0, 1]; ``{"*"}`` when the
        table is missing or differs from the first repeat's."""
        if table is None:
            return {"*"}
        with open(table, "rb") as fh:
            raw = fh.read()
        digest = hashlib.sha256(raw).hexdigest()
        if self.digest is None:
            self.digest = digest
        if digest != self.digest:
            print(f"grid_run: aggregate.csv digest {digest} differs from {self.digest}")
            return {"*"}
        bad = set()
        for row in csv.DictReader(raw.decode().splitlines()):
            value = float(row["mean_dsc"])
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                spec = models.ModelSpec(row["mode"], row["backbone"], int(row["d"]), 1, 2)
                bad.add(cli.cell_name(spec))
        return bad


WORKLOADS = {w.name: w for w in (TrainStep, PredictVolume, GridRun)}


def all_cell_names() -> list[str]:
    """Every cell of every workload, each name once, in workload order."""
    names: list[str] = []
    for workload in WORKLOADS.values():
        names += [n for n in workload.cell_names() if n not in names]
    return names
