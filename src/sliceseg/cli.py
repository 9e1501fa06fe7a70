"""Command line experiment runner and reporter.

Verbs: run (train a config's full grid), aggregate (rebuild the summary
table from a finished run directory), profile (cost reports without
training), features (structure features of a volume directory), render
(slice image with label overlay), generate (write a phantom cohort).
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import analysis, volio
from .autodiff import Tensor, no_grad
from .config import (ConfigError, ExperimentConfig, SourceConfig, config_to_dict,
                     expand_grid, load_config, save_config)
from .data import NORMALIZERS, check_fold_sizes, make_folds
from .models import ModelSpec, assemble_model
from .phantom import LabeledVolume, dataset_preset, generate_cohort
from .training import (AdamState, EpochRecord, build_samples, evaluate, run_training,
                       train_step)

_PALETTE = (
    (230, 60, 60), (60, 130, 230), (70, 200, 90), (240, 200, 40),
    (190, 80, 220), (40, 210, 210), (250, 140, 40), (160, 160, 160),
)
COST_FIELDS = [f.name for f in dataclasses.fields(analysis.CostReport)]


# ---------------------------------------------------------------------------
# data source


def load_source(source: SourceConfig) -> list[LabeledVolume]:
    """Materialize the configured cohort, normalized and ready to train on."""
    if source.kind == "phantom":
        volumes = generate_cohort(dataset_preset(source.preset), source.num_volumes,
                                  seed=source.seed)
    else:
        stems = volio.list_case_stems(source.directory)
        volumes = [volio.load_case(source.directory, s) for s in stems]
    normalize = NORMALIZERS[source.normalization]
    return [dataclasses.replace(v, image=normalize(v.image)) for v in volumes]


def cohort_num_classes(labels: list[np.ndarray]) -> int:
    """Label count of a cohort's label maps: one more than the largest label."""
    return int(max(m.max() for m in labels)) + 1


def source_fingerprint(volumes: list[LabeledVolume]) -> str:
    """Content hash of the cohort actually trained on."""
    h = hashlib.sha256()
    for v in volumes:
        h.update(v.patient_id.encode())
        h.update(np.ascontiguousarray(v.image, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(v.labels, dtype=np.uint8).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# grid execution


def cell_name(spec: ModelSpec) -> str:
    return f"{spec.mode}-{spec.backbone}-d{spec.d:02d}"


def _cell_hash(spec: ModelSpec, cfg: ExperimentConfig, fold: int, fingerprint: str) -> str:
    config = config_to_dict(cfg)
    payload = json.dumps({
        "cell": dataclasses.asdict(spec),
        "train": config["train"],
        "folds": config["folds"],
        "fold": fold,
        "source": fingerprint,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _derived_seed(name: str, fold: int, base_seed: int, salt: str) -> int:
    digest = hashlib.sha256(f"{salt}|{name}|{fold}|{base_seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _train_one_fold(spec: ModelSpec, cfg: ExperimentConfig, fold_index: int,
                    split, by_id: dict, fold_dir: str) -> dict:
    name = cell_name(spec)
    model = assemble_model(spec, seed=_derived_seed(name, fold_index, cfg.train.seed, "init"))
    train_cfg = dataclasses.replace(
        cfg.train, seed=_derived_seed(name, fold_index, cfg.train.seed, "train"))
    train_samples = build_samples([by_id[i] for i in split.train], spec)
    val_samples = build_samples([by_id[i] for i in split.val], spec)
    history = run_training(model, train_samples, val_samples, train_cfg)
    volio.write_table(os.path.join(fold_dir, "history.csv"),
                      [f.name for f in dataclasses.fields(EpochRecord)],
                      [dataclasses.astuple(r) for r in history.records])
    metrics = {"per_class_dsc": None, "mean_foreground_dsc": None, "best_val_loss": None,
               "epochs": len(history.records), "stop_reason": history.stop_reason,
               "test_patients": list(split.test)}
    # a fold with no finite epoch holds no trained weights worth scoring
    if np.isfinite(history.best_val_loss):
        result = evaluate(model, [by_id[i] for i in split.test],
                          batch_size=cfg.train.batch_size)
        metrics.update(per_class_dsc=[float(x) for x in result.per_class],
                       mean_foreground_dsc=float(result.mean_foreground),
                       best_val_loss=float(history.best_val_loss))
    volio.write_json(os.path.join(fold_dir, "metrics.json"), metrics)
    return metrics


def _cohort_cells(cfg: ExperimentConfig, volumes: list[LabeledVolume]) -> list[ModelSpec]:
    """The grid's cells at the loaded cohort's channel and class counts.
    Raises ``ConfigError`` when the cohort cannot serve the config: cases
    whose in-plane shape or channel count differ (only a ``volumes``
    directory can hold such a cohort), an H or W that is not a multiple of
    8 (both backbones pool three times), no case with a foreground label, a
    label below the largest that no case holds, too few cases for
    ``folds.count``, or a ``patch_depth`` deeper than the shallowest
    volume."""
    try:
        check_fold_sizes(len(volumes), cfg.folds.count)
    except ValueError as e:
        raise ConfigError(f"'folds.count': {e}") from e
    hwc = [(*v.image.shape[:2], v.image.shape[3]) for v in volumes]
    for v, shape in zip(volumes, hwc):
        if shape != hwc[0]:
            raise ConfigError(f"'source.directory': case {v.patient_id!r} has (H, W, C) "
                              f"{shape}, but case {volumes[0].patient_id!r} has {hwc[0]}")
    if hwc[0][0] % 8 or hwc[0][1] % 8:
        raise ConfigError(f"'source.directory': case {volumes[0].patient_id!r} has (H, W) "
                          f"{hwc[0][:2]}, but both backbones pool three times, so H and W "
                          f"must be multiples of 8")
    # one sorted scan per volume gives both the largest label and the gaps
    found = [np.unique(v.labels) for v in volumes]
    num_classes = int(max(labels[-1] for labels in found)) + 1
    if num_classes < 2:
        raise ConfigError("'source.directory': no case holds a foreground label")
    present = np.zeros(num_classes, dtype=bool)
    for labels in found:
        present[labels] = True
    if not present.all():
        raise ConfigError(f"'source.directory': label {int(np.argmin(present))} appears in "
                          f"no case (largest label {num_classes - 1})")
    depth = min(v.labels.shape[2] for v in volumes)
    if "end2end_3d" in cfg.grid.modes and cfg.grid.patch_depth > depth:
        raise ConfigError(f"'grid.patch_depth': {cfg.grid.patch_depth} is deeper than "
                          f"the shallowest volume ({depth} slices)")
    return expand_grid(cfg.grid, in_channels=hwc[0][2], num_classes=num_classes)


def run_grid(cfg: ExperimentConfig, out_dir: str, log=print) -> str:
    """Train every (cell, fold), then write the aggregate table.

    Finished cells are detected by their completion marker and skipped, so
    an interrupted run resumes where it stopped. Returns the aggregate
    table path.
    """
    volumes = load_source(cfg.source)
    cells = _cohort_cells(cfg, volumes)
    fingerprint = source_fingerprint(volumes)
    by_id = {v.patient_id: v for v in volumes}
    folds = make_folds(sorted(by_id), num_folds=cfg.folds.count, seed=cfg.folds.seed)

    os.makedirs(out_dir, exist_ok=True)
    save_config(cfg, os.path.join(out_dir, "config.json"))
    with open(os.path.join(out_dir, "source.fingerprint"), "w", encoding="utf-8") as fh:
        fh.write(fingerprint + "\n")

    for spec in cells:
        name = cell_name(spec)
        cell_dir = os.path.join(out_dir, "cells", name)
        os.makedirs(cell_dir, exist_ok=True)
        volio.write_json(os.path.join(cell_dir, "cell.json"), dataclasses.asdict(spec))
        report = analysis.cost_report(assemble_model(spec, seed=0),
                                      volumes[0].image.shape[:2])
        volio.write_table(os.path.join(cell_dir, "cost.csv"), COST_FIELDS,
                          [dataclasses.astuple(report)])

        for fold_index, split in enumerate(folds):
            fold_dir = os.path.join(cell_dir, f"fold{fold_index}")
            os.makedirs(fold_dir, exist_ok=True)
            marker = os.path.join(fold_dir, "done.marker")
            want = _cell_hash(spec, cfg, fold_index, fingerprint)
            if os.path.exists(marker):
                with open(marker, "r", encoding="utf-8") as fh:
                    if fh.read().strip() == want:
                        log(f"[skip] {name} fold{fold_index} (complete)")
                        continue
            metrics = _train_one_fold(spec, cfg, fold_index, split, by_id, fold_dir)
            with open(marker, "w", encoding="utf-8") as fh:
                fh.write(want + "\n")
            dsc = metrics["mean_foreground_dsc"]
            log(f"[done] {name} fold{fold_index}"
                f" dsc={'null' if dsc is None else format(dsc, '.4f')}"
                f" epochs={metrics['epochs']}")

    return write_aggregate(out_dir)


def _fold_score(path: str) -> float:
    """The mean foreground Dice a fold's metrics.json holds; a missing,
    malformed, unscored or non-finite file raises ``ValueError`` naming its
    path."""
    if not os.path.exists(path):
        raise ValueError(f"missing result {path}; run the grid to completion first")
    metrics = volio.read_json(path)
    if not isinstance(metrics, dict) or "mean_foreground_dsc" not in metrics:
        raise ValueError(f"{path} has no 'mean_foreground_dsc' field")
    score = metrics["mean_foreground_dsc"]
    if score is None:
        raise ValueError(f"{path} holds no score: the fold stopped "
                         f"{metrics.get('stop_reason')} before any finite epoch")
    if type(score) not in (int, float):
        raise ValueError(f"{path} has a 'mean_foreground_dsc' that is not a number: {score!r}")
    if not -np.inf < score < np.inf:
        raise ValueError(f"{path} has a non-finite 'mean_foreground_dsc': {score!r}")
    return score


def write_aggregate(out_dir: str) -> str:
    """Rebuild aggregate.csv from the metrics stored in a run directory:
    one row per grid cell, in grid order, with the mean and population
    standard deviation of its folds' scores."""
    cfg = load_config(os.path.join(out_dir, "config.json"))
    rows = []
    # channel/class counts do not matter for cell identity
    for spec in expand_grid(cfg.grid, in_channels=1, num_classes=2):
        cell_dir = os.path.join(out_dir, "cells", cell_name(spec))
        scores = [_fold_score(os.path.join(cell_dir, f"fold{k}", "metrics.json"))
                  for k in range(cfg.folds.count)]
        rows.append((spec.mode, spec.backbone, spec.d, len(scores),
                     float(np.mean(scores)), float(np.std(scores))))
    out_path = os.path.join(out_dir, "aggregate.csv")
    volio.write_table(out_path, ["mode", "backbone", "d", "folds", "mean_dsc", "std_dsc"], rows)
    return out_path


# ---------------------------------------------------------------------------
# rendering


def render_slice(image_slice: np.ndarray, label_slice: np.ndarray) -> bytes:
    """Encode a grayscale slice with 50% label-color overlay as binary PPM."""
    if image_slice.shape != label_slice.shape:
        raise ValueError("image and label slices must share a shape")
    lo, hi = float(image_slice.min()), float(image_slice.max())
    gray = np.zeros_like(image_slice, dtype=np.float64) if hi <= lo \
        else (image_slice - lo) / (hi - lo)
    rgb = np.repeat((gray * 255.0)[:, :, None], 3, axis=2)
    for k in np.unique(label_slice):
        if k == 0:
            continue
        color = np.array(_PALETTE[(int(k) - 1) % len(_PALETTE)], dtype=np.float64)
        mask = label_slice == k
        rgb[mask] = 0.5 * rgb[mask] + 0.5 * color
    h, w = rgb.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + rgb.round().astype(np.uint8).tobytes()


# ---------------------------------------------------------------------------
# verbs


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.out if args.out else cfg.output_dir
    path = run_grid(cfg, out_dir)
    print(f"aggregate table: {path}")
    return 0


def _cmd_aggregate(args) -> int:
    path = write_aggregate(args.dir)
    with open(path, "r", encoding="utf-8") as fh:
        sys.stdout.write(fh.read())
    return 0


def _cmd_profile(args) -> int:
    cfg = load_config(args.config)
    volumes = load_source(cfg.source)
    in_plane = volumes[0].image.shape[:2]
    rows = []
    for spec in _cohort_cells(cfg, volumes):
        model = assemble_model(spec, seed=0)
        report = analysis.cost_report(model, in_plane)
        batch = build_samples(volumes[:1], spec)[:cfg.train.batch_size]
        t0 = time.perf_counter()
        train_step(model, batch, AdamState(model.parameters()), cfg.train.initial_lr,
                   cfg.train)
        t1 = time.perf_counter()
        with no_grad():
            model.forward(Tensor(batch[0].stack[None]), training=False)
        t2 = time.perf_counter()
        rows.append([spec.mode, spec.backbone, spec.d, *dataclasses.astuple(report),
                     t1 - t0, t2 - t1])
    volio.write_table(args.out, ["mode", "backbone", "d", *COST_FIELDS,
                                 "seconds_per_training_step", "seconds_per_prediction"], rows)
    return 0


def _cmd_features(args) -> int:
    stems = volio.list_case_stems(args.dir)
    labels = [volio.load_labels(args.dir, s) for s in stems]
    num_classes = cohort_num_classes(labels)
    if num_classes < 2:
        raise ValueError("no foreground classes present in the volume directory")
    rows = analysis.class_feature_table(labels, num_classes)
    columns = ("depth", "size_fraction", "displacement")
    table = [[r["class_id"], *(r[c] for c in columns)] for r in rows]
    for agg_name, fn in (("min", min), ("mean", lambda v: sum(v) / len(v)), ("max", max)):
        table.append([agg_name, *(fn([r[c] for r in rows]) for c in columns)])
    volio.write_table(args.out, ["class_id", *columns], table)
    return 0


def _cmd_render(args) -> int:
    directory, stem = os.path.split(args.case)
    volume = volio.load_case(directory or ".", stem)
    depth = volume.labels.shape[2]
    if not 0 <= args.slice < depth:
        raise ValueError(f"slice {args.slice} out of range for depth {depth}")
    data = render_slice(volume.image[:, :, args.slice, 0],
                        volume.labels[:, :, args.slice])
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"wrote {args.out}")
    return 0


def _cmd_generate(args) -> int:
    if args.count < 1:
        raise ValueError(f"count must be at least 1, got {args.count}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    recipe = dataset_preset(args.preset)  # before any directory is made
    os.makedirs(args.dir, exist_ok=True)
    for volume in generate_cohort(recipe, args.count, seed=args.seed):
        volio.save_case(args.dir, volume)
        print(f"wrote {volume.patient_id}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sliceseg",
                                     description="Volumetric segmentation laboratory")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="train every grid cell of a config")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("aggregate", help="rebuild aggregate.csv from a run directory")
    p.add_argument("dir")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("profile", help="cost reports for a config, no training")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("features", help="structure features of a volume directory")
    p.add_argument("dir")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("render", help="write a PPM slice image with label overlay")
    p.add_argument("case", help="case path without suffix, e.g. data/case000")
    p.add_argument("slice", type=int)
    p.add_argument("out")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("generate", help="write a phantom cohort to disk")
    p.add_argument("preset")
    p.add_argument("count", type=int)
    p.add_argument("dir")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
