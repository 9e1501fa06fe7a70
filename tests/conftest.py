"""Fixtures shared by several test modules."""
import pytest

from sliceseg import cli, volio
from sliceseg.config import ExperimentConfig, FoldConfig, GridConfig, expand_grid, save_config


@pytest.fixture
def make_run_dir(tmp_path):
    """Factory for a hand-made finished run directory.

    ``make_run_dir({"proposed": (0.7, 0.9), ...})`` writes ``config.json``
    for a grid over the given modes, in that order (d 3, one backbone, one
    fold per score, the same fold count for every mode), and one
    ``metrics.json`` per (cell, fold) whose
    ``mean_foreground_dsc`` is that score. Returns the directory path.
    """
    def make(scores: dict) -> str:
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        cfg = ExperimentConfig(grid=GridConfig(modes=tuple(scores), d_values=(3,)),
                               folds=FoldConfig(count=len(next(iter(scores.values())))))
        save_config(cfg, str(out_dir / "config.json"))
        for spec in expand_grid(cfg.grid, in_channels=1, num_classes=3):
            for k, score in enumerate(scores[spec.mode]):
                fold_dir = out_dir / "cells" / cli.cell_name(spec) / f"fold{k}"
                fold_dir.mkdir(parents=True)
                volio.write_json(str(fold_dir / "metrics.json"), {
                    "per_class_dsc": [1.0, score, score], "mean_foreground_dsc": score,
                    "best_val_loss": 0.5, "epochs": 1, "stop_reason": "max_epochs",
                    "test_patients": [f"p{k:03d}"]})
        return str(out_dir)

    return make
