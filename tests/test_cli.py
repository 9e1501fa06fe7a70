"""End-to-end checks of the command line verbs on a desk-scale grid."""
import copy
import dataclasses
import hashlib
import json
import os
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sliceseg
from sliceseg import analysis, cli, volio
from sliceseg.config import (ConfigError, ExperimentConfig, FoldConfig,
                             GridConfig, SourceConfig, config_from_dict,
                             config_to_dict, expand_grid, load_config,
                             save_config)
from sliceseg.data import NORMALIZERS, AugmentParams
from sliceseg.models import BACKBONES, MODES
from sliceseg.phantom import dataset_presets, generate_cohort
from sliceseg.training import TrainConfig


def tiny_config(out_dir: str) -> dict:
    return {
        "source": {"kind": "phantom", "preset": "organ_and_lesion",
                   "num_volumes": 6, "seed": 0, "normalization": "zscore"},
        "grid": {"modes": ["end2end_2d", "proposed"], "backbones": ["unet"],
                 "d_values": [3], "base_filters": 4},
        "train": {"max_epochs": 1, "batch_size": 8,
                  "augment": {"probability": 0.0}},
        "folds": {"count": 2, "seed": 0},
        "output_dir": out_dir,
    }


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    """One completed tiny grid, shared by the layout and resume tests."""
    base = tmp_path_factory.mktemp("grid")
    cfg_path = str(base / "cfg.json")
    out_dir = str(base / "run")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(tiny_config(out_dir), fh)
    lines = []
    cli.run_grid(load_config(cfg_path), out_dir, log=lines.append)
    return cfg_path, out_dir, lines


# ---------------------------------------------------------------------------
# config io


def test_config_roundtrip(tmp_path):
    cfg = config_from_dict(tiny_config("somewhere"))
    path = str(tmp_path / "cfg.json")
    save_config(cfg, path)
    assert config_to_dict(load_config(path)) == config_to_dict(cfg)


def test_unknown_key_names_its_path(tmp_path):
    bad = tiny_config("x")
    bad["train"]["learning_rate"] = 0.1
    with pytest.raises(ConfigError, match="train.learning_rate"):
        config_from_dict(bad)


_AUGMENT_KEYS = ("elastic_alpha, elastic_sigma, enable_flip, probability,"
                 " rotation_degrees, shear_range, zoom_range")

# (dotted path to set, or None for the whole config; value; exact message)
MALFORMED = [
    ("source.num_volumes", "6", "'source.num_volumes' must be an integer, got '6'"),
    ("source.seed", True, "'source.seed' must be an integer, got True"),
    ("train.batch_size", 8.0, "'train.batch_size' must be an integer, got 8.0"),
    ("train.initial_lr", "fast", "'train.initial_lr' must be a number, got 'fast'"),
    ("train.initial_lr", True, "'train.initial_lr' must be a number, got True"),
    ("train.initial_lr", float("nan"), "'train.initial_lr' must be a finite number, got nan"),
    ("train.min_improvement", float("inf"),
     "'train.min_improvement' must be a finite number, got inf"),
    ("train.initial_lr", 10**400,
     f"'train.initial_lr' must be a finite number, got {10**400!r}"),
    ("train.augment.zoom_range", [0.9, float("-inf")],
     "'train.augment.zoom_range' must be a finite number, got -inf"),
    ("train.augment.enable_flip", 1,
     "'train.augment.enable_flip' must be true or false, got 1"),
    ("source.kind", 3, "'source.kind' must be a string, got 3"),
    ("output_dir", 5, "'output_dir' must be a string, got 5"),
    ("train.augment.zoom_range", [0.9],
     "'train.augment.zoom_range' must be a 2-element list, got [0.9]"),
    ("train.augment.zoom_range", [0.9, 1.0, 1.1],
     "'train.augment.zoom_range' must be a 2-element list, got [0.9, 1.0, 1.1]"),
    ("train.augment.zoom_range", "ab", "'train.augment.zoom_range' must be a list, got 'ab'"),
    ("train.augment.rotation_degrees", [True, 1.0],
     "'train.augment.rotation_degrees' must be a number, got True"),
    ("grid.d_values", [3, "5"], "'grid.d_values' must be an integer, got '5'"),
    ("grid.modes", [1], "'grid.modes' must be a string, got 1"),
    ("grid.d_values", 5, "'grid.d_values' must be a list, got 5"),
    ("grid.modes", None, "'grid.modes' must be a list, got None"),
    ("grid.modes", "proposed", "'grid.modes' must be a list, got 'proposed'"),
    ("train.augment.shear", [0, 1],
     f"unknown key 'train.augment.shear' (allowed: {_AUGMENT_KEYS})"),
    ("folds.seeds", 0, "unknown key 'folds.seeds' (allowed: count, seed)"),
    ("extra", 1,
     "unknown key 'config.extra' (allowed: folds, grid, output_dir, source, train)"),
    ("grid", "x", "'grid' must be an object"),
    ("folds", None, "'folds' must be an object"),
    ("train.augment", [1], "'train.augment' must be an object"),
    ("train.loss", "focal", "'train': unknown loss 'focal'"),
    ("train.patience_epochs", 0, "'train': early_stop_epochs must be >= patience_epochs >= 1"),
    ("train.l2_coefficient", -1e-5,
     "'train': l2_coefficient must be non-negative and finite, got -1e-05"),
    ("train.min_improvement", -1.0,
     "'train': min_improvement must be non-negative and finite, got -1.0"),
    ("train.augment.elastic_sigma", -3.0,
     "'train.augment': elastic_sigma must be positive and finite, got -3.0"),
    ("folds.count", 1, "'folds.count' must be at least 2"),
    ("grid.modes", ["nope"],
     "'grid.modes' entry 'nope' not in ('end2end_2d', 'proposed', 'channel_based', 'end2end_3d')"),
    (None, [1, 2], "top-level config must be an object"),
    ("grid.modes", ["end2end_2d", "end2end_2d"], "'grid.modes' repeats 'end2end_2d'"),
    ("grid.backbones", ["unet", "segnet", "unet"], "'grid.backbones' repeats 'unet'"),
    ("grid.d_values", [3, 5, 3], "'grid.d_values' repeats 3"),
    ("grid.d_values", [3, 4], "'grid.d_values': proposed mode requires odd d >= 3"),
    ("grid.d_values", [1], "'grid.d_values': proposed mode requires odd d >= 3"),
    ("grid", {"modes": ["end2end_3d"], "patch_depth": 12},
     "'grid.patch_depth': end2end_3d requires patch depth divisible by 8"),
    ("grid.base_filters", 0, "'grid.base_filters': in_channels >= 1, num_classes >= 2,"
     " base_filters >= 1 required"),
    ("source.num_volumes", 4,
     "'folds.count': 4 patients are too few for 2 folds with non-empty train/val/test"),
    ("source.seed", -1, "'source.seed' must be non-negative, got -1"),
    ("folds.seed", -1, "'folds.seed' must be non-negative, got -1"),
    ("train.augment.zoom_range", [0, 0],
     "'train.augment': zoom_range values must be positive, got (0.0, 0.0)"),
    ("train.augment.zoom_range", [-0.5, 1.1],
     "'train.augment': zoom_range values must be positive, got (-0.5, 1.1)"),
    ("train.augment.rotation_degrees", [5, -5],
     "'train.augment': rotation_degrees low end 5.0 is above its high end -5.0"),
    ("train.augment.shear_range", [0.1, 0.05],
     "'train.augment': shear_range low end 0.1 is above its high end 0.05"),
    ("train.augment.zoom_range", [1.1, 0.9],
     "'train.augment': zoom_range low end 1.1 is above its high end 0.9"),
    ("train.augment.probability", 1.5,
     "'train.augment': probability must be in [0, 1], got 1.5"),
    ("train.augment.probability", -1,
     "'train.augment': probability must be in [0, 1], got -1.0"),
]


def _with(path, value) -> object:
    if path is None:
        return value
    cfg = copy.deepcopy(tiny_config("x"))
    *parents, key = path.split(".")
    section = cfg
    for name in parents:
        section = section[name]
    section[key] = value
    return cfg


@pytest.mark.parametrize("path,value,message", MALFORMED,
                         ids=[f"{path or 'config'}={value!r}" for path, value, _ in MALFORMED])
def test_malformed_config_message(path, value, message):
    with pytest.raises(ConfigError) as err:
        config_from_dict(_with(path, value))
    assert str(err.value) == message


_finite = st.floats(-1e6, 1e6, allow_nan=False)
_pairs = st.tuples(_finite, _finite).map(sorted).map(tuple)
_non_negative = st.floats(0.0, 1e6)
_positive = st.floats(0.0, 1e6, exclude_min=True)
_positive_pairs = st.tuples(_positive, _positive).map(sorted).map(tuple)


@st.composite
def _train_configs(draw) -> TrainConfig:
    patience = draw(st.integers(1, 50))
    return TrainConfig(
        initial_lr=draw(st.floats(0.0, 1e3, exclude_min=True)),
        lr_drop_factor=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        patience_epochs=patience,
        early_stop_epochs=draw(st.integers(patience, 100)),
        max_epochs=draw(st.integers(1, 10**6)),
        min_improvement=draw(_non_negative), l2_coefficient=draw(_non_negative),
        batch_size=draw(st.integers(1, 10**6)), seed=draw(st.integers()),
        loss=draw(st.sampled_from(("combined", "dice"))),
        augment=draw(st.builds(AugmentParams, probability=st.floats(0.0, 1.0),
                               enable_flip=st.booleans(), rotation_degrees=_pairs,
                               shear_range=_pairs, zoom_range=_positive_pairs,
                               elastic_sigma=_positive, elastic_alpha=_finite)))


@st.composite
def _configs(draw) -> ExperimentConfig:
    # only buildable grids, non-negative seeds and, for phantoms, enough
    # volumes for every fold
    folds = draw(st.builds(FoldConfig, count=st.integers(2, 100),
                           seed=st.integers(min_value=0)))
    kind = draw(st.sampled_from(("phantom", "volumes")))
    fewest = 2 * folds.count + 3 if kind == "phantom" else 1
    return ExperimentConfig(
        source=draw(st.builds(SourceConfig, kind=st.just(kind), preset=st.text(),
                              num_volumes=st.integers(fewest, 10**6),
                              seed=st.integers(min_value=0), directory=st.text(min_size=1),
                              normalization=st.sampled_from(tuple(NORMALIZERS)))),
        grid=draw(st.builds(
            GridConfig,
            modes=st.lists(st.sampled_from(MODES), min_size=1, unique=True).map(tuple),
            backbones=st.lists(st.sampled_from(BACKBONES), min_size=1, unique=True).map(tuple),
            d_values=st.lists(st.integers(1, 10**6).map(lambda i: 2 * i + 1),
                              min_size=1, unique=True).map(tuple),
            base_filters=st.integers(1, 10**6),
            patch_depth=st.integers(1, 10**6).map(lambda i: 8 * i))),
        train=draw(_train_configs()), folds=folds, output_dir=draw(st.text()))


@settings(deadline=None, max_examples=100)
@given(_configs())
def test_config_dict_roundtrip_property(cfg):
    raw = json.loads(json.dumps(config_to_dict(cfg)))
    assert config_from_dict(raw) == cfg


def test_saved_config_bytes_are_pinned(tmp_path):
    """Run directories store config.json; its bytes must not drift."""
    want = {"tiny": "41669bf021bd9fca1299745f1dc6d2839c0a7a6a633de585ac1481da48a0c139",
            "default": "e95f34b860267d8cd2784b4279b6972984f11f1a39b1918262077801baaae170"}
    for name, cfg in (("tiny", config_from_dict(tiny_config("somewhere"))),
                      ("default", ExperimentConfig())):
        path = str(tmp_path / f"{name}.json")
        save_config(cfg, path)
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == want[name], name


def test_cell_hash_is_pinned():
    """Completion markers hold this hash; a change stops old runs resuming."""
    cfg = config_from_dict(tiny_config("somewhere"))
    specs = expand_grid(cfg.grid, in_channels=1, num_classes=3)
    hashes = [[cli._cell_hash(spec, cfg, fold, "f" * 64) for fold in (0, 1)]
              for spec in specs]
    assert hashes == [["096e1b725496d52e", "9a219ef8f2bba346"],
                      ["6875a3c01ebc2797", "fc1e36229aa4ac34"]]


def test_non_list_grid_field_exits_nonzero(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_with("grid.d_values", 5), fh)
    assert cli.main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 'grid.d_values'")
    assert "Traceback" not in err


def test_integer_beyond_float_range_exits_nonzero(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_with("train.initial_lr", 10**400), fh)
    assert cli.main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 'train.initial_lr' must be a finite number, got 1000")
    assert "Traceback" not in err


def test_unbuildable_grid_exits_before_any_phantom(tmp_path, capsys, monkeypatch):
    def no_cohort(*args, **kwargs):
        raise AssertionError("a phantom was generated")

    monkeypatch.setattr(cli, "generate_cohort", no_cohort)
    path = str(tmp_path / "bad.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"grid": {"modes": ["proposed"], "d_values": [4]}}, fh)
    assert cli.main(["run", path]) == 1
    assert capsys.readouterr().err == (
        "error: 'grid.d_values': proposed mode requires odd d >= 3\n")


def test_unknown_key_exits_nonzero(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    bad = tiny_config(str(tmp_path / "out"))
    bad["gridd"] = {}
    del bad["grid"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bad, fh)
    assert cli.main(["run", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_exits_nonzero(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_that_is_not_json_exits_nonzero_naming_it(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"grid": {"modes": ["proposed"]\n')
    assert cli.main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not valid JSON: Expecting ',' delimiter")
    assert "Traceback" not in err


_UNKNOWN_PRESET = ("error: unknown phantom preset 'nope'"
                   f" (available: {', '.join(sorted(dataset_presets()))})\n")


@pytest.mark.parametrize("verb", ["run", "profile"])
def test_unknown_preset_in_config_exits_before_any_output(tmp_path, capsys, verb):
    raw = tiny_config(str(tmp_path / "run"))
    raw["source"]["preset"] = "nope"
    path = str(tmp_path / "cfg.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    assert cli.main([verb, path]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", _UNKNOWN_PRESET)
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# grid runs


def test_grid_artifact_layout(grid_run):
    _, out_dir, lines = grid_run
    assert os.path.exists(os.path.join(out_dir, "config.json"))
    assert os.path.exists(os.path.join(out_dir, "source.fingerprint"))
    for name in ("end2end_2d-unet-d01", "proposed-unet-d03"):
        cell = os.path.join(out_dir, "cells", name)
        assert os.path.exists(os.path.join(cell, "cell.json"))
        assert os.path.exists(os.path.join(cell, "cost.csv"))
        for fold in (0, 1):
            fold_dir = os.path.join(cell, f"fold{fold}")
            for artifact in ("metrics.json", "history.csv", "done.marker"):
                assert os.path.exists(os.path.join(fold_dir, artifact))
    assert len([l for l in lines if l.startswith("[done]")]) == 4


def test_aggregate_has_one_row_per_cell(grid_run):
    _, out_dir, _ = grid_run
    with open(os.path.join(out_dir, "aggregate.csv"), "r", encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "mode,backbone,d,folds,mean_dsc,std_dsc"
    assert len(rows) == 3
    assert rows[1].startswith("end2end_2d,unet,1,2,")
    assert rows[2].startswith("proposed,unet,3,2,")


def test_rerun_skips_every_fold_and_keeps_bytes(grid_run):
    cfg_path, out_dir, _ = grid_run
    with open(os.path.join(out_dir, "aggregate.csv"), "rb") as fh:
        before = fh.read()
    lines = []
    cli.run_grid(load_config(cfg_path), out_dir, log=lines.append)
    assert lines and all(l.startswith("[skip]") for l in lines)
    with open(os.path.join(out_dir, "aggregate.csv"), "rb") as fh:
        assert fh.read() == before


def test_deleted_fold_is_retrained_identically(grid_run, tmp_path):
    cfg_path, out_dir, _ = grid_run
    fold_dir = os.path.join(out_dir, "cells", "proposed-unet-d03", "fold1")
    metrics_path = os.path.join(fold_dir, "metrics.json")
    with open(metrics_path, "rb") as fh:
        before = fh.read()
    os.remove(os.path.join(fold_dir, "done.marker"))
    os.remove(metrics_path)
    lines = []
    cli.run_grid(load_config(cfg_path), out_dir, log=lines.append)
    assert sum(l.startswith("[done]") for l in lines) == 1
    with open(metrics_path, "rb") as fh:
        assert fh.read() == before


@pytest.mark.parametrize("damage", ["missing", "truncated"])
def test_marked_fold_without_readable_metrics_is_retrained(grid_run, damage):
    # a matching done.marker must not skip a fold whose result is gone,
    # or write_aggregate fails on every rerun
    cfg_path, out_dir, _ = grid_run
    metrics_path = os.path.join(out_dir, "cells", "proposed-unet-d03", "fold0", "metrics.json")
    aggregate_path = os.path.join(out_dir, "aggregate.csv")
    with open(metrics_path, "rb") as fh:
        before = fh.read()
    with open(aggregate_path, "rb") as fh:
        aggregate_before = fh.read()
    if damage == "missing":
        os.remove(metrics_path)
        reason = f"missing result {metrics_path}; run the grid to completion first"
    else:
        with open(metrics_path, "wb") as fh:
            fh.write(before[:len(before) // 2])
        with pytest.raises(json.JSONDecodeError) as decode:
            json.loads(before[:len(before) // 2])
        reason = f"{metrics_path} is not valid JSON: {decode.value}"
    lines = []
    cli.run_grid(load_config(cfg_path), out_dir, log=lines.append)
    redone = [l for l in lines if not l.startswith("[skip]")]
    assert len(redone) == 2
    assert redone[0] == f"[redo] proposed-unet-d03 fold0 ({reason})"
    assert redone[1].startswith("[done] proposed-unet-d03 fold0 ")
    with open(metrics_path, "rb") as fh:
        assert fh.read() == before
    with open(aggregate_path, "rb") as fh:
        assert fh.read() == aggregate_before


def test_metrics_record_expected_fields(grid_run):
    _, out_dir, _ = grid_run
    path = os.path.join(out_dir, "cells", "end2end_2d-unet-d01", "fold0",
                        "metrics.json")
    with open(path, "r", encoding="utf-8") as fh:
        metrics = json.load(fh)
    assert set(metrics) >= {"per_class_dsc", "mean_foreground_dsc", "epochs",
                            "stop_reason", "best_val_loss", "test_patients"}
    assert len(metrics["per_class_dsc"]) == 3
    assert metrics["epochs"] == 1
    with open(os.path.join(os.path.dirname(path), "history.csv"), "r", encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    assert header == "epoch,train_loss,val_loss,val_dsc,lr"
    assert [row.split(",")[0] for row in rows] == ["1"]


def test_aggregate_verb_reprints_table(grid_run, capsys):
    _, out_dir, _ = grid_run
    assert cli.main(["aggregate", out_dir]) == 0
    out = capsys.readouterr().out
    assert out.startswith("mode,backbone,d,folds,mean_dsc,std_dsc\n")


def test_aggregate_refuses_incomplete_run(tmp_path, capsys):
    out_dir = str(tmp_path / "partial")
    os.makedirs(out_dir)
    save_config(config_from_dict(tiny_config(out_dir)),
                os.path.join(out_dir, "config.json"))
    assert cli.main(["aggregate", out_dir]) == 1
    assert "missing result" in capsys.readouterr().err


@pytest.mark.parametrize("broken,cause", [
    ('{\n  "epochs": 1\n', "is not valid JSON: Expecting ',' delimiter"),
    ('{"epochs": 1, "stop_reason": "max_epochs"}\n', "has no 'mean_foreground_dsc' field"),
    ('{"mean_foreground_dsc": "0.5"}\n',
     "has a 'mean_foreground_dsc' that is not a number: '0.5'"),
    ('{"mean_foreground_dsc": NaN}\n', "has a non-finite 'mean_foreground_dsc': nan"),
    ('{"mean_foreground_dsc": Infinity}\n', "has a non-finite 'mean_foreground_dsc': inf"),
], ids=["truncated", "no_score", "text_score", "nan_score", "infinite_score"])
def test_aggregate_names_broken_metrics(make_run_dir, capsys, broken, cause):
    run_dir = make_run_dir({"end2end_2d": (0.7, 0.9)})
    path = os.path.join(run_dir, "cells", "end2end_2d-unet-d01", "fold1", "metrics.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(broken)
    assert cli.main(["aggregate", run_dir]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path} {cause}")


def test_class_count_spans_the_whole_cohort(tmp_path, capsys):
    """A first case without the top class must not shrink the label set."""
    cases = str(tmp_path / "cases")
    volumes = generate_cohort(dataset_presets()["organ_and_lesion"], 6, seed=0)
    first = volumes[0]
    top = first.labels.max()
    volumes[0] = dataclasses.replace(
        first, labels=np.where(first.labels == top, 0, first.labels).astype(first.labels.dtype))
    for volume in volumes:
        volio.save_case(cases, volume)
    assert cli.cohort_num_classes([v.labels for v in volumes[:1]]) == top
    assert cli.cohort_num_classes([v.labels for v in volumes]) == top + 1

    raw = tiny_config(str(tmp_path / "run"))
    raw["source"] = {"kind": "volumes", "directory": cases}
    raw["grid"]["modes"] = ["end2end_2d"]
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    assert cli.main(["run", cfg_path]) == 0
    with open(tmp_path / "run" / "cells" / "end2end_2d-unet-d01" / "fold0" / "metrics.json",
              "r", encoding="utf-8") as fh:
        assert len(json.load(fh)["per_class_dsc"]) == top + 1
    assert cli.main(["profile", cfg_path]) == 0
    capsys.readouterr()


def _volumes_config(tmp_path, volumes, **grid) -> str:
    """Config path for a tiny end2end_2d grid over ``volumes`` saved to disk."""
    cases = str(tmp_path / "cases")
    for volume in volumes:
        volio.save_case(cases, volume)
    raw = tiny_config(str(tmp_path / "run"))
    raw["source"] = {"kind": "volumes", "directory": cases, "normalization": "none"}
    raw["grid"].update({"modes": ["end2end_2d"], **grid})
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return cfg_path


def test_fold_without_finite_epoch_is_null_and_named(tmp_path, capsys, monkeypatch):
    volumes = generate_cohort(dataset_presets()["organ_and_lesion"], 6, seed=0)
    cfg_path = _volumes_config(tmp_path, volumes)
    # load_case refuses a NaN on disk, so it enters after loading
    volumes[2].image[0, 0, 0, 0] = np.nan
    monkeypatch.setattr(cli, "load_source", lambda source: volumes)
    assert cli.main(["run", cfg_path]) == 1

    def refuse(constant):
        raise AssertionError(f"metrics.json holds {constant}")

    cell = tmp_path / "run" / "cells" / "end2end_2d-unet-d01"
    folds = [json.loads((cell / f"fold{k}" / "metrics.json").read_text(encoding="utf-8"),
                        parse_constant=refuse) for k in (0, 1)]
    stopped = [k for k, m in enumerate(folds) if m["stop_reason"] == "non_finite"]
    assert stopped
    for k in stopped:
        assert folds[k]["best_val_loss"] is None
        assert folds[k]["mean_foreground_dsc"] is None
    named = f"error: {cell / f'fold{stopped[0]}' / 'metrics.json'} holds no score"
    assert capsys.readouterr().err.startswith(named)
    assert cli.main(["aggregate", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith(named)
    assert not (tmp_path / "run" / "aggregate.csv").exists()


def test_non_finite_image_on_disk_exits_before_any_cell(tmp_path, capsys):
    volumes = generate_cohort(dataset_presets()["organ_and_lesion"], 6, seed=0)
    volumes[2].image[0, 0, 0, 0] = np.nan
    assert cli.main(["run", _volumes_config(tmp_path, volumes)]) == 1
    assert capsys.readouterr().err == "error: p002: image holds 1 non-finite value\n"
    assert not (tmp_path / "run").exists()


def test_volumes_source_too_small_for_folds_exits_before_any_cell(tmp_path, capsys):
    volumes = generate_cohort(dataset_presets()["organ_and_lesion"], 3, seed=0)
    assert cli.main(["run", _volumes_config(tmp_path, volumes)]) == 1
    assert capsys.readouterr().err == (
        "error: 'folds.count': 3 patients are too few for 2 folds"
        " with non-empty train/val/test\n")
    assert not (tmp_path / "run").exists()


def test_patch_depth_deeper_than_volumes_exits_before_any_cell(tmp_path, capsys):
    volumes = generate_cohort(dataset_presets()["organ_and_lesion"], 6, seed=0)
    volumes[4] = dataclasses.replace(volumes[4], image=volumes[4].image[:, :, :12],
                                     labels=volumes[4].labels[:, :, :12])
    cfg_path = _volumes_config(tmp_path, volumes, modes=["end2end_3d"], patch_depth=16)
    assert cli.main(["run", cfg_path]) == 1
    assert capsys.readouterr().err == (
        "error: 'grid.patch_depth': 16 is deeper than the shallowest volume (12 slices)\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("verb", ["run", "profile"])
@pytest.mark.parametrize("differs,hwc", [("in_plane", (24, 32, 1)), ("channels", (32, 32, 2))])
def test_mixed_cohort_shapes_exit_before_any_cell(tmp_path, capsys, verb, differs, hwc):
    volumes = generate_cohort(dataset_presets()["organ_and_lesion"], 6, seed=0)
    odd = volumes[3]
    if differs == "in_plane":
        volumes[3] = dataclasses.replace(odd, image=odd.image[:24], labels=odd.labels[:24])
    else:
        volumes[3] = dataclasses.replace(odd, image=np.concatenate([odd.image] * 2, axis=3))
    assert cli.main([verb, _volumes_config(tmp_path, volumes)]) == 1
    assert capsys.readouterr().err == (
        f"error: 'source.directory': case 'p003' has (H, W, C) {hwc},"
        " but case 'p000' has (32, 32, 1)\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("verb", ["run", "profile"])
def test_cohort_without_foreground_exits_before_any_cell(tmp_path, capsys, verb):
    volumes = generate_cohort(dataset_presets()["organ_and_lesion"], 6, seed=0)
    volumes = [dataclasses.replace(v, labels=np.zeros_like(v.labels)) for v in volumes]
    assert cli.main([verb, _volumes_config(tmp_path, volumes)]) == 1
    assert capsys.readouterr().err == (
        "error: 'source.directory': no case holds a foreground label\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("verb", ["run", "profile"])
def test_cohort_with_a_label_gap_exits_before_any_cell(tmp_path, capsys, verb):
    volumes = generate_cohort(dataset_presets()["organ_and_lesion"], 6, seed=0)
    volumes = [dataclasses.replace(v, labels=np.where(v.labels == 1, 0, v.labels))
               for v in volumes]
    assert cli.main([verb, _volumes_config(tmp_path, volumes)]) == 1
    assert capsys.readouterr().err == (
        "error: 'source.directory': label 1 appears in no case (largest label 2)\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("verb", ["run", "profile"])
def test_cohort_off_the_pooling_grid_exits_before_any_cell(tmp_path, capsys, verb):
    # both backbones pool three times, so 28 x 28 would reach an odd 7 x 7
    volumes = [dataclasses.replace(v, image=v.image[:28, :28], labels=v.labels[:28, :28])
               for v in generate_cohort(dataset_presets()["organ_and_lesion"], 6, seed=0)]
    assert cli.main([verb, _volumes_config(tmp_path, volumes)]) == 1
    assert capsys.readouterr().err == (
        f"error: 'source.directory': case {volumes[0].patient_id!r} has (H, W) (28, 28), "
        "but both backbones pool three times, so H and W must be multiples of 8\n")
    assert not (tmp_path / "run").exists()


def test_profile_names_patch_depth_deeper_than_volumes(tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump({"grid": {"modes": ["end2end_3d"], "base_filters": 4,
                            "patch_depth": 24}}, fh)
    assert cli.main(["profile", cfg_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 'grid.patch_depth': 24 is deeper than")


# ---------------------------------------------------------------------------
# rendering


def test_render_background_only_stays_gray():
    rng = np.random.default_rng(0)
    img = rng.normal(size=(6, 7))
    data = cli.render_slice(img, np.zeros((6, 7), dtype=np.uint8))
    assert data.startswith(b"P6\n7 6\n255\n")
    pixels = np.frombuffer(data.rsplit(b"255\n", 1)[1], dtype=np.uint8)
    pixels = pixels.reshape(6, 7, 3)
    assert (pixels[..., 0] == pixels[..., 1]).all()
    assert (pixels[..., 1] == pixels[..., 2]).all()


def test_render_single_class_gives_two_colors():
    img = np.full((8, 8), 3.0)
    labels = np.zeros((8, 8), dtype=np.uint8)
    labels[2:5, 2:5] = 1
    data = cli.render_slice(img, labels)
    pixels = np.frombuffer(data.rsplit(b"255\n", 1)[1], dtype=np.uint8).reshape(-1, 3)
    colors = {tuple(p) for p in pixels}
    assert len(colors) == 2
    assert (0, 0, 0) in colors  # constant image renders as black background


def test_render_deterministic_bytes():
    rng = np.random.default_rng(1)
    img = rng.normal(size=(5, 5))
    labels = (rng.random((5, 5)) < 0.3).astype(np.uint8)
    assert cli.render_slice(img, labels) == cli.render_slice(img, labels)


def test_render_shape_mismatch():
    with pytest.raises(ValueError):
        cli.render_slice(np.zeros((4, 4)), np.zeros((4, 5), dtype=np.uint8))


def test_render_verb_and_slice_range(tmp_path, capsys):
    assert cli.main(["generate", "organ_and_lesion", "1", str(tmp_path),
                     "--seed", "3"]) == 0
    capsys.readouterr()
    case = str(tmp_path / "p000")
    out = str(tmp_path / "slice.ppm")
    assert cli.main(["render", case, "5", out]) == 0
    with open(out, "rb") as fh:
        assert fh.read(2) == b"P6"
    assert cli.main(["render", case, "99", out]) == 1
    assert "out of range" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# generate / features / profile


def test_generate_writes_loadable_cases(tmp_path, capsys):
    assert cli.main(["generate", "multi_modal_lesions", "2", str(tmp_path)]) == 0
    stems = volio.list_case_stems(str(tmp_path))
    assert stems == ["p000", "p001"]
    volume = volio.load_case(str(tmp_path), "p000")
    assert volume.image.shape == (32, 32, 16, 4)


@pytest.mark.parametrize("args,message", [
    (["-2"], "count must be at least 1, got -2"),
    (["0"], "count must be at least 1, got 0"),
    (["1", "--seed", "-1"], "--seed must be non-negative, got -1"),
], ids=["count_negative", "count_zero", "seed_negative"])
def test_generate_names_a_bad_argument(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert cli.main(["generate", "organ_and_lesion", args[0], str(out), *args[1:]]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_generate_unknown_preset(tmp_path, capsys):
    assert cli.main(["generate", "nope", "1", str(tmp_path / "cases")]) == 1
    assert capsys.readouterr().err == _UNKNOWN_PRESET
    assert not (tmp_path / "cases").exists()


def test_features_verb_matches_direct_analysis(tmp_path, capsys):
    cli.main(["generate", "organ_and_lesion", "3", str(tmp_path), "--seed", "7"])
    capsys.readouterr()
    out = str(tmp_path / "features.csv")
    assert cli.main(["features", str(tmp_path), "--out", out]) == 0
    with open(out, "r", encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "class_id,depth,size_fraction,displacement"
    assert len(rows) == 6  # two classes plus min/mean/max

    labels = [volio.load_case(str(tmp_path), s).labels
              for s in volio.list_case_stems(str(tmp_path))]
    expected = analysis.class_feature_table(labels, 3)
    for line, want in zip(rows[1:3], expected):
        cid, depth, size, disp = line.split(",")
        assert int(cid) == want["class_id"]
        assert float(depth) == want["depth"]
        assert float(size) == want["size_fraction"]
        assert float(disp) == want["displacement"]


def test_features_verb_reads_no_image_file(tmp_path, capsys, monkeypatch):
    cli.main(["generate", "organ_and_lesion", "2", str(tmp_path), "--seed", "7"])
    capsys.readouterr()
    read = []
    real_read_array = volio.read_array
    monkeypatch.setattr(volio, "read_array", lambda path: read.append(str(path))
                        or real_read_array(path))
    assert cli.main(["features", str(tmp_path)]) == 0
    assert sorted(os.path.basename(p) for p in read) == ["p000.labels.ssv", "p001.labels.ssv"]


@pytest.mark.parametrize("labels,message", [
    (np.zeros((4, 4, 2), dtype=np.float32), "p000: label file does not hold uint8 data"),
    (np.zeros((4, 4), dtype=np.uint8), "p000: labels (4, 4) are not an (H, W, D) map"),
], ids=["float", "rank_2"])
def test_features_verb_names_a_bad_label_file(tmp_path, capsys, labels, message):
    volio.write_array(tmp_path / "p000.image.ssv", np.zeros((4, 4, 2, 1)))
    volio.write_array(tmp_path / "p000.labels.ssv", labels)
    assert cli.main(["features", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_features_verb_without_foreground_exits_nonzero(tmp_path, capsys):
    for v in generate_cohort(dataset_presets()["organ_and_lesion"], 2, seed=0):
        volio.save_case(tmp_path, dataclasses.replace(v, labels=np.zeros_like(v.labels)))
    assert cli.main(["features", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: no case holds a foreground label\n")


def test_features_verb_with_a_label_gap_exits_nonzero(tmp_path, capsys):
    # the same label checks as the run gate: a class no case holds has no features
    for v in generate_cohort(dataset_presets()["organ_and_lesion"], 2, seed=0):
        volio.save_case(tmp_path, dataclasses.replace(v, labels=np.where(v.labels == 1, 0,
                                                                         v.labels)))
    assert cli.main(["features", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: label 1 appears in no case (largest label 2)\n")


def test_profile_times_warm_repeats_of_the_training_step(grid_run, tmp_path, monkeypatch):
    cfg_path, _, _ = grid_run
    calls = []
    real_step = cli.train_step

    def spy(*args, **kwargs):
        calls.append(args[0].spec)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(cli, "train_step", spy)
    assert cli.main(["profile", cfg_path, "--out", str(tmp_path / "profile.csv")]) == 0
    cells = {(spec.mode, spec.d) for spec in calls}
    assert cells == {("end2end_2d", 1), ("proposed", 3)}
    # one warm-up call, then the timed repeats whose median is reported
    for cell in cells:
        assert sum((spec.mode, spec.d) == cell for spec in calls) >= 4


def test_profile_csv_shape(grid_run, tmp_path):
    cfg_path, _, _ = grid_run
    out = str(tmp_path / "profile.csv")
    assert cli.main(["profile", cfg_path, "--out", out]) == 0
    with open(out, "r", encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    assert rows[0].split(",")[:4] == ["mode", "backbone", "d", "parameter_count"]
    assert len(rows) == 3
    for line in rows[1:]:
        fields = line.split(",")
        assert int(fields[3]) > 0 and int(fields[4]) > 0 and int(fields[5]) > 0
        assert float(fields[6]) > 0 and float(fields[7]) > 0


# ---------------------------------------------------------------------------
# package surface


def test_all_lists_every_public_name():
    bound = {name for name, value in vars(sliceseg).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(sliceseg.__all__) == sorted(bound)
