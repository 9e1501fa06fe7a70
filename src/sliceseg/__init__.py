"""A self-contained laboratory for volumetric segmentation on slice stacks.

Four model families over shared 2D/3D encoder-decoder backbones, trained
with Dice and cross-entropy losses on synthetic phantom volumes, with
cost accounting and label-structure analysis. Everything runs on plain
numpy with an internal reverse-mode autodiff.
"""
from .analysis import (CostReport, class_feature_table, cost_report, count_flops,
                       count_params, structure_depth, structure_displacement,
                       structure_size)
from .autodiff import Tensor, backward
from .config import (ConfigError, ExperimentConfig, FoldConfig, GridConfig,
                     SourceConfig, config_from_dict, config_to_dict,
                     expand_grid, load_config, save_config)
from .data import (AugmentParams, FoldSplit, SliceSample, augment,
                   extract_stack, make_folds, normalize_ct, normalize_zscore)
from .gradcheck import GradCheckReport, finite_difference_check
from .losses import (combined_loss, cross_entropy_loss, dice_per_class,
                     hard_dice, soft_dice_loss)
from .models import (BACKBONES, MODES, ModelSpec, SegmentationModel,
                     TransitionBlock, assemble_model)
from .phantom import (LabeledVolume, PhantomMetadata, PhantomRecipe,
                      StructureRecipe, dataset_presets, generate_cohort,
                      generate_phantom)
from .training import (AdamState, EvalResult, PlateauSchedule, TrainConfig,
                       TrainHistory, adam_step, build_samples, evaluate,
                       predict_volume, run_training, train_step)
from .volio import list_case_stems, load_case, save_case

__version__ = "0.1.0"

__all__ = [
    "AdamState", "AugmentParams", "BACKBONES", "ConfigError", "CostReport",
    "EvalResult", "ExperimentConfig", "FoldConfig", "FoldSplit",
    "GradCheckReport", "GridConfig", "LabeledVolume", "MODES", "ModelSpec",
    "PhantomMetadata", "PhantomRecipe", "PlateauSchedule", "SegmentationModel",
    "SliceSample", "SourceConfig", "StructureRecipe", "Tensor", "TrainConfig",
    "TrainHistory", "TransitionBlock", "adam_step", "assemble_model",
    "augment", "backward", "build_samples",
    "class_feature_table", "combined_loss", "config_from_dict",
    "config_to_dict", "cost_report", "count_flops", "count_params",
    "cross_entropy_loss", "dataset_presets", "dice_per_class", "evaluate",
    "expand_grid", "extract_stack", "finite_difference_check",
    "generate_cohort", "generate_phantom", "hard_dice", "list_case_stems",
    "load_case", "load_config", "make_folds", "normalize_ct",
    "normalize_zscore", "predict_volume", "run_training", "save_case",
    "save_config", "soft_dice_loss", "structure_depth",
    "structure_displacement", "structure_size", "train_step",
]
