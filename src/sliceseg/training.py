"""Optimiser, schedule policy, training loop and volume-level evaluation."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, _first_max, backward, no_grad
from .data import AugmentParams, SliceSample, augment, depth_window
from .losses import combined_loss, dice_per_class, soft_dice_loss
from .models import SegmentationModel
from .phantom import LabeledVolume

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    initial_lr: float = 1e-4
    lr_drop_factor: float = 0.2
    patience_epochs: int = 5
    early_stop_epochs: int = 11
    max_epochs: int = 100
    min_improvement: float = 1e-5
    l2_coefficient: float = 1e-5
    batch_size: int = 8
    seed: int = 0
    loss: str = "combined"
    augment: AugmentParams = field(default_factory=AugmentParams)

    def __post_init__(self):
        if not 0 < self.initial_lr < np.inf:
            raise ValueError(f"initial_lr must be positive and finite, got {self.initial_lr}")
        if not 0 < self.lr_drop_factor < 1:
            raise ValueError(f"lr_drop_factor must be in (0, 1), got {self.lr_drop_factor}")
        if not 0 <= self.l2_coefficient < np.inf:
            raise ValueError(
                f"l2_coefficient must be non-negative and finite, got {self.l2_coefficient}")
        # a negative threshold counts a small rise as an improvement
        if not 0 <= self.min_improvement < np.inf:
            raise ValueError(
                f"min_improvement must be non-negative and finite, got {self.min_improvement}")
        if self.patience_epochs < 1 or self.early_stop_epochs < self.patience_epochs:
            raise ValueError("early_stop_epochs must be >= patience_epochs >= 1")
        if self.max_epochs < 1 or self.batch_size < 1:
            raise ValueError("max_epochs and batch_size must be positive")
        if self.loss not in ("combined", "dice"):
            raise ValueError(f"unknown loss {self.loss!r}")

    def loss_fn(self, probs, target_onehot):
        if self.loss == "dice":
            return soft_dice_loss(probs, target_onehot)
        return combined_loss(probs, target_onehot)


class AdamState:
    """First/second moment buffers keyed by parameter name."""

    def __init__(self, params: dict[str, Tensor]):
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float,
              l2_coefficient: float = 0.0, decay_names: frozenset | set = frozenset()) -> None:
    """One bias-corrected Adam update from the gradients stored on the
    parameters. The L2 penalty enters as 2 * l2 * w added to the gradient
    of the named parameters before the moment updates."""
    if not 0 < lr < np.inf:
        raise ValueError(f"learning rate must be positive and finite, got {lr}")
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if l2_coefficient and name in decay_names:
            g = g + 2.0 * l2_coefficient * p.data
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        mhat = m / (1 - ADAM_BETA1 ** t)
        vhat = v / (1 - ADAM_BETA2 ** t)
        p.data -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


class PlateauSchedule:
    """Validation-plateau learning-rate policy plus early stopping.

    The first observed value only sets the baseline; an improvement is a
    decrease of at least ``min_improvement`` below the best value seen,
    and only then does the best value move. The learning rate is
    multiplied by ``drop_factor`` after ``patience`` consecutive epochs
    without improvement (that counter resets on each drop); training
    stops after ``early_stop`` consecutive epochs without improvement.
    """

    def __init__(self, initial_lr: float, drop_factor: float, patience: int,
                 early_stop: int, min_improvement: float):
        self.lr = initial_lr
        self.drop_factor = drop_factor
        self.patience = patience
        self.early_stop = early_stop
        self.min_improvement = min_improvement
        self.best: float | None = None
        self.epochs_since_improvement = 0
        self.epochs_since_drop = 0

    def observe(self, value: float) -> tuple[bool, bool]:
        """Feed one validation value; returns (improved, should_stop)."""
        if self.best is None:
            self.best = value
            improved = False
        else:
            improved = (self.best - value) >= self.min_improvement
            if improved:
                self.best = value
        if improved:
            self.epochs_since_improvement = 0
            self.epochs_since_drop = 0
            return True, False
        self.epochs_since_improvement += 1
        self.epochs_since_drop += 1
        if self.epochs_since_drop >= self.patience:
            self.lr *= self.drop_factor
            self.epochs_since_drop = 0
        return False, self.epochs_since_improvement >= self.early_stop


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_dsc: float
    lr: float


@dataclass
class TrainHistory:
    records: list[EpochRecord]
    stop_reason: str
    best_val_loss: float


def build_samples(volumes, spec) -> list[SliceSample]:
    """Expand volumes into model inputs: one sample per slice for the
    single-slice modes, one per non-overlapping depth tile (final tile
    right-aligned) for the volumetric mode.

    In the slice modes each volume of depth D is edge-padded once by
    r = d // 2 slices on either side, into one read-only copy of
    D + d - 1 slices, and the stack of slice z is the view of its slices
    z..z+d-1: the values of ``extract_stack(vol, z, d)``, at D + d - 1
    slices per volume instead of D * d. Volumetric tiles are views of the
    image itself."""
    samples: list[SliceSample] = []
    for vol in volumes:
        depth = vol.labels.shape[2]
        if spec.mode == "end2end_3d":
            for z0 in _tile_starts(depth, spec.d):
                samples.append(SliceSample(stack=vol.image[:, :, z0:z0 + spec.d, :],
                                           target=vol.labels[:, :, z0:z0 + spec.d]))
        else:
            r = spec.d // 2
            padded = depth_window(vol.image, -r, depth + r)
            padded.flags.writeable = False
            for z in range(depth):
                samples.append(SliceSample(stack=padded[:, :, z:z + spec.d],
                                           target=vol.labels[:, :, z]))
    return samples


def _tile_starts(depth: int, patch: int) -> list[int]:
    if depth < patch:
        raise ValueError(f"volume depth {depth} shorter than patch depth {patch}")
    starts = list(range(0, depth - patch + 1, patch))
    if starts[-1] + patch < depth:
        starts.append(depth - patch)
    return starts


def _class_labels(probs: np.ndarray) -> np.ndarray:
    """``probs.argmax(axis=-1)``, taken over whole class slices."""
    return _first_max(np.moveaxis(probs, -1, 0))[0]


def _batches(n: int, batch_size: int, order=None):
    idx = np.arange(n) if order is None else order
    for lo in range(0, n, batch_size):
        yield idx[lo:lo + batch_size]


def _forward_batch(model, samples, training: bool):
    x = np.stack([s.stack for s in samples])
    y = np.eye(model.spec.num_classes)[np.stack([s.target for s in samples]).astype(np.int64)]
    probs = model.forward(Tensor(x), training=training)
    return probs, y


def train_step(model: SegmentationModel, batch, state: AdamState, lr: float,
               config: TrainConfig) -> float:
    """One optimiser step on a batch of samples: forward, ``config``'s
    loss, backward and Adam with its L2 penalty. Returns the loss; the
    step's graph is released by backward, before Adam runs."""
    params = model.parameters()
    for p in params.values():
        p.grad = None
    loss = config.loss_fn(*_forward_batch(model, batch, training=True))
    backward(loss)
    adam_step(params, state, lr, config.l2_coefficient, model.decay_parameters())
    return loss.item()


def run_training(model: SegmentationModel, train_samples, val_samples,
                 config: TrainConfig) -> TrainHistory:
    """Adam training with plateau learning-rate drops, early stopping and
    best-validation checkpointing (the model is left holding the weights
    of its best validation epoch). An epoch whose train or validation
    loss is not finite ends training with ``stop_reason="non_finite"``.
    The reported losses never include the L2 penalty; it acts on the
    gradients only."""
    if not train_samples or not val_samples:
        raise ValueError("training and validation sets must be non-empty")
    state = AdamState(model.parameters())
    schedule = PlateauSchedule(config.initial_lr, config.lr_drop_factor,
                               config.patience_epochs, config.early_stop_epochs,
                               config.min_improvement)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    records: list[EpochRecord] = []
    best_val = np.inf
    best_state = None
    stop_reason = "max_epochs"

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_samples))
        aug_rng = np.random.default_rng([config.seed, 2, epoch])
        loss_sum = 0.0
        n_batches = 0
        for batch_idx in _batches(len(train_samples), config.batch_size, order):
            batch = [augment(train_samples[i], config.augment, aug_rng) for i in batch_idx]
            loss_sum += train_step(model, batch, state, schedule.lr, config)
            n_batches += 1
        val_loss, val_dsc = validate(model, val_samples, config)
        train_loss = loss_sum / n_batches
        records.append(EpochRecord(epoch, train_loss, val_loss, val_dsc, schedule.lr))
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            stop_reason = "non_finite"
            break
        if val_loss < best_val:
            best_val = val_loss
            best_state = model.state()
        _, should_stop = schedule.observe(val_loss)
        if should_stop:
            stop_reason = "early_stop"
            break

    if best_state is not None:
        model.load_state(best_state)
    return TrainHistory(records, stop_reason, best_val)


def validate(model: SegmentationModel, samples, config: TrainConfig) -> tuple[float, float]:
    """Mean validation loss plus sample-level mean foreground overlap,
    building no graph."""
    if not samples:
        raise ValueError("no samples to validate")
    num_classes = model.spec.num_classes
    loss_sum = 0.0
    dsc_sum = 0.0
    n_batches = 0
    n_samples = 0
    with no_grad():
        for batch_idx in _batches(len(samples), config.batch_size):
            batch = [samples[i] for i in batch_idx]
            probs, y = _forward_batch(model, batch, training=False)
            loss_sum += config.loss_fn(probs, y).item()
            n_batches += 1
            pred = _class_labels(probs.data)
            for k, s in enumerate(batch):
                per_class = dice_per_class(pred[k], np.asarray(s.target), num_classes)
                dsc_sum += float(np.mean(per_class[1:]))
                n_samples += 1
    return loss_sum / n_batches, dsc_sum / n_samples


def predict_volume(model: SegmentationModel, volume: LabeledVolume,
                   batch_size: int = 8) -> np.ndarray:
    """Label every voxel of one volume, building no graph.

    The slice modes label ``batch_size`` slice centres per forward pass,
    on a slab of those slices plus d//2 edge-replicated neighbours on
    either side. That gives the same labels as one pass per d-slice
    stack, because each window's output depends only on its own slices
    and inference batch norm is a per-channel affine map. The volumetric
    mode tiles the depth axis (final tile right-aligned, overlap voxels
    taken from the later tile).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    depth = volume.labels.shape[2]
    d = model.spec.d
    pred = np.zeros(volume.labels.shape, dtype=np.int64)
    with no_grad():
        if model.spec.mode == "end2end_3d":
            for z0 in _tile_starts(depth, d):
                probs = model.forward(Tensor(volume.image[None, :, :, z0:z0 + d, :]),
                                      training=False)
                pred[:, :, z0:z0 + d] = _class_labels(probs.data[0])
            return pred
        for lo in range(0, depth, batch_size):
            hi = min(lo + batch_size, depth)
            slab = depth_window(volume.image, lo - d // 2, hi + d // 2)
            probs = model.forward(Tensor(slab[None]), training=False)
            pred[:, :, lo:hi] = np.moveaxis(_class_labels(probs.data), 0, -1)
    return pred


@dataclass
class EvalResult:
    per_volume: dict[str, list[float]]
    per_class: list[float]
    mean_foreground: float


def evaluate(model: SegmentationModel, volumes, batch_size: int = 8) -> EvalResult:
    """Volume-level hard overlap: per-class scores are computed on each
    reassembled volume and then averaged over volumes; the headline
    number is the mean over foreground classes."""
    if not volumes:
        raise ValueError("no volumes to evaluate")
    num_classes = model.spec.num_classes
    per_volume: dict[str, list[float]] = {}
    for vol in volumes:
        pred = predict_volume(model, vol, batch_size=batch_size)
        per_volume[vol.patient_id] = dice_per_class(pred, vol.labels, num_classes)
    per_class = [float(np.mean([scores[k] for scores in per_volume.values()]))
                 for k in range(num_classes)]
    return EvalResult(per_volume=per_volume, per_class=per_class,
                      mean_foreground=float(np.mean(per_class[1:])))
