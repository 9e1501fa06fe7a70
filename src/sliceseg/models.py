"""Model families: slice-stack front ends and encoder/decoder backbones.

Four input-handling modes share two u-shaped backbones. The pseudo-3D
modes turn a thin stack of neighbouring slices into a single-slice
prediction, either with rank-3 convolutions left unpadded along the stack
axis (transition front end) or by folding the stack into the channel axis.
The end-to-end modes run the backbone directly at rank 2 or rank 3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import ops
from .autodiff import Tensor

MODES = ("end2end_2d", "proposed", "channel_based", "end2end_3d")
BACKBONES = ("unet", "segnet")
TRANSITION_WIDTH = 16


@dataclass(frozen=True)
class ModelSpec:
    """Identifies one experiment variant.

    ``d`` is the slice-stack depth for the pseudo-3D modes (odd), 1 for
    end2end_2d, and the training patch depth for end2end_3d (divisible by
    8 so three pooling stages fit).
    """
    mode: str
    backbone: str
    d: int
    in_channels: int
    num_classes: int
    base_filters: int = 16

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.backbone not in BACKBONES:
            raise ValueError(f"unknown backbone {self.backbone!r}, expected one of {BACKBONES}")
        if self.in_channels < 1 or self.num_classes < 2 or self.base_filters < 1:
            raise ValueError("in_channels >= 1, num_classes >= 2, base_filters >= 1 required")
        if self.mode == "end2end_2d":
            if self.d != 1:
                raise ValueError("end2end_2d requires d = 1")
        elif self.mode == "proposed":
            if self.d < 3 or self.d % 2 == 0:
                raise ValueError("proposed mode requires odd d >= 3")
        elif self.mode == "channel_based":
            if self.d < 1 or self.d % 2 == 0:
                raise ValueError("channel_based mode requires odd d >= 1")
        else:
            if self.d < 8 or self.d % 8 != 0:
                raise ValueError("end2end_3d requires patch depth divisible by 8")

    def rank(self) -> int:
        return 3 if self.mode == "end2end_3d" else 2


def he_uniform(rng: np.random.Generator, kernel: tuple[int, ...], cin: int, cout: int) -> np.ndarray:
    """Fan-in scaled uniform init: U(-sqrt(6/fan_in), +sqrt(6/fan_in))."""
    fan_in = int(np.prod(kernel)) * cin
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(*kernel, cin, cout))


class Conv:
    def __init__(self, rng, rank: int, cin: int, cout: int, kernel: int = 3,
                 padded: tuple[bool, ...] | None = None):
        spatial = (kernel,) * rank
        self.w = Tensor(he_uniform(rng, spatial, cin, cout), requires_grad=True)
        self.b = Tensor(np.zeros(cout), requires_grad=True)
        self.padded = padded

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv_forward(x, self.w, self.b, self.padded)


class BatchNorm:
    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        # inference-time averages, updated in place by training passes
        self.running_mean = Tensor(np.zeros(channels))
        self.running_var = Tensor(np.ones(channels))

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ops.batch_norm(x, self.gamma, self.beta, self.running_mean.data,
                              self.running_var.data, training)


class ConvBlock:
    """Convolution, then batch norm with its ReLU: two graph nodes."""

    def __init__(self, rng, rank: int, cin: int, cout: int,
                 padded: tuple[bool, ...] | None = None):
        self.conv = Conv(rng, rank, cin, cout, padded=padded)
        self.bn = BatchNorm(cout)

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return self.bn.forward(self.conv.forward(x), training)

    def iter_layers(self, prefix: str):
        yield prefix + ".conv", self.conv
        yield prefix + ".bn", self.bn


class TransitionBlock:
    """Stack-reducing front end for the proposed mode.

    floor(d/2) rank-3 conv blocks, padded in-plane but not along the stack
    axis, so every block trims one slice from each side; after the last
    block a single slice remains per window of d slices. A deeper stack of
    D slices yields one slice for each of its D-d+1 windows, and each of
    them depends only on its own window. The depth cascade D, D-2, ... is
    the stack extent of the block's conv3d records in ``ops.cost_trace``.
    """

    def __init__(self, rng, d: int, in_channels: int):
        if d < 3 or d % 2 == 0:
            raise ValueError(f"transition block requires odd stack depth >= 3, got {d}")
        self.depth = d
        self.blocks: list[ConvBlock] = []
        cin = in_channels
        for _ in range(d // 2):
            self.blocks.append(ConvBlock(rng, 3, cin, TRANSITION_WIDTH, padded=(True, True, False)))
            cin = TRANSITION_WIDTH

    def forward(self, x: Tensor, training: bool) -> Tensor:
        """(N, H, W, D, C) with D >= d -> (N * (D-d+1), H, W, TRANSITION_WIDTH), the
        window index moved into the batch axis (row n * (D-d+1) + j is
        window j of input n). D == d gives one feature slice per input."""
        if x.data.shape[3] < self.depth:
            raise ValueError(f"transition block built for depth {self.depth}, "
                             f"input has depth {x.data.shape[3]}")
        t = x
        for blk in self.blocks:
            t = blk.forward(t, training)
        return ad.fold_windows(t, 1)

    def iter_layers(self, prefix: str):
        for i, blk in enumerate(self.blocks):
            yield from blk.iter_layers(f"{prefix}.{i}")


class EncoderDecoder:
    """U-shaped backbone over rank-2 or rank-3 feature maps.

    Three encoder levels at (f, 2f, 4f) filters with two conv blocks each,
    an 8f bottleneck, and a mirrored decoder. The encoder keeps one skip
    list, one entry per level: with ``concat`` (U-Net) the feature map
    before pooling, which the decoder concatenates after upsampling by
    nearest neighbour; without it (SegNet) the pooling argmax codes, which
    the decoder unpools to (no concatenation), with the channel reduction
    applied before unpooling so the code channels line up. Each backbone
    holds only its own kind of skip.
    """

    def __init__(self, rng, rank: int, in_channels: int, num_classes: int,
                 base_filters: int, concat: bool):
        f = base_filters
        self.concat = concat
        widths = [f, 2 * f, 4 * f]
        self.enc: list[tuple[ConvBlock, ConvBlock]] = []
        cin = in_channels
        for w in widths:
            self.enc.append((ConvBlock(rng, rank, cin, w), ConvBlock(rng, rank, w, w)))
            cin = w
        self.bott = (ConvBlock(rng, rank, 4 * f, 8 * f), ConvBlock(rng, rank, 8 * f, 8 * f))
        self.dec: list[tuple[ConvBlock, ConvBlock]] = []
        prev = 8 * f
        for w in reversed(widths):
            first_in = prev + w if concat else prev
            self.dec.append((ConvBlock(rng, rank, first_in, w), ConvBlock(rng, rank, w, w)))
            prev = w
        self.out = Conv(rng, rank, f, num_classes, kernel=1)

    def forward(self, x: Tensor, training: bool) -> Tensor:
        t = x
        skips = []
        for a, b in self.enc:
            t = b.forward(a.forward(t, training), training)
            pooled, codes = ops.maxpool_with_indices(t)
            skips.append(t if self.concat else codes)
            t = pooled
        t = self.bott[1].forward(self.bott[0].forward(t, training), training)
        for (a, b), skip in zip(self.dec, reversed(skips)):
            if self.concat:
                t = ad.concat([ops.upsample_nearest(t), skip], axis=-1)
                t = a.forward(t, training)
            else:
                t = ops.max_unpool(a.forward(t, training), skip)
            t = b.forward(t, training)
        return ad.softmax(self.out.forward(t))

    def iter_layers(self, prefix: str):
        for i, (a, b) in enumerate(self.enc):
            yield from a.iter_layers(f"{prefix}.enc{i + 1}a")
            yield from b.iter_layers(f"{prefix}.enc{i + 1}b")
        yield from self.bott[0].iter_layers(f"{prefix}.botta")
        yield from self.bott[1].iter_layers(f"{prefix}.bottb")
        for i, (a, b) in enumerate(self.dec):
            level = len(self.dec) - i
            yield from a.iter_layers(f"{prefix}.dec{level}a")
            yield from b.iter_layers(f"{prefix}.dec{level}b")
        yield f"{prefix}.out", self.out


class SegmentationModel:
    """A front end plus backbone with a flat, ordered tensor registry."""

    def __init__(self, spec: ModelSpec, seed: int = 0):
        self.spec = spec
        rng = np.random.default_rng(seed)
        self.transition: TransitionBlock | None = None
        if spec.mode == "proposed":
            self.transition = TransitionBlock(rng, spec.d, spec.in_channels)
            backbone_in = TRANSITION_WIDTH
        elif spec.mode == "channel_based":
            backbone_in = spec.d * spec.in_channels
        else:
            backbone_in = spec.in_channels
        self.backbone = EncoderDecoder(rng, spec.rank(), backbone_in, spec.num_classes,
                                       spec.base_filters, concat=spec.backbone == "unet")

    def iter_layers(self):
        if self.transition is not None:
            yield from self.transition.iter_layers("transition")
        yield from self.backbone.iter_layers("backbone")

    def tensors(self):
        """``("<layer path>.<attr>", tensor)`` for every ``Tensor`` attribute
        of every layer, in layer order: the one registry that parameters,
        L2 decay and saved state are read from."""
        for name, layer in self.iter_layers():
            for attr, value in vars(layer).items():
                if isinstance(value, Tensor):
                    yield f"{name}.{attr}", value

    def parameters(self) -> dict[str, Tensor]:
        return {name: t for name, t in self.tensors() if t.requires_grad}

    def decay_parameters(self) -> set[str]:
        """Names of parameters subject to L2: convolution kernels only."""
        return {name for name in self.parameters() if name.endswith(".w")}

    def forward(self, x, training: bool = False) -> Tensor:
        """Class probabilities for an (N, H, W, D, C) slab.

        end2end_3d takes D == d and returns (N, H, W, D, classes). The
        slice modes take any D >= d and return one prediction per d-slice
        window, (N * (D-d+1), H, W, classes), row n * (D-d+1) + j for
        window j of input n: ``ad.fold_windows`` stacks each window into
        channels (d = 1 for end2end_2d), and the proposed transition block
        reduces each window to one slice by depth convolution.
        """
        if not isinstance(x, Tensor):
            x = Tensor(x)
        spec = self.spec
        if x.data.ndim != 5 or x.data.shape[4] != spec.in_channels:
            raise ValueError(f"{spec.mode} expects (N, H, W, D, {spec.in_channels}) input, "
                             f"got shape {x.data.shape}")
        depth = x.data.shape[3]
        if depth < spec.d or (spec.mode == "end2end_3d" and depth != spec.d):
            raise ValueError(f"input stack depth {depth} does not fit {spec.mode} "
                             f"at d = {spec.d}")
        if spec.mode == "end2end_3d":
            t = x
        elif spec.mode == "proposed":
            t = self.transition.forward(x, training)
        else:
            t = ad.fold_windows(x, spec.d)
        return self.backbone.forward(t, training)

    def state(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.tensors()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for name, t in self.tensors():
            t.data[...] = state[name]


def assemble_model(spec: ModelSpec, seed: int = 0) -> SegmentationModel:
    """Build the model for one experiment variant with seeded init."""
    return SegmentationModel(spec, seed)
