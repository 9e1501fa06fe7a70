"""Reading and writing the lab's files: .ssv volumes, JSON, CSV tables.

JSON records are sorted, 2-space indented and end in a newline; NaN and
infinities are refused. CSV tables are a header line, then one line per
row of ``str`` values joined by commas, so every float reads back
exactly with ``float()``.

Volume layout (all integers little endian):
    magic   4 bytes  b"SSV1"
    rank    u32
    extents u32 * rank
    dtype   u8       0 = float32 image data, 1 = uint8 label data
    payload raw row-major array bytes

A case on disk is a pair sharing a filename stem: ``<stem>.image.ssv``
holds the (H, W, D, C) image and ``<stem>.labels.ssv`` the (H, W, D)
label map.
"""
from __future__ import annotations

import json
import math
import struct
import sys
from pathlib import Path

import numpy as np

from .phantom import LabeledVolume

MAGIC = b"SSV1"
DTYPE_IMAGE = 0
DTYPE_LABELS = 1
DTYPES = {DTYPE_IMAGE: np.dtype("<f4"), DTYPE_LABELS: np.dtype(np.uint8)}
IMAGE_SUFFIX = ".image.ssv"
LABELS_SUFFIX = ".labels.ssv"


def write_json(path, obj) -> None:
    # encoded in full first, so a refused value leaves no partial file
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path):
    """Parse one JSON file; text that is not JSON raises ``ValueError``
    naming ``path``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ValueError(f"{path} is not valid JSON: {e}") from e


def write_table(path, header, rows) -> None:
    """Write a CSV table to ``path``, or to stdout when ``path`` is None."""
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_array(path, array: np.ndarray) -> None:
    array = np.asarray(array)
    if np.issubdtype(array.dtype, np.floating):
        payload = array.astype("<f4")
        tag = DTYPE_IMAGE
    elif array.dtype == np.uint8:
        payload = array
        tag = DTYPE_LABELS
    else:
        raise ValueError(f"unsupported array dtype {array.dtype}; expected float or uint8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", array.ndim))
        fh.write(struct.pack(f"<{array.ndim}I", *array.shape))
        fh.write(struct.pack("<B", tag))
        fh.write(np.ascontiguousarray(payload).tobytes())


def read_array(path) -> np.ndarray:
    """Read one array file; a file cut short anywhere, with bytes after its
    payload or with an unknown magic or tag raises ``ValueError``."""
    raw = Path(path).read_bytes()

    def unpack(fmt: str, start: int, what: str) -> tuple:
        if len(raw) < start + struct.calcsize(fmt):
            raise ValueError(f"{path}: truncated {what} ({len(raw)} bytes)")
        return struct.unpack_from(fmt, raw, start)

    (magic,) = unpack("4s", 0, "magic")
    if magic != MAGIC:
        raise ValueError(f"{path}: not a volume file (bad magic {magic!r})")
    (rank,) = unpack("<I", 4, "rank")
    extents = unpack(f"<{rank}I", 8, "extents")
    (tag,) = unpack("<B", 8 + 4 * rank, "dtype tag")
    if tag not in DTYPES:
        raise ValueError(f"{path}: unknown dtype tag {tag}")
    start = 9 + 4 * rank
    end = start + math.prod(extents) * DTYPES[tag].itemsize
    if len(raw) < end:
        raise ValueError(f"{path}: truncated payload ({len(raw) - start} of"
                         f" {end - start} bytes)")
    if len(raw) > end:
        raise ValueError(f"{path}: {len(raw) - end} trailing bytes after the payload")
    return np.frombuffer(raw, dtype=DTYPES[tag], offset=start).reshape(extents)


def save_case(directory, volume: LabeledVolume) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_array(directory / f"{volume.patient_id}{IMAGE_SUFFIX}", volume.image)
    write_array(directory / f"{volume.patient_id}{LABELS_SUFFIX}", volume.labels)


def load_labels(directory, stem: str) -> np.ndarray:
    """The (H, W, D) uint8 label map of one case, without its image."""
    labels = read_array(Path(directory) / f"{stem}{LABELS_SUFFIX}")
    if labels.dtype != np.uint8:
        raise ValueError(f"{stem}: label file does not hold uint8 data")
    if labels.ndim != 3:
        raise ValueError(f"{stem}: labels {labels.shape} are not an (H, W, D) map")
    return labels


def load_case(directory, stem: str) -> LabeledVolume:
    directory = Path(directory)
    image = read_array(directory / f"{stem}{IMAGE_SUFFIX}").astype(np.float64)
    labels = load_labels(directory, stem)
    if image.ndim != 4 or image.shape[:3] != labels.shape:
        raise ValueError(f"{stem}: image {image.shape} and labels {labels.shape} do not pair")
    bad = int(np.count_nonzero(~np.isfinite(image)))
    if bad:
        # one NaN would turn the whole normalized volume into NaN
        raise ValueError(f"{stem}: image holds {bad} non-finite value{'s' if bad > 1 else ''}")
    return LabeledVolume(image=image, labels=labels, patient_id=stem)


def list_case_stems(directory) -> list[str]:
    directory = Path(directory)
    stems = sorted(p.name[:-len(IMAGE_SUFFIX)] for p in directory.glob(f"*{IMAGE_SUFFIX}"))
    if not stems:
        raise ValueError(f"no volume cases found in {directory}")
    return stems
