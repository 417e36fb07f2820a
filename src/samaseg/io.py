"""STN1 binary tensor files and checkpoint directories.

STN1 layout: magic b"STN1", u8 dtype tag (0=f32, 1=f64, 2=u8, 3=u16),
u8 rank, rank x u64 little-endian extents, then the raw little-endian
row-major payload.

A checkpoint is a directory of STN1 files plus a plain-text manifest
mapping parameter name -> filename -> shape, one entry per line.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"STN1"
_TAG_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1"), 3: np.dtype("<u2")}
_DTYPE_TO_TAG = {np.dtype(np.float32): 0, np.dtype(np.float64): 1,
                 np.dtype(np.uint8): 2, np.dtype(np.uint16): 3}

MANIFEST_NAME = "manifest.txt"


def write_stn1(path, arr: np.ndarray):
    arr = np.ascontiguousarray(arr)
    tag = _DTYPE_TO_TAG.get(arr.dtype.newbyteorder("="))
    if tag is None:
        raise ValueError(f"unsupported dtype {arr.dtype} for STN1")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<BB", tag, arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(arr.astype(_TAG_TO_DTYPE[tag], copy=False).tobytes())


def read_stn1(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not an STN1 file")
    if len(raw) < 6 or len(raw) < 6 + 8 * raw[5]:
        raise ValueError(f"{path}: truncated header")
    tag, rank = raw[4], raw[5]
    if tag not in _TAG_TO_DTYPE:
        raise ValueError(f"{path}: unknown dtype tag {tag}")
    start = 6 + 8 * rank
    shape = struct.unpack_from(f"<{rank}Q", raw, 6)
    dtype = _TAG_TO_DTYPE[tag]
    size = math.prod(shape) * dtype.itemsize
    if len(raw) != start + size:
        raise ValueError(f"{path}: payload is {len(raw) - start} bytes, shape {shape} "
                         f"needs {size}")
    return np.frombuffer(raw, dtype=dtype, offset=start).reshape(shape).copy()


def save_checkpoint(ckpt_dir, model):
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, (name, t) in enumerate(model.named_parameters()):
        fname = f"param_{i:04d}.stn1"
        write_stn1(ckpt_dir / fname, t.data)
        shape = "x".join(str(s) for s in t.shape) if t.ndim else "scalar"
        lines.append(f"{name}\t{fname}\t{shape}")
    (ckpt_dir / MANIFEST_NAME).write_text("\n".join(lines) + "\n")


def load_checkpoint(ckpt_dir, model):
    ckpt_dir = Path(ckpt_dir)
    entries = {}
    for line in (ckpt_dir / MANIFEST_NAME).read_text().splitlines():
        if not line.strip():
            continue
        name, fname, _ = line.split("\t")
        entries[name] = fname
    params = dict(model.named_parameters())
    extra = [n for n in entries if n not in params]
    if extra:
        raise KeyError(f"checkpoint has entries the model lacks: {', '.join(extra)}")
    for name, t in params.items():
        if name not in entries:
            raise KeyError(f"checkpoint is missing parameter '{name}'")
        arr = read_stn1(ckpt_dir / entries[name])
        if arr.shape != t.shape:
            raise ValueError(f"shape mismatch for '{name}': checkpoint {arr.shape} vs model {t.shape}")
        # in place: an optimizer may hold t.data as a view of its flat run
        np.copyto(t.data, arr.astype(t.dtype, copy=False))


def checkpoint_scalar_count(ckpt_dir) -> int:
    """Total stored parameter scalars in a checkpoint directory."""
    ckpt_dir = Path(ckpt_dir)
    total = 0
    for line in (ckpt_dir / MANIFEST_NAME).read_text().splitlines():
        if not line.strip():
            continue
        _, fname, _ = line.split("\t")
        total += read_stn1(ckpt_dir / fname).size
    return total


def write_pgm(path, mask: np.ndarray):
    """Binary PGM (P5) of a 2D uint8 mask, scaled to full range."""
    if mask.ndim != 2:
        raise ValueError("PGM export expects a 2D mask")
    peak = int(mask.max()) or 1
    img = (mask.astype(np.float64) / peak * 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(img.tobytes())
