"""STN1 binary tensor files and checkpoint directories.

STN1 layout: magic b"STN1", u8 dtype tag (0=f32, 1=f64, 2=u8, 3=u16),
u8 rank, rank x u64 little-endian extents, then the raw little-endian
row-major payload.

A checkpoint is a directory of two files. `params.stn1` is one rank-1
STN1 file that holds every parameter's values back to back, in
`named_parameters()` order, and `manifest.txt` names them: one
`name<TAB>shape` line per parameter in the same order, so each
parameter's slice of the payload follows from the shapes before it.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"STN1"
_TAG_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1"), 3: np.dtype("<u2")}
_DTYPE_TO_TAG = {np.dtype(np.float32): 0, np.dtype(np.float64): 1,
                 np.dtype(np.uint8): 2, np.dtype(np.uint16): 3}

MANIFEST_NAME = "manifest.txt"
PAYLOAD_NAME = "params.stn1"


def _header(dtype, shape: tuple) -> tuple[bytes, np.dtype]:
    """An STN1 header for `shape`, and the little-endian dtype its payload
    is written in."""
    tag = _DTYPE_TO_TAG.get(np.dtype(dtype).newbyteorder("="))
    if tag is None:
        raise ValueError(f"unsupported dtype {dtype} for STN1")
    return MAGIC + struct.pack(f"<BB{len(shape)}Q", tag, len(shape), *shape), _TAG_TO_DTYPE[tag]


def write_stn1(path, arr: np.ndarray):
    header, dtype = _header(arr.dtype, arr.shape)
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(arr, dtype=dtype).reshape(-1).data)


def _read_header(f, path) -> tuple[np.dtype, tuple]:
    """dtype and shape of the STN1 file open as `f`, read from its header,
    which leaves `f` at the payload; the file's size must match them."""
    raw = f.read(6)
    raw += f.read(8 * raw[5]) if len(raw) == 6 else b""
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not an STN1 file")
    if len(raw) < 6 or len(raw) < 6 + 8 * raw[5]:
        raise ValueError(f"{path}: truncated header")
    tag, rank = raw[4], raw[5]
    if tag not in _TAG_TO_DTYPE:
        raise ValueError(f"{path}: unknown dtype tag {tag}")
    shape = struct.unpack_from(f"<{rank}Q", raw, 6)
    dtype = _TAG_TO_DTYPE[tag]
    size = math.prod(shape) * dtype.itemsize
    file_size = os.fstat(f.fileno()).st_size
    if file_size != len(raw) + size:
        raise ValueError(f"{path}: payload is {file_size - len(raw)} bytes, shape {shape} "
                         f"needs {size}")
    return dtype, shape


def read_stn1(path) -> np.ndarray:
    """The array an STN1 file holds, read straight into one fresh array."""
    with open(path, "rb") as f:
        dtype, shape = _read_header(f, path)
        arr = np.empty(shape, dtype=dtype)
        f.readinto(arr.reshape(-1).view(np.uint8))
    return arr


def save_checkpoint(ckpt_dir, model):
    """Write `model`'s parameters to `ckpt_dir` as `params.stn1` and
    `manifest.txt`, tensor by tensor, with no copy of the whole model."""
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    params = list(model.named_parameters())
    dtypes = sorted({t.dtype.name for _, t in params})
    if len(dtypes) > 1:
        raise ValueError(f"checkpoint parameters must share one dtype, got {', '.join(dtypes)}")
    header, dtype = _header(params[0][1].dtype if params else np.float32,
                            (sum(t.size for _, t in params),))
    with open(ckpt_dir / PAYLOAD_NAME, "wb") as f:
        f.write(header)
        for _, t in params:   # from each tensor's own buffer when it is little-endian
            f.write(np.ascontiguousarray(t.data, dtype=dtype).reshape(-1).data)
    lines = [f"{name}\t{'x'.join(map(str, t.shape)) if t.ndim else 'scalar'}" for name, t in params]
    (ckpt_dir / MANIFEST_NAME).write_text("".join(line + "\n" for line in lines))


def _read_manifest(ckpt_dir: Path) -> dict[str, tuple]:
    """Each parameter's shape by name, in payload order."""
    manifest = ckpt_dir / MANIFEST_NAME
    shapes = {}
    for i, line in enumerate(manifest.read_text().splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"{manifest}: line {i} has {len(fields)} tab-separated fields, "
                             f"not the two of 'name<TAB>shape'")
        name, shape = fields
        if name in shapes:
            raise ValueError(f"{manifest}: duplicate entry '{name}'")
        shapes[name] = () if shape == "scalar" else tuple(int(e) for e in shape.split("x"))
    return shapes


def load_checkpoint(ckpt_dir, model):
    """Read a checkpoint into `model`'s parameters in place. Each value is
    read from the payload straight into its parameter's buffer (through a
    one-tensor buffer when the dtypes differ), so no copy of the whole
    payload is made; nothing is written before every check has passed."""
    ckpt_dir = Path(ckpt_dir)
    # looked for before the manifest is read, so a directory in another
    # layout, such as one STN1 file per parameter, is named as such
    payload = ckpt_dir / PAYLOAD_NAME
    if not payload.is_file():
        raise FileNotFoundError(f"{ckpt_dir}: no {PAYLOAD_NAME}, the file that holds a "
                                f"checkpoint's parameter values (a checkpoint of one "
                                f"STN1 file per parameter must be saved again)")
    shapes = _read_manifest(ckpt_dir)
    params = dict(model.named_parameters())
    extra = [n for n in shapes if n not in params]
    if extra:
        raise KeyError(f"checkpoint has entries the model lacks: {', '.join(extra)}")
    for name, t in params.items():
        if name not in shapes:
            raise KeyError(f"checkpoint is missing parameter '{name}'")
        if shapes[name] != t.shape:
            raise ValueError(f"shape mismatch for '{name}': checkpoint {shapes[name]} "
                             f"vs model {t.shape}")
    with open(payload, "rb") as f:   # its header must show one flat array of the manifest's total
        dtype, stored = _read_header(f, payload)
        total = sum(math.prod(s) for s in shapes.values())
        if stored != (total,):
            raise ValueError(f"{payload}: holds {math.prod(stored)} values, "
                             f"the manifest lists {total}")
        for name, shape in shapes.items():
            # in place: an optimizer may hold t.data as a view of its flat run
            t = params[name]
            direct = t.data.dtype == dtype and t.data.flags.c_contiguous
            dst = t.data if direct else np.empty(shape, dtype=dtype)
            f.readinto(dst.reshape(-1).view(np.uint8))
            if not direct:
                np.copyto(t.data, dst, casting="unsafe")


def write_pgm(path, mask: np.ndarray):
    """Binary PGM (P5) of a 2D uint8 mask, scaled to full range."""
    if mask.ndim != 2:
        raise ValueError("PGM export expects a 2D mask")
    peak = int(mask.max()) or 1
    img = (mask.astype(np.float64) / peak * 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(img.tobytes())
