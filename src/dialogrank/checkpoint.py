"""Binary checkpoint format with bit-exact round trips.

Layout: magic bytes, a little-endian uint64 manifest length, a key-sorted
JSON manifest (model config, vocabulary, per-array name/shape/offset entries,
Adam step counts, optional extra config), then the concatenated little-endian
float64 payloads. Values and batch-norm running statistics round-trip exactly;
the Adam moments round-trip exactly when the load keeps them
(``adam_state=True``).

Both directions stream one array at a time. ``save_checkpoint`` computes the
entries from the array shapes, writes the manifest, then writes each array's
own buffer in turn. ``load_checkpoint`` checks the whole manifest before it
reads any payload (config and entry field types, unknown and duplicate keys,
shapes, offsets that tile the payload with no gap or overlap, step counts),
builds the model without drawing the random init it would overwrite, then
reads the entries in offset order straight into their arrays, checking each
for non-finite values, and finally checks that no bytes trail the last entry.
It only reads forward (no seek, tell or stat), so a pipe loads like a file.

The default load is for inference (``evaluate`` and ``unroll`` never train):
it reads each Adam moment entry, two thirds of the payload, chunk by chunk
through one scratch buffer of ``nn.BLOCK`` values, with every check a kept
entry gets (short reads, byte order, finiteness), and keeps none of it.
``adam_state=True`` keeps the moments, for training on or saving back.
"""

from __future__ import annotations

import json
import math
import struct
import sys

import numpy as np

from . import nn
from .encoders import ModelDims
from .model import DialogScorer
from .text import LoadError, Vocabulary

CHECKPOINT_MAGIC = b"SFCKPT1\n"
FORMAT_VERSION = 1
CHUNK = 1 << 16  # bytes per read of the manifest and of any trailing bytes


def arrays(model: DialogScorer):
    """(name, role, shape, array) of every stored array, in manifest order; the
    array is ``None`` for the moments of a parameter that holds no Adam state."""
    for name, p in model.parameters().items():
        yield name, "value", p.shape, p.value
        yield name, "adam_m", p.shape, p.m
        yield name, "adam_v", p.shape, p.v
    for name, buf in model.buffers().items():
        yield name, "buffer", buf.shape, buf


def save_checkpoint(model: DialogScorer, path, extra_config: dict | None = None) -> None:
    """Raises ``ValueError`` for a model loaded without its Adam state."""
    nn.require_adam_state(model.parameters().values())
    stored = list(arrays(model))
    entries = []
    offset = 0
    for name, role, shape, arr in stored:
        entries.append({"name": name, "role": role, "shape": list(shape), "offset": offset})
        offset += arr.size * 8
    manifest = {
        "format_version": FORMAT_VERSION,
        "model": model.config(),
        "vocab": model.vocab.words,
        "entries": entries,
        "step_counts": {name: p.step_count for name, p in model.parameters().items()},
        "extra": extra_config or {},
    }
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(mbytes)))
        f.write(mbytes)
        for *_, arr in stored:  # a copy only on a big-endian host
            f.write(np.ascontiguousarray(arr, dtype="<f8"))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field(mapping: dict, key: str, kind: type, where: str = "manifest"):
    value = mapping.get(key)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise LoadError(f"checkpoint {where} key {key!r} is missing or not a {kind.__name__}")
    return value


def _read_upto(f, n: int) -> bytes:
    """Up to ``n`` bytes, fewer at end of file. Read in chunks, so a corrupt
    length never allocates more than the file holds."""
    chunks = []
    while n > 0:
        chunk = f.read(min(n, CHUNK))
        if not chunk:
            break
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _read_manifest(f) -> dict:
    magic = f.read(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise LoadError(f"checkpoint magic mismatch: {magic!r}")
    header = f.read(8)
    if len(header) != 8:
        raise LoadError("checkpoint manifest length truncated")
    (mlen,) = struct.unpack("<Q", header)
    mbytes = _read_upto(f, mlen)
    if len(mbytes) != mlen:
        raise LoadError("checkpoint manifest truncated")
    try:
        manifest = json.loads(mbytes.decode("utf-8"))
    except ValueError as exc:
        raise LoadError(f"checkpoint manifest is not valid JSON: {exc}") from exc
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if not _is_int(version) or version != FORMAT_VERSION:
        raise LoadError(f"unsupported checkpoint version {version!r}")
    if not isinstance(manifest.get("extra", {}), dict):
        raise LoadError("checkpoint manifest key 'extra' is not a dict")
    return manifest


def _build_model(manifest: dict) -> DialogScorer:
    """The configured model with every value still at its zero default."""
    cfg = _field(manifest, "model", dict)
    for key, kind in (("task", str), ("variant", str), ("mlp_depth", int),
                      ("shared_embeddings", bool), ("init_seed", int)):
        _field(cfg, key, kind, "model config")
    if cfg["init_seed"] < 0:
        raise LoadError(f"checkpoint model config key 'init_seed' is negative: "
                        f"{cfg['init_seed']}")
    dims = _field(cfg, "dims", dict, "model config")
    words = _field(manifest, "vocab", list)
    if not all(isinstance(w, str) for w in words):
        raise LoadError("checkpoint vocab holds a word that is not a str")
    try:
        model = DialogScorer(
            ModelDims(**dims),
            Vocabulary(words),
            task=cfg["task"],
            variant=cfg["variant"],
            mlp_depth=cfg["mlp_depth"],
            shared_embeddings=cfg["shared_embeddings"],
            init_seed=None,  # the payload fills every value
        )
    except (TypeError, ValueError, MemoryError) as exc:
        raise LoadError(f"checkpoint model config is invalid: {exc}") from exc
    model.init_seed = cfg["init_seed"]
    return model


def _payload_plan(manifest: dict, model: DialogScorer) -> list:
    """(offset, name, role, size, target array or None) of every entry, in offset
    order, once the entries are known to match the model and to tile the payload."""
    targets = {(name, role): (shape, arr) for name, role, shape, arr in arrays(model)}
    plan = {}
    for i, entry in enumerate(_field(manifest, "entries", list)):
        if not isinstance(entry, dict):
            raise LoadError(f"checkpoint entry {i} is malformed: not an object")
        name, role, shape, start = (entry.get(k) for k in ("name", "role", "shape", "offset"))
        if not (isinstance(name, str) and isinstance(role, str) and isinstance(shape, list)
                and all(_is_int(n) for n in shape) and _is_int(start)):
            raise LoadError(f"checkpoint entry {i} is malformed: name and role must be "
                            "strings, shape a list of integers and offset an integer")
        key = (name, role)
        if key not in targets:
            raise LoadError(f"checkpoint entry {name} ({role}) "
                            "does not exist in the configured model")
        if key in plan:
            raise LoadError(f"checkpoint entry {name} ({role}) appears twice")
        expected, arr = targets[key]
        if tuple(shape) != expected:
            raise LoadError(
                f"parameter {name}: checkpoint shape {shape} does not "
                f"match model shape {list(expected)}")
        plan[key] = (start, name, role, math.prod(expected), arr)
    missing = sorted(set(targets) - set(plan))
    if missing:
        name, role = missing[0]
        raise LoadError(f"checkpoint is missing parameter {name} ({role})")
    spans = sorted(plan.values(), key=lambda span: span[:3])
    end = 0  # the entries must tile the payload: no overlap, no gap
    for start, name, role, size, _ in spans:
        if start != end:
            raise LoadError(f"checkpoint entry {name} ({role}) starts at payload byte "
                            f"{start}, but the entries before it end at byte {end}")
        end = start + size * 8
    return spans


def _set_step_counts(manifest: dict, model: DialogScorer) -> None:
    counts = _field(manifest, "step_counts", dict)
    for name, p in model.parameters().items():
        count = counts.get(name)
        if not _is_int(count) or count < 0:
            raise LoadError(f"checkpoint step count of parameter {name} is missing "
                            f"or not an integer >= 0: {count!r}")
        p.step_count = count


def _read_entry(f, arr: np.ndarray, name: str, role: str) -> None:
    view = memoryview(arr).cast("B")
    filled = 0
    while filled < len(view):  # a pipe may return fewer bytes than asked
        n = f.readinto(view[filled:])
        if not n:
            raise LoadError(f"parameter {name} ({role}): payload truncated")
        filled += n
    if sys.byteorder == "big":
        arr.byteswap(inplace=True)
    if not np.isfinite(arr).all():
        raise LoadError(f"parameter {name} ({role}): non-finite value in checkpoint")


def load_checkpoint(path, *, adam_state: bool = False) -> tuple[DialogScorer, dict]:
    """Rebuild the model from a checkpoint; returns (model, extra_config).

    By default the model is for inference: each Adam moment entry is read and
    checked through one scratch buffer, then dropped, so every parameter's ``m``
    and ``v`` are ``None`` (its ``step_count`` is kept). ``adam_state=True`` keeps
    the moments, so the model trains on, or saves back byte for byte. Every
    malformed manifest or payload raises ``LoadError`` either way."""
    with open(path, "rb") as f:
        manifest = _read_manifest(f)
        with nn.keep_adam_state(adam_state):
            model = _build_model(manifest)
        spans = _payload_plan(manifest, model)
        _set_step_counts(manifest, model)
        scratch = np.empty(nn.BLOCK)
        for _, name, role, size, arr in spans:
            if arr is None:  # a moment that is checked, chunk by chunk, and not kept
                for i in range(0, size, nn.BLOCK):
                    _read_entry(f, scratch[: size - i], name, role)
            else:
                _read_entry(f, arr, name, role)
        tail = 0
        while chunk := f.read(CHUNK):
            tail += len(chunk)
    if tail:
        _, name, role, _, _ = spans[-1]
        raise LoadError(f"checkpoint payload runs {tail} bytes past its "
                        f"last entry {name} ({role})")
    return model, manifest.get("extra", {})
