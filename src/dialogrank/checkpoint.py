"""Binary checkpoint format with bit-exact round trips.

Layout: magic bytes, a little-endian uint64 manifest length, a key-sorted
JSON manifest (model config, vocabulary, per-array name/shape/offset entries,
Adam step counts, optional extra config), then the concatenated little-endian
float64 payloads. Values and batch-norm running statistics round-trip exactly;
the Adam moments round-trip exactly when the load keeps them
(``adam_state=True``).

Both directions stream one array at a time, in the order of ``arrays(model)``.
``_entries`` is the one place that lays the payload out: each entry's
name/role/shape and its offset, the arrays packed in that order.
``save_checkpoint`` writes those entries, then each array's own buffer in turn.
``load_checkpoint`` checks the whole manifest before it reads any payload. It
checks the config's field types, builds the model without drawing the random
init it would overwrite, then accepts only the writer's layout, in the writer's
order: the manifest's entries must be ``_entries(model)``, entry for entry, as
canonical JSON. Then it checks the step counts, reads the arrays in order
straight into place, checking each for non-finite values, and finally checks
that no bytes trail the last entry. It only reads forward (no seek, tell or
stat), so a pipe loads like a file.

The default load is for inference (``evaluate`` and ``unroll`` never train):
it reads each Adam moment entry, two thirds of the payload, chunk by chunk
through one scratch buffer of ``nn.BLOCK`` values, with every check a kept
entry gets (short reads, byte order, finiteness), and keeps none of it. It
returns the model frozen (``DialogScorer.freeze``): every value and running
statistic is read-only, and each text path remembers its eval encodings.
``adam_state=True`` keeps the moments, for training on or saving back, and
returns a writable model with no memo.
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


def _entries(model: DialogScorer) -> list[dict]:
    """The manifest entry of each array of ``arrays(model)``: its name, role, shape
    and payload offset, the arrays packed in that order."""
    entries = []
    offset = 0
    for name, role, shape, _ in arrays(model):
        entries.append({"name": name, "role": role, "shape": list(shape), "offset": offset})
        offset += math.prod(shape) * 8
    return entries


def save_checkpoint(model: DialogScorer, path, extra_config: dict | None = None) -> None:
    """Raises ``ValueError`` for a model loaded without its Adam state."""
    nn.require_adam_state(model.parameters().values())
    manifest = {
        "format_version": FORMAT_VERSION,
        "model": model.config(),
        "vocab": model.vocab.words,
        "entries": _entries(model),
        "step_counts": {name: p.step_count for name, p in model.parameters().items()},
        "extra": extra_config or {},
    }
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(mbytes)))
        f.write(mbytes)
        for *_, arr in arrays(model):  # a copy only on a big-endian host
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
    except RecursionError as exc:  # nested deeper than the interpreter's recursion limit
        raise LoadError("checkpoint manifest is JSON nested too deeply to read") from exc
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


def _check_entries(manifest: dict, model: DialogScorer) -> None:
    """The manifest must list exactly ``_entries(model)``, in order, each entry the
    same canonical JSON: ``16.0`` is not ``16`` and ``true`` is not ``1``."""
    got = _field(manifest, "entries", list)
    want = _entries(model)
    for i, entry in enumerate(want):
        have = json.dumps(got[i], sort_keys=True) if i < len(got) else "no entry"
        if have != json.dumps(entry, sort_keys=True):
            raise LoadError(f"checkpoint entry {i} should be {entry['name']} ({entry['role']}) "
                            f"of shape {entry['shape']} at payload byte {entry['offset']}, "
                            f"got {have}")
    if len(got) > len(want):
        raise LoadError(f"checkpoint lists {len(got)} entries, but the model stores "
                        f"{len(want)}: entry {len(want)} is extra, got "
                        f"{json.dumps(got[len(want)], sort_keys=True)}")


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
    and ``v`` are ``None`` (its ``step_count`` is kept), and the model is frozen
    (``DialogScorer.freeze``). ``adam_state=True`` keeps the moments and the model
    writable, so it trains on, or saves back byte for byte. Every malformed
    manifest or payload raises ``LoadError`` either way."""
    with open(path, "rb") as f:
        manifest = _read_manifest(f)
        with nn.keep_adam_state(adam_state):
            model = _build_model(manifest)
        _check_entries(manifest, model)
        _set_step_counts(manifest, model)
        scratch = np.empty(nn.BLOCK)
        for name, role, shape, arr in arrays(model):
            if arr is None:  # a moment that is checked, chunk by chunk, and not kept
                size = math.prod(shape)
                for i in range(0, size, nn.BLOCK):
                    _read_entry(f, scratch[: size - i], name, role)
            else:
                _read_entry(f, arr, name, role)
        tail = 0
        while chunk := f.read(CHUNK):
            tail += len(chunk)
    if tail:  # name and role are those of the last entry read
        raise LoadError(f"checkpoint payload runs {tail} bytes past its "
                        f"last entry {name} ({role})")
    if not adam_state:
        model.freeze()
    return model, manifest.get("extra", {})
