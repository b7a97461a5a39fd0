"""Binary checkpoint format with bit-exact round trips.

Layout: magic bytes, a little-endian uint64 manifest length, a key-sorted
JSON manifest (model config, vocabulary, per-array name/shape/offset entries,
Adam step counts, optional extra config), then the concatenated little-endian
float64 payloads. Values, Adam moments and batch-norm running statistics all
round-trip exactly.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .encoders import ModelDims
from .model import DialogScorer
from .text import LoadError, Vocabulary

CHECKPOINT_MAGIC = b"SFCKPT1\n"
FORMAT_VERSION = 1


def _array_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_checkpoint(model: DialogScorer, path, extra_config: dict | None = None) -> None:
    entries = []
    payload = []
    offset = 0

    def add(name: str, role: str, arr: np.ndarray):
        nonlocal offset
        data = _array_bytes(arr)
        entries.append({
            "name": name,
            "role": role,
            "shape": list(arr.shape),
            "offset": offset,
        })
        payload.append(data)
        offset += len(data)

    params = model.parameters()
    for name, p in params.items():
        add(name, "value", p.value)
        add(name, "adam_m", p.m)
        add(name, "adam_v", p.v)
    for name, buf in model.buffers().items():
        add(name, "buffer", buf)

    manifest = {
        "format_version": FORMAT_VERSION,
        "model": model.config(),
        "vocab": model.vocab.words,
        "entries": entries,
        "step_counts": {name: p.step_count for name, p in params.items()},
        "extra": extra_config or {},
    }
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(mbytes)))
        f.write(mbytes)
        for chunk in payload:
            f.write(chunk)


def _field(mapping: dict, key: str, kind: type, where: str = "manifest"):
    value = mapping.get(key)
    if not isinstance(value, kind):
        raise LoadError(f"checkpoint {where} key {key!r} is missing or not a {kind.__name__}")
    return value


def load_checkpoint(path) -> tuple[DialogScorer, dict]:
    """Rebuild the model from a checkpoint; returns (model, extra_config).

    Every malformed manifest or payload raises ``LoadError``."""
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise LoadError(f"checkpoint magic mismatch: {magic!r}")
        header = f.read(8)
        if len(header) != 8:
            raise LoadError("checkpoint manifest length truncated")
        (mlen,) = struct.unpack("<Q", header)
        mbytes = f.read(mlen)
        if len(mbytes) != mlen:
            raise LoadError("checkpoint manifest truncated")
        try:
            manifest = json.loads(mbytes.decode("utf-8"))
        except ValueError as exc:
            raise LoadError(f"checkpoint manifest is not valid JSON: {exc}") from exc
        version = manifest.get("format_version") if isinstance(manifest, dict) else None
        if version != FORMAT_VERSION:
            raise LoadError(f"unsupported checkpoint version {version!r}")
        payload = f.read()

    cfg = _field(manifest, "model", dict)
    try:
        model = DialogScorer(
            ModelDims(**_field(cfg, "dims", dict, "model config")),
            Vocabulary(_field(manifest, "vocab", list)),
            task=cfg["task"],
            variant=cfg["variant"],
            mlp_depth=cfg["mlp_depth"],
            shared_embeddings=cfg["shared_embeddings"],
            init_seed=cfg["init_seed"],
        )
    except KeyError as exc:
        raise LoadError(f"checkpoint model config is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise LoadError(f"checkpoint model config is invalid: {exc}") from exc
    params = model.parameters()
    buffers = model.buffers()
    targets = {}
    for name, p in params.items():
        targets[(name, "value")] = p.value
        targets[(name, "adam_m")] = p.m
        targets[(name, "adam_v")] = p.v
    for name, buf in buffers.items():
        targets[(name, "buffer")] = buf

    seen, spans = set(), []  # entry keys; (offset, bytes, name, role) of each
    for i, entry in enumerate(_field(manifest, "entries", list)):
        try:
            key = (str(entry["name"]), str(entry["role"]))
            shape = tuple(int(n) for n in entry["shape"])
            start = int(entry["offset"])
        except (KeyError, TypeError, ValueError) as exc:
            raise LoadError(f"checkpoint entry {i} is malformed: {exc!r}") from exc
        name, role = key
        if key not in targets:
            raise LoadError(f"checkpoint entry {name} ({role}) "
                            "does not exist in the configured model")
        if key in seen:
            raise LoadError(f"checkpoint entry {name} ({role}) appears twice")
        arr = targets[key]
        if shape != arr.shape:
            raise LoadError(
                f"parameter {name}: checkpoint shape {list(shape)} does not "
                f"match model shape {list(arr.shape)}")
        nbytes = arr.size * 8
        chunk = memoryview(payload)[start : start + nbytes]  # no copy
        if len(chunk) != nbytes:
            raise LoadError(f"parameter {name}: payload truncated")
        values = np.frombuffer(chunk, dtype="<f8")
        if not np.isfinite(values).all():
            raise LoadError(f"parameter {name} ({role}): non-finite value in checkpoint")
        arr[...] = values.reshape(shape)
        seen.add(key)
        spans.append((start, nbytes, name, role))
    missing = sorted(set(targets) - seen)
    if missing:
        name, role = missing[0]
        raise LoadError(f"checkpoint is missing parameter {name} ({role})")
    end = 0  # the entries must tile the payload: no overlap, no gap, no tail
    for start, nbytes, name, role in sorted(spans):
        if start != end:
            raise LoadError(f"checkpoint entry {name} ({role}) starts at payload byte "
                            f"{start}, but the entries before it end at byte {end}")
        end = start + nbytes
    if end != len(payload):
        raise LoadError(f"checkpoint payload runs {len(payload) - end} bytes past its "
                        f"last entry {name} ({role})")
    step_counts = _field(manifest, "step_counts", dict)
    for name, p in params.items():
        try:
            p.step_count = int(step_counts[name])
        except (KeyError, TypeError, ValueError) as exc:
            raise LoadError(f"checkpoint step count of parameter {name} is missing "
                            "or invalid") from exc
    return model, manifest.get("extra", {})
