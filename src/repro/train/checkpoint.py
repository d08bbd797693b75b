"""Training checkpoints: save/restore model + optimizer state to ``.npz``.

Long papers100M-scale runs (the paper trains ~24 epochs for Table III)
need resumable state.  A checkpoint captures the model parameters, the
Adam moments and step counter, and the epoch cursor, all as flat arrays in
a single compressed ``.npz`` — no pickling, so checkpoints are portable
and inspectable.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.nn.module import Module
from repro.nn.optim import Adam, Optimizer, SGD

FORMAT_VERSION = 1


def save_checkpoint(path, model: Module, optimizer: Optimizer,
                    epoch: int = 0, extra: dict | None = None) -> None:
    """Write a checkpoint; parent directories must exist."""
    arrays: dict[str, np.ndarray] = {
        "_format_version": np.array(FORMAT_VERSION),
        "_epoch": np.array(int(epoch)),
        "_optimizer_kind": np.array(type(optimizer).__name__),
    }
    for i, p in enumerate(model.parameters()):
        arrays[f"param_{i}"] = p.data
    if isinstance(optimizer, Adam):
        arrays["_adam_t"] = np.array(optimizer.t)
        for i, (m, v) in enumerate(zip(optimizer._m, optimizer._v)):
            arrays[f"adam_m_{i}"] = m
            arrays[f"adam_v_{i}"] = v
    elif isinstance(optimizer, SGD):
        for i, vel in enumerate(optimizer._velocity):
            arrays[f"sgd_v_{i}"] = vel
    for key, value in (extra or {}).items():
        arrays[f"extra_{key}"] = np.asarray(value)
    np.savez_compressed(path, **arrays)


def load_checkpoint(path, model: Module, optimizer: Optimizer) -> dict:
    """Restore ``model`` and ``optimizer`` in place; returns metadata.

    Raises ``ValueError`` on an optimizer-kind, parameter-count or shape
    mismatch; every check runs before anything is written, so a rejected
    load leaves the model and the optimizer as they were.
    """
    path = pathlib.Path(path)
    with np.load(path, allow_pickle=False) as data:
        version = int(data["_format_version"])
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        kind = str(data["_optimizer_kind"])
        if kind != type(optimizer).__name__:
            raise ValueError(
                f"checkpoint was written for {kind}, "
                f"got {type(optimizer).__name__}"
            )
        params = model.parameters()
        count = sum(key.startswith("param_") for key in data.files)
        if count != len(params):
            raise ValueError(
                f"checkpoint has {count} parameters, model has {len(params)}"
            )
        saved = [data[f"param_{i}"] for i in range(count)]
        for i, (s, p) in enumerate(zip(saved, params)):
            if s.shape != p.data.shape:
                raise ValueError(
                    f"parameter {i} shape {s.shape} != {p.data.shape}"
                )
        for s, p in zip(saved, params):
            p.data[...] = s
        if isinstance(optimizer, Adam):
            optimizer.t = int(data["_adam_t"])
            for i in range(len(params)):
                optimizer._m[i][...] = data[f"adam_m_{i}"]
                optimizer._v[i][...] = data[f"adam_v_{i}"]
        elif isinstance(optimizer, SGD):
            for i in range(len(params)):
                optimizer._velocity[i][...] = data[f"sgd_v_{i}"]
        extra = {
            key[len("extra_"):]: data[key]
            for key in data.files
            if key.startswith("extra_")
        }
        return {"epoch": int(data["_epoch"]), "extra": extra}
