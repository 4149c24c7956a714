"""Pretrained proxy MLPs: one load-or-train path and its on-disk cache.

Pretraining a student or teacher proxy is deterministic in (model name,
data-geometry seed, pretraining seed) but costs seconds of SGD -- which
every worker process of the parallel experiment runner would otherwise pay
again.  :func:`pretrained_mlp` trains a role's proxy by its
:class:`PretrainRecipe`, memoized per process, and persists the trained
parameters as ``.npz`` files so a pretraining is computed once per machine
instead of once per process.

Cache keys include :data:`repro.learn.train.TRAINER_VERSION`, this
module's :data:`CACHE_VERSION`, and the active numeric policy's digest
namespace, so stale entries are ignored (never migrated) whenever the
pretraining numerics change.  Writes are atomic (temp file + rename),
making concurrent writers race-safe: every writer produces byte-identical
content, and readers only ever see complete files.

The cache location comes from :func:`repro.cache.cache_dir`
(``$REPRO_CACHE_DIR`` when set, an empty value disabling caching entirely,
else ``~/.cache/repro-dacapo``).  All failures are soft: a missing,
corrupt, or unwritable cache silently falls back to recomputation, which
yields the exact same weights.
"""

from __future__ import annotations

import zipfile
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from repro import profiling
from repro.cache import CACHE_ENV, cache_dir, write_atomic
from repro.data.distributions import DomainModel
from repro.learn.mlp import MLPClassifier
from repro.learn.train import TRAINER_VERSION, TrainConfig, train_sgd
from repro.models.zoo import get_proxy_config
from repro.numeric import active_policy

__all__ = [
    "CACHE_ENV",
    "CACHE_VERSION",
    "PretrainRecipe",
    "cache_dir",
    "load_pretrained",
    "pretrain_cache_key",
    "pretrained_mlp",
    "store_pretrained",
]

#: Layout/key version of the cache files themselves.  v2: the numeric
#: policy's digest namespace entered the entry name.
CACHE_VERSION = 2


def pretrain_cache_key(
    samples: int,
    epochs: int,
    lr: float,
    batch_size: int,
    hidden_sizes: tuple[int, ...],
) -> str:
    """Key component covering the pretraining recipe and proxy architecture.

    Both roles build their key through this one helper so the scheme cannot
    drift between student and teacher: every remaining input the trained
    weights depend on must be encoded here (or in the explicit key fields
    of :func:`load_pretrained`).
    """
    hidden = "x".join(str(h) for h in hidden_sizes)
    return f"{samples}e{epochs}lr{lr}b{batch_size}h{hidden}"


def _entry_path(
    role: str,
    model_name: str,
    geometry_seed: int,
    seed: int,
    pretrain_key: str,
) -> Path | None:
    base = cache_dir()
    if base is None:
        return None
    safe_key = "".join(
        c if c.isalnum() or c in "._-" else "_" for c in pretrain_key
    )
    name = (
        f"{role}-{model_name}-g{geometry_seed}-s{seed}"
        f"-v{CACHE_VERSION}-t{TRAINER_VERSION}"
        f"-{active_policy().digest_namespace}-p{safe_key}.npz"
    )
    return base / name


def load_pretrained(
    role: str,
    model_name: str,
    geometry_seed: int,
    seed: int,
    pretrain_key: str = "",
) -> MLPClassifier | None:
    """Fetch cached pretrained parameters, or None on any miss/failure.

    ``pretrain_key`` must encode every remaining input the trained weights
    depend on (pretraining hyperparameters, proxy architecture), so that
    changing any of them invalidates the entry rather than serving stale
    weights.
    """
    path = _entry_path(role, model_name, geometry_seed, seed, pretrain_key)
    if path is None:
        return None
    try:
        with np.load(path) as data:
            num_layers = int(data["num_layers"])
            weights = [
                np.ascontiguousarray(data[f"w{i}"], dtype=np.float64)
                for i in range(num_layers)
            ]
            biases = [
                np.ascontiguousarray(data[f"b{i}"], dtype=np.float64)
                for i in range(num_layers)
            ]
    except (OSError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    return MLPClassifier(weights=weights, biases=biases)


def store_pretrained(
    role: str,
    model_name: str,
    geometry_seed: int,
    seed: int,
    mlp: MLPClassifier,
    pretrain_key: str = "",
) -> None:
    """Persist pretrained parameters; failures are silently ignored."""
    path = _entry_path(role, model_name, geometry_seed, seed, pretrain_key)
    if path is None:
        return
    arrays: dict[str, np.ndarray] = {
        "num_layers": np.array(mlp.num_layers)
    }
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, lambda handle: np.savez(handle, **arrays))
    except OSError:
        return


@dataclass(frozen=True)
class PretrainRecipe:
    """How one role pretrains its proxies.

    Attributes:
        role: Cache-entry role (``"student"`` or ``"teacher"``).
        samples: The corpus size argument passed to ``corpus``.
        epochs, lr, batch_size: The SGD schedule.
        corpus: ``(domain model, samples, rng) -> (x, y)``, the training
            set drawn before the weights are initialized.
        rng_key: Entries after ``(seed, crc32(model name) & 0xFFFF)`` in
            the pretraining RNG's seed sequence.
    """

    role: str
    samples: int
    epochs: int
    lr: float
    batch_size: int
    corpus: Callable[
        [DomainModel, int, np.random.Generator], tuple[np.ndarray, np.ndarray]
    ]
    rng_key: tuple[int, ...] = ()


@lru_cache(maxsize=None)
def pretrained_mlp(
    recipe: PretrainRecipe, model_name: str, geometry_seed: int, seed: int
) -> MLPClassifier:
    """The shared pretrained proxy per (recipe, model, geometry, seed):
    from the disk cache, else trained by the recipe and stored there."""
    with profiling.scope(profiling.PRETRAIN):
        hidden_sizes = get_proxy_config(model_name).hidden_sizes
        cache_key = pretrain_cache_key(
            recipe.samples,
            recipe.epochs,
            recipe.lr,
            recipe.batch_size,
            hidden_sizes,
        )
        cached = load_pretrained(
            recipe.role, model_name, geometry_seed, seed, cache_key
        )
        if cached is not None:
            return cached
        domain_model = DomainModel(geometry_seed=geometry_seed)
        rng = np.random.default_rng(
            (seed, zlib.crc32(model_name.encode()) & 0xFFFF, *recipe.rng_key)
        )
        x, y = recipe.corpus(domain_model, recipe.samples, rng)
        mlp = MLPClassifier.create(
            domain_model.feature_dim,
            hidden_sizes,
            domain_model.num_classes,
            rng,
        )
        train_sgd(
            mlp, x, y,
            TrainConfig(
                learning_rate=recipe.lr,
                batch_size=recipe.batch_size,
                epochs=recipe.epochs,
            ),
            rng,
        )
        store_pretrained(
            recipe.role, model_name, geometry_seed, seed, mlp, cache_key
        )
        return mlp
