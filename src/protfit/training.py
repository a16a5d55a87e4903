"""Masked-residue pre-training.

Positions are selected independently at a fixed rate; each selected
position is shown as the mask token, swapped to a random type, or left
unchanged (80/10/10 by default). The network predicts the original
types with cross-entropy. In surface mode, each protein's cloud is
excised around the selected residues before every step so the surface
cannot leak residue identity.

Everything is driven by a single seeded generator in a fixed order, so
runs are bit-reproducible and training can resume exactly from the
sidecar state written next to each checkpoint.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from io import BytesIO
from pathlib import Path

import numpy as np

from . import OPTIMIZERS
from .errors import DataError, NumericsError
from .gvp import (SURFACE_MODES, Corruption, FitnessModel, ModelConfig,
                  save_checkpoint)
from .io import (N_RESIDUE_TYPES, STRUCTURE_FORMATS, Protein, load_embeddings,
                 load_structure, read_file, write_csv)
from .scoring import DEFAULT_EXCISE_M
from .surface import SurfaceConfig, excise_near_residue, featured_cloud

MASK, RANDOM, KEEP = 0, 1, 2


@dataclass(frozen=True)
class MaskingPolicy:
    """Selected positions are masked, randomized, or kept unchanged (the
    remaining 1 - mask_rate - random_rate)."""

    select_rate: float = 0.15
    mask_rate: float = 0.80
    random_rate: float = 0.10

    def __post_init__(self):
        if not (self.mask_rate >= 0 and self.random_rate >= 0
                and self.mask_rate + self.random_rate <= 1):
            raise DataError("mask and random rates must be >= 0 with a sum <= 1")
        if not 0 < self.select_rate <= 1:
            raise DataError("select_rate must be in (0, 1]")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = None        # default 8 in s3f mode, 128 otherwise
    learning_rate: float = 1e-4
    seed: int = 0
    grad_clip: float = 1.0
    optimizer: str = "adam"       # one of OPTIMIZERS
    checkpoint_every: int = 0     # epochs between checkpoints; 0 = final only

    def __post_init__(self):
        if self.epochs < 0 or not 0 < self.learning_rate < np.inf:
            raise DataError("epochs must be >= 0 and learning_rate finite and "
                            f"positive, got {self.epochs} and {self.learning_rate}")
        if self.batch_size is not None and self.batch_size < 1:
            raise DataError("batch_size must be positive")
        if self.optimizer not in OPTIMIZERS:
            raise DataError(f"unknown optimizer {self.optimizer!r}")
        # 0 turns clipping or periodic checkpoints off; negatives mean nothing
        for name in ("grad_clip", "checkpoint_every"):
            if not 0 <= getattr(self, name) < np.inf:
                raise DataError(
                    f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass
class MaskPlan:
    selected: np.ndarray    # sorted positions chosen for prediction
    actions: np.ndarray     # MASK / RANDOM / KEEP per selected position
    corrupted: np.ndarray   # sequence after RANDOM substitutions

    def corruption(self) -> Corruption:
        return Corruption(
            corrupted_sequence=self.corrupted,
            mask_positions=self.selected[self.actions == MASK],
            random_positions=self.selected[self.actions == RANDOM])


def apply_mask(sequence, rng, policy: MaskingPolicy = None) -> MaskPlan:
    """Draw the per-position selection and the 80/10/10 actions. Redraws
    until at least one position is selected."""
    if policy is None:
        policy = MaskingPolicy()
    sequence = np.asarray(sequence, dtype=np.int64)
    if len(sequence) == 0:
        raise DataError("cannot mask an empty sequence")
    while True:
        chosen = rng.random(len(sequence)) < policy.select_rate
        if chosen.any():
            break
    selected = np.flatnonzero(chosen)
    draw = rng.random(len(selected))
    actions = np.where(draw < policy.mask_rate, MASK,
                       np.where(draw < policy.mask_rate + policy.random_rate,
                                RANDOM, KEEP)).astype(np.int64)
    corrupted = sequence.copy()
    randomized = selected[actions == RANDOM]
    if len(randomized):
        corrupted[randomized] = rng.integers(0, N_RESIDUE_TYPES, len(randomized))
    return MaskPlan(selected=selected, actions=actions, corrupted=corrupted)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

class Adam:
    """First-order adaptive-moment optimizer with the published default
    decay rates (Kingma & Ba, arXiv:1412.6980); updates are a pure function
    of (params, grads, moment state)."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, grads: dict):
        self.t += 1
        c1 = 1.0 - self.BETA1 ** self.t
        c2 = 1.0 - self.BETA2 ** self.t
        for name in sorted(self.params):
            g = grads[name]
            self.m[name] = self.BETA1 * self.m[name] + (1 - self.BETA1) * g
            self.v[name] = self.BETA2 * self.v[name] + (1 - self.BETA2) * g * g
            update = (self.m[name] / c1) / (np.sqrt(self.v[name] / c2) + self.EPS)
            self.params[name].data = self.params[name].data - self.lr * update

    def state(self) -> dict:
        return {"t": self.t, "m": self.m, "v": self.v}

    def load_state(self, state: dict):
        for moments in (state["m"], state["v"]):
            if set(moments) != set(self.params):
                raise DataError("resume state lacks Adam moments for some parameters")
        self.t = int(state["t"])
        self.m = {k: np.asarray(v) for k, v in state["m"].items()}
        self.v = {k: np.asarray(v) for k, v in state["v"].items()}


class Sgd:
    def __init__(self, params: dict, lr: float):
        self.params = params
        self.lr = lr

    def step(self, grads: dict):
        for name in sorted(self.params):
            self.params[name].data = self.params[name].data - self.lr * grads[name]

    def state(self) -> dict:
        return {"t": 0, "m": {}, "v": {}}

    def load_state(self, state: dict):
        pass


def make_optimizer(model: FitnessModel, cfg: TrainConfig):
    if cfg.optimizer == "sgd":
        return Sgd(model.params, cfg.learning_rate)
    return Adam(model.params, cfg.learning_rate)


def clip_gradients(grads: dict, max_norm: float) -> dict:
    """Scale gradients so their global norm is at most max_norm (0 = off)."""
    if max_norm <= 0:
        return grads
    total = 0.0
    for name in sorted(grads):
        total += float((grads[name] ** 2).sum())
    norm = np.sqrt(total)
    if norm <= max_norm:
        return grads
    scale = max_norm / (norm + 1e-12)
    return {k: g * scale for k, g in grads.items()}


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

@dataclass
class CorpusItem:
    protein: Protein
    cloud: object = None        # base surface cloud with features
    embeddings: object = None   # file-mode rows (unmasked)


def load_corpus(corpus_dir, model_cfg: ModelConfig, surface_cfg: SurfaceConfig,
                mode: str, surface_seed: int = 0, clouds_dir=None) -> list:
    """Load the structure files of every suffix in ``STRUCTURE_FORMATS``
    (and paired embeddings / cloud dumps by filename stem). In surface
    modes each protein gets its featured base cloud once:
    ``clouds_dir/<stem>.surface.tsv`` when that dump exists, else one
    generated from ``surface_cfg`` and ``surface_seed``. In those modes a
    ``clouds_dir`` that is not a directory is a DataError."""
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise DataError(f"corpus directory not found: {corpus_dir}")
    if (mode in SURFACE_MODES and clouds_dir is not None
            and not Path(clouds_dir).is_dir()):
        raise DataError(f"clouds directory not found: {clouds_dir}")
    paths = sorted(path for path in corpus_dir.iterdir()
                   if path.suffix.lower() in STRUCTURE_FORMATS)
    if not paths:
        raise DataError(f"no structure files in {corpus_dir}")
    items = []
    for path in paths:
        protein = load_structure(path)
        item = CorpusItem(protein=protein)
        if mode in SURFACE_MODES:
            dump = None
            if clouds_dir is not None:
                dump = Path(clouds_dir) / f"{path.stem}.surface.tsv"
                if not dump.exists():
                    dump = None
            item.cloud = featured_cloud(protein, surface_cfg, surface_seed,
                                        dump=dump)
        if model_cfg.embedder == "file":
            epath = corpus_dir / f"{path.stem}.s3fe"
            if not epath.exists():
                raise DataError(
                    f"file-mode corpus requires embeddings: missing {epath}")
            emb = load_embeddings(epath)
            if emb.n_residues != protein.n_residues:
                raise DataError(f"{epath}: row count != protein length")
            if emb.context_tag != "":
                raise DataError(
                    f"{epath}: corpus embeddings must be unmasked (empty tag)")
            item.embeddings = emb
        items.append(item)
    return items


# ---------------------------------------------------------------------------
# steps and epochs
# ---------------------------------------------------------------------------

def pretrain_step(model: FitnessModel, batch: list, optimizer,
                  policy: MaskingPolicy, rng, mode: str,
                  grad_clip: float = 1.0):
    """One optimizer update over a batch of proteins. Returns the batch-mean
    loss and masked-position accuracy. Raises NumericsError when the loss or
    any updated parameter is non-finite."""
    if not batch:
        raise DataError("empty batch")
    model.zero_grad()
    scale = 1.0 / len(batch)
    total_loss = 0.0
    hits = 0
    count = 0
    for item in batch:
        protein = item.protein
        plan = apply_mask(protein.sequence, rng, policy)
        cloud = None
        if mode in SURFACE_MODES:
            cloud, _ = excise_near_residue(
                item.cloud, protein.ca_coords[plan.selected], DEFAULT_EXCISE_M)
        log_probs = model.forward_logits(
            protein, plan.selected, mode=mode, cloud=cloud,
            corruption=plan.corruption(), embeddings=item.embeddings)
        targets = protein.sequence[plan.selected]
        loss = model.loss(log_probs, targets)
        (loss * scale).backward()
        total_loss += float(loss.data) * scale
        hits += int((log_probs.data.argmax(axis=1) == targets).sum())
        count += len(targets)
        # free this item's tape before the next item's forward builds its own
        del log_probs, loss
    if not np.isfinite(total_loss):
        raise NumericsError(
            f"non-finite training loss {total_loss!r} "
            f"(batch of {len(batch)}, mode {mode})")
    grads = {name: (p.grad if p.grad is not None else np.zeros_like(p.data))
             for name, p in model.params.items()}
    grads = clip_gradients(grads, grad_clip)
    optimizer.step(grads)
    bad = sorted(name for name, p in model.params.items()
                 if not np.isfinite(p.data).all())
    if bad:
        raise NumericsError(
            f"non-finite parameters after the update: {bad[:3]} "
            f"({len(bad)} of {len(model.params)})")
    return total_loss, hits / max(count, 1)


def save_train_state(path, model: FitnessModel, optimizer, rng,
                     next_epoch: int):
    """Exact-resume sidecar: float64 params, optimizer moments, RNG state."""
    payload = {}
    for name, p in model.params.items():
        payload[f"p/{name}"] = p.data
    state = optimizer.state()
    for name, arr in state["m"].items():
        payload[f"m/{name}"] = arr
    for name, arr in state["v"].items():
        payload[f"v/{name}"] = arr
    meta = {
        "config": model.config.to_json(),
        "t": state["t"],
        "next_epoch": next_epoch,
        "rng": rng.bit_generator.state,
    }
    payload["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **payload)


def load_train_state(path):
    """Rebuild (model, optimizer state dict, rng, next_epoch) from a sidecar.

    Raises DataError unless the file reads whole and holds a float array of
    the right shape for every parameter, and moments only for parameters.
    """
    try:
        # read the bytes first: on a corrupt zip np.load leaks its open file
        with np.load(BytesIO(read_file(path))) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(bytes(arrays.pop("meta")).decode("utf-8"))
        model = FitnessModel(ModelConfig.from_json(meta["config"]))
        t, next_epoch = int(meta["t"]), int(meta["next_epoch"])
        rng = np.random.default_rng()
        rng.bit_generator.state = meta["rng"]
    except (OSError, EOFError, ValueError, TypeError, KeyError,
            NotImplementedError, RuntimeError, zipfile.BadZipFile) as exc:
        # zipfile raises NotImplementedError for an unknown compression
        # method and RuntimeError for an entry flagged as encrypted
        raise DataError(f"{path}: unreadable resume state ({exc!r})") from None
    groups = {"p": {}, "m": {}, "v": {}}
    for key, arr in arrays.items():
        kind, _, name = key.partition("/")
        if kind not in groups or name not in model.params:
            raise DataError(f"{path}: unexpected array {key!r}")
        if arr.dtype.kind != "f" or arr.shape != model.params[name].data.shape:
            raise DataError(f"{path}: bad dtype or shape for {key!r}")
        groups[kind][name] = arr
    missing = sorted(set(model.params) - set(groups["p"]))
    if missing:
        raise DataError(f"{path}: missing parameters {missing}")
    for name, arr in groups["p"].items():
        model.params[name].data = arr.astype(np.float64)
    opt_state = {"t": t, "m": groups["m"], "v": groups["v"]}
    return model, opt_state, rng, next_epoch


def pretrain(corpus_dir, model_cfg: ModelConfig, train_cfg: TrainConfig,
             surface_cfg: SurfaceConfig = None, out_dir=None, clouds_dir=None,
             resume=None, header_lines=()):
    """Epoch loop with seeded shuffled batching and periodic checkpoints.

    Trains in ``model_cfg.mode`` under the default MaskingPolicy. Returns
    (model, history) where history rows are
    (epoch, step, loss, masked_acc). When out_dir is given, writes
    checkpoint.s3fc, checkpoint.state.npz, loss_log.csv and the periodic
    checkpoint_epochNNNN files there.
    """
    if surface_cfg is None:
        surface_cfg = SurfaceConfig()
    policy = MaskingPolicy()
    mode = model_cfg.mode
    if resume is not None:
        model, opt_state, rng, start_epoch = load_train_state(resume)
        if start_epoch > train_cfg.epochs:
            raise DataError(f"{resume}: resume state is at epoch {start_epoch}, "
                            f"past epochs={train_cfg.epochs}")
        if model.config != model_cfg:
            raise DataError("resume state config does not match requested config")
        optimizer = make_optimizer(model, train_cfg)
        optimizer.load_state(opt_state)
    else:
        model = FitnessModel(model_cfg)
        optimizer = make_optimizer(model, train_cfg)
        rng = np.random.default_rng(train_cfg.seed)
        start_epoch = 0
    out_dir = None if out_dir is None else Path(out_dir)
    if out_dir is not None:
        # checked, not made, here: a run rejected below leaves no directory
        existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
        if not existing.is_dir():
            raise DataError(f"cannot make output directory {out_dir}: "
                            f"{existing} is not a directory")
    # after the resume and output checks, so a rejected sidecar or an
    # unusable out_dir costs no surface work
    items = load_corpus(corpus_dir, model_cfg, surface_cfg, mode,
                        surface_seed=train_cfg.seed, clouds_dir=clouds_dir)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    history = []
    batch_size = train_cfg.batch_size or (8 if mode == "s3f" else 128)

    def checkpoint(tag: str):
        if out_dir is None:
            return
        save_checkpoint(model, out_dir / f"{tag}.s3fc")

    for epoch in range(start_epoch, train_cfg.epochs):
        order = rng.permutation(len(items))
        for step, start in enumerate(range(0, len(items), batch_size)):
            batch = [items[i] for i in order[start:start + batch_size]]
            loss, acc = pretrain_step(model, batch, optimizer, policy, rng,
                                      mode, grad_clip=train_cfg.grad_clip)
            history.append((epoch, step, loss, acc))
        if (train_cfg.checkpoint_every and out_dir is not None
                and (epoch + 1) % train_cfg.checkpoint_every == 0):
            checkpoint(f"checkpoint_epoch{epoch + 1:04d}")
            save_train_state(out_dir / f"checkpoint_epoch{epoch + 1:04d}.state.npz",
                             model, optimizer, rng, epoch + 1)
    checkpoint("checkpoint")
    if out_dir is not None:
        save_train_state(out_dir / "checkpoint.state.npz", model, optimizer,
                         rng, train_cfg.epochs)
        write_csv(out_dir / "loss_log.csv", ["epoch", "step", "loss", "masked_acc"],
                  history, header_lines)
    return model, history
