"""Adam-based trainer for :class:`~repro.tinylm.model.ScoringLM`.

Implements the conditional maximum-likelihood objective of paper Eq. 3
(patch extraction and few-shot fine-tuning alike) with mini-batching,
gradient clipping, and selective parameter groups:

* ``train_base=True`` updates the frozen-by-default backbone — used for
  upstream multi-task supervised fine-tuning (building "Jellyfish").
* Attaching an adapter and ``train_base=False`` updates only the LoRA
  patch / fusion parameters — used by SKC stages 1 and 3.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .linalg import exact_weights, rng_for
from .model import (
    EncodedExample,
    FrozenActivations,
    RaggedBatch,
    ScoringLM,
    StagedExamples,
)

__all__ = ["TrainConfig", "TrainingExample", "Trainer", "StreamState"]


@dataclass(frozen=True)
class TrainingExample:
    """One text-level supervised instance before featurization."""

    prompt: str
    candidates: Tuple[str, ...]
    target: int
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.target < len(self.candidates):
            raise ValueError(
                f"target {self.target} out of range for "
                f"{len(self.candidates)} candidates"
            )


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation hyperparameters (paper Section VII-A analogues)."""

    learning_rate: float = 6e-3
    batch_size: int = 4
    epochs: int = 3
    grad_clip: float = 5.0
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    shuffle: bool = True


@dataclass
class _AdamSlot:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    # Weight-decayed gradient, kept whole because the clip norm spans
    # the entire array; allocated on first use when weight_decay > 0.
    decayed: Optional[np.ndarray] = None


#: Elements per Adam block: the block's param, grad, m, v and two
#: scratch slices (6 x 128 KiB of float64) stay cache-resident while
#: the update's ufuncs stream over them.
ADAM_BLOCK = 16384


@functools.lru_cache(maxsize=256)
def _row_blocks(shape: Tuple[int, ...]) -> Tuple[slice, ...]:
    """Axis-0 slices of about :data:`ADAM_BLOCK` elements each.

    Slicing along axis 0 (never ``reshape(-1)``, which silently copies a
    non-contiguous array) keeps every block a view, so in-place updates
    land in the caller's array whatever its strides.
    """
    row = math.prod(shape[1:])
    step = max(1, ADAM_BLOCK // max(row, 1))
    return tuple(slice(start, start + step) for start in range(0, shape[0], step))


@dataclass
class StreamState:
    """Warm-start state threaded across :meth:`Trainer.fit_incremental`.

    Owns the growing :class:`FrozenActivations` sidecar plus stream
    position counters.  The Adam moments live on the trainer itself
    (``_slots``), so handing a ``StreamState`` to a *different* trainer
    resumes the activation cache but restarts the optimiser — keep one
    trainer per stream for exact warm resumption.
    """

    frozen: Optional[FrozenActivations] = None
    examples_seen: int = 0
    batches: int = 0


@dataclass
class TrainReport:
    """Loss trajectory returned by :meth:`Trainer.fit`."""

    epoch_losses: List[float] = field(default_factory=list)
    step_losses: List[float] = field(default_factory=list)
    rank_space: bool = False

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


class Trainer:
    """Stateful optimiser bound to one model (and its current adapter).

    ``rank_space`` selects the frozen-backbone fast path: frozen
    projections are computed once per :meth:`fit` dataset
    (:class:`~repro.tinylm.model.FrozenActivations`) and every step runs
    through :meth:`ScoringLM.rank_loss_and_gradients`, never building a
    dense effective weight.  ``None`` (the default) auto-enables it
    whenever the backbone is frozen and the attached adapter speaks the
    rank-space protocol; ``False`` forces the legacy dense path, and
    ``REPRO_EXACT_WEIGHTS=1`` overrides everything back to dense (the
    bit-for-bit parity oracle).
    """

    def __init__(
        self,
        model: ScoringLM,
        config: Optional[TrainConfig] = None,
        train_base: bool = True,
        rank_space: Optional[bool] = None,
    ):
        if rank_space and train_base:
            raise ValueError(
                "rank_space=True requires train_base=False "
                "(the fast path assumes a frozen backbone)"
            )
        self.model = model
        self.config = config or TrainConfig()
        self.train_base = train_base
        self.rank_space = rank_space
        self._slots: Dict[str, _AdamSlot] = {}
        # Block-sized Adam scratch shared by every slot (see _scratch_pair).
        self._scratch: Optional[np.ndarray] = None
        self._scratch_views: Dict[Tuple, Tuple[np.ndarray, np.ndarray]] = {}
        # The adapter whose moments the "adapter/" slots belong to.
        # Parameter keys carry only the adapter's *name*, so two patches
        # named alike would otherwise silently share stale Adam state
        # after a swap; step() resets the slots on identity change.
        self._slots_adapter = model.adapter
        # Streaming sidecar grown by fit_incremental (None until the
        # first micro-batch arrives).
        self.stream_state: Optional[StreamState] = None

    def _use_rank_space(self) -> bool:
        if exact_weights():
            return False
        if self.rank_space is not None:
            return self.rank_space
        return (
            not self.train_base
            and self.model.adapter is not None
            and hasattr(self.model.adapter, "rank_components")
        )

    # ------------------------------------------------------------------
    def _stage(self, examples: Sequence[TrainingExample]) -> StagedExamples:
        """Featurize the whole dataset with the batched encoders.

        All prompts go through one :meth:`ScoringLM.encode_prompts` call
        and the distinct candidate strings through one
        ``encode_candidates`` call; :meth:`fit` then reuses the staged
        matrices across every epoch, so a fine-tune hashes each training
        string at most once and stores each candidate row once.
        """
        row_of: Dict[str, int] = {}
        cand_rows = [
            row_of.setdefault(c, len(row_of))
            for ex in examples
            for c in ex.candidates
        ]
        return StagedExamples(
            X=self.model.encode_prompts([ex.prompt for ex in examples]),
            Y=self.model.encode_candidates(list(row_of)),
            pool_sizes=np.asarray(
                [len(ex.candidates) for ex in examples], dtype=np.intp
            ),
            targets=np.asarray([ex.target for ex in examples], dtype=np.intp),
            weights=np.asarray([ex.weight for ex in examples]),
            cand_rows=np.asarray(cand_rows, dtype=np.intp),
        )

    def _encode(self, examples: Sequence[TrainingExample]) -> List[EncodedExample]:
        """The dataset featurized by :meth:`_stage`, one example each."""
        return self._stage(examples).examples()

    def _scratch_pair(
        self, shape: Tuple[int, ...], dtype: np.dtype
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Two reusable scratch arrays of ``shape`` (views of one buffer)."""
        views = self._scratch_views.get((shape, dtype))
        if views is not None:
            return views
        size = math.prod(shape)
        buf = self._scratch
        if buf is None or buf.dtype != dtype or buf.shape[1] < size:
            buf = np.empty((2, max(size, ADAM_BLOCK)), dtype=dtype)
            self._scratch = buf
            self._scratch_views = {}
        views = (buf[0, :size].reshape(shape), buf[1, :size].reshape(shape))
        self._scratch_views[(shape, dtype)] = views
        return views

    def _adam_update(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        """One Adam step on ``param`` in place, block by block along axis 0.

        Every element goes through exactly the ufuncs, operands and
        order of the textbook whole-array expressions, so the result is
        bit-identical to them (IEEE ``+ - * / sqrt`` round each result
        once): ``g = g + wd*param``; ``g = g * (clip/‖g‖)``;
        ``m = b1*m + (1-b1)*g``; ``v = b2*v + ((1-b2)*g)*g``;
        ``param -= (lr*(m/c1)) / (sqrt(v/c2) + eps)``.  Only ``m``/``v``,
        the parameter and two block-sized scratch arrays are written —
        no full-size temporaries (the weight-decayed gradient, which the
        whole-array clip norm needs, lives in a buffer kept on the slot).
        """
        cfg = self.config
        slot = self._slots.get(key)
        if slot is None or slot.m.shape != param.shape:
            slot = _AdamSlot(m=np.zeros_like(param), v=np.zeros_like(param))
            self._slots[key] = slot
        m, v = slot.m, slot.v
        if param.ndim == 0:
            # 0-d arrays cannot be sliced; a new-axis view still aliases.
            param, grad, m, v = (a[np.newaxis] for a in (param, grad, m, v))
        blocks = _row_blocks(param.shape)
        if cfg.weight_decay:
            if slot.decayed is None or slot.decayed.shape != param.shape:
                slot.decayed = np.empty_like(param)
            decayed = slot.decayed
            for rows in blocks:
                out = decayed[rows]
                np.multiply(cfg.weight_decay, param[rows], out=out)
                np.add(grad[rows], out, out=out)
            grad = decayed
        norm = np.linalg.norm(grad)
        scale = None
        if cfg.grad_clip and norm > cfg.grad_clip:
            scale = cfg.grad_clip / norm
        slot.step += 1
        b1, b2, lr, eps = cfg.beta1, cfg.beta2, cfg.learning_rate, cfg.eps
        c1 = 1 - b1**slot.step
        c2 = 1 - b2**slot.step
        if len(blocks) == 1:
            parts = ((param, grad, m, v),)
        else:
            parts = ((param[r], grad[r], m[r], v[r]) for r in blocks)
        for p, g, mb, vb in parts:
            s1, s2 = self._scratch_pair(p.shape, p.dtype)
            if scale is not None:
                g = np.multiply(g, scale, out=s2)
            np.multiply(b1, mb, out=mb)
            np.multiply(1 - b1, g, out=s1)
            np.add(mb, s1, out=mb)
            np.multiply(b2, vb, out=vb)
            np.multiply(1 - b2, g, out=s1)
            np.multiply(s1, g, out=s1)
            np.add(vb, s1, out=vb)
            np.divide(mb, c1, out=s1)
            np.multiply(lr, s1, out=s1)
            np.divide(vb, c2, out=s2)
            np.sqrt(s2, out=s2)
            np.add(s2, eps, out=s2)
            np.divide(s1, s2, out=s1)
            np.subtract(p, s1, out=p)

    def _apply_adapter_grads(
        self, adapter_grads: Dict[str, np.ndarray]
    ) -> None:
        """Route adapter gradients through Adam (shared by both paths)."""
        if not adapter_grads or self.model.adapter is None:
            return
        if self.model.adapter is not self._slots_adapter:
            for key in [k for k in self._slots if k.startswith("adapter/")]:
                del self._slots[key]
            self._slots_adapter = self.model.adapter
        params = self.model.adapter.parameters()
        for key, grad in adapter_grads.items():
            if key in params:
                self._adam_update("adapter/" + key, params[key], grad)

    def step(self, batch: Sequence[EncodedExample]) -> float:
        """One optimisation step over an encoded mini-batch."""
        return self._apply_gradients(
            *self.model.loss_and_gradients(batch, train_base=self.train_base)
        )

    def _dense_step(self, rb: RaggedBatch) -> float:
        """One optimisation step over a staged mini-batch."""
        return self._apply_gradients(
            *self.model.ragged_loss_and_gradients(rb, train_base=self.train_base)
        )

    def _apply_gradients(
        self,
        loss: float,
        base_grads: Dict[str, np.ndarray],
        adapter_grads: Dict[str, np.ndarray],
    ) -> float:
        for name, grad in base_grads.items():
            self._adam_update("base/" + name, self.model.weights[name], grad)
        self._apply_adapter_grads(adapter_grads)
        self.model.bump_adapter_version()
        return loss

    def _rank_step(
        self, frozen: FrozenActivations, indices: np.ndarray
    ) -> float:
        """One optimisation step through the rank-space engine."""
        loss, __, adapter_grads = self.model.rank_loss_and_gradients(
            frozen.batch(indices)
        )
        self._apply_adapter_grads(adapter_grads)
        self.model.bump_adapter_version()
        return loss

    def fit(self, examples: Sequence[TrainingExample]) -> TrainReport:
        """Run the configured number of epochs over ``examples``."""
        if not examples:
            raise ValueError("cannot fit on an empty example list")
        if self.train_base:
            frozen_keys = [
                name
                for name, value in self.model.weights.items()
                if not value.flags.writeable
            ]
            if frozen_keys:
                raise RuntimeError(
                    "train_base=True cannot update a shared-memory "
                    f"backbone: weights {frozen_keys} are read-only views "
                    "over an shm arena (adopt_weights).  Train an adapter "
                    "with train_base=False, or clone() the model to get "
                    "private writable weights."
                )
        use_rank = self._use_rank_space()
        with obs.span(
            "trainer.fit",
            examples=len(examples),
            epochs=self.config.epochs,
            rank_space=use_rank,
        ):
            staged = self._stage(examples)
            rng = rng_for(self.config.seed, "trainer")
            frozen = (
                self.model.frozen_activations(staged.examples())
                if use_rank
                else None
            )
            report = TrainReport(rank_space=use_rank)
            order = np.arange(staged.n)
            for __epoch in range(self.config.epochs):
                if self.config.shuffle:
                    rng.shuffle(order)
                epoch_loss = 0.0
                batches = 0
                for start in range(0, len(order), self.config.batch_size):
                    idx = order[start : start + self.config.batch_size]
                    if frozen is not None:
                        loss = self._rank_step(frozen, idx)
                    else:
                        loss = self._dense_step(staged.ragged(idx))
                    report.step_losses.append(loss)
                    obs.histogram("trainer.step_loss", loss)
                    epoch_loss += loss
                    batches += 1
                report.epoch_losses.append(epoch_loss / max(batches, 1))
            obs.counter("trainer.fits", rank_space=use_rank)
            obs.counter("trainer.steps", len(report.step_losses))
        return report

    def fit_incremental(
        self,
        new_examples: Sequence[TrainingExample],
        warm_state: Optional[StreamState] = None,
    ) -> TrainReport:
        """Extend a streaming fit with one micro-batch of fresh examples.

        Only ``new_examples`` are featurized and projected — the frozen
        sidecar grows in place via :meth:`FrozenActivations.append` — and
        the λ/patch Adam moments accumulated by every prior call resume
        untouched, so per-call cost is ``O(batch)`` rather than
        ``O(stream-so-far)``.  The configured epochs run over the new
        rows only, with a shuffle stream derived from
        ``(seed, "trainer-stream", batch_index)`` so replaying the same
        micro-batch sequence from the same initial adapter state is
        bit-identical, and a refit-from-scratch that presents the
        concatenated stream batch by batch through this same entry point
        reproduces the step losses exactly (documented tolerance:
        ``rtol 1e-9``; the only divergence source is BLAS blocking over
        different GEMM shapes).

        ``warm_state`` adopts the activation sidecar of a previous
        trainer; by default the trainer's own :attr:`stream_state` is
        used (created on first call).
        """
        if not new_examples:
            raise ValueError("cannot fit_incremental on an empty batch")
        if not self._use_rank_space():
            raise RuntimeError(
                "fit_incremental requires the rank-space path: a frozen "
                "backbone (train_base=False) with a rank-protocol adapter "
                "attached, and REPRO_EXACT_WEIGHTS unset"
            )
        state = warm_state if warm_state is not None else self.stream_state
        if state is None:
            state = StreamState()
        self.stream_state = state
        with obs.span(
            "trainer.fit_incremental",
            new_examples=len(new_examples),
            batch_index=state.batches,
            stream_rows=state.examples_seen,
        ):
            encoded = self._encode(new_examples)
            if state.frozen is None:
                state.frozen = self.model.frozen_activations(encoded)
            else:
                state.frozen.append(encoded)
            start = state.examples_seen
            state.examples_seen += len(encoded)
            order = np.arange(start, state.examples_seen)
            rng = rng_for(
                self.config.seed, "trainer-stream", str(state.batches)
            )
            report = TrainReport(rank_space=True)
            for __epoch in range(self.config.epochs):
                if self.config.shuffle:
                    rng.shuffle(order)
                epoch_loss = 0.0
                batches = 0
                for s in range(0, order.size, self.config.batch_size):
                    idx = order[s : s + self.config.batch_size]
                    loss = self._rank_step(state.frozen, idx)
                    report.step_losses.append(loss)
                    obs.histogram("trainer.step_loss", loss)
                    epoch_loss += loss
                    batches += 1
                report.epoch_losses.append(epoch_loss / max(batches, 1))
            state.batches += 1
            obs.counter("trainer.incremental_fits")
            obs.counter("trainer.steps", len(report.step_losses))
        return report

    def evaluate_loss(self, examples: Sequence[TrainingExample]) -> float:
        """Mean CE loss without updating parameters (loss-only forward)."""
        encoded = self._encode(examples)
        return self.model.evaluate_loss(encoded)
