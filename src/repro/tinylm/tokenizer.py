"""Text normalisation and the hashed n-gram featurizer.

The featurizer stands in for an LLM tokenizer + embedding table: it maps a
prompt string to a fixed-dimension dense feature vector by hashing word
unigrams, word bigrams and character trigrams into signed buckets
(feature hashing, a.k.a. the hashing trick).  Hashing is based on
blake2b so it is stable across processes and Python versions —
``hash()`` randomisation would make models irreproducible.

Internally everything is built on a *sparse* intermediate: hashing a
string yields an ``(indices, values)`` pair — sorted unique bucket
indices with their accumulated signed, L2-normalised weights.  Dense
vectors and batch matrices are scatter-assembled from sparse rows, and
the sparse rows themselves live in an LRU-bounded text cache.  Because
featurization is a pure function of ``(salt, dim, flags, text)``, the
caches are content-addressed and shared process-wide between featurizer
instances with the same configuration — clones and per-tier baselines
never re-hash a string any instance has seen.
"""

from __future__ import annotations

import hashlib
import os
import re
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..perf import PERF

__all__ = [
    "normalize",
    "tokenize",
    "count_tokens",
    "resolve_cache_size",
    "HashedFeaturizer",
]


def resolve_cache_size(default: int, override: Optional[int] = None) -> int:
    """Resolve an LRU bound: explicit arg > ``REPRO_LRU_SIZE`` env > default.

    One environment knob bounds every featurization LRU (the featurizer's
    text→sparse cache and the model's dense prompt/candidate memos), so a
    serving deployment can cap resident memory without touching call
    sites.  Explicit constructor arguments always win over the env.
    """
    if override is not None:
        return max(1, int(override))
    raw = os.environ.get("REPRO_LRU_SIZE", "").strip()
    if not raw:
        return default
    try:
        return max(1, int(raw))
    except ValueError as exc:
        raise ValueError(
            f"REPRO_LRU_SIZE must be an integer, got {raw!r}"
        ) from exc

_TOKEN_RE = re.compile(r"\[[a-z0-9_]+\]|[a-z0-9]+(?:\.[0-9]+)?|[%$#@&]")
_WS_RE = re.compile(r"\s+")


def normalize(text: str) -> str:
    """Lowercase and collapse whitespace; keep ``[special]`` markers intact."""
    return _WS_RE.sub(" ", text.lower()).strip()


def tokenize(text: str) -> List[str]:
    """Split normalised text into word tokens.

    ``[special_markers]`` (e.g. ``[missing]`` or ``[fmt_violation_abv]``)
    survive as single tokens so that derived knowledge features hash to a
    single stable bucket.
    """
    return _TOKEN_RE.findall(normalize(text))


def count_tokens(text: str) -> int:
    """Token count used by the pricing model (Table III accounting)."""
    return len(tokenize(text))


def _stable_hash(data: str) -> int:
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


#: Sparse representation of one featurized string: sorted unique bucket
#: indices and their accumulated (unit-norm) signed weights.  Both
#: arrays are marked read-only because they are shared via the cache.
SparseRow = Tuple[np.ndarray, np.ndarray]

#: One token's memoised features: its ``w:`` bucket index and signed
#: value, then the bucket indices and signs of its ``c:`` trigrams.
TokenFeatures = Tuple[int, float, Tuple[int, ...], Tuple[float, ...]]


class HashedFeaturizer:
    """Map text to a dense, L2-normalised feature vector of size ``dim``.

    Parameters
    ----------
    dim:
        Number of hash buckets (the model's "embedding width" analogue).
    use_bigrams:
        Include word bigram features (order sensitivity).
    use_char_ngrams:
        Include character trigram features inside each token (robustness
        to typos — important for error-detection style tasks).
    salt:
        Distinguishes featurizer families so that two models with the same
        ``dim`` need not share a feature space.
    cache_size:
        Bound on the LRU text→sparse-row cache (least recently used
        entries are evicted; re-encoding an evicted text is
        deterministic, so eviction only costs time).  ``None`` resolves
        through :func:`resolve_cache_size` — the ``REPRO_LRU_SIZE``
        environment knob, falling back to :data:`SPARSE_CACHE_SIZE`.

    Configuration is frozen at construction: the caches are keyed by the
    full configuration, so mutating ``use_bigrams`` etc. on a live
    instance would corrupt shared state.
    """

    #: Weight multiplier for ``[special]`` marker tokens.  A transformer
    #: can attend sharply to one decisive token; a bag-of-features
    #: encoder cannot, so markers get elevated mass instead.
    MARKER_WEIGHT = 4.0

    #: Default bound on the per-configuration text→sparse LRU cache.
    SPARSE_CACHE_SIZE = 32768

    #: Feature→bucket entries stop being added past this many (the map
    #: stays correct — misses simply re-hash).
    BUCKET_CACHE_CAP = 1_000_000

    #: Token→feature memo entries stop being added past this many.
    TOKEN_MEMO_CAP = 200_000

    #: Process-wide caches, keyed by configuration.  Content-addressed
    #: and never invalidated: hashing is a pure function of the key.
    _BUCKET_CACHES: Dict[Tuple, Dict[str, Tuple[int, float]]] = {}
    _SPARSE_CACHES: Dict[Tuple, "OrderedDict[str, SparseRow]"] = {}
    #: Per-token ``(word index, word value, trigram indices, trigram
    #: signs)``, keyed by ``(salt, dim, use_char_ngrams)``.
    _TOKEN_MEMOS: Dict[Tuple, Dict[str, TokenFeatures]] = {}

    def __init__(
        self,
        dim: int = 2048,
        use_bigrams: bool = True,
        use_char_ngrams: bool = True,
        salt: str = "repro",
        cache_size: Optional[int] = None,
    ):
        if dim <= 1:
            raise ValueError(f"featurizer dim must be > 1, got {dim}")
        self.dim = dim
        self.use_bigrams = use_bigrams
        self.use_char_ngrams = use_char_ngrams
        self.salt = salt
        self.cache_size = resolve_cache_size(self.SPARSE_CACHE_SIZE, cache_size)
        self._connect_shared_caches()

    def _connect_shared_caches(self) -> None:
        """Alias this configuration's entries of the process-wide caches."""
        # Buckets depend only on (salt, dim); token features additionally
        # on the trigram flag; sparse rows on both n-gram flags and the
        # eviction bound.
        self._cache = self._BUCKET_CACHES.setdefault((self.salt, self.dim), {})
        self._token_memo = self._TOKEN_MEMOS.setdefault(
            (self.salt, self.dim, self.use_char_ngrams), {}
        )
        # Keyed by the *resolved* size: two featurizers share rows only
        # when their eviction bound agrees, so an env-bounded instance
        # never inherits an unbounded cache.
        self._sparse_cache = self._SPARSE_CACHES.setdefault(
            (
                self.salt,
                self.dim,
                self.use_bigrams,
                self.use_char_ngrams,
                self.cache_size,
            ),
            OrderedDict(),
        )

    def __getstate__(self):
        """Pickle the configuration only, never the shared caches.

        The instance attributes ``_cache`` / ``_token_memo`` /
        ``_sparse_cache`` alias the process-wide content-addressed
        caches; shipping those to worker processes would be pure dead
        weight (and they re-derive from text anyway).  Unpickling
        reconnects to the *receiving* process's shared caches for the
        same configuration.
        """
        state = self.__dict__.copy()
        for name in ("_cache", "_token_memo", "_sparse_cache"):
            state.pop(name, None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._connect_shared_caches()

    @classmethod
    def clear_shared_caches(cls) -> None:
        """Drop all process-wide featurization caches (tests/benchmarks)."""
        cls._BUCKET_CACHES.clear()
        cls._TOKEN_MEMOS.clear()
        cls._SPARSE_CACHES.clear()

    def seed_sparse_cache(self, rows: Iterable[Tuple[str, SparseRow]]) -> None:
        """Pre-populate the sparse cache with externally stored rows.

        The artifact store's featurization warm-start feeds rows saved
        by a previous run.  Rows for texts already cached are ignored
        (the live entry is authoritative); inserted arrays are validated
        and re-flagged read-only because cached rows are shared.
        """
        cache = self._sparse_cache
        for text, (indices, values) in rows:
            if text in cache:
                continue
            indices = np.asarray(indices, dtype=np.intp)
            values = np.asarray(values, dtype=np.float64)
            if indices.shape != values.shape or indices.ndim != 1:
                raise ValueError("malformed sparse row")
            indices.setflags(write=False)
            values.setflags(write=False)
            cache[text] = (indices, values)
            if len(cache) > self.cache_size:
                cache.popitem(last=False)

    def _bucket(self, feature: str) -> Tuple[int, float]:
        """Return (index, sign) for a feature string, memoised."""
        hit = self._cache.get(feature)
        if hit is not None:
            return hit
        h = _stable_hash(self.salt + "\x00" + feature)
        index = h % self.dim
        sign = 1.0 if (h >> 63) & 1 else -1.0
        if len(self._cache) < self.BUCKET_CACHE_CAP:
            self._cache[feature] = (index, sign)
        return index, sign

    def _token_features(self, tok: str) -> TokenFeatures:
        """A token's word and trigram features, memoised per token."""
        hit = self._token_memo.get(tok)
        if hit is not None:
            return hit
        index, sign = self._bucket("w:" + tok)
        tri_indices: List[int] = []
        tri_signs: List[float] = []
        if tok.startswith("["):
            # Markers are atomic (no trigrams) and carry elevated mass.
            sign = sign * self.MARKER_WEIGHT
        elif self.use_char_ngrams:
            padded = "^" + tok + "$"
            for i in range(len(padded) - 2):
                tri_index, tri_sign = self._bucket("c:" + padded[i : i + 3])
                tri_indices.append(tri_index)
                tri_signs.append(tri_sign)
        features = (index, sign, tuple(tri_indices), tuple(tri_signs))
        if len(self._token_memo) < self.TOKEN_MEMO_CAP:
            self._token_memo[tok] = features
        return features

    # ------------------------------------------------------------------
    # Sparse path (the substrate the dense APIs are built on)
    # ------------------------------------------------------------------
    def encode_sparse(self, text: str) -> SparseRow:
        """Featurize one string into a unit-norm sparse ``(indices, values)``.

        ``indices`` are sorted unique bucket positions; ``values`` carry
        the accumulated signed weights, L2-normalised over the non-zero
        support.  Results are LRU-cached by text and must be treated as
        immutable (the arrays are flagged read-only).
        """
        cache = self._sparse_cache
        hit = cache.get(text)
        if hit is not None:
            cache.move_to_end(text)
            PERF.count("featurizer.sparse_hits")
            obs.counter("featurizer.sparse_hit")
            return hit
        PERF.count("featurizer.sparse_misses")
        obs.counter("featurizer.sparse_miss")
        tokens = tokenize(text)
        per_token = [self._token_features(tok) for tok in tokens]
        # Feature order: every word, then every bigram, then each
        # token's trigrams — bincount sums in this order below.
        raw_indices: List[int] = [f[0] for f in per_token]
        raw_values: List[float] = [f[1] for f in per_token]
        if self.use_bigrams:
            bucket = self._bucket
            for left, right in zip(tokens, tokens[1:]):
                index, sign = bucket("b:" + left + "_" + right)
                raw_indices.append(index)
                raw_values.append(sign)
        for __, __, tri_indices, tri_signs in per_token:
            raw_indices.extend(tri_indices)
            raw_values.extend(tri_signs)
        if raw_indices:
            # Accumulate duplicate buckets with a vectorized bincount;
            # per-bucket addition order matches encounter order, so the
            # sums are bit-identical to a sequential scatter loop.
            occupied = np.asarray(raw_indices, dtype=np.intp)
            weights = np.asarray(raw_values, dtype=np.float64)
            indices, inverse = np.unique(occupied, return_inverse=True)
            values = np.bincount(
                inverse.ravel(), weights=weights, minlength=indices.size
            )
            norm = float(np.sqrt(values @ values))
            if norm > 0.0:
                values /= norm
        else:
            indices = np.empty(0, dtype=np.intp)
            values = np.empty(0, dtype=np.float64)
        indices.setflags(write=False)
        values.setflags(write=False)
        row: SparseRow = (indices, values)
        cache[text] = row
        if len(cache) > self.cache_size:
            cache.popitem(last=False)
        return row

    # ------------------------------------------------------------------
    # Dense views
    # ------------------------------------------------------------------
    def encode(self, text: str) -> np.ndarray:
        """Featurize one string into a unit-norm dense vector."""
        indices, values = self.encode_sparse(text)
        vec = np.zeros(self.dim)
        vec[indices] = values
        return vec

    def encode_batch(self, texts: Iterable[str]) -> np.ndarray:
        """Featurize a batch; returns an ``(n, dim)`` matrix.

        The matrix is assembled with a single fancy-index scatter from
        the cached sparse rows — no per-example dense temporaries.
        """
        rows: Sequence[SparseRow] = [self.encode_sparse(t) for t in texts]
        matrix = np.zeros((len(rows), self.dim))
        if not rows:
            return matrix
        sizes = np.fromiter(
            (indices.size for indices, __ in rows),
            dtype=np.intp,
            count=len(rows),
        )
        if int(sizes.sum()) == 0:
            return matrix
        row_index = np.repeat(np.arange(len(rows)), sizes)
        col_index = np.concatenate([indices for indices, __ in rows])
        values = np.concatenate([values for __, values in rows])
        matrix[row_index, col_index] = values
        return matrix
