"""Unit tests for repro.tinylm.tokenizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tinylm.tokenizer import (
    HashedFeaturizer,
    count_tokens,
    normalize,
    resolve_cache_size,
    tokenize,
)

text_strategy = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd", "Zs")),
    max_size=80,
)


class TestNormalizeAndTokenize:
    def test_normalize_lowercases_and_collapses(self):
        assert normalize("  Hello   WORLD ") == "hello world"

    def test_tokenize_words_and_numbers(self):
        assert tokenize("abc 12.5 def") == ["abc", "12.5", "def"]

    def test_tokenize_keeps_markers_atomic(self):
        assert tokenize("x [fmt_violation] y") == ["x", "[fmt_violation]", "y"]

    def test_tokenize_symbols(self):
        assert "%" in tokenize("0.05%")

    def test_count_tokens_matches_tokenize(self):
        text = "record [ abv: 0.05% ]"
        assert count_tokens(text) == len(tokenize(text))

    def test_empty_text(self):
        assert tokenize("") == []
        assert count_tokens("") == 0


class TestHashedFeaturizer:
    def test_unit_norm(self):
        featurizer = HashedFeaturizer(dim=128)
        vec = featurizer.encode("some example text here")
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_empty_text_is_zero_vector(self):
        featurizer = HashedFeaturizer(dim=128)
        assert np.linalg.norm(featurizer.encode("")) == 0.0

    def test_deterministic_across_instances(self):
        a = HashedFeaturizer(dim=256).encode("hello world")
        b = HashedFeaturizer(dim=256).encode("hello world")
        np.testing.assert_array_equal(a, b)

    def test_salt_changes_embedding(self):
        a = HashedFeaturizer(dim=256, salt="one").encode("hello world")
        b = HashedFeaturizer(dim=256, salt="two").encode("hello world")
        assert not np.allclose(a, b)

    def test_different_texts_differ(self):
        featurizer = HashedFeaturizer(dim=512)
        a = featurizer.encode("alpha beta gamma")
        b = featurizer.encode("delta epsilon zeta")
        assert not np.allclose(a, b)

    def test_similar_texts_closer_than_different(self):
        featurizer = HashedFeaturizer(dim=1024)
        base = featurizer.encode("hoppy trail ipa from portland")
        near = featurizer.encode("hoppy trail ale from portland")
        far = featurizer.encode("annals of internal medicine 2015")
        assert base @ near > base @ far

    def test_marker_tokens_get_elevated_weight(self):
        featurizer = HashedFeaturizer(
            dim=1024, use_bigrams=False, use_char_ngrams=False
        )
        plain = featurizer.encode("alpha beta")
        marked = featurizer.encode("alpha [missing]")
        # The marker bucket should carry MARKER_WEIGHT times the mass of
        # a plain word bucket (up to normalisation).
        plain_mass = np.abs(plain).max()
        marked_mass = np.abs(marked).max()
        assert marked_mass > plain_mass

    def test_encode_batch_shape(self):
        featurizer = HashedFeaturizer(dim=64)
        batch = featurizer.encode_batch(["a b", "c d", "e"])
        assert batch.shape == (3, 64)

    def test_encode_batch_empty(self):
        featurizer = HashedFeaturizer(dim=64)
        assert featurizer.encode_batch([]).shape == (0, 64)

    def test_rejects_degenerate_dim(self):
        with pytest.raises(ValueError):
            HashedFeaturizer(dim=1)

    @given(text_strategy)
    @settings(max_examples=60, deadline=None)
    def test_norm_at_most_one(self, text):
        featurizer = HashedFeaturizer(dim=128)
        norm = np.linalg.norm(featurizer.encode(text))
        assert norm == pytest.approx(1.0) or norm == 0.0

    @given(text_strategy, text_strategy)
    @settings(max_examples=40, deadline=None)
    def test_encoding_is_function_of_text(self, left, right):
        featurizer = HashedFeaturizer(dim=128)
        a, b = featurizer.encode(left), featurizer.encode(right)
        if normalize(left) == normalize(right):
            np.testing.assert_array_equal(a, b)

    def test_bigram_flag_changes_features(self):
        with_bigrams = HashedFeaturizer(dim=512, use_bigrams=True)
        without = HashedFeaturizer(dim=512, use_bigrams=False)
        text = "alpha beta gamma"
        assert not np.allclose(with_bigrams.encode(text), without.encode(text))


class TestCacheSizeResolution:
    def test_explicit_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_LRU_SIZE", "100")
        assert resolve_cache_size(500, override=7) == 7

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_LRU_SIZE", "64")
        assert resolve_cache_size(500) == 64

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_LRU_SIZE", raising=False)
        assert resolve_cache_size(500) == 500

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_LRU_SIZE", "lots")
        with pytest.raises(ValueError):
            resolve_cache_size(500)

    def test_floors_at_one(self):
        assert resolve_cache_size(500, override=0) == 1

    def test_sparse_cache_respects_bound(self):
        featurizer = HashedFeaturizer(
            dim=128, salt="lru-test", cache_size=4
        )
        for i in range(20):
            featurizer.encode_sparse(f"text number {i}")
        assert len(featurizer._sparse_cache) <= 4
        # Most recent entries survive (LRU semantics).
        assert "text number 19" in featurizer._sparse_cache

    def test_env_sized_featurizers_share_a_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_LRU_SIZE", "8")
        first = HashedFeaturizer(dim=128, salt="lru-env-test")
        second = HashedFeaturizer(dim=128, salt="lru-env-test")
        assert first.cache_size == 8
        assert first._sparse_cache is second._sparse_cache


def _reference_sparse(featurizer, text):
    """The pre-memo sparse featurizer: one bucket lookup per feature string."""
    tokens = tokenize(text)
    features = ["w:" + tok for tok in tokens]
    if featurizer.use_bigrams:
        features += ["b:" + a + "_" + b for a, b in zip(tokens, tokens[1:])]
    if featurizer.use_char_ngrams:
        for tok in tokens:
            if not tok.startswith("["):
                padded = "^" + tok + "$"
                features += ["c:" + padded[i : i + 3] for i in range(len(padded) - 2)]
    raw_indices, raw_values = [], []
    for feature in features:
        index, sign = featurizer._bucket(feature)
        raw_indices.append(index)
        marker = feature.startswith("w:[")
        raw_values.append(sign * featurizer.MARKER_WEIGHT if marker else sign)
    if not raw_indices:
        return np.empty(0, dtype=np.intp), np.empty(0)
    indices, inverse = np.unique(np.asarray(raw_indices), return_inverse=True)
    values = np.bincount(inverse.ravel(), weights=raw_values, minlength=indices.size)
    norm = float(np.sqrt(values @ values))
    if norm > 0.0:
        values /= norm
    return indices, values


MEMO_TEXTS = (
    "",
    "   ",
    "brand [missing] apple apple apple iphone 12.5",
    "[fmt_violation_abv] abv 5.5 % [fmt_violation_abv] ipa ipa",
    "the the the the",
    "a",
    "price $ 3.99 @ store # 7 & co",
    "x y x y x y [missing]",
)


class TestTokenMemo:
    """The per-token feature memo is a pure cache over the feature stream."""

    @pytest.mark.parametrize("bigrams", [True, False])
    @pytest.mark.parametrize("trigrams", [True, False])
    def test_matches_reference_feature_order(self, bigrams, trigrams):
        featurizer = HashedFeaturizer(
            dim=97,
            use_bigrams=bigrams,
            use_char_ngrams=trigrams,
            salt=f"memo-{bigrams}-{trigrams}",
        )
        assert not featurizer._token_memo
        # Twice: the second pass reads every token from the memo.
        for __ in range(2):
            featurizer._sparse_cache.clear()
            for text in MEMO_TEXTS:
                indices, values = featurizer.encode_sparse(text)
                ref_indices, ref_values = _reference_sparse(featurizer, text)
                assert np.array_equal(indices, ref_indices)
                assert np.array_equal(values, ref_values)
        assert featurizer._token_memo

    def test_clear_shared_caches_empties_the_memo(self):
        featurizer = HashedFeaturizer(dim=64, salt="memo-clear")
        featurizer.encode_sparse("some tokens here")
        assert featurizer._token_memo
        HashedFeaturizer.clear_shared_caches()
        assert not HashedFeaturizer._TOKEN_MEMOS
        assert not HashedFeaturizer(dim=64, salt="memo-clear")._token_memo

    def test_pickle_carries_no_memo(self):
        import pickle

        featurizer = HashedFeaturizer(dim=64, salt="memo-pickle")
        featurizer.encode_sparse("alpha beta gamma")
        state = featurizer.__getstate__()
        assert "_token_memo" not in state
        payload = pickle.dumps(featurizer)
        HashedFeaturizer.clear_shared_caches()
        clone = pickle.loads(payload)
        assert clone._token_memo == {}
        assert clone._token_memo is HashedFeaturizer._TOKEN_MEMOS[
            ("memo-pickle", 64, True)
        ]
        assert np.array_equal(
            clone.encode("alpha beta gamma"), featurizer.encode("alpha beta gamma")
        )

    def test_memo_never_grows_past_its_cap(self, monkeypatch):
        monkeypatch.setattr(HashedFeaturizer, "TOKEN_MEMO_CAP", 5)
        featurizer = HashedFeaturizer(dim=64, salt="memo-cap")
        texts = [f"tok{i} other{i}" for i in range(20)]
        for text in texts:
            featurizer.encode_sparse(text)
        assert len(featurizer._token_memo) == 5
        # Tokens past the cap are still featurized correctly.
        featurizer._sparse_cache.clear()
        for text in texts:
            assert np.array_equal(
                featurizer.encode_sparse(text)[1], _reference_sparse(featurizer, text)[1]
            )
