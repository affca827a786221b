"""Core vocabulary: normalization, pair intersection, ranking order."""
from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from taxrec.core import (
    FeaturePair,
    InteractionSequence,
    Item,
    RankedList,
    normalize_text,
    pair_set_intersection_size,
    rank_scores,
)


class TestNormalizeText:
    def test_casing_and_trim(self):
        assert normalize_text("  Fiction ") == "fiction"

    def test_empty_identity(self):
        assert normalize_text("") == ""

    def test_golden_punctuation_case(self):
        # Hand application of the rule: lowercase, collapse whitespace,
        # strip surrounding punctuation/quotes. Interior characters stay.
        assert normalize_text('"Science-Fiction"  (Genre)') == 'science-fiction" (genre'

    def test_internal_whitespace_collapsed(self):
        assert normalize_text("Young\t  Adult\nReader") == "young adult reader"

    def test_curly_quotes_stripped(self):
        assert normalize_text("“Emma”") == "emma"

    @given(st.text(max_size=60))
    def test_idempotent(self, raw):
        once = normalize_text(raw)
        assert normalize_text(once) == once


def random_pair_set(rng: random.Random, max_size: int = 8) -> frozenset[FeaturePair]:
    keys = ["genre", "theme", "tone", "era", "audience"]
    values = ["a", "b", "c", "d"]
    size = rng.randint(0, max_size)
    return frozenset(
        FeaturePair(rng.choice(keys), rng.choice(values)) for _ in range(size)
    )


def brute_force_intersection(a, b) -> int:
    count = 0
    for pair_a in a:
        for pair_b in b:
            if pair_a.key == pair_b.key and pair_a.value == pair_b.value:
                count += 1
                break
    return count


class TestPairSetIntersection:
    def test_empty(self):
        full = frozenset({FeaturePair("genre", "fiction")})
        assert pair_set_intersection_size(frozenset(), full) == 0

    def test_identical(self):
        pairs = frozenset(
            {FeaturePair("genre", "fiction"), FeaturePair("theme", "power")}
        )
        assert pair_set_intersection_size(pairs, pairs) == 2

    def test_matches_brute_force_oracle(self):
        rng = random.Random(42)
        for _ in range(500):
            a, b = random_pair_set(rng), random_pair_set(rng)
            assert pair_set_intersection_size(a, b) == brute_force_intersection(a, b)

    def test_symmetric_and_bounded(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b = random_pair_set(rng), random_pair_set(rng)
            score = pair_set_intersection_size(a, b)
            assert score == pair_set_intersection_size(b, a)
            assert 0 <= score <= min(len(a), len(b))


class TestRankedList:
    def test_sorted_and_tie_broken_by_id(self):
        ranked = rank_scores([("b", 2.0), ("c", 3.0), ("a", 2.0)], k=3)
        assert ranked.item_ids == ("c", "a", "b")

    def test_truncates_to_k(self):
        ranked = rank_scores([(f"i{n}", float(n)) for n in range(10)], k=4)
        assert len(ranked.entries) == 4
        assert ranked.item_ids[0] == "i9"

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            RankedList(entries=(("a", 1.0), ("a", 0.5)), k=5)

    def test_rank_of(self):
        ranked = rank_scores([("a", 3.0), ("b", 2.0)], k=2)
        assert ranked.rank_of("a") == 1
        assert ranked.rank_of("b") == 2
        assert ranked.rank_of("zz") is None

    def test_total_order_reproducible(self):
        rng = random.Random(3)
        scores = [(f"i{n:03d}", float(rng.randint(0, 5))) for n in range(100)]
        first = rank_scores(list(scores), k=20)
        rng.shuffle(scores)
        second = rank_scores(scores, k=20)
        assert first == second

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            rank_scores([("a", 1.0)], k=0)


# Few distinct ids and mostly repeated scores, so ties at the k cut are
# common; signed zeros tie with each other.
_SCORES = st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0]) | st.floats(
    allow_nan=False, allow_infinity=False
)


class TestRankingProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        scores=st.lists(
            st.tuples(st.text("abc1", min_size=1, max_size=3), _SCORES),
            max_size=12,
            unique_by=lambda entry: entry[0],
        )
    )
    def test_equals_score_then_id_sort_at_every_cut(self, scores):
        expected = sorted(scores, key=lambda entry: (-entry[1], entry[0]))
        for k in range(1, len(scores) + 3):
            assert list(rank_scores(scores, k).entries) == expected[:k]


class TestDomainTypes:
    def test_item_requires_id(self):
        with pytest.raises(ValueError):
            Item(id="", title="x")

    def test_sequence_rejects_target_in_history(self):
        a, b = Item(id="a", title="A"), Item(id="b", title="B")
        with pytest.raises(ValueError):
            InteractionSequence(user_id="u", history=(a, b), target=a)

    def test_sequence_allows_padding_duplicates(self):
        a, b = Item(id="a", title="A"), Item(id="b", title="B")
        seq = InteractionSequence(user_id="u", history=(a, a, a), target=b)
        assert len(seq.history) == 3

    def test_feature_pair_fields_non_empty(self):
        with pytest.raises(ValueError):
            FeaturePair("", "fiction")
        with pytest.raises(ValueError):
            FeaturePair("genre", "")
        with pytest.raises(ValueError):
            FeaturePair(1, "fiction")


class TestFeaturePair:
    def test_equal_pairs_hash_equally(self):
        a, b = FeaturePair("genre", "fiction"), FeaturePair("genre", "fiction")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != FeaturePair("genre", "mystery")

    def test_equals_plain_tuple(self):
        assert FeaturePair("genre", "fiction") == ("genre", "fiction")

    def test_sorted_by_key_then_value(self):
        pairs = [
            FeaturePair("theme", "love"),
            FeaturePair("genre", "mystery"),
            FeaturePair("genre", "fiction"),
            FeaturePair("era", "modern"),
        ]
        assert [(pair.key, pair.value) for pair in sorted(pairs)] == [
            ("era", "modern"),
            ("genre", "fiction"),
            ("genre", "mystery"),
            ("theme", "love"),
        ]

    def test_repr(self):
        assert repr(FeaturePair("genre", "fiction")) == "FeaturePair(key='genre', value='fiction')"

    def test_fields_read_only(self):
        pair = FeaturePair("genre", "fiction")
        assert (pair.key, pair.value) == ("genre", "fiction")
        with pytest.raises(AttributeError):
            pair.key = "theme"
        with pytest.raises(AttributeError):
            pair.value = "mystery"
        with pytest.raises(AttributeError):
            pair.other = "x"

    def test_pickle_and_deepcopy_round_trip(self):
        pair = FeaturePair("genre", "fiction")
        for copied in (pickle.loads(pickle.dumps(pair)), copy.deepcopy(pair), copy.copy(pair)):
            assert type(copied) is FeaturePair
            assert copied == pair and hash(copied) == hash(pair)
            assert (copied.key, copied.value) == ("genre", "fiction")
