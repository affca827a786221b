"""Text-similarity matchers: BLEU, ROUGE-L, exact title, embeddings."""
from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from taxrec import matchers
from taxrec.catalog import ItemPool
from taxrec.core import Item, normalize_text
from taxrec.errors import TaxRecError
from taxrec.matchers import (
    HashEmbedder,
    bleu_score,
    cosine_similarity,
    exact_title_score,
    rouge_l_f1,
    score_titles_against_text,
)


class TestBleu:
    def test_identical_strings_score_one(self):
        for text in ("Emma", "the quick brown fox", "a b c d e f g"):
            assert bleu_score(text, text) == pytest.approx(1.0)

    def test_identical_after_normalization(self):
        assert bleu_score("  The Quick  Fox ", "the quick fox") == pytest.approx(1.0)

    def test_hand_computed_two_token_case(self):
        # cand "a b" vs ref "a c": p1 = 1/2, p2 smoothed = 0.1/1, BP = 1,
        # BLEU = sqrt(0.5 * 0.1).
        assert bleu_score("a b", "a c") == pytest.approx(math.sqrt(0.05), abs=1e-12)

    def test_hand_computed_brevity_penalty(self):
        # cand "the cat" vs ref "the cat sat": precisions are 1, BP = e^(1 - 3/2).
        assert bleu_score("the cat", "the cat sat") == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_empty_inputs_score_zero(self):
        assert bleu_score("", "anything") == 0.0
        assert bleu_score("anything", "") == 0.0

    def test_bounded(self):
        assert 0.0 <= bleu_score("one two three", "four five six") <= 1.0


class TestRougeL:
    def test_identical_strings_score_one(self):
        assert rouge_l_f1("a fine tale", "a fine tale") == pytest.approx(1.0)

    def test_hand_lcs_five_word_fixture(self):
        # LCS("the quick brown fox jumps", "the brown fox quickly jumps")
        # = [the, brown, fox, jumps], length 4: P = R = 4/5, F1 = 0.8.
        value = rouge_l_f1("the quick brown fox jumps", "the brown fox quickly jumps")
        assert value == pytest.approx(0.8, abs=1e-9)

    def test_disjoint_strings_score_zero(self):
        assert rouge_l_f1("alpha beta", "gamma delta") == 0.0

    def test_asymmetric_lengths(self):
        # LCS("a b", "a b c d") = 2: P = 1, R = 1/2, F1 = 2/3.
        assert rouge_l_f1("a b", "a b c d") == pytest.approx(2 / 3, abs=1e-12)


class TestExactTitle:
    def test_present_substring(self):
        assert exact_title_score("Emma", "I recommend Emma and more") == 1.0

    def test_absent(self):
        assert exact_title_score("Emma", "Nothing relevant here") == 0.0

    def test_normalization_applies(self):
        assert exact_title_score("  EMMA ", "emma") == 1.0

    def test_match_starts_and_ends_on_word_boundaries(self):
        assert exact_title_score("It", "I would go with Emma next") == 0.0
        assert exact_title_score("Emma", "Emmanuelle, then Persuasion") == 0.0
        assert exact_title_score("Emma", "emma, then persuasion") == 1.0
        assert exact_title_score("Emma", "emmanuelle and emma") == 1.0

    def test_word_characters_are_alphanumerics_and_underscore(self):
        # The one pattern behind both the boundary check and the word runs.
        for code in range(0x110000):
            char = chr(code)
            assert bool(matchers._WORD_RUN.match(char)) == (char.isalnum() or char == "_"), hex(code)

    def test_only_zero_or_one(self):
        for text in ("Emma", "emma emma", "no"):
            assert exact_title_score("Emma", text) in (0.0, 1.0)


# Prose words, punctuation-only tokens (a title of only these normalizes to
# empty), whitespace runs, curly quotes and non-ASCII text; ``_`` and digits
# (Arabic-Indic three, Roman numeral twelve); words with punctuation inside
# them; a combining acute accent; punctuation that normalize_text keeps
# (a title of only that has no word run); and titles that are word-prefixes
# of each other ("war", "war and peace").
_WORDS = st.sampled_from(
    ["the", "Emma", "emma", "fox", "brown", "a", "war", "peace", "!!", "...", "--", "?",
     "\u201cEmma\u201d", "\u2018tale\u2019", "\u00abfox\u00bb", "caf\u00e9", "na\u00efve",
     "\u00c9mile", "\u03a9", "\u65e5\u672c", "\u00df", "  ", "\t", "\n",
     "_", "snake_case", "7", "2001", "\u0663", "\u216b", "o'brien", "x-men",
     "e\u0301", "\u2026", "\u00bfqu\u00e9", "war and peace"]
)
_SEPARATORS = st.sampled_from([" ", "  ", "\t", "\n ", ", ", ". "])


@st.composite
def _phrases(draw, max_words):
    words = draw(st.lists(_WORDS, max_size=max_words))
    separators = draw(st.lists(_SEPARATORS, min_size=len(words), max_size=len(words)))
    return "".join(word + sep for word, sep in zip(words, separators))


class TestScoreTitlesAgainstText:
    @settings(max_examples=300, deadline=None)
    @given(
        titles=st.lists(_phrases(max_words=5), max_size=8),
        text=_phrases(max_words=30),
        quoted=st.lists(st.integers(min_value=0, max_value=7), max_size=3),
    )
    def test_equals_per_title_function(self, titles, text, quoted):
        # Some titles are copied into the reply, so exact matches occur.
        text = " ".join([text] + [titles[i] for i in quoted if i < len(titles)])
        by_id = {f"i{index}": title for index, title in enumerate(titles)}
        per_title = {
            "bleu": lambda title: bleu_score(title, text),
            "rouge": lambda title: rouge_l_f1(title, text),
            "exact_title": lambda title: exact_title_score(title, text),
        }
        for method, score in per_title.items():
            expected = [(item_id, score(title)) for item_id, title in by_id.items()]
            assert score_titles_against_text(by_id, text, method) == expected


def _pool(titles):
    return ItemPool(
        domain_label="book",
        items=tuple(Item(id=f"i{index}", title=title) for index, title in enumerate(titles)),
    )


class TestPoolTitleTable:
    def test_request_normalizes_the_reply_only(self, monkeypatch):
        pool = _pool([f"Work {index}" for index in range(50)])
        assert pool.titles is pool.titles
        calls = []

        def counting(raw):
            calls.append(raw)
            return normalize_text(raw)

        monkeypatch.setattr(matchers, "normalize_text", counting)
        scores = score_titles_against_text(pool.titles, "I suggest Work 7.", "exact_title")
        assert calls == ["I suggest Work 7."]
        assert [item_id for item_id, score in scores if score] == ["i7"]

    @settings(max_examples=200, deadline=None)
    @given(
        titles=st.lists(_phrases(max_words=5), min_size=1, max_size=8),
        text=_phrases(max_words=30),
        quoted=st.lists(st.integers(min_value=0, max_value=7), max_size=3),
    )
    # Titles sharing word runs, and one with no word run, all matched.
    @example(
        titles=["War", "War and Peace", "Peace", "X-Men", "O'Brien", "\u2026", "!!", "Warp"],
        text="Try war and peace, then x-men \u2026 or o'brien",
        quoted=[],
    )
    def test_pool_table_equals_per_title_function(self, titles, text, quoted):
        text = " ".join([text] + [titles[i] for i in quoted if i < len(titles)])
        pool = _pool(titles)
        per_title = {"bleu": bleu_score, "rouge": rouge_l_f1, "exact_title": exact_title_score}
        for method, score in per_title.items():
            expected = [(item.id, score(item.title, text)) for item in pool.items]
            assert score_titles_against_text(pool.titles, text, method) == expected


class OneHotEmbedder:
    def __init__(self, mapping):
        self.mapping = mapping

    def embed(self, texts):
        return [list(self.mapping[text]) for text in texts]


class TestEmbeddingMatcher:
    def test_cosine_scoring_with_stub(self):
        mapping = {
            "Title A": (1.0, 0.0),
            "Title B": (0.0, 1.0),
            "query text": (1.0, 0.0),
        }
        scores = dict(
            score_titles_against_text(
                {"a": "Title A", "b": "Title B"}, "query text", "embedding", OneHotEmbedder(mapping)
            )
        )
        assert scores["a"] == pytest.approx(1.0)
        assert scores["b"] == pytest.approx(0.0)

    def test_missing_embedder_is_error(self):
        with pytest.raises(TaxRecError):
            score_titles_against_text({"a": "T"}, "text", "embedding", None)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            score_titles_against_text({"a": "T"}, "text", "levenshtein")

    def test_cosine_zero_vector(self):
        assert cosine_similarity([0.0, 0.0], [1.0, 0.0]) == 0.0


class TestHashEmbedder:
    def test_deterministic(self):
        first = HashEmbedder(seed=1).embed(["some title"])
        second = HashEmbedder(seed=1).embed(["some title"])
        assert first == second

    def test_shared_tokens_more_similar(self):
        embedder = HashEmbedder(seed=0)
        a, b, c = embedder.embed(["red river tale", "red river saga", "quantum biology"])
        assert cosine_similarity(a, b) > cosine_similarity(a, c)
