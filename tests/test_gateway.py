"""Prompt rendering, providers, retries, and the mock contract."""
from __future__ import annotations

import random
from collections import Counter

import pytest
import requests
from hypothesis import example, given, settings, strategies as st

from taxrec.errors import AuthError, ContentError, NetworkError
from taxrec.gateway import (
    HttpChatProvider,
    LlmRequest,
    MockProvider,
    load_template,
    render_categorization_prompt,
    render_direct_recommendation_prompt,
    render_recommendation_prompt,
    render_taxonomy_prompt,
)
from taxrec.matchers import HttpEmbedder

from conftest import CountingProvider, ScriptedProvider


class TestPromptRendering:
    def test_taxonomy_prompt_golden(self):
        prompt = render_taxonomy_prompt("book")
        assert "You are an expert in book recommendations" in prompt
        assert "Generate a taxonomy for this book dataset in JSON format" in prompt
        assert "each with several values" in prompt

    def test_taxonomy_prompt_domain_substitution(self):
        book = render_taxonomy_prompt("book")
        movie = render_taxonomy_prompt("movie")
        assert movie == book.replace("book", "movie")
        assert "book" not in movie

    def test_taxonomy_prompt_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            render_taxonomy_prompt("")

    def test_categorization_prompt_order_and_content(self):
        prompt = render_categorization_prompt("book", "genre: fiction", "1984")
        assert "You are a book classifier" in prompt
        assert "please classify it following the format of the given taxonomy" in prompt
        assert prompt.index("genre: fiction") < prompt.index("1984")

    def test_categorization_prompt_rejects_missing_slot(self):
        with pytest.raises(ValueError):
            render_categorization_prompt("book", "", "1984")

    def test_recommendation_prompt_content(self):
        prompt = render_recommendation_prompt("book", "genre: fiction", "A Title", 10)
        assert "You are a book recommender system" in prompt
        assert "recommend 10" in prompt
        assert "following the format of the given taxonomy" in prompt
        assert prompt.index("genre: fiction") < prompt.index("A Title")

    def test_recommendation_prompt_rejects_bad_k(self):
        with pytest.raises(ValueError):
            render_recommendation_prompt("book", "t", "h", 0)

    def test_direct_prompt_has_no_taxonomy_text(self):
        prompt = render_direct_recommendation_prompt("book", "Emma\n1984", 5)
        assert "taxonomy" not in prompt.lower()
        assert "recommend 5" in prompt

    def test_rendering_is_pure(self):
        assert render_taxonomy_prompt("movie") == render_taxonomy_prompt("movie")

    def test_template_slots_and_lines(self):
        template = load_template("recommendation")
        assert template.slots == ("domain", "k", "taxonomy", "history")
        assert template.text.startswith("You are a {domain} recommender system")
        assert "please recommend" in template.text.splitlines()[0]


class FakeResponse:
    def __init__(
        self, status_code: int, body: dict | None = None, text: str = "", headers: dict | None = None
    ):
        self.status_code = status_code
        self._body = body or {}
        self.text = text or str(body)
        self.headers = headers or {}

    def json(self):
        return self._body


class FakeSession:
    """Replays (status, body[, headers]) tuples or raises queued exceptions."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0
        self.bodies = []
        self.urls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.urls.append(url)
        self.bodies.append(json)
        outcome = self.outcomes[min(self.calls, len(self.outcomes) - 1)]
        self.calls += 1
        if isinstance(outcome, Exception):
            raise outcome
        return FakeResponse(*outcome[:2], headers=outcome[2] if len(outcome) > 2 else None)


def _ok_body(text="hello"):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": 3, "completion_tokens": 2},
        "model": "fake",
    }


def _provider(outcomes):
    return HttpChatProvider(
        "http://llm.test/v1",
        "fake",
        api_key="secret",
        session=FakeSession(outcomes),
        sleep=lambda _: None,
    )


class TestHttpChatProvider:
    def test_success_parses_text_and_usage(self):
        provider = _provider([(200, _ok_body("out"))])
        response = provider.complete(LlmRequest(prompt="hi"))
        assert response.text == "out"
        assert response.usage == (3, 2)

    def test_retries_transient_then_succeeds(self):
        provider = _provider(
            [
                requests.ConnectionError("boom"),
                (503, {}),
                (200, _ok_body("ok")),
            ]
        )
        response = provider.complete(LlmRequest(prompt="hi"))
        assert response.text == "ok"
        assert provider._session.calls == 3

    def test_gives_up_after_attempt_limit(self):
        provider = _provider([(500, {})])
        with pytest.raises(NetworkError):
            provider.complete(LlmRequest(prompt="hi"))
        assert provider._session.calls == 4

    def test_auth_error_no_retries(self):
        provider = _provider([(401, {})])
        with pytest.raises(AuthError):
            provider.complete(LlmRequest(prompt="hi"))
        assert provider._session.calls == 1

    def test_4xx_content_error_no_retries(self):
        provider = _provider([(422, {})])
        with pytest.raises(ContentError):
            provider.complete(LlmRequest(prompt="hi"))
        assert provider._session.calls == 1

    def _recorded(self, outcomes):
        sleeps: list[float] = []
        provider = HttpChatProvider(
            "http://llm.test/v1", "fake", session=FakeSession(outcomes), sleep=sleeps.append
        )
        return provider, sleeps

    def test_429_waits_retry_after_then_succeeds(self):
        provider, sleeps = self._recorded([(429, {}, {"Retry-After": "3"}), (200, _ok_body("ok"))])
        assert provider.complete(LlmRequest(prompt="hi")).text == "ok"
        assert provider._session.calls == 2
        assert sleeps == [3.0]

    def test_408_and_429_without_header_use_backoff(self):
        provider, sleeps = self._recorded([(408, {}), (429, {}), (200, _ok_body("ok"))])
        assert provider.complete(LlmRequest(prompt="hi")).text == "ok"
        assert provider._session.calls == 3
        assert sleeps == [0.5, 1.0]

    def test_unusable_retry_after_falls_back_to_backoff(self):
        provider, sleeps = self._recorded([
            (429, {}, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
            (429, {}, {"Retry-After": "inf"}),
            (200, _ok_body("ok")),
        ])
        assert provider.complete(LlmRequest(prompt="hi")).text == "ok"
        assert sleeps == [0.5, 1.0]

    def test_429_gives_up_after_attempt_limit(self):
        provider, sleeps = self._recorded([(429, {}, {"Retry-After": "1"})])
        with pytest.raises(NetworkError, match="HTTP 429"):
            provider.complete(LlmRequest(prompt="hi"))
        assert provider._session.calls == 4
        assert sleeps == [1.0, 1.0, 1.0]

    def test_malformed_body_is_content_error(self):
        provider = _provider([(200, {"nope": True})])
        with pytest.raises(ContentError):
            provider.complete(LlmRequest(prompt="hi"))

    @pytest.mark.parametrize("prompt_tokens", ["n/a", None])
    def test_malformed_usage_is_content_error(self, prompt_tokens):
        usage = {"prompt_tokens": prompt_tokens, "completion_tokens": 2}
        provider = _provider([(200, {**_ok_body(), "usage": usage})])
        with pytest.raises(ContentError, match="malformed provider response"):
            provider.complete(LlmRequest(prompt="hi"))

    def test_request_body_shape(self):
        provider = _provider([(200, _ok_body())])
        provider.complete(LlmRequest(prompt="hi", max_output_tokens=64))
        body = provider._session.bodies[0]
        assert body == {
            "model": "fake",
            "messages": [{"role": "user", "content": "hi"}],
            "temperature": 0.0,
            "max_tokens": 64,
        }


def _vectors(*rows):
    return {"data": [{"embedding": list(row)} for row in rows]}


class TestHttpEmbedder:
    def _embedder(self, outcomes):
        embedder = HttpEmbedder(
            "http://embed.test/v1/", "emb", api_key="secret", session=FakeSession(outcomes)
        )
        sleeps: list[float] = []
        embedder._sleep = sleeps.append
        return embedder, sleeps

    def test_429_with_retry_after_zero_then_success(self):
        embedder, sleeps = self._embedder([(429, {}, {"Retry-After": "0"}), (200, _vectors([1.0, 0.0]))])
        assert embedder.embed(["a"]) == [[1.0, 0.0]]
        assert embedder._session.calls == 2
        assert sleeps == [0.0]

    def test_503_then_success(self):
        embedder, sleeps = self._embedder([(503, {}), (200, _vectors([1.0]))])
        assert embedder.embed(["a"]) == [[1.0]]
        assert embedder._session.calls == 2
        assert sleeps == [0.5]

    def test_auth_error_after_one_post(self):
        embedder, _ = self._embedder([(401, {})])
        with pytest.raises(AuthError):
            embedder.embed(["a"])
        assert embedder._session.calls == 1

    def test_repeated_5xx_is_network_error_after_max_attempts(self):
        embedder, sleeps = self._embedder([(500, {})])
        with pytest.raises(NetworkError, match="HTTP 500"):
            embedder.embed(["a"])
        assert embedder._session.calls == 4
        assert sleeps == [0.5, 1.0, 2.0]

    @pytest.mark.parametrize(
        "body", [_vectors([1.0]), {"nope": True}, {"data": [{"vector": [1.0]}, {"vector": [2.0]}]}]
    )
    def test_wrong_count_or_malformed_body_is_content_error(self, body):
        embedder, _ = self._embedder([(200, body)])
        with pytest.raises(ContentError):
            embedder.embed(["a", "b"])
        assert embedder._session.calls == 1

    def test_repeated_text_is_not_posted_again(self):
        embedder, _ = self._embedder([(200, _vectors([1.0], [2.0])), (200, _vectors([3.0]))])
        assert embedder.embed(["a", "b"]) == [[1.0], [2.0]]
        assert embedder.embed(["b", "a"]) == [[2.0], [1.0]]
        assert embedder._session.calls == 1
        assert embedder.embed(["a", "c"]) == [[1.0], [3.0]]
        assert embedder._session.bodies[1]["input"] == ["c"]

    def test_request_body_and_url(self):
        embedder, _ = self._embedder([(200, _vectors([1.0], [2.0]))])
        embedder.embed(["x", "y"])
        assert embedder._session.urls == ["http://embed.test/v1/embeddings"]
        assert embedder._session.bodies == [{"model": "emb", "input": ["x", "y"]}]


class TestMockProviderTaxonomy:
    def test_fixed_ten_features_with_genre_and_theme(self, mock7):
        response = mock7.complete(LlmRequest(prompt=render_taxonomy_prompt("book")))
        lowered = response.text.lower()
        assert '"genre"' in lowered and '"theme"' in lowered
        assert len(mock7.taxonomy_features()) == 10

    def test_deterministic_per_seed(self):
        prompt = render_taxonomy_prompt("book")
        first = MockProvider(3).complete(LlmRequest(prompt=prompt))
        second = MockProvider(3).complete(LlmRequest(prompt=prompt))
        assert first.text == second.text

    def test_seeds_differ(self):
        prompt = render_taxonomy_prompt("book")
        assert (
            MockProvider(1).complete(LlmRequest(prompt=prompt)).text
            != MockProvider(2).complete(LlmRequest(prompt=prompt)).text
        )


def _mock_taxonomy_text(provider: MockProvider) -> str:
    return "\n".join(
        f"{name.lower()}: {', '.join(v.lower() for v in values)}"
        for name, values in provider.taxonomy_features()
    )


class TestMockProviderCategorization:
    def test_same_title_same_lines(self, mock7):
        taxonomy_text = _mock_taxonomy_text(mock7)
        prompt = render_categorization_prompt("book", taxonomy_text, "Emma")
        first = mock7.complete(LlmRequest(prompt=prompt))
        second = mock7.complete(LlmRequest(prompt=prompt))
        assert first.text == second.text

    def test_one_value_per_feature_from_value_list(self, mock7):
        taxonomy_text = _mock_taxonomy_text(mock7)
        prompt = render_categorization_prompt("book", taxonomy_text, "Emma")
        lines = mock7.complete(LlmRequest(prompt=prompt)).text.splitlines()
        features = {
            name.lower(): [v.lower() for v in values]
            for name, values in mock7.taxonomy_features()
        }
        assert len(lines) == len(features)
        for line in lines:
            key, _, value = line.partition(":")
            assert value.strip() in features[key.strip()]

    def test_unrecognized_prompt_is_content_error(self, mock7):
        with pytest.raises(ContentError):
            mock7.complete(LlmRequest(prompt="What is the weather like?"))


_DISPATCH_PHRASES = (
    ("generate a taxonomy", "taxonomy"),
    ("please classify", "categorization"),
    ("please recommend", "recommendation"),
)
_DISPATCH_ERRORS = {
    "categorization prompt missing taxonomy or item section": "categorization",
    "mock provider does not recognize this prompt": None,
}


def _dispatched_as(provider: MockProvider, prompt: str) -> str | None:
    # No prompt drawn below has a section header line, so each branch is
    # told apart by its reply or by its error text.
    try:
        text = provider.complete(LlmRequest(prompt=prompt)).text
    except ContentError as exc:
        return _DISPATCH_ERRORS[str(exc)]
    return "taxonomy" if text.startswith("Here is a taxonomy") else "recommendation"


# Slices of the dispatch phrases in either case, among the two code points
# that lowercase to ASCII (U+0130, U+212A), other case-changing letters and
# lone surrogates.
_dispatch_prompts = st.lists(
    st.one_of(
        st.sampled_from([phrase for phrase, _ in _DISPATCH_PHRASES]).flatmap(
            lambda phrase: st.tuples(
                st.integers(0, len(phrase)), st.integers(0, len(phrase)), st.booleans()
            ).map(lambda cut: (phrase.upper() if cut[2] else phrase)[cut[0] : cut[1]])
        ),
        st.text(alphabet="\u0130\u212a\u0131\u017fiIkKsSyY \u00df\u03a3\ud800\udfff\n", max_size=6),
    ),
    min_size=1,
    max_size=8,
).map("".join).filter(bool)


class TestMockDispatch:
    @settings(max_examples=300, deadline=None)
    @given(prompt=_dispatch_prompts)
    @example(prompt="GENERATE A TAXONOMY")
    @example(prompt="please cla\u00dfify")
    @example(prompt="PLEASE CLASS\u0130FY")
    @example(prompt="please classi\u0130fy")
    @example(prompt="please recommend \u212aelvin")
    @example(prompt="\u212a\u0130 generate a taxonomy")
    def test_dispatch_matches_phrase_in_lowered_prompt(self, prompt):
        lowered = prompt.lower()
        expected = next((branch for phrase, branch in _DISPATCH_PHRASES if phrase in lowered), None)
        assert _dispatched_as(MockProvider(7), prompt) == expected


class TestMockProviderRecommendation:
    def test_plurality_vote(self, mock7):
        taxonomy_text = "genre: fiction, mystery\ntheme: power, love"
        history = "\n".join(
            [
                "genre: fiction; theme: love",
                "genre: fiction; theme: power",
                "genre: fiction; theme: power",
                "genre: mystery; theme: power",
            ]
        )
        prompt = render_recommendation_prompt("book", taxonomy_text, history, 5)
        text = mock7.complete(LlmRequest(prompt=prompt)).text
        assert "genre: fiction" in text
        assert "theme: power" in text

    def test_tie_broken_by_taxonomy_value_order(self, mock7):
        taxonomy_text = "genre: mystery, fiction"
        history = "genre: fiction\ngenre: mystery"
        prompt = render_recommendation_prompt("book", taxonomy_text, history, 5)
        text = mock7.complete(LlmRequest(prompt=prompt)).text
        assert text == "genre: mystery"

    def test_title_prefixes_ignored(self, mock7):
        taxonomy_text = "genre: fiction, mystery"
        history = "Emma — genre: fiction\n1984 — genre: fiction"
        prompt = render_recommendation_prompt("book", taxonomy_text, history, 5)
        assert mock7.complete(LlmRequest(prompt=prompt)).text == "genre: fiction"

    def test_plurality_matches_counting_oracle(self):
        rng = random.Random(11)
        provider = MockProvider(5)
        features = {"genre": ["a", "b", "c"], "theme": ["x", "y", "z"]}
        taxonomy_text = "\n".join(f"{k}: {', '.join(v)}" for k, v in features.items())
        for _ in range(50):
            history_lines = []
            votes = {name: [] for name in features}
            for _ in range(rng.randint(1, 10)):
                segments = []
                for name, values in features.items():
                    value = rng.choice(values)
                    votes[name].append(value)
                    segments.append(f"{name}: {value}")
                history_lines.append("; ".join(segments))
            prompt = render_recommendation_prompt(
                "book", taxonomy_text, "\n".join(history_lines), 5
            )
            output = dict(
                line.split(": ", 1)
                for line in provider.complete(LlmRequest(prompt=prompt)).text.splitlines()
            )
            for name, cast in votes.items():
                counts = Counter(cast)
                best = max(counts.values())
                winners = {value for value, count in counts.items() if count == best}
                # Plurality winner, ties broken by taxonomy value order.
                expected = min(winners, key=features[name].index)
                assert output[name] == expected

    def test_direct_prompt_yields_out_of_pool_titles(self, mock7):
        prompt = render_direct_recommendation_prompt("book", "Emma\n1984", 4)
        text = mock7.complete(LlmRequest(prompt=prompt)).text
        lines = text.splitlines()
        assert len(lines) == 4
        assert all("Uncharted Shelf" in line for line in lines)
        assert mock7.complete(LlmRequest(prompt=prompt)).text == text

    def test_referential_transparency_via_wrapper(self, mock7):
        counting = CountingProvider(mock7)
        prompt = render_taxonomy_prompt("book")
        first = counting.complete(LlmRequest(prompt=prompt))
        second = counting.complete(LlmRequest(prompt=prompt))
        assert first.text == second.text
        assert counting.calls == 2


_GOLDEN_TAXONOMY = "genre: fiction, mystery, fantasy\ntheme: power, love\ntone: dark, light"


def _golden_recommendation(*history: str) -> str:
    return render_recommendation_prompt("book", _GOLDEN_TAXONOMY, "\n".join(history), 5)


class TestMockProviderGolden:
    """Exact replies (text and usage) and error messages of the mock,
    pinned so that a faster reply path cannot change a byte."""

    @pytest.mark.parametrize(
        "prompt, text, usage",
        [
            pytest.param(
                # Only the first separator ends the title: "Peace — genre" is
                # not a feature, so the fantasy votes are lost.
                _golden_recommendation(
                    "War — Peace — genre: fantasy; theme: love",
                    "Anna — Karenina — genre: fantasy",
                    "Emma — genre: mystery; theme: love",
                    "Dune — genre: mystery; theme: power",
                ),
                "genre: mystery\ntheme: love",
                (70, 4),
                id="title-with-two-separators",
            ),
            pytest.param(
                _golden_recommendation(
                    "", "   ", "Emma — genre: fiction; tone: dark", "\t",
                    "1984 —  genre : fiction ;tone:light ", "", "Dune — tone: light",
                ),
                "genre: fiction\ntone: light",
                (60, 4),
                id="blank-and-whitespace-lines",
            ),
            pytest.param(
                # Stripped, these lines start with "— ", which is no separator.
                _golden_recommendation(
                    " — genre: mystery; theme: power",
                    "  — genre: mystery",
                    "\t— genre: mystery",
                    "Emma — genre: fiction",
                ),
                "genre: fiction\ntheme: power",
                (59, 4),
                id="line-starting-with-separator",
            ),
            pytest.param(
                _golden_recommendation(
                    "Emma — genre: fiction, mystery; theme: love, power",
                    "Dune — genre: fiction, mystery; theme: love",
                    "1984 — genre: fantasy; theme: power, love",
                ),
                "genre: fiction, mystery\ntheme: love",
                (66, 5),
                id="multi-valued-segments",
            ),
            pytest.param(
                # Ties go to taxonomy value order, or to the least value
                # when no tied value is in the taxonomy.
                _golden_recommendation(
                    "A — genre: fantasy; theme: love; tone: noir",
                    "B — genre: mystery; theme: power; tone: gothic",
                    "C — genre: mystery; theme: love; tone: gothic",
                    "D — genre: fantasy; theme: power; tone: noir",
                ),
                "genre: mystery\ntheme: power\ntone: gothic",
                (76, 6),
                id="plurality-ties",
            ),
            pytest.param(
                render_categorization_prompt("book", _GOLDEN_TAXONOMY, "Emma — Jane Austen"),
                "genre: mystery\ntheme: power\ntone: dark",
                (34, 6),
                id="categorization",
            ),
            pytest.param(
                render_direct_recommendation_prompt("book", "Emma\n1984", 3),
                "Uncharted Shelf Vol. 1 [2f15f7c2]\n"
                "Uncharted Shelf Vol. 2 [2f15f7c2]\n"
                "Uncharted Shelf Vol. 3 [2f15f7c2]",
                (23, 15),
                id="direct",
            ),
        ],
    )
    def test_reply(self, mock7, prompt, text, usage):
        response = mock7.complete(LlmRequest(prompt=prompt))
        assert (response.text, response.usage) == (text, usage)

    @pytest.mark.parametrize(
        "prompt, message",
        [
            pytest.param(
                _golden_recommendation("Emma — no features", "; :", "plot: heist"),
                "recommendation prompt carried an unreadable history",
                id="no-readable-segment",
            ),
            pytest.param(
                _golden_recommendation(" ", "\t"),
                "recommendation prompt missing taxonomy or history section",
                id="blank-history",
            ),
            pytest.param(
                _golden_recommendation("Emma — genre: fiction").replace("History:", "Past:"),
                "recommendation prompt missing taxonomy or history section",
                id="no-history-header",
            ),
            pytest.param(
                render_categorization_prompt("book", _GOLDEN_TAXONOMY, "x").replace("Item:\nx", "Item:\n"),
                "categorization prompt missing taxonomy or item section",
                id="empty-item",
            ),
        ],
    )
    def test_content_error(self, mock7, prompt, message):
        with pytest.raises(ContentError) as raised:
            mock7.complete(LlmRequest(prompt=prompt))
        assert str(raised.value) == message


class TestScriptedProvider:
    def test_replays_in_order_then_repeats_last(self):
        provider = ScriptedProvider(["one", "two"])
        request = LlmRequest(prompt="x")
        assert provider.complete(request).text == "one"
        assert provider.complete(request).text == "two"
        assert provider.complete(request).text == "two"
        assert len(provider.calls) == 3
