"""Free-text matching of model output against item titles.

These back the ablation that skips feature parsing and maps the raw
recommendation text onto the pool by text similarity: smoothed sentence
BLEU, ROUGE-L F1, embedding cosine, and word-bounded exact title lookup.
"""
from __future__ import annotations

import math
import re
import threading
from collections import Counter
from typing import Any, Callable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from .core import normalize_text
from .errors import ContentError, TaxRecError
from .gateway import HttpJsonClient

MATCHER_METHODS = ("taxonomy", "bleu", "rouge", "embedding", "exact_title")

# Methods that rank the raw reply text instead of a parsed feature set.
FREEFORM_METHODS = tuple(method for method in MATCHER_METHODS if method != "taxonomy")

# Highest n-gram order BLEU counts, and the width of HashEmbedder vectors.
_BLEU_ORDER = 4
_HASH_EMBEDDING_DIM = 64


def tokenize(text: str) -> list[str]:
    return normalize_text(text).split()


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


# A word character is what ``\w`` matches (alphanumeric or ``_``). The
# exact-title boundary check and the word runs a TitleTable files titles
# under both use this one pattern.
_WORD_RUN = re.compile(r"\w+")


class TitleTable(Mapping[str, str]):
    """Read-only item id -> raw title, in pool order, with each title prepared once.

    ``normalized`` holds each title's :func:`~taxrec.core.normalize_text`
    form (what ``exact_title`` matches) and ``tokens`` its word tokens (what
    ``bleu`` and ``rouge`` score), both in the same order as the ids.
    :attr:`taxrec.catalog.ItemPool.titles` builds one per pool, so a pool's
    titles are prepared once, not once per request.

    For ``exact_title``, each title is also filed under the one of its word
    runs that the fewest titles share; a non-empty title with no word run is
    always checked. At a word-bounded occurrence every word run of the title
    is a whole word run of the reply, so a reply checks only the titles
    filed under its own runs, and every other title scores 0.0.
    """

    __slots__ = ("_titles", "normalized", "tokens", "_by_run", "_always")

    def __init__(self, titles: Mapping[str, str]) -> None:
        self._titles = dict(titles)
        self.normalized = tuple(map(normalize_text, self._titles.values()))
        self.tokens = tuple(tuple(title.split()) for title in self.normalized)
        runs = [_WORD_RUN.findall(title) for title in self.normalized]
        shared = Counter(run for title_runs in runs for run in set(title_runs))
        self._by_run: dict[str, list[int]] = {}
        self._always: list[int] = []
        for position, (title, title_runs) in enumerate(zip(self.normalized, runs)):
            if title_runs:
                rarest = min(title_runs, key=shared.__getitem__)
                self._by_run.setdefault(rarest, []).append(position)
            elif title:
                self._always.append(position)

    def exact_title_scores(self, text: str) -> list[float]:
        """:func:`exact_title_score` of every title against ``text``, in pool order."""
        haystack = normalize_text(text)
        score = _exact_title_against(haystack)
        scores = [0.0] * len(self.normalized)
        filed = self._by_run
        for positions in [self._always] + [
            filed[run] for run in set(_WORD_RUN.findall(haystack)) if run in filed
        ]:
            for position in positions:
                scores[position] = score(self.normalized[position])
        return scores

    def __getitem__(self, item_id: str) -> str:
        return self._titles[item_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._titles)

    def __len__(self) -> int:
        return len(self._titles)

    def __repr__(self) -> str:
        return f"TitleTable({self._titles!r})"


# Each ``_*_against(text)`` reads the reply once and returns the per-title
# scorer, so scoring a pool prepares the reply once per request. A scorer
# takes the prepared title (its tokens, or its normalized form for
# ``exact_title``), which a :class:`TitleTable` holds once per pool. The
# public per-title functions are the one-title case. ``exact_title`` takes
# the reply already normalized, since a TitleTable also reads its word runs.


def _bleu_against(reference: str) -> Callable[[Sequence[str]], float]:
    ref = tokenize(reference)
    ref_counts = [_ngram_counts(ref, n) for n in range(1, _BLEU_ORDER + 1)]

    def score(cand: Sequence[str]) -> float:
        if not cand or not ref:
            return 0.0
        order = min(_BLEU_ORDER, len(cand))
        log_sum = 0.0
        for n in range(1, order + 1):
            cand_counts = _ngram_counts(cand, n)
            ref_n = ref_counts[n - 1]
            clipped = sum(min(count, ref_n[gram]) for gram, count in cand_counts.items())
            total = max(1, len(cand) - n + 1)
            if clipped == 0:
                precision = 0.1 / total
            else:
                precision = clipped / total
            log_sum += math.log(precision)
        geometric_mean = math.exp(log_sum / order)
        if len(cand) >= len(ref):
            brevity_penalty = 1.0
        else:
            brevity_penalty = math.exp(1.0 - len(ref) / len(cand))
        return brevity_penalty * geometric_mean

    return score


def bleu_score(candidate: str, reference: str) -> float:
    """Smoothed sentence-level BLEU of ``candidate`` against ``reference``.

    Uniform weights over orders 1..min(4, |candidate|); zero precisions are
    smoothed by adding 0.1 to the numerator, so identical strings score
    exactly 1.0 at any length.
    """
    return _bleu_against(reference)(tokenize(candidate))


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for token_a in a:
        current = [0]
        for j, token_b in enumerate(b, start=1):
            if token_a == token_b:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


def _rouge_against(reference: str) -> Callable[[Sequence[str]], float]:
    ref = tokenize(reference)

    def score(cand: Sequence[str]) -> float:
        lcs = _lcs_length(cand, ref)
        if lcs == 0:
            return 0.0
        precision = lcs / len(cand)
        recall = lcs / len(ref)
        return 2.0 * precision * recall / (precision + recall)

    return score


def rouge_l_f1(candidate: str, reference: str) -> float:
    """ROUGE-L F1 (longest common subsequence over word tokens)."""
    return _rouge_against(reference)(tokenize(candidate))


def _exact_title_against(haystack: str) -> Callable[[str], float]:
    end = len(haystack)
    # Truthy when the character at the position is a word character.
    is_word_char = _WORD_RUN.match

    def score(needle: str) -> float:
        if not needle or needle not in haystack:
            return 0.0
        start = haystack.find(needle)
        while start != -1:
            stop = start + len(needle)
            if (start == 0 or not is_word_char(haystack, start - 1)) and (
                stop == end or not is_word_char(haystack, stop)
            ):
                return 1.0
            start = haystack.find(needle, start + 1)
        return 0.0

    return score


def exact_title_score(title: str, text: str) -> float:
    """1.0 if the normalized title occurs in the normalized text on word boundaries.

    An occurrence counts only when the characters on either side of it are
    not word characters (alphanumeric or ``_``) or are the ends of the text.
    """
    return _exact_title_against(normalize_text(text))(normalize_text(title))


class Embedder(Protocol):
    """Maps texts to fixed-width vectors."""

    def embed(self, texts: Sequence[str]) -> list[list[float]]: ...


class HttpEmbedder(HttpJsonClient):
    """Embeddings over HTTP+JSON: POST ``{model, input}`` to ``<base>/embeddings``.

    Responses follow the usual ``{"data": [{"embedding": [...]}]}`` shape.
    Vectors are memoized per input text. Retries and typed errors are
    :class:`~taxrec.gateway.HttpJsonClient`'s.
    """

    def __init__(
        self,
        base_url: str,
        model_name: str = "default",
        api_key: str | None = None,
        *,
        session: Any = None,
    ) -> None:
        super().__init__(base_url, model_name, api_key, session=session)
        self._cache: dict[str, list[float]] = {}
        self._lock = threading.Lock()

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        with self._lock:
            missing = [t for t in texts if t not in self._cache]
        if missing:
            data = self.post("/embeddings", {"model": self.model_name, "input": missing})
            try:
                vectors = [row["embedding"] for row in data["data"]]
            except (KeyError, IndexError, TypeError) as exc:
                raise ContentError(f"malformed embedder response: {exc}")
            if len(vectors) != len(missing):
                raise ContentError("embedder returned wrong number of vectors")
            with self._lock:
                self._cache.update(zip(missing, vectors))
        with self._lock:
            return [list(self._cache[t]) for t in texts]


class HashEmbedder:
    """Deterministic token-hash embeddings, for tests and offline runs.

    Not semantic: each token maps to a pseudo-random unit direction, and a
    text embeds to the normalized sum of its token vectors. Shared tokens
    yield similarity; nothing more is claimed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def _token_vector(self, token: str) -> np.ndarray:
        import hashlib

        digest = hashlib.sha256(f"{self.seed}|{token}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        vector = rng.standard_normal(_HASH_EMBEDDING_DIM)
        return vector / np.linalg.norm(vector)

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        vectors = []
        for text in texts:
            tokens = tokenize(text)
            if not tokens:
                vectors.append([0.0] * _HASH_EMBEDDING_DIM)
                continue
            total = np.sum([self._token_vector(t) for t in tokens], axis=0)
            norm = np.linalg.norm(total)
            if norm > 0:
                total = total / norm
            vectors.append(total.tolist())
        return vectors


def cosine_similarity(u: Sequence[float], v: Sequence[float]) -> float:
    a = np.asarray(u, dtype=float)
    b = np.asarray(v, dtype=float)
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b) / denom)


def score_titles_against_text(
    titles: Mapping[str, str],
    text: str,
    method: str,
    embedder: Embedder | None = None,
) -> list[tuple[str, float]]:
    """Score every (item id, title) against free text with the given method.

    Returns one (id, score) per item in input order; ranking and tie-breaks
    happen downstream. The string matchers read the titles prepared by a
    :class:`TitleTable` (such as ``ItemPool.titles``); any other mapping is
    wrapped in one for this call.
    """
    if method not in FREEFORM_METHODS:
        raise ValueError(f"unknown free-text matcher {method!r}; expected one of {FREEFORM_METHODS}")
    if method == "embedding":
        if embedder is None:
            raise TaxRecError("embedding matcher requires a configured embedder")
        ids = list(titles)
        vectors = embedder.embed([titles[i] for i in ids] + [text])
        text_vector = vectors[-1]
        return [(item_id, cosine_similarity(vec, text_vector)) for item_id, vec in zip(ids, vectors)]
    if not isinstance(titles, TitleTable):
        titles = TitleTable(titles)
    if method == "bleu":
        scores = map(_bleu_against(text), titles.tokens)
    elif method == "rouge":
        scores = map(_rouge_against(text), titles.tokens)
    else:
        scores = titles.exact_title_scores(text)
    return list(zip(titles, scores))
