"""The recommendation phase: categorized history in, ranked items out.

Maps a user's history onto the categorized pool, prompts the model for a
feature-formatted recommendation, parses it into a feature set, and ranks
the pool by feature intersection through the pool's inverted index, built
once per pool. Only the items scoring at least the k-th largest score are
ranked; no other item can reach the top k. All ablation switches (taxonomy
off, free-text matchers, title toggles) live here.
"""
from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import gateway
from ._textparse import iter_content_lines
from .catalog import CategorizedPool, ItemPool, canonical_pairs, filter_pairs
from .core import (
    CategorizedItem,
    FeaturePair,
    FeatureSet,
    InteractionSequence,
    Item,
    RankedList,
    Taxonomy,
    normalize_text,
    rank_scores,
)
from .errors import ParseError, TaxRecError, stage
from .matchers import Embedder, MATCHER_METHODS, score_titles_against_text
from .taxonomy import taxonomy_to_prompt_text, truncate_features

# Reserved key for title lines when recommendations carry titles.
TITLE_KEY = "title"


@dataclass(frozen=True)
class RecommendConfig:
    """Switches for the recommendation pipeline and its ablations."""

    k: int = 10
    history_with_titles: bool = True
    recommend_with_titles: bool = False
    matcher: str = "taxonomy"
    taxonomy_feature_count: int = 10
    use_taxonomy: bool = True

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.taxonomy_feature_count < 1:
            raise ValueError("taxonomy_feature_count must be >= 1")
        if self.matcher not in MATCHER_METHODS:
            raise ValueError(f"unknown matcher {self.matcher!r}; expected one of {MATCHER_METHODS}")
        if not self.use_taxonomy and self.matcher not in ("exact_title", "embedding"):
            raise ValueError(
                "without a taxonomy there is no feature set to intersect; "
                "matcher must be 'exact_title' or 'embedding'"
            )


@dataclass(frozen=True)
class Recommendation:
    """Ranked output plus the artifacts needed for audit."""

    ranked: RankedList
    feature_set: FeatureSet
    prompt_text: str
    raw_output: str


def categorize_history(
    history: Sequence[Item], pool: CategorizedPool
) -> list[CategorizedItem]:
    """Order-preserving lookup of history items in the categorized pool, one per item."""
    entries = pool.entries
    try:
        return [entries[item.id] for item in history]
    except KeyError:
        missing = sorted({item.id for item in history if item.id not in entries})
        raise TaxRecError(f"history items not in categorized pool: {', '.join(missing)}") from None


def _history_line(title: str, pairs: Iterable[FeaturePair], names: tuple[str, ...], titled: bool) -> str:
    """One history item's prompt line over the feature list ``names``; "" when it shows nothing."""
    by_key: dict[str, list[str]] = {}
    for key, value in pairs:
        by_key.setdefault(key, []).append(value)
    text = "; ".join([f"{name}: {', '.join(sorted(by_key[name]))}" for name in names if name in by_key])
    if titled:
        return f"{title}{gateway.TITLE_SEPARATOR}{text}" if text else title
    return text


def history_to_prompt_text(
    hc: Sequence[CategorizedItem], cfg: RecommendConfig, taxonomy: Taxonomy
) -> str:
    """One line per history item, pairs ordered by taxonomy feature order.

    With titles: ``Title — key: v1, v2; key: v3``, values sorted; without,
    the feature list alone. Pairs outside the (possibly truncated) taxonomy
    and empty lines are left out. ``recommend`` renders the same lines into
    the pool's line table, once per pool item, feature list and title setting.
    """
    names, titled = taxonomy.feature_names, cfg.history_with_titles
    return "\n".join(filter(None, [_history_line(c.item.title, c.pairs, names, titled) for c in hc]))


def _history_lines(
    history: Sequence[Item], pool: CategorizedPool, names: tuple[str, ...], titled: bool
) -> list[str]:
    """Each history item's line from the pool's line table, rendered from its pair ids on first use."""
    key = (names, titled)
    # setdefault, atomic on a dict, gives racing threads one table; racing on a slot, they store equal lines.
    table = pool.indexes.get(key) or pool.indexes.setdefault(key, [None] * len(pool.pool.items))
    positions, entries = pool.pool.positions, pool.entries
    lines = []
    for item in history:
        position = positions.get(item.id)
        line = None if position is None else table[position]
        if line is None:
            if item.id not in entries:
                categorize_history(history, pool)  # raises, naming every missing item
            pairs = map(entries.pairs.__getitem__, entries.pair_ids_at(position))
            line = table[position] = _history_line(pool.pool.items[position].title, pairs, names, titled)
        lines.append(line)
    return lines


def parse_feature_output(s: str, t: Taxonomy, cfg: RecommendConfig) -> FeatureSet:
    """Parse the model's recommendation text into a feature set.

    Key-value lines (bulleted, numbered, multi-valued, or embedded JSON)
    are kept when the key is a taxonomy feature. When recommendations carry
    titles, colon-free lines become pairs under the reserved ``title`` key.
    The raw text is preserved verbatim.

    A reply made only of the taxonomy's canonical ``name: value`` lines
    (the format the prompt asks for) is answered by the taxonomy's reply
    table (:func:`catalog.canonical_pairs`); such a reply has no title
    lines. Any other reply goes through :func:`catalog.filter_pairs`, with
    the same result.
    """
    pairs = canonical_pairs(s, t)
    if pairs is None:
        allowed = set(t.feature_names)
        if cfg.recommend_with_titles:
            allowed.add(TITLE_KEY)
        pairs = filter_pairs(s, allowed)
        if cfg.recommend_with_titles:
            titles = set()
            for line in iter_content_lines(s):
                if ":" in line:
                    continue
                title = normalize_text(line)
                if title:
                    titles.add(FeaturePair(TITLE_KEY, title))
            if titles:
                pairs = pairs | titles
    if not pairs:
        raise ParseError("no feature pairs parsed from recommendation output", raw_text=s)
    return FeatureSet(pairs=pairs, raw_text=s)


@dataclass(frozen=True)
class PoolIndex:
    """Inverted index over one pool: feature pair -> positions of the items carrying it."""

    postings: Mapping[FeaturePair, np.ndarray]  # int32 pool positions, ascending
    item_ids: np.ndarray  # object array of ids, in pool order
    # The floats 0.0, 1.0, ... up to the most pairs one item posts, as an
    # object array: every score this pool can take, shared by every request.
    scores: np.ndarray


_NO_HITS = np.empty(0, dtype=np.int32)
# Guards the first build of an index; later calls read it without the lock.
_build_lock = threading.Lock()


def build_pool_index(pool: CategorizedPool, *, include_titles: bool = False) -> PoolIndex:
    """The pool's index for one title setting, built on the first call and kept on the pool.

    With ``include_titles``, every pool item also posts a ``title`` pair so
    title-carrying recommendations can match through the same scorer. An
    item posts each pair once, even if it was also categorized with it.
    Later calls, from any thread, return the same object.
    """
    index = pool.indexes.get(include_titles)
    if index is None:
        with _build_lock:
            index = pool.indexes.get(include_titles)
            if index is None:
                index = pool.indexes[include_titles] = _build_index(pool, include_titles)
    return index


def _build_index(pool: CategorizedPool, include_titles: bool) -> PoolIndex:
    entries = pool.entries
    pair_ids = entries.pair_ids
    # One stable sort of the pool's pair ids lists each pair's items in
    # pool order; cutting it where each id starts gives its postings.
    order = np.argsort(pair_ids, kind="stable")
    lengths = np.diff(entries.offsets)
    positions = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)[order]
    cuts = np.searchsorted(pair_ids[order], np.arange(len(entries.pairs) + 1)).tolist()
    postings = {
        pair: positions[start:end]
        for pair, start, end in zip(entries.pairs, cuts, cuts[1:])
        if start < end
    }
    if include_titles:
        titled: defaultdict[FeaturePair, list[int]] = defaultdict(list)
        for position, item in enumerate(pool.pool.items):
            title = normalize_text(item.title)
            if title:
                titled[FeaturePair(TITLE_KEY, title)].append(position)
        for pair, at in titled.items():
            if pair in postings:  # an item categorized with its own title pair posts it once
                at = sorted(set(at).union(postings[pair].tolist()))
            postings[pair] = np.array(at, dtype=np.int32)
    counts = np.bincount(np.concatenate([_NO_HITS, *postings.values()]), minlength=len(pool.pool.items))
    return PoolIndex(
        postings=postings,
        item_ids=np.array([item.id for item in pool.pool.items], dtype=object),
        scores=np.array([float(count) for count in range(counts.max() + 1)], dtype=object),
    )


def score_pool(
    f: FeatureSet, pool: CategorizedPool, *, include_titles: bool = False, k: int | None = None
) -> list[tuple[str, float]]:
    """Score the pool items that can reach the top ``k`` by feature intersection with ``f``.

    Counts the pool's index postings of each pair in ``f`` with one
    ``np.bincount``, so cost scales with |f| times posting-list length plus
    one pass over the pool. Scores equal the naive per-item
    :func:`pair_set_intersection_size` scorer exactly.

    The cut is the k-th largest count (0 when ``k`` is None or at least the
    pool size), and every item scoring at least the cut is returned as
    (item_id, score) in pool order. It is exact for a top-k ranking: an
    item left out scores strictly below k others, and every tie at the cut
    is kept, so :func:`rank_scores` breaks it by id as it would on the
    whole pool.
    """
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    index = build_pool_index(pool, include_titles=include_titles)
    postings = index.postings
    hits = [postings[pair] for pair in f.pairs if pair in postings]
    n = len(index.item_ids)
    counts = np.bincount(np.concatenate(hits or [_NO_HITS]), minlength=n)
    cut = 0
    if k is not None and k < n:  # the k-th largest count, off the score histogram (<= |f| + 1 levels)
        covered = np.bincount(counts)[::-1].cumsum()
        cut = len(covered) - 1 - int(covered.searchsorted(k))
    kept = np.flatnonzero(counts >= cut)
    return list(zip(index.item_ids[kept].tolist(), index.scores[counts[kept]].tolist()))


def _direct_history_text(history: Sequence[Item]) -> str:
    return "\n".join(item.title for item in history)


def recommend(
    provider: gateway.Provider,
    sequence: InteractionSequence,
    pool: CategorizedPool,
    t: Taxonomy | None,
    cfg: RecommendConfig,
    *,
    domain_label: str | None = None,
    embedder: Embedder | None = None,
) -> Recommendation:
    """Run the full recommendation pipeline for one user sequence.

    With the taxonomy enabled: truncate features, look up the categorized
    history, prompt, parse the feature set, and rank by intersection (or by
    a free-text matcher for the matching ablation). With the taxonomy
    disabled (``t`` may be None): send raw titles and map the free-text
    reply onto the pool. The target item is never given to the model.
    """
    domain = domain_label or pool.pool.domain_label or "item"

    if not cfg.use_taxonomy:
        return recommend_direct(provider, sequence, pool.pool, cfg, domain, embedder)

    with stage("truncate_taxonomy"):
        if t is None:
            raise ValueError("taxonomy required when use_taxonomy is on")
        truncated = truncate_features(t, cfg.taxonomy_feature_count)
    with stage("categorize_history"):
        lines = _history_lines(sequence.history, pool, truncated.feature_names, cfg.history_with_titles)
    with stage("render_prompt"):
        prompt = gateway.render_recommendation_prompt(
            domain, taxonomy_to_prompt_text(truncated), "\n".join(filter(None, lines)), cfg.k
        )

    answered = False

    def parse(text: str) -> FeatureSet:
        nonlocal answered
        answered = True
        try:
            return parse_feature_output(text, truncated, cfg)
        except ParseError:
            if cfg.matcher == "taxonomy":
                raise
            # Free-text matchers rank the raw text; no feature set is needed.
            return FeatureSet(pairs=frozenset(), raw_text=text)

    # A failure before any reply is the provider's; once a reply came back,
    # a failed parse or re-ask belongs to parsing.
    with stage("complete"):
        try:
            feature_set = gateway.ask(
                provider, gateway.LlmRequest(prompt=prompt), parse, reminder=gateway.LINE_REMINDER
            )
        except Exception:
            if not answered:
                raise
            with stage("parse_output"):
                raise

    with stage("match"):
        if cfg.matcher == "taxonomy":
            scores = score_pool(
                feature_set, pool, include_titles=cfg.recommend_with_titles, k=cfg.k
            )
        else:
            scores = score_titles_against_text(
                pool.pool.titles, feature_set.raw_text, cfg.matcher, embedder, k=cfg.k
            )
    ranked = rank_scores(scores, cfg.k)
    return Recommendation(
        ranked=ranked, feature_set=feature_set, prompt_text=prompt, raw_output=feature_set.raw_text
    )


def recommend_direct(
    provider: gateway.Provider,
    sequence: InteractionSequence,
    pool: ItemPool,
    cfg: RecommendConfig,
    domain: str,
    embedder: Embedder | None,
) -> Recommendation:
    """The taxonomy-free path: raw history titles in, free-text matching out.

    The reply is mapped onto the pool with ``cfg.matcher``; an out-of-pool
    reply scores nothing, it can never inject an unknown item id.
    """
    with stage("render_prompt"):
        prompt = gateway.render_direct_recommendation_prompt(
            domain, _direct_history_text(sequence.history), cfg.k
        )
    with stage("complete"):
        response = provider.complete(gateway.LlmRequest(prompt=prompt))
    with stage("match"):
        scores = score_titles_against_text(pool.titles, response.text, cfg.matcher, embedder, k=cfg.k)
    ranked = rank_scores(scores, cfg.k)
    return Recommendation(
        ranked=ranked,
        feature_set=FeatureSet(pairs=frozenset(), raw_text=response.text),
        prompt_text=prompt,
        raw_output=response.text,
    )
