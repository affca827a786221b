"""Shared domain vocabulary: items, taxonomies, feature pairs, histories, rankings.

Everything here is immutable after construction and safe to share across
threads; a value derived from immutable fields may be cached on first use.
Text normalization is centralized in :func:`normalize_text` so that
feature-pair intersection is well-defined over free-form LLM output.
"""
from __future__ import annotations

import string
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Mapping, Sequence

# Characters stripped from the ends of a normalized string. Plain ASCII
# punctuation plus the common curly quotes LLMs like to emit.
_STRIP_CHARS = string.punctuation + string.whitespace + "‘’“”«»"


def normalize_text(raw: str) -> str:
    """Normalize free text for exact matching.

    Lowercases, trims, collapses internal whitespace runs to single spaces,
    and strips surrounding punctuation/quote characters. Idempotent:
    ``normalize_text(normalize_text(x)) == normalize_text(x)``.
    """
    lowered = raw.lower()
    collapsed = " ".join(lowered.split())
    return collapsed.strip(_STRIP_CHARS)


@dataclass(frozen=True)
class Item:
    """A catalog item: an opaque id plus its raw (possibly ambiguous) title."""

    id: str
    title: str
    extra: Mapping[str, str] | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("item id must be non-empty")


@dataclass(frozen=True)
class Feature:
    """One taxonomy feature: a normalized name and its ordered value list."""

    name: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"feature {self.name!r} has no values")
        # Shared from here, so a truncated Taxonomy, which keeps its
        # Feature objects, adds nothing.
        for value in self.values:
            try:
                pair = FeaturePair(self.name, value)
            except ValueError:
                continue  # no pool or reply can hold such a pair
            _TAXONOMY_PAIRS.setdefault(pair, pair)


@dataclass(frozen=True)
class Taxonomy:
    """Flat feature dictionary for one domain.

    Feature order is preserved from generation; truncation and prompt
    rendering both rely on it.
    """

    domain_label: str
    features: tuple[Feature, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.features]
        if len(names) != len(set(names)):
            raise ValueError("duplicate feature names after normalization")

    @cached_property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @cached_property
    def prompt_text(self) -> str:
        """Canonical rendering: one ``name: v1, v2`` line per feature, in order.

        Rendered on first use and kept, so every prompt that embeds this
        taxonomy reuses one string.
        """
        return "\n".join(f"{f.name}: {', '.join(f.values)}" for f in self.features)


# The (feature, value) pairs of every taxonomy Feature built, each held
# once. It grows with taxonomies built, never with requests or replies: a
# pair outside every taxonomy is built anew and not added. It stays beside
# the per-taxonomy pair table because pairs built by hand, as a benchmark
# pool's are, share the taxonomy's objects through it: without it, building
# 50,000 such pairs made 50,000 more GC-tracked tuples, and GC traversal
# added about 60% to the pool's build (44 -> 71 ms, 2 vCPUs).
_TAXONOMY_PAIRS: dict[tuple[str, str], FeaturePair] = {}


class FeaturePair(tuple):
    """A normalized (feature name, value) pair.

    A 2-tuple, so hashing, equality and ordering (by key, then value) run
    in C, and a pair compares equal to the plain tuple ``(key, value)``.
    A pair of a taxonomy built in this process is one shared object: the
    constructor returns it from :data:`_TAXONOMY_PAIRS`.
    """

    __slots__ = ()

    def __new__(cls, key: str, value: str) -> FeaturePair:
        if not (isinstance(key, str) and isinstance(value, str) and key and value):
            raise ValueError("feature pair key and value must be non-empty strings")
        shared = _TAXONOMY_PAIRS.get((key, value))
        return shared if shared is not None else tuple.__new__(cls, (key, value))

    key = property(itemgetter(0), doc="The feature name.")
    value = property(itemgetter(1), doc="The feature value.")

    def __getnewargs__(self) -> tuple[str, str]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"FeaturePair(key={self[0]!r}, value={self[1]!r})"


@dataclass(frozen=True)
class CategorizedItem:
    """An item plus its categorizer-assigned feature pairs; its pool, not the item, keeps its prompt lines."""

    item: Item
    pairs: frozenset[FeaturePair]


@dataclass(frozen=True)
class FeatureSet:
    """Feature pairs parsed from a recommendation response.

    ``raw_text`` keeps the unparsed output verbatim for free-text matching
    and audit.
    """

    pairs: frozenset[FeaturePair]
    raw_text: str


@dataclass(frozen=True)
class InteractionSequence:
    """One evaluation instance: a user's padded history and the held-out target.

    The sequence builders pad ``history`` to
    :data:`taxrec.evaluation.HISTORY_LENGTH` (10) items, so duplicated
    entries are expected; the target never appears in the history.
    """

    user_id: str
    history: tuple[Item, ...]
    target: Item

    def __post_init__(self) -> None:
        if not self.history:
            raise ValueError("history must be non-empty")
        if any(h.id == self.target.id for h in self.history):
            raise ValueError(f"target {self.target.id!r} appears in history")


@dataclass(frozen=True)
class RankedList:
    """Scored top-k items, sorted by score descending with id tie-break."""

    entries: tuple[tuple[str, float], ...]
    k: int

    def __post_init__(self) -> None:
        ids = [item_id for item_id, _ in self.entries]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate item ids in ranked list")
        if len(self.entries) > self.k:
            raise ValueError("ranked list longer than requested depth")
        scores = [score for _, score in self.entries]
        if any(earlier < later for earlier, later in zip(scores, scores[1:])):
            raise ValueError("ranked list scores must be non-increasing")

    @property
    def item_ids(self) -> tuple[str, ...]:
        return tuple(item_id for item_id, _ in self.entries)

    def rank_of(self, item_id: str) -> int | None:
        """1-based rank of ``item_id``, or None if absent."""
        for rank, (candidate, _) in enumerate(self.entries, start=1):
            if candidate == item_id:
                return rank
        return None


def rank_scores(scores: Sequence[tuple[str, float]], k: int) -> RankedList:
    """Turn per-item scores into a RankedList.

    Ties are broken by ascending item id so that ranking is a total order
    and re-runs are byte-identical.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # Two stable sorts on C keys: by id, then by score descending. For
    # finite scores this is the order of the key (-score, id).
    ordered = sorted(scores, key=itemgetter(0))
    ordered.sort(key=itemgetter(1), reverse=True)
    return RankedList(entries=tuple(ordered[:k]), k=k)


def pair_set_intersection_size(
    a: frozenset[FeaturePair] | set[FeaturePair],
    b: frozenset[FeaturePair] | set[FeaturePair],
) -> int:
    """Size of the intersection of two feature-pair sets.

    Equality is exact (key, value) string equality; both inputs are assumed
    normalized. This is the core ranking score. The set intersection runs
    in C over the smaller set, with the stored hashes.
    """
    return len(a & b)
