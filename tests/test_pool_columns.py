"""A categorized pool kept as pair-id columns behaves as the mapping it was given.

``CategorizedPool.entries`` stores a pool's categorizations as a vocabulary,
``offsets`` and ``pair_ids`` in pool order, and builds an item's
``CategorizedItem`` only when it is looked up. The properties below build
pools from random mappings and from random caches, and compare them with
the plain dict and with the per-item index loop the columns replaced.
"""
from __future__ import annotations

import gc
import io
import json
import sys
import threading
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
from hypothesis import given, settings, strategies as st

from taxrec import catalog
from taxrec.catalog import CategorizedPool, ItemPool, _append_cache_record
from taxrec.core import CategorizedItem, Feature, FeaturePair, Item, Taxonomy, normalize_text
from taxrec.gateway import MockProvider
from taxrec.recommender import TITLE_KEY, build_pool_index
from taxrec.synthetic import make_synthetic_dataset
from taxrec.taxonomy import generate_taxonomy

_FINGERPRINT = "fp0"
_TAXONOMY = Taxonomy(
    domain_label="book",
    features=(Feature("genre", ("fiction", "mystery", "emma")), Feature("tone", ("dark", "light"))),
)
_IN_LIST = [FeaturePair(f.name, value) for f in _TAXONOMY.features for value in f.values]
# In-list pairs, values outside the lists, and title pairs, which an
# index with titles also posts.
_PAIRS = st.one_of(
    st.sampled_from(_IN_LIST),
    st.builds(
        FeaturePair, st.sampled_from(["genre", "tone", TITLE_KEY]), st.sampled_from(["x", "y", "emma"])
    ),
)
_TITLES = st.sampled_from(["Emma", " emma!", "X", "?!"])


@st.composite
def pools(draw, allow_empty_pairs: bool = True) -> tuple[ItemPool, dict[str, CategorizedItem]]:
    """An item pool and entries for some of its items, in an order of their own."""
    ids = draw(st.lists(st.text("ab1", min_size=1, max_size=3), min_size=1, max_size=10, unique=True))
    pool = ItemPool("book", tuple(Item(id=item_id, title=draw(_TITLES)) for item_id in ids))
    min_size = 0 if allow_empty_pairs else 1
    entries = {}
    for item in draw(st.permutations(pool.items)):
        if draw(st.booleans()):  # else the item has no entry
            pairs = draw(st.frozensets(_PAIRS, min_size=min_size, max_size=5))
            entries[item.id] = CategorizedItem(item, pairs)
    return pool, entries


def assert_same_mapping(cpool: CategorizedPool, expected: dict[str, CategorizedItem]) -> None:
    entries = cpool.entries
    assert dict(entries) == expected
    assert len(entries) == len(expected)
    assert list(entries) == [item.id for item in cpool.pool.items if item.id in expected]
    for item in cpool.pool.items:
        assert (item.id in entries) == (item.id in expected)
    assert "not an id" not in entries
    vocabulary = {pair: pair for pair in entries.pairs}
    assert len(vocabulary) == len(entries.pairs)
    for entry in entries.values():
        assert all(pair is vocabulary[pair] for pair in entry.pairs)


@settings(max_examples=300, deadline=None)
@given(pools())
def test_constructor_round_trips_a_mapping(drawn):
    pool, entries = drawn
    cpool = CategorizedPool(taxonomy_ref=("t", 2), entries=entries, coverage=1.0, pool=pool)
    assert_same_mapping(cpool, entries)
    for item_id in entries:
        assert cpool.entries[item_id] is cpool.entries[item_id]


@settings(max_examples=200, deadline=None)
@given(pools(allow_empty_pairs=False), st.data())
def test_cache_with_duplicate_records_loads_its_last_records(tmp_path_factory, drawn, data):
    pool, entries = drawn
    handle = io.StringIO()
    for item_id, entry in entries.items():
        # An earlier record for the item, which the last one overrides.
        if data.draw(st.booleans()):
            earlier = data.draw(st.frozensets(_PAIRS, min_size=1, max_size=5))
            _append_cache_record(handle, item_id, _FINGERPRINT, CategorizedItem(entry.item, earlier), "r")
        if data.draw(st.booleans()):
            _append_cache_record(handle, item_id, _FINGERPRINT, entry, "r")
        else:
            # A record listing each pair twice, in the writer's layout.
            pairs = [{"key": key, "value": value} for key, value in sorted(entry.pairs) for _ in (0, 1)]
            record = {"item_id": item_id, "pairs": pairs, "raw_text": "r", "taxonomy_fingerprint": _FINGERPRINT}
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    path = tmp_path_factory.mktemp("cache") / "items.jsonl"
    path.write_text(handle.getvalue(), encoding="utf-8")
    loaded = catalog._load_cached_entries(path, _FINGERPRINT, pool, _TAXONOMY).finish()
    cpool = CategorizedPool(("t", 2), loaded, 1.0, pool)
    assert_same_mapping(cpool, entries)
    postings = build_pool_index(cpool).postings
    assert {pair: at.tolist() for pair, at in postings.items()} == reference_postings(cpool, False)


def test_threads_racing_on_lookups_share_one_object_per_item():
    items = tuple(Item(id=f"i{n:03d}", title="t") for n in range(300))
    entries = {
        item.id: CategorizedItem(item, frozenset({_IN_LIST[n % len(_IN_LIST)]}))
        for n, item in enumerate(items)
    }
    cpool = CategorizedPool(("t", 2), entries, 1.0, ItemPool("book", items))
    seen: list[list[CategorizedItem]] = []

    def look_up() -> None:
        seen.append([cpool.entries[item.id] for item in items])

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=look_up) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8
    for found in seen[1:]:
        assert all(a is b for a, b in zip(found, seen[0]))
    assert seen[0] == [entries[item.id] for item in items]


def reference_postings(cpool: CategorizedPool, include_titles: bool) -> dict[FeaturePair, list[int]]:
    """The index's postings as the per-item loop before the columns built them."""
    positions: defaultdict[FeaturePair, list[int]] = defaultdict(list)
    for position, item in enumerate(cpool.pool.items):
        categorized = cpool.entries.get(item.id)
        pairs = categorized.pairs if categorized is not None else frozenset()
        if include_titles:
            title = normalize_text(item.title)
            if title:
                pairs = pairs | {FeaturePair(TITLE_KEY, title)}
        for pair in pairs:
            positions[pair].append(position)
    return dict(positions)


@settings(max_examples=300, deadline=None)
@given(pools(), st.booleans())
def test_index_postings_equal_the_per_item_loop(drawn, include_titles):
    pool, entries = drawn
    cpool = CategorizedPool(taxonomy_ref=("t", 2), entries=entries, coverage=1.0, pool=pool)
    index = build_pool_index(cpool, include_titles=include_titles)
    expected = reference_postings(cpool, include_titles)
    assert {pair: at.tolist() for pair, at in index.postings.items()} == expected
    assert all(at.dtype == np.int32 for at in index.postings.values())
    posted = Counter(position for at in expected.values() for position in at)
    assert index.scores.tolist() == [float(count) for count in range(max(posted.values(), default=0) + 1)]


def test_warm_pool_builds_no_item_and_keeps_under_100_bytes_per_item(tmp_path, monkeypatch):
    n_items = 20_000
    pool, _ = make_synthetic_dataset(n_items=n_items, seed=3)
    provider = MockProvider(3)
    taxonomy = generate_taxonomy(provider, pool.domain_label, None).taxonomy
    catalog.categorize_pool(provider, pool, taxonomy, tmp_path, max_workers=2)
    # The item pool's own lookup table is built once per item pool, for
    # every categorized pool over it; it is not counted.
    pool.positions

    def refuse(*args, **kwargs):
        raise AssertionError("a CategorizedItem was built")

    monkeypatch.setattr(catalog, "CategorizedItem", refuse)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        warm = catalog.categorize_pool(provider, pool, taxonomy, tmp_path, max_workers=2)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert len(warm.entries) == n_items
    assert retained / n_items <= 100, f"{retained / n_items:.1f} bytes per item"
    first = warm.entries[pool.items[0].id]
    assert first.item is pool.items[0] and first.pairs
