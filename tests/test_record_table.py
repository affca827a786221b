"""A warm cache load gives what decoding every line gives.

``catalog._load_cached_entries`` reads a line laid out as the writer lays it
out through the taxonomy's table of pair texts, and decodes every other
line, writing pair ids into the pool's columns. The property below loads
generated caches with it and with the plain ``raw_decode`` loop it
replaced, and compares the materialized entries; each materialized pair
must be the pool vocabulary's own object.
"""
from __future__ import annotations

import io
import json
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from taxrec import catalog
from taxrec.catalog import ItemPool, _append_cache_record
from taxrec.core import CategorizedItem, Feature, FeaturePair, Item, Taxonomy

_FINGERPRINT = "fp0"

# Text mixing plain words with JSON's quote and escape characters, an
# escape sequence as plain text, the record layout's own separators,
# non-ASCII letters and a control character.
_PIECES = st.sampled_from([
    "a", "b", "x1", "é", "日", " ", '"', "\\", "\\u00e9", "{", "}", "}, {", "\t",
    '", "pairs": [{', '}], "raw_text": "', '"key": ', ', "value": ',
])
_TEXT = st.lists(_PIECES, min_size=1, max_size=4).map("".join)
_PLAIN = st.sampled_from(["a", "b", "x1", "s0001", "fiction", "love story"])


def mostly(usual: st.SearchStrategy, rare: st.SearchStrategy) -> st.SearchStrategy:
    """``usual`` three draws in four, else ``rare``."""
    return st.sampled_from([usual, usual, usual, rare]).flatmap(lambda strategy: strategy)


_NAME = mostly(_PLAIN, _TEXT)


def reference_load(path: Path, fingerprint: str, pool: ItemPool) -> dict[str, CategorizedItem]:
    """The loader as it was before the record-text table: decode every line."""
    decode = json.JSONDecoder().raw_decode
    key_value = itemgetter("key", "value")
    entries: dict[str, CategorizedItem] = {}
    positions = pool.positions
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record, end = decode(line)
                if end != len(line) or record.get("taxonomy_fingerprint") != fingerprint:
                    continue
                position = positions.get(record.get("item_id"))
                if position is None:
                    continue
                item = pool.items[position]
                pairs = frozenset(FeaturePair(*key_value(pair)) for pair in record.get("pairs", []))
            except (AttributeError, KeyError, TypeError, ValueError):
                continue
            if pairs:
                entries[item.id] = CategorizedItem(item=item, pairs=pairs)
    return entries


@st.composite
def worlds(draw) -> tuple[Taxonomy, ItemPool]:
    names = draw(st.lists(_NAME, min_size=1, max_size=3, unique=True))
    features = tuple(
        Feature(name, tuple(draw(st.lists(_NAME, min_size=1, max_size=4, unique=True))))
        for name in names
    )
    ids = draw(st.lists(_NAME, min_size=1, max_size=4, unique=True))
    pool = ItemPool("book", tuple(Item(id=item_id, title="t") for item_id in ids))
    return Taxonomy(domain_label="book", features=features), pool


def writer_line(item_id: str, fingerprint: str, pairs: list[FeaturePair], raw_text: str) -> str:
    handle = io.StringIO()
    categorized = CategorizedItem(item=Item(id=item_id, title="t"), pairs=frozenset(pairs))
    _append_cache_record(handle, item_id, fingerprint, categorized, raw_text)
    return handle.getvalue()[:-1]


@st.composite
def cache_lines(draw, taxonomy: Taxonomy, pool: ItemPool) -> list[str]:
    in_list = [(f.name, value) for f in taxonomy.features for value in f.values]
    out_of_list = st.tuples(st.sampled_from(taxonomy.feature_names), _NAME)
    pair = mostly(st.sampled_from(in_list), out_of_list)
    item_id = mostly(st.sampled_from([item.id for item in pool.items]), _NAME)
    fingerprint = mostly(st.just(_FINGERPRINT), st.sampled_from(["fp1", 'f"p']))
    lines: list[str] = []
    for _ in range(draw(st.integers(1, 8))):
        key = draw(item_id)
        pairs = [FeaturePair(*kv) for kv in draw(st.lists(pair, min_size=1, max_size=4))]
        fp = draw(fingerprint)
        raw_text = draw(st.one_of(_TEXT, st.just("genre: a\ntheme: b")))
        line = writer_line(key, fp, pairs, raw_text)
        record = {
            "item_id": key,
            "taxonomy_fingerprint": fp,
            "pairs": [{"key": p.key, "value": p.value} for p in pairs],
            "raw_text": raw_text,
        }
        kind = draw(st.sampled_from(["writer"] * 8 + [
            "truncated", "glued", "unsorted", "compact", "unescaped",
            "pairs in drawn order", "raw id", "raw text", "extra pair key", "no pairs",
        ]))
        if kind == "truncated":
            # The writer's lines are ASCII, so any character is a byte.
            line = line[: draw(st.integers(0, len(line) - 1))]
        elif kind == "glued":
            cut = draw(st.integers(0, len(line) - 1))
            glued_onto = draw(st.sampled_from(lines)) if lines else line
            line = line[:cut] + glued_onto
        elif kind == "unsorted":
            line = json.dumps(record)
        elif kind == "compact":
            line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        elif kind == "unescaped":
            line = json.dumps(record, sort_keys=True, ensure_ascii=False)
        elif kind == "pairs in drawn order":
            line = json.dumps(record, sort_keys=True)
        elif kind == "raw id":
            # The id as it is, not JSON-escaped.
            line = catalog._RECORD_HEAD + key + line[len(catalog._RECORD_HEAD) + len(json.dumps(key)) - 2:]
        elif kind == "raw text":
            start = line.index(catalog._RAW_TEXT_HEAD) + len(catalog._RAW_TEXT_HEAD)
            line = line[:start] + raw_text + line[start + len(json.dumps(raw_text)) - 2:]
        elif kind == "extra pair key":
            record["pairs"][0]["note"] = "x"
            line = json.dumps(record, sort_keys=True)
        elif kind == "no pairs":
            line = json.dumps(dict(record, pairs=[]), sort_keys=True)
        lines.append(line)
        if draw(st.booleans()):
            lines.append(line)  # a duplicate record for one item
    return lines


def assert_loads_as_decoded(path: Path, taxonomy: Taxonomy, pool: ItemPool) -> None:
    expected = reference_load(path, _FINGERPRINT, pool)
    loaded = catalog._load_cached_entries(path, _FINGERPRINT, pool, taxonomy).finish()
    assert dict(loaded) == expected
    assert list(loaded) == [item.id for item in pool.items if item.id in expected]
    vocabulary = {pair: pair for pair in loaded.pairs}
    assert len(vocabulary) == len(loaded.pairs)
    for item_id, entry in loaded.items():
        assert entry.item is expected[item_id].item
        assert all(pair is vocabulary[pair] for pair in entry.pairs)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_loader_matches_decoding_every_line(tmp_path_factory, data):
    taxonomy, pool = data.draw(worlds())
    lines = data.draw(cache_lines(taxonomy, pool))
    path = tmp_path_factory.mktemp("cache") / "items.jsonl"
    path.write_text("\n".join(lines) + data.draw(st.sampled_from(["", "\n"])), encoding="utf-8")
    assert_loads_as_decoded(path, taxonomy, pool)


_TAXONOMY = Taxonomy(domain_label="book", features=(Feature("genre", ("fiction", "mystery")),))
_LAID_OUT = (
    '{"item_id": "%s", "pairs": [{"key": "genre", "value": "fiction"}], '
    '"raw_text": "%s", "taxonomy_fingerprint": "fp0"}'
)


@pytest.mark.parametrize(
    "item_id, raw_text",
    [
        ("s1", "genre: fiction"),  # the writer's line, read through the table
        ("\\u00e9", "genre: fiction"),  # an id escape: the record names "é"
        ("\\\\", "genre: fiction"),  # the record names one backslash
        ("tab\t", "genre: fiction"),  # a raw control character: not JSON
        ("s1", "genre:\tfiction"),
        ("s1", 'x}], "raw_text": "y'),  # not one JSON string
    ],
)
def test_laid_out_lines_whose_fields_are_not_json_strings(tmp_path, item_id, raw_text):
    # Each id names a pool item as it stands in the line, not as JSON reads it.
    pool = ItemPool("book", tuple(Item(id=i, title="t") for i in ("s1", "\\u00e9", "\\\\", "tab\t")))
    path = tmp_path / "items.jsonl"
    path.write_text(_LAID_OUT % (item_id, raw_text) + "\n", encoding="utf-8")
    assert_loads_as_decoded(path, _TAXONOMY, pool)
