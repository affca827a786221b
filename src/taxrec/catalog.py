"""Item pool ingestion and the one-time per-item categorization phase.

Categorization results are cached in an append-only JSONL file keyed by a
taxonomy fingerprint, so interrupted runs resume without repeating completed
items and re-runs issue no provider calls at all.
"""
from __future__ import annotations

import csv
import json
import os
import threading
import warnings
from contextlib import closing
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import gateway
from ._fanout import fan_out
from ._textparse import reply_entries
from .core import CategorizedItem, FeaturePair, Item, Taxonomy, normalize_text
from .errors import ParseError, TaxRecError
from .matchers import TitleTable
from .taxonomy import taxonomy_fingerprint, taxonomy_to_prompt_text

_MALFORMED_LINE_LIMIT = 0.01
# Share of a pool whose categorization may fail before categorize_pool does.
_ITEM_FAILURE_LIMIT = 0.02


@dataclass(frozen=True)
class Interaction:
    """One raw interaction record from a dataset."""

    user_id: str
    item_id: str
    rating: float
    timestamp: int | None = None


@dataclass(frozen=True)
class ItemPool:
    domain_label: str
    items: tuple[Item, ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("item pool must be non-empty")
        ids = [item.id for item in self.items]
        if len(ids) != len(set(ids)):
            raise ValueError("item ids must be unique within a pool")

    @cached_property
    def by_id(self) -> Mapping[str, Item]:
        return {item.id: item for item in self.items}

    @cached_property
    def positions(self) -> Mapping[str, int]:
        """Item id -> the item's position in ``items``."""
        return {item.id: position for position, item in enumerate(self.items)}

    @cached_property
    def titles(self) -> TitleTable:
        """Item id -> raw title, in pool order, each title prepared once for the free-text matchers."""
        return TitleTable({item.id: item.title for item in self.items})


class PoolEntries(Mapping[str, CategorizedItem]):
    """A categorized pool's items as columns: item id -> its ``CategorizedItem``, read-only.

    The columns run in pool order: ``offsets`` (int32, one more than the
    pool's items) cuts ``pair_ids`` (int32, ascending within each item)
    into each item's pairs, ``pairs`` is the vocabulary (pair id ->
    ``FeaturePair``) and ``present`` marks the items that have an entry.
    An item's ``CategorizedItem`` is built on its first lookup and kept;
    threads racing on one id get one object. Length, membership and
    iteration (in pool order) read the columns alone.
    """

    def __init__(
        self, pool: ItemPool, pairs: Sequence[FeaturePair], offsets: np.ndarray,
        pair_ids: np.ndarray, present: np.ndarray,
    ) -> None:
        self.pool = pool
        self.pairs = pairs
        self.offsets = offsets
        self.pair_ids = pair_ids
        self.present = present
        self._length = int(np.count_nonzero(present))
        self._built: dict[str, CategorizedItem] = {}

    @classmethod
    def of(cls, pool: ItemPool, entries: Mapping[str, CategorizedItem]) -> PoolEntries:
        """``entries`` stored as ``pool``'s columns.

        Each key must name a pool item and its entry must hold that item.
        """
        writer = _EntryWriter(pool, ())
        for item_id, entry in entries.items():
            position = pool.positions.get(item_id)
            if position is None or entry.item != pool.items[position]:
                raise ValueError(f"entry {item_id!r} does not hold an item of the pool")
            writer.write(position, entry.pairs)
        return writer.finish()

    def __getitem__(self, item_id: str) -> CategorizedItem:
        entry = self._built.get(item_id)
        if entry is None:
            position = self.pool.positions[item_id]
            if not self.present[position]:
                raise KeyError(item_id)
            ids = self.pair_ids[self.offsets[position]:self.offsets[position + 1]].tolist()
            entry = CategorizedItem(
                item=self.pool.items[position], pairs=frozenset(map(self.pairs.__getitem__, ids))
            )
            # setdefault, atomic on a dict, gives threads racing here one object.
            entry = self._built.setdefault(item_id, entry)
        return entry

    def __contains__(self, item_id: object) -> bool:
        position = self.pool.positions.get(item_id)
        return position is not None and bool(self.present[position])

    def __iter__(self) -> Iterator[str]:
        items = self.pool.items
        return (items[position].id for position in np.flatnonzero(self.present).tolist())

    def __len__(self) -> int:
        return self._length


@dataclass(frozen=True)
class CategorizedPool:
    """The categorized item pool, tied to the taxonomy that produced it.

    ``entries`` may be any item id -> ``CategorizedItem`` mapping over pool
    items; it is kept as :class:`PoolEntries` columns.
    """

    taxonomy_ref: tuple[str, int]  # (fingerprint, feature count)
    entries: Mapping[str, CategorizedItem]
    coverage: float
    pool: ItemPool
    # Built from this pool on first use and kept for its life, keyed by the
    # builder's settings (see recommender.build_pool_index). A pool made by
    # ``dataclasses.replace`` starts empty.
    indexes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.entries, PoolEntries) and self.entries.pool is self.pool):
            object.__setattr__(self, "entries", PoolEntries.of(self.pool, self.entries))


@dataclass
class CategorizeStats:
    """Counters surfaced by the categorization pass; safe under fan-out."""

    dropped_pairs: int = 0
    reasks: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def count_dropped(self) -> None:
        with self._lock:
            self.dropped_pairs += 1

    def count_reask(self) -> None:
        with self._lock:
            self.reasks += 1


def _check_malformed(label: str, malformed: int, total: int) -> None:
    if total and malformed / total > _MALFORMED_LINE_LIMIT:
        raise TaxRecError(
            f"{label}: {malformed} of {total} lines malformed (>{_MALFORMED_LINE_LIMIT:.0%})"
        )
    if malformed:
        warnings.warn(f"{label}: skipped {malformed} malformed line(s)", stacklevel=3)


def load_movielens(data_dir: Path) -> tuple[ItemPool, list[Interaction]]:
    """Load a MovieLens-100k style directory.

    Expects ``u.item`` (pipe-delimited, title in the second field, latin-1)
    and ``u.data`` (tab-separated user/item/rating/timestamp). Malformed
    lines are skipped with a counted warning; more than 1% malformed is an
    error. Interactions come back sorted per user by timestamp ascending.
    """
    data_dir = Path(data_dir)
    item_path = data_dir / "u.item"
    data_path = data_dir / "u.data"
    for path in (item_path, data_path):
        if not path.exists():
            raise FileNotFoundError(f"missing dataset file: {path}")

    items: list[Item] = []
    seen: set[str] = set()
    malformed = 0
    total = 0
    for line in item_path.read_text(encoding="latin-1").splitlines():
        if not line.strip():
            continue
        total += 1
        fields = line.split("|")
        if len(fields) < 2 or not fields[0].strip() or not fields[1].strip():
            malformed += 1
            continue
        item_id = fields[0].strip()
        if item_id in seen:
            malformed += 1
            continue
        seen.add(item_id)
        items.append(Item(id=item_id, title=fields[1].strip()))
    _check_malformed(str(item_path), malformed, total)
    if not items:
        raise TaxRecError(f"{item_path}: no items parsed")

    interactions: list[Interaction] = []
    malformed = 0
    total = 0
    for line in data_path.read_text(encoding="latin-1").splitlines():
        if not line.strip():
            continue
        total += 1
        fields = line.split("\t")
        if len(fields) != 4:
            malformed += 1
            continue
        try:
            interactions.append(
                Interaction(
                    user_id=fields[0].strip(),
                    item_id=fields[1].strip(),
                    rating=float(fields[2]),
                    timestamp=int(fields[3]),
                )
            )
        except ValueError:
            malformed += 1
    _check_malformed(str(data_path), malformed, total)

    interactions.sort(key=lambda r: (r.user_id, r.timestamp or 0, r.item_id))
    return ItemPool(domain_label="movie", items=tuple(items)), interactions


def load_bookcrossing(data_dir: Path) -> tuple[ItemPool, list[Interaction]]:
    """Load a BookCrossing style directory.

    Expects ``BX-Books.csv`` and ``BX-Book-Ratings.csv``: semicolon-delimited,
    double-quoted, latin-1. Titles keep author and publisher as extra
    fields; the pool is restricted to books that appear in the interaction
    records (which carry no timestamps). Malformed rows, including rows the
    csv module cannot read, are skipped under the same 1% rule as MovieLens.
    """
    data_dir = Path(data_dir)
    books_path = data_dir / "BX-Books.csv"
    ratings_path = data_dir / "BX-Book-Ratings.csv"
    for path in (books_path, ratings_path):
        if not path.exists():
            raise FileNotFoundError(f"missing dataset file: {path}")

    # A record the csv module refuses (a field over its size limit, say)
    # comes back empty, and so counts as malformed.
    def rows(path: Path) -> Iterable[list[str]]:
        with path.open(encoding="latin-1", newline="") as handle:
            reader = csv.reader(handle, delimiter=";", quotechar='"', escapechar="\\")
            while True:
                try:
                    yield next(reader)
                except StopIteration:
                    return
                except csv.Error:
                    yield []

    books: dict[str, Item] = {}
    malformed = 0
    total = 0
    for index, row in enumerate(rows(books_path)):
        if index == 0 and row and row[0].strip().upper() == "ISBN":
            continue
        total += 1
        if len(row) < 5 or not row[0].strip() or not row[1].strip():
            malformed += 1
            continue
        isbn = row[0].strip()
        if isbn in books:
            malformed += 1
            continue
        books[isbn] = Item(
            id=isbn,
            title=row[1].strip(),
            extra={"author": row[2].strip(), "publisher": row[4].strip()},
        )
    _check_malformed(str(books_path), malformed, total)

    interactions: list[Interaction] = []
    malformed = 0
    total = 0
    for index, row in enumerate(rows(ratings_path)):
        if index == 0 and row and row[0].strip().upper() in ("USER-ID", "USER_ID"):
            continue
        total += 1
        if len(row) != 3 or not row[0].strip() or not row[1].strip():
            malformed += 1
            continue
        try:
            rating = float(row[2])
        except ValueError:
            malformed += 1
            continue
        interactions.append(Interaction(user_id=row[0].strip(), item_id=row[1].strip(), rating=rating))
    _check_malformed(str(ratings_path), malformed, total)

    interactions = [r for r in interactions if r.item_id in books]
    interacted = {r.item_id for r in interactions}
    items = tuple(item for isbn, item in books.items() if isbn in interacted)
    if not items:
        raise TaxRecError(f"{books_path}: no interacted books found")
    return ItemPool(domain_label="book", items=items), interactions


def item_prompt_text(item: Item) -> str:
    """The textual form of an item inside prompts: ``title (extra, fields)``."""
    if item.extra:
        details = ", ".join(v for v in item.extra.values() if v)
        if details:
            return f"{item.title} ({details})"
    return item.title


def filter_pairs(
    text: str, allowed: Collection[str], stats: CategorizeStats | None = None
) -> frozenset[FeaturePair]:
    """Normalized feature pairs of the reply ``text`` whose key is in ``allowed``.

    Pairs with another key are dropped and counted in ``stats``. The
    categorization and recommendation parsers call it only for a reply that
    :func:`canonical_pairs` cannot answer: one with a line that is not a
    canonical ``name: value`` line of their taxonomy.
    """
    kept: set[FeaturePair] = set()
    for raw_key, raw_values in reply_entries(text):
        key = normalize_text(raw_key)
        if not key:
            continue
        for value in map(normalize_text, raw_values):
            if not value:
                continue
            if key not in allowed:
                if stats is not None:
                    stats.count_dropped()
                continue
            kept.add(FeaturePair(key, value))
    return frozenset(kept)


def _reply_table(taxonomy: Taxonomy) -> dict[str, frozenset[FeaturePair]]:
    """Each canonical ``name: value`` line of ``taxonomy`` -> the pairs
    :func:`filter_pairs` reads from that line alone.

    A line holding ``{``, reading as nothing, or losing a pair to the
    feature-name filter is left out; the empty line reads as no pairs.
    Built on first use and kept on the taxonomy, as its prompt text is.
    """
    table = taxonomy.__dict__.get("_reply_table")
    if table is None:
        allowed = set(taxonomy.feature_names)
        table = {"": frozenset()}
        for feature in taxonomy.features:
            for value in feature.values:
                line = f"{feature.name}: {value}"
                if "{" in line:
                    continue
                line_stats = CategorizeStats()
                pairs = filter_pairs(line, allowed, line_stats)
                if pairs and not line_stats.dropped_pairs:
                    table[line] = pairs
        # setdefault, atomic on a dict, gives threads racing here one table.
        table = taxonomy.__dict__.setdefault("_reply_table", table)
    return table


def canonical_pairs(text: str, taxonomy: Taxonomy) -> frozenset[FeaturePair] | None:
    """The pairs of a reply made only of ``taxonomy``'s canonical lines, or None.

    Looks each line up in the taxonomy's reply table and stops at the first
    miss. A reply it answers holds no ``{`` and only lines whose keys are
    taxonomy features, and the line grammar reads each line on its own, so
    the answer is what :func:`filter_pairs` gives for any ``allowed`` set
    holding the feature names, with nothing dropped.
    """
    table = _reply_table(taxonomy)
    # A reply outside the table nearly always misses on its first line, so
    # that line is looked up before the whole reply is split. The check can
    # only send a reply to the general parser: a first line ended by a
    # break other than "\n" or "\r\n" costs time, not correctness.
    if text.partition("\n")[0].rstrip("\r") not in table:
        return None
    found = []
    for line in text.splitlines():
        pairs = table.get(line)
        if pairs is None:
            return None
        found.append(pairs)
    return frozenset().union(*found)


def _categorize_with_raw(
    provider: gateway.Provider,
    item: Item,
    taxonomy: Taxonomy,
    domain_label: str | None,
    stats: CategorizeStats,
) -> tuple[frozenset[FeaturePair], str]:
    """The item's kept feature pairs and the reply text they were parsed from."""
    domain = domain_label or taxonomy.domain_label or "item"
    prompt = gateway.render_categorization_prompt(
        domain, taxonomy_to_prompt_text(taxonomy), item_prompt_text(item)
    )
    attempts = 0

    def parse(text: str) -> tuple[frozenset[FeaturePair], str]:
        nonlocal attempts
        attempts += 1
        pairs = canonical_pairs(text, taxonomy)
        if pairs is None:
            pairs = filter_pairs(text, set(taxonomy.feature_names), stats)
        if not pairs:
            if attempts == 1:
                stats.count_reask()
            raise ParseError(f"no feature pairs parsed for item {item.id!r}", raw_text=text)
        return pairs, text

    request = gateway.LlmRequest(prompt=prompt, max_output_tokens=512)
    return gateway.ask(provider, request, parse, reminder=gateway.LINE_REMINDER)


def _cache_path(cache_dir: Path, domain_label: str) -> Path:
    return Path(cache_dir) / domain_label / "items.jsonl"


class _Vocabulary(dict):
    """One pool's feature pairs: (key, value) -> pair id, and ``pairs``, id -> ``FeaturePair``.

    It starts from ``pairs``; a pair not yet in it gets the next id, and is
    built, and so validated, on its first lookup; an invalid one raises as
    ``FeaturePair`` does. A ``FeaturePair`` looks up as its plain tuple.
    """

    def __init__(self, pairs: Sequence[FeaturePair]) -> None:
        super().__init__(zip(pairs, range(len(pairs))))
        self.pairs = list(pairs)

    def __missing__(self, key_value: tuple[str, str]) -> int:
        pair = FeaturePair(*key_value)
        pair_id = self[key_value] = len(self.pairs)
        self.pairs.append(pair)
        return pair_id


class _EntryWriter:
    """Pair ids per pool item, written in any order and read out as :class:`PoolEntries`.

    An item's pair ids are appended to ``ids`` and then closed with
    :meth:`close` (or both at once, by :meth:`write`); a later close of an
    item replaces the earlier one.
    """

    def __init__(self, pool: ItemPool, pairs: Sequence[FeaturePair]) -> None:
        self.pool = pool
        self.vocabulary = _Vocabulary(pairs)
        self.ids: list[int] = []
        self.starts = [0] * len(pool.items)
        self.ends = [0] * len(pool.items)
        self.written = bytearray(len(pool.items))

    def close(self, position: int, start: int) -> None:
        """``ids[start:]`` are the pairs of the item at ``position``."""
        self.starts[position] = start
        self.ends[position] = len(self.ids)
        self.written[position] = 1

    def write(self, position: int, pairs: Iterable[tuple[str, str]]) -> None:
        """``pairs`` are the pairs of the item at ``position``."""
        start = len(self.ids)
        self.ids.extend(map(self.vocabulary.__getitem__, pairs))
        self.close(position, start)

    def finish(self) -> PoolEntries:
        starts = np.array(self.starts, dtype=np.int32)
        lengths = np.array(self.ends, dtype=np.int32) - starts
        offsets = np.zeros(len(lengths) + 1, dtype=np.int32)
        np.cumsum(lengths, out=offsets[1:])
        pair_ids = np.array(self.ids, dtype=np.int32)
        if len(pair_ids) != offsets[-1] or ((starts != offsets[:-1]) & (lengths > 0)).any():
            # Some items were written twice or out of pool order.
            gather = np.arange(offsets[-1], dtype=np.int32) + np.repeat(starts - offsets[:-1], lengths)
            pair_ids = pair_ids[gather]
        items = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
        # Each item's ids ascending and distinct. A written line lists its
        # pairs sorted, as the record table numbers them, so a warm load
        # nearly always has them so already.
        if not ((np.diff(pair_ids) > 0) | (np.diff(items) > 0)).all():
            width = len(self.vocabulary.pairs)
            keys = np.sort(items.astype(np.int64) * width + pair_ids)
            keys = keys[np.concatenate(([True], np.diff(keys) > 0))]
            items, pair_ids = np.divmod(keys, width)
            np.cumsum(np.bincount(items, minlength=len(lengths)), out=offsets[1:])
        return PoolEntries(
            self.pool, self.vocabulary.pairs, offsets, pair_ids.astype(np.int32, copy=False),
            np.frombuffer(self.written, dtype=bool),
        )


_decode_json = json.JSONDecoder().raw_decode
_pair_key_value = itemgetter("key", "value")
_scan_json_string = json.decoder.scanstring

# The fixed text around the fields of a record line as the writer lays it
# out (``json.dumps(record, sort_keys=True)``).
_RECORD_HEAD = '{"item_id": "'
_PAIRS_HEAD = '", "pairs": [{'
_PAIR_SEPARATOR = "}, {"
_RAW_TEXT_HEAD = '}], "raw_text": "'


def _record_table(taxonomy: Taxonomy) -> tuple[tuple[FeaturePair, ...], dict[str, int]]:
    """``taxonomy``'s pairs, sorted, and each pair's text in a record's pairs list -> its index.

    The text is the writer's own encoding of the pair object, less its
    braces. Sorted, the indexes of a written record's pairs ascend, as
    :class:`PoolEntries` keeps them. Built on first use and kept on the
    taxonomy, as its reply table is; a pool's vocabulary starts from these
    pairs, so an index is also the pair's id in every pool over the taxonomy.
    """
    table = taxonomy.__dict__.get("_record_table")
    if table is None:
        pairs: set[FeaturePair] = set()
        for feature in taxonomy.features:
            for value in feature.values:
                try:
                    pairs.add(FeaturePair(feature.name, value))
                except ValueError:
                    continue  # no record can hold such a pair
        ordered = tuple(sorted(pairs))
        texts = {
            json.dumps({"key": key, "value": value}, sort_keys=True)[1:-1]: pair_id
            for pair_id, (key, value) in enumerate(ordered)
        }
        # setdefault, atomic on a dict, gives threads racing here one table.
        table = taxonomy.__dict__.setdefault("_record_table", (ordered, texts))
    return table


def _tabled_position(
    line: str, tail: str, positions: Mapping[str, int], texts: Mapping[str, int], ids: list[int]
) -> int | None:
    """The pool position of a record line's item, read through ``texts``; else None.

    The line must be ``{"item_id": "``, an id holding no ``"``, ``\\`` or
    non-printable character that names a pool item, ``", "pairs": [{``,
    parts joined by ``}, {`` that are each in ``texts``,
    ``}], "raw_text": "``, one JSON string that ``json.decoder.scanstring``
    reads to exactly where ``tail`` starts, and ``tail``. Such a line is, by
    construction, the JSON text of the record naming that item, those pairs
    and the tail's fingerprint, so this reading is the one decoding gives.
    The pairs' ids are appended to ``ids``, which is left as it was for a
    line this reading does not take.
    """
    if not (line.startswith(_RECORD_HEAD) and line.endswith(tail)):
        return None
    id_end = line.find(_PAIRS_HEAD, len(_RECORD_HEAD))
    item_id = line[len(_RECORD_HEAD):id_end]
    position = positions.get(item_id)
    if id_end < 0 or position is None or '"' in item_id or "\\" in item_id or not item_id.isprintable():
        return None
    pairs_start = id_end + len(_PAIRS_HEAD)
    pairs_end = line.find(_RAW_TEXT_HEAD, pairs_start)
    if pairs_end < 0:
        return None
    try:
        raw_end = _scan_json_string(line, pairs_end + len(_RAW_TEXT_HEAD))[1]
    except ValueError:
        return None
    if raw_end != len(line) - len(tail):
        return None
    start = len(ids)
    try:
        ids.extend(map(texts.__getitem__, line[pairs_start:pairs_end].split(_PAIR_SEPARATOR)))
    except KeyError:
        del ids[start:]
        return None
    return position


def _load_cached_entries(
    path: Path, fingerprint: str, pool: ItemPool, taxonomy: Taxonomy
) -> _EntryWriter:
    """The pool's cached categorizations under ``fingerprint``, written as pair ids per item.

    Lines are read in file order, and a later record for an item overrides
    an earlier one. A line the writer wrote for a pool item, over values in
    ``taxonomy``'s lists, is read through the taxonomy's record table (each
    pair's text inside a pairs list -> its id; see :func:`_tabled_position`),
    with no JSON object built per pair. Every other line is decoded as
    JSON: a torn line, a line with text after its record, or a record under
    another fingerprint or of the wrong shape is skipped, and its item is
    categorized again; values outside the taxonomy's lists are kept, with
    ids past the taxonomy's in the pool's vocabulary. No ``CategorizedItem``
    is built: :meth:`_EntryWriter.finish` makes the pool's columns.
    """
    pairs, texts = _record_table(taxonomy)
    writer = _EntryWriter(pool, pairs)
    if not path.exists():
        return writer
    positions = pool.positions
    ids = writer.ids
    vocabulary = writer.vocabulary
    close = writer.close
    tail = f', "taxonomy_fingerprint": {json.dumps(fingerprint)}}}'
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            start = len(ids)
            position = _tabled_position(line, tail, positions, texts, ids)
            if position is not None:
                close(position, start)
                continue
            # A torn line (JSONDecodeError is a ValueError), a line with text
            # after its record, or a record of the wrong shape is skipped;
            # its item is categorized again.
            try:
                record, end = _decode_json(line)
                if end != len(line) or record.get("taxonomy_fingerprint") != fingerprint:
                    continue
                position = positions.get(record.get("item_id"))
                if position is None:
                    continue
                ids.extend(map(vocabulary.__getitem__, map(_pair_key_value, record.get("pairs", []))))
            except (AttributeError, KeyError, TypeError, ValueError):
                del ids[start:]
                continue
            if len(ids) > start:
                close(position, start)
    return writer


def _start_fresh_line(path: Path) -> None:
    """End a last line left without its newline by a killed write.

    The torn line stays, and the loader skips it; the next record must not
    be glued onto it.
    """
    with path.open("ab+") as raw:
        size = raw.seek(0, os.SEEK_END)
        if size:
            raw.seek(size - 1)
            if raw.read(1) != b"\n":
                raw.write(b"\n")


def _append_cache_record(
    handle, item_id: str, fingerprint: str, categorized: CategorizedItem, raw_text: str
) -> None:
    record = {
        "item_id": item_id,
        "taxonomy_fingerprint": fingerprint,
        "pairs": [{"key": p.key, "value": p.value} for p in sorted(categorized.pairs)],
        "raw_text": raw_text,
    }
    handle.write(json.dumps(record, sort_keys=True) + "\n")
    handle.flush()


def load_categorized_pool(
    cache_dir: Path, pool: ItemPool, taxonomy: Taxonomy, model_name: str
) -> CategorizedPool:
    """Read-only view of the cache; no provider calls.

    Errors if the cache does not fully cover the pool for this taxonomy
    fingerprint.
    """
    fingerprint = taxonomy_fingerprint(model_name, taxonomy)
    entries = _load_cached_entries(
        _cache_path(cache_dir, pool.domain_label), fingerprint, pool, taxonomy
    ).finish()
    coverage = len(entries) / len(pool.items)
    if coverage < 1.0:
        raise TaxRecError(
            f"categorized pool incomplete for domain {pool.domain_label!r} "
            f"(coverage {coverage:.1%}); run 'taxrec categorize' first"
        )
    return CategorizedPool(
        taxonomy_ref=(fingerprint, len(taxonomy.features)),
        entries=entries,
        coverage=coverage,
        pool=pool,
    )


def categorize_pool(
    provider: gateway.Provider,
    pool: ItemPool,
    taxonomy: Taxonomy,
    cache_dir: Path,
    *,
    max_workers: int = 4,
    progress: Callable[[int, int, int], None] | None = None,
    stats: CategorizeStats | None = None,
) -> CategorizedPool:
    """Categorize every item in the pool, resuming from the cache.

    Items already cached for this taxonomy fingerprint are not re-sent.
    Pairs whose key is not a taxonomy feature are dropped (and counted in
    ``stats``); values outside the taxonomy's enumerated lists are kept.
    Unparseable output is re-asked once; a second failure fails the item.
    Each completed item is appended to the cache as soon as every item
    before it in the pool is done, so an interrupted run resumes where it
    left off and two cold runs write the same bytes. ``max_workers``
    threads categorize items at most a fixed window (the larger of 64 and
    ``2 * max_workers``) ahead of the last one written; when the pass stops
    early (a ``progress`` callback that raises, say) no further item is
    sent to the provider. Per-item failures (an ``Exception``) are tolerated up
    to 2% of the pool, then the run fails (successes stay cached); any
    other exception stops the pass and is re-raised.
    """
    fingerprint = taxonomy_fingerprint(provider.model_name, taxonomy)
    path = _cache_path(cache_dir, pool.domain_label)
    path.parent.mkdir(parents=True, exist_ok=True)
    writer = _load_cached_entries(path, fingerprint, pool, taxonomy)
    todo = [position for position, written in enumerate(writer.written) if not written]
    stats = stats if stats is not None else CategorizeStats()

    done = len(pool.items) - len(todo)
    total = len(pool.items)
    if progress is not None:
        progress(done, total, 0)

    def categorize(item: Item) -> tuple[frozenset[FeaturePair], str] | Exception:
        # An Exception fails only its item; anything else stops the pass.
        try:
            return _categorize_with_raw(provider, item, taxonomy, pool.domain_label, stats)
        except Exception as exc:
            return exc

    if todo:
        _start_fresh_line(path)
        with path.open("a", encoding="utf-8") as handle, closing(
            fan_out(categorize, [pool.items[position] for position in todo], max_workers)
        ) as outcomes:
            # Cache writes and the pool's columns are touched only on this
            # thread, in pool order: one writer, many categorization
            # workers, no lock, and the same cache bytes whatever order the
            # workers finish in.
            for position, outcome in zip(todo, outcomes):
                item = pool.items[position]
                if isinstance(outcome, Exception):
                    stats.failures.append((item.id, str(outcome)))
                else:
                    pairs, raw_text = outcome
                    writer.write(position, pairs)
                    _append_cache_record(
                        handle, item.id, fingerprint, CategorizedItem(item=item, pairs=pairs), raw_text
                    )
                    done += 1
                if progress is not None:
                    progress(done, total, len(stats.failures))

    failure_fraction = len(stats.failures) / total
    if failure_fraction > _ITEM_FAILURE_LIMIT:
        raise TaxRecError(
            f"categorization failed for {len(stats.failures)} of {total} items "
            f"({failure_fraction:.1%} > {_ITEM_FAILURE_LIMIT:.0%}); "
            f"first: {stats.failures[0][0]}: {stats.failures[0][1]}"
        )

    entries = writer.finish()
    coverage = len(entries) / total
    return CategorizedPool(
        taxonomy_ref=(fingerprint, len(taxonomy.features)),
        entries=entries,
        coverage=coverage,
        pool=pool,
    )
