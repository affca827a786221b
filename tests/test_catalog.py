"""Dataset ingestion and the cached, resumable categorization pass."""
from __future__ import annotations

import io
import json
import re
import threading
import time

import pytest

from taxrec.catalog import (
    CategorizeStats,
    _append_cache_record,
    Interaction,
    ItemPool,
    categorize_pool,
    filter_pairs,
    item_prompt_text,
    load_bookcrossing,
    load_categorized_pool,
    load_movielens,
)
from taxrec import catalog, core
from taxrec._fanout import window
from taxrec.core import CategorizedItem, FeaturePair, Item
from taxrec.errors import TaxRecError
from taxrec.gateway import LINE_REMINDER
from taxrec.taxonomy import truncate_features

from conftest import (
    CountingProvider,
    FailAfterProvider,
    LatencyProvider,
    ScriptedProvider,
    call_with_timeout,
)


def write_movielens(tmp_path, item_lines, data_lines):
    (tmp_path / "u.item").write_text("\n".join(item_lines) + "\n", encoding="latin-1")
    (tmp_path / "u.data").write_text("\n".join(data_lines) + "\n", encoding="latin-1")


class TestLoadMovielens:
    def test_three_line_fixture_golden(self, tmp_path):
        write_movielens(
            tmp_path,
            [
                "1|Toy Story (1995)|01-Jan-1995||http://x|0|0|1",
                "2|GoldenEye (1995)|01-Jan-1995||http://x|0|1|0",
                "3|Four Rooms (1995)|01-Jan-1995||http://x|1|0|0",
            ],
            [
                "1\t2\t3\t881250949",
                "1\t1\t5\t881250950",
                "2\t3\t4\t881250800",
            ],
        )
        pool, interactions = load_movielens(tmp_path)
        assert pool.domain_label == "movie"
        assert [item.id for item in pool.items] == ["1", "2", "3"]
        assert pool.by_id["1"].title == "Toy Story (1995)"
        assert interactions == [
            Interaction(user_id="1", item_id="2", rating=3.0, timestamp=881250949),
            Interaction(user_id="1", item_id="1", rating=5.0, timestamp=881250950),
            Interaction(user_id="2", item_id="3", rating=4.0, timestamp=881250800),
        ]

    def test_interactions_sorted_per_user_by_timestamp(self, tmp_path):
        write_movielens(
            tmp_path,
            ["1|A|", "2|B|"],
            ["7\t1\t3\t200", "7\t2\t3\t100"],
        )
        _, interactions = load_movielens(tmp_path)
        assert [r.timestamp for r in interactions] == [100, 200]

    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_movielens(tmp_path)

    def test_malformed_fraction_over_limit_is_error(self, tmp_path):
        write_movielens(
            tmp_path,
            ["1|A|", "garbage-without-pipes"],
            ["1\t1\t3\t100"],
        )
        with pytest.raises(TaxRecError):
            load_movielens(tmp_path)

    def test_small_malformed_fraction_skipped_with_warning(self, tmp_path):
        item_lines = [f"{n}|Title {n}|" for n in range(1, 201)] + ["oops"]
        write_movielens(tmp_path, item_lines, ["1\t1\t3\t100"])
        with pytest.warns(UserWarning, match="1 malformed"):
            pool, _ = load_movielens(tmp_path)
        assert len(pool.items) == 200

    def test_latin1_titles(self, tmp_path):
        write_movielens(tmp_path, ["1|Am\xe9lie (2001)|"], ["1\t1\t5\t1"])
        pool, _ = load_movielens(tmp_path)
        assert pool.by_id["1"].title == "Am\xe9lie (2001)"


BOOKS_HEADER = '"ISBN";"Book-Title";"Book-Author";"Year-Of-Publication";"Publisher";"Image-URL-S";"Image-URL-M";"Image-URL-L"'
RATINGS_HEADER = '"User-ID";"ISBN";"Book-Rating"'


def write_bookcrossing(tmp_path, book_lines, rating_lines):
    (tmp_path / "BX-Books.csv").write_text(
        "\n".join([BOOKS_HEADER, *book_lines]) + "\n", encoding="latin-1"
    )
    (tmp_path / "BX-Book-Ratings.csv").write_text(
        "\n".join([RATINGS_HEADER, *rating_lines]) + "\n", encoding="latin-1"
    )


class TestLoadBookcrossing:
    def test_five_record_fixture_golden(self, tmp_path):
        write_bookcrossing(
            tmp_path,
            [
                '"0195153448";"Classical Mythology";"Mark P. O. Morford";"2002";"Oxford University Press";"u";"u";"u"',
                '"0002005018";"Clara Callan; A Novel";"Richard Bruce Wright";"2001";"HarperFlamingo Canada";"u";"u";"u"',
                '"0060973129";"Decision in Normandy";"Carlo D\'Este";"1991";"HarperPerennial";"u";"u";"u"',
                '"0374157065";"Flu: The Story of a Pandemic";"Gina Bari Kolata";"1999";"Farrar Straus Giroux";"u";"u";"u"',
                '"0393045218";"The Mummies of Urumchi";"E. J. W. Barber";"1999";"W. W. Norton";"u";"u";"u"',
            ],
            [
                '"276725";"0195153448";"0"',
                '"276726";"0002005018";"5"',
                '"276727";"0060973129";"0"',
                '"276728";"0393045218";"8"',
            ],
        )
        pool, interactions = load_bookcrossing(tmp_path)
        assert pool.domain_label == "book"
        # Pool restricted to interacted books: the Flu book has no rating.
        assert sorted(item.id for item in pool.items) == [
            "0002005018",
            "0060973129",
            "0195153448",
            "0393045218",
        ]
        assert pool.by_id["0195153448"].extra == {
            "author": "Mark P. O. Morford",
            "publisher": "Oxford University Press",
        }
        assert interactions == [
            Interaction(user_id="276725", item_id="0195153448", rating=0.0, timestamp=None),
            Interaction(user_id="276726", item_id="0002005018", rating=5.0, timestamp=None),
            Interaction(user_id="276727", item_id="0060973129", rating=0.0, timestamp=None),
            Interaction(user_id="276728", item_id="0393045218", rating=8.0, timestamp=None),
        ]

    def test_quoted_semicolon_inside_title(self, tmp_path):
        write_bookcrossing(
            tmp_path,
            ['"111";"Clara Callan; A Novel";"Author";"2001";"Pub";"u";"u";"u"'],
            ['"9";"111";"5"'],
        )
        pool, _ = load_bookcrossing(tmp_path)
        assert pool.by_id["111"].title == "Clara Callan; A Novel"

    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bookcrossing(tmp_path)

    def test_row_over_csv_field_limit_counts_as_malformed(self, tmp_path):
        # The csv module refuses a field over 131,072 characters; the reader
        # picks up again at the next row.
        books = [f'"{n}";"Title {n}";"Author";"2001";"Pub";"u";"u";"u"' for n in range(200)]
        books.insert(100, f'"huge";"{"x" * 200_000}";"Author";"2001";"Pub";"u";"u";"u"')
        write_bookcrossing(tmp_path, books, [f'"9";"{n}";"5"' for n in range(200)])
        with pytest.warns(UserWarning, match="1 malformed"):
            pool, interactions = load_bookcrossing(tmp_path)
        assert len(pool.items) == 200 and len(interactions) == 200
        assert "huge" not in pool.by_id and pool.by_id["100"].title == "Title 100"


class TestItemPromptText:
    def test_title_only(self):
        assert item_prompt_text(Item(id="1", title="Emma")) == "Emma"

    def test_extra_fields_folded(self):
        item = Item(id="1", title="Emma", extra={"author": "Jane Austen", "publisher": "M"})
        assert item_prompt_text(item) == "Emma (Jane Austen, M)"


def categorize_one(provider, item, taxonomy, cache_dir, stats=None) -> CategorizedItem:
    """Categorize ``item`` as a one-item pool and return its entry."""
    pool = ItemPool(domain_label="book", items=(item,))
    return categorize_pool(provider, pool, taxonomy, cache_dir, stats=stats).entries[item.id]


class TestCategorizeItem:
    def test_mock_gives_one_pair_per_feature(self, mock7, tmp_path):
        from taxrec.taxonomy import generate_taxonomy

        doc = generate_taxonomy(mock7, "book", tmp_path)
        categorized = categorize_one(mock7, Item(id="1", title="1984"), doc.taxonomy, tmp_path)
        assert len(categorized.pairs) == 10
        assert {pair.key for pair in categorized.pairs} == set(doc.taxonomy.feature_names)

    def test_unknown_key_dropped_and_counted(self, small_taxonomy, tmp_path):
        provider = ScriptedProvider(["genre: Fiction\nmood: Gloomy"])
        stats = CategorizeStats()
        categorized = categorize_one(
            provider, Item(id="1", title="1984"), small_taxonomy, tmp_path, stats=stats
        )
        assert categorized.pairs == frozenset({FeaturePair("genre", "fiction")})
        assert stats.dropped_pairs == 1

    def test_out_of_list_value_kept(self, small_taxonomy, tmp_path):
        provider = ScriptedProvider(["genre: Cyberpunk"])
        categorized = categorize_one(provider, Item(id="1", title="X"), small_taxonomy, tmp_path)
        assert categorized.pairs == frozenset({FeaturePair("genre", "cyberpunk")})

    def test_reask_once_then_success(self, small_taxonomy, tmp_path):
        provider = ScriptedProvider(["no pairs here at all", "genre: fiction"])
        categorized = categorize_one(provider, Item(id="1", title="X"), small_taxonomy, tmp_path)
        assert categorized.pairs == frozenset({FeaturePair("genre", "fiction")})
        assert len(provider.calls) == 2
        assert "feature: value" in provider.calls[1].prompt
        assert provider.calls[1].prompt.endswith(LINE_REMINDER)
        assert provider.calls[1].max_output_tokens == provider.calls[0].max_output_tokens == 512

    def test_reask_failure_is_parse_error(self, small_taxonomy, tmp_path):
        provider = ScriptedProvider(["nothing", "still nothing"])
        stats = CategorizeStats()
        with pytest.raises(TaxRecError, match="no feature pairs parsed"):
            categorize_one(provider, Item(id="1", title="X"), small_taxonomy, tmp_path, stats=stats)
        assert len(provider.calls) == 2
        assert len(stats.failures) == 1
        item_id, message = stats.failures[0]
        assert item_id == "1"
        assert "no feature pairs parsed" in message


def nested_reply(depth: int, leaf: str = "") -> str:
    """A JSON reply whose ``genre`` value is ``leaf`` inside ``depth`` arrays."""
    return '{"genre": ' + "[" * depth + leaf + "]" * depth + "}"


class TestFilterPairs:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ('{"genre": "Fiction, Mystery"}', {("genre", "fiction"), ("genre", "mystery")}),
            ('{"genre": {"Fiction": 1}}', {("genre", "fiction")}),
            ('{"features": [{"name": "genre", "value": "Fiction"}]}', {("genre", "fiction")}),
            ('{"taxonomy": {"genre": ["Fiction"]}}', {("genre", "fiction")}),
            ("2. Tone: Dark; Light", {("tone", "dark")}),
            ("Here is the taxonomy for books: see below\ngenre: Fiction", {("genre", "fiction")}),
            ('{"genre": [""], "tone": [""]}\ngenre: Fiction', {("genre", "fiction")}),
            pytest.param(nested_reply(500, '"x"'), {("genre", "x")}, id="nested-500"),
            pytest.param(nested_reply(990, '"x"'), {("genre", "x")}, id="nested-990"),
            # Deeper than json.loads can recurse: not an object, and the
            # lines hold no value.
            pytest.param(nested_reply(5000), set(), id="nested-5000"),
        ],
    )
    def test_reply_grammar(self, text, expected):
        assert filter_pairs(text, {"genre", "tone"}) == expected

    def test_too_deeply_nested_reply_is_reasked(self, small_taxonomy, tmp_path):
        provider = ScriptedProvider([nested_reply(5000), "genre: fiction"])
        categorized = categorize_one(provider, Item(id="1", title="X"), small_taxonomy, tmp_path)
        assert categorized.pairs == frozenset({FeaturePair("genre", "fiction")})
        assert len(provider.calls) == 2


def small_pool(n: int) -> ItemPool:
    return ItemPool(
        domain_label="book",
        items=tuple(Item(id=f"i{index:03d}", title=f"Work {index}") for index in range(n)),
    )


class TestCategorizePool:
    def test_fresh_pool_full_coverage(self, tmp_path, mock7, small_taxonomy):
        pool = small_pool(100)
        cpool = categorize_pool(mock7, pool, small_taxonomy, tmp_path, max_workers=4)
        assert cpool.coverage == 1.0
        assert len(cpool.entries) == 100
        cache_lines = (tmp_path / "book" / "items.jsonl").read_text().strip().splitlines()
        assert len(cache_lines) == 100
        record = json.loads(cache_lines[0])
        assert set(record) == {"item_id", "taxonomy_fingerprint", "pairs", "raw_text"}

    def test_rerun_issues_zero_calls(self, tmp_path, mock7, small_taxonomy):
        pool = small_pool(30)
        categorize_pool(mock7, pool, small_taxonomy, tmp_path)
        counting = CountingProvider(mock7)
        cpool = categorize_pool(counting, pool, small_taxonomy, tmp_path)
        assert counting.calls == 0
        assert cpool.coverage == 1.0

    def test_warm_rerun_leaves_prompt_grouping_unbuilt(self, tmp_path, mock7, small_taxonomy):
        # A warm pass only reads the cache; the grouping a prompt needs is
        # built on a request's first use, never at load.
        pool = small_pool(30)
        categorize_pool(mock7, pool, small_taxonomy, tmp_path)
        cpool = categorize_pool(mock7, pool, small_taxonomy, tmp_path)
        assert len(cpool.entries) == 30
        assert not any("_feature_texts" in vars(entry) for entry in cpool.entries.values())

    def test_rerun_leaves_cache_bytes_unchanged(self, tmp_path, mock7, small_taxonomy):
        pool = small_pool(20)
        categorize_pool(mock7, pool, small_taxonomy, tmp_path)
        cache_path = tmp_path / "book" / "items.jsonl"
        before = cache_path.read_bytes()
        categorize_pool(mock7, pool, small_taxonomy, tmp_path)
        assert cache_path.read_bytes() == before

    def test_interrupt_and_resume_exact_call_counts(self, tmp_path, mock7, small_taxonomy):
        pool = small_pool(100)
        dying = CountingProvider(FailAfterProvider(mock7, 40))
        with pytest.raises(TaxRecError):
            categorize_pool(dying, pool, small_taxonomy, tmp_path, max_workers=4)
        cached = (tmp_path / "book" / "items.jsonl").read_text().strip().splitlines()
        assert len(cached) == 40

        counting = CountingProvider(mock7)
        cpool = categorize_pool(counting, pool, small_taxonomy, tmp_path, max_workers=4)
        assert counting.calls == 60
        assert cpool.coverage == 1.0

    def test_worker_threads_are_the_one_concurrency_bound(self, tmp_path, mock7, small_taxonomy):
        # W workers over replies that each take L seconds: a cold pass runs
        # near W / L items per second and never has more than W calls open.
        # Timed from the first call to the last reply, so starting the
        # workers and draining the cache writes are not counted.
        workers, latency_s, pool = 8, 0.02, small_pool(160)
        provider = CountingProvider(LatencyProvider(mock7, latency_s))
        cpool = categorize_pool(provider, pool, small_taxonomy, tmp_path, max_workers=workers)
        items_per_s = len(pool.items) / (provider.last_reply_s - provider.first_call_s)
        assert cpool.coverage == 1.0
        assert items_per_s >= 0.85 * workers / latency_s
        assert provider.peak_in_flight <= workers

    def test_a_stopped_pass_stops_calling_the_provider(self, tmp_path, mock7, small_taxonomy):
        # The caller stops at the fifth item written; at most a window of
        # items past it has been sent, not the whole pool.
        pool, provider = small_pool(2000), CountingProvider(mock7)

        class Stop(Exception):
            pass

        def progress(done: int, total: int, failed: int) -> None:
            if done == 5:
                raise Stop

        before = threading.active_count()
        with pytest.raises(Stop):
            call_with_timeout(
                lambda: categorize_pool(
                    provider, pool, small_taxonomy, tmp_path, max_workers=2, progress=progress
                )
            )
        assert provider.calls <= 5 + window(2)
        assert len((tmp_path / "book" / "items.jsonl").read_text().splitlines()) == 5
        assert threading.active_count() == before

    def test_a_base_exception_from_the_provider_stops_the_pass(self, tmp_path, mock7, small_taxonomy):
        # Not an Exception, so not an item failure: it is raised, in pool
        # order, once the workers are joined.
        class Halt(BaseException):
            pass

        class HaltingProvider:
            model_name = mock7.model_name

            def complete(self, request):
                if "Work 13" in request.prompt:
                    raise Halt
                return mock7.complete(request)

        before = threading.active_count()
        with pytest.raises(Halt):
            call_with_timeout(
                lambda: categorize_pool(HaltingProvider(), small_pool(100), small_taxonomy, tmp_path, max_workers=2)
            )
        lines = (tmp_path / "book" / "items.jsonl").read_text().splitlines()
        assert [json.loads(line)["item_id"] for line in lines] == [f"i{index:03d}" for index in range(13)]
        assert threading.active_count() == before

    def test_failures_under_threshold_tolerated(self, tmp_path, small_taxonomy):
        pool = small_pool(100)

        class FlakyProvider:
            model_name = "flaky"

            def __init__(self):
                self.count = 0

            def complete(self, request):
                self.count += 1
                # Items render as "Item:\nWork 13"; fail exactly one item.
                if "Work 13" in request.prompt:
                    raise RuntimeError("boom")
                return ScriptedProvider(["genre: fiction"]).complete(request)

        cpool = categorize_pool(
            FlakyProvider(), pool, small_taxonomy, tmp_path, max_workers=1
        )
        assert cpool.coverage == pytest.approx(0.99)

    def test_torn_last_line_resumes_on_a_fresh_line(self, tmp_path, mock7, small_taxonomy):
        # A run killed mid-write leaves the last record without its newline.
        categorize_pool(mock7, small_pool(5), small_taxonomy, tmp_path)
        cache_path = tmp_path / "book" / "items.jsonl"
        cache_path.write_bytes(cache_path.read_bytes()[:-40])

        counting = CountingProvider(mock7)
        categorize_pool(counting, small_pool(10), small_taxonomy, tmp_path)
        assert counting.calls == 6  # the torn item plus five new ones

        counting = CountingProvider(mock7)
        cpool = categorize_pool(counting, small_pool(10), small_taxonomy, tmp_path)
        assert counting.calls == 0
        assert cpool.coverage == 1.0
        lines = cache_path.read_text().splitlines()
        assert len(lines) == 11  # the torn line stays, alone on its line
        assert [json.loads(line)["item_id"] for line in lines[:4] + lines[5:]] == [
            f"i{index:03d}" for index in range(10)
        ]

    def test_malformed_record_lines_are_skipped(self, tmp_path, mock7, small_taxonomy):
        # Lines that parse as JSON but are not well-formed records.
        categorize_pool(mock7, small_pool(5), small_taxonomy, tmp_path)
        cache_path = tmp_path / "book" / "items.jsonl"
        lines = cache_path.read_text().splitlines()
        good = json.loads(lines.pop())
        no_value = dict(good, pairs=[{"key": "genre"}])
        empty_value = dict(good, pairs=[{"key": "genre", "value": ""}])
        string_pairs = dict(good, pairs="x")
        lines += [json.dumps(record) for record in ([1, 2], no_value, empty_value, string_pairs)]
        cache_path.write_text("\n".join(lines) + "\n")

        counting = CountingProvider(mock7)
        cpool = categorize_pool(counting, small_pool(5), small_taxonomy, tmp_path)
        assert counting.calls == 1  # the item whose only records are malformed
        assert cpool.coverage == 1.0

    def test_trailing_text_and_list_pairs_are_skipped(self, tmp_path, mock7, small_taxonomy):
        # A complete record with text after it on its line, and a record
        # whose pairs are lists, not {"key", "value"} objects.
        categorize_pool(mock7, small_pool(5), small_taxonomy, tmp_path)
        cache_path = tmp_path / "book" / "items.jsonl"
        lines = cache_path.read_text().splitlines()
        trailing, list_pairs = lines.pop(), json.loads(lines.pop())
        list_pairs["pairs"] = [[p["key"], p["value"]] for p in list_pairs["pairs"]]
        lines += [trailing + ' {"extra": 1}', json.dumps(list_pairs, sort_keys=True)]
        cache_path.write_text("\n".join(lines) + "\n")

        counting = CountingProvider(mock7)
        cpool = categorize_pool(counting, small_pool(5), small_taxonomy, tmp_path)
        assert counting.calls == 2  # both items are categorized again
        assert cpool.coverage == 1.0

    def test_non_string_pair_records_are_skipped(self, tmp_path, mock7, small_taxonomy):
        categorize_pool(mock7, small_pool(5), small_taxonomy, tmp_path)
        cache_path = tmp_path / "book" / "items.jsonl"
        lines = cache_path.read_text().splitlines()
        good = json.loads(lines.pop())
        bad_pairs = ({"key": 1, "value": "x"}, {"key": "genre", "value": 2.5}, {"key": "genre", "value": None})
        lines += [json.dumps(dict(good, pairs=[pair])) for pair in bad_pairs]
        cache_path.write_text("\n".join(lines) + "\n")

        counting = CountingProvider(mock7)
        cpool = categorize_pool(counting, small_pool(5), small_taxonomy, tmp_path)
        assert counting.calls == 1  # the item whose only records are malformed
        assert cpool.coverage == 1.0

    def test_malformed_writer_layout_records_are_skipped(self, tmp_path, mock7, small_taxonomy):
        # As test_malformed_record_lines_are_skipped, with the records laid
        # out as the writer lays them out, so they reach the record-text table.
        categorize_pool(mock7, small_pool(5), small_taxonomy, tmp_path)
        cache_path = tmp_path / "book" / "items.jsonl"
        lines = cache_path.read_text().splitlines()
        good = json.loads(lines.pop())
        no_value = dict(good, pairs=[{"key": "genre"}])
        empty_value = dict(good, pairs=[{"key": "genre", "value": ""}])
        string_pairs = dict(good, pairs="x")
        records = ([1, 2], no_value, empty_value, string_pairs)
        lines += [json.dumps(record, sort_keys=True) for record in records]
        cache_path.write_text("\n".join(lines) + "\n")

        counting = CountingProvider(mock7)
        cpool = categorize_pool(counting, small_pool(5), small_taxonomy, tmp_path)
        assert counting.calls == 1  # the item whose only records are malformed
        assert cpool.coverage == 1.0

    def test_non_string_writer_layout_pair_records_are_skipped(self, tmp_path, mock7, small_taxonomy):
        categorize_pool(mock7, small_pool(5), small_taxonomy, tmp_path)
        cache_path = tmp_path / "book" / "items.jsonl"
        lines = cache_path.read_text().splitlines()
        good = json.loads(lines.pop())
        bad_pairs = ({"key": 1, "value": "x"}, {"key": "genre", "value": 2.5}, {"key": "genre", "value": None})
        lines += [json.dumps(dict(good, pairs=[pair]), sort_keys=True) for pair in bad_pairs]
        cache_path.write_text("\n".join(lines) + "\n")

        counting = CountingProvider(mock7)
        cpool = categorize_pool(counting, small_pool(5), small_taxonomy, tmp_path)
        assert counting.calls == 1  # the item whose only records are malformed
        assert cpool.coverage == 1.0

    def test_written_lines_load_without_json_decoding(self, tmp_path, mock7, small_taxonomy, monkeypatch):
        pool = small_pool(30)
        cold = categorize_pool(mock7, pool, small_taxonomy, tmp_path)
        assert {pair for entry in cold.entries.values() for pair in entry.pairs} <= {
            FeaturePair(f.name, value) for f in small_taxonomy.features for value in f.values
        }

        def refuse(line, *args):
            raise AssertionError(f"decoded {line!r}")

        monkeypatch.setattr(catalog, "_decode_json", refuse)
        counting = CountingProvider(mock7)
        warm = categorize_pool(counting, pool, small_taxonomy, tmp_path)
        assert counting.calls == 0
        assert warm.entries == cold.entries
        loaded = load_categorized_pool(tmp_path, pool, small_taxonomy, mock7.model_name)
        assert loaded.entries == cold.entries

    def test_out_of_list_value_line_is_decoded(self, tmp_path, small_taxonomy, monkeypatch):
        pool = small_pool(2)
        provider = ScriptedProvider(["genre: fiction\ntheme: love", "genre: cyberpunk\ntheme: love"])
        cold = categorize_pool(provider, pool, small_taxonomy, tmp_path, max_workers=1)
        decoded = []

        def decode(line, *args):
            decoded.append(line)
            return json.JSONDecoder().raw_decode(line, *args)

        monkeypatch.setattr(catalog, "_decode_json", decode)
        warm = load_categorized_pool(tmp_path, pool, small_taxonomy, provider.model_name)
        assert warm.entries == cold.entries
        assert FeaturePair("genre", "cyberpunk") in warm.entries["i001"].pairs
        assert [json.loads(line)["item_id"] for line in decoded] == ["i001"]

    def test_pool_shares_one_object_per_distinct_pair(self, tmp_path, mock7, small_taxonomy):
        def shared(entries) -> bool:
            pairs = [pair for entry in entries.values() for pair in entry.pairs]
            return len({id(pair) for pair in pairs}) == len(set(pairs))

        pool = small_pool(30)
        cold = categorize_pool(mock7, pool, small_taxonomy, tmp_path, max_workers=4)
        assert shared(cold.entries)
        for warm in (
            categorize_pool(mock7, pool, small_taxonomy, tmp_path),
            load_categorized_pool(tmp_path, pool, small_taxonomy, mock7.model_name),
        ):
            assert shared(warm.entries)
            assert warm.entries == cold.entries

    def test_feature_count_change_invalidates_cache(self, tmp_path, mock7, small_taxonomy):
        pool = small_pool(10)
        categorize_pool(mock7, pool, small_taxonomy, tmp_path)
        truncated = truncate_features(small_taxonomy, 1)
        counting = CountingProvider(mock7)
        cpool = categorize_pool(counting, pool, truncated, tmp_path)
        assert counting.calls == 10
        assert cpool.taxonomy_ref[1] == 1
        # Both taxonomies remain independently cached.
        counting2 = CountingProvider(mock7)
        categorize_pool(counting2, pool, small_taxonomy, tmp_path)
        assert counting2.calls == 0

    def test_cold_runs_write_pool_order(self, mock7, small_taxonomy, tmp_path):
        pool = small_pool(12)

        class SlowFirstProvider:
            """Earlier items answer later, so workers finish out of pool order."""

            model_name = mock7.model_name

            def __init__(self):
                self.finished: list[int] = []
                self._lock = threading.Lock()

            def complete(self, request):
                index = int(re.search(r"Work (\d+)", request.prompt).group(1))
                time.sleep((len(pool.items) - index) * 0.005)
                response = mock7.complete(request)
                with self._lock:
                    self.finished.append(index)
                return response

        cache_bytes = []
        for run in ("first", "second"):
            provider = SlowFirstProvider()
            categorize_pool(provider, pool, small_taxonomy, tmp_path / run, max_workers=4)
            assert provider.finished != sorted(provider.finished)
            cache_bytes.append((tmp_path / run / "book" / "items.jsonl").read_bytes())
        assert cache_bytes[0] == cache_bytes[1]
        written = [json.loads(line)["item_id"] for line in cache_bytes[0].decode().splitlines()]
        assert written == [item.id for item in pool.items]

    def test_cache_record_line_golden(self):
        # The line the cache has always held for this item: keys sorted,
        # pairs sorted by key then value, non-ASCII escaped.
        pairs = frozenset({
            FeaturePair("theme", "power"),
            FeaturePair("genre", "mystery"),
            FeaturePair("genre", "fiction"),
            FeaturePair("era", "belle époque"),
        })
        handle = io.StringIO()
        categorized = CategorizedItem(item=Item(id="b7", title="Émile"), pairs=pairs)
        _append_cache_record(handle, "b7", "fp01", categorized, "genre: fiction, mystery\ntheme: power")
        assert handle.getvalue() == (
            '{"item_id": "b7", "pairs": [{"key": "era", "value": "belle \\u00e9poque"}, '
            '{"key": "genre", "value": "fiction"}, {"key": "genre", "value": "mystery"}, '
            '{"key": "theme", "value": "power"}], '
            '"raw_text": "genre: fiction, mystery\\ntheme: power", "taxonomy_fingerprint": "fp01"}\n'
        )

    def test_entry_keys_subset_of_taxonomy(self, tmp_path, small_taxonomy):
        pool = small_pool(4)
        provider = ScriptedProvider(["genre: fiction\nmood: gloomy\ntheme: love"])
        cpool = categorize_pool(provider, pool, small_taxonomy, tmp_path, max_workers=1)
        allowed = set(small_taxonomy.feature_names)
        for categorized in cpool.entries.values():
            assert {pair.key for pair in categorized.pairs} <= allowed


class TestLoadCategorizedPool:
    def test_round_trip(self, tmp_path, mock7, small_taxonomy):
        pool = small_pool(12)
        built = categorize_pool(mock7, pool, small_taxonomy, tmp_path)
        loaded = load_categorized_pool(tmp_path, pool, small_taxonomy, mock7.model_name)
        assert loaded.taxonomy_ref == built.taxonomy_ref
        assert loaded.entries == dict(built.entries)

    def test_incomplete_cache_is_error(self, tmp_path, mock7, small_taxonomy):
        pool = small_pool(5)
        with pytest.raises(TaxRecError):
            load_categorized_pool(tmp_path, pool, small_taxonomy, mock7.model_name)


class TestTaxonomyPairs:
    def test_one_object_per_taxonomy_pair(self, tmp_path, mock7, small_taxonomy):
        pair = FeaturePair("genre", "fiction")
        assert FeaturePair("genre", "fiction") is pair
        pool = small_pool(12)
        categorize_pool(mock7, pool, small_taxonomy, tmp_path)
        loaded = load_categorized_pool(tmp_path, pool, small_taxonomy, mock7.model_name)
        loaded_pairs = {p for entry in loaded.entries.values() for p in entry.pairs}
        assert loaded_pairs
        for loaded_pair in loaded_pairs:
            assert FeaturePair(*loaded_pair) is loaded_pair
        parsed = filter_pairs("Genre: Fiction\ntheme: love", small_taxonomy.feature_names)
        assert {id(p) for p in parsed} == {id(pair), id(FeaturePair("theme", "love"))}

    def test_reply_values_outside_the_taxonomy_are_not_kept(self, small_taxonomy):
        size = len(core._TAXONOMY_PAIRS)
        reply = "\n".join(f"genre: unlisted {n}" for n in range(1000))
        parsed = filter_pairs(reply, small_taxonomy.feature_names)
        assert len(parsed) == 1000
        assert len(core._TAXONOMY_PAIRS) == size
        assert FeaturePair("genre", "unlisted 7") is not FeaturePair("genre", "unlisted 7")
