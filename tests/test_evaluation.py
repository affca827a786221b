"""Protocol machinery: padding, sequences, metrics, runs, sweeps, reports."""
from __future__ import annotations

import json
import random
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from taxrec.catalog import Interaction, ItemPool, categorize_pool
from taxrec.core import InteractionSequence, Item, RankedList, rank_scores
from taxrec.errors import TaxRecError
from taxrec.evaluation import (
    MetricReport,
    SweepSetup,
    build_book_sequences,
    build_movie_sequences,
    format_metric_table,
    load_external_results,
    ndcg_at_k,
    pad_history,
    recall_at_k,
    run_experiment,
    run_sweep,
    write_report,
)
from taxrec.gateway import MockProvider
from taxrec.recommender import RecommendConfig, recommend
from taxrec.synthetic import make_synthetic_dataset
from taxrec.taxonomy import generate_taxonomy

from conftest import CountingProvider, LatencyProvider, call_with_timeout


def _items(n: int) -> list[Item]:
    return [Item(id=f"i{index:03d}", title=f"Title {index}") for index in range(n)]


class TestPadHistory:
    def test_three_to_five(self):
        a, b, c = _items(3)
        assert pad_history([a, b, c], 5) == [a, b, c, c, c]

    def test_full_length_identity(self):
        items = _items(10)
        assert pad_history(items, 10) == items

    def test_single_item_repeats(self):
        (a,) = _items(1)
        assert pad_history([a], 10) == [a] * 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pad_history([], 10)

    @given(st.integers(min_value=1, max_value=10))
    def test_padding_law(self, length):
        items = _items(length)
        padded = pad_history(items, 10)
        assert len(padded) == 10
        assert padded[:length] == items
        assert all(item == items[-1] for item in padded[length:])


def _movie_fixture(n_interactions: int = 15):
    pool = ItemPool(domain_label="movie", items=tuple(_items(n_interactions)))
    interactions = [
        Interaction(user_id="u1", item_id=f"i{index:03d}", rating=1.0, timestamp=100 + index)
        for index in range(n_interactions)
    ]
    return pool, interactions


class TestBuildMovieSequences:
    def test_window_immediately_before_target(self):
        pool, interactions = _movie_fixture(15)
        sequences = build_movie_sequences(interactions, pool, sample_n=14, seed=0)
        # Target at (1-based) position 12 is item index 11; its history is
        # positions 2..11, i.e. item indices 1..10.
        by_target = {seq.target.id: seq for seq in sequences}
        seq = by_target["i011"]
        assert [item.id for item in seq.history] == [f"i{index:03d}" for index in range(1, 11)]

    def test_short_window_padded(self):
        pool, interactions = _movie_fixture(15)
        sequences = build_movie_sequences(interactions, pool, sample_n=14, seed=0)
        by_target = {seq.target.id: seq for seq in sequences}
        seq = by_target["i003"]  # target at position 4: three prior interactions
        assert [item.id for item in seq.history[:3]] == ["i000", "i001", "i002"]
        assert len(seq.history) == 10
        assert all(item.id == "i002" for item in seq.history[3:])

    def test_seed_reproducible(self):
        pool, interactions = _movie_fixture(15)
        first = build_movie_sequences(interactions, pool, sample_n=5, seed=3)
        second = build_movie_sequences(interactions, pool, sample_n=5, seed=3)
        assert first == second

    def test_sample_shortfall_is_error(self):
        pool, interactions = _movie_fixture(5)
        with pytest.raises(TaxRecError):
            build_movie_sequences(interactions, pool, sample_n=50, seed=0)

    def test_target_never_in_history(self):
        rng = random.Random(8)
        pool = ItemPool(domain_label="movie", items=tuple(_items(30)))
        interactions = []
        for user in range(6):
            item_ids = rng.sample(range(30), 12)
            for step, item_index in enumerate(item_ids):
                interactions.append(
                    Interaction(
                        user_id=f"u{user}", item_id=f"i{item_index:03d}", rating=1.0, timestamp=step
                    )
                )
        sequences = build_movie_sequences(interactions, pool, sample_n=20, seed=1)
        for seq in sequences:
            assert all(item.id != seq.target.id for item in seq.history)


class TestBuildBookSequences:
    def _fixture(self, users: dict[str, list[str]]):
        ids = sorted({i for items in users.values() for i in items})
        pool = ItemPool(
            domain_label="book", items=tuple(Item(id=i, title=f"Book {i}") for i in ids)
        )
        interactions = [
            Interaction(user_id=user, item_id=item_id, rating=1.0)
            for user, items in users.items()
            for item_id in items
        ]
        return pool, interactions

    def test_threshold_plus_one_forces_full_history(self):
        items = [f"b{index}" for index in range(11)]
        pool, interactions = self._fixture({"u1": items})
        sequences = build_book_sequences(interactions, pool, sample_n=1, seed=4)
        seq = sequences[0]
        assert sorted({item.id for item in seq.history} | {seq.target.id}) == sorted(items)
        assert len(seq.history) == 10

    def test_short_user_padded(self):
        pool, interactions = self._fixture({"u1": ["a", "b", "c"]})
        sequences = build_book_sequences(interactions, pool, sample_n=1, seed=0)
        assert len(sequences[0].history) == 10

    def test_users_below_two_interactions_skipped(self):
        pool, interactions = self._fixture({"u1": ["a", "b", "c"], "u2": ["a"]})
        with pytest.raises(TaxRecError):
            build_book_sequences(interactions, pool, sample_n=2, seed=0)

    def test_target_never_in_history_property(self):
        rng = random.Random(9)
        users = {
            f"u{n}": [f"b{i}" for i in rng.sample(range(40), rng.randint(2, 20))]
            for n in range(25)
        }
        pool, interactions = self._fixture(users)
        sequences = build_book_sequences(interactions, pool, sample_n=25, seed=2)
        for seq in sequences:
            assert all(item.id != seq.target.id for item in seq.history)

    def test_seed_reproducible(self):
        pool, interactions = self._fixture({f"u{n}": ["a", "b", "c", "d"] for n in range(8)})
        first = build_book_sequences(interactions, pool, sample_n=5, seed=11)
        second = build_book_sequences(interactions, pool, sample_n=5, seed=11)
        assert first == second


def _ranked(target_rank: int, depth: int = 10, target_id: str = "t") -> RankedList:
    entries = []
    for position in range(1, depth + 1):
        item_id = target_id if position == target_rank else f"filler{position:02d}"
        entries.append((item_id, float(depth - position)))
    return RankedList(entries=tuple(entries), k=depth)


class TestMetrics:
    def test_recall_point_values(self):
        assert recall_at_k(_ranked(1), "t", 1) == 1.0
        assert recall_at_k(_ranked(7), "t", 5) == 0.0
        assert recall_at_k(_ranked(7), "t", 10) == 1.0

    def test_ndcg_point_values(self):
        assert ndcg_at_k(_ranked(1), "t", 1) == 1.0
        assert ndcg_at_k(_ranked(3), "t", 10) == pytest.approx(0.5, abs=1e-12)
        assert ndcg_at_k(_ranked(7), "t", 5) == 0.0

    def test_ndcg1_equals_recall1_on_random_lists(self):
        rng = random.Random(21)
        for _ in range(300):
            rank = rng.randint(1, 12)
            ranked = _ranked(rank, depth=12)
            assert ndcg_at_k(ranked, "t", 1) == recall_at_k(ranked, "t", 1)

    def test_monotone_and_bounded_in_k(self):
        rng = random.Random(22)
        for _ in range(200):
            rank = rng.randint(1, 15)
            ranked = _ranked(rank, depth=15)
            previous_recall, previous_ndcg = 0.0, 0.0
            for k in (1, 5, 10):
                recall = recall_at_k(ranked, "t", k)
                ndcg = ndcg_at_k(ranked, "t", k)
                assert ndcg <= recall
                assert recall >= previous_recall and ndcg >= previous_ndcg
                previous_recall, previous_ndcg = recall, ndcg

    def test_missing_target_scores_zero(self):
        ranked = rank_scores([("a", 1.0)], k=5)
        assert recall_at_k(ranked, "t", 5) == 0.0
        assert ndcg_at_k(ranked, "t", 5) == 0.0


def _sequences(n: int, pool_items: list[Item]) -> list[InteractionSequence]:
    sequences = []
    for index in range(n):
        target = pool_items[index % len(pool_items)]
        history = [item for item in pool_items if item.id != target.id][:3]
        sequences.append(
            InteractionSequence(
                user_id=f"u{index}", history=tuple(pad_history(history, 10)), target=target
            )
        )
    return sequences


def _constant_method(rank_of_target: int):
    def method(sequence: InteractionSequence) -> RankedList:
        entries = []
        for position in range(1, 11):
            if position == rank_of_target:
                entries.append((sequence.target.id, float(11 - position)))
            else:
                entries.append((f"zz{position:02d}", float(11 - position)))
        return RankedList(entries=tuple(entries), k=10)

    return method


class TestRunExperiment:
    def test_metrics_for_constant_rank_three(self):
        items = _items(5)
        report = run_experiment(
            {"fixed": _constant_method(3)}, _sequences(8, items), repeats=1, max_workers=1
        )
        metrics = report.per_method["fixed"]
        assert metrics["recall@1"] == 0.0
        assert metrics["recall@5"] == 1.0
        assert metrics["ndcg@10"] == pytest.approx(0.5)
        assert metrics["ndcg@1"] == metrics["recall@1"]

    def test_popularity_forced_recall_one(self):
        # Fixture designed so the target is always the most popular unseen
        # item: every user's history is b/c/d and the target is a.
        from taxrec.baselines import PopularityTable, popularity_recommend

        items = _items(5)
        counts = {"i000": 100, "i001": 5, "i002": 4, "i003": 3, "i004": 2}
        table = PopularityTable(counts=counts)
        sequences = [
            InteractionSequence(
                user_id=f"u{n}",
                history=tuple(pad_history([items[1], items[2], items[3]], 10)),
                target=items[0],
            )
            for n in range(6)
        ]
        report = run_experiment(
            {"popularity": lambda seq: popularity_recommend(table, seq, 10)},
            sequences,
            repeats=1,
            max_workers=1,
        )
        assert report.per_method["popularity"]["recall@1"] == 1.0

    def test_deterministic_across_runs(self):
        items = _items(6)
        sequences = _sequences(10, items)
        first = run_experiment({"m": _constant_method(2)}, sequences, repeats=1, max_workers=4)
        second = run_experiment({"m": _constant_method(2)}, sequences, repeats=1, max_workers=4)
        assert first.per_method == second.per_method
        assert first.instance_log == second.instance_log

    def test_failures_become_misses_under_limit(self):
        items = _items(5)
        sequences = _sequences(25, items)

        def flaky(sequence: InteractionSequence) -> RankedList:
            if sequence.user_id == "u3":
                raise RuntimeError("boom")
            return _constant_method(1)(sequence)

        report = run_experiment({"flaky": flaky}, sequences, repeats=1, max_workers=1)
        assert report.per_method["flaky"]["recall@1"] == pytest.approx(24 / 25)
        failed_rows = [row for row in report.instance_log if row["failed"]]
        assert len(failed_rows) == 1

    def test_failure_fraction_over_limit_raises(self):
        items = _items(5)
        sequences = _sequences(10, items)

        def broken(sequence: InteractionSequence) -> RankedList:
            raise RuntimeError("always")

        with pytest.raises(TaxRecError):
            run_experiment({"broken": broken}, sequences, repeats=1, max_workers=1)

    def test_a_base_exception_from_a_method_is_raised(self):
        # A method's Exception scores a miss; anything else ends the run,
        # raised once the workers are joined, never a hang.
        class Halt(BaseException):
            pass

        def halting(sequence: InteractionSequence) -> RankedList:
            if sequence.user_id == "u3":
                raise Halt
            return _constant_method(1)(sequence)

        before = threading.active_count()
        with pytest.raises(Halt):
            call_with_timeout(
                lambda: run_experiment({"halting": halting}, _sequences(200, _items(5)), repeats=3, max_workers=2)
            )
        assert threading.active_count() == before

    def test_identical_repeats_warn(self):
        items = _items(5)
        sequences = _sequences(4, items)
        with pytest.warns(UserWarning, match="identical"):
            run_experiment({"m": _constant_method(1)}, sequences, repeats=3, max_workers=1)

    def test_worker_threads_bound_provider_calls(self, tmp_path):
        mock = MockProvider(7)
        pool, interactions = make_synthetic_dataset(
            n_items=60, n_users=24, interactions_per_user=12, seed=7
        )
        doc = generate_taxonomy(mock, "book", tmp_path)
        cpool = categorize_pool(mock, pool, doc.taxonomy, tmp_path)
        sequences = build_movie_sequences(interactions, pool, sample_n=24, seed=7)
        workers = 8
        provider = CountingProvider(LatencyProvider(mock, 0.02))

        def method(sequence: InteractionSequence) -> RankedList:
            return recommend(
                provider, sequence, cpool, doc.taxonomy, RecommendConfig(), domain_label="book"
            ).ranked

        run_experiment({"taxrec": method}, sequences, repeats=1, max_workers=workers)
        assert provider.calls == len(sequences)
        assert provider.peak_in_flight <= workers

    def test_shallow_ranked_list_rejected(self):
        items = _items(5)
        sequences = _sequences(4, items)

        def shallow(sequence: InteractionSequence) -> RankedList:
            return rank_scores([("a", 1.0)], k=3)

        with pytest.raises(TaxRecError):
            run_experiment({"shallow": shallow}, sequences, repeats=1, max_workers=1)


class TestRunSweep:
    def _setup(self, sequences):
        def make_method(cfg: RecommendConfig):
            # Stand-in system: rank the target at a position that depends
            # on the config, so cells are distinguishable.
            rank = 1 if cfg.taxonomy_feature_count >= 10 else 2
            return _constant_method(rank)

        return SweepSetup(
            make_method=make_method,
            base_config=RecommendConfig(),
            sequences=sequences,
            repeats=1,
            max_workers=1,
        )

    def test_feature_count_sweep_produces_four_reports(self):
        sequences = _sequences(4, _items(5))
        reports = run_sweep("feature_count", [5, 10, 15, 20], self._setup(sequences))
        assert [report.label for report in reports] == [
            "feature_count=5", "feature_count=10", "feature_count=15", "feature_count=20",
        ]
        assert all(report.error is None for report in reports)
        assert reports[0].per_method["feature_count=5"]["recall@1"] == 0.0
        assert reports[1].per_method["feature_count=10"]["recall@1"] == 1.0

    def test_matcher_sweep(self):
        sequences = _sequences(3, _items(5))
        reports = run_sweep("matcher", ["taxonomy", "bleu", "rouge"], self._setup(sequences))
        assert len(reports) == 3
        assert all(report.error is None for report in reports)

    def test_prompt_variant_sweep_covers_four_cells(self):
        sequences = _sequences(3, _items(5))
        reports = run_sweep(
            "prompt_variant",
            ["h+t/rec+t", "h+t/rec-t", "h-t/rec+t", "h-t/rec-t"],
            self._setup(sequences),
        )
        assert len(reports) == 4
        assert all(report.error is None for report in reports)

    def test_component_ablation_cells(self):
        sequences = _sequences(3, _items(5))
        reports = run_sweep("component_ablation", ["full", "no_tax", "no_match"], self._setup(sequences))
        assert [report.error for report in reports] == [None, None, None]

    def test_failed_cell_marked_and_sweep_continues(self):
        sequences = _sequences(3, _items(5))
        reports = run_sweep("matcher", ["taxonomy", "warp-drive", "rouge"], self._setup(sequences))
        assert reports[0].error is None
        assert reports[1].error is not None
        assert reports[2].error is None

    def test_unknown_axis_rejected(self):
        sequences = _sequences(3, _items(5))
        with pytest.raises(ValueError):
            run_sweep("volume", [1], self._setup(sequences))


class TestReports:
    def test_scale_factor_display(self):
        report = MetricReport(
            per_method={"m": {"recall@1": 0.03, "recall@5": 0.03, "recall@10": 0.03,
                              "ndcg@1": 0.03, "ndcg@5": 0.03, "ndcg@10": 0.03}},
            repeats=1,
        )
        table = format_metric_table([report])
        assert "0.300" in table

    def test_write_report_byte_stable(self, tmp_path):
        items = _items(5)
        report = run_experiment(
            {"m": _constant_method(2)}, _sequences(6, items), repeats=1, max_workers=1
        )
        first = write_report(tmp_path / "a", {"seed": 7}, [report])
        second = write_report(tmp_path / "b", {"seed": 7}, [report])
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a" / "table.txt").exists()

    @settings(max_examples=100, deadline=None)
    @given(
        logs=st.lists(
            st.lists(
                st.fixed_dictionaries(
                    {
                        "repeat": st.integers(0, 2),
                        "instance": st.integers(0, 10**6),
                        "user_id": st.text(max_size=8),
                        "target_id": st.sampled_from(["i001", "caf\u00e9", "\u65e5\u672c", "\x00", 'a"b\\']),
                        "method": st.sampled_from(["taxrec", "direct", "popularity"]),
                        "rank": st.one_of(st.none(), st.integers(1, 10)),
                        "failed": st.booleans(),
                    },
                    optional={"error": st.text(max_size=12)},
                ),
                max_size=4,
            ),
            min_size=1,
            max_size=3,
        ),
        label=st.text(max_size=6),
        error=st.one_of(st.none(), st.text(max_size=6)),
        config=st.dictionaries(st.text(max_size=4), st.one_of(st.integers(), st.text(max_size=4))),
    )
    @example(logs=[[], []], label="\x00", error=None, config={"\x00": "\x00"})
    @example(logs=[[{}], [{"rank": None}, {}], [{}, {"rank": 1}]], label="", error=None, config={})
    def test_report_json_equals_indented_dump(self, tmp_path_factory, logs, label, error, config):
        # Failed rows with an error, rank null, non-ASCII and NUL strings,
        # an empty log (a failed sweep cell), empty rows and several reports.
        metrics = {"m": {"recall@1": 0.5, "ndcg@1": 0.25}}
        reports = [
            MetricReport(per_method=metrics, repeats=3, label=label, error=error, instance_log=log)
            for log in logs
        ]
        path = write_report(tmp_path_factory.mktemp("run"), config, reports, ks=(1,))
        payload = {"config": config, "reports": [report.to_payload() for report in reports]}
        assert path.read_text(encoding="utf-8") == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_report_payload_embeds_config(self, tmp_path):
        items = _items(5)
        report = run_experiment(
            {"m": _constant_method(2)}, _sequences(4, items), repeats=1, max_workers=1
        )
        path = write_report(tmp_path, {"seed": 7, "dataset": "synthetic"}, [report])
        payload = json.loads(path.read_text())
        assert payload["config"] == {"seed": 7, "dataset": "synthetic"}
        assert payload["reports"][0]["per_method"]["m"]["ndcg@1"] == payload[
            "reports"
        ][0]["per_method"]["m"]["recall@1"]


class TestExternalResults:
    def test_round_trip_and_metrics(self, tmp_path):
        items = _items(5)
        sequences = _sequences(4, items)
        payload = {
            "method": "external-sota",
            "instances": [
                {
                    "user_id": seq.user_id,
                    "target_id": seq.target.id,
                    "ranking": [[seq.target.id, 5.0]]
                    + [[f"zz{n:02d}", 4.0 - n * 0.1] for n in range(9)],
                }
                for seq in sequences
            ],
        }
        path = tmp_path / "external.json"
        path.write_text(json.dumps(payload))
        name, method = load_external_results(path)
        assert name == "external-sota"
        report = run_experiment({name: method}, sequences, repeats=1, max_workers=1)
        assert report.per_method[name]["recall@1"] == 1.0

    def test_missing_instance_counts_as_failure(self, tmp_path):
        items = _items(5)
        sequences = _sequences(3, items)
        payload = {"method": "partial", "instances": []}
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(payload))
        _, method = load_external_results(path)
        with pytest.raises(TaxRecError):
            run_experiment({"partial": method}, sequences, repeats=1, max_workers=1)

    @pytest.mark.parametrize(
        "text",
        [
            '{"instances": []}',
            '{"method": "m"}',
            '{"method": "m", "instances": [{"user_id": "u", "ranking": []}]}',
            '{"method": "m", "instances": [{"user_id": "u", "target_id": "t", "ranking": [["a"]]}]}',
            '{"method": "m", "instances": [["u", "t"]]}',
            '{"method": "m", "instances": [',
        ],
    )
    def test_malformed_file_is_an_error_naming_it(self, tmp_path, text):
        path = tmp_path / "external.json"
        path.write_text(text)
        with pytest.raises(TaxRecError, match="external.json"):
            load_external_results(path)
