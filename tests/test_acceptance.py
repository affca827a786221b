"""Acceptance gate: every criterion at its stated tolerance.

Each test carries its criterion number; the conftest terminal hook prints
one PASS/FAIL line per criterion at the end of the run. The canonical
MovieLens count check needs the real dataset and is skipped when it is not
on disk (set TAXREC_ML100K_DIR or place it under tests/data/ml-100k).
"""
from __future__ import annotations

import hashlib
import os
import random
import time
import warnings
from pathlib import Path

import pytest

from taxrec.catalog import (
    CategorizedPool,
    ItemPool,
    categorize_pool,
    load_bookcrossing,
    load_movielens,
)
from taxrec.cli import main as cli_main
from taxrec.core import (
    CategorizedItem,
    FeaturePair,
    FeatureSet,
    Item,
    RankedList,
    pair_set_intersection_size,
)
from taxrec.errors import TaxRecError
from taxrec.evaluation import (
    SweepSetup,
    build_movie_sequences,
    ndcg_at_k,
    pad_history,
    recall_at_k,
    run_experiment,
    run_sweep,
)
from taxrec.gateway import (
    MockProvider,
    render_categorization_prompt,
    render_recommendation_prompt,
    render_taxonomy_prompt,
)
from taxrec.matchers import bleu_score, exact_title_score, rouge_l_f1
from taxrec.recommender import RecommendConfig, recommend, score_pool
from taxrec.synthetic import make_synthetic_dataset
from taxrec.taxonomy import generate_taxonomy

from conftest import CountingProvider, FailAfterProvider, build_known_answer_setup


def _random_categorized_pool(rng: random.Random, n_items: int, n_features: int) -> CategorizedPool:
    values = ["a", "b", "c", "d"]
    feature_names = [f"f{i}" for i in range(n_features)]
    items = []
    entries = {}
    for index in range(n_items):
        item = Item(id=f"i{index:03d}", title=f"Work {index}")
        items.append(item)
        chosen = rng.sample(feature_names, rng.randint(0, n_features))
        pairs = frozenset(FeaturePair(name, rng.choice(values)) for name in chosen)
        if pairs:
            entries[item.id] = CategorizedItem(item=item, pairs=pairs)
    pool = ItemPool(domain_label="book", items=tuple(items))
    return CategorizedPool(
        taxonomy_ref=("acc", n_features),
        entries=entries,
        coverage=len(entries) / n_items,
        pool=pool,
    )


def test_criterion_01_scoring_oracle_equivalence():
    """Inverted-index scorer equals brute force on 1,000 random cases, < 10 s."""
    rng = random.Random(1001)
    started = time.perf_counter()
    for _ in range(1000):
        n_features = rng.randint(1, 12)
        cpool = _random_categorized_pool(rng, rng.randint(1, 200), n_features)
        pairs = frozenset(
            FeaturePair(f"f{rng.randrange(n_features)}", rng.choice(["a", "b", "c", "d"]))
            for _ in range(rng.randint(0, 15))
        )
        feature_set = FeatureSet(pairs=pairs, raw_text="")
        fast = dict(score_pool(feature_set, cpool))
        for item in cpool.pool.items:
            entry = cpool.entries.get(item.id)
            expected = float(
                pair_set_intersection_size(entry.pairs if entry else frozenset(), pairs)
            )
            assert fast[item.id] == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"scoring oracle sweep took {elapsed:.1f}s"


def _random_ranked(rng: random.Random, depth: int = 12) -> tuple[RankedList, str]:
    target_rank = rng.randint(1, depth + 5)  # may exceed depth: target absent
    entries = []
    for position in range(1, depth + 1):
        item_id = "t" if position == target_rank else f"f{position:02d}"
        entries.append((item_id, float(depth - position)))
    return RankedList(entries=tuple(entries), k=depth), "t"


def test_criterion_02_metric_identities():
    """ndcg@1 == recall@1; ndcg@k <= recall@k; both non-decreasing in k."""
    rng = random.Random(2002)
    for _ in range(500):
        ranked, target = _random_ranked(rng)
        assert ndcg_at_k(ranked, target, 1) == recall_at_k(ranked, target, 1)
        previous_recall, previous_ndcg = 0.0, 0.0
        for k in (1, 5, 10):
            recall = recall_at_k(ranked, target, k)
            ndcg = ndcg_at_k(ranked, target, k)
            assert ndcg <= recall
            assert recall >= previous_recall
            assert ndcg >= previous_ndcg
            previous_recall, previous_ndcg = recall, ndcg


def test_criterion_03_ndcg_point_values():
    """Rank 3 gives ndcg@10 = 0.5 within 1e-12; rank 1 gives exactly 1.0."""
    rank3 = RankedList(entries=(("a", 3.0), ("b", 2.0), ("t", 1.0)), k=10)
    assert abs(ndcg_at_k(rank3, "t", 10) - 0.5) <= 1e-12
    rank1 = RankedList(entries=(("t", 3.0), ("b", 2.0)), k=10)
    assert ndcg_at_k(rank1, "t", 10) == 1.0


EVAL_ARGS = [
    "evaluate", "--provider", "mock", "--dataset", "synthetic",
    "--n", "200", "--seed", "7",
]


def test_criterion_04_end_to_end_mock_determinism(tmp_path, monkeypatch):
    """The seeded synthetic evaluation is byte-identical across runs, < 60 s."""
    monkeypatch.chdir(tmp_path)
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli_main(EVAL_ARGS + ["--cache-dir", "cache", "--out", "runA"]) == 0
        assert cli_main(EVAL_ARGS + ["--cache-dir", "cache", "--out", "runB"]) == 0
    elapsed = time.perf_counter() - started
    bytes_a = (tmp_path / "runA" / "report.json").read_bytes()
    bytes_b = (tmp_path / "runB" / "report.json").read_bytes()
    assert bytes_a == bytes_b
    assert elapsed < 60.0, f"two evaluation runs took {elapsed:.1f}s"


# sha256 of the criterion-04 outputs. A change that moves these bytes on
# purpose updates the digests and says why in CHANGES.md.
CRITERION_04_SHA256 = {
    "report.json": "d2a372b07ffa4c7a969b347b19077e8e1dc8264ef9a21560306604c0e7a4f581",
    "table.txt": "1a7eb4ddcdace79c2979b7c9feb0e32d87c654150da81e51d7b8ab85112b5c20",
}


def test_criterion_04_report_bytes_pinned(tmp_path, monkeypatch):
    """The seeded synthetic evaluation writes exactly the recorded bytes."""
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli_main(EVAL_ARGS + ["--cache-dir", "cache", "--out", "run"]) == 0
    for name, digest in CRITERION_04_SHA256.items():
        assert hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest() == digest, name


# sha256 of sweeps over the criterion-04 arguments. They send history
# lines without titles, parse titles out of replies, run the
# taxonomy-free direct path and the free-text matchers, and cut the
# taxonomy to each feature count.
SWEEP_SHA256 = {
    "matcher": {
        "report.json": "c6064df9db97bbdb9d7936551dcb1a8256fd58cba41c96d6a7f1c20af53be969",
        "table.txt": "863d61f1fd9a9c0cc6f78dfa200ea878bfadcd48449ed5d31fef5ca14aad60ce",
    },
    "prompt-variant": {
        "report.json": "54ed974f16b322a28d84515defcdc32313f150b20c46ba593619125d998533f8",
        "table.txt": "088a93c9a77daa1a5f5e3e1b07f241770d2b9a4ca6215943d713daa4dc4f32b1",
    },
    "ablation": {
        "report.json": "81747b9eb527f5f1efd75aa55f8f26e35c96125610ca331c8d27a2167533239b",
        "table.txt": "25edc251382a0477f9dd60f3c7d644f3589d2b8f4fb6dd77f18e97ea87b5bd67",
    },
    "feature-count": {
        "report.json": "7ddade5c1b25f793adf75a9db57cb0026ae3c7f7e013634422171ed8af0e012c",
        "table.txt": "e529d64b65f852ef6709c3a999f6be91dc62b78f6b00eaf709bc5c0cdde54baf",
    },
}


@pytest.mark.parametrize("axis", sorted(SWEEP_SHA256))
def test_criterion_04_sweep_report_bytes_pinned(tmp_path, monkeypatch, axis):
    """The seeded synthetic sweeps write exactly the recorded bytes."""
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli_main(EVAL_ARGS + ["--cache-dir", "cache", "--sweep", axis, "--out", "run"]) == 0
    for name, digest in SWEEP_SHA256[axis].items():
        assert hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest() == digest, name


# sha256 of the criterion-04 run with every built-in method, so the
# average-embedding baseline's bytes are pinned too.
ALL_METHODS_SHA256 = {
    "report.json": "4e0a3a5949c07f5e655d98f3ca93d5ef69a7ce1f7ab936cea7fa4595d74c9159",
    "table.txt": "c6c4be41f787efd8b31b89cdc3b6bf2418594315537749fc8986e50e8177e381",
}


def test_criterion_04_all_methods_report_bytes_pinned(tmp_path, monkeypatch):
    """The seeded synthetic evaluation of all four methods writes the recorded bytes."""
    monkeypatch.chdir(tmp_path)
    methods = ["--methods", "taxrec,direct,popularity,avgemb"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli_main(EVAL_ARGS + methods + ["--cache-dir", "cache", "--out", "run"]) == 0
    for name, digest in ALL_METHODS_SHA256.items():
        assert hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest() == digest, name


def test_criterion_05_known_answer_direction():
    """Constructed fixture: full pipeline hits recall@1 = 1.0, the
    taxonomy-free variant (out-of-pool generations) drops to 0.0."""
    taxonomy, cpool, sequences = build_known_answer_setup()
    provider = MockProvider(7)
    full_cfg = RecommendConfig(taxonomy_feature_count=4)
    direct_cfg = RecommendConfig(use_taxonomy=False, matcher="exact_title")

    methods = {
        "taxrec": lambda seq: recommend(
            provider, seq, cpool, taxonomy, full_cfg, domain_label="book"
        ).ranked,
        "no_tax": lambda seq: recommend(
            provider, seq, cpool, None, direct_cfg, domain_label="book"
        ).ranked,
    }
    report = run_experiment(methods, sequences, repeats=1, max_workers=1)
    assert report.per_method["taxrec"]["recall@1"] == 1.0
    assert report.per_method["no_tax"]["recall@1"] == 0.0


def test_criterion_06_one_time_phase_caching(tmp_path, small_taxonomy):
    """Rerun issues zero calls; interrupt at 40 of 100 resumes with exactly 60."""
    pool = ItemPool(
        domain_label="book",
        items=tuple(Item(id=f"i{n:03d}", title=f"Work {n}") for n in range(100)),
    )
    first = CountingProvider(MockProvider(7))
    categorize_pool(first, pool, small_taxonomy, tmp_path / "one", max_workers=4)
    assert first.calls == 100

    rerun = CountingProvider(MockProvider(7))
    categorize_pool(rerun, pool, small_taxonomy, tmp_path / "one", max_workers=4)
    assert rerun.calls == 0

    dying = CountingProvider(FailAfterProvider(MockProvider(7), 40))
    with pytest.raises(TaxRecError):
        categorize_pool(dying, pool, small_taxonomy, tmp_path / "two", max_workers=4)
    resume = CountingProvider(MockProvider(7))
    cpool = categorize_pool(resume, pool, small_taxonomy, tmp_path / "two", max_workers=4)
    assert resume.calls == 60
    assert cpool.coverage == 1.0


def test_criterion_07_padding_law():
    """All lengths 1..10: padded length 10, prefix intact, suffix repeats last."""
    for length in range(1, 11):
        history = [Item(id=f"i{n}", title=f"T{n}") for n in range(length)]
        padded = pad_history(history, 10)
        assert len(padded) == 10
        assert padded[:length] == history
        assert all(item == history[-1] for item in padded[length:])


def _sweep_fixture(tmp_path):
    provider = MockProvider(7)
    pool, interactions = make_synthetic_dataset(
        n_items=60, n_users=20, interactions_per_user=15, seed=7
    )
    doc = generate_taxonomy(provider, "book", tmp_path)
    cpool = categorize_pool(provider, pool, doc.taxonomy, tmp_path, max_workers=4)
    sequences = build_movie_sequences(interactions, pool, sample_n=15, seed=7)

    def make_method(cfg: RecommendConfig):
        return lambda seq: recommend(
            provider, seq, cpool, doc.taxonomy, cfg, domain_label="book"
        ).ranked

    return SweepSetup(
        make_method=make_method,
        base_config=RecommendConfig(),
        sequences=sequences,
        repeats=1,
        max_workers=4,
    )


def test_criterion_08_sweep_machinery(tmp_path):
    """Feature-count and matcher sweeps complete with a well-formed report per cell."""
    setup = _sweep_fixture(tmp_path)

    feature_reports = run_sweep("feature_count", [5, 10, 15, 20], setup)
    assert [r.label for r in feature_reports] == [
        "feature_count=5", "feature_count=10", "feature_count=15", "feature_count=20",
    ]
    matcher_reports = run_sweep("matcher", ["taxonomy", "bleu", "rouge"], setup)
    assert [r.label for r in matcher_reports] == [
        "matcher=taxonomy", "matcher=bleu", "matcher=rouge",
    ]
    for report in feature_reports + matcher_reports:
        assert report.error is None
        assert report.per_method, f"empty report for {report.label}"
        for metrics in report.per_method.values():
            for key in ("recall@1", "recall@5", "recall@10", "ndcg@1", "ndcg@5", "ndcg@10"):
                assert 0.0 <= metrics[key] <= 1.0
            assert metrics["ndcg@1"] == metrics["recall@1"]


def test_criterion_09_matcher_unit_values():
    """BLEU(identical) = 1.0; ROUGE-L matches the hand LCS value; exact is 0/1."""
    for text in ("Emma", "war and peace", "one two three four five six"):
        assert bleu_score(text, text) == 1.0
    # LCS("the quick brown fox jumps", "the brown fox quickly jumps") = 4
    # of 5 tokens: P = R = 0.8, F1 = 0.8.
    value = rouge_l_f1("the quick brown fox jumps", "the brown fox quickly jumps")
    assert abs(value - 0.8) <= 1e-9
    for text in ("Emma", "no match", "Emma and Emma"):
        assert exact_title_score("Emma", text) in (0.0, 1.0)


def _ml100k_dir() -> Path | None:
    candidates = []
    if os.environ.get("TAXREC_ML100K_DIR"):
        candidates.append(Path(os.environ["TAXREC_ML100K_DIR"]))
    candidates.append(Path(__file__).parent / "data" / "ml-100k")
    candidates.append(Path("data") / "ml-100k")
    for candidate in candidates:
        if (candidate / "u.item").exists() and (candidate / "u.data").exists():
            return candidate
    return None


def test_criterion_10_ingestion_counts(tmp_path):
    """Canonical MovieLens count (when the dataset is present) plus
    byte-stable golden parses for both dataset formats."""
    # Golden fixture, MovieLens format.
    (tmp_path / "u.item").write_text(
        "1|Toy Story (1995)|x\n2|GoldenEye (1995)|x\n3|Four Rooms (1995)|x\n",
        encoding="latin-1",
    )
    (tmp_path / "u.data").write_text(
        "1\t2\t3\t881250949\n1\t1\t5\t881250950\n2\t3\t4\t881250800\n", encoding="latin-1"
    )
    pool, interactions = load_movielens(tmp_path)
    assert [(i.id, i.title) for i in pool.items] == [
        ("1", "Toy Story (1995)"), ("2", "GoldenEye (1995)"), ("3", "Four Rooms (1995)"),
    ]
    assert [(r.user_id, r.item_id, r.rating, r.timestamp) for r in interactions] == [
        ("1", "2", 3.0, 881250949), ("1", "1", 5.0, 881250950), ("2", "3", 4.0, 881250800),
    ]

    # Golden fixture, BookCrossing format.
    (tmp_path / "BX-Books.csv").write_text(
        '"ISBN";"Book-Title";"Book-Author";"Year-Of-Publication";"Publisher";"I";"I";"I"\n'
        '"0195153448";"Classical Mythology";"Mark P. O. Morford";"2002";"Oxford University Press";"u";"u";"u"\n'
        '"0002005018";"Clara Callan; A Novel";"Richard Bruce Wright";"2001";"HarperFlamingo Canada";"u";"u";"u"\n',
        encoding="latin-1",
    )
    (tmp_path / "BX-Book-Ratings.csv").write_text(
        '"User-ID";"ISBN";"Book-Rating"\n"276725";"0195153448";"0"\n"276726";"0002005018";"5"\n',
        encoding="latin-1",
    )
    book_pool, book_interactions = load_bookcrossing(tmp_path)
    assert sorted(item.id for item in book_pool.items) == ["0002005018", "0195153448"]
    assert book_pool.items[book_pool.positions["0002005018"]].title == "Clara Callan; A Novel"
    assert book_pool.items[book_pool.positions["0195153448"]].extra == {
        "author": "Mark P. O. Morford", "publisher": "Oxford University Press",
    }
    assert [(r.user_id, r.item_id, r.rating) for r in book_interactions] == [
        ("276725", "0195153448", 0.0), ("276726", "0002005018", 5.0),
    ]

    # Canonical dataset count, when available on disk.
    real_dir = _ml100k_dir()
    if real_dir is None:
        pytest.skip(
            "canonical MovieLens-100k not present (set TAXREC_ML100K_DIR or "
            "place it under tests/data/ml-100k); golden parses above verified"
        )
    real_pool, _ = load_movielens(real_dir)
    assert len(real_pool.items) == 1682


def test_criterion_11_prompt_fidelity():
    """Rendered prompts carry the verbatim role and task segments."""
    taxonomy_prompt = render_taxonomy_prompt("book")
    assert "You are an expert in book recommendations" in taxonomy_prompt
    assert "I have a book dataset" in taxonomy_prompt
    assert "Generate a taxonomy for this book dataset in JSON format" in taxonomy_prompt
    assert "This taxonomy includes some features, each with several values" in taxonomy_prompt

    categorization_prompt = render_categorization_prompt("book", "genre: fiction", "1984")
    assert "You are a book classifier" in categorization_prompt
    assert (
        "Given a book, please classify it following the format of the given taxonomy"
        in categorization_prompt
    )

    recommendation_prompt = render_recommendation_prompt("book", "genre: fiction", "1984", 10)
    assert "You are a book recommender system" in recommendation_prompt
    assert "Given a list of books the user has read before" in recommendation_prompt
    assert (
        "please recommend 10 books in a list of features following the format of the given taxonomy"
        in recommendation_prompt
    )
