"""Walkthrough of the evaluation harness: protocol, baselines, and sweeps.

Builds seeded evaluation sequences from a synthetic interaction log, runs
the pipeline against two baselines, prints the scaled metric grid, and
finishes with a feature-count sweep.
"""
import tempfile
import warnings
from pathlib import Path

from taxrec import (
    MockProvider,
    PopularityTable,
    RecommendConfig,
    SweepSetup,
    build_movie_sequences,
    categorize_pool,
    format_metric_table,
    generate_taxonomy,
    make_synthetic_dataset,
    popularity_recommend,
    recommend,
    run_experiment,
    run_sweep,
)
from taxrec.evaluation import COMPONENT_ABLATIONS

warnings.simplefilter("ignore")  # the mock is deterministic; repeats warn

provider = MockProvider(seed=7)

pool, interactions = make_synthetic_dataset(
    n_items=80, n_users=25, interactions_per_user=15, seed=7
)
with tempfile.TemporaryDirectory(prefix="taxrec-demo-") as workdir:
    cache_dir = Path(workdir)
    doc = generate_taxonomy(provider, "book", cache_dir)
    cpool = categorize_pool(provider, pool, doc.taxonomy, cache_dir, max_workers=4)

# Timestamped protocol: each target's history is the window just before it.
sequences = build_movie_sequences(interactions, pool, sample_n=40, seed=7)
print(f"built {len(sequences)} evaluation sequences (10 interactions each, padded)")


def taxrec_method(cfg: RecommendConfig):
    return lambda seq: recommend(provider, seq, cpool, doc.taxonomy, cfg, domain_label="book").ranked


table = PopularityTable.from_interactions(interactions)
methods = {
    "taxrec": taxrec_method(RecommendConfig()),
    # The taxonomy-free direct path is the "no_tax" cell of the ablation sweep.
    "direct": taxrec_method(RecommendConfig(**COMPONENT_ABLATIONS["no_tax"])),
    "popularity": lambda seq: popularity_recommend(table, seq, 10),
}

print("\n=== single experiment (metrics shown x10, the usual display convention) ===")
report = run_experiment(methods, sequences, repeats=1, label="demo")
print(format_metric_table([report]))

print("\n=== feature-count sweep ===")
setup = SweepSetup(
    make_method=taxrec_method,
    base_config=RecommendConfig(),
    sequences=sequences,
    repeats=1,
)
reports = run_sweep("feature_count", [5, 10, 15, 20], setup)
print(format_metric_table(reports))

print("\nsweep cells:", ", ".join(r.label for r in reports))
