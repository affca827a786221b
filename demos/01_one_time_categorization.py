"""Walkthrough of the one-time phase: taxonomy generation and pool categorization.

Runs entirely offline against the deterministic mock provider; the same
code path works with a real chat endpoint by swapping in HttpChatProvider.
"""
import tempfile
from pathlib import Path

from taxrec import (
    CategorizeStats,
    MockProvider,
    categorize_pool,
    generate_taxonomy,
    make_synthetic_dataset,
    taxonomy_to_prompt_text,
)

with tempfile.TemporaryDirectory(prefix="taxrec-demo-") as workdir:
    cache_dir = Path(workdir)
    provider = MockProvider(seed=7)

    # Step 1: one taxonomy per domain, generated once and persisted.
    print("=== taxonomy generation ===")
    doc = generate_taxonomy(provider, "book", cache_dir)
    print(f"model: {doc.provider_fingerprint[0]}, features: {len(doc.taxonomy.features)}")
    print(taxonomy_to_prompt_text(doc.taxonomy))
    print(f"\npersisted at {cache_dir / 'book' / 'taxonomy.json'}")

    # Step 2: categorize the whole pool against it. Every completed item is
    # appended to the cache immediately, so interrupted runs resume for free.
    print("\n=== pool categorization ===")
    pool, _ = make_synthetic_dataset(n_items=40, n_users=10, interactions_per_user=10, seed=7)
    stats = CategorizeStats()
    cpool = categorize_pool(provider, pool, doc.taxonomy, cache_dir, max_workers=4, stats=stats)
    print(f"coverage: {cpool.coverage:.0%}, dropped out-of-taxonomy pairs: {stats.dropped_pairs}")

    example = cpool.entries[pool.items[0].id]
    print(f"\n'{example.item.title}' categorized as:")
    for pair in sorted(example.pairs):
        print(f"  {pair.key}: {pair.value}")

    # Step 3: a second run touches the cache only; zero provider calls.
    print("\n=== idempotent rerun ===")
    class CountingProvider:
        def __init__(self, inner):
            self.inner, self.model_name, self.calls = inner, inner.model_name, 0

        def complete(self, request):
            self.calls += 1
            return self.inner.complete(request)

    counting = CountingProvider(provider)
    categorize_pool(counting, pool, doc.taxonomy, cache_dir)
    print(f"provider calls on rerun: {counting.calls}")
