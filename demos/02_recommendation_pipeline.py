"""Walkthrough of the recommendation phase for a single user.

Shows the categorized-history prompt, the model's feature-formatted reply,
the parsed feature set, and the intersection-ranked list; then contrasts
the taxonomy-free variant, whose free-text output can only be mapped back
by text similarity.
"""
import tempfile
from pathlib import Path

from taxrec import (
    InteractionSequence,
    MockProvider,
    RecommendConfig,
    categorize_pool,
    generate_taxonomy,
    make_synthetic_dataset,
    recommend,
)

provider = MockProvider(seed=7)

pool, _ = make_synthetic_dataset(n_items=40, n_users=10, interactions_per_user=10, seed=7)
with tempfile.TemporaryDirectory(prefix="taxrec-demo-") as workdir:
    cache_dir = Path(workdir)
    doc = generate_taxonomy(provider, "book", cache_dir)
    cpool = categorize_pool(provider, pool, doc.taxonomy, cache_dir, max_workers=4)

# A user who read the first ten items; the eleventh is held out.
history = pool.items[:10]
target = pool.items[10]
sequence = InteractionSequence(user_id="demo", history=tuple(history), target=target)

print("=== taxonomy-guided recommendation ===")
cfg = RecommendConfig(k=5)
result = recommend(provider, sequence, cpool, doc.taxonomy, cfg, domain_label="book")

print("--- prompt sent ---")
print(result.prompt_text)
print("--- raw model output ---")
print(result.raw_output)
print("--- parsed feature set ---")
for pair in sorted(result.feature_set.pairs):
    print(f"  {pair.key}: {pair.value}")
print("--- top-5 by feature intersection ---")
for rank, (item_id, score) in enumerate(result.ranked.entries, start=1):
    print(f"  {rank}. {pool.by_id[item_id].title}  (score {score:.0f})")

# The taxonomy-free variant sends raw titles and gets free text back. The
# mock imitates the classic failure mode: invented titles outside the
# pool, which exact-title matching cannot place anywhere.
print("\n=== taxonomy-free variant ===")
direct_cfg = RecommendConfig(k=5, use_taxonomy=False, matcher="exact_title")
direct = recommend(provider, sequence, cpool, None, direct_cfg, domain_label="book")
print("--- raw model output ---")
print(direct.raw_output)
print("--- top-5 scores (all zero: nothing matched the pool) ---")
for rank, (item_id, score) in enumerate(direct.ranked.entries, start=1):
    print(f"  {rank}. {pool.by_id[item_id].title}  (score {score:.0f})")

# Free-text matchers grade partial overlap instead of parsing features.
print("\n=== matching ablation (ROUGE-L over raw output) ===")
rouge_cfg = RecommendConfig(k=5, matcher="rouge")
rouge = recommend(provider, sequence, cpool, doc.taxonomy, rouge_cfg, domain_label="book")
for rank, (item_id, score) in enumerate(rouge.ranked.entries, start=1):
    print(f"  {rank}. {pool.by_id[item_id].title}  (score {score:.3f})")
