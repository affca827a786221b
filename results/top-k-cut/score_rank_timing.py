"""Median time of score_pool + rank_scores per request on seeded serve pools.

Builds the benchmark's serve pool (one seeded value per taxonomy feature) at
each size, takes the feature sets of ``--requests`` distinct mock
recommendations, and times scoring and ranking them with k=10 after one
warm-up pass. Runs against whichever ``taxrec`` is on ``PYTHONPATH``; a
``score_pool`` without the ``k`` keyword scores the whole pool.

    PYTHONPATH=src python3 results/top-k-cut/score_rank_timing.py --sizes 5000,50000
"""
from __future__ import annotations

import argparse
import inspect
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "bench"))

from workloads import Requests, serve_pool  # noqa: E402
from taxrec.gateway import MockProvider  # noqa: E402
from taxrec.recommender import RecommendConfig, rank_scores, recommend, score_pool  # noqa: E402
from taxrec.taxonomy import generate_taxonomy  # noqa: E402

K = 10


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="5000,50000")
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    cut = {"k": K} if "k" in inspect.signature(score_pool).parameters else {}
    provider = MockProvider(args.seed)
    taxonomy = generate_taxonomy(provider, "book", None).taxonomy
    cfg = RecommendConfig(k=K)
    for n_items in (int(size) for size in args.sizes.split(",")):
        cpool = serve_pool(taxonomy, n_items, args.seed)
        requests = Requests(cpool, args.seed + 2)
        feature_sets = [
            recommend(provider, requests.next(), cpool, taxonomy, cfg, domain_label="book").feature_set
            for _ in range(args.requests)
        ]
        for f in feature_sets:  # warm-up
            rank_scores(score_pool(f, cpool, **cut), K)
        score_ms, rank_ms, total_ms = [], [], []
        for f in feature_sets:
            started = time.perf_counter()
            scores = score_pool(f, cpool, **cut)
            scored = time.perf_counter()
            rank_scores(scores, K)
            ranked = time.perf_counter()
            score_ms.append(1000 * (scored - started))
            rank_ms.append(1000 * (ranked - scored))
            total_ms.append(1000 * (ranked - started))
        print(
            f"n={n_items} requests={len(feature_sets)} k={K} cut={bool(cut)} p50 ms: "
            f"score {statistics.median(score_ms):.3f} rank {statistics.median(rank_ms):.3f} "
            f"score+rank {statistics.median(total_ms):.3f}"
        )


if __name__ == "__main__":
    main()
