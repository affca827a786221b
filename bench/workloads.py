"""The three benchmark workloads and the correctness checks they run.

Each workload builds its inputs from the benchmark seed, sets up several
times (the median is ``setup_s``), then runs timed operations in a closed
loop with one client for the requested number of seconds. A calibration
probe runs before every set-up and operation, outside its timing, so that
timings can also be reported at a reference speed (see ``calibration``). In a traced run the operations alternate between
untraced and traced, so the tracing overhead is measured inside one run,
and the per-layer metrics come from the traced half.

* ``onetime``: cold ``categorize_pool`` passes into an empty cache, each
  followed by warm reruns on the full cache; the warm reruns are measured.
* ``serve``: ``recommend`` requests over a 5,000-item categorized pool.
* ``evaluate``: warm ``taxrec evaluate`` invocations through ``cli.main``.
"""
from __future__ import annotations

import contextlib
import heapq
import io
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from taxrec import catalog, cli, recommender
from taxrec.catalog import CategorizedPool, CategorizeStats, ItemPool
from taxrec.core import (
    CategorizedItem,
    FeaturePair,
    InteractionSequence,
    Taxonomy,
    pair_set_intersection_size,
)
from taxrec.errors import StageError
from taxrec.gateway import MockProvider
from taxrec.synthetic import make_synthetic_dataset
from taxrec.taxonomy import generate_taxonomy, taxonomy_fingerprint

from calibration import Calibrator
from spans import Tracer, install_tracing, layer_metrics

ONETIME_ITEMS = 2000
SERVE_ITEMS = 5000
SERVE_MIN_REQUESTS = 200
MAX_WORKERS = 2
SETUPS = 5
K = 10
HISTORY_LENGTH = 10
# Warm reruns after each cold pass: enough that six passes, as a slow
# machine fits into 30 seconds, give more than WARM_MIN_RERUNS.
WARM_BURST = 30
# Tails are taken per window of consecutive operations and the median over
# the windows is reported, so that one burst of interference from the host
# moves one window, not the run. Percentile and window size are fixed per
# workload, so that the number of samples a run happens to take does not
# change what is reported. Each window has at least 10 samples beyond its
# percentile: onetime takes at least 100 warm reruns and serve at least 200
# requests; evaluate has fewer than 20 invocations, so its tail is the
# slowest of each window of 4.
WARM_TAIL = (0.90, 100)
SERVE_TAIL = (0.95, 200)
EVALUATE_TAIL = (1.0, 4)
WARM_MIN_RERUNS = 100


class CheckFailed(Exception):
    """A correctness check failed; ``check`` names it."""

    def __init__(self, check: str, detail: str) -> None:
        super().__init__(f"{check}: {detail}")
        self.check = check


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    workdir: Path

    def fresh_dir(self, name: str) -> Path:
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    """What one workload run measured.

    ``named`` holds the workload's own metrics as ``name -> (value, unit,
    samples)``; ``metrics`` the end-to-end metrics declared in
    BENCHMARK.json (untraced run) or the per-layer ones (traced run).
    """

    attempted: int = 0
    failed: int = 0
    named: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    tracer: Tracer | None = None
    probe_ms: float = 0.0  # median calibration probe, wall time


class CountingProvider:
    """Counts calls to the wrapped provider."""

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.model_name = inner.model_name
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls += 1
        return self.inner.complete(request)


# -- statistics ----------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``q=1.0`` is the maximum."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def windowed_tail(values: list[float], tail: tuple[float, int]) -> float:
    """Median over consecutive windows of the percentile ``q`` of each.

    ``tail`` is ``(q, window)``. A remainder shorter than a window joins
    the last full window; fewer values than a window make one window.
    """
    q, window = tail
    count = max(1, len(values) // window)
    bounds = [i * window for i in range(count)] + [len(values)]
    return statistics.median(
        percentile(values[start:end], q) for start, end in zip(bounds, bounds[1:])
    )


def cache_bytes_per_item(path: Path) -> float:
    """Size of a categorization cache file per record it holds."""
    data = path.read_bytes()
    return len(data) / max(1, data.count(b"\n"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Op:
    label: str
    seconds: float  # wall time
    traced: bool
    value: Any
    mark: int  # the calibration mark taken just before the operation
    single_thread: bool  # runs on the client thread alone, not on worker threads


class Runner:
    """Runs set-ups and timed operations for one client, with probe marks.

    A calibration mark is taken before every set-up and operation, outside
    its timing; :meth:`scaled` turns an operation's wall time into time at
    the reference speed (see ``calibration``). An operation on worker
    threads gets long marks on both sides. With a tracer, every
    odd-numbered operation of a kind is traced.
    """

    def __init__(self, ctx: Context) -> None:
        self.tracer = Tracer() if ctx.trace else None
        self.calibrator = Calibrator()

    def setups(
        self, setup: Callable[[], Any], count: int, single_thread: bool
    ) -> tuple[Any, list[Op]]:
        """Run ``setup`` ``count`` times; return the last state and every timing."""
        state, ops = None, []
        for index in range(count):
            mark = self.open_mark(single_thread)
            started = time.perf_counter()
            state = setup()
            seconds = time.perf_counter() - started
            self.close_mark(single_thread)
            ops.append(Op(f"setup-{index}", seconds, False, None, mark, single_thread))
        return state, ops

    def open_mark(self, single_thread: bool) -> int:
        return self.calibrator.mark(long=not single_thread)

    def close_mark(self, single_thread: bool) -> None:
        """The next operation's mark closes a single-threaded one's bracket."""
        if not single_thread:
            self.calibrator.mark(long=True)

    def op(
        self,
        prefix: str,
        index: int,
        op: Callable[[str, Any], tuple[float, Any]],
        provider: Any,
        single_thread: bool,
    ) -> Op:
        """Run one operation.

        ``op(label, provider)`` returns its own measured seconds, so that
        work outside the call it times is not counted. A traced operation
        gets a tracing provider, and the tracer labels its spans with it.
        """
        label = f"{prefix}-{index}"
        tracer = self.tracer
        traced = tracer is not None and index % 2 == 1
        mark = self.open_mark(single_thread)
        if traced:
            tracer.request = label
            install_tracing(tracer)
        try:
            wrap = traced and provider is not None
            seconds, value = op(label, tracer.provider(provider) if wrap else provider)
        finally:
            if traced:
                tracer.uninstall()
                tracer.request = None
        self.close_mark(single_thread)
        return Op(label, seconds, traced, value, mark, single_thread)

    def loop(
        self,
        prefix: str,
        budget_s: float,
        min_ops: int,
        op: Callable[[str, Any], tuple[float, Any]],
        provider: Any,
        single_thread: bool,
        first_index: int = 0,
    ) -> list[Op]:
        """Closed loop, no think time: run ``op`` until the budget and minimum are met."""
        ops: list[Op] = []
        started = time.perf_counter()
        while len(ops) < min_ops or time.perf_counter() - started < budget_s:
            ops.append(self.op(prefix, first_index + len(ops), op, provider, single_thread))
        return ops

    def scaled(self, op: Op) -> float:
        """The operation's seconds at the reference speed; needs a closing mark."""
        return op.seconds * self.calibrator.factor(op.mark, op.single_thread)


def untraced(ops: list[Op]) -> list[Op]:
    return [o for o in ops if not o.traced]


def traced_labels(ops: list[Op]) -> list[str]:
    return [o.label for o in ops if o.traced]


def overhead_share(ops: list[Op], seconds: Callable[[Op], float]) -> float:
    plain = [seconds(o) for o in ops if not o.traced]
    traced = [seconds(o) for o in ops if o.traced]
    if not plain or not traced:
        return 0.0
    return statistics.median(traced) / statistics.median(plain) - 1.0


Summary = Callable[[Callable[[Op], float]], dict[str, tuple[float, str, int]]]


def finish(
    outcome: Outcome,
    runner: Runner,
    setups: list[Op],
    ops: list[Op],
    warm_ops: list[Op],
    summary: Summary,
    names: dict[str, str],
    layer_extra: dict[str, tuple[float, str]],
) -> Outcome:
    """Fill in the shared metrics and pick the set the run reports.

    ``summary(seconds)`` computes the workload's timing metrics given how
    to read an operation's seconds. Read as wall time, they are reported
    under the workload's own ``names``; read at the reference speed, they
    are the end-to-end metrics. ``ops`` are the workload's main timed
    operations: per-op layer figures and the tracing overhead are taken
    over them. ``warm_ops`` are those whose ``categorize_pool`` call reads
    a full cache.
    """
    runner.calibrator.mark()  # closes the bracket around the last measurement
    wall = summary(lambda op: op.seconds)
    setup_wall = [op.seconds for op in setups]
    outcome.named.update({names.get(name, name): value for name, value in wall.items()})
    outcome.named.update(
        setup_s=(statistics.median(setup_wall), "s", len(setups)),
        peak_rss_mb=(peak_rss_mb(), "MB", 1),
        failed_share=(outcome.failed / outcome.attempted if outcome.attempted else 0.0, "ratio",
                      outcome.attempted),
    )
    outcome.probe_ms = runner.calibrator.probe_ms()
    tracer = runner.tracer
    if tracer is None:
        scaled = summary(runner.scaled)
        outcome.metrics = {
            "setup_s": (statistics.median(runner.scaled(op) for op in setups), "s"),
            "peak_rss_mb": outcome.named["peak_rss_mb"][:2],
            **{name: (value, unit) for name, (value, unit, _) in scaled.items()},
        }
        return outcome
    layer_extra = {
        **layer_extra, "trace.overhead_share": (overhead_share(ops, runner.scaled), "ratio")
    }
    scale = {op.label: runner.scaled(op) / op.seconds for op in ops + warm_ops if op.seconds}
    outcome.metrics, outcome.absent = layer_metrics(
        tracer, traced_labels(ops), traced_labels(warm_ops), scale, layer_extra
    )
    outcome.tracer = tracer
    return outcome


# -- onetime -------------------------------------------------------------


def check_coverage(cpool: CategorizedPool) -> None:
    if cpool.coverage != 1.0 or len(cpool.entries) != len(cpool.pool.items):
        raise CheckFailed(
            "onetime.coverage",
            f"coverage {cpool.coverage} with {len(cpool.entries)} of {len(cpool.pool.items)} items",
        )


def check_pair_keys(cpool: CategorizedPool, taxonomy: Taxonomy) -> None:
    allowed = set(taxonomy.feature_names)
    for item_id, entry in cpool.entries.items():
        for pair in entry.pairs:
            if pair.key not in allowed:
                raise CheckFailed(
                    "onetime.pair_keys", f"item {item_id} has pair key {pair.key!r} outside the taxonomy"
                )


def check_warm_calls(calls: int) -> None:
    if calls:
        raise CheckFailed("onetime.warm_calls", f"warm reruns issued {calls} provider calls")


def check_warm_entries(cold: CategorizedPool, warm: CategorizedPool) -> None:
    if dict(warm.entries) != dict(cold.entries):
        differing = sorted(
            i for i in set(cold.entries) | set(warm.entries)
            if cold.entries.get(i) != warm.entries.get(i)
        )
        raise CheckFailed(
            "onetime.warm_entries", f"{len(differing)} entries differ, first {differing[:3]}"
        )


def onetime(ctx: Context, n_items: int = ONETIME_ITEMS, warmup_items: int = 500) -> Outcome:
    """Cold categorization of the pool into an empty cache, then warm reruns."""
    outcome = Outcome()
    runner = Runner(ctx)

    def setup():
        pool, _ = make_synthetic_dataset(n_items=n_items, seed=ctx.seed)
        provider = MockProvider(ctx.seed)
        taxonomy = generate_taxonomy(provider, pool.domain_label, None).taxonomy
        warmup = ItemPool(pool.domain_label, pool.items[: min(warmup_items, n_items)])
        catalog.categorize_pool(
            provider, warmup, taxonomy, ctx.fresh_dir("onetime-warmup"), max_workers=MAX_WORKERS
        )
        return pool, provider, taxonomy

    # Set-up and cold passes run two categorization workers; warm reruns
    # find nothing to do and stay on the client thread.
    (pool, provider, taxonomy), setups = runner.setups(setup, SETUPS, single_thread=False)
    cache_dir = ctx.workdir / "onetime-cache"
    last_cold: CategorizedPool | None = None

    # Outputs are checked as soon as each call returns, outside its timing,
    # and only the last cold result is kept, so memory does not grow with
    # the number of operations.
    def cold(label: str, prov) -> tuple[float, None]:
        nonlocal last_cold
        shutil.rmtree(cache_dir, ignore_errors=True)
        stats = CategorizeStats()
        started = time.perf_counter()
        cpool = catalog.categorize_pool(
            prov, pool, taxonomy, cache_dir, max_workers=MAX_WORKERS, stats=stats
        )
        seconds = time.perf_counter() - started
        outcome.attempted += n_items
        outcome.failed += len(stats.failures)
        check_coverage(cpool)
        check_pair_keys(cpool, taxonomy)
        last_cold = cpool
        return seconds, None

    def warm(label: str, prov) -> tuple[float, None]:
        counting = CountingProvider(prov)
        started = time.perf_counter()
        cpool = catalog.categorize_pool(counting, pool, taxonomy, cache_dir, max_workers=MAX_WORKERS)
        seconds = time.perf_counter() - started
        check_warm_calls(counting.calls)
        check_warm_entries(last_cold, cpool)
        return seconds, None

    # Cold passes alternate with bursts of warm reruns, so both sample the
    # whole run rather than one half of it each.
    cold_ops: list[Op] = []
    warm_ops: list[Op] = []
    started = time.perf_counter()
    while (
        len(cold_ops) < 4
        or len(warm_ops) < WARM_MIN_RERUNS
        or time.perf_counter() - started < ctx.seconds
    ):
        cold_ops.append(runner.op("cold", len(cold_ops), cold, provider, single_thread=False))
        warm_ops += runner.loop(
            "warm", 0.0, WARM_BURST, warm, provider, single_thread=True, first_index=len(warm_ops)
        )
    cache_bytes = cache_bytes_per_item(cache_dir / pool.domain_label / "items.jsonl")

    # The end-to-end metrics are taken over the warm reruns. A cold pass
    # keeps the client and two workers contending for the GIL on two CPUs,
    # so its time follows the host's scheduling: the median pass of a run
    # moved 1.6x between periods of the same machine, in wall and in CPU
    # time, and no probe tracked it. Cold passes are reported as wall time
    # beside the metrics and, per layer, in a traced run.
    def summary(seconds: Callable[[Op], float]) -> dict[str, tuple[float, str, int]]:
        warm_ms = [1000 * seconds(o) for o in untraced(warm_ops)]
        return {
            "throughput_per_s": (1000 * n_items * len(warm_ms) / sum(warm_ms), "1/s", len(warm_ms)),
            "op_p50_ms": (statistics.median(warm_ms), "ms", len(warm_ms)),
            "op_tail_ms": (windowed_tail(warm_ms, WARM_TAIL), "ms", len(warm_ms)),
        }

    outcome = finish(
        outcome, runner, setups, ops=cold_ops, warm_ops=warm_ops, summary=summary,
        names={
            "throughput_per_s": "categorize_warm_items_per_s",
            "op_p50_ms": "warm_rerun_p50_ms",
            "op_tail_ms": "warm_rerun_tail_ms",
        },
        layer_extra={"catalog.cache_bytes_per_item": (cache_bytes, "bytes")},
    )
    cold_rates = [n_items / o.seconds for o in untraced(cold_ops)]
    outcome.named["categorize_cold_items_per_s"] = (
        statistics.median(cold_rates), "1/s", len(cold_rates)
    )
    return outcome


# -- serve ---------------------------------------------------------------


def serve_pool(taxonomy: Taxonomy, n_items: int, seed: int) -> CategorizedPool:
    """A categorized pool with one seeded value per taxonomy feature."""
    pool, _ = make_synthetic_dataset(
        n_items=n_items, n_users=1, interactions_per_user=1, seed=seed
    )
    rng = random.Random(seed)
    entries = {
        item.id: CategorizedItem(
            item=item,
            pairs=frozenset(FeaturePair(f.name, rng.choice(f.values)) for f in taxonomy.features),
        )
        for item in pool.items
    }
    return CategorizedPool(
        taxonomy_ref=(taxonomy_fingerprint("bench", taxonomy), len(taxonomy.features)),
        entries=entries,
        coverage=1.0,
        pool=pool,
    )


class Requests:
    """Distinct seeded request histories drawn from the pool."""

    def __init__(self, cpool: CategorizedPool, seed: int) -> None:
        self._items = cpool.pool.items
        self._rng = random.Random(seed)
        self._seen: set[tuple[str, ...]] = set()

    def next(self) -> InteractionSequence:
        while True:
            chosen = self._rng.sample(self._items, HISTORY_LENGTH + 1)
            key = tuple(item.id for item in chosen[:HISTORY_LENGTH])
            if key not in self._seen:
                self._seen.add(key)
                return InteractionSequence(
                    user_id=f"r{len(self._seen)}", history=tuple(chosen[:HISTORY_LENGTH]),
                    target=chosen[HISTORY_LENGTH],
                )


def oracle_ranking(
    feature_pairs: frozenset, pool_pairs: list[tuple[str, frozenset]], k: int
) -> tuple[tuple[str, float], ...]:
    """Brute-force top k by ``pair_set_intersection_size``, ties by ascending id."""
    scores = [
        (-pair_set_intersection_size(pairs, feature_pairs), item_id) for item_id, pairs in pool_pairs
    ]
    return tuple((item_id, float(-negated)) for negated, item_id in heapq.nsmallest(k, scores))


def as_tuples(pairs: frozenset[FeaturePair]) -> frozenset[tuple[str, str]]:
    """Pairs as (key, value) tuples, which compare exactly as FeaturePair does
    and hash in C, so the oracle runs about twice as fast."""
    return frozenset((pair.key, pair.value) for pair in pairs)


@dataclass(frozen=True)
class Served:
    """What the checks need from one request: its history and its answer."""

    history: tuple[str, ...]
    feature_pairs: frozenset[FeaturePair]
    entries: tuple[tuple[str, float], ...]


def check_rankings(served: list[Served], cpool: CategorizedPool, k: int) -> None:
    """Every ranking equals the oracle's, entry for entry."""
    pool_pairs = [
        (item.id, as_tuples(cpool.entries[item.id].pairs) if item.id in cpool.entries else frozenset())
        for item in cpool.pool.items
    ]
    for request in served:
        expected = oracle_ranking(as_tuples(request.feature_pairs), pool_pairs, k)
        if request.entries != expected:
            raise CheckFailed(
                "serve.ranking_oracle",
                f"history {request.history[:3]}...: got {list(request.entries)[:3]}..., "
                f"oracle {list(expected)[:3]}...",
            )


def check_distinct(served: list[Served], minimum: int) -> None:
    keys = {request.history for request in served}
    if len(keys) < minimum:
        raise CheckFailed("serve.distinct_requests", f"{len(keys)} distinct of {minimum} required")


def serve(
    ctx: Context,
    n_items: int = SERVE_ITEMS,
    min_requests: int = SERVE_MIN_REQUESTS,
    warmup: int = 10,
) -> Outcome:
    """Closed loop of ``recommend`` requests, one client, no think time."""
    outcome = Outcome()
    runner = Runner(ctx)
    cfg = recommender.RecommendConfig(k=K)

    def setup():
        provider = MockProvider(ctx.seed)
        taxonomy = generate_taxonomy(provider, "book", None).taxonomy
        cpool = serve_pool(taxonomy, n_items, ctx.seed)
        warm = Requests(cpool, ctx.seed + 1)
        for _ in range(warmup):
            recommender.recommend(provider, warm.next(), cpool, taxonomy, cfg, domain_label="book")
        return provider, taxonomy, cpool, Requests(cpool, ctx.seed + 2)

    (provider, taxonomy, cpool, requests), setups = runner.setups(setup, 3, single_thread=True)
    served: list[Served] = []

    def request(label: str, prov) -> tuple[float, Any]:
        sequence = requests.next()
        outcome.attempted += 1
        started = time.perf_counter()
        try:
            result = recommender.recommend(prov, sequence, cpool, taxonomy, cfg, domain_label="book")
        except StageError:
            outcome.failed += 1
            result = None
        seconds = time.perf_counter() - started
        if result is not None:
            served.append(Served(
                tuple(item.id for item in sequence.history),
                result.feature_set.pairs,
                tuple(result.ranked.entries),
            ))
        return seconds, None

    ops = runner.loop("req", ctx.seconds, min_requests, request, provider, single_thread=True)

    check_distinct(served, len(ops) - outcome.failed)
    check_rankings(served, cpool, K)

    def summary(seconds: Callable[[Op], float]) -> dict[str, tuple[float, str, int]]:
        # One client with no think time completes one request per latency.
        ms = [1000 * seconds(o) for o in untraced(ops)]
        return {
            "throughput_per_s": (1000 * len(ms) / sum(ms), "1/s", len(ms)),
            "op_p50_ms": (statistics.median(ms), "ms", len(ms)),
            "op_tail_ms": (windowed_tail(ms, SERVE_TAIL), "ms", len(ms)),
        }

    return finish(
        outcome, runner, setups, ops=ops, warm_ops=[], summary=summary,
        names={
            "throughput_per_s": "recommend_per_s",
            "op_p50_ms": "recommend_p50_ms",
            "op_tail_ms": "recommend_p95_ms",
        },
        layer_extra={"catalog.cache_bytes_per_item": (0.0, "bytes")},
    )


# -- evaluate ------------------------------------------------------------


def evaluate_args(seed: int, n: int = 200) -> list[str]:
    """Criterion 04's arguments with the benchmark seed, plus two workers."""
    return [
        "evaluate", "--provider", "mock", "--dataset", "synthetic",
        "--n", str(n), "--seed", str(seed),
        "--max-workers", str(MAX_WORKERS), "--cache-dir", "cache",
    ]


@contextlib.contextmanager
def _inside(directory: Path):
    previous = Path.cwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def invoke_evaluate(directory: Path, args: list[str], out: str) -> tuple[int, bytes | None]:
    """Run ``taxrec evaluate`` in ``directory``; return its exit code and report bytes."""
    with _inside(directory), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(args + ["--out", out])
    report = directory / out / "report.json"
    return code, report.read_bytes() if code == 0 and report.exists() else None


def check_exit_code(code: int, label: str) -> None:
    if code != 0:
        raise CheckFailed("evaluate.exit_code", f"invocation {label} exited with {code}")


def check_report_bytes(first: bytes, report: bytes, label: str) -> None:
    if report != first:
        position = next(
            (i for i, (a, b) in enumerate(zip(first, report)) if a != b), min(len(first), len(report))
        )
        raise CheckFailed(
            "evaluate.report_bytes", f"report of {label} differs from the first at byte {position}"
        )


def failed_rows(report: bytes) -> tuple[int, int]:
    """(failed, attempted) rows of the report's instance logs."""
    rows = [row for r in json.loads(report)["reports"] for row in r["instance_log"]]
    return sum(1 for row in rows if row["failed"]), len(rows)


def evaluate(ctx: Context, n: int = 200) -> Outcome:
    """Warm ``taxrec evaluate`` invocations after a cold one as set-up."""
    outcome = Outcome()
    runner = Runner(ctx)
    args = evaluate_args(ctx.seed, n)
    reports: list[bytes] = []  # the first report only
    setup_number = itertools.count()

    def setup():
        directory = ctx.fresh_dir(f"evaluate-{next(setup_number)}")
        code, report = invoke_evaluate(directory, args, "runs/cold")
        check_exit_code(code, "cold")
        if reports:
            check_report_bytes(reports[0], report, "cold")
        else:
            reports.append(report)
        return directory

    # Every invocation evaluates on two worker threads.
    directory, setups = runner.setups(setup, 3, single_thread=False)

    def invocation(label: str, prov) -> tuple[float, int]:
        started = time.perf_counter()
        code, report = invoke_evaluate(directory, args, f"runs/{label}")
        seconds = time.perf_counter() - started
        check_exit_code(code, label)
        check_report_bytes(reports[0], report, label)
        failed, attempted = failed_rows(report)
        outcome.failed += failed
        outcome.attempted += attempted
        return seconds, attempted

    # cli.main builds its own provider; in a traced run build_provider is
    # wrapped so that provider gets traced as well.
    ops = runner.loop("eval", ctx.seconds, 4, invocation, None, single_thread=False)

    def summary(seconds: Callable[[Op], float]) -> dict[str, tuple[float, str, int]]:
        plain = untraced(ops)
        ms = [1000 * seconds(o) for o in plain]
        evaluations = sum(o.value for o in plain)
        return {
            "throughput_per_s": (1000 * evaluations / sum(ms), "1/s", len(ms)),
            "op_p50_ms": (statistics.median(ms), "ms", len(ms)),
            "op_tail_ms": (windowed_tail(ms, EVALUATE_TAIL), "ms", len(ms)),
        }

    outcome = finish(
        outcome, runner, setups, ops=ops, warm_ops=ops, summary=summary,
        names={
            "throughput_per_s": "evaluations_per_s",
            "op_p50_ms": "evaluate_p50_ms",
            "op_tail_ms": "evaluate_tail_ms",
        },
        layer_extra={"catalog.cache_bytes_per_item": (
            cache_bytes_per_item(directory / "cache" / "book" / "items.jsonl"), "bytes"
        )},
    )
    value, _, samples = outcome.named["evaluate_p50_ms"]
    outcome.named["evaluate_s"] = (value / 1000, "s", samples)
    return outcome


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "onetime": onetime,
    "serve": serve,
    "evaluate": evaluate,
}
