"""Spans recorded from outside the program, for the traced benchmark run.

The tracer installs timing wrappers on the module attributes that taxrec's
own callers look up (``taxrec.recommender.score_pool``,
``taxrec.gateway.load_template``, ...), so each call into a layer leaves a
span without any change to the package. Provider calls are traced by a
wrapping ``Provider``. Spans are kept in memory under a lock, because
``categorize_pool`` and ``run_experiment`` call from worker threads, and
are written out when the run ends.

A target attribute that no longer exists is recorded as absent: metrics
that depend on it are then left out of the report instead of failing the
run.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

# (module, attribute, span name). The module is where the caller looks the
# name up, which is not always where the function is defined.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("taxrec.catalog", "categorize_pool", "catalog.categorize_pool"),
    ("taxrec.catalog", "taxonomy_to_prompt_text", "taxonomy.taxonomy_to_prompt_text"),
    ("taxrec.recommender", "taxonomy_to_prompt_text", "taxonomy.taxonomy_to_prompt_text"),
    ("taxrec.gateway", "load_template", "gateway.load_template"),
    ("taxrec.gateway", "render_recommendation_prompt", "gateway.render_recommendation_prompt"),
    ("taxrec.recommender", "recommend", "recommender.recommend"),
    ("taxrec.recommender", "categorize_history", "recommender.categorize_history"),
    ("taxrec.recommender", "history_to_prompt_text", "recommender.history_to_prompt_text"),
    ("taxrec.recommender", "parse_feature_output", "recommender.parse_feature_output"),
    ("taxrec.recommender", "build_pool_index", "recommender.build_pool_index"),
    ("taxrec.recommender", "score_pool", "recommender.score_pool"),
    ("taxrec.recommender", "rank_scores", "core.rank_scores"),
    ("taxrec.recommender", "score_titles_against_text", "matchers.score_titles_against_text"),
    ("taxrec.baselines", "popularity_recommend", "baselines.popularity_recommend"),
    ("taxrec.evaluation", "run_experiment", "evaluation.run_experiment"),
    ("taxrec.evaluation", "write_report", "evaluation.write_report"),
)

COMPLETE = "gateway.complete"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    request: str | None
    # Counts read off the call's result or arguments, e.g. scored items.
    extra: tuple | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; wrappers are installed only between install/uninstall."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        # The single client sets this before each operation; worker threads
        # started by that operation read it too, so their spans carry it.
        self.request: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[tuple, dict, Any], tuple | None] | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped so that each call records a span ``name``.

        ``observe(args, kwargs, result)`` runs after the span has ended, so
        its cost is not part of the span; what it returns is kept as the
        span's ``extra``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1] if stack else None
            request = self.request
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = None
                if observe is not None:
                    try:
                        extra = observe(args, kwargs, result)
                    except (TypeError, ValueError, AttributeError):
                        extra = None
                span = Span(span_id, name, start, end, parent, threading.get_ident(), request, extra)
                with self._lock:
                    self.spans.append(span)

        return traced

    # -- installation ---------------------------------------------------

    def patch(self, module: Any, attr: str, make: Callable[[Callable], Callable]) -> bool:
        """Replace ``module.attr`` by ``make(current)`` until :meth:`uninstall`."""
        current = getattr(module, attr, None)
        if current is None:
            return False
        setattr(module, attr, make(current))
        self._installed.append((module, attr, current))
        return True

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            observe = _OBSERVERS.get(name)
            if not self.patch(module, attr, lambda fn: self.wrap(name, fn, observe)):
                self.absent.add(name)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def provider(self, inner: Any) -> "TracingProvider":
        return TracingProvider(inner, self)

    # -- output ---------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span._asdict()) + "\n")


class TracingProvider:
    """A ``Provider`` that records a ``gateway.complete`` span per call."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self.inner = inner
        self.model_name = inner.model_name
        self.complete = tracer.wrap(COMPLETE, inner.complete)


def _observe_scores(args: tuple, kwargs: dict, scores: Any) -> tuple[int, int]:
    return sum(1 for _, score in scores if score > 0), len(scores)


def _observe_stats(args: tuple, kwargs: dict, result: Any) -> tuple[int, int] | None:
    stats = kwargs.get("stats")
    if stats is None:
        return None
    return stats.reasks, stats.dropped_pairs


_OBSERVERS: dict[str, Callable] = {
    "recommender.score_pool": _observe_scores,
    "catalog.categorize_pool": _observe_stats,
}


def install_tracing(tracer: Tracer) -> None:
    """Install every span target, tracing providers built by the CLI as well.

    ``categorize_pool`` always receives a ``CategorizeStats`` so that
    re-asks and dropped pairs can be read from calls made by the CLI.
    """
    from taxrec import catalog, cli

    tracer.install()

    def with_stats(categorize_pool: Callable) -> Callable:
        @functools.wraps(categorize_pool)
        def wrapper(*args, stats=None, **kwargs):
            stats = stats if stats is not None else catalog.CategorizeStats()
            return categorize_pool(*args, stats=stats, **kwargs)

        return wrapper

    def traced_provider(build_provider: Callable) -> Callable:
        @functools.wraps(build_provider)
        def wrapper(*args, **kwargs):
            return tracer.provider(build_provider(*args, **kwargs))

        return wrapper

    tracer.patch(catalog, "categorize_pool", with_stats)
    tracer.patch(cli, "build_provider", traced_provider)


# -- per-layer metrics -------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _share(numerator: float, denominator: float) -> float:
    """A ratio that is 0 when nothing was done."""
    return numerator / denominator if denominator else 0.0


def _within(spans: list[Span], outer: list[Span]) -> list[Span]:
    """Spans that started inside one of ``outer``'s intervals, on any thread."""
    return [s for s in spans if any(o.start <= s.start <= o.end for o in outer)]


# Stages of one recommend request: (span name, reported as self time).
SERVE_STAGES: tuple[tuple[str, bool], ...] = (
    ("recommender.categorize_history", False),
    ("recommender.history_to_prompt_text", False),
    ("gateway.render_recommendation_prompt", False),
    (COMPLETE, False),
    ("recommender.parse_feature_output", False),
    ("recommender.build_pool_index", False),
    ("recommender.score_pool", True),
    ("core.rank_scores", False),
)


def layer_metrics(
    tracer: Tracer,
    ops: list[str],
    warm_ops: list[str],
    scale: dict[str, float],
    extra: dict[str, tuple[float, str]] | None = None,
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from the spans of the traced operations.

    ``ops`` are the request ids of the workload's timed operations; per-op
    figures (``.calls``, ``.busy_s``) are averaged over them. ``warm_ops``
    are operations whose ``categorize_pool`` call runs on a full cache.
    Span durations are multiplied by ``scale`` of their operation (1 if
    absent), the factor that puts the operation at the reference speed.
    Returns the metrics as ``name -> (value, unit)`` and the names left
    out because a span they need was absent.
    """
    op_set, warm_set = set(ops), set(warm_ops)
    n_ops = len(ops)
    by_name: dict[str, list[Span]] = {}
    warm_by_name: dict[str, list[Span]] = {}
    children: dict[int, float] = {}

    def duration(span: Span) -> float:
        return span.duration * scale.get(span.request, 1.0)

    for span in tracer.spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + duration(span)
        if span.request in op_set:
            by_name.setdefault(span.name, []).append(span)
        if span.request in warm_set:
            warm_by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def busy(spans: list[Span], self_time: bool = False) -> float:
        return sum(span_time(s, self_time) for s in spans)

    def span_time(span: Span, self_time: bool = False) -> float:
        return duration(span) - children.get(span.id, 0.0) if self_time else duration(span)

    metrics: dict[str, tuple[float, str]] = {}
    needs: dict[str, tuple[str, ...]] = {}

    def put(name: str, value: float, unit: str, *spans: str) -> None:
        metrics[name] = (float(value), unit)
        needs[name] = spans

    categorize = named("catalog.categorize_pool")
    complete = named(COMPLETE)
    cold = [s for s in categorize if s.request not in warm_set]
    cold_complete = _within(complete, cold)
    cold_calls = len(cold_complete)
    reasks = sum(s.extra[0] for s in cold if s.extra)
    items = cold_calls - reasks
    warm = warm_by_name.get("catalog.categorize_pool", [])
    warm_complete = warm_by_name.get(COMPLETE, [])

    put("catalog.categorize_pool.wall_s", _median([span_time(s) for s in categorize]), "s",
        "catalog.categorize_pool")
    put("catalog.warm_load_s", _median([span_time(s) for s in warm]), "s", "catalog.categorize_pool")
    put("catalog.dispatch_ratio", _share(busy(cold), busy(cold_complete)), "ratio",
        "catalog.categorize_pool")
    put("catalog.reask_share", _share(reasks, items), "ratio", "catalog.categorize_pool")
    put("catalog.dropped_pairs", _share(sum(s.extra[1] for s in cold if s.extra), len(cold)),
        "count", "catalog.categorize_pool")
    put("catalog.warm_rerun_calls", len(_within(warm_complete, warm)), "count",
        "catalog.categorize_pool")
    put(f"{COMPLETE}.calls", _share(len(complete), n_ops), "count")
    for name, per_item in (
        ("gateway.load_template", "gateway.load_template.calls_per_item"),
        ("taxonomy.taxonomy_to_prompt_text", "taxonomy.taxonomy_to_prompt_text.calls_per_item"),
    ):
        put(per_item, _share(len(_within(named(name), cold)), items), "count",
            name, "catalog.categorize_pool")

    for name, self_time in SERVE_STAGES:
        spans = named(name)
        put(f"{name}.p50_ms", 1000 * _median([span_time(s, self_time) for s in spans]), "ms", name)
        put(f"{name}.busy_s", _share(busy(spans, self_time), n_ops), "s", name)

    recommends = named("recommender.recommend")
    put("recommender.build_pool_index.calls_per_request",
        _share(len(named("recommender.build_pool_index")), len(recommends)), "count",
        "recommender.build_pool_index", "recommender.recommend")
    scored = [s.extra for s in named("recommender.score_pool") if s.extra]
    put("recommender.nonzero_score_share",
        _share(sum(e[0] for e in scored), sum(e[1] for e in scored)), "ratio",
        "recommender.score_pool", "recommender.score_pool.result")

    for name in ("matchers.score_titles_against_text", "baselines.popularity_recommend"):
        put(f"{name}.busy_s", _share(busy(named(name)), n_ops), "s", name)
    put("evaluation.run_experiment.wall_s",
        _median([span_time(s) for s in named("evaluation.run_experiment")]), "s",
        "evaluation.run_experiment")
    put("evaluation.write_report.s",
        _median([span_time(s) for s in named("evaluation.write_report")]), "s",
        "evaluation.write_report")

    for name, value in (extra or {}).items():
        metrics[name] = value
    missing = set(tracer.absent)
    if named("recommender.score_pool") and not scored:
        # score_pool returns something other than (item id, score) pairs.
        missing.add("recommender.score_pool.result")
    absent = sorted(name for name, spans in needs.items() if missing.intersection(spans))
    for name in absent:
        metrics.pop(name, None)
    return metrics, absent
