"""Shared fixtures: providers, small taxonomies, and the known-answer pool."""
from __future__ import annotations

import re
import threading
import time
from typing import Sequence

import pytest

_CRITERION_RE = re.compile(r"test_acceptance.*test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL/SKIP line per acceptance criterion."""
    statuses: dict[int, str] = {}
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL"), ("skipped", "SKIP")):
        for report in terminalreporter.stats.get(outcome, []):
            match = _CRITERION_RE.search(report.nodeid)
            if match:
                number = int(match.group(1))
                if statuses.get(number) != "FAIL":
                    statuses[number] = label
    if statuses:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(statuses):
            terminalreporter.write_line(f"criterion {number:02d}: {statuses[number]}")

from taxrec.catalog import CategorizedPool, ItemPool
from taxrec.core import (
    CategorizedItem,
    Feature,
    FeaturePair,
    InteractionSequence,
    Item,
    Taxonomy,
)
from taxrec.gateway import LlmRequest, LlmResponse, MockProvider


class CountingProvider:
    """Wraps a provider, counting calls and peak concurrency, and noting
    when the first call came in and the last reply went out."""

    def __init__(self, inner):
        self.inner = inner
        self.model_name = inner.model_name
        self.calls = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self.first_call_s: float | None = None
        self.last_reply_s: float | None = None
        self._lock = threading.Lock()

    def complete(self, request: LlmRequest) -> LlmResponse:
        with self._lock:
            if self.first_call_s is None:
                self.first_call_s = time.perf_counter()
            self.calls += 1
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        try:
            return self.inner.complete(request)
        finally:
            with self._lock:
                self.in_flight -= 1
                self.last_reply_s = time.perf_counter()


class LatencyProvider:
    """Wraps a provider, sleeping ``latency_s`` before each reply: a fixed model latency."""

    def __init__(self, inner, latency_s: float):
        self.inner = inner
        self.model_name = inner.model_name
        self.latency_s = latency_s

    def complete(self, request: LlmRequest) -> LlmResponse:
        time.sleep(self.latency_s)
        return self.inner.complete(request)


class ScriptedProvider:
    """Replays a fixed sequence of responses; the last one repeats.

    A test double for exercising parsers and failure paths with exact
    output control.
    """

    def __init__(self, responses: Sequence[str], model_name: str = "scripted") -> None:
        if not responses:
            raise ValueError("at least one scripted response required")
        self.responses = list(responses)
        self.model_name = model_name
        self.calls: list[LlmRequest] = []
        self._lock = threading.Lock()

    def complete(self, request: LlmRequest) -> LlmResponse:
        with self._lock:
            index = min(len(self.calls), len(self.responses) - 1)
            self.calls.append(request)
        return LlmResponse(text=self.responses[index])


class FailAfterProvider:
    """Succeeds for the first ``limit`` completions, then always raises."""

    def __init__(self, inner, limit: int):
        self.inner = inner
        self.model_name = inner.model_name
        self.limit = limit
        self.successes = 0
        self._lock = threading.Lock()

    def complete(self, request: LlmRequest) -> LlmResponse:
        with self._lock:
            if self.successes >= self.limit:
                raise RuntimeError("provider killed")
            self.successes += 1
        return self.inner.complete(request)


def call_with_timeout(fn, timeout_s: float = 60.0):
    """Return or raise what ``fn()`` does, run on a daemon thread; fail the
    test if it is still running after ``timeout_s``, so a hang cannot stall
    the suite."""
    outcome: dict = {}

    def target() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # re-raised on the test's thread below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), f"call still running after {timeout_s} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


@pytest.fixture
def mock7() -> MockProvider:
    return MockProvider(7)


@pytest.fixture
def small_taxonomy() -> Taxonomy:
    return Taxonomy(
        domain_label="book",
        features=(
            Feature("genre", ("fiction", "non-fiction", "mystery")),
            Feature("theme", ("power", "love", "survival")),
        ),
    )


def _pairs(values_by_feature: dict[str, str]) -> frozenset[FeaturePair]:
    return frozenset(FeaturePair(key, value) for key, value in values_by_feature.items())


def build_known_answer_setup(n_instances: int = 12, threshold: int = 10):
    """A pool where exactly one item carries all plurality features of each history.

    Instance ``j`` uses value index ``j`` of every feature; its ten history
    items each agree with the target on all but one feature (flipped to
    value index ``j + 1``), so the per-feature plurality equals the
    target's pairs and only the target intersects all of them.
    """
    feature_names = ("color", "shape", "size", "texture")
    n_values = n_instances + 2
    taxonomy = Taxonomy(
        domain_label="book",
        features=tuple(
            Feature(name, tuple(f"{name}-v{v}" for v in range(n_values)))
            for name in feature_names
        ),
    )

    items: list[Item] = []
    entries: dict[str, CategorizedItem] = {}
    sequences: list[InteractionSequence] = []

    def add(item_id: str, values_by_feature: dict[str, str]) -> Item:
        item = Item(id=item_id, title=f"Known Work {item_id}")
        items.append(item)
        entries[item_id] = CategorizedItem(item=item, pairs=_pairs(values_by_feature))
        return item

    for j in range(n_instances):
        base = {name: f"{name}-v{j}" for name in feature_names}
        target = add(f"t{j:02d}", base)
        history = []
        for i in range(threshold):
            flipped_name = feature_names[i % len(feature_names)]
            values = dict(base)
            values[flipped_name] = f"{flipped_name}-v{j + 1}"
            history.append(add(f"h{j:02d}x{i}", values))
        sequences.append(
            InteractionSequence(user_id=f"u{j:02d}", history=tuple(history), target=target)
        )

    pool = ItemPool(domain_label="book", items=tuple(items))
    cpool = CategorizedPool(
        taxonomy_ref=("known-answer", len(feature_names)),
        entries=entries,
        coverage=1.0,
        pool=pool,
    )
    return taxonomy, cpool, sequences


@pytest.fixture
def known_answer_setup():
    return build_known_answer_setup()
