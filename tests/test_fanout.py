"""The bounded, in-order fan-out behind categorization and evaluation."""
from __future__ import annotations

import sys
import threading
import time
from contextlib import closing

import pytest

from taxrec._fanout import WINDOW, fan_out, window

from conftest import call_with_timeout


class Halt(BaseException):
    """Not an Exception: a worker must hand it back all the same."""


def test_window_is_a_floor_of_64_and_twice_the_workers():
    assert WINDOW == 64
    assert window(1) == window(2) == 64
    assert window(40) == 80


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_results_come_back_in_input_order(workers):
    # Later items finish first; the caller still sees input order. More
    # workers than cores and a short switch interval shake out lost results.
    def square(n: int) -> int:
        time.sleep((n % 5) * 0.0002)
        return n * n

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = call_with_timeout(lambda: list(fan_out(square, range(300), workers)))
    finally:
        sys.setswitchinterval(interval)
    assert results == [n * n for n in range(300)]


def test_items_are_handed_out_at_most_a_window_past_the_last_result():
    started: list[int] = []
    lock = threading.Lock()

    def record(n: int) -> int:
        with lock:
            started.append(n)
        return n

    def drain() -> None:
        for yielded, _ in enumerate(fan_out(record, range(500), 2), start=1):
            with lock:
                assert max(started) < yielded + window(2)
            time.sleep(0.0002)

    call_with_timeout(drain)
    assert sorted(started) == list(range(500))


def test_closing_early_hands_out_nothing_more_and_joins_threads():
    calls: list[int] = []
    before = threading.active_count()

    def run() -> None:
        with closing(fan_out(calls.append, range(2000), 4)) as results:
            for yielded, _ in enumerate(results, start=1):
                if yielded == 3:
                    break

    call_with_timeout(run)
    assert len(calls) <= 3 + window(4)
    assert threading.active_count() == before


def test_a_base_exception_comes_back_in_order():
    def halt_at_ten(n: int) -> int:
        if n == 10:
            raise Halt(n)
        return n

    seen: list[int] = []
    before = threading.active_count()

    def run() -> None:
        for value in fan_out(halt_at_ten, range(1000), 2):
            seen.append(value)

    with pytest.raises(Halt):
        call_with_timeout(run)
    assert seen == list(range(10))
    assert threading.active_count() == before


def test_no_items_start_no_threads():
    before = threading.active_count()
    assert list(fan_out(lambda n: n, [], 4)) == []
    assert threading.active_count() == before


def test_workers_below_one_rejected():
    with pytest.raises(ValueError):
        next(fan_out(lambda n: n, [1], 0))
