"""One bounded, in-order fan-out over worker threads.

Both concurrent passes (``catalog.categorize_pool`` and
``evaluation.run_experiment``) run through :func:`fan_out`, so
``max_workers`` is the one concurrency bound and no pass holds a future per
item.
"""
from __future__ import annotations

import queue
import threading
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# Items handed out past the last result yielded, at least. A window of
# 2 x max_workers starved a CPU-bound mock pass: the caller's thread must win
# the interpreter lock back before it can hand out more.
WINDOW = 64


def window(max_workers: int) -> int:
    """How far past the last result yielded items are handed out."""
    return max(WINDOW, 2 * max_workers)


def fan_out(fn: Callable[[T], R], items: Sequence[T], max_workers: int) -> Iterator[R]:
    """Yield ``fn(item)`` for every item, in input order.

    ``min(max_workers, len(items))`` threads call ``fn``. An item is handed
    out only once the result ``window(max_workers)`` places before it has
    been yielded, so at most that many results wait for the caller. Whatever
    ``fn`` raises (a ``BaseException`` included) is raised here at its
    item's place. When that happens, or the caller stops early (an exception
    in its loop body, or ``close()``), items not yet taken by a thread are
    never handed out, and the threads are joined before control returns.
    Threads start on the first ``next()``.
    """
    if max_workers < 1:
        raise ValueError("max_workers must be >= 1")
    count = len(items)
    if not count:
        return
    tasks: queue.SimpleQueue = queue.SimpleQueue()
    results: queue.SimpleQueue = queue.SimpleQueue()

    def work() -> None:
        while (task := tasks.get()) is not None:
            index, item = task
            try:
                results.put((index, True, fn(item)))
            except BaseException as exc:  # handed to the caller, which raises it
                results.put((index, False, exc))

    threads: list[threading.Thread] = []
    handed = min(window(max_workers), count)
    for index in range(handed):
        tasks.put((index, items[index]))
    ready: dict[int, tuple[bool, object]] = {}
    try:
        for _ in range(min(max_workers, count)):
            thread = threading.Thread(target=work, daemon=True)
            thread.start()
            threads.append(thread)
        for index in range(count):
            while index not in ready:
                done, ok, value = results.get()
                ready[done] = (ok, value)
            ok, value = ready.pop(index)
            if not ok:
                raise value
            if handed < count:
                tasks.put((handed, items[handed]))
                handed += 1
            yield value
    finally:
        # Take back what no thread has started, then stop every thread.
        try:
            while True:
                tasks.get_nowait()
        except queue.Empty:
            pass
        for _ in threads:
            tasks.put(None)
        for thread in threads:
            thread.join()
