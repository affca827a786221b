"""How fast the machine is right now, measured by a fixed reference probe.

The benchmark runs on small shared virtual machines whose single-thread
speed drifts by more than half within minutes: a fixed pure-Python loop
measured 42.6 ms per call in one 25-second window and 65.8 ms two minutes
later, with nothing else running in the machine. No run length averages
that out, so timings are also reported scaled to a reference speed.

Before every timed operation and every set-up the benchmark runs a short
probe: a fixed mix of the work taxrec does (JSON parsing, tuple and
frozenset building, dict postings, sorting, string joining and splitting),
independent of the code under test. A change to taxrec moves the scaled
figure; a change in machine speed moves the probe as well and largely
cancels out.

An operation on the client thread alone lasts tens of milliseconds. It is
scaled by ``REFERENCE_PROBE_S`` over the mean of the short marks on either
side of it, because the machine's speed flips within seconds: over six
serve runs, scaling each request by its own bracket gave the p95 a spread
of 0.10, and by the median of the 5, 11 or 21 nearest marks 0.18 to 0.24.

An operation on two worker threads lasts seconds, and a mark of a few
milliseconds before it says little about the machine during it. It is
scaled by the run's median long mark (``PROBES_PER_LONG_MARK`` probes,
taken before and after each such operation), raised to
``TWO_THREAD_ELASTICITY``: the probe runs on one CPU, and the operation
spreads over both. Over ten evaluate runs during which the machine slowed
from a probe of 0.95 to 1.7 ms, the run's median invocation moved with the
run's median probe at an elasticity of 0.49; scaled by its own brackets,
the invocations kept a spread of 0.15, and by the run's median probe 0.07
in the next ten runs.
"""
from __future__ import annotations

import json
import statistics
import time

# The probe's median on the baseline machine at its fastest. Scaled times
# read as wall times on that machine when it is not slowed down.
REFERENCE_PROBE_S = 0.0009

PROBES_PER_MARK = 3
PROBES_PER_LONG_MARK = 31

# How strongly an operation on two worker threads follows the probe.
TWO_THREAD_ELASTICITY = 0.5

_LINES = tuple(
    json.dumps({
        "item_id": f"s{i:04d}",
        "pairs": [{"key": f"feature {j}", "value": f"value {(i * j) % 7}"} for j in range(10)],
    })
    for i in range(90)
)


def probe() -> float:
    """Run the fixed reference work once; return its wall time in seconds."""
    started = time.perf_counter()
    postings: dict[tuple[str, str], list[str]] = {}
    for line in _LINES:
        record = json.loads(line)
        pairs = frozenset((p["key"], p["value"]) for p in record["pairs"])
        for pair in pairs:
            postings.setdefault(pair, []).append(record["item_id"])
    ranked = sorted(((len(ids), pair) for pair, ids in postings.items()), reverse=True)
    text = "\n".join(f"{key}: {value}" for _, (key, value) in ranked)
    " ".join(text.lower().split())
    return time.perf_counter() - started


class Calibrator:
    """A timeline of probe marks taken between measurements."""

    def __init__(self) -> None:
        self.marks: list[float] = []
        self.long_marks: list[float] = []

    def mark(self, long: bool = False) -> int:
        """Probe now; return the mark's index."""
        probes = PROBES_PER_LONG_MARK if long else PROBES_PER_MARK
        self.marks.append(statistics.median(probe() for _ in range(probes)))
        if long:
            self.long_marks.append(self.marks[-1])
        return len(self.marks) - 1

    def factor(self, index: int, single_thread: bool) -> float:
        """Scale for a measurement taken right after mark ``index``.

        A single-threaded measurement uses the mean of that mark and the
        next one, which brackets it once a closing mark has been taken; a
        two-thread one the median of all long marks so far.
        """
        if single_thread:
            return REFERENCE_PROBE_S / statistics.fmean(self.marks[index : index + 2])
        return (REFERENCE_PROBE_S / statistics.median(self.long_marks)) ** TWO_THREAD_ELASTICITY

    def probe_ms(self) -> float:
        return 1000 * statistics.median(self.marks)
