"""Experimental protocol: sequence construction, metrics, runs, and sweeps.

Sequences are built per dataset convention (timestamp windows where
timestamps exist, seeded random sampling where they don't), short histories
are padded with the most recent interaction, and methods are compared on
Recall@k and NDCG@k averaged over instances and repeats.
"""
from __future__ import annotations

import json
import math
import random
import warnings
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from ._fanout import fan_out
from .catalog import Interaction, ItemPool
from .core import InteractionSequence, Item, RankedList
from .errors import TaxRecError

MethodFn = Callable[[InteractionSequence], RankedList]

DEFAULT_KS = (1, 5, 10)
# Items per history, the paper's setting: longer windows are cut, shorter padded.
HISTORY_LENGTH = 10
DEFAULT_SAMPLE_N = 2000
DISPLAY_SCALE = 10.0
# Share of evaluations a method may fail before run_experiment does.
_METHOD_FAILURE_LIMIT = 0.05

# Each cell of the two named-cell axes: the RecommendConfig fields it sets.
PROMPT_VARIANTS: dict[str, dict[str, bool]] = {
    "h+t/rec+t": {"history_with_titles": True, "recommend_with_titles": True},
    "h+t/rec-t": {"history_with_titles": True, "recommend_with_titles": False},
    "h-t/rec+t": {"history_with_titles": False, "recommend_with_titles": True},
    "h-t/rec-t": {"history_with_titles": False, "recommend_with_titles": False},
}

# "no_tax" is the taxonomy-free direct path, the `direct` method of `taxrec evaluate`.
COMPONENT_ABLATIONS: dict[str, dict[str, object]] = {
    "full": {"use_taxonomy": True, "matcher": "taxonomy"},
    "no_tax": {"use_taxonomy": False, "matcher": "exact_title"},
    "no_match": {"use_taxonomy": True, "matcher": "rouge"},
}


def _cells(kind: str, cells: Mapping[str, dict]) -> Callable[[object], dict]:
    def fields_of(value) -> dict:
        if value not in cells:
            raise ValueError(f"unknown {kind} {value!r}; expected one of {sorted(cells)}")
        return cells[value]

    return fields_of


# The experiment plan: each sweep axis -> (its default cells, a function
# from one cell value to the RecommendConfig fields that cell changes).
SWEEP_AXES: dict[str, tuple[tuple, Callable[[object], dict]]] = {
    "feature_count": ((5, 10, 15, 20), lambda value: {"taxonomy_feature_count": int(value)}),
    "matcher": (("taxonomy", "bleu", "rouge"), lambda value: {"matcher": str(value)}),
    "prompt_variant": (tuple(PROMPT_VARIANTS), _cells("prompt variant", PROMPT_VARIANTS)),
    "component_ablation": (tuple(COMPONENT_ABLATIONS), _cells("ablation", COMPONENT_ABLATIONS)),
}


def pad_history(history: Sequence[Item], threshold: int) -> list[Item]:
    """Pad a short history to the threshold by repeating its last element."""
    if not history:
        raise ValueError("history must be non-empty")
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    padded = list(history)
    while len(padded) < threshold:
        padded.append(padded[-1])
    return padded


def build_movie_sequences(
    interactions: Sequence[Interaction],
    pool: ItemPool,
    sample_n: int = DEFAULT_SAMPLE_N,
    seed: int = 0,
) -> list[InteractionSequence]:
    """Timestamped protocol: history is the window immediately before the target.

    Eligible targets are positions with at least one preceding interaction;
    ``sample_n`` of them are drawn without replacement with the given seed.
    Windows hold up to ``HISTORY_LENGTH`` items; short ones are padded.
    """
    by_user: dict[str, list[Interaction]] = defaultdict(list)
    for record in sorted(interactions, key=lambda r: (r.user_id, r.timestamp or 0, r.item_id)):
        by_user[record.user_id].append(record)

    eligible: list[tuple[str, int]] = []
    for user_id in sorted(by_user):
        records = by_user[user_id]
        for position in range(1, len(records)):
            target_id = records[position].item_id
            window = records[max(0, position - HISTORY_LENGTH) : position]
            if target_id not in pool.by_id:
                continue
            if any(r.item_id == target_id or r.item_id not in pool.by_id for r in window):
                continue
            eligible.append((user_id, position))

    if len(eligible) < sample_n:
        raise TaxRecError(
            f"only {len(eligible)} eligible targets; cannot sample {sample_n}"
        )
    rng = random.Random(seed)
    chosen = rng.sample(eligible, sample_n)

    sequences = []
    for user_id, position in chosen:
        records = by_user[user_id]
        window = records[max(0, position - HISTORY_LENGTH) : position]
        history = pad_history([pool.by_id[r.item_id] for r in window], HISTORY_LENGTH)
        target = pool.by_id[records[position].item_id]
        sequences.append(
            InteractionSequence(user_id=user_id, history=tuple(history), target=target)
        )
    return sequences


def build_book_sequences(
    interactions: Sequence[Interaction],
    pool: ItemPool,
    sample_n: int = DEFAULT_SAMPLE_N,
    seed: int = 0,
) -> list[InteractionSequence]:
    """Timestamp-free protocol: random target, random distinct history items.

    Histories hold up to ``HISTORY_LENGTH`` items, padded if fewer. Users
    with fewer than two distinct interacted items are skipped; it is an
    error if fewer than ``sample_n`` users remain.
    """
    by_user: dict[str, list[str]] = defaultdict(list)
    for record in sorted(interactions, key=lambda r: (r.user_id, r.item_id)):
        if record.item_id in pool.by_id and record.item_id not in by_user[record.user_id]:
            by_user[record.user_id].append(record.item_id)

    eligible_users = [user_id for user_id in sorted(by_user) if len(by_user[user_id]) >= 2]
    if len(eligible_users) < sample_n:
        raise TaxRecError(
            f"only {len(eligible_users)} users with >= 2 interactions; cannot sample {sample_n}"
        )
    rng = random.Random(seed)
    chosen_users = rng.sample(eligible_users, sample_n)

    sequences = []
    for user_id in chosen_users:
        item_ids = by_user[user_id]
        target_id = rng.choice(item_ids)
        others = [item_id for item_id in item_ids if item_id != target_id]
        if len(others) >= HISTORY_LENGTH:
            history_ids = rng.sample(others, HISTORY_LENGTH)
        else:
            history_ids = rng.sample(others, len(others))
        history = pad_history([pool.by_id[i] for i in history_ids], HISTORY_LENGTH)
        sequences.append(
            InteractionSequence(
                user_id=user_id, history=tuple(history), target=pool.by_id[target_id]
            )
        )
    return sequences


def _recall_at_rank(rank: int | None, k: int) -> float:
    return 1.0 if rank is not None and rank <= k else 0.0


def _ndcg_at_rank(rank: int | None, k: int) -> float:
    return 1.0 / math.log2(rank + 1) if rank is not None and rank <= k else 0.0


def recall_at_k(ranked: RankedList, target_id: str, k: int) -> float:
    """1.0 if the single target appears in the top k, else 0.0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _recall_at_rank(ranked.rank_of(target_id), k)


def ndcg_at_k(ranked: RankedList, target_id: str, k: int) -> float:
    """Single-relevant-item NDCG: 1/log2(rank+1) within k, else 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _ndcg_at_rank(ranked.rank_of(target_id), k)


@dataclass
class MetricReport:
    """Per-method recall/ndcg metrics plus the per-instance audit log.

    Metrics are stored on [0, 1]; ``scale_factor`` is the display
    convention applied only when formatting tables.
    """

    per_method: dict[str, dict[str, float]]
    repeats: int
    scale_factor: float = DISPLAY_SCALE
    label: str = ""
    error: str | None = None
    # One flat dict of scalars per (repeat, instance, method) evaluation.
    instance_log: list[dict] = field(default_factory=list)

    def to_payload(self) -> dict:
        return {
            "label": self.label,
            "repeats": self.repeats,
            "scale_factor": self.scale_factor,
            "error": self.error,
            "per_method": self.per_method,
            "instance_log": self.instance_log,
        }


def _metric_keys(ks: Sequence[int]) -> list[str]:
    return [f"recall@{k}" for k in ks] + [f"ndcg@{k}" for k in ks]


def run_experiment(
    methods: Mapping[str, MethodFn],
    sequences: Sequence[InteractionSequence],
    *,
    repeats: int = 3,
    ks: Sequence[int] = DEFAULT_KS,
    max_workers: int = 4,
    label: str = "",
) -> MetricReport:
    """Evaluate every method on every sequence, averaged over repeats.

    Every (repeat, instance) task goes through one fan-out of
    ``max_workers`` threads across all repeats; aggregation folds
    per-instance records in (repeat, instance) order, so results are
    independent of completion order. A method failing on an instance
    scores as a miss; the run fails if any method fails on more than 5% of
    its evaluations. Anything a method raises that is not an ``Exception``
    ends the run and is re-raised.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if not sequences:
        raise ValueError("no sequences to evaluate")
    max_k = max(ks)

    records: list[dict] = []
    failures: dict[str, int] = {name: 0 for name in methods}

    def evaluate_instance(task: tuple[int, int, InteractionSequence]) -> list[dict]:
        repeat, index, sequence = task
        rows = []
        for name, method in methods.items():
            row = {
                "repeat": repeat,
                "instance": index,
                "user_id": sequence.user_id,
                "target_id": sequence.target.id,
                "method": name,
                "rank": None,
                "failed": False,
            }
            try:
                ranked = method(sequence)
                if ranked.k < max_k:
                    raise TaxRecError(
                        f"method {name!r} ranked depth {ranked.k} < max evaluated k {max_k}"
                    )
                row["rank"] = ranked.rank_of(sequence.target.id)
            except Exception as exc:
                row["failed"] = True
                row["error"] = str(exc)
            rows.append(row)
        return rows

    tasks = [
        (repeat, index, sequence)
        for repeat in range(repeats)
        for index, sequence in enumerate(sequences)
    ]
    for batch in fan_out(evaluate_instance, tasks, max_workers):
        records.extend(batch)

    records.sort(key=lambda r: (r["repeat"], r["instance"], r["method"]))

    totals: dict[str, dict[str, float]] = {
        name: {key: 0.0 for key in _metric_keys(ks)} for name in methods
    }
    for row in records:
        name = row["method"]
        if row["failed"]:
            failures[name] += 1
            continue  # a miss: contributes zero to every metric
        rank = row["rank"]
        for k in ks:
            totals[name][f"recall@{k}"] += _recall_at_rank(rank, k)
            totals[name][f"ndcg@{k}"] += _ndcg_at_rank(rank, k)

    denominator = len(sequences) * repeats
    per_method = {
        name: {key: value / denominator for key, value in metric_totals.items()}
        for name, metric_totals in totals.items()
    }

    for name, count in failures.items():
        if count / denominator > _METHOD_FAILURE_LIMIT:
            raise TaxRecError(
                f"method {name!r} failed on {count} of {denominator} evaluations "
                f"(> {_METHOD_FAILURE_LIMIT:.0%})"
            )

    if repeats > 1:
        def outcome_signature(repeat: int) -> list[tuple]:
            return [
                (r["instance"], r["method"], r["rank"], r["failed"])
                for r in records
                if r["repeat"] == repeat
            ]

        if all(outcome_signature(r) == outcome_signature(0) for r in range(1, repeats)):
            warnings.warn(
                "all repeats produced identical outcomes; the provider appears "
                "deterministic, so repeats add no information",
                stacklevel=2,
            )

    return MetricReport(
        per_method=per_method, repeats=repeats, label=label, instance_log=records
    )


@dataclass
class SweepSetup:
    """Everything held fixed across sweep cells.

    ``make_method`` builds the system under test for one cell's
    recommendation config.
    """

    make_method: Callable[..., MethodFn]
    base_config: object
    sequences: Sequence[InteractionSequence]
    repeats: int = 1
    ks: Sequence[int] = DEFAULT_KS
    max_workers: int = 4


def run_sweep(axis: str, values: Sequence, base: SweepSetup) -> list[MetricReport]:
    """One experiment per axis value, everything else held fixed.

    A cell that fails, a bad value included, is marked with its error and
    the sweep continues.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {sorted(SWEEP_AXES)}")
    cell_fields = SWEEP_AXES[axis][1]
    reports = []
    for value in values:
        label = f"{axis}={value}"
        try:
            config = replace(base.base_config, **cell_fields(value))
            report = run_experiment(
                {label: base.make_method(config)},
                base.sequences,
                repeats=base.repeats,
                ks=base.ks,
                max_workers=base.max_workers,
                label=label,
            )
        except Exception as exc:
            report = MetricReport(per_method={}, repeats=0, label=label, error=str(exc))
        reports.append(report)
    return reports


def load_external_results(path: Path) -> tuple[str, MethodFn]:
    """Load a pre-computed baseline's ranked lists as a pluggable method.

    The file holds ``{"method": name, "instances": [{"user_id",
    "target_id", "ranking": [[item_id, score], ...]}]}``; instances are
    matched to sequences by (user_id, target_id). A file of another shape
    is a :class:`TaxRecError` naming it.
    """
    table: dict[tuple[str, str], RankedList] = {}
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        name = payload["method"]
        for instance in payload["instances"]:
            entries = tuple((str(item_id), float(score)) for item_id, score in instance["ranking"])
            table[(instance["user_id"], instance["target_id"])] = RankedList(
                entries=entries, k=max(len(entries), DEFAULT_KS[-1])
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise TaxRecError(f"{path}: malformed external results ({type(exc).__name__}: {exc})") from exc

    def method(sequence: InteractionSequence) -> RankedList:
        key = (sequence.user_id, sequence.target.id)
        if key not in table:
            raise TaxRecError(f"{name}: no external result for user {key[0]} target {key[1]}")
        return table[key]

    return name, method


def format_metric_table(reports: Sequence[MetricReport], ks: Sequence[int] = DEFAULT_KS) -> str:
    """Fixed-width grid of Recall/NDCG columns, scaled for display."""
    header = ["Run", "Method"] + [f"R@{k}" for k in ks] + [f"N@{k}" for k in ks]
    rows = [header]
    for report in reports:
        if report.error is not None:
            rows.append([report.label or "-", "(failed)", report.error] )
            continue
        for method in sorted(report.per_method):
            metrics = report.per_method[method]
            rows.append(
                [report.label or "-", method]
                + [f"{metrics[f'recall@{k}'] * report.scale_factor:.3f}" for k in ks]
                + [f"{metrics[f'ndcg@{k}'] * report.scale_factor:.3f}" for k in ks]
            )
    widths = [max(len(str(row[i])) for row in rows if i < len(row)) for i in range(len(header))]
    lines = []
    for row in rows:
        lines.append("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


# Instance-log rows in one C-encoder call (the indenting encoder is pure
# Python), each key already at its report.json depth of 10 spaces.
_ROWS_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n" + " " * 10, ": "))
# Stands in for each report's instance log while the rest is indented.
# json.dumps writes the token "\u0000" (quotes included) for this string
# only, so a payload string equal to it is the one way to miscount slots.
_LOG_SLOT = "\x00"


def _log_json(rows: list[dict]) -> str:
    """``rows`` as ``json.dumps(indent=2, sort_keys=True)`` lays them out in report.json.

    Rows are flat dicts of scalars. In their one-line encoding a raw newline
    comes only from a separator, and a "}" meets one only where a row ends,
    so the row breaks are found by text and re-indented.
    """
    if not (rows and all(rows)):
        return json.dumps(rows, indent=2, sort_keys=True).replace("\n", "\n" + " " * 6)
    rows_text = _ROWS_ENCODER.encode(rows)[2:-2]
    return (
        "[\n        {\n          "
        + rows_text.replace("},\n          {", "\n        },\n        {\n          ")
        + "\n        }\n      ]"
    )


def _report_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte, with
    each report's instance log encoded by :func:`_log_json` and spliced in."""
    reports = payload["reports"]
    skeleton = {
        **payload,
        "reports": [{**report, "instance_log": _LOG_SLOT} for report in reports],
    }
    parts = json.dumps(skeleton, indent=2, sort_keys=True).split(json.dumps(_LOG_SLOT))
    if len(parts) != len(reports) + 1:  # a payload string is the slot itself
        return json.dumps(payload, indent=2, sort_keys=True)
    pieces = [parts[0]]
    for report, after in zip(reports, parts[1:]):
        pieces += [_log_json(report["instance_log"]), after]
    return "".join(pieces)


def write_report(
    run_dir: Path, config: Mapping, reports: Sequence[MetricReport], ks: Sequence[int] = DEFAULT_KS
) -> Path:
    """Write ``report.json`` and ``table.txt`` under the run directory.

    Output is byte-stable for identical inputs: keys sorted, no wall-clock
    content. ``report.json`` is ``json.dumps(payload, indent=2,
    sort_keys=True)`` plus a newline.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "config": dict(config),
        "reports": [report.to_payload() for report in reports],
    }
    report_path = run_dir / "report.json"
    report_path.write_text(_report_json(payload) + "\n", encoding="utf-8")
    (run_dir / "table.txt").write_text(format_metric_table(reports, ks) + "\n", encoding="utf-8")
    return report_path
