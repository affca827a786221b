"""taxrec benchmark: one command, three workloads, end-to-end or per-layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload onetime|serve|evaluate|all \\
        --seed N --seconds S --trace 0|1 [--label NAME]

Each workload runs against the deterministic mock provider on inputs made
from ``--seed``, measures for ``--seconds``, checks that the outputs are
correct and prints its metrics one per line, then, as the last line, a JSON
object ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace
0`` the metrics are the end-to-end ones declared in BENCHMARK.json, with
``--trace 1`` the per-layer ones. Timings there are scaled to a reference
machine speed by a calibration probe (see ``calibration.py``); the wall
times are printed beside them. A failed check names itself on stderr and
the exit code is 1. ``all`` runs each workload in a fresh interpreter.

A result file with its provenance (CPU count, Python and numpy versions,
git commit, seed, tracing, sample counts) is written to ``.bench_out/``, and
the spans of a traced run next to it. The package is imported from ``src/`` of
the checkout and nowhere else.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("onetime", "serve", "evaluate")
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 600


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="seed for every generated input")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    parser.add_argument("--label", default="run", help="name part of the result file")
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args: argparse.Namespace) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "label": args.label,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def run_workload(args: argparse.Namespace) -> int:
    import taxrec

    if not Path(taxrec.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: taxrec was imported from {taxrec.__file__}, not from src/", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, CheckFailed, Context

    declared = declared_metrics(bool(args.trace))
    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), workdir=workdir)
    try:
        outcome = WORKLOADS[args.workload](ctx)
    except CheckFailed as exc:
        print(f"CHECK FAILED {exc.check}: {exc}", file=sys.stderr)
        print(result_line(False, 1, 1, {}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatch = (set(outcome.metrics) | set(outcome.absent)) ^ set(declared)
    if mismatch:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(mismatch)}", file=sys.stderr)
        return 3
    for name, (value, unit) in outcome.metrics.items():
        if unit != declared[name]:
            print(f"error: {name} has unit {unit}, declared {declared[name]}", file=sys.stderr)
            return 3

    print(f"{args.workload} calibration probe = {outcome.probe_ms:.4g} ms (wall, median)")
    for name, (value, unit, samples) in outcome.named.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={samples}, wall)")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name in outcome.absent:
        print(f"{args.workload} {name} = absent")

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.label}_{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {
        "provenance": provenance(args),
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "probe_ms": outcome.probe_ms,
        "named": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in outcome.named.items()
        },
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
        "absent": outcome.absent,
    }
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if outcome.tracer is not None:
        outcome.tracer.write(OUT / f"spans_{args.workload}.jsonl")
    print(result_line(True, outcome.attempted, outcome.failed, outcome.metrics))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh interpreter, so peak RSS is its own."""
    correct, attempted, failed, metrics, code = True, 0, 0, {}, 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--label", args.label,
        ]
        child = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result (exit {child.returncode})", file=sys.stderr)
            return child.returncode or 1
        code = code or child.returncode
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, body in result["metrics"].items():
            metrics[f"{name}.{metric}"] = (body["value"], body["unit"])
    print(result_line(correct, attempted, failed, metrics))
    return code


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "taxrec" / "__init__.py").is_file():
        print(f"error: no taxrec package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
