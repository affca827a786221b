"""Run one workload on several seeds and summarise the spread of each metric.

Usage, from the root of a checkout::

    python3 bench/seeds.py --workload serve --seeds 1-10 [--trace 0] [--label NAME]

Each seed is a separate ``bench/run.py`` process, run one after another
with BENCHMARK.json's ``run_seconds``. For every metric the summary gives
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median, next
to the metric's bound. The summary is printed and written as
``SUMMARY_<label>_<workload>_trace<t>.json`` beside the per-run result
files, so two labels (a parent commit and a change) can be compared.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarise(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "bound": bound,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="run")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        command = [
            sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
            "--trace", str(args.trace), "--label", args.label,
        ]
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            print(f"seed {seed}: exit {child.returncode}", file=sys.stderr)
            return child.returncode
        result = json.loads(child.stdout.splitlines()[-1])
        for name, body in result["metrics"].items():
            values.setdefault(name, []).append(body["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={b['value']:.4g}" for n, b in result["metrics"].items()),
              flush=True)

    summary = {name: summarise(v, bounds.get(name)) for name, v in values.items()}
    for name, s in summary.items():
        bound = "" if s["bound"] is None else f"  bound {s['bound']}"
        print(f"{name:48s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
              f"spread {s['spread']:.3f}{bound}")
    out = ROOT / ".bench_out" / f"SUMMARY_{args.label}_{args.workload}_trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                               "trace": bool(args.trace), "metrics": summary}, indent=2) + "\n",
                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
