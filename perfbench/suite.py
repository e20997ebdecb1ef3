#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json over several seeds and summarize.

Usage (from the repository root):
  python3 perfbench/suite.py [--seeds 10] [--record perfbench/baseline.json]

For seeds 1..N, each workload runs once untraced (perfbench/run.py
--trace 0, run_seconds from BENCHMARK.json). Then each workload runs
twice traced on seed 1, and the count metrics of the two traced runs
must match exactly. The table gives, per workload and end-to-end metric,
the median over seeds, the quartiles and the spread (quartile distance
over median) against the metric's bound.

--record appends the summary and the environment block to a JSON
trajectory file. If that file's last entry was measured on the same
source tree, every end-to-end median is also compared with it, and a
change by more than the metric's bound fails the suite.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
COUNT_UNIT = "count"


def prefixed(lines: list[str], prefix: str, default):
    return next((json.loads(l[len(prefix):]) for l in lines if l.startswith(prefix)), default)


def run_once(
    workload: str, seed: int, seconds: int, trace: int, expected: set[str]
) -> tuple[dict, dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr}")
    env = prefixed(lines, "env ", {})
    info = prefixed(lines, "info ", {})
    # A layer whose entry point no longer exists is reported absent, not failed.
    absent = prefixed(lines, "absent ", [])
    expected = {m for m in expected if not any(m.startswith(f"{a}.") for a in absent)}
    result = json.loads(lines[-1])
    if absent:
        print(f"{workload}: absent layers {absent}")
    if set(result["metrics"]) != expected:
        print(f"{workload}: metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
        result["correct"] = False
    return result, env, info


def spread_row(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def compare(previous: dict, summary: dict) -> bool:
    """Print each end-to-end median's change from a previous set; True if
    every change is within the metric's bound."""
    ok = True
    print(f"\n{'workload':<18} {'metric':<14} {'before':>12} {'now':>12} {'change':>8} {'bound':>6}")
    for w, entry in summary.items():
        for name, row in entry["end_to_end"].items():
            earlier = previous["workloads"].get(w, {}).get("end_to_end", {}).get(name)
            if earlier is None:
                continue
            before = earlier["median"]
            change = row["median"] / before - 1
            within = abs(change) <= row["bound"]
            ok &= within
            print(f"{w:<18} {name:<14} {before:>12.6g} {row['median']:>12.6g} {change:>+8.4f}"
                  f" {row['bound']:>6}{'' if within else '  (outside bound)'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--record", default=None, help="append the summary to this JSON file")
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("--seeds must be >= 2 to give quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.seeds + 1))

    results = {w: [] for w in workloads}
    infos = {w: [] for w in workloads}
    env = {}
    ok = True
    for seed in seeds:
        for w in workloads:
            result, env_w, info = run_once(w, seed, seconds, 0, set(bounds))
            env.setdefault(w, env_w)
            results[w].append(result)
            infos[w].append(info)
            print(f"seed {seed} {w}: " + ", ".join(
                [f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()]
                + [f"{k}={v:.6g}" for k, v in info.items()]), flush=True)

    summary = {}
    for w in workloads:
        rows = {}
        for name, bound in bounds.items():
            row = spread_row([r["metrics"][name]["value"] for r in results[w]])
            row["unit"] = results[w][0]["metrics"][name]["unit"]
            row["bound"] = bound
            rows[name] = row
        attempted = sum(r["attempted"] for r in results[w])
        failed = sum(r["failed"] for r in results[w])
        correct = all(r["correct"] for r in results[w])
        ok &= correct
        plain = {
            name: spread_row([i[name] for i in infos[w]]) for name in ("wall_s", "samples_per_s")
        }
        summary[w] = {
            "end_to_end": rows,
            "plain": plain,
            "failed_frac": failed / attempted,
            "correct": correct,
        }

    for w in workloads:
        first, _, _ = run_once(w, seeds[0], seconds, 1, layer_names)
        second, _, _ = run_once(w, seeds[0], seconds, 1, layer_names)
        mismatched = [
            name for name, m in first["metrics"].items()
            if m["unit"] == COUNT_UNIT and second["metrics"].get(name) != m
        ]
        counts_match = not mismatched and first["correct"] and second["correct"]
        ok &= counts_match
        summary[w]["per_layer"] = {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in first["metrics"].items()
        }
        summary[w]["counts_repeat"] = counts_match
        if mismatched:
            print(f"{w}: count metrics differ between traced runs: {mismatched}")

    print()
    print(f"{'workload':<18} {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6}")
    for w in workloads:
        for name, row in summary[w]["end_to_end"].items():
            flag = "" if row["spread"] < row["bound"] / 3 else "  (above bound/3)"
            print(f"{w:<18} {name:<14} {row['median']:>12.6g} {row['q1']:>12.6g}"
                  f" {row['q3']:>12.6g} {row['spread']:>8.4f} {row['bound']:>6}{flag} {row['unit']}")
        for name, row in summary[w]["plain"].items():
            print(f"{w:<18} {name:<14} {row['median']:>12.6g} {row['q1']:>12.6g}"
                  f" {row['q3']:>12.6g} {row['spread']:>8.4f}  (plain, not gated)")
        print(f"{w:<18} {'failed_frac':<14} {summary[w]['failed_frac']:>12.6g}")
        for name, m in summary[w]["per_layer"].items():
            print(f"{w:<18}   {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"\nall outputs correct, counts repeat: {ok}")

    if args.record:
        path = Path(args.record)
        log = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"entries": []}
        tree = {e["src_sha256"] for e in env.values()}
        previous = log["entries"][-1] if log["entries"] else None
        if previous and {e["src_sha256"] for e in previous["environment"].values()} == tree:
            agree = compare(previous, summary)
            print(f"\nmedians agree with the previous set of this tree within bounds: {agree}")
            ok &= agree
        log["entries"].append({
            "run_seconds": seconds,
            "seeds": seeds,
            "environment": env,
            "workloads": summary,
        })
        path.write_text(json.dumps(log, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
