"""Run the benchmark over several seeds and report each metric's quartile spread.

Usage, from the repository root::

    python3 perfbench/spread.py --seeds 1-10                    # every workload, untraced
    python3 perfbench/spread.py --workloads wide-global --seeds 1-5
    python3 perfbench/spread.py --seeds 1-3 --trace 1 --out traced.json

For each end-to-end metric the spread is (q3 - q1) / median over the seeds,
with quartiles from ``statistics.quantiles(values, n=4)``; it is compared with
the metric's bound in BENCHMARK.json. Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable if spec["command"][0] == "python3" else spec["command"][0],
            *spec["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t0
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    out = json.loads(last)
    out["exit_code"] = proc.returncode
    out["run_wall_s"] = wall
    result = ROOT / ".perfbench-out" / f"{workload}-trace{trace}" / "result.json"
    detail = json.loads(result.read_text(encoding="utf-8"))["detail"] if result.exists() else {}
    if trace:
        out["shares"] = detail.get("shares", {})
    else:
        out["reps"] = detail.get("reps", [])
    return out


def spread(values: list[float]) -> dict:
    """Median, quartiles and (q3 - q1) / median; no spread when the median is 0."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = ([w["name"] for w in spec["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary: dict = {}
    ok = True
    for name in names:
        runs = []
        for seed in seeds:
            out = run_once(spec, name, seed, args.trace)
            good = out.get("exit_code") == 0 and out.get("correct") is True
            ok &= good
            print(f"{name} seed {seed}: correct={out.get('correct')} exit={out['exit_code']} "
                  f"run wall {out['run_wall_s']:.1f} s", flush=True)
            runs.append(out)
        metrics = {}
        for key in runs[0].get("metrics", {}):
            values = [r["metrics"][key]["value"] for r in runs if key in r.get("metrics", {})]
            if len(values) < 2:
                continue
            metrics[key] = spread(values)
            metrics[key]["unit"] = runs[0]["metrics"][key]["unit"]
            bound = bounds.get(key) if not args.trace else None
            s = metrics[key].get("spread")
            note = ""
            if bound is not None and s is not None:
                note = f"bound {bound}  {'ok' if s <= bound / 3 else 'WIDE' if s <= bound else 'OVER'}"
            print(f"{name:16s} {key:38s} median {metrics[key]['median']:12.6g} "
                  f"spread {s if s is not None else float('nan'):7.4f} {note}", flush=True)
        summary[name] = {"seeds": seeds, "metrics": metrics,
                         "run_wall_s": [r["run_wall_s"] for r in runs],
                         "reps": [r.get("reps") for r in runs],
                         "all_correct": all(r.get("correct") is True for r in runs)}
        if args.trace:
            layer_names = sorted({k for r in runs for k in r.get("shares", {})})
            summary[name]["shares"] = {
                k: statistics.median(r["shares"].get(k, 0.0) for r in runs) for k in layer_names}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
