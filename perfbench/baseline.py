"""Combine untraced and traced spread summaries into the committed baseline.

Usage, from the repository root::

    python3 perfbench/spread.py --seeds 1-10 --out set_a.json
    python3 perfbench/spread.py --seeds 11-20 --out set_b.json
    python3 perfbench/spread.py --seeds 1-3 --trace 1 --out traced.json
    python3 perfbench/baseline.py --untraced set_a.json set_b.json --traced traced.json \
        --out perfbench/baseline.json

Each workload gets its config, its rationale, end-to-end medians with their
spread for each untraced set, per-layer medians and layer shares (self time /
traced stage time).
Each "heavy on / light on" prediction is then marked confirmed or not: a
layer is confirmed heavy where its share on every heavy workload exceeds its
share on every light one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DF, ST, WG = "dense-fixture", "sparse-targeted", "wide-global"

# (traced names whose self-time shares add up, heavy workloads, light workloads)
PREDICTIONS = [
    (["graph.khop_subgraph"], [ST, WG], [DF]),
    (["graph.load_graph"], [ST, WG], [DF]),
    (["graph.sbm_generate"], [ST, WG], [DF]),
    (["graph.slot_pair"], [DF, WG], [ST]),
    (["noise.sample_edgedrop"], [DF, WG], [ST]),
    (["noise.apply_xor"], [DF, WG], [ST]),
    (["certify.vote_on_struct_vector"], [WG, DF], [ST]),
    (["certify.confidence_bounds", "certify.beta_quantile", "certify.certified_k"], [ST, WG], [DF]),
    (["trainer.loss_and_grads"], [ST, WG], [DF]),
    (["trainer.augment"], [ST, WG], [DF]),
    (["encoder.forward"], [ST, WG], [DF]),
    (["linear_eval.fit_logreg"], [ST, WG], [DF]),
    (["attack.random_targeted_attack"], [ST], [DF, WG]),
    (["attack.add_edges"], [ST], [WG]),
    (["attack.random_global_attack"], [WG], [DF, ST]),
]


def share(shares: dict, names: list[str]) -> float:
    return sum(shares.get(n, 0.0) for n in names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--untraced", nargs="+", required=True, help="spread.py summaries")
    parser.add_argument("--traced", required=True, help="spread.py --trace 1 summary")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    untraced = [json.loads(Path(p).read_text(encoding="utf-8")) for p in args.untraced]
    traced = json.loads(Path(args.traced).read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    out = {"environment": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__},
           "run_seconds": spec["run_seconds"], "workloads": {}, "predictions": []}
    for w in spec["workloads"]:
        name = w["name"]
        t = traced.get(name, {})
        out["workloads"][name] = {
            "why": w["why"],
            "config": (HERE / "workloads" / f"{name}.cfg").read_text(encoding="utf-8"),
            "end_to_end": [
                {"seeds": u[name]["seeds"],
                 "metrics": {k: {f: v[f] for f in ("median", "q1", "q3", "spread", "unit")}
                             for k, v in u[name]["metrics"].items()}}
                for u in untraced],
            "per_layer": {k: v["median"] for k, v in t.get("metrics", {}).items()},
            "traced_seeds": t.get("seeds"),
            "layer_shares": t.get("shares", {}),
        }
    shares = {name: out["workloads"][name]["layer_shares"] for name in out["workloads"]}
    for names, heavy, light in PREDICTIONS:
        got = {w: round(share(shares[w], names), 4) for w in shares}
        confirmed = min(got[w] for w in heavy) > max(got[w] for w in light)
        out["predictions"].append({"layers": names, "heavy_on": heavy, "light_on": light,
                                   "shares": got, "confirmed": confirmed})
        print(f"{'+'.join(names):70s} heavy {','.join(heavy):30s} "
              f"{'confirmed' if confirmed else 'NOT confirmed'}  {got}")
    Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
