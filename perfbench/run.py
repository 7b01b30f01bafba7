"""edgecert pipeline benchmark: gen -> train -> certify -> attack -> report.

Usage, from the repository root::

    python3 perfbench/run.py --workload dense-fixture --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

``--trace 0`` runs each stage as its own ``python3 -m edgecert.cli`` process
and reports the end-to-end metrics. ``--trace 1`` runs the same stages in this
process with every public function of the pipeline's modules wrapped (see
``spans.py``) and reports the per-layer metrics. Both check the outputs. The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 1 when a stage or an output check fails and 2 when the
program's sources are missing. Run files go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench-out"

# One BLAS/OpenMP thread per process keeps two pool workers within two cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# name -> EDGECERT_THREADS; configs live in workloads/<name>.cfg.
WORKLOADS = {
    "dense-fixture": 1,
    "sparse-targeted": 2,
    "wide-global": 1,
}

STAGES = ("train", "certify", "attack", "report")
SETUP_REPS = 5  # gen runs per measurement; setup_s is their median
MIN_REPS = 2  # pipeline repetitions per run, more while --seconds allows

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "certify_s": "s",
    "attack_s": "s",
    "pipeline_s": "s",
    "votes_per_s": "draws/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph.khop_subgraph.self_s": "s",
    "graph.khop_subgraph.calls_per_node": "calls/node",
    "graph.subgraph_nodes.p50": "count",
    "graph.subgraph_nodes.tail": "count",
    "graph.subgraph_edges.p50": "count",
    "graph.subgraph_edges.tail": "count",
    "graph.load_graph.self_s": "s",
    "graph.sbm_generate.self_s": "s",
    "graph.slot_pair.self_s": "s",
    "noise.sample_edgedrop.self_s": "s",
    "noise.sample_edgedrop.p50_us": "us",
    "noise.apply_xor.self_s": "s",
    "certify.vote.self_s": "s",
    "certify.vote.draws": "count",
    "certify.vote.draw_us.p50": "us",
    "certify.vote.draw_us.tail": "us",
    "linear_eval.predict.self_s": "s",
    "linear_eval.predict.calls": "count",
    "certify.base_predict.self_s": "s",
    "certify.confidence_bounds.self_s": "s",
    "certify.beta_quantile.calls": "count",
    "certify.certified_k.self_s": "s",
    "certify.certify_node.p50_ms": "ms",
    "certify.certify_node.tail_ms": "ms",
    "certify.certified_ratio": "ratio",
    "certify.abstain_ratio": "ratio",
    "trainer.loss_and_grads.self_s": "s",
    "trainer.augment.self_s": "s",
    "encoder.forward.self_s": "s",
    "linear_eval.fit_logreg.self_s": "s",
    "attack.generate.self_s": "s",
    "attack.add_edges.self_s": "s",
    "attack.add_edges.calls": "count",
    "cli.parallel_map.wall_s": "s",
    "cli.parallel_map.efficiency": "ratio",
    "checkpoint.read_checkpoint.self_s": "s",
    "checkpoint.write_checkpoint.self_s": "s",
    "rng.derive_seed.calls": "count",
    "trace.overhead_ratio": "ratio",
}


def environment(threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {**THREAD_ENV, "EDGECERT_THREADS": str(threads)},
    }


def workload_config(name: str, out_dir: Path) -> Path:
    """Copy the workload's config into the run directory; the program reads only that copy."""
    path = out_dir / "config.txt"
    shutil.copyfile(HERE / "workloads" / f"{name}.cfg", path)
    return path


def fresh_dir(name: str, trace: int) -> Path:
    out = OUT_ROOT / f"{name}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return out


def stage_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["EDGECERT_THREADS"] = str(threads)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], env: dict, log_path: Path) -> tuple[float, int, float]:
    """(wall s, exit code, peak RSS MB of the process and its waited-for children)."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=log, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def cli_argv(stage: str, config: Path, seed: int, out_dir: Path) -> list[str]:
    return [stage, "--config", str(config), "--seed", str(seed), "--out", str(out_dir)]


class Tally:
    """Stages and output checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok


def run_checks(tally: Tally, out_dir: Path, config: Path, seed: int) -> dict:
    from checks import check_run

    log, result = check_run(out_dir, config, seed)
    for name, ok, detail in log.results:
        tally.record(name, ok, detail)
    return result


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    from checks import digests

    threads = WORKLOADS[name]
    out_dir = fresh_dir(name, 0)
    config = workload_config(name, out_dir)
    env = stage_env(threads)
    log_path = out_dir / "stages.log"
    tally = Tally()
    rss = []

    def stage(s: str) -> float | None:
        wall, code, peak = run_process([sys.executable, "-m", "edgecert.cli",
                                        *cli_argv(s, config, seed, out_dir)], env, log_path)
        rss.append(peak)
        return wall if tally.record(f"stage.{s}", code == 0, f"exit code {code}") else None

    t_start = time.perf_counter()
    setup = []
    for _ in range(SETUP_REPS):
        wall = stage("gen")
        if wall is None:
            return finish(name, 0, tally, {}, {"log": str(log_path)})
        setup.append(wall)
    setup_s = statistics.median(setup)

    reps: list[dict[str, float]] = []
    first_digests = None
    while True:
        rep = {}
        for s in STAGES:
            wall = stage(s)
            if wall is None:
                return finish(name, 0, tally, {}, {"log": str(log_path)})
            rep[s] = wall
        reps.append(rep)
        rep_digests = digests(out_dir)
        if first_digests is None:
            first_digests = rep_digests
        else:
            tally.record(f"determinism.rep{len(reps)}", rep_digests == first_digests,
                         "outputs differ between repetitions")
        elapsed = time.perf_counter() - t_start
        if len(reps) >= MIN_REPS and elapsed + statistics.median(
                sum(r.values()) for r in reps) > seconds:
            break

    result = run_checks(tally, out_dir, config, seed)
    # one vote per certified node, two (clean and attacked) per attack target
    draws = result["mu"] * (result["n_certified"] + 2 * result["n_targets"])
    med = {s: statistics.median(r[s] for r in reps) for s in STAGES}
    values = {
        "setup_s": setup_s,
        "train_s": med["train"],
        "certify_s": med["certify"],
        "attack_s": med["attack"],
        "pipeline_s": statistics.median(setup_s + sum(r.values()) for r in reps),
        "votes_per_s": statistics.median(draws / (r["certify"] + r["attack"]) for r in reps),
        "peak_rss_mb": max(rss),
    }
    result.pop("subgraph_sizes")
    detail = {
        "setup_walls_s": setup,
        "reps": reps,
        "draws": draws,
        "checks": result,
        "digests": first_digests,
        "environment": environment(threads),
    }
    return finish(name, 0, tally, values, detail)


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def run_traced(name: str, seed: int) -> dict:
    from checks import digests
    from spans import Tracer

    threads = WORKLOADS[name]
    out_dir = fresh_dir(name, 1)
    config = workload_config(name, out_dir)
    tally = Tally()
    tracer = Tracer()
    walls = traced_stages(tracer, tally, config, seed, out_dir)
    if walls is None:
        return finish(name, 1, tally, {}, {})

    result = run_checks(tally, out_dir, config, seed)
    out_digests = digests(out_dir)

    parallel = {"basis": "certify_node span sum / parallel_map span, this traced one-worker run"}
    if threads > 1:
        # Efficiency against the untraced multi-worker certify stage.
        wall_file = out_dir / "parallel_map_wall.json"
        _, code, _ = run_process(
            [sys.executable, str(HERE / "timed_stage.py"), str(wall_file),
             *cli_argv("certify", config, seed, out_dir)],
            stage_env(threads), out_dir / "stages.log")
        if tally.record("stage.certify_workers", code == 0, f"exit code {code}"):
            parallel = {"basis": f"certify_node span sum (traced, one worker) / ({threads} x "
                                 "parallel_map wall of an untraced certify stage)",
                        "workers": threads,
                        "untraced_wall_s": json.loads(wall_file.read_text())[0]}
        tally.record("determinism.threads", digests(out_dir) == out_digests,
                     f"certify outputs differ between 1 and {threads} workers")

    overhead = trace_overhead(len(tracer.spans), sum(walls.values()))
    values, layers = layer_metrics(tracer.spans, result, parallel, overhead)
    write_spans(tracer.spans, out_dir / "spans.csv")
    total = sum(walls.values())
    detail = {
        "stage_walls_traced_s": walls,
        "layers": layers,
        "shares": {k: round(v["self_s"] / total, 4) for k, v in
                   sorted(layers["by_name"].items(), key=lambda kv: -kv[1]["self_s"])},
        "parallel_map": parallel,
        "overhead": overhead,
        "digests": out_digests,
        "environment": environment(1),
    }
    return finish(name, 1, tally, values, detail)


def traced_stages(tracer, tally: Tally, config: Path, seed: int, out_dir: Path):
    """Run gen and every stage in this process under the tracer.

    Returns the stage walls (s), or None when a stage fails. Wrapped functions
    exist only in this process, so the stages run with one worker and no pool.
    """
    from edgecert import cli

    os.environ["EDGECERT_THREADS"] = "1"
    walls = {}
    tracer.install()
    try:
        for s in ("gen", *STAGES):
            t0 = time.perf_counter()
            try:
                cli.main(cli_argv(s, config, seed, out_dir))
                ok, detail = True, ""
            except Exception as exc:  # a failing stage is counted, not fatal
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            walls[s] = time.perf_counter() - t0
            if not tally.record(f"stage.{s}", ok, detail):
                return None
    finally:
        tracer.uninstall()
    return walls


def trace_overhead(n_spans: int, traced_wall_s: float, calls: int = 200_000) -> dict:
    """Tracing cost: recorded spans x the measured cost of one wrapped call.

    The cost of one call is the extra time a wrapped no-op takes over the bare
    no-op, over ``calls`` calls in this process.
    """
    from spans import Tracer

    def noop(x):
        return x

    wrapped = Tracer().wrap("calibrate", noop)
    t0 = time.perf_counter()
    for i in range(calls):
        noop(i)
    t1 = time.perf_counter()
    for i in range(calls):
        wrapped(i)
    t2 = time.perf_counter()
    per_call = max((t2 - t1) - (t1 - t0), 0.0) / calls
    cost = n_spans * per_call
    return {"basis": "spans x per-call wrapper cost / (traced stage time - that cost)",
            "per_call_us": per_call * 1e6, "spans": n_spans,
            "ratio": cost / (traced_wall_s - cost)}


def layer_metrics(spans, result: dict, parallel: dict, overhead: dict) -> tuple[dict, dict]:
    from spans import draw_times, durations, percentile, summarize, tail

    by_name = summarize(spans)

    def self_s(name):
        return by_name.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    # stage (cli.cmd_*) of every span, inherited from the root
    stage: list[str | None] = []
    for n, _, _, parent, _ in spans:
        stage.append(n if n.startswith("cli.cmd_") else (stage[parent] if parent >= 0 else None))
    khop_in_certify = sum(1 for (n, *_), s in zip(spans, stage)
                          if n == "graph.khop_subgraph" and s == "cli.cmd_certify")

    node_ms = [d * 1e3 for d in durations(spans, "certify.certify_node")]
    draw_us = [d * 1e6 for d in draw_times(spans)]
    n_sub = [n for n, _ in result["subgraph_sizes"]]
    d_sub = [d for _, d in result["subgraph_sizes"]]
    tails = {
        "graph.subgraph_nodes.tail": tail(n_sub),
        "graph.subgraph_edges.tail": tail(d_sub),
        "certify.vote.draw_us.tail": tail(draw_us),
        "certify.certify_node.tail_ms": tail(node_ms),
    }
    pm_wall = by_name["cli.parallel_map"]["total_s"]
    node_sum = sum(node_ms) / 1e3
    if "untraced_wall_s" in parallel:
        efficiency = node_sum / (parallel["workers"] * parallel["untraced_wall_s"])
    else:
        efficiency = node_sum / pm_wall

    values = {
        "graph.khop_subgraph.self_s": self_s("graph.khop_subgraph"),
        "graph.khop_subgraph.calls_per_node": khop_in_certify / max(len(node_ms), 1),
        "graph.subgraph_nodes.p50": percentile(n_sub, 50.0),
        "graph.subgraph_nodes.tail": tails["graph.subgraph_nodes.tail"][0],
        "graph.subgraph_edges.p50": percentile(d_sub, 50.0),
        "graph.subgraph_edges.tail": tails["graph.subgraph_edges.tail"][0],
        "graph.load_graph.self_s": self_s("graph.load_graph"),
        "graph.sbm_generate.self_s": self_s("graph.sbm_generate"),
        "graph.slot_pair.self_s": self_s("graph.slot_pair"),
        "noise.sample_edgedrop.self_s": self_s("noise.sample_edgedrop"),
        "noise.sample_edgedrop.p50_us": by_name["noise.sample_edgedrop"]["p50_s"] * 1e6,
        "noise.apply_xor.self_s": self_s("noise.apply_xor"),
        "certify.vote.self_s": self_s("certify.vote_on_struct_vector"),
        "certify.vote.draws": len(draw_us),
        "certify.vote.draw_us.p50": percentile(draw_us, 50.0),
        "certify.vote.draw_us.tail": tails["certify.vote.draw_us.tail"][0],
        "linear_eval.predict.self_s": self_s("linear_eval.predict"),
        "linear_eval.predict.calls": calls("linear_eval.predict"),
        "certify.base_predict.self_s": self_s("certify.base_predict"),
        "certify.confidence_bounds.self_s": self_s("certify.confidence_bounds"),
        "certify.beta_quantile.calls": calls("certify.beta_quantile"),
        "certify.certified_k.self_s": self_s("certify.certified_k"),
        "certify.certify_node.p50_ms": percentile(node_ms, 50.0),
        "certify.certify_node.tail_ms": tails["certify.certify_node.tail_ms"][0],
        "certify.certified_ratio": result["certified_ratio"],
        "certify.abstain_ratio": result["abstain_ratio"],
        "trainer.loss_and_grads.self_s": self_s("trainer.loss_and_grads"),
        "trainer.augment.self_s": self_s("trainer.augment"),
        "encoder.forward.self_s": self_s("encoder.forward"),
        "linear_eval.fit_logreg.self_s": self_s("linear_eval.fit_logreg"),
        "attack.generate.self_s": self_s("attack.random_targeted_attack")
        + self_s("attack.random_global_attack"),
        "attack.add_edges.self_s": self_s("attack.add_edges"),
        "attack.add_edges.calls": calls("attack.add_edges"),
        "cli.parallel_map.wall_s": pm_wall,
        "cli.parallel_map.efficiency": efficiency,
        "checkpoint.read_checkpoint.self_s": self_s("checkpoint.read_checkpoint"),
        "checkpoint.write_checkpoint.self_s": self_s("checkpoint.write_checkpoint"),
        "rng.derive_seed.calls": calls("rng.derive_seed"),
        "trace.overhead_ratio": overhead["ratio"],
    }
    targeted = durations(spans, "attack.random_targeted_attack")
    layers = {
        "by_name": by_name,
        "tails": {k: {"value": v, "percentile": q, "samples": n} for k, (v, q, n) in tails.items()},
        "attack.random_targeted_attack.p50_ms":
            percentile(targeted, 50.0) * 1e3 if targeted else None,
        "n_spans": len(spans),
    }
    return values, layers


def write_spans(spans, path: Path) -> None:
    from spans import requests

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start_ns,end_ns,parent,request\n")
        for (name, t0, t1, parent, _), req in zip(spans, requests(spans)):
            fh.write(f"{name},{t0},{t1},{parent},{'' if req is None else req}\n")


# ---------------------------------------------------------------------------
# output


def finish(name: str, trace: int, tally: Tally, values: dict, detail: dict) -> dict:
    units = PER_LAYER if trace else END_TO_END
    failures = list(tally.failures)
    missing = [k for k in units if k not in values]
    if missing and not failures:
        failures.append(f"metrics missing: {', '.join(missing)}")
    out = {
        "workload": name,
        "trace": trace,
        "correct": not failures,
        "attempted": max(tally.attempted, 1),
        "failed": len(failures),
        "failures": failures,
        "check_fail_ratio": len(tally.failures) / max(tally.attempted, 1),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
        "detail": detail,
    }
    run_dir = OUT_ROOT / f"{name}-trace{trace}"
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return out


def print_human(out: dict) -> None:
    name = out["workload"]
    for k, m in out["metrics"].items():
        print(f"{name:16s} {k:38s} {m['value']:14.6g} {m['unit']}")
    print(f"{name:16s} {'check_fail_ratio':38s} {out['check_fail_ratio']:14.6g} ratio "
          f"({len(out['failures'])}/{out['attempted']})")
    for failure in out["failures"]:
        print(f"{name:16s} CHECK FAILED: {failure}")
    detail = out["detail"]
    if "checks" in detail:
        c = detail["checks"]
        print(f"{name:16s} clean_accuracy {c['clean_accuracy']} robust_accuracy "
              f"{c['robust_accuracy']} curve {c['certified_accuracy_curve']}")
    if "layers" in detail:
        for k, t in detail["layers"]["tails"].items():
            print(f"{name:16s} {k} = p{t['percentile']:g} of {t['samples']} samples")
        top = list(detail["shares"].items())[:12]
        print(f"{name:16s} self-time shares: " + ", ".join(f"{k} {v:.3f}" for k, v in top))
    for f, h in sorted(detail.get("digests", {}).items()):
        print(f"{name:16s} sha256 {f} {h}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "edgecert" / "cli.py").is_file():
        print(f"edgecert sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads OpenBLAS in this process
    sys.path[:0] = [str(SRC), str(HERE)]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outs = []
    for name in names:
        if args.trace:
            out = run_traced(name, args.seed)
        else:
            out = run_untraced(name, args.seed, args.seconds)
        print_human(out)
        outs.append(out)
    last = {
        "correct": all(o["correct"] for o in outs),
        "attempted": sum(o["attempted"] for o in outs),
        "failed": sum(o["failed"] for o in outs),
        "metrics": outs[0]["metrics"] if len(outs) == 1 else
        {f"{o['workload']}.{k}": m for o in outs for k, m in o["metrics"].items()},
    }
    print(json.dumps(last))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
