"""Self-tests for the benchmark's tracing, arithmetic and output checks.

Run from the repository root::

    python3 perfbench/selftest.py          # about a minute; the last test runs the default fixture

Files go to ``.perfbench-out/selftest/``.
"""

from __future__ import annotations

import importlib
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from checks import check_run, digests  # noqa: E402
from spans import (  # noqa: E402
    PACKAGE, Tracer, draw_times, requests, self_times, summarize, tail, traced_names,
)

WORK = run.OUT_ROOT / "selftest"
os.environ.update(run.THREAD_ENV)  # before numpy loads, as in a benchmark run

TINY = """\
sbm_blocks = 2
sbm_nodes_per_block = 12
sbm_p_in = 0.4
sbm_p_out = 0.05
sbm_center_scale = 3.0
train_frac = 0.3
val_frac = 0.2
test_frac = 0.5
epochs = 3
beta_drop = 0.9
mu = 30
k_hop = 2
attack_num_targets = 3
attack_budget = 2
"""


def tiny_config(name: str, extra: str = "") -> tuple[Path, Path]:
    out = WORK / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = out / "config.txt"
    config.write_text(TINY + extra, encoding="utf-8")
    return config, out


def bindings() -> dict[tuple[str, str], object]:
    """Every (module, attribute) in the package that holds a traced function."""
    originals = {}
    for name in traced_names():
        mod, fn = name.split(".")
        originals[fn] = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), fn)
    out = {}
    for mod_name, m in list(sys.modules.items()):
        if m is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for fn, obj in originals.items():
            if getattr(m, fn, None) is obj:
                out[(mod_name, fn)] = obj
    return out


class SpanArithmetic(unittest.TestCase):
    def test_self_time_nested(self):
        spans = [
            ("a", 0, 100, -1, 7),
            ("b", 10, 30, 0, None),
            ("d", 15, 20, 1, None),
            ("c", 40, 90, 0, 3),
            ("e", 200, 210, -1, None),
        ]
        self.assertEqual(self_times(spans), [30, 15, 5, 50, 10])
        self.assertEqual(requests(spans), [7, 7, 7, 3, None])
        by_name = summarize(spans)
        self.assertAlmostEqual(by_name["a"]["self_s"], 30e-9)
        self.assertAlmostEqual(by_name["a"]["total_s"], 100e-9)

    def test_self_time_counts_overlap_once(self):
        spans = [("p", 0, 100, -1, None), ("x", 10, 50, 0, None), ("y", 30, 120, 0, None)]
        # children cover [10, 100] inside the parent: 90 ns
        self.assertEqual(self_times(spans)[0], 10)

    def test_draw_times(self):
        spans = [
            ("certify.vote_on_struct_vector", 0, 100, -1, None),
            ("noise.sample_edgedrop", 10, 12, 0, None),
            ("noise.sample_edgedrop", 40, 42, 0, None),
            ("noise.sample_edgedrop", 75, 77, 0, None),
        ]
        self.assertEqual([round(d * 1e9) for d in draw_times(spans)], [30, 35, 25])

    def test_tail_has_ten_samples_beyond(self):
        self.assertEqual(tail(list(range(80))), (69.0, 87.5, 80))
        self.assertEqual(tail(list(range(11))), (0.0, 100.0 / 11, 11))
        self.assertEqual(tail(list(range(9))), (4.0, 50.0, 9))


class TracedPipeline(unittest.TestCase):
    """Tiny targeted and global runs, traced in process and untraced through the CLI."""

    @classmethod
    def setUpClass(cls):
        cls.before = bindings()
        cls.spans = []
        cls.traced_digests = {}
        for mode, extra in (("targeted", ""), ("global", "attack_mode = global\n")):
            config, out = tiny_config(f"traced-{mode}", extra)
            tally = run.Tally()
            tracer = Tracer()
            walls = run.traced_stages(tracer, tally, config, 5, out)
            assert walls is not None, tally.failures
            cls.spans.extend(tracer.spans)
            cls.traced_digests[mode] = digests(out)
        cls.after = bindings()

    def test_every_traced_name_records_a_call(self):
        called = {name for name, *_ in self.spans}
        missing = [n for n in traced_names() if n not in called]
        self.assertEqual(missing, [], "wrapped names with no recorded call")

    def test_uninstall_restores_every_binding(self):
        self.assertEqual(set(self.after), set(self.before))
        for key, obj in self.before.items():
            self.assertIs(self.after[key], obj, key)

    def test_traced_outputs_match_untraced(self):
        config, out = tiny_config("untraced-targeted")
        env = run.stage_env(1)
        for stage in ("gen", *run.STAGES):
            _, code, _ = run.run_process(
                [sys.executable, "-m", "edgecert.cli", *run.cli_argv(stage, config, 5, out)],
                env, out / "stages.log")
            self.assertEqual(code, 0, stage)
        self.assertEqual(digests(out), self.traced_digests["targeted"])
        log, _ = check_run(out, config, 5)
        self.assertEqual(log.failures, [])


class Checks(unittest.TestCase):
    def test_corrupted_report_fails(self):
        config, out = tiny_config("corrupt")
        env = run.stage_env(1)
        for stage in ("gen", *run.STAGES):
            run.run_process([sys.executable, "-m", "edgecert.cli",
                             *run.cli_argv(stage, config, 5, out)], env, out / "stages.log")
        path = out / "certify_report.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[2].split(",")
        fields[4] = "31"  # votes_c_a above mu = 30
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        log, _ = check_run(out, config, 5)
        self.assertIn("certify.votes_le_mu", [name for name, _ in log.failures])


class DenseFixtureDigests(unittest.TestCase):
    def test_matches_plain_default_run(self):
        """dense-fixture outputs equal a plain CLI run of the default config."""
        out = WORK / "plain-default"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        config = out / "config.txt"
        config.write_text("", encoding="utf-8")
        env = {k: v for k, v in os.environ.items()
               if k not in ("EDGECERT_THREADS", *run.THREAD_ENV)}
        env["PYTHONPATH"] = str(run.SRC)
        for stage in ("gen", *run.STAGES):
            code = subprocess.call([sys.executable, "-m", "edgecert.cli",
                                    *run.cli_argv(stage, config, 0, out)], env=env,
                                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            self.assertEqual(code, 0, stage)
        result = run.run_untraced("dense-fixture", 0, seconds=1)
        self.assertTrue(result["correct"], result["failures"])
        self.assertEqual(result["detail"]["digests"], digests(out))


if __name__ == "__main__":
    unittest.main(verbosity=2)
