"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

Confirms that a wrong reference turns into failed invocations, that the
traced in-process run prints exactly what the untraced CLI prints, that
``BENCHMARK.json`` names the metrics ``run.py`` reports, and that the
benchmark refuses to run without the package's sources.  Takes about
half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace

import reference
import run
import tracing
import workloads


class SelfCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        run.OUT.mkdir(exist_ok=True)
        cls.ref = reference.load()
        cls.spawner = run.Spawner()

    @classmethod
    def tearDownClass(cls) -> None:
        cls.spawner.__exit__(None, None, None)

    def errors(self, name: str, ref: reference.Reference, invocations=None) -> list:
        """Errors of one pass (or of ``invocations`` of it) against ``ref``."""
        workload = workloads.build(name, 1, ref)
        chosen = invocations(workload) if invocations else (workload.setup, *workload.passes)
        return [run.invoke(self.spawner, inv).error for inv in chosen]

    def test_seed_reference_passes_and_a_wrong_atlas_digest_fails(self):
        self.assertEqual(self.errors("atlas", self.ref), [None, None])
        wrong = replace(self.ref, atlas_sha256="0" * 64)
        setup_error, pass_error = self.errors("atlas", wrong)
        self.assertIsNone(setup_error)
        self.assertIn("differs from the reference", pass_error)
        loop = run.Timed(self.spawner, run.Calibration(), workloads.build("atlas", 1, wrong), 1)
        run.run_cycles([loop], 0)
        failed = [o for o in loop.result()["outcomes"] if o.error is not None]
        self.assertEqual(len(failed), 1)

    def test_wrong_search_references_fail(self):
        workload = workloads.build("search", 1, self.ref)
        targets = workloads.search_targets(1, self.ref)
        m = workloads.SEARCH_MAX_ORDER

        def output_of(cls):
            i, t = next((i, t) for i, (c, t) in enumerate(targets) if c == cls)
            code, out, _, _ = self.spawner.cli(workload.passes[i].argv)
            self.assertIsNone(reference.check_search(code, out, t, m, self.ref))
            return t, code, out

        hit, code, out = output_of("witness")
        order, group = self.ref.search_atlas[hit]
        for wrong in ((order + 1, group), (order, group + " x Z1")):
            atlas = {**self.ref.search_atlas, hit: wrong}
            self.assertIn("expected", reference.check_search(
                code, out, hit, m, replace(self.ref, search_atlas=atlas)))
        atlas = {r: w for r, w in self.ref.search_atlas.items() if r != hit}
        self.assertIn("no witness", reference.check_search(
            code, out, hit, m, replace(self.ref, search_atlas=atlas)))
        miss, code, out = output_of("pruned")
        atlas = {**self.ref.search_atlas, miss: (30, "Z2 x Z3 x Z5")}
        self.assertIn("expected", reference.check_search(
            code, out, miss, m, replace(self.ref, search_atlas=atlas)))

    def test_wrong_verify_references_fail(self):
        key = " ".join(workloads.SETUP_ARGVS["verify"])
        checked, skipped = self.ref.verify[key]
        for wrong in ((checked + 1, skipped - 1), (checked, skipped + 1)):
            ref = replace(self.ref, verify={**self.ref.verify, key: wrong})
            [error] = self.errors("verify", ref, lambda w: [w.setup])
            self.assertIsNotNone(error)

    def test_traced_outputs_equal_untraced(self):
        pkg = run.import_package()
        tracer = tracing.Tracer()
        for name in workloads.NAMES:
            workload = workloads.build(name, 1, self.ref)
            chosen = list(workload.passes)
            if name == "search":  # one target per class keeps this check short
                chosen = [next(i for i in chosen if f":{c}:" in i.label)
                          for c in workloads.SEARCH_CLASSES]
            for inv in chosen:
                with self.subTest(invocation=inv.label):
                    code, out, _, _ = self.spawner.cli(inv.argv)
                    with tracing.installed(tracer, pkg):
                        traced = run.in_process(tracer.wrap("cli.main", pkg["cli"].main),
                                                inv.argv)
                    self.assertEqual(traced, (code, out))
                    self.assertIsNone(inv.check(*traced))
        self.assertGreater(len(tracer.name), 0)

    def test_benchmark_json_names_what_run_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.NAMES))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_refuses_to_run_without_sources(self):
        bare = run.OUT / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "atlas", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
