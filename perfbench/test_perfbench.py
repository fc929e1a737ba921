"""Tests of the benchmark itself: seeding, oracles, input generation and tracing.

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK = Path("/nonexistent-work-dir")


def job_lists(seed: int) -> dict:
    """Every workload's jobs."""
    return {name: [[(j.label, j.argv, j.stdout) for j in build(seed, r, WORK)]
                   for r in range(W.ROUNDS[name])]
            for name, build in W.ROUND_BUILDERS.items()}


class SeedTest(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        self.assertEqual(job_lists(7), job_lists(7))

    def test_different_seed_different_draw(self):
        a, b = job_lists(7), job_lists(8)
        for name in W.ROUND_BUILDERS:
            if name == "tc_overflow":  # fixed sums: the seed has no effect
                self.assertEqual(a[name], b[name])
            else:
                self.assertNotEqual(a[name], b[name], name)

    def test_default_seed_is_recorded(self):
        args = run.build_parser().parse_args(["--workload", "verify_cold"])
        self.assertEqual(args.seed, run.DEFAULT_SEED)

    def test_beta_pool(self):
        for alpha, pool in W.BETA_POOL.items():
            self.assertEqual(alpha % 2, 1)
            for beta in pool:
                self.assertEqual(math.gcd(alpha, beta), 1)
                self.assertTrue(1 < beta < alpha - 1)

    def test_rounds_cover_every_row(self):
        for r in range(W.ROUNDS["homology_warm"]):
            specs = [s for s, _, _ in W.homology_specs(3, r)]
            alphas = sorted(int(s.split(":")[1].split(",")[0]) for s in specs if s.startswith("rational"))
            self.assertEqual(alphas, list(W.HOMOLOGY_ALPHAS))
            self.assertEqual(len(specs), len(W.HOMOLOGY_ALPHAS) + len(W.PAPER_ROWS))


class OracleTest(unittest.TestCase):
    """The closed forms and paper values render to commit 772cdf8's stdout bytes."""

    def golden(self, spec: str, n: int) -> str:
        name = spec.replace(":", "_").replace(",", "_").replace("/", "_")
        return (W.GOLDEN / "homology" / f"{name}_n{n}.json").read_text()

    def test_paper_rows_match_seed_output(self):
        for spec, n, qn, pi1, ell, tor, extra in W.PAPER_ROWS:
            self.assertEqual(W.homology_expected(spec, n, qn, pi1, ell, tor, extra),
                             self.golden(spec, n), spec)

    def test_rational_closed_form_matches_seed_output(self):
        for path in sorted((W.GOLDEN / "homology").glob("rational_*.json")):
            _, alpha, beta, _ = path.stem.split("_")
            self.assertEqual(W.rational_expected(int(alpha), int(beta)), path.read_text())

    def test_verify_tables_golden(self):
        text = (W.GOLDEN / "verify_tables.txt").read_text()
        self.assertTrue(text.endswith("51 passed, 0 failed, 0 skipped, 0 overflowed\n"))
        rows = (W.GOLDEN / "verify_tables.csv").read_text().splitlines()[1:]
        self.assertEqual(len(rows), 51)
        self.assertTrue(all(row.startswith("PASS,") for row in rows))

    def test_job_check(self):
        job = W.tc_round(1, 0, WORK)[0]
        self.assertIsNone(job.check(3, "", "overflow: coset enumeration exceeded 100000 cosets\n"))
        self.assertIsNotNone(job.check(0, "", "overflow: exceeded 100000 cosets"))
        self.assertIsNotNone(job.check(3, "x", "exceeded 100000 cosets"))
        self.assertIsNotNone(job.check(3, "", ""))


class PDTest(unittest.TestCase):
    def test_sums_are_valid_knot_diagrams(self):
        from qf.diagrams import analyze, parse_pd

        for params in W.TC_SUMS:
            crossings = W.tc_sum_pd(*params)
            pd = parse_pd(W.format_pd(crossings))  # raises on a bad diagram
            analyze(pd)
            self.assertEqual(pd.n_crossings,
                             len(W.CATALOG[params[0]].split()) + len(W.CATALOG[params[3]].split()))

    def test_mirror_is_an_involution_and_changes_the_diagram(self):
        k = W.parse_pd(W.CATALOG["3_1"])
        self.assertEqual(W.mirror(W.mirror(k)), k)
        self.assertNotEqual(W.mirror(k), k)


class TracerTest(unittest.TestCase):
    def setUp(self):
        import qf.cli  # noqa: F401  (loads every qf module)

        self.tracer = Tracer()
        self.tracer.install()
        self.addCleanup(self.tracer.uninstall)

    def test_every_binding_is_wrapped(self):
        import qf
        import qf.groups
        import qf.pipeline
        import qf.verify

        self.assertEqual(self.tracer.unwrapped(), [])
        for module in (qf, qf.groups, qf.pipeline, qf.verify):
            self.assertIn(id(module.todd_coxeter), self.tracer._wrapper_ids, module.__name__)

    def test_an_unwrapped_alias_is_found(self):
        import qf.groups
        import qf.verify

        qf.verify._alias = qf.groups.todd_coxeter.__wrapped__
        try:
            self.assertEqual(self.tracer.unwrapped(), ["qf.verify._alias"])
        finally:
            del qf.verify._alias

    def test_uninstall_restores_the_originals(self):
        import qf.groups
        import qf.quandles

        wrapped = qf.groups.todd_coxeter
        init = qf.quandles.FiniteQuandle.__init__
        self.tracer.uninstall()
        self.assertIs(qf.groups.todd_coxeter, wrapped.__wrapped__)
        self.assertIs(qf.quandles.FiniteQuandle.__init__, init.__wrapped__)

    def test_spans_and_counters(self):
        import qf.cli

        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            code = qf.cli.main(["homology", "--knot", "catalog:3_1", "--n", "3", "--no-cache"])
        self.assertEqual(code, 0)
        self.assertEqual(json.loads(out.getvalue())["qn_size"], 4)
        stats = self.tracer.stats
        self.assertEqual(stats["cli.main"].calls, 1)
        self.assertGreater(stats["intlinalg.smith_normal_form"].calls, 0)
        self.assertGreater(stats["intlinalg.smith_normal_form"].counters["nnz_in"], 0)
        children = sum(s.self_s for name, s in stats.items() if name != "cli.main")
        self.assertAlmostEqual(stats["cli.main"].self_s + children, stats["cli.main"].total,
                               places=6)

    def test_work_counter(self):
        import qf.quandles

        qf.quandles.dihedral_quandle(5)
        stat = self.tracer.stats["quandles.FiniteQuandle.init"]
        self.assertEqual((stat.calls, stat.counters["work"]), (1, 125))


class CompareTest(unittest.TestCase):
    def test_a_change_counts_only_where_measured_and_rescaled_agree(self):
        self.assertEqual(compare.verdict(0.30, 0.10, 0.25), "worse")
        self.assertEqual(compare.verdict(-0.30, -0.02, 0.25), "better")
        self.assertEqual(compare.verdict(0.10, 0.20, 0.25), "within bound")
        self.assertEqual(compare.verdict(0.30, -0.05, 0.25), "unclear")
        self.assertAlmostEqual(compare.worse_by(2.0, 1.0, "higher"), 1.0)
        self.assertAlmostEqual(compare.worse_by(2.0, 1.0, "lower"), -0.5)

    def test_load_pairs_metadata_with_results(self):
        meta = {"metadata": {"workload": "tc_overflow", "trace": 0,
                             "measured": {"jobs_per_s": 0.5}}}
        result = {"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {"jobs_per_s": {"value": 0.4, "unit": "1/s"}}}
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        path = Path(tmp.name) / "runs.txt"
        path.write_text("table line\n" + f"{json.dumps(meta)}\n{json.dumps(result)}\n" * 2)
        self.assertEqual(compare.load(str(path)),
                         {"tc_overflow": [({"jobs_per_s": 0.4}, {"jobs_per_s": 0.5})] * 2})


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_lists_match(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(W.ROUND_BUILDERS))


if __name__ == "__main__":
    unittest.main()
