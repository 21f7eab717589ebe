"""Tests of the benchmark itself (not collected by the repository's pytest
run, which only picks up test_*.py files):

    python3 perfbench/selftest.py

- a small-size smoke run of every workload;
- sabotage: each oracle is fed a deliberately wrong result and must count
  every op as failed;
- the tracer: per-layer self times add up to the traced op time, every
  alias is rebound and restored, and the KAK retry is counted.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import oracles as O  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

qgd = worker.qgd
ROOT = worker.ROOT


class _WorkDir(unittest.TestCase):
    def setUp(self):
        out = os.path.join(ROOT, ".bench_out")
        os.makedirs(out, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="selftest-", dir=out)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def workload(self, name):
        wl = workloads.make(name, qgd, self.dir, small=True)
        return wl, wl.make_inputs(7)


class Smoke(_WorkDir):
    def test_every_workload_runs_clean(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name):
                wl, inputs = self.workload(name)
                m = worker.measure(wl, inputs, 0.2)
                self.assertGreaterEqual(m["attempted"], 1)
                self.assertEqual(m["failed"], 0, m["failures"])
                part = dict(m, peak_rss_mb=worker.peak_rss_mb())
                self.assertGreater(run.end_to_end([part])["latency_p50_ms"],
                                   0)

    def test_workers_merge_to_each_inputs_fastest(self):
        parts = [{"best": {"0": 0.3, "1": 0.2, "2": 0.5}, "bad": [],
                  "peak_rss_mb": 40.0},
                 {"best": {"0": 0.1, "1": 0.4}, "bad": [2],
                  "peak_rss_mb": 41.0}]
        m = run.end_to_end(parts)
        self.assertAlmostEqual(m["throughput_ops_per_s"], 2 / 0.3)
        self.assertAlmostEqual(m["latency_p50_ms"], 150.0)
        self.assertEqual(m["peak_rss_mb"], 41.0)

    def test_same_seed_same_inputs(self):
        wl = workloads.make("gate_analysis", qgd, small=True)
        a, b = wl.make_inputs(3), wl.make_inputs(3)
        self.assertTrue(all(np.array_equal(x["u"], y["u"])
                            for x, y in zip(a, b)))
        self.assertFalse(np.array_equal(a[0]["u"], wl.make_inputs(4)[0]["u"]))

    def test_retry_share_takes_two_eigensolver_attempts(self):
        wl, inputs = self.workload("gate_analysis")
        tr = worker.make_tracer().install()
        try:
            for i, inp in enumerate(inputs):
                with tr.op_span(i):
                    wl.run(inp)
        finally:
            tr.uninstall()
        kinds = [inp["kind"] for inp in inputs]
        retries = tr.eigh_by_span["equivalence.kak_decompose"] - len(inputs)
        self.assertEqual(retries, kinds.count("Axx0"))


def _nudge_first_rotation(res):
    ops = list(res.schedule.ops)
    k = next(i for i, op in enumerate(ops) if type(op).__name__ == "Rotate")
    ops[k] = dataclasses.replace(ops[k], angle=ops[k].angle + 1e-6)
    return dataclasses.replace(res, schedule=type(res.schedule)(ops=ops))


def _swap_kak_factor(res):
    inv, kak, weyl, equiv = res
    return inv, dataclasses.replace(kak, u_post=kak.u_post[::-1]), weyl, equiv


def _cli_nudge(inp, res):
    code, out, err = res
    kind = inp["kind"]
    if kind == "trajectory":
        lines = out.strip().splitlines()
        row = lines[-1].split(",")
        row[1] = repr(float(row[1]) + 1e-6)
        return code, "\n".join(lines[:-1] + [",".join(row)]) + "\n", err
    d = json.loads(out)
    if kind == "compile":
        k = next(i for i, op in enumerate(d["schedule"]) if op["op"] == "rotate")
        d["schedule"][k]["angle"] += 1e-6
    elif kind == "simulate_result":
        d["exact_distance"] += 1e-6
    elif kind == "simulate_bare":
        d["phase_distance" if inp["mode"] == "exact_up_to_phase"
          else "invariant_distance"] += 1e-6
    elif kind == "kak":
        d["phase"] += 1e-6
    else:
        d["G2"] += 1e-6
    return code, json.dumps(d), err


class Oracles(unittest.TestCase):
    def test_weyl_face_gap_matches_folded_coordinates(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            xyz = rng.uniform(-3, 3, 3)
            if rng.integers(2):
                xyz[rng.integers(3)] = (math.pi / 4 * rng.choice([-1, 1])
                                        + rng.uniform(-1e-5, 1e-5)
                                        + math.pi / 2 * rng.integers(-2, 3))
            folded = np.abs(xyz - math.pi / 2 * np.round(xyz / (math.pi / 2)))
            u = np.exp(1j * rng.uniform(0, 2 * math.pi)) * workloads._dressed(
                rng, O.entangler(*xyz))
            self.assertAlmostEqual(O.weyl_face_gap(u),
                                   math.pi / 4 - folded.max(), delta=1e-12)

    def test_haar_draws_stay_out_of_the_snap_band(self):
        wl = workloads.make("gate_analysis", qgd)
        gaps = [O.weyl_face_gap(inp["u"]) for inp in wl.make_inputs(5)
                if inp["kind"] == "haar"]
        self.assertGreaterEqual(min(gaps), workloads.WEYL_SNAP_BAND)


class Sabotage(_WorkDir):
    def assert_all_fail(self, name, tamper):
        wl, inputs = self.workload(name)
        if name == "cli_pipeline":
            # compile writes the result the next simulate reads; give the
            # simulate ops a real result before corrupting anything.
            for inp in inputs:
                wl.check(inp, wl.run(inp))
        n = len(inputs)
        m = worker.measure(wl, inputs, 0.0, tamper=tamper)
        while m["attempted"] < n:
            more = worker.measure(wl, inputs, 0.0, tamper=tamper,
                                  first_op=m["next_op"])
            m = {k: m[k] + more[k] if k in ("attempted", "failed") else more[k]
                 for k in m}
        self.assertEqual(m["failed"], m["attempted"])

    def test_compile_oracle_catches_nudged_angle(self):
        self.assert_all_fail("compile_sweep",
                             lambda inp, res: _nudge_first_rotation(res))

    def test_kak_oracle_catches_swapped_factor(self):
        self.assert_all_fail("gate_analysis",
                             lambda inp, res: _swap_kak_factor(res))

    def test_kak_oracle_catches_non_idempotent_weyl(self):
        def shift(inp, res):
            inv, kak, weyl, equiv = res
            w = dataclasses.replace(weyl, x=weyl.x + math.pi / 2)
            return inv, kak, w, equiv
        self.assert_all_fail("gate_analysis", shift)

    def test_rwa_oracle_catches_perturbed_infidelity(self):
        self.assert_all_fail("rwa_scan",
                             lambda inp, res: [x * (1 + 1e-3) for x in res])

    def test_cli_oracle_catches_nudged_output(self):
        self.assert_all_fail("cli_pipeline", _cli_nudge)

    def test_cli_oracle_catches_traceback(self):
        self.assert_all_fail(
            "cli_pipeline",
            lambda inp, res: (res[0], res[1], workloads.TRACEBACK + "\n"))

    def test_probe_oracle(self):
        wl, _ = self.workload("cli_pipeline")
        bad = wl.probes(1)[0]
        self.assertRaises(workloads.OracleFailure, wl.check, bad,
                          (0, "{}", ""))
        self.assertRaises(workloads.OracleFailure, wl.check, bad,
                          (1, "", workloads.TRACEBACK))
        self.assertRaises(workloads.OracleFailure, wl.check, bad,
                          (99, "", "error: refused"))
        self.assertEqual(wl.check(bad, (1, "", "error: refused")), 0.0)

    def test_weyl_probe_oracle_catches_point_on_face(self):
        wl = workloads.make("gate_analysis", qgd, small=True)
        probe = wl.probes(1)[0]
        self.assertLess(O.weyl_face_gap(probe["u"]), workloads.WEYL_SNAP_BAND)
        inv, kak, weyl, equiv = wl.run(probe)
        snapped = dataclasses.replace(weyl, x=math.pi / 4)
        self.assertRaises(workloads.OracleFailure, wl.check, probe,
                          (inv, kak, snapped, equiv))

    def test_oracle_is_independent_of_qgd(self):
        with open(os.path.join(HERE, "oracles.py")) as fh:
            self.assertNotRegex(fh.read(), r"(?m)^\s*(import|from)\s+qgd")


class Tracing(_WorkDir):
    def traced(self, name, seconds=0.3):
        wl, inputs = self.workload(name)
        run = wl.run
        tr = worker.make_tracer()
        if name == "cli_pipeline":
            run = wl.run_inprocess
            from qgd import cli
            tr.wrap_attr(cli, "main", "cli.main")
        tr.install()
        try:
            m = worker.measure(wl, inputs, seconds, run=run, tracer=tr)
        finally:
            tr.uninstall()
        self.assertEqual(m["failed"], 0, m["failures"])
        return tr, m

    def test_self_times_add_up_to_op_time(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name):
                tr, m = self.traced(name)
                a = tr.arrays()
                a = {k: v[a["op"] >= 0] for k, v in a.items()}
                roots = a["name"] == 0
                per_op_self = np.bincount(a["op"], weights=a["self"])
                per_op_root = np.bincount(a["op"][roots],
                                          weights=a["dur"][roots])
                np.testing.assert_allclose(per_op_self, per_op_root,
                                           rtol=1e-9, atol=1e-12)
                self.assertTrue(np.all(a["self"] >= -1e-9))
                # Layer spans exist below the root, and the root's clock
                # covers the op's timed region.
                self.assertGreater(int((~roots).sum()), 0)
                self.assertGreaterEqual(float(a["dur"][roots].sum()),
                                        m["timed_s"] * (1 - 1e-9))
                metrics = worker.layer_metrics(tr, m["attempted"])
                self.assertAlmostEqual(metrics["bench.self_sum_frac"], 1.0,
                                       places=9)

    def test_aliases_rebound_and_restored(self):
        from qgd import compiler, equivalence, pulses
        before = (compiler.verify_schedule, pulses.kron, equivalence.kron,
                  np.linalg.eigh, qgd.compile_cnot)
        tr = worker.make_tracer().install()
        try:
            self.assertIs(compiler.verify_schedule, pulses.verify_schedule)
            self.assertIs(compiler.verify_schedule.__wrapped__, before[0])
            self.assertIs(pulses.kron, equivalence.kron)
            self.assertIs(pulses.kron.__wrapped__, before[1])
            self.assertIsNot(np.linalg.eigh, before[3])
            self.assertIs(qgd.compile_cnot.__wrapped__, before[4])
        finally:
            tr.uninstall()
        after = (compiler.verify_schedule, pulses.kron, equivalence.kron,
                 np.linalg.eigh, qgd.compile_cnot)
        for x, y in zip(before, after):
            self.assertIs(x, y)


class Contract(unittest.TestCase):
    def test_fails_without_the_program(self):
        """In a directory holding only BENCHMARK.json and perfbench, a run
        exits non-zero without printing a result."""
        out = os.path.join(ROOT, ".bench_out")
        os.makedirs(out, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=out)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "compile_sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=bare, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)

    def test_spec_names_match_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_out")) as d:
            wl = workloads.make("compile_sweep", qgd, d, small=True)
            inputs = wl.make_inputs(1)
            m = worker.measure(wl, inputs, 0.1)
            e2e = set(run.end_to_end([dict(m, peak_rss_mb=1.0)]))
            e2e.add("setup_s")
            self.assertEqual(e2e - set(run.TAILS),
                             {x["name"] for x in spec["end_to_end"]})
            metrics, _ = worker.traced_run(wl, inputs, 0.2, 1, d, d)
            names = {x["name"] for x in spec["per_layer"]}
            self.assertEqual(names - set(metrics), set())


if __name__ == "__main__":
    unittest.main()
