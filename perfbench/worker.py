"""One workload in one fresh process; prints one JSON object on stdout.

run.py starts this with BLAS and OpenMP pinned to one thread and `src` on
the import path. Modes:
  --setup-only   import qgd and build the inputs, report the time, exit;
  --trace 0      warm up, then time a closed loop with one caller and
                 report each input's fastest pass (run.py merges the
                 workers of one run and derives the end-to-end metrics);
  --trace 1      time the loop untraced for half the seconds, then traced
                 for the other half, and derive the per-layer metrics.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import qgd  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TRACED_MODULES = ["qgd.qmat", "qgd.hamiltonian", "qgd.entangler",
                  "qgd.equivalence", "qgd.pulses", "qgd.compiler"]
BRANCHES = ("ising_single_shot", "two_shot_refocus",
            "xy_single_shot_swapcnot", "general_jprime")
WARMUP_OPS = {"compile_sweep": 200, "gate_analysis": 200, "cli_pipeline": 1}
# In-process replay of cli_pipeline's commands (~1 ms each) in a traced run.
CLI_SECONDS = 1.0


def measure(wl, inputs, seconds, run=None, tracer=None, tamper=None,
            first_op=0):
    """Closed loop, one caller: round-robin passes over the input pool
    until `seconds` have passed.

    Only run(inp) is timed; the oracle check follows outside the clock.
    best[k] is input k's fastest timing over its passes: co-tenants on a
    shared machine only ever slow an op down, so the fastest of several
    passes spread over the run is the repeatable figure. tamper(inp,
    result) -> result lets the self-test corrupt a result before the oracle
    sees it."""
    run = run or wl.run
    clock = time.perf_counter
    lat, failed, passed, err_max = [], 0, 0, 0.0
    best, bad_inputs, failures = {}, set(), []
    end = clock() + seconds
    i = first_op
    while True:
        k = i % len(inputs)
        inp = inputs[k]
        try:
            if tracer is None:
                t0 = clock()
                res = run(inp)
                t1 = clock()
            else:
                with tracer.op_span(i):
                    t0 = clock()
                    res = run(inp)
                    t1 = clock()
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            t1 = clock()
            lat.append(t1 - t0)
            failed += 1
            bad_inputs.add(k)
            failures.append(f"{type(exc).__name__}: {exc}"[:300])
        else:
            lat.append(t1 - t0)
            best[k] = min(best.get(k, math.inf), t1 - t0)
            if tamper is not None:
                res = tamper(inp, res)
            try:
                err_max = max(err_max, wl.check(inp, res))
                passed += 1
            except Exception as exc:  # noqa: BLE001 - oracle verdict
                failed += 1
                bad_inputs.add(k)
                failures.append(f"{type(exc).__name__}: {exc}"[:300])
        i += 1
        if clock() >= end:
            break
    return {"lat": lat, "attempted": len(lat), "failed": failed,
            "passed": passed, "timed_s": sum(lat), "err_max": err_max,
            "best": {k: t for k, t in best.items() if k not in bad_inputs},
            "bad": sorted(bad_inputs), "failures": failures[:5],
            "next_op": i}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def warm_up(wl, inputs, run=None, ops=None):
    """Untimed ops that fill caches and finish lazy set-up."""
    if wl.name == "rwa_scan":
        _, t, t_final = inputs[0][0]
        wl.q.rwa_infidelity(wl.q.CouplingTensor(t), 1.0, t_final)
        return
    run = run or wl.run
    for inp in inputs[:ops or WARMUP_OPS[wl.name]]:
        try:
            wl.check(inp, run(inp))
        except Exception:  # noqa: BLE001 - the timed loop counts it again
            pass


def run_probes(wl, seed) -> dict:
    """Each probe once, judged by the oracle."""
    failures = []
    bad = wl.probes(seed)
    for inp in bad:
        try:
            wl.check(inp, wl.run(inp))
        except Exception as exc:  # noqa: BLE001 - the probe's verdict
            label = inp.get("label") or inp["args"][0]
            failures.append(f"{label}: {type(exc).__name__}: {exc}"[:300])
    return {"attempted": len(bad), "failed": len(failures),
            "failures": failures}


def _subprocess_ms(args, env, reps=5) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, check=True,
                       capture_output=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tr: spans.Tracer, n_ops: int) -> dict:
    a = tr.arrays()
    names = tr.names
    # Spans outside any op come from the oracles' own calls (the Weyl
    # idempotence check) and are not workload time.
    in_op = a["op"] >= 0
    by_name = {n: np.flatnonzero((a["name"] == k) & in_op)
               for k, n in enumerate(names)}
    empty = np.array([], dtype=np.int64)

    def idx(n):
        return by_name.get(n, empty)

    def calls(n):
        return len(idx(n)) / n_ops

    def self_us(n):
        return float(a["self"][idx(n)].sum()) * 1e6 / n_ops

    out = {}
    for n in ("qmat.expm_hermitian", "qmat.kron",
              "entangler.canonical_entangler",
              "equivalence.makhlin_invariants", "pulses.rotation_matrix"):
        out[f"{n}.calls"] = calls(n)
        out[f"{n}.self_us"] = self_us(n)
    for n in ("qmat.require_unitary", "qmat.sample_generator",
              "qmat.propagate", "entangler.trajectory",
              "equivalence.kak_decompose", "equivalence.weyl_canonicalize",
              "equivalence.locally_equivalent", "pulses.simulate_schedule",
              "pulses.verify_schedule"):
        out[f"{n}.self_us"] = self_us(n)
    out["qmat.propagate.segments"] = tr.counts["qmat.propagate"] / n_ops
    out["pulses.simulate_schedule.ops"] = (
        tr.counts["pulses.simulate_schedule"] / n_ops)
    out["hamiltonian.rot_frame_matrix.calls"] = calls(
        "hamiltonian.rot_frame_matrix")
    out["compiler.named_gate.calls"] = calls("compiler.named_gate")

    kak = idx("equivalence.kak_decompose")
    out["equivalence.kak_decompose.eigh_per_call"] = (
        tr.eigh_by_span["equivalence.kak_decompose"] / len(kak)
        if len(kak) else 0.0)
    ver = idx("pulses.verify_schedule")
    out["pulses.verify_schedule.pass_ratio"] = (
        sum(bool(tr.tags.get(int(k))) for k in ver) / len(ver)
        if len(ver) else 0.0)

    rwa = idx("hamiltonian.rwa_infidelity")
    for r in workloads.RATIOS:
        tag = f"g{r:.0e}".replace("e-0", "e-")
        durs = [a["dur"][k] * 1e3 for k in rwa if tr.tags.get(int(k)) == tag]
        out[f"hamiltonian.rwa_infidelity.{tag}.p50_ms"] = _p50(durs)

    comp = idx("compiler.compile_cnot")
    for b in BRANCHES:
        durs = [a["dur"][k] * 1e6 for k in comp if tr.tags.get(int(k)) == b]
        out[f"compiler.compile_cnot.{b}.p50_us"] = _p50(durs)
    ver_in_comp = ver[np.isin(a["parent"][ver], comp)]
    comp_time = float(a["dur"][comp].sum())
    out["compiler.verify_share"] = (float(a["dur"][ver_in_comp].sum())
                                    / comp_time if comp_time else 0.0)

    # Self times of every span of every op, root included, must add up to
    # the traced op time; the self-test checks this sum.
    roots = idx(spans.ROOT)
    out["bench.self_sum_frac"] = (float(a["self"][in_op].sum())
                                  / float(a["dur"][roots].sum()))
    return out


def _rwa_tag(args, kwargs, result):
    ratio = float(np.max(np.abs(args[0].j))) / float(args[1])
    return f"g{ratio:.0e}".replace("e-0", "e-")


def make_tracer():
    return spans.Tracer(
        TRACED_MODULES,
        taggers={"compiler.compile_cnot": lambda a, k, r: r.branch,
                 "pulses.verify_schedule": lambda a, k, r: r.passed,
                 "hamiltonian.rwa_infidelity": _rwa_tag},
        counters={"qmat.propagate": lambda a, k: len(a[0].segments),
                  "pulses.simulate_schedule": lambda a, k: len(a[0].ops)})


def cli_metrics(seed, workdir) -> tuple[dict, dict]:
    """The cli layer, measured in every traced run so that it shows on the
    workloads BENCHMARK.json lists: cli_pipeline's commands replayed
    in-process through the click group for CLI_SECONDS, and its probes.
    Returns the metrics and the measurement, whose failures count."""
    cli_wl = workloads.make("cli_pipeline", qgd, workdir)
    inputs = cli_wl.make_inputs(seed)
    warm_up(cli_wl, inputs, cli_wl.run_inprocess, ops=len(inputs))
    m = measure(cli_wl, inputs, CLI_SECONDS, run=cli_wl.run_inprocess)
    tracebacks = sum(workloads.TRACEBACK in cli_wl.run_inprocess(inp)[2]
                     for inp in cli_wl.probes(seed))
    return {"cli.command_ms": statistics.median(m["lat"]) * 1e3,
            "cli.traceback_count": float(tracebacks)}, m


def traced_run(wl, inputs, seconds, seed, out_dir, workdir):
    """Untraced then traced halves of the same loop; returns the per-layer
    metrics and the measurements of both halves and of cli_metrics.
    cli_pipeline replays its commands in-process through the click group
    in both halves."""
    run = wl.run_inprocess if wl.name == "cli_pipeline" else wl.run
    warm_up(wl, inputs, run, ops=len(inputs))
    plain = measure(wl, inputs, seconds / 2, run=run)
    tr = make_tracer()
    if wl.name == "cli_pipeline":
        from qgd import cli
        tr.wrap_attr(cli, "main", "cli.main")
    tr.install()
    try:
        traced = measure(wl, inputs, seconds / 2, run=run, tracer=tr,
                         first_op=plain["next_op"])
    finally:
        tr.uninstall()
    n_ops = traced["attempted"]
    metrics = layer_metrics(tr, n_ops)
    tr.save(os.path.join(out_dir, f"spans-{wl.name}-s{seed}.npz"))

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    interp = _subprocess_ms(["-c", "pass"], env)
    metrics["cli.interpreter_ms"] = interp
    metrics["cli.import_ms"] = _subprocess_ms(["-c", "import qgd.cli"],
                                              env) - interp
    cli, cli_run = cli_metrics(seed, workdir)
    metrics.update(cli)
    metrics["bench.trace_overhead_frac"] = 1.0 - (
        (traced["passed"] / traced["timed_s"])
        / (plain["passed"] / plain["timed_s"]))
    metrics["bench.oracle_err_max"] = max(plain["err_max"], traced["err_max"])
    return metrics, [plain, traced, cli_run]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probes", action="store_true",
                    help="also run the workload's probes once")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    if args.workload == "cli_pipeline":
        importlib.import_module("qgd.cli")  # what every CLI call imports
    os.makedirs(args.out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=args.out_dir)
    try:
        wl = workloads.make(args.workload, qgd, workdir)
        inputs = wl.make_inputs(args.seed)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = {"workload": args.workload, "seed": args.seed}
        if args.trace:
            metrics, runs = traced_run(wl, inputs, args.seconds, args.seed,
                                       args.out_dir, workdir)
            timed = runs[1]
            result["metrics"] = metrics
        else:
            warm_up(wl, inputs)
            m = measure(wl, inputs, args.seconds)
            timed, runs = m, [m]
            result.update({"best": m["best"], "bad": m["bad"],
                           "inputs": len(inputs),
                           "peak_rss_mb": peak_rss_mb()})
            if args.probes:
                result["probes"] = run_probes(wl, args.seed)
        result.update({
            "samples": timed["attempted"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failures": [f for r in runs for f in r["failures"]][:5],
            "oracle_err_max": max(r["err_max"] for r in runs),
        })
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
