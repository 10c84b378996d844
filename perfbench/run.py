"""rydswap benchmark: one workload per process, end-to-end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_small --seed 0 --seconds 50 --trace 0

--trace 0 times whole passes with only the evaluation-boundary probe in
place and prints the end-to-end metrics, scaled to a nominal host speed by
the probe in hostspeed.py; --trace 1 alternates traced and untraced passes
and prints the per-layer metrics.  Every run checks the
program's outputs and exits 1 if a check fails.  The last line of standard
output is the JSON result; the line before it ("detail: ...") carries
provenance, sample counts and the workload-specific figures.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported anywhere in this process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
MIN_TRACE_PASSES = 3  # traced, untraced, traced: the counts of two traced passes must repeat

# Bindings each workload must reach, checked in every traced run; a binding
# the library stops calling would otherwise read as zero work.
_EVERY_WORKLOAD = ("rydswap.gates:propagate_matrix", "rydswap.model:HamiltonianEvaluator.__call__",
                   "rydswap.model:envelope_value")
REQUIRED_BINDINGS = {
    "paper_small": _EVERY_WORKLOAD + ("rydswap.tables:run_gate", "rydswap.tables:make_protocol",
                                      "rydswap.gates:run_gate", "rydswap.gates:make_protocol",
                                      "rydswap.analytic:propagate", "rydswap.noise:run_gate",
                                      "rydswap.noise:sample_realization", "rydswap.dynamics:expm"),
    "routing_large": _EVERY_WORKLOAD + ("rydswap.gates:run_gate", "rydswap.dynamics:np.linalg.eigh"),
}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "evals_per_s": "1/s", "eval_p50_s": "s",
    "eval_tail_s": "s", "peak_rss_mb": "MB", "unitary_err": "abs",
}
PER_LAYER_UNITS = {
    "model.h_eval.calls": "count", "model.h_eval.s": "s", "model.h_noisy.s": "s",
    "model.envelope.calls": "count",
    "dynamics.exp.matrices": "count", "dynamics.exp.s": "s", "dynamics.exp.max_dim": "dim",
    "dynamics.exp.flops_computed": "flop",
    "dynamics.propagate.calls": "count", "dynamics.propagate.s": "s", "dynamics.self.s": "s",
    "gates.make_protocol.s": "s", "gates.run_gate.calls": "count", "gates.extract.s": "s",
    "noise.sample.calls": "count", "noise.sample.s": "s",
    "tables.diff.s": "s", "calibration.search.s": "s", "calibration.evals": "count",
    "trace.wall_s": "s", "trace.overhead_frac": "frac", "trace.residual_frac": "frac",
}


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(workload: str) -> list[float]:
    """Import plus protocol construction, each in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(BENCH_DIR)])}
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            fail_setup(f"set-up probe failed:\n{out.stderr}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rydswap").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int, seconds: float, passes: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = out.stdout.strip() or None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    np_blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sp_blas = scipy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": f"{np_blas.get('name')} {np_blas.get('version')}",
        "blas_scipy": f"{sp_blas.get('name')} {sp_blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "seconds": seconds,
        "passes": passes,
    }


def layer_metrics(tr, wall: float) -> dict:
    """Per-pass per-layer figures from one traced pass."""
    t, s, c = tr.total, tr.self_time, tr.calls
    m = {
        "model.h_eval.calls": c["model.h_eval"],
        "model.h_eval.s": t["model.h_eval"],
        "model.h_noisy.s": t["model.h_noisy"],
        "model.envelope.calls": c["model.envelope"],
        "dynamics.exp.matrices": tr.exp_matrices,
        "dynamics.exp.s": t["dynamics.exp"],
        "dynamics.exp.max_dim": tr.exp_max_dim,
        "dynamics.exp.flops_computed": tr.exp_flops,
        "dynamics.propagate.calls": c["dynamics.propagate"],
        "dynamics.propagate.s": t["dynamics.propagate"],
        "dynamics.self.s": s["dynamics.propagate"],
        "gates.make_protocol.s": t["gates.make_protocol"],
        "gates.run_gate.calls": c["gates.run_gate"],
        "gates.extract.s": s["gates.run_gate"],
        "noise.sample.calls": c["noise.sample"],
        "noise.sample.s": t["noise.sample"],
        "tables.diff.s": s["tables"],
        "calibration.search.s": s["calibration"],
        "calibration.evals": tr.calibration_evals,
        "trace.wall_s": wall,
    }
    covered = m["model.h_eval.s"] + m["model.h_noisy.s"] + m["dynamics.exp.s"] + m["dynamics.self.s"] + m["gates.extract.s"]
    m["trace.residual_frac"] = 1.0 - covered / wall
    return m


COUNT_KEYS = ("model.h_eval.calls", "model.envelope.calls", "dynamics.exp.matrices", "dynamics.exp.max_dim",
              "dynamics.exp.flops_computed", "dynamics.propagate.calls", "gates.run_gate.calls",
              "noise.sample.calls", "calibration.evals")


def check_trace(name: str, tr, traced: list[dict]) -> list[str]:
    errors = [f"binding {b} recorded no calls" for b in REQUIRED_BINDINGS[name] if tr.binding_calls[b] == 0]
    for key in COUNT_KEYS:
        values = {m[key] for m in traced}
        if len(values) > 1:
            errors.append(f"{key} differs between traced passes: {sorted(values)}")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=tuple(REQUIRED_BINDINGS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "rydswap" / "__init__.py").is_file():
        fail_setup(f"no library source at {SRC / 'rydswap'}; run from a full checkout")
    reference_path = BENCH_DIR / "reference.npz"
    if not reference_path.is_file():
        fail_setup("reference.npz missing; regenerate it with perfbench/make_reference.py")

    setup_times = measure_setup(args.workload)

    sys.path.insert(0, str(SRC))
    import numpy as np

    import rydswap
    from hostspeed import HostSpeed
    from spans import Tracer
    from workloads import WORKLOADS, CheckFailed, with_resolution

    if not Path(rydswap.__file__).resolve().is_relative_to(SRC):
        fail_setup(f"imported rydswap from {rydswap.__file__}, not from {SRC}")
    reference = dict(np.load(reference_path, allow_pickle=False))

    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    # Warm-up: first-call costs (lazy imports, LAPACK work-space queries)
    # are not part of any pass.
    import rydswap.gates as gates
    gates.run_gate(with_resolution(gates.make_protocol("SWAP", gates.table_params("SWAP")), 25))

    # The host-speed probe runs in end-to-end runs only; its time is taken
    # out of the pass times (evaluation times never include it).
    host = None if args.trace else HostSpeed(wl.PROBE)
    pass_times = {False: [], True: []}  # traced? -> seconds per pass
    traced_layers: list[dict] = []
    # Untraced passes: (start, end, seconds without probe time, evaluations
    # as (layer, seconds, end)); the probe's samples are matched by time.
    untraced_passes: list[tuple] = []
    errors: list[str] = []
    attempted = failed = 0
    last_tracer = None
    start = time.perf_counter()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 0
        tr = Tracer(full=traced, after_eval=host and host.maybe_sample)
        try:
            with tr:
                probe_s = host.spent if host else 0.0
                t0 = time.perf_counter()
                output = wl.run_pass()
                t1 = time.perf_counter()
                dt = t1 - t0 - (host.spent - probe_s if host else 0.0)
            wl.check_pass(output, tr.evals)
        except Exception as exc:
            n = max(1, len(tr.evals))
            attempted += n
            failed += n
            errors.append(str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc())
            break
        attempted += len(tr.evals)
        pass_times[traced].append(dt)
        if traced:
            traced_layers.append(layer_metrics(tr, dt))
            last_tracer = tr
        else:
            evals = list(zip(tr.eval_layers, (e for e, _ in tr.evals), tr.eval_ends))
            untraced_passes.append((t0, t1, dt, evals))
        if host:
            host.sample()
        i += 1
        elapsed = time.perf_counter() - start
        if args.trace and i < MIN_TRACE_PASSES:
            continue
        # Start another pass if at least half of it fits: a run measures
        # --seconds give or take half a pass.
        if elapsed + statistics.median(pass_times[False] or pass_times[True]) / 2 > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not errors and attempted == 0:
        errors.append("no call reached the evaluation boundary; the library's entry points moved")

    extra = {}
    if not errors:
        try:
            extra = wl.finish(reference)
        except Exception as exc:
            errors.append(str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc())
    if args.trace and not errors:
        errors += check_trace(args.workload, last_tracer, traced_layers)

    if errors and not failed:
        failed = attempted  # a final check judges every evaluation of the run
    metrics: dict = {}
    detail: dict = {"workload": args.workload, "trace": args.trace, "errors": errors, **extra}
    if not errors and not args.trace:
        untraced = pass_times[False]
        # Timings at the nominal host speed (hostspeed.py): each evaluation
        # is scaled by the probe samples taken around it, the rest of a pass
        # by those taken during the pass.  Set-up runs in other processes,
        # before the probe, and stays raw.
        walls, evals, raw_gates, gates_s = [], 0, [], []
        for p0, p1, dt, pass_evals in untraced_passes:
            wall = (dt - sum(e for _, e, _ in pass_evals)) * host.factor(p0, p1)
            for layer, e, end in pass_evals:
                e_norm = e * host.factor(end - e, end)
                wall += e_norm
                if layer == "gates.run_gate":
                    raw_gates.append(e)
                    gates_s.append(e_norm)
            walls.append(wall)
            evals += len(pass_evals)
        # The latency quantiles are over gate runs only: the calibration's
        # single-state propagations are a tenth of a gate run's cost, and a
        # quantile that falls where the two kinds meet jumps between them.
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "evals_per_s": evals / sum(walls),
            "eval_p50_s": statistics.median(gates_s),
            "eval_tail_s": statistics.quantiles(gates_s, n=10, method="inclusive")[-1],
            "peak_rss_mb": peak_rss_mb,
            "unitary_err": extra["unitary_err"],
        }
        raw = {
            "wall_s": statistics.median(untraced),
            "evals_per_s": evals / sum(untraced),
            "eval_p50_s": statistics.median(raw_gates),
            "eval_tail_s": statistics.quantiles(raw_gates, n=10, method="inclusive")[-1],
        }
        detail.update(
            evals=evals,
            gate_runs=len(gates_s),
            tail_percentile=90,
            gate_runs_beyond_tail=sum(e > metrics["eval_tail_s"] for e in gates_s),
            host_speed_run=host.factor(),
            host_probe_samples=len(host.samples),
            host_probe_s=host.spent,
            raw=raw,
            pass_times_s=untraced,
            pass_walls_s=walls,
            setup_times_s=setup_times,
        )
    elif not errors:
        metrics = {k: statistics.median(m[k] for m in traced_layers) for k in traced_layers[0]}
        # Each traced pass against the untraced pass right after it: the
        # host's speed drifts over tens of seconds, neighbours share it.
        ratios = [t / u for t, u in zip(pass_times[True], pass_times[False])]
        metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
        detail.update(
            bindings=dict(sorted(last_tracer.binding_calls.items())),
            missing_bindings=last_tracer.missing,
            traced_pass_s=pass_times[True],
            untraced_pass_s=pass_times[False],
        )
    detail["provenance"] = provenance(args.seed, args.seconds, len(pass_times[False]) + len(pass_times[True]))

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for k, v in metrics.items():
        print(f"{args.workload:14s} {k:28s} {v:>14.6g} {units[k]}")
    for k in ("cells_pass", "duration_err_us", "t_swap_us", "mean_fidelity"):
        if k in extra:
            print(f"{args.workload:14s} {k:28s} {extra[k]:>14.6g}")
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print("detail: " + json.dumps(detail, default=float))
    result = {
        "correct": not errors,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
