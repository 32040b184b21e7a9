#!/usr/bin/env python3
"""optoresp benchmark: one workload per process, or all four.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

A run imports the package from ../src, builds the workload's inputs from the
seed and warms it up (together: setup_s), then runs ops one at a time, closed
loop, for S seconds.  Every op output is checked against the references the
tier-1 acceptance criteria use.  Ops cycle over a pool of inputs made from
the seed; inputs the timed loop did not reach are run untimed after it, and
`attempted` and `failed` count distinct inputs, so they depend on the seed
alone.  The human-readable summary comes first; the
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  A traced run measures its first half untraced and
its second half with spans installed, so it reports the tracing overhead;
its spans are written to .bench_out/ at the end.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()   # setup_s counts from here: imports included

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
NAMES = ("mc_reference", "fit_roundtrip", "oracle_check", "cli_readme")
SETUPS = 3              # set-ups per run; setup_s is their median
MAX_THREADS = 1         # BLAS threads: one op at a time on shared cores
RATE_ALLOWED = 0.05     # criterion 8: up to 5 misses per 100
RATE_SIGNIFICANCE = 1e-4
PROBE_REF_S = 3.0e-3    # about the probe's median time on the reference machine

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}
LAYERS = ("bench", "cli", "io", "fitkit", "montecarlo", "meanfield", "tls",
          "digamma", "ensemble", "superconductor", "resonator")
PER_LAYER = (
    "montecarlo.draw_ms", "montecarlo.response_ms", "montecarlo.tls_drawn",
    "montecarlo.kept_frac", "montecarlo.kernel_evals",
    "montecarlo.empty_trials",
    "fitkit.full_s21.ms", "fitkit.full_s21.iterations",
    "fitkit.full_s21.residual_evals", "fitkit.full_s21.pass_frac",
    "fitkit.lorentzian.ms", "fitkit.lorentzian.iterations",
    "fitkit.lorentzian.pass_frac", "fitkit.power.ms", "fitkit.saturation.ms",
    "meanfield.longitudinal.ms", "meanfield.longitudinal.samples",
    "meanfield.transverse.ms", "tls.spectral_diffusion.ms",
    "tls.kramers_kronig.ms",
    "cli.photon_number.ms", "cli.slopes.ms", "cli.slopes_sweep.ms",
    "cli.temp_model.ms", "cli.synth.ms", "cli.fit_spectrum.ms",
    "io.bytes_written",
) + tuple(f"self_ms.{layer}" for layer in LAYERS) + (
    "trace.ops_per_s", "trace.untraced_ops_per_s", "trace.overhead_frac")


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("ms") or name.startswith("self_ms."):
        return "ms"
    if name.endswith("frac"):
        return "1"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print setup_s as JSON and exit")
    return p.parse_args(argv)


# --- statistics -------------------------------------------------------------

def percentile(sorted_vals, q):
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail(latencies):
    """(percentile, value) at the highest percentile with at least ten
    samples beyond it, 100 (1 - 10/n); the median below 20 samples."""
    q = max(100.0 * (1.0 - 10.0 / len(latencies)), 50.0)
    return q, percentile(sorted(latencies), q)


def rate_gate_fails(misses, n):
    """True when `misses` of `n` is improbable (one-sided binomial tail below
    RATE_SIGNIFICANCE) for a miss rate of RATE_ALLOWED."""
    p = RATE_ALLOWED
    tail_p = sum(math.comb(n, j) * p**j * (1 - p)**(n - j)
                 for j in range(misses, n + 1))
    return misses > 0 and tail_p < RATE_SIGNIFICANCE


# --- environment --------------------------------------------------------------

def blas_info(np):
    """(library name and version, thread count) of numpy's BLAS."""
    name = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    try:
        import ctypes
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        for lib in libs.glob("*openblas*"):
            dll = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(dll, sym):
                    threads = getattr(dll, sym)()
                    break
    except OSError:
        pass
    return name, threads


def environment(seed):
    import numpy as np
    import scipy
    import platform
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or sha
    blas, threads = blas_info(np)
    return {"nproc": os.cpu_count(), "cpu": cpu, "blas": blas,
            "blas_threads": threads, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "git_sha": sha, "seed": seed}


# --- one workload -------------------------------------------------------------

class Tally:
    """Op outcomes and check results of one run.

    Ops cycle over a workload's pool of inputs and the package is
    deterministic, so an outcome belongs to an input, not to a visit:
    `attempted` counts the distinct inputs judged and `failed` those whose
    op raised or missed a check.  A run judges its whole pool, so both
    depend on the seed alone, not on how many ops the timed loop fitted in.
    An input whose outcome differs between visits is an error.
    """

    def __init__(self):
        self.ops = 0
        self.outcome = {}             # input key -> missed checks, or raised
        self.errors = []              # exact-check failures and exceptions
        self.rate = {}                # check name -> {input key: ok}
        self.passes = {}              # check name -> [passed, total]

    @property
    def attempted(self):
        return len(self.outcome)

    @property
    def failed(self):
        return sum(bool(missed) for missed in self.outcome.values())

    def record(self, k, key, checks, exc):
        self.ops += 1
        missed = ((f"raised {type(exc).__name__}",) if exc is not None else
                  tuple(c.name for c in checks if not c.ok))
        first = self.outcome.setdefault(key, missed)
        if missed != first:
            self.errors.append(f"op {k}: input {key} gave {missed or 'pass'} "
                               f"after {first or 'pass'}")
        if exc is not None:
            self.errors.append(f"op {k}: {exc!r}")
            return
        for c in checks:
            p = self.passes.setdefault(c.name, [0, 0])
            p[0] += c.ok
            p[1] += 1
            if c.exact:
                if not c.ok:
                    self.errors.append(f"op {k}: {c.name} failed {c.detail}")
            else:
                self.rate.setdefault(c.name, {})[key] = c.ok


def make_probe(np):
    """A fixed piece of interpreter, vector and memory work that times the
    host's current speed.  It runs no package code."""
    vec = np.random.default_rng(0).random(1 << 19)

    def probe():
        t0 = time.perf_counter()
        acc, table = 0, {}
        for j in range(10000):
            table[j & 255] = acc = acc + j * j
        np.tanh(vec).sum()
        np.sort(vec[:100000])
        return time.perf_counter() - t0
    return probe


def run_op(wl, tracer, k):
    """Prepares and runs op k; returns (output, exception, seconds in the
    op).  An op that raises counts as failed."""
    wl.prepare(k)
    tracer.op = k
    exc = out = None
    t0 = time.perf_counter()
    try:
        with tracer.span("op", "bench"):
            out = wl.op(k)
    except Exception as e:
        exc = e
    return out, exc, time.perf_counter() - t0


def judge(wl, k, out, exc, tally):
    tally.record(k, wl.input_key(k), [] if exc else wl.check(k, out), exc)


def timed_loop(wl, tracer, probe, seconds, k, tally):
    """Ops k, k+1, ... until `seconds` have passed; returns (latencies at
    reference speed, raw latencies, next k).  Only the op is timed;
    preparation, checks and the probes run between ops.  Each latency is
    scaled by PROBE_REF_S over the mean of the probes just before and just
    after the op."""
    scaled, raw = [], []
    before = probe()
    deadline = time.perf_counter() + seconds
    while True:
        out, exc, secs = run_op(wl, tracer, k)
        raw.append(secs)
        after = probe()
        scaled.append(raw[-1] * PROBE_REF_S / (0.5 * (before + after)))
        before = after
        judge(wl, k, out, exc, tally)
        k += 1
        if time.perf_counter() >= deadline:
            return scaled, raw, k


def judge_rest(wl, tracer, tally):
    """Runs and judges, untimed, each input the timed loop did not reach."""
    for k in range(wl.POOL):
        if wl.input_key(k) not in tally.outcome:
            out, exc, _ = run_op(wl, tracer, k)
            judge(wl, k, out, exc, tally)


def child_setups(args, n):
    """setup_s of n fresh processes, each importing, synthesizing and
    warming up the same workload."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_workload(args):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(min(MAX_THREADS, os.cpu_count() or 1)))
    if not (ROOT / "src" / "optoresp").is_dir():
        print(f"error: no package source at {ROOT / 'src' / 'optoresp'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    scratch = OUT / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    null = tracing.NullTracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, null, scratch)
    try:
        wl.prepare(workloads.WARM_UP)
        wl.check(workloads.WARM_UP, wl.op(workloads.WARM_UP))
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, wl, tracing, null, setup_s)
    finally:
        wl.close()
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, wl, tracing, null, setup_s):
    import numpy as np
    probe = make_probe(np)
    tally = Tally()
    half = args.seconds / 2 if args.trace else args.seconds
    lat, raw, k = timed_loop(wl, null, probe, half, 0, tally)
    if args.trace:
        tracer = tracing.Tracer()
        wl.tr = tracer
        tally.passes = {}
        with tracer.patched(wl.patches()):
            traced, traced_raw, _ = timed_loop(wl, tracer, probe, half, k,
                                                tally)
        wl.tr = null
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    judge_rest(wl, null, tally)
    run_checks = wl.finish()
    errors = list(tally.errors)
    errors += [f"{c.name} failed {c.detail}" for c in run_checks if not c.ok]
    for name, keyed in tally.rate.items():
        misses = sum(not ok for ok in keyed.values())
        if rate_gate_fails(misses, len(keyed)):
            errors.append(f"{name}: {misses} misses in {len(keyed)} inputs is "
                          f"beyond a {RATE_ALLOWED:.0%} miss rate")

    setups = [setup_s] + child_setups(args, SETUPS - 1)
    q, tail_s = tail(lat)
    e2e = {"setup_s": statistics.median(setups),
           "ops_per_s": len(lat) / sum(lat),
           "op_p50_ms": 1e3 * statistics.median(lat),
           "op_tail_ms": 1e3 * tail_s,
           "peak_rss_mb": peak_rss_mb}
    env = environment(args.seed)

    print(f"workload {wl.name}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, closed loop, one op at a time")
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  setup_s      {e2e['setup_s']:10.4f} s    median of "
          + ", ".join(f"{s:.3f}" for s in setups))
    print(f"  ops_per_s    {e2e['ops_per_s']:10.4f} 1/s  {len(lat)} timed ops, "
          f"{sum(raw):.2f} s of op time")
    print(f"  op_p50_ms    {e2e['op_p50_ms']:10.3f} ms   as measured: "
          f"{1e3 * statistics.median(raw):.3f} ms; host at "
          f"{statistics.median(r / s for r, s in zip(raw, lat)):.3f}x the "
          f"reference probe time")
    print(f"  op_tail_ms   {e2e['op_tail_ms']:10.3f} ms   p{q:.1f} of n={len(lat)} "
          f"({len(lat) * (1 - q / 100):.1f} samples beyond)")
    print(f"  failed_frac  {tally.failed / tally.attempted:10.4f} 1    "
          f"{tally.failed} of {tally.attempted} distinct inputs "
          f"({tally.ops} ops judged)")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:10.1f} MB")
    for name, keyed in sorted(tally.rate.items()):
        misses = sum(not ok for ok in keyed.values())
        print(f"  rate check {name}: {misses} misses in {len(keyed)} inputs")
    for line in wl.notes():
        print(f"  {line}")
    for err in errors[:10]:
        print(f"  ERROR {err}")

    metrics = e2e
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.write(path)
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(wl.layer_metrics(tracer, tally.passes))
        for name, secs in tracer.self_time_by_layer().items():
            metrics[f"self_ms.{name}"] = 1e3 * secs / len(traced)
        # layer times at reference speed, like the op latencies
        speed = statistics.median(s / r for s, r in zip(traced, traced_raw))
        for name in metrics:
            if unit_of(name) == "ms":
                metrics[name] *= speed
        metrics["trace.ops_per_s"] = len(traced) / sum(traced)
        metrics["trace.untraced_ops_per_s"] = e2e["ops_per_s"]
        metrics["trace.overhead_frac"] = (
            1.0 - metrics["trace.ops_per_s"] / e2e["ops_per_s"])
        print(f"  traced: {len(tracer.spans)} spans written to {path}")
        for name in PER_LAYER:
            if metrics[name]:
                print(f"  {name:34s} {metrics[name]:14.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": not errors, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)}
                    for n, v in metrics.items()}}))
    return 0


# --- all workloads ------------------------------------------------------------

def run_all(args):
    """Each workload in its own process, so peak_rss_mb is its own."""
    results, status = {}, 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed:\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
