#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --workloads mc_reference,cli_readme \\
        --seeds 0-9 --seconds 15 [--trace 1] [--out sweep.json]

Each (workload, seed) is one `run.py` process, run one after another.  For
every metric the summary gives the median and quartiles over the seeds
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median,
next to the metric's bound in BENCHMARK.json.  Use it to check that the
benchmark is steady and to record baselines.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def bounds():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write raw runs and summary")
    args = p.parse_args(argv)

    runs, env = [], None
    for name in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            res = json.loads(lines[-1])
            env = env or next((ln.strip()[5:] for ln in lines
                               if ln.strip().startswith("env: ")), None)
            runs.append({"workload": name, "seed": seed, **res})
            vals = " ".join(f"{k}={v['value']:.5g}"
                            for k, v in res["metrics"].items() if v["value"])
            print(f"{name} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {vals}",
                  flush=True)

    bound = bounds()
    summary = {}
    for name in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == name]
        summary[name] = {
            "correct": all(r["correct"] for r in mine),
            "failed_frac": sum(r["failed"] for r in mine)
                           / sum(r["attempted"] for r in mine)}
        print(f"\n{name}: {len(mine)} runs, all correct: "
              f"{summary[name]['correct']}, failed_frac "
              f"{summary[name]['failed_frac']:.4f}")
        for metric in mine[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in mine]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": spread}
            b = bound.get(metric)
            flag = ""
            if b is not None and metric != "setup_s":
                flag = "ok" if spread < b / 3 else (
                    "within bound" if spread <= b else "TOO WIDE")
            print(f"  {metric:34s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.2%}  "
                  f"bound {b if b is not None else '-'} {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": args.seconds, "trace": args.trace, "env": env,
             "runs": runs,
             "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
