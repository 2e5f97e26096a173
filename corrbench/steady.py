"""Run every workload many times and report the spread of each metric.

    python3 corrbench/steady.py --runs 10 [--first-seed 1]

Run from the checkout root.  Each run is a fresh, untraced
`corrbench/run.py` process with its own seed, at BENCHMARK.json's
run_seconds; workloads are interleaved seed by seed so a drift in the
host's speed reaches all of them alike.  For every
end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(n=4) gives them), the spread (q3 - q1) / median and
that spread as a share of the bound in BENCHMARK.json, plus the failed
share of operations.  The raw results go to corrbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    results = {w: [] for w in names}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            detail = json.loads((HERE / "out" / w / "run.json").read_text())
            res["op_s"] = {op: statistics.median(t) for op, t in detail["op_s"].items()}
            results[w].append(res)
            print(f"{w:13s} seed {seed:3d}  " + "  ".join(
                f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()), flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print()
    print(f"{'workload':13s} {'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>8s} {'/bound':>7s} {'failed':>8s} correct")
    for w, runs in results.items():
        failed = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            share = f"{spread / bound:7.2f}" if bound else f"{'':7s}"
            print(f"{w:13s} {name:14s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:8.4f} {share} "
                  f"{','.join(f'{x:.4f}' for x in failed):>8s} {correct}")
    out = HERE / "out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
