"""Run every workload over several seeds and summarise each metric.

    python3 bench/sweep.py --seeds 10 [--first-seed 1] [--trace 1]

Runs every workload in BENCHMARK.json, interleaved (seed by seed, every
workload in turn) so that drift in the machine's speed hits all workloads
alike.  For each workload and
metric it prints the median, the quartiles and the spread (interquartile
distance over the median) next to the bound in BENCHMARK.json, and marks
a spread above a third of its bound with `!`.  Raw results go to
.bench_out/sweep-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = {w: [] for w in names}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or len(lines) < 2:
                print(f"{w} seed {seed}: exit {r.returncode}\n{r.stderr}", file=sys.stderr)
                return 1
            meta, final = json.loads(lines[-2])["meta"], json.loads(lines[-1])
            results[w].append({"meta": meta, **final})
            print(f"{w:14} seed {seed:3}  correct={final['correct']}  "
                  f"{final['attempted']} ops  {time.perf_counter() - t0:5.1f} s wall",
                  file=sys.stderr, flush=True)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"sweep-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(
        json.dumps(results, indent=1))

    print(f"{'workload':14} {'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  unit")
    for w, runs in results.items():
        for key in runs[0]["metrics"]:
            vals = [r["metrics"][key]["value"] for r in runs]
            unit = runs[0]["metrics"][key]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(key)
            flag = "!" if bound is not None and spread > bound / 3 else " "
            print(f"{w:14} {key:40} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound if bound is not None else '':>6}{flag} {unit}")
        bad = [r["meta"]["seed"] for r in runs if not r["correct"]]
        if bad:
            print(f"{w:14} NOT CORRECT on seeds {bad}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
