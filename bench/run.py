"""Benchmark of operadlab: one workload, one seed, a fixed time budget.

    python3 bench/run.py --workload results_table --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a source checkout; the package is imported
from the checkout's `src/`.  With `--trace 0` the last line of standard
output is one JSON object with the end-to-end metrics; with `--trace 1`
it holds the per-layer metrics of a traced run instead.  The line before
it is run metadata (`{"meta": ...}`).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import REF_S, TICK_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 15
WINDOW = 10         # calibration samples that make one speed estimate
perf, cpu = time.perf_counter, time.process_time

# Layers whose traced names each workload must reach; every traced name of
# any other layer must read 0 calls.  NOT_REACHED lists names of a used
# layer that the workload never calls, so those must read 0 as well.
LAYERS_USED = {
    "results_table": {"scalar", "free3", "presentation", "checkers", "rep"},
    "full_tower": {"scalar", "free3", "presentation", "checkers"},
    "star_product": {"scalar", "quantize"},
    "multimap": {"mlab"},
}
NOT_REACHED = {
    "results_table": {"presentation.Presentation.specialize",
                      "checkers.check_substitution_iso"},
    "full_tower": {"checkers.hopf_analyze", "checkers.BPoly.mul"},
    "star_product": {"scalar.Scalar.inverse", "scalar.pgcd"},
    "multimap": set(),
}


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _child_run(cmd, timeout):
    """Run a fresh process to its end, with calibration samples taken on
    the same CPU before, during (every TICK_S) and after it.  Returns its
    return code, standard output, CPU seconds, and the CPU seconds scaled
    to the reference speed of those samples."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    refs = [calibrate() for _ in range(3)]
    c0, deadline = _children_cpu(), perf() + timeout
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        while True:
            try:
                out, _ = proc.communicate(timeout=TICK_S)
                break
            except subprocess.TimeoutExpired:
                if perf() > deadline:
                    proc.kill()
                    proc.communicate()
                    raise
                refs.append(calibrate())
    cpu_s = _children_cpu() - c0
    refs += [calibrate() for _ in range(3)]
    return proc.returncode, out, cpu_s, cpu_s * REF_S / statistics.median(refs)


def setup_sample():
    """Time of a fresh interpreter that imports the CLI: (CPU, scaled)."""
    code, _, cpu_s, scaled = _child_run(
        [sys.executable, "-c", "import operadlab.cli"], timeout=60)
    if code != 0:
        raise RuntimeError(f"importing operadlab.cli exited with code {code}")
    return cpu_s, scaled


def cold_sample(wl):
    """Time of a fresh `python -m operadlab.cli` process that runs the
    workload's command, (CPU, scaled), and whether its JSON output is
    correct."""
    cmd = [sys.executable, "-m", "operadlab.cli", *wl.cold_command(OUT)]
    code, out, cpu_s, scaled = _child_run(cmd, timeout=150)
    try:
        ok = code == 0 and wl.check_cold(json.loads(out))
    except (ValueError, KeyError):
        ok = False
    return cpu_s, scaled, ok


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                       text=True)
    return r.stdout.strip() or None


def measure(wl, log, seconds):
    """Untraced run: rounds of (set-up sample, cold sample, pass), at least
    two, and more while the next pass fits before the deadline.  A round
    takes a cold sample only while cold samples stay within 40 % of the
    budget and the pass after it still fits.  Set-up samples are topped up
    to SETUP_SAMPLES at the end.  Returns the op index range and wall time
    of every pass, and the (CPU, scaled) set-up and cold samples."""
    deadline = perf() + seconds
    bounds, walls, setups, colds = [], [], [], []
    cold_bad = 0
    while len(walls) < 2 or perf() + walls[-1] <= deadline:
        setups.append(setup_sample())
        spent = sum(c[0] for c in colds)
        if not colds or (spent + colds[-1][0] <= 0.4 * seconds
                         and perf() + colds[-1][0] + walls[-1] <= deadline):
            cpu_s, scaled, ok = cold_sample(wl)
            colds.append((cpu_s, scaled))
            cold_bad += not ok
        log.outputs = []
        first = len(log.lat_ms)
        t0 = perf()
        run_pass(wl, log)
        walls.append(perf() - t0)
        bounds.append((first, len(log.lat_ms)))
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    return bounds, walls, setups, colds, cold_bad


def scaled_op_ms(log):
    """Each op's latency at the reference speed.  The speed is the median of
    the calibration samples taken during the op if it ran long enough to
    get three, else of the WINDOW samples around it: those taken just
    before it and just after it (before the ops that follow)."""
    refs, half, out = log.refs, WINDOW // 2, []
    for i, (ms, (a, b)) in enumerate(zip(log.lat_ms, log.inner_at)):
        cal = log.inner[a:b] if b - a >= 3 else refs[max(0, i + 1 - half): i + 1 + half]
        out.append(ms * REF_S / statistics.median(cal))
    return out


def run_pass(wl, log):
    """One untraced pass with a calibration sample every TICK_S during
    each op; the timer is off outside passes, while fresh processes run."""
    signal.signal(signal.SIGALRM, lambda *_: log.tick())
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        wl.run_pass(log)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def per_op_median(lat_ms, bounds):
    """Each op's latency: the median over the passes of the run.  Every
    pass runs the same op list, so the percentiles of these values are
    taken at the same op whatever the number of passes; those of the raw
    latencies are not, and multimap's p90 falls on the step between its
    seven heaviest trials and the rest."""
    n = min(b - a for a, b in bounds)   # a failed op cuts its pass short
    return [statistics.median(lat_ms[a + i] for a, _ in bounds) for i in range(n)]


def measure_traced(wl, log, tracer, seconds):
    """Traced run: rounds of (untraced pass, traced pass), while the next
    round fits before the deadline.  Returns both passes' CPU times and
    whether every traced pass gave the same outputs as the untraced pass
    before it."""
    deadline = perf() + seconds
    plain, traced = [], []
    same = True
    round_s = 0.0
    while not plain or perf() + round_s <= deadline:
        t_round = perf()
        log.outputs = []
        t0 = cpu()
        wl.run_pass(log)
        plain.append(cpu() - t0)
        untraced_out = log.outputs
        log.outputs = []
        log.tracer = tracer
        tracer.install()
        t0 = cpu()
        try:
            wl.run_pass(log)
        finally:
            traced.append(cpu() - t0)
            tracer.uninstall()
            log.tracer = None
        same = same and log.outputs == untraced_out
        round_s = perf() - t_round
    return plain, traced, same


def selftest(workload, layer_metrics):
    """Names whose call count contradicts the layer table."""
    bad = []
    for key, (value, _) in layer_metrics.items():
        if not key.endswith(".calls"):
            continue
        name = key[: -len(".calls")]
        must_run = (name.split(".")[0] in LAYERS_USED[workload]
                    and name not in NOT_REACHED[workload])
        if (value > 0) != must_run:
            bad.append(f"{key}={value}")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "operadlab" / "__init__.py").is_file():
        print(f"error: no operadlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import operadlab
    from tracer import Tracer
    from workloads import WORKLOADS, OpLog

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # One CPU for this process and the processes it starts, so that the
    # calibration samples time the CPU the measured work runs on.
    cpu_id = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu_id})
    except OSError:
        cpu_id = None
    wl = WORKLOADS[args.workload](args.seed)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu_id,
        "inputs_sha": wl.inputs_sha,
    }
    correct = True
    if args.trace:
        log = OpLog()
        tracer = Tracer(operadlab)
        plain, traced, same = measure_traced(wl, log, tracer, args.seconds)
        layer = tracer.metrics(passes=len(traced))
        bad = selftest(args.workload, layer)
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        spans_file = OUT / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}))
        correct = same and not bad
        meta.update(passes=len(traced), untraced_pass_s=plain, traced_pass_s=traced,
                    tracing_overhead_s=overhead, outputs_identical=same,
                    selftest_failures=bad, spans_file=str(spans_file.relative_to(ROOT)))
    else:
        log = OpLog(calibrate)
        bounds, walls, setups, colds, cold_bad = measure(wl, log, args.seconds)
        scaled = scaled_op_ms(log)
        passes = [sum(scaled[a:b]) / 1e3 for a, b in bounds]
        op_ms = per_op_median(scaled, bounds)
        deciles = statistics.quantiles(op_ms, n=10)
        metrics = {
            "pass_s": {"value": statistics.median(passes), "unit": "s"},
            "op_ms.p50": {"value": statistics.median(op_ms), "unit": "ms"},
            "op_ms.p90": {"value": deciles[8], "unit": "ms"},
            "cold_s": {"value": statistics.median(c[1] for c in colds), "unit": "s"},
            "setup_s": {"value": statistics.median(s[1] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
        log.attempted += len(colds)
        log.failed += cold_bad
        if cold_bad:
            log.errors.append(f"{cold_bad} cold CLI run(s) gave a wrong output")
        raw = per_op_median(log.lat_ms, bounds)
        meta.update(
            passes=len(bounds), ops_per_pass=bounds[0][1] - bounds[0][0],
            op_samples=len(log.lat_ms), pass_s=passes, pass_wall_s=walls,
            raw_pass_s=[sum(log.lat_ms[a:b]) / 1e3 for a, b in bounds],
            raw_op_ms_p50=statistics.median(raw),
            raw_op_ms_p90=statistics.quantiles(raw, n=10)[8],
            raw_cold_s=statistics.median(c[0] for c in colds),
            raw_setup_s=statistics.median(s[0] for s in setups),
            setup_s=setups, cold_s=colds,
            calibration_s=[statistics.median(log.refs[a:b]) for a, b in bounds])
    meta.update(error_rate=log.failed / log.attempted, errors=log.errors)
    correct = correct and log.failed == 0
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": log.attempted,
                      "failed": log.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
