"""mvhedge benchmark: one command, four pipeline workloads, checked answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bns_hedge --seed 71 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 71      # every workload in turn

Each pass of a workload runs in a fresh process (``workloads.py``) and
is checked against a closed form or an independent oracle.  Passes
repeat on the same seed-derived inputs until ``--seconds`` have gone by
(at least ``MIN_PASSES``).  With ``--trace 0`` the end-to-end metrics
are the medians over the passes; with ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics come from the traced ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric's median, quartiles and pass count, the checked
values and the run environment.  A full record of the run, and the
spans of traced passes, go to ``perfbench/out/``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import EXACT, LAYER_UNITS  # noqa: E402
from workloads import RUNNERS, SCALES  # noqa: E402

MIN_PASSES = 2
# set-up is short and noisy, so extra set-up-only processes top the
# samples up to this count after the timed passes
SETUP_SAMPLES = 7
# a run ends within this many seconds even if a pass hangs
RUN_LIMIT_S = 165
# One BLAS thread per pass: the regressions are tall and thin, and a
# single thread keeps pass times steady on a shared two-core machine.
BLAS_THREADS = 1

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cost_to_1pct_s": "s"}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_pass(deadline, workload, seed, scale, *extra):
    """Run one pass process and return its JSON result; kill it at ``deadline``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale, *extra, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"pass killed at the {RUN_LIMIT_S} s run limit"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}"}
    return json.loads(lines[-1])


def end_to_end(passes, setups):
    """Median, quartiles and count of each end-to-end metric over passes."""
    timed = [p for p in passes if "wall_s" in p]
    series = {name: [p[name] for p in timed] for name in ("wall_s", "peak_rss_mb")}
    series["setup_s"] = setups
    # time x variance: the seconds this pass would need for a 1 % standard error
    series["cost_to_1pct_s"] = []
    for p in timed:
        est, se = p["headline"] or (0.0, 0.0)
        if est and math.isfinite(est) and math.isfinite(se):
            series["cost_to_1pct_s"].append(p["wall_s"] * (se / (0.01 * abs(est))) ** 2)
    return {name: quartiles(vals) + (len(vals),) for name, vals in series.items() if vals}


def layer_summary(untraced, traced):
    """Median of each per-layer metric over traced passes, the tracing
    overhead, and whether the exact counts repeated on every pass."""
    rows = [p["layers"] for p in traced if "layers" in p]
    walls_u = [p["wall_s"] for p in untraced if "wall_s" in p]
    if not rows or not walls_u:
        return {}, False
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    walls_t = [p["wall_s"] for p in traced if "layers" in p]
    out["trace.overhead_s"] = statistics.median(walls_t) - statistics.median(walls_u)
    repeat = all(r[name] == rows[0][name] for r in rows for name in EXACT & rows[0].keys())
    return out, repeat


def run_workload(workload, seed, seconds, trace, scale):
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    untraced, traced = [], []
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    while time.monotonic() < deadline:
        n = len(untraced) + len(traced)
        if n >= MIN_PASSES and time.monotonic() - start >= seconds:
            break
        if trace and n % 2 == 1:
            spans = OUT / f"{tag}-pass{n}.spans.jsonl"
            traced.append(run_pass(deadline, workload, seed, scale,
                                   "--trace", "1", "--spans-out", str(spans)))
        else:
            untraced.append(run_pass(deadline, workload, seed, scale))
    setups = [p["setup_s"] for p in untraced if "setup_s" in p]
    while setups and len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
        extra = run_pass(deadline, workload, seed, scale, "--setup-only")
        if "setup_s" not in extra:
            break
        setups.append(extra["setup_s"])
    passes = untraced + traced
    failed = sum(not p.get("ok") for p in passes)
    layers, repeat = layer_summary(untraced, traced) if trace else ({}, True)
    record = {
        "workload": workload, "seed": seed, "trace": trace, "scale": scale,
        "passes": passes, "failed": failed,
        "end_to_end": end_to_end(untraced, setups),
        "layers": layers, "counts_repeat": repeat,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return record


def report(record):
    """Human-readable lines; the caller prints the JSON result after them."""
    passes = record["passes"]
    first = next((p for p in passes if "env" in p), {})
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"passes {len(passes)}")
    print("env " + json.dumps(dict(first.get("env", {}), seed=record["seed"])))
    for i, p in enumerate(passes):
        status = "ok" if p.get("ok") else "FAILED"
        print(f"pass {i} {status} wall_s {p.get('wall_s', float('nan')):.4f} "
              f"checks {json.dumps(p.get('checks', {}))}")
        if p.get("error"):
            print(p["error"], file=sys.stderr)
    for name, (q1, med, q3, n) in record["end_to_end"].items():
        print(f"metric {name:16s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} n {n} "
              f"{END_TO_END_UNITS[name]}")
    print(f"metric {'failed_share':16s} {record['failed'] / len(passes):.6g} "
          f"({record['failed']}/{len(passes)}) ratio")
    for name, value in record["layers"].items():
        print(f"layer {name:44s} {value:.6g} {LAYER_UNITS[name]}")
    if record["trace"]:
        print(f"counts repeat exactly on every traced pass: {record['counts_repeat']}")


def result_line(record):
    if record["trace"]:
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in record["layers"].items()}
    else:
        metrics = {name: {"value": stats[1], "unit": END_TO_END_UNITS[name]}
                   for name, stats in record["end_to_end"].items()}
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": len(record["passes"]),
        "failed": record["failed"],
        "metrics": metrics,
    })


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS) + ["all"])
    ap.add_argument("--seed", type=int, default=71)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mvhedge" / "__init__.py").is_file():
        print(f"no mvhedge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(RUNNERS) if args.workload == "all" else [args.workload]
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace, args.scale)
        report(record)
        wanted = LAYER_UNITS if args.trace else END_TO_END_UNITS
        missing = set(wanted) - set(record["layers"] if args.trace else record["end_to_end"])
        if missing:
            print(f"{name}: no value for {sorted(missing)}", file=sys.stderr)
            return 1
        print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
