"""One pass of one benchmark workload, run in a fresh process.

Usage (normally started by ``run.py``, one process per pass):

    python3 perfbench/workloads.py --workload bns_hedge --seed 71 \
        --trace 0 --spawned-at <time.monotonic() of the parent> [--scale tiny]

The pass imports ``mvhedge`` from the checkout's ``src``, builds the
workload inputs from the seed, runs the pipeline through the public API
and checks the answer against a closed form or an independent oracle.
It prints one JSON object: set-up and pass seconds, peak RSS, the
checked values, the headline estimate with its standard error, and,
when traced, the per-layer metrics.
"""

import argparse
import json
import math
import os
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Sizes per scale.  "full" is the benchmark; "tiny" only proves in the
# self-test that every workload, metric and check runs.  bs_replicate
# keeps its full fit in both: with fewer fit paths the replication error
# exceeds its budget (1.29 against 0.63 at 8k fit paths and dt = 0.01),
# so a smaller fit would not pass its check.
SCALES = {
    "full": {
        "bns_hedge": {"horizon": 5.0, "step": 0.01, "n_paths": 2000, "n_oracle": 20000, "chunk": 9000},
        "bns_density": {"horizon": 5.0, "step": 0.01, "n_paths": 20000, "chunk": 10000},
        "bs_replicate": {"step": 5e-3, "n_fit": 40000, "n_hedge": 20000, "chunk": 10000},
        "surface": {"curve_t_max": 40.0, "probe_inner": 500},
    },
    "tiny": {
        "bns_hedge": {"horizon": 1.0, "step": 0.02, "n_paths": 400, "n_oracle": 2000, "chunk": 800},
        "bns_density": {"horizon": 1.0, "step": 0.02, "n_paths": 2000, "chunk": 1000},
        "bs_replicate": {"step": 5e-3, "n_fit": 40000, "n_hedge": 2000, "chunk": 1000},
        "surface": {"curve_t_max": 4.0, "probe_inner": 200},
    },
}


def bs_call_price(s, k, r, sig, t_end):
    d1 = (math.log(s / k) + (r + 0.5 * sig * sig) * t_end) / (sig * math.sqrt(t_end))
    d2 = d1 - sig * math.sqrt(t_end)
    cdf = lambda x: 0.5 * (1 + math.erf(x / math.sqrt(2)))  # noqa: E731
    return s * cdf(d1) - k * math.exp(-r * t_end) * cdf(d2)


class Inputs:
    """The models, grids and payoffs a workload needs, built from its seed."""

    def __init__(self, workload, seed, size):
        from mvhedge import bsde, levy, market, ngou

        self.workload = workload
        self.seed = seed
        self.size = size
        self.ou = ngou.OUParams([1.0], [10.0])
        self.cpe = levy.CompoundPoissonExp(10.0, 8.0, 1.0)
        self.bns = market.BNS(0.5, 0.02, rate=0.0)
        self.no_jumps = levy.TableMeasure(())
        if workload in ("bns_hedge", "bns_density"):
            self.grid = market.GridConfig(size["horizon"], size["step"])
            self.claim = bsde.ConstantPayoff(3e4)
            self.endowment = 1e4
        elif workload == "bs_replicate":
            self.model = market.ConstantBS(0.1, 0.2, rate=0.0)
            self.grid = market.GridConfig(1.0, size["step"])
            self.call = bsde.DiscountedCall(100.0)
            self.price = bs_call_price(100.0, 100.0, 0.0, 0.2, 1.0)
        elif workload == "surface":
            self.probes = []
            for t in (0.0, 0.2, 0.4, 0.6, 0.8):
                env = 10.0 * math.exp(-t)
                self.probes += [(t, env + 0.3), (t, env * 1.3), (t, max(10.0, env + 0.5)),
                                (t, 13.0), (t, 16.0)]
            self.out_dir = ROOT / "perfbench" / "out" / f"figure-{os.getpid()}"
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self.config_path = self.out_dir / "config.json"
            self.config_path.write_text(json.dumps({
                "grid": {"horizon": size["curve_t_max"]},
                "figure": {"simulate_errors": False},
            }))
        else:
            raise ValueError(f"unknown workload {workload!r}")


def finite(*values):
    return all(math.isfinite(v) for v in values)


def run_bns_hedge(x):
    """Criterion 7 at a short horizon: surface, backward solve, oracle, hedge.

    The oracle averages over the fit bundle and streamed chunks of a
    second seed, ``n_oracle`` paths in all.  Its standard error is the
    headline: on the 2000 fit paths alone the squared relative se of
    the density-weighted value varies by +-20 % between seeds, and the
    hedge MSE's se, carried by a few paths, by a factor of two.
    """
    import itertools

    from mvhedge import bsde, hedge, market
    from mvhedge import opportunity as opp

    surf = opp.solve_opportunity_ipde(x.bns, x.ou, x.cpe, x.grid.horizon)
    n_fit = x.size["n_paths"]
    bundle = market.simulate_paths(x.bns, x.ou, [x.cpe], [100.0], x.grid, n_fit, x.seed)
    sol = bsde.solve_backward(bundle, surf, x.claim)
    rep = hedge.run_hedge(bundle, surf, sol, x.claim, x.endowment)
    extra = market.iter_path_chunks(x.bns, x.ou, [x.cpe], [100.0], x.grid,
                                    x.size["n_oracle"] - n_fit, x.seed + 1, x.size["chunk"])
    oracle, se_oracle = bsde.mc_value_at_zero(surf, itertools.chain([bundle], extra), x.claim)
    closed = rep.comparators["hedging_error"]
    checks = {
        "v0": sol.value_at_zero, "se0": sol.se_at_zero,
        "oracle": oracle, "se_oracle": se_oracle,
        "mse": rep.mse, "se_mse": rep.se_mse, "closed_form": closed,
    }
    ok = (finite(*checks.values())
          and abs(rep.mse - closed) <= 4 * rep.se_mse
          and abs(sol.value_at_zero - oracle) <= 4 * (sol.se_at_zero + se_oracle))
    return ok, checks, (oracle, se_oracle)


def run_bns_density(x):
    """Criterion 3, jump half: streamed chunks, terminal density mean."""
    from mvhedge import market
    from mvhedge import opportunity as opp

    surf = opp.solve_opportunity_ipde(x.bns, x.ou, x.cpe, x.grid.horizon)
    total = total_sq = count = 0.0
    for chunk in market.iter_path_chunks(x.bns, x.ou, [x.cpe], [100.0], x.grid,
                                         x.size["n_paths"], x.seed, x.size["chunk"]):
        zt = opp.density_terminal(surf, chunk)
        total += float(zt.sum())
        total_sq += float((zt**2).sum())
        count += zt.size
    mean = total / count
    se = math.sqrt(max(total_sq / count - mean**2, 0.0) / count)
    checks = {"density_mean": mean, "density_se": se}
    ok = finite(mean, se) and abs(mean - 1.0) <= 4 * se
    return ok, checks, (mean, se)


def run_bs_replicate(x):
    """Criterion 8, scaled: fit on one seed, hedge streamed chunks of another."""
    from mvhedge import bsde, hedge, market
    from mvhedge import opportunity as opp

    surf = opp.make_surface(x.model, x.ou, [x.no_jumps], 1.0)
    fit = market.simulate_paths(x.model, x.ou, [x.no_jumps], [100.0], x.grid, x.size["n_fit"], x.seed)
    sol = bsde.solve_backward(fit, surf, x.call)
    del fit
    chunks = market.iter_path_chunks(x.model, x.ou, [x.no_jumps], [100.0], x.grid,
                                     x.size["n_hedge"], x.seed + 1, x.size["chunk"])
    rep = hedge.run_hedge(chunks, surf, sol, x.call, x.price)
    budget = 0.01 * x.price**2
    checks = {
        "v0": sol.value_at_zero, "se0": sol.se_at_zero, "closed_form": x.price,
        "mse": rep.mse, "se_mse": rep.se_mse, "mse_budget": budget,
    }
    ok = (finite(*checks.values())
          and rep.mse < budget
          and abs(sol.value_at_zero - x.price) <= 3 * sol.se_at_zero)
    return ok, checks, (sol.value_at_zero, sol.se_at_zero)


def run_surface(x):
    """Both surface evaluators: the figure-3 curve via the CLI, then the
    criterion-4 Monte Carlo probes against a T = 1 grid solve."""
    from mvhedge import cli
    from mvhedge import opportunity as opp

    code = cli.main(["figure", "3", "--config", str(x.config_path), "--outdir", str(x.out_dir)])
    with open(x.out_dir / "figure3.csv") as f:
        header = f.readline().strip().split(",")
        rows = [dict(zip(header, map(float, line.split(",")))) for line in f]
    # hedging_error = P0 (p - v)^2 with the preset's p = 3e4, v = 1e4
    p0 = [r["hedging_error"] / (3e4 - 1e4) ** 2 for r in rows]
    curve_ok = (code == 0 and len(p0) == 20 and all(0.0 < p < 1.0 for p in p0)
                and all(a > b for a, b in zip(p0, p0[1:])))

    surf = opp.solve_opportunity_ipde(x.bns, x.ou, x.cpe, 1.0)
    inside = 0
    worst = 0.0
    ests, ses = [], []
    for i, (t, yv) in enumerate(x.probes):
        est, se = opp.estimate_opportunity_mc(x.bns, x.ou, [x.cpe], t, [yv], 1.0,
                                              x.size["probe_inner"], (x.seed, i))
        band = 4 * se + 1e-4
        diff = abs(surf.value(t, yv) - est)
        worst = max(worst, diff / band)
        inside += diff <= band
        ests.append(est)
        ses.append(se)
    checks = {
        "p0_first": p0[0] if p0 else float("nan"),
        "p0_last": p0[-1] if p0 else float("nan"),
        "probes_inside": inside, "probe_worst_ratio": worst,
    }
    ok = curve_ok and inside == len(x.probes) and finite(*checks.values())
    # headline: the mean of the probe estimates, with its standard error
    mean = sum(ests) / len(ests)
    se = math.sqrt(sum(s * s for s in ses)) / len(ses)
    return ok, checks, (mean, se)


RUNNERS = {
    "bns_hedge": run_bns_hedge,
    "bns_density": run_bns_density,
    "bs_replicate": run_bs_replicate,
    "surface": run_surface,
}


def environment(blas_threads):
    import numpy as np

    from mvhedge import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "numba_enabled": _kernels.numba_enabled(),
    }


def timed_pass(args, inputs):
    """Run the pipeline once; a pass that raises counts as failed."""
    import resource

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()
    start = time.perf_counter()
    error = None
    try:
        ok, checks, headline = RUNNERS[args.workload](inputs)
    except Exception:
        ok, checks, headline = False, {}, None
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start
    result = {
        "ok": bool(ok),
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks,
        "headline": headline,
        "error": error,
        "env": environment(int(os.environ.get("OPENBLAS_NUM_THREADS", 0))),
    }
    if tracer is not None:
        tracer.remove()
        result["layers"] = tracer.layer_metrics(wall_s)
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up; gives one more set-up sample")
    args = ap.parse_args(argv)

    import warnings

    import mvhedge

    if Path(mvhedge.__file__).resolve().parent != ROOT / "src" / "mvhedge":
        raise SystemExit(f"mvhedge imported from {mvhedge.__file__}, not from this checkout")
    # the backward solver reports collinear columns as a warning; the
    # traced run counts them as bsde.rank_deficient_share instead
    warnings.filterwarnings("ignore", message="collinear basis columns")
    inputs = Inputs(args.workload, args.seed, SCALES[args.scale][args.workload])
    try:
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s} if args.setup_only else dict(timed_pass(args, inputs), setup_s=setup_s)
    finally:
        if args.workload == "surface":
            import shutil

            shutil.rmtree(inputs.out_dir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
