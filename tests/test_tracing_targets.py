"""The benchmark's tracer rebinds names under ``src/``; each must still exist.

``perfbench/tracing.py`` replaces every ``(owner, attr)`` of ``targets()``
by looking it up in ``owner.__dict__``, so a rename under ``src/`` breaks
every traced benchmark pass.  These tests never change that file: they
run it, install its tracer on a tiny pipeline and remove it again.
"""

from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """The namespace of ``perfbench/tracing.py``, run as a script."""
    tracing = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing)
    return tracing


def test_every_traced_name_exists():
    tracing = load_tracing()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in tracing["targets"]()
               if attr not in owner.__dict__]
    assert not missing


def test_tracer_hooks_count_a_tiny_pipeline():
    # every hook reads the library's results: a change that breaks one
    # fails here, and not only in the benchmark's own self-test
    from mvhedge import bsde, hedge, levy, market, ngou, opportunity as opp

    tracing = load_tracing()
    model, ou, cpe = market.BNS(0.5, 0.02), ngou.OUParams([1.0], [10.0]), levy.CompoundPoissonExp(10.0, 8.0)
    pay = bsde.DiscountedCall(100.0)
    tracer = tracing["Tracer"]("tiny-pipeline")
    tracer.install()
    try:
        surface = opp.solve_opportunity_ipde(model, ou, cpe, 0.5)
        bundle = market.simulate_paths(model, ou, [cpe], [100.0], market.GridConfig(0.5, 0.05), 200, 3)
        # a repeated column makes the fits rank-deficient, so that counter moves too
        sol = bsde.solve_backward(bundle, surface, pay, bsde.BsdeConfig(basis=("1", "D", "Y", "D")))
        hedge.run_hedge(bundle, surface, sol, pay, 8.0)
        bsde.mc_value_at_zero(surface, bundle, pay)
        opp.estimate_opportunity_mc(model, ou, [cpe], 0.0, [10.0], 0.5, n_inner=100)
    finally:
        tracer.remove()
    assert all(count > 0 for count in tracer.counters.values()), tracer.counters
    arrays = (bundle.y, bundle.s, bundle.dw, bundle.sharpe_int, bundle.mpr_dw, bundle.factor_int)
    assert tracer.counters["market.bundle_mb"] == sum(a.nbytes for a in arrays) / tracing["MB"]
