"""Spans timed from outside the package, by rebinding the names callers look up.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces
each public function named by ``targets()`` with a wrapper that records a span
(name, start, end, parent span, run id) and, where the function's
inputs or outputs carry a work count, adds it to a counter at the same
boundary.  ``Tracer.remove`` puts the originals back.  Spans stay in
memory until ``write_spans`` is called at the end of a pass.

The ``ngou`` layer gets no span: the simulation kernel carries the
factor in closed form, and ``ngou.evolve`` only serves
``PathBundle.factor_path`` and the tests, so no workload reaches it.
``validate`` is a test harness and is not benchmarked.
"""

from __future__ import annotations

import inspect
import json
import time

MB = float(1 << 20)


def _jump_events(args, kwargs, result, tracer):
    tracer.counters["levy.events"] += len(result)


def _bundle(args, kwargs, result, tracer):
    tracer.counters["market.path_steps"] += result.n_paths * result.n_steps
    arrays = (result.y, result.s, result.dw, result.sharpe_int, result.mpr_dw, result.factor_int)
    tracer.counters["market.bundle_mb"] += sum(a.nbytes for a in arrays) / MB


def _sim_kernel_bytes(args, kwargs, result, tracer):
    tracer.counters["kernels.simulate_d1h1.mb"] += sum(a.nbytes for a in result) / MB


def _states(args, kwargs, result, tracer):
    tracer.counters["opportunity.states_evaluated"] += len(result)


def _surface(args, kwargs, result, tracer):
    if hasattr(result, "n_below_floor"):
        tracer.surfaces.append(result)


def _regressions(args, kwargs, result, tracer):
    fitted = [k for k, fit in enumerate(result.table.steps) if fit is not None]
    tracer.counters["bsde.regression_steps"] += len(fitted)
    tracer.counters["bsde.rank_deficient_steps"] += result.diagnostics.get("rank_deficient_steps", 0)
    if fitted:
        tracer.min_r2.append(float(result.r2[fitted].min()))


def _hedged(args, kwargs, result, tracer):
    tracer.counters["hedge.paths_hedged"] += result.n_paths


def _inner_paths(args, kwargs, result, tracer):
    bound = tracer.mc_signature.bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.counters["opportunity.mc_inner_paths"] += bound.arguments["n_inner"]


def targets():
    """(owner, attribute, span name, counter hook) for every traced name.

    The owner is where the caller looks the name up: ``bsde`` imported
    ``market_price_of_risk`` and ``density_terminal`` into its own
    namespace, ``hedge`` did the same for ``adjustment``, so those
    bindings are the ones replaced.
    """
    from mvhedge import _kernels, bsde, cli, hedge, market, opportunity

    return [
        (market, "sample_jump_path", "levy.sample_jump_path", _jump_events),
        (opportunity, "sample_jump_path", "levy.sample_jump_path", _jump_events),
        (market, "simulate_paths", "market.simulate_paths", _bundle),
        (_kernels, "simulate_d1h1", "kernels.simulate_d1h1", _sim_kernel_bytes),
        (_kernels, "hedge_sweep", "kernels.hedge_sweep", None),
        (_kernels, "bilinear_steps", "kernels.bilinear_steps", None),
        (_kernels, "opportunity_mc_exponent", "kernels.opportunity_mc_exponent", None),
        (opportunity.IpdeSurface, "value_at_states", "opportunity.value_at_states", _states),
        (bsde.RegressionTable, "value_and_loadings", "bsde.value_and_loadings", None),
        (bsde, "market_price_of_risk", "market.market_price_of_risk", None),
        (hedge, "adjustment", "market.adjustment", None),
        (hedge, "pure_hedge", "hedge.pure_hedge", None),
        (opportunity, "solve_opportunity_ipde", "opportunity.solve_opportunity_ipde", _surface),
        (opportunity, "estimate_opportunity_mc", "opportunity.estimate_opportunity_mc", _inner_paths),
        (opportunity, "density_terminal", "opportunity.density_terminal", None),
        (bsde, "density_terminal", "opportunity.density_terminal", None),
        (bsde, "solve_backward", "bsde.solve_backward", _regressions),
        (bsde, "mc_value_at_zero", "bsde.mc_value_at_zero", None),
        (hedge, "run_hedge", "hedge.run_hedge", _hedged),
        (cli, "main", "cli.main", None),
    ]


# Per-layer metrics: (metric name, span name, field) for span-derived
# numbers; the counters and ratios follow in ``layer_metrics``.
SPAN_METRICS = [
    ("bsde.solve_backward.self_s", "bsde.solve_backward", "self_s"),
    ("opportunity.value_at_states.calls", "opportunity.value_at_states", "calls"),
    ("opportunity.value_at_states.s", "opportunity.value_at_states", "s"),
    ("market.market_price_of_risk.s", "market.market_price_of_risk", "s"),
    ("market.adjustment.s", "market.adjustment", "s"),
    ("hedge.pure_hedge.s", "hedge.pure_hedge", "s"),
    ("levy.sample_jump_path.calls", "levy.sample_jump_path", "calls"),
    ("levy.sample_jump_path.s", "levy.sample_jump_path", "s"),
    ("market.simulate_paths.calls", "market.simulate_paths", "calls"),
    ("market.simulate_paths.self_s", "market.simulate_paths", "self_s"),
    ("kernels.simulate_d1h1.s", "kernels.simulate_d1h1", "s"),
    ("kernels.bilinear_steps.calls", "kernels.bilinear_steps", "calls"),
    ("kernels.bilinear_steps.s", "kernels.bilinear_steps", "s"),
    ("kernels.hedge_sweep.s", "kernels.hedge_sweep", "s"),
    ("hedge.run_hedge.self_s", "hedge.run_hedge", "self_s"),
    ("bsde.value_and_loadings.s", "bsde.value_and_loadings", "s"),
    ("opportunity.solve_opportunity_ipde.calls", "opportunity.solve_opportunity_ipde", "calls"),
    ("opportunity.solve_opportunity_ipde.s", "opportunity.solve_opportunity_ipde", "s"),
    ("opportunity.estimate_opportunity_mc.calls", "opportunity.estimate_opportunity_mc", "calls"),
    ("opportunity.estimate_opportunity_mc.s", "opportunity.estimate_opportunity_mc", "s"),
    ("kernels.opportunity_mc_exponent.s", "kernels.opportunity_mc_exponent", "s"),
    ("opportunity.density_terminal.s", "opportunity.density_terminal", "s"),
    ("bsde.mc_value_at_zero.s", "bsde.mc_value_at_zero", "s"),
    ("cli.main.self_s", "cli.main", "self_s"),
]

COUNTERS = [
    "bsde.regression_steps",
    "bsde.rank_deficient_steps",
    "opportunity.states_evaluated",
    "levy.events",
    "market.path_steps",
    "market.bundle_mb",
    "kernels.simulate_d1h1.mb",
    "hedge.paths_hedged",
    "opportunity.mc_inner_paths",
]

# Every per-layer metric a traced pass reports, with its unit.
LAYER_UNITS = {name: ("count" if field == "calls" else "s") for name, _, field in SPAN_METRICS}
LAYER_UNITS.update({
    "bsde.regression_steps": "count",
    "bsde.rank_deficient_share": "ratio",
    "bsde.min_r2": "ratio",
    "opportunity.states_evaluated": "count",
    "opportunity.clamped_share": "ratio",
    "levy.events": "count",
    "market.path_steps": "count",
    "market.bundle_mb": "MB",
    "kernels.simulate_d1h1.mb": "MB",
    "hedge.paths_hedged": "count",
    "opportunity.mc_inner_paths": "count",
    "trace.top_level_coverage": "ratio",
    "trace.overhead_s": "s",
})
# Exact counts: for a given seed they must repeat on every traced pass.
EXACT = {name for name, unit in LAYER_UNITS.items() if unit in ("count", "ratio")} - {
    "trace.top_level_coverage"
}


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.surfaces = []
        self.min_r2 = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = (span_id, name, start, end, parent)
            if hook is not None:
                hook(args, kwargs, result, tracer)
            return result

        return traced

    def install(self):
        from mvhedge import opportunity

        self.mc_signature = inspect.signature(opportunity.estimate_opportunity_mc)
        for owner, attr, name, hook in targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def per_span(self):
        """Calls, inclusive seconds and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for span_id, name, start, end, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[span_id]
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, _, start, end, parent in self.spans if parent < 0)

    def layer_metrics(self, wall_s: float) -> dict:
        rows = self.per_span()
        out = {}
        for metric, span, field in SPAN_METRICS:
            out[metric] = rows.get(span, {}).get(field, 0)
        c = self.counters
        steps = c["bsde.regression_steps"]
        states = c["opportunity.states_evaluated"]
        clamped = sum(s.n_below_floor + s.n_above_top for s in self.surfaces)
        out.update({
            "bsde.regression_steps": steps,
            "bsde.rank_deficient_share": c["bsde.rank_deficient_steps"] / steps if steps else 0.0,
            # 0 where no regression ran
            "bsde.min_r2": min(self.min_r2) if self.min_r2 else 0.0,
            "opportunity.states_evaluated": states,
            "opportunity.clamped_share": clamped / states if states else 0.0,
            "trace.top_level_coverage": self.top_level_seconds() / wall_s,
        })
        for name in ("levy.events", "market.path_steps", "market.bundle_mb",
                     "kernels.simulate_d1h1.mb", "hedge.paths_hedged", "opportunity.mc_inner_paths"):
            out[name] = c[name]
        return out

    def write_spans(self, path):
        """One JSON object per span, in start order."""
        with open(path, "w") as f:
            for span_id, name, start, end, parent in self.spans:
                f.write(json.dumps({
                    "run": self.run_id, "id": span_id, "name": name,
                    "start": start, "end": end, "parent": parent if parent >= 0 else None,
                }) + "\n")
