"""Command-line front end: config ingestion, experiments, validation.

Subcommands: simulate, price, solve-bsde, hedge, figure {1,2,3},
validate.  Configuration is JSON validated against the published
schema; command-line flags override config fields.  The output
directory may also come from the MVHEDGE_OUTDIR environment variable.
"""

from __future__ import annotations

import argparse
import functools
import importlib.resources
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bsde, hedge, levy, market, ngou, opportunity
from .levy import ConfigurationError, MomentConditionError

FIGURE_PRESETS = {
    "figure1": {
        "model": {"kind": "constant_bs", "alpha": 2.0, "beta": 100.0, "rate": 0.0},
        "factor": {"mean_reversion": [1.0], "y0": [10.0]},
        "subordinators": [{"kind": "none"}],
        "grid": {"horizon": 40000.0, "step": 0.01},
        "payoff": {"kind": "constant", "level": 30000.0},
        "endowment": 10000.0,
        "figure": {"sweep_points": 20, "simulate_errors": False, "simulate_t_max": 0.0},
    },
    "figure2": {
        "model": {"kind": "constant_bs", "alpha": 2.0, "beta": 10.0, "rate": 0.0},
        "factor": {"mean_reversion": [1.0], "y0": [10.0]},
        "subordinators": [{"kind": "none"}],
        "grid": {"horizon": 400.0, "step": 0.01},
        "payoff": {"kind": "constant", "level": 30000.0},
        "endowment": 10000.0,
        "figure": {"sweep_points": 20, "simulate_errors": False, "simulate_t_max": 0.0},
    },
    "figure3": {
        "model": {"kind": "bns", "alpha": 0.5, "beta": 0.02, "rate": 0.0},
        "factor": {"mean_reversion": [1.0], "y0": [10.0]},
        "subordinators": [
            {"kind": "compound_poisson_exp", "event_rate": 10.0, "jump_rate": 8.0, "time_scale": 1.0}
        ],
        "grid": {"horizon": 200.0, "step": 0.01},
        "payoff": {"kind": "constant", "level": 30000.0},
        "endowment": 10000.0,
        "figure": {"sweep_points": 20, "simulate_errors": True, "simulate_t_max": 20.0},
    },
}

DEFAULTS = {
    "model": {"kind": "bns", "alpha": 0.5, "beta": 0.02, "rate": 0.0},
    "factor": {"mean_reversion": [1.0], "y0": [10.0]},
    "subordinators": [
        {"kind": "compound_poisson_exp", "event_rate": 10.0, "jump_rate": 8.0, "time_scale": 1.0}
    ],
    "grid": {"horizon": 1.0, "step": 0.01},
    "paths": {"n_paths": 10000, "n_fit_paths": 10000, "chunk_size": 10000, "master_seed": 0},
    "payoff": {"kind": "call", "strike": 100.0, "asset": 0},
    "initial_prices": [100.0],
    "endowment": 10000.0,
    # the order the jumps' exponential moment is checked at; the default
    # exponential jumps (rate 8) cap admissible orders below 8
    "moment_exponent": 4.0,
    "surface": {},
    "bsde": {},
    "hedge": {"use_closed_form_value": False},
    "figure": {"sweep_points": 20, "simulate_errors": False, "simulate_t_max": 0.0, "gnuplot": False},
    "validate": {"delta_scale": 1.0},
    "dump_paths": 0,
}


def load_schema():
    with importlib.resources.files("mvhedge").joinpath("config_schema.json").open() as f:
        return json.load(f)


@functools.cache
def _config_validator():
    """The shipped schema's validator, built once.

    ``jsonschema.validate`` would check the schema itself on every call,
    nearly all of a validation's time; the tests check it once instead.
    """
    from jsonschema.validators import validator_for

    schema = load_schema()
    return validator_for(schema)(schema)


def validate_config(cfg: dict):
    """Raise the best-matching ``jsonschema.ValidationError``, as ``jsonschema.validate`` does."""
    from jsonschema.exceptions import best_match

    error = best_match(_config_validator().iter_errors(cfg))
    if error is not None:
        raise error


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def build_config(args) -> dict:
    cfg = {}
    if getattr(args, "preset", None):
        cfg = _merge(cfg, FIGURE_PRESETS[args.preset])
    if getattr(args, "config", None):
        with open(args.config) as f:
            cfg = _merge(cfg, json.load(f))
    flags = {}
    for flag in ("horizon", "step"):
        if getattr(args, flag, None) is not None:
            flags.setdefault("grid", {})[flag] = getattr(args, flag)
    for flag in ("n_paths", "master_seed", "chunk_size", "n_fit_paths"):
        if getattr(args, flag, None) is not None:
            flags.setdefault("paths", {})[flag] = getattr(args, flag)
    if getattr(args, "endowment", None) is not None:
        flags["endowment"] = args.endowment
    if getattr(args, "payoff_level", None) is not None:
        flags.setdefault("payoff", {})["level"] = args.payoff_level
    cfg = _merge(cfg, flags)
    full = _merge(DEFAULTS, cfg)
    validate_config(full)
    return full


def build_components(cfg: dict):
    """Instantiate model, factor params and subordinators from config."""
    mc = cfg["model"]
    if mc["kind"] == "constant_bs":
        model = market.ConstantBS(mc["alpha"], mc["beta"], mc["rate"])
    elif mc["kind"] == "bns":
        model = market.BNS(mc["alpha"], mc["beta"], mc["rate"])
    else:
        model = market.TabulatedModel(
            mc["y_nodes"], mc["drift_values"], mc["vol_values"], mc["rate"]
        )
    ou = ngou.OUParams(cfg["factor"]["mean_reversion"], cfg["factor"]["y0"])
    specs = []
    for sc in cfg["subordinators"]:
        if sc["kind"] == "compound_poisson_exp":
            specs.append(
                levy.CompoundPoissonExp(sc["event_rate"], sc["jump_rate"], sc.get("time_scale", 1.0))
            )
        elif sc["kind"] == "table":
            specs.append(levy.TableMeasure(tuple(map(tuple, sc.get("atoms", []))), sc.get("time_scale", 1.0)))
        else:
            specs.append(levy.TableMeasure((), sc.get("time_scale", 1.0)))
    for spec in specs:
        levy.exp_moment_rate(spec, cfg["moment_exponent"])
    return model, ou, specs


def build_payoff(cfg: dict, model):
    pc = cfg["payoff"]
    if pc["kind"] == "constant":
        return bsde.ConstantPayoff(pc["level"])
    asset = pc["asset"]
    if asset >= model.d:
        raise ConfigurationError(f"payoff asset {asset} is not one of the model's {model.d} assets")
    if pc["kind"] == "call":
        return bsde.DiscountedCall(pc["strike"], asset)
    return bsde.DiscountedPut(pc["strike"], asset)


def build_surface(cfg, model, ou, specs, horizon):
    sc = cfg["surface"]
    mesh = opportunity.MeshConfig()
    for key in ("n_y", "n_time_slices", "n_quad", "y_top", "y_floor"):
        if key in sc:
            setattr(mesh, key, sc[key])
    return opportunity.make_surface(model, ou, specs, horizon, mesh)


def output_dir(cfg, args) -> Path:
    out = getattr(args, "outdir", None) or cfg.get("output_dir") or os.environ.get("MVHEDGE_OUTDIR", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _grid(cfg):
    return market.GridConfig(cfg["grid"]["horizon"], cfg["grid"]["step"])


def cmd_simulate(cfg, args):
    model, ou, specs = build_components(cfg)
    grid = _grid(cfg)
    n = cfg["paths"]["n_paths"]
    bundle = market.simulate_paths(
        model, ou, specs, cfg["initial_prices"], grid, min(n, cfg["paths"]["chunk_size"]),
        cfg["paths"]["master_seed"],
    )
    out = output_dir(cfg, args) / "paths.csv"
    market.dump_paths_csv(bundle, out, max_paths=cfg["dump_paths"] or 100)
    print(f"wrote {out} ({bundle.n_paths} paths, {bundle.n_steps} steps)")
    return 0


def _fit_solution(cfg, model, ou, specs, grid, surface, payoff):
    n_fit = min(cfg["paths"]["n_fit_paths"], cfg["paths"]["n_paths"])
    bundle = market.simulate_paths(
        model, ou, specs, cfg["initial_prices"], grid, n_fit, cfg["paths"]["master_seed"]
    )
    bc = cfg["bsde"]
    config = bsde.BsdeConfig()
    for key in ("basis", "n_knots"):
        if key in bc:
            setattr(config, key, tuple(bc[key]) if key == "basis" else bc[key])
    return bundle, bsde.solve_backward(bundle, surface, payoff, config)


def cmd_price(cfg, args):
    model, ou, specs = build_components(cfg)
    grid = _grid(cfg)
    payoff = build_payoff(cfg, model)
    surface = build_surface(cfg, model, ou, specs, grid.horizon)
    bundle, solution = _fit_solution(cfg, model, ou, specs, grid, surface, payoff)
    est, se = bsde.mc_value_at_zero(surface, bundle, payoff)
    print(f"backward value at zero : {solution.value_at_zero:.8g} (se {solution.se_at_zero:.3g})")
    print(f"density-weighted value : {est:.8g} (se {se:.3g})")
    print(f"difference             : {solution.value_at_zero - est:.4g}")
    print(f"agreement at 4 se      : {'yes' if solution.agrees_with(est, se)[0] else 'NO'}")
    return 0


def cmd_solve_bsde(cfg, args):
    model, ou, specs = build_components(cfg)
    grid = _grid(cfg)
    payoff = build_payoff(cfg, model)
    surface = build_surface(cfg, model, ou, specs, grid.horizon)
    _, solution = _fit_solution(cfg, model, ou, specs, grid, surface, payoff)
    out = output_dir(cfg, args) / "bsde_solution.csv"
    solution.export_csv(out)
    print(f"value at zero {solution.value_at_zero:.8g} (se {solution.se_at_zero:.3g}); wrote {out}")
    return 0


def _hedge_out_of_sample(cfg, model, ou, specs, grid, surface, payoff, fit=True):
    """Hedge the ``n_paths`` paths after the fit paths ``[0, n_fit_paths)``.

    The backward solution is fitted on the fit paths, so the reported
    MSE is out of sample.  Without a fit the payoff is its own value
    source and the hedge starts at path 0.
    """
    solution, offset = None, 0
    if fit:
        bundle, solution = _fit_solution(cfg, model, ou, specs, grid, surface, payoff)
        offset = bundle.n_paths
        del bundle  # the fit paths are not needed past the fit
    chunks = market.iter_path_chunks(
        model, ou, specs, cfg["initial_prices"], grid, cfg["paths"]["n_paths"],
        cfg["paths"]["master_seed"], cfg["paths"]["chunk_size"], path_offset=offset,
    )
    return hedge.run_hedge(chunks, surface, solution, payoff, cfg["endowment"])


def cmd_hedge(cfg, args):
    model, ou, specs = build_components(cfg)
    grid = _grid(cfg)
    payoff = build_payoff(cfg, model)
    surface = build_surface(cfg, model, ou, specs, grid.horizon)
    report = _hedge_out_of_sample(cfg, model, ou, specs, grid, surface, payoff,
                                  fit=not cfg["hedge"]["use_closed_form_value"])
    outdir = output_dir(cfg, args)
    report.export_csv(outdir / "hedge_report.csv")
    (outdir / "hedge_report.txt").write_text(report.summary() + "\n")
    print(report.summary())
    print(f"wrote {outdir / 'hedge_report.csv'}")
    return 0


def cmd_figure(cfg, args):
    model, ou, specs = build_components(cfg)
    fig_cfg = cfg["figure"]
    n_pts = fig_cfg["sweep_points"]
    t_max = cfg["grid"]["horizon"]
    horizons = np.linspace(t_max / n_pts, t_max, n_pts)
    p_level = cfg["payoff"]["level"]
    v = cfg["endowment"]
    rows = []
    sim_max = fig_cfg["simulate_t_max"] if fig_cfg["simulate_errors"] else 0.0
    # The surface equation is autonomous, so P_T(0, y) = P_{t_max}(t_max - T, y):
    # one solve over the longest horizon, with a stored slice at every sweep
    # point, gives the whole closed-form curve without reading between slices.
    curve = build_surface(_merge(cfg, {"surface": {"n_time_slices": n_pts + 1}}),
                          model, ou, specs, t_max)
    for t_end in horizons:
        p0_t = curve.value(t_max - t_end, ou.y0)
        if p_level == v:
            var = herr = gap = 0.0
        else:
            var, herr, gap = hedge.closed_forms(p_level, v, p0_t)
        sim_err = float("nan")
        sim_se = float("nan")
        if sim_max and t_end <= sim_max:
            # a simulated row's density and backward solve use its own horizon's surface
            sub = _merge(cfg, {"grid": {"horizon": float(t_end)}})
            surface = build_surface(sub, model, ou, specs, float(t_end))
            rep = _hedge_out_of_sample(sub, model, ou, specs, _grid(sub), surface,
                                       bsde.ConstantPayoff(p_level))
            sim_err, sim_se = rep.mse, rep.se_mse
        rows.append((t_end, var, herr, gap, sim_err, sim_se))
    outdir = output_dir(cfg, args)
    name = cfg.get("experiment", "figure")
    out = outdir / f"{name}.csv"
    with open(out, "w") as f:
        f.write("T,variance,hedging_error,gap,simulated_error,simulated_se\n")
        for row in rows:
            f.write(",".join(f"{x:.12g}" for x in row) + "\n")
    print(f"wrote {out}")
    if fig_cfg["gnuplot"]:
        gp = outdir / f"{name}.gp"
        gp.write_text(
            f'set datafile separator ",";\nset logscale y;\nset xlabel "T";\n'
            f'plot "{out.name}" using 1:2 with lines title "variance", '
            f'"{out.name}" using 1:3 with lines title "hedging error", '
            f'"{out.name}" using 1:4 with lines title "gap"\n'
        )
        print(f"wrote {gp}")
    return 0


def cmd_validate(cfg, args):
    from .validate import run_validate

    scale = cfg["validate"]["delta_scale"]
    report = run_validate(delta_scale=scale, master_seed=cfg["paths"]["master_seed"])
    print(report.render())
    return 0 if report.ok else 1


def make_parser():
    p = argparse.ArgumentParser(prog="mvhedge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--outdir", help="output directory (overrides MVHEDGE_OUTDIR)")
        sp.add_argument("--n-paths", dest="n_paths", type=int)
        sp.add_argument("--n-fit-paths", dest="n_fit_paths", type=int)
        sp.add_argument("--chunk-size", dest="chunk_size", type=int)
        sp.add_argument("--master-seed", dest="master_seed", type=int)
        sp.add_argument("--horizon", type=float)
        sp.add_argument("--step", type=float)
        sp.add_argument("--endowment", type=float)
        sp.add_argument("--payoff-level", dest="payoff_level", type=float)

    for name, fn in [
        ("simulate", cmd_simulate),
        ("price", cmd_price),
        ("solve-bsde", cmd_solve_bsde),
        ("hedge", cmd_hedge),
        ("validate", cmd_validate),
    ]:
        sp = sub.add_parser(name)
        common(sp)
        sp.set_defaults(fn=fn, preset=None)

    sp = sub.add_parser("figure")
    sp.add_argument("number", choices=["1", "2", "3"])
    common(sp)
    sp.set_defaults(fn=cmd_figure)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.fn is cmd_figure:
        args.preset = f"figure{args.number}"
    try:
        cfg = build_config(args)
        if args.fn is cmd_figure:
            cfg["experiment"] = args.preset
    except Exception as exc:  # jsonschema.ValidationError and file errors
        # a schema error names the offending key, without the schema excerpt
        where = f"{exc.json_path}: " if hasattr(exc, "json_path") else ""
        print(f"invalid configuration: {where}{getattr(exc, 'message', exc)}", file=sys.stderr)
        return 2
    try:
        return args.fn(cfg, args)
    except (ConfigurationError, MomentConditionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
