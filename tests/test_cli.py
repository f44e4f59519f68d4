import ast
import json
from pathlib import Path

import pytest

from mvhedge import bsde, cli, hedge, market, opportunity


# the checks of ``mvhedge validate``, in the order it prints them
VALIDATE_CHECKS = [
    "moment rate closed form vs quadrature", "moment condition rejects critical order",
    "jump sampling reproducible", "event count statistics", "exponential moment matches",
    "factor balance identity", "factor floor", "discount identity",
    "squared market price of risk nonnegative", "price moment matches lognormal", "frozen-factor equivalence",
    "stochastic exponential martingale", "flat-model density matches the explicit change of measure",
    "density terminal mean one", "density positive", "density jumps only at jump times",
    "surface within (0, 1]", "surface terminal one", "surface decreases with horizon",
    "grid solve reproduces the flat closed form", "grid solve agrees with Monte Carlo",
    "backward value of a constant claim", "backward value agrees with the density-weighted value",
    "closed-form identities", "self-financing bookkeeping", "zero tracking gap keeps a flat position",
]


def run(args):
    return cli.main(args)


class TestConfig:
    def test_schema_rejects_unknown_keys(self):
        with pytest.raises(Exception):
            cli.validate_config({"nonsense": 1})

    def test_shipped_schema_is_valid(self):
        # validation builds its validator without checking the schema
        from jsonschema.validators import validator_for

        schema = cli.load_schema()
        validator_for(schema).check_schema(schema)

    def test_schema_accepts_defaults(self):
        cli.validate_config({k: v for k, v in cli.DEFAULTS.items()})

    def test_flag_overrides_config(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"grid": {"horizon": 2.0, "step": 0.1}}))

        class Args:
            preset = None
            config = str(cfg_file)
            horizon = 3.0
            step = None
            n_paths = 17
            n_fit_paths = None
            chunk_size = None
            master_seed = None
            endowment = None
            payoff_level = None

        cfg = cli.build_config(Args())
        assert cfg["grid"]["horizon"] == 3.0
        assert cfg["grid"]["step"] == 0.1
        assert cfg["paths"]["n_paths"] == 17

    def test_moment_condition_failure_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "subordinators": [{"kind": "compound_poisson_exp", "event_rate": 10.0, "jump_rate": 8.0}],
            "moment_exponent": 8.0,
            "grid": {"horizon": 0.1, "step": 0.05},
            "paths": {"n_paths": 4},
        }))
        assert run(["simulate", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("surface", [{"mode": "mc"}, {"n_inner": 2000}])
    def test_removed_surface_knobs_exit_2(self, tmp_path, capsys, surface):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"surface": surface}))
        assert run(["simulate", "--config", str(cfg), "--outdir", str(tmp_path)]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_every_schema_knob_is_read(self):
        # a declared knob the CLI never names is an option nobody can use
        schema = cli.load_schema()
        names = set()

        def collect(node):
            if isinstance(node, dict):
                names.update(node.get("properties", {}))
                for child in node.values():
                    collect(child)
            elif isinstance(node, list):
                for child in node:
                    collect(child)

        collect(schema)
        tree = ast.parse(Path(cli.__file__).read_text())
        literals = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        assert names and not names - literals

    def test_components_roundtrip(self):
        cfg = cli._merge(cli.DEFAULTS, {})
        model, ou, specs = cli.build_components(cfg)
        assert model.d == 1 and ou.dim == 1 and len(specs) == 1


class TestFigureExperiments:
    def test_figure1_endpoint_values(self, tmp_path):
        assert run(["figure", "1", "--outdir", str(tmp_path)]) == 0
        rows = (tmp_path / "figure1.csv").read_text().strip().splitlines()
        assert rows[0] == "T,variance,hedging_error,gap,simulated_error,simulated_se"
        last = rows[-1].split(",")
        assert float(last[0]) == 40000.0
        assert float(last[2]) == pytest.approx(45.01406988770365, rel=1e-9)
        assert float(last[3]) == pytest.approx(5.065666789703367e-06, rel=1e-9)
        gaps = [float(r.split(",")[3]) for r in rows[1:]]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_figure2_endpoint_matches_figure1(self, tmp_path):
        assert run(["figure", "2", "--outdir", str(tmp_path)]) == 0
        rows = (tmp_path / "figure2.csv").read_text().strip().splitlines()
        last = rows[-1].split(",")
        # same accumulated squared market price of risk at both endpoints
        assert float(last[3]) == pytest.approx(5.065666789703367e-06, rel=1e-9)

    def test_payoff_equal_endowment_all_zero(self, tmp_path):
        assert run(["figure", "1", "--outdir", str(tmp_path), "--payoff-level", "10000"]) == 0
        rows = (tmp_path / "figure1.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            t, var, herr, gap = row.split(",")[:4]
            assert float(var) == 0.0 and float(herr) == 0.0 and float(gap) == 0.0

    def test_byte_identical_reruns(self, tmp_path):
        run(["figure", "1", "--outdir", str(tmp_path / "a")])
        run(["figure", "1", "--outdir", str(tmp_path / "b")])
        assert (tmp_path / "a/figure1.csv").read_bytes() == (tmp_path / "b/figure1.csv").read_bytes()

    def test_figure3_simulated_errors_and_gnuplot(self, tmp_path, monkeypatch):
        cfg = tmp_path / "f3.json"
        cfg.write_text(json.dumps({
            "grid": {"horizon": 0.5},
            "paths": {"n_paths": 2000, "n_fit_paths": 2000},
            "figure": {"sweep_points": 2, "simulate_errors": True, "simulate_t_max": 0.5, "gnuplot": True},
        }))
        solves = []
        solve = opportunity.solve_opportunity_ipde
        monkeypatch.setattr(opportunity, "solve_opportunity_ipde",
                            lambda *args: solves.append(args[3]) or solve(*args))
        assert run(["figure", "3", "--outdir", str(tmp_path), "--config", str(cfg)]) == 0
        # one solve over the longest horizon for the closed-form curve, then
        # one per simulated row at that row's horizon
        assert solves == [0.5, 0.25, 0.5]
        rows = (tmp_path / "figure3.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            _, _, herr, _, sim, sim_se = (float(x) for x in row.split(","))
            assert abs(sim - herr) <= max(4 * sim_se, 0.02 * herr)
        assert '"figure3.csv" using 1:2' in (tmp_path / "figure3.gp").read_text()

    def test_figure3_curve_from_one_solve(self, tmp_path, monkeypatch):
        cfg = tmp_path / "f3.json"
        cfg.write_text(json.dumps({
            "grid": {"horizon": 4.0},
            "figure": {"sweep_points": 4, "simulate_errors": False},
        }))
        solves = []
        solve = opportunity.solve_opportunity_ipde
        monkeypatch.setattr(opportunity, "solve_opportunity_ipde",
                            lambda *args: solves.append(args[3]) or solve(*args))
        assert run(["figure", "3", "--outdir", str(tmp_path), "--config", str(cfg)]) == 0
        assert solves == [4.0]
        model, ou, specs = cli.build_components(cli._merge(cli.DEFAULTS, cli.FIGURE_PRESETS["figure3"]))
        rows = (tmp_path / "figure3.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 4
        for row in rows:
            t_end, _, herr = (float(x) for x in row.split(",")[:3])
            p0 = solve(model, ou, specs[0], t_end).value(0.0, ou.y0)
            _, expected, _ = hedge.closed_forms(3e4, 1e4, p0)
            assert herr == pytest.approx(expected, rel=2e-4)

    def test_figure3_closed_forms_small(self, tmp_path):
        # reduced sweep: closed-form columns only, small path budget
        cfg = tmp_path / "f3.json"
        cfg.write_text(json.dumps({
            "grid": {"horizon": 2.0},
            "figure": {"sweep_points": 2, "simulate_errors": False},
        }))
        assert run(["figure", "3", "--outdir", str(tmp_path), "--config", str(cfg)]) == 0
        rows = (tmp_path / "figure3.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        var, herr, gap = (float(x) for x in rows[-1].split(",")[1:4])
        assert abs(var - herr - gap) <= 1e-9 * var

    def test_figure3_curve_reads_surface_mesh(self, tmp_path):
        # the closed-form curve comes from the configured grid solve
        curves = []
        for name, surface in (("default", {}), ("coarse", {"n_y": 60})):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({
                "grid": {"horizon": 2.0},
                "surface": surface,
                "figure": {"sweep_points": 2, "simulate_errors": False},
            }))
            assert run(["figure", "3", "--outdir", str(tmp_path / name), "--config", str(cfg)]) == 0
            rows = (tmp_path / name / "figure3.csv").read_text().strip().splitlines()[1:]
            curves.append([float(row.split(",")[2]) for row in rows])
        assert curves[0] != curves[1]
        assert curves[1] == pytest.approx(curves[0], rel=0.05)


class TestOtherCommands:
    def test_simulate_writes_paths(self, tmp_path):
        assert run(["simulate", "--outdir", str(tmp_path), "--n-paths", "5",
                    "--horizon", "0.2", "--step", "0.1"]) == 0
        header = (tmp_path / "paths.csv").read_text().splitlines()[0]
        assert header == "path,t,Y_1,S_1,D_1"

    def test_price_and_solve(self, tmp_path, capsys):
        assert run(["price", "--n-paths", "500", "--n-fit-paths", "500", "--horizon", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "backward value at zero" in out
        assert run(["solve-bsde", "--outdir", str(tmp_path), "--n-paths", "500",
                    "--n-fit-paths", "500", "--horizon", "0.2"]) == 0
        assert (tmp_path / "bsde_solution.csv").exists()

    def test_hedge_report(self, tmp_path):
        cfg = tmp_path / "h.json"
        cfg.write_text(json.dumps({
            "payoff": {"kind": "constant", "level": 30000.0},
            "hedge": {"use_closed_form_value": True},
        }))
        assert run(["hedge", "--config", str(cfg), "--outdir", str(tmp_path),
                    "--n-paths", "2000", "--horizon", "0.5"]) == 0
        text = (tmp_path / "hedge_report.txt").read_text()
        assert "closed-form error" in text

    def test_flat_tabulated_paths_match_constant_bs(self, tmp_path):
        atoms = {"subordinators": [{"kind": "table", "atoms": [[1.0, 0.5]]}],
                 "grid": {"horizon": 0.2, "step": 0.05}, "paths": {"n_paths": 5}}
        models = {
            "tab": {"kind": "tabulated", "y_nodes": [1.0, 100.0], "drift_values": [0.1, 0.1],
                    "vol_values": [0.2, 0.2]},
            "bs": {"kind": "constant_bs", "alpha": 0.1, "beta": 0.2},
        }
        for name, model in models.items():
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(dict(atoms, model=model)))
            assert run(["simulate", "--config", str(cfg), "--outdir", str(tmp_path / name)]) == 0
        assert (tmp_path / "tab/paths.csv").read_bytes() == (tmp_path / "bs/paths.csv").read_bytes()

    def test_solve_bsde_put_with_overrides(self, tmp_path, monkeypatch):
        seen = []
        solve = bsde.solve_backward
        monkeypatch.setattr(bsde, "solve_backward", lambda *args: seen.append(args) or solve(*args))
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({
            "payoff": {"kind": "put", "strike": 100.0},
            "bsde": {"basis": ["1", "D", "Y", "payoff", "knots"], "n_knots": 3},
            "surface": {"n_y": 64},
        }))
        assert run(["solve-bsde", "--config", str(cfg), "--outdir", str(tmp_path), "--n-paths", "500",
                    "--n-fit-paths", "500", "--horizon", "0.2"]) == 0
        (_, surface, payoff, config), = seen
        assert isinstance(payoff, bsde.DiscountedPut)
        assert config.basis == ("1", "D", "Y", "payoff", "knots") and config.n_knots == 3
        assert isinstance(surface, opportunity.IpdeSurface) and surface.y_nodes.size == 64
        assert (tmp_path / "bsde_solution.csv").exists()

    @pytest.mark.parametrize("knob", [{"inner_sweeps": 2}, {"n_jump_buckets": 6}, {"min_bucket_count": 25}])
    def test_removed_bsde_knobs_exit_2(self, tmp_path, capsys, knob):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"bsde": knob}))
        assert run(["solve-bsde", "--config", str(cfg), "--outdir", str(tmp_path), "--n-paths", "200",
                    "--n-fit-paths", "200", "--horizon", "0.1"]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not (tmp_path / "bsde_solution.csv").exists()

    def test_solve_bsde_unknown_basis_entry_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"bsde": {"basis": ["1", "Q"]}}))
        assert run(["solve-bsde", "--config", str(cfg), "--outdir", str(tmp_path), "--n-paths", "200",
                    "--n-fit-paths", "200", "--horizon", "0.1"]) == 2
        assert "unknown basis entry 'Q'" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ({"payoff": {"asset": 1}}, "configuration error: payoff asset 1 is not one of the model's 1 assets"),
        ({"surface": {"y_top": 10.5}}, "configuration error: mesh top 10.5 cannot cover the jump range"),
        ({"surface": {"y_floor": -1}}, "invalid configuration: $.surface.y_floor: -1 is less than"),
        # about 1.25e7 surface time steps at horizon 0.1: refused before the march
        ({"surface": {"y_floor": 1e-9}}, "configuration error: surface solve needs 12500480 time steps"),
        ({"hedge": {"record_paths": 4}}, "invalid configuration: $.hedge: Additional properties"),
    ], ids=["asset", "y_top", "y_floor", "y_floor_steps", "record_paths"])
    def test_bad_config_exits_2_with_one_line(self, tmp_path, capsys, override, message):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps(override))
        assert run(["price", "--config", str(cfg), "--n-paths", "200", "--n-fit-paths", "200",
                    "--horizon", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    def test_hedge_without_fit_needs_a_constant_claim(self, tmp_path, capsys):
        # the default payoff is a call, which gives no value of its own
        cfg = tmp_path / "h.json"
        cfg.write_text(json.dumps({"hedge": {"use_closed_form_value": True}}))
        assert run(["hedge", "--config", str(cfg), "--outdir", str(tmp_path), "--n-paths", "200",
                    "--horizon", "0.1"]) == 2
        assert "own value" in capsys.readouterr().err
        assert not (tmp_path / "hedge_report.csv").exists()

    def test_hedge_fitted_solution_and_endowment_flag(self, tmp_path):
        cfg = tmp_path / "h.json"
        cfg.write_text(json.dumps({"payoff": {"kind": "constant", "level": 30000.0}}))
        assert run(["hedge", "--config", str(cfg), "--outdir", str(tmp_path), "--n-paths", "2000",
                    "--n-fit-paths", "2000", "--horizon", "0.5", "--endowment", "12000"]) == 0
        rows = dict(line.split(",") for line in (tmp_path / "hedge_report.csv").read_text().splitlines()[1:])
        assert float(rows["endowment"]) == 12000.0
        assert float(rows["hedging_error"]) == pytest.approx(float(rows["p0"]) * 18000.0**2, rel=1e-12)
        # the report's own closed-form band, HedgeReport.closed_form_agreement
        assert "simulated vs closed : PASS" in (tmp_path / "hedge_report.txt").read_text()

    def test_hedge_scores_paths_outside_the_fit(self, tmp_path, monkeypatch):
        ranges = []
        simulate = market.simulate_paths

        def recording(*args, **kwargs):
            bundle = simulate(*args, **kwargs)
            ranges.append((bundle.master_seed, bundle.path_offset, bundle.path_offset + bundle.n_paths))
            return bundle

        monkeypatch.setattr(market, "simulate_paths", recording)
        cfg = tmp_path / "h.json"
        cfg.write_text(json.dumps({"payoff": {"kind": "constant", "level": 30000.0}}))
        assert run(["hedge", "--config", str(cfg), "--outdir", str(tmp_path), "--n-paths", "1000",
                    "--n-fit-paths", "1000", "--chunk-size", "400", "--horizon", "0.2"]) == 0
        (seed, fit_lo, fit_hi), *hedged = ranges
        assert [r[0] for r in hedged] == [seed] * 3
        assert sum(hi - lo for _, lo, hi in hedged) == 1000
        assert all(hi <= fit_lo or lo >= fit_hi for _, lo, hi in hedged)

    def test_validate_passes(self):
        assert run(["validate"]) == 0

    def test_validate_widened_bands_at_doubled_step(self):
        from mvhedge.validate import run_validate

        report = run_validate(delta_scale=2.0)
        assert report.ok, report.render()
        assert [c.name for c in report.checks] == VALIDATE_CHECKS
