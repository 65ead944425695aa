"""Configuration parsing, dispatch, artifacts, reproducibility."""

import itertools
import json
import math
import os
import subprocess
import sys
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

import spinboson
from spinboson import (
    ConfigError,
    ModeSet,
    cli,
    diagnostics,
    enumerate_basis,
    interaction_norm_bound,
    multiscale,
    shell_norm_report,
    threads,
    verify_standard_estimates,
)
from spinboson.cli import dispatch, main, parse_config
from spinboson.errors import AssemblyError, SpinBosonError
from spinboson.reporting import config_hash

TINY = {
    "schema_version": 1,
    "model": {"e1": 1.0, "lambda_uv": 1.0, "mu": 0.25, "g": 0.05,
              "theta": [0.0, 0.2]},
    "ladder": {"rho0": 0.25, "rho": 0.5, "n_scales": 3},
    "discretization": {"points_per_shell": 2, "r_max": 4.0, "n_max": 2,
                       "uv_points_per_panel": 2},
    "run": {"mode": "practical", "seed": 1},
}


def config_text(**overrides) -> str:
    doc = json.loads(json.dumps(TINY))
    for section, values in overrides.items():
        doc.setdefault(section, {}).update(values)
    return json.dumps(doc)


class TestParseConfig:
    def test_minimal_document_fills_defaults(self):
        rc = parse_config("{}")
        assert rc.model.mu == 0.25
        assert rc.field.ladder.rho0 == 0.25
        assert rc.field.n_scales == 6
        assert rc.mode == "practical"

    def test_full_document(self):
        rc = parse_config(config_text())
        assert rc.model.g == 0.05
        assert rc.model.theta == 0.2j
        assert rc.field.points_per_shell == 2

    def test_mu_rejected_with_invariant_name(self):
        with pytest.raises(ConfigError, match=r"mu.*\(0, 1/2\)"):
            parse_config(config_text(model={"mu": 0.6}))

    def test_theta_below_floor_rejected(self):
        with pytest.raises(ConfigError, match="nu_floor"):
            parse_config(config_text(model={"theta": [0.0, 0.05],
                                            "nu_floor": 0.1}))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown model keys"):
            parse_config(config_text(model={"mystery": 1}))
        with pytest.raises(ConfigError, match="unknown top-level"):
            parse_config(json.dumps({"bogus": {}}))
        with pytest.raises(ConfigError, match="unknown run keys"):
            parse_config(config_text(run={"typo": True}))

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config(config_text(run={"mode": "fast"}))


class TestDispatch:
    def test_feasibility_artifacts(self, tmp_path):
        rc = parse_config(config_text())
        code = dispatch("feasibility", rc, tmp_path)
        assert code == 0  # practical mode reports, does not gate
        payload = json.loads((tmp_path / "feasibility.json").read_text())
        assert payload["flag"] == "practical mode"
        assert not payload["strict_pass"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_sha256"]
        assert manifest["kind"] == "feasibility"
        assert manifest["peak_rss_mb"] > 0
        assert math.isfinite(manifest["cpu_s"]) and manifest["cpu_s"] > 0
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        assert manifest["versions"]["blas"] == {
            "name": blas["name"], "version": blas["version"]
        }
        scipy = sys.modules.get("scipy")  # recorded only when some code loaded it
        assert manifest["versions"].get("scipy") == getattr(scipy, "__version__", None)

    def test_feasibility_strict_gate(self, tmp_path):
        rc = parse_config(config_text(run={"mode": "strict"}))
        assert dispatch("feasibility", rc, tmp_path) == 1

    def test_ladder_run_and_reproducibility(self, tmp_path):
        rc = parse_config(config_text(run={"samples_per_scale": 4}))
        code = dispatch("ladder", rc, tmp_path / "a")
        assert code == 0
        trace_a = (tmp_path / "a" / "trace.json").read_bytes()
        dispatch("ladder", rc, tmp_path / "b")
        trace_b = (tmp_path / "b" / "trace.json").read_bytes()
        assert trace_a == trace_b  # artifacts are hash-stable
        payload = json.loads(trace_a)
        assert payload["schema_version"] == 1
        assert len(payload["scales"]) == 3
        assert "p2_p4" in payload["checks"]
        for per_scale in payload["checks"]["p2_p4"]["p4"].values():
            for entry in per_scale.values():
                assert entry["K_n"] > 0

    @staticmethod
    def counted_assemblies(monkeypatch) -> list:
        """The ``n`` of every ``assemble_hamiltonian`` call from now on."""
        assemble = multiscale.assemble_hamiltonian
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("n"))
            return assemble(*args, **kwargs)

        for module in (multiscale, diagnostics):
            monkeypatch.setattr(module, "assemble_hamiltonian", counted)
        return calls

    @pytest.mark.parametrize("samples", [0, 4])
    def test_ladder_assembles_each_scale_once(self, tmp_path, monkeypatch, samples):
        """P4 and the full-grid residuals reuse the scale loop's operators."""
        calls = self.counted_assemblies(monkeypatch)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(config_text(run={"samples_per_scale": samples}))
        code = main(["ladder", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out")])
        assert code == 0
        assert calls == list(range(1, TINY["ladder"]["n_scales"] + 1))

    def test_resolvent_scan_assembles_each_scale_once(self, tmp_path, monkeypatch):
        """The cone fit takes its norms on the operator the ladder left on
        the trace: no second full-grid assembly."""
        calls = self.counted_assemblies(monkeypatch)
        rc = parse_config(config_text(run={"n_samples": 5}))
        assert dispatch("resolvent-scan", rc, tmp_path) == 0
        assert calls == list(range(1, TINY["ladder"]["n_scales"] + 1))

    @pytest.mark.parametrize(
        "subcommand",
        ["ladder", "cone-check", "fgr", "theta-scan", "g-circle", "resolvent-scan"],
    )
    def test_full_grid_residuals_in_ladder_alone(self, tmp_path, monkeypatch, subcommand):
        """Only ``ladder`` reports eigenvector residuals, and only it takes
        the full-grid products they need."""
        matvec = spinboson.fock.OperatorMatrix.matvec
        dims = []
        monkeypatch.setattr(
            spinboson.fock.OperatorMatrix, "matvec",
            lambda self, x: dims.append(self.dim) or matvec(self, x),
        )
        rc = parse_config(config_text(ladder={"n_scales": 2}, run={"n_samples": 5}))
        assert dispatch(subcommand, rc, tmp_path) == 0
        if subcommand != "ladder":
            assert dims == []
            return
        payload = json.loads((tmp_path / "trace.json").read_text())
        full = payload["scales"][-1]["dim"]
        for level in payload["extrapolated"]["levels"].values():
            assert len(level["eigenvector_residuals"]) == 2
        assert dims == [full] * 4  # one per level and scale

    def test_ladder_strict_gates_on_windows(self, tmp_path):
        """Strict mode fails where the smallness windows fail, as
        ``feasibility --mode strict`` does; the report is the practical one."""
        for mode in ("strict", "practical"):
            rc = parse_config(config_text(run={"mode": mode}))
            assert dispatch("feasibility", rc, tmp_path / f"f-{mode}") == (
                1 if mode == "strict" else 0
            )
            code = dispatch("ladder", rc, tmp_path / mode)
            assert code == (1 if mode == "strict" else 0)
        assert (tmp_path / "strict" / "trace.json").read_bytes() == (
            tmp_path / "practical" / "trace.json"
        ).read_bytes()

    def test_ladder_strict_gates_on_p3_rows(self, tmp_path, monkeypatch):
        """With the windows patched to pass, strict mode exits 1 exactly when
        a P3 gap lies above its strict bound.  The bound is planted below the
        gaps by lowering the chain constant C of ``check_p3`` alone by 60
        decades, which moves no gap, no practical bound and no P1 row."""
        windows = cli.check_inequalities
        monkeypatch.setattr(cli, "check_inequalities", lambda *args, **kwargs: [
            {**c, "satisfied": True} for c in windows(*args, **kwargs)
        ])
        rc = parse_config(config_text(run={"mode": "strict"}))
        assert dispatch("ladder", rc, tmp_path / "windows") == 0
        check_p3 = multiscale.check_p3
        monkeypatch.setattr(
            multiscale, "check_p3", lambda trace, log10_C: check_p3(trace, log10_C - 60.0)
        )
        assert dispatch("ladder", rc, tmp_path / "planted") == 1
        checks = json.loads((tmp_path / "planted" / "trace.json").read_text())["checks"]
        p1, p3 = (
            [r for lv in checks[p]["levels"].values() for r in lv["rows"]]
            for p in ("p1", "p3")
        )
        assert all(r["strict_pass"] for r in p1)
        assert not all(r["strict_pass"] for r in p3)
        assert all(r["practical_pass"] for r in p1 + p3)

    def test_free_ladder_exit_zero(self, tmp_path):
        rc = parse_config(config_text(model={"g": 0.0}))
        assert dispatch("ladder", rc, tmp_path) == 0
        payload = json.loads((tmp_path / "trace.json").read_text())
        lam = payload["scales"][-1]["levels"]["1"]["lambda"]
        assert abs(complex(lam[0], lam[1]) - 1.0) < 1e-12

    def test_verify_appendix(self, tmp_path):
        rc = parse_config(config_text(run={"trials": 5}))
        assert dispatch("verify-appendix", rc, tmp_path) == 0
        payload = json.loads((tmp_path / "verify_appendix.json").read_text())
        assert payload["pass"] and payload["violations"] == []

    def test_fgr_writes_rows(self, tmp_path):
        rc = parse_config(config_text(run={"g_list": [0.05, 0.025]}))
        code = dispatch("fgr", rc, tmp_path)
        payload = json.loads((tmp_path / "fgr.json").read_text())
        assert len(payload["rows"]) == 2
        assert code == 0

    def test_resolvent_scan_csv(self, tmp_path):
        rc = parse_config(config_text(run={"n_samples": 10}))
        assert dispatch("resolvent-scan", rc, tmp_path) == 0
        lines = (tmp_path / "resolvent_scan.csv").read_text().splitlines()
        assert lines[0] == "re_z,im_z,lhs,dist,ratio"
        assert len(lines) >= 2

    def test_theta_scan_artifacts(self, tmp_path):
        rc = parse_config(
            config_text(
                ladder={"n_scales": 2},
                run={"theta_list": [[0.0, 0.18], [0.0, 0.2], [0.1, 0.2]],
                     "levels": [1]},
            )
        )
        code = dispatch("theta-scan", rc, tmp_path)
        payload = json.loads((tmp_path / "theta_scan.json").read_text())
        assert code == 0
        assert len(payload["samples"]) == 3
        assert payload["budget"] > 0

    def test_theta_scan_refinement_failure_exits_2(self, tmp_path, monkeypatch):
        """A refinement circle that holds no refined eigenvalue, or two, stops
        the scan.  The circle's radius is 0.4 times the planted census gap:
        the refined lambda_1 lies 0.0075 gaps from the base value, the next
        eigenvalue of its sector 1.66 gaps, the one after 1.98 gaps."""
        ladder = diagnostics.run_ladder
        rc = parse_config(config_text(ladder={"n_scales": 2}, run={"levels": [1]}))
        for factor, error in ((1e-3, "TrackingError"), (4.5, "DegeneracyError")):
            def planted(*args, factor=factor, **kwargs):
                trace = ladder(*args, **kwargs)
                trace.scales[-1].levels[1].gap *= factor
                return trace

            monkeypatch.setattr(diagnostics, "run_ladder", planted)
            out = tmp_path / error
            assert dispatch("theta-scan", rc, out) == 2
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["failure"]["error"] == error
            assert not (out / "theta_scan.json").exists()

    def test_g_circle_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "G_CIRCLE_TOL", 1e-3)
        rc = parse_config(
            config_text(
                ladder={"n_scales": 2},
                run={"g_circle": {"center": 0.04, "radius": 0.01, "samples": 8}},
            )
        )
        code = dispatch("g-circle", rc, tmp_path)
        payload = json.loads((tmp_path / "g_circle.json").read_text())
        assert code == 0
        assert len(payload["samples"]) == 8
        assert "fourier" in payload["details"]
        assert payload["budget"] == 1e-3

    @pytest.mark.parametrize("tol, code", [(None, 0), (1e-30, 1)])
    def test_g_circle_reports_its_budget(self, tmp_path, monkeypatch, tol, code):
        """``budget`` is the tolerance that gates the exit status."""
        if tol is not None:
            monkeypatch.setattr(cli, "G_CIRCLE_TOL", tol)
        rc = parse_config(config_text(ladder={"n_scales": 2}))
        assert dispatch("g-circle", rc, tmp_path) == code
        payload = json.loads((tmp_path / "g_circle.json").read_text())
        assert payload["budget"] == (1e-4 if tol is None else tol)

    @pytest.mark.parametrize("subcommand", ["ladder", "g-circle"])
    def test_levels_select_reported_levels(self, tmp_path, subcommand):
        """``run.levels`` [1] writes level-1 keys only."""
        rc = parse_config(config_text(ladder={"n_scales": 2}, run={"levels": [1]}))
        assert dispatch(subcommand, rc, tmp_path) == 0
        if subcommand == "ladder":
            payload = json.loads((tmp_path / "trace.json").read_text())
            keyed = [scale["levels"] for scale in payload["scales"]]
            keyed += [payload["checks"][c]["levels"] for c in ("p1", "p3")]
            keyed.append(payload["extrapolated"]["levels"])
        else:
            payload = json.loads((tmp_path / "g_circle.json").read_text())
            keyed = [payload["lambdas"], payload["max_pairwise"],
                     payload["details"]["fourier"]]
        assert all(list(d) == ["1"] for d in keyed)

    def test_unknown_subcommand(self, tmp_path):
        rc = parse_config(config_text())
        with pytest.raises(ConfigError):
            dispatch("mystery", rc, tmp_path)

    def test_failure_recorded_in_manifest(self, tmp_path):
        # a ladder too strong to track aborts with a machine-readable failure
        rc = parse_config(config_text(model={"g": 0.9}))
        code = dispatch("ladder", rc, tmp_path)
        assert code == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failure"]["error"]
        assert not manifest["pass"]

    @pytest.mark.parametrize("verdict, code", [(True, 0), (False, 1)])
    def test_verdict_sets_status_and_manifest(self, tmp_path, monkeypatch, verdict, code):
        # a subcommand returns its verdict; dispatch alone turns it into both
        monkeypatch.setitem(cli._DISPATCH, "feasibility", lambda rc, out: verdict)
        assert dispatch("feasibility", parse_config(config_text()), tmp_path) == code
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert (manifest["kind"], manifest["pass"]) == ("feasibility", verdict)


class TestMain:
    def test_cli_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(config_text())
        code = main([
            "feasibility", "--config", str(cfg_path), "--out",
            str(tmp_path / "out"), "--seed", "7",
        ])
        assert code == 0
        assert (tmp_path / "out" / "feasibility.json").exists()
        assert "feasibility: pass" in capsys.readouterr().out

    def test_manifest_hash_covers_seed_and_mode(self, tmp_path, capsys):
        """The hash is that of the parsed run: ``--seed`` and ``--mode``
        change it, ``--jobs`` does not, and a flag that restates the
        document's value, or the default of an absent key, changes nothing.
        The tiny config's own seed is 1."""

        def sha(text, *flags) -> str:
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(text)
            out = tmp_path / "-".join(["out", str(len(text)), *flags])
            main(["feasibility", "--config", str(cfg_path), "--out", str(out), *flags])
            return json.loads((out / "manifest.json").read_text())["config_sha256"]

        text = config_text()
        plain = sha(text)
        assert plain == config_hash(parse_config(text).identity())
        assert sha(text, "--jobs", "1") == sha(text, "--seed", "1") == plain
        seeded = {sha(text, "--seed", "0"), sha(text, "--seed", "7")}
        assert len(seeded) == 2 and plain not in seeded
        assert sha(text, "--mode", "strict") not in {plain, *seeded}
        # a document without run.seed runs with seed 0, as --seed 0 does
        bare = json.loads(text)
        del bare["run"]["seed"]
        unseeded = json.dumps(bare)
        assert sha(unseeded) == sha(unseeded, "--seed", "0") == sha(text, "--seed", "0")

    def test_cli_bad_seed(self, tmp_path, capsys):
        """``parse_config`` validates ``--seed`` as it validates run.seed."""
        out = tmp_path / "out"
        assert main(["ladder", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"model": {"mu": 0.9}}))
        code = main(["ladder", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, section, values",
        [
            ("resolvent-scan", "run", {"n_samples": "many"}),
            ("cone-check", "run", {"cone_tol": 0.01}),  # gates are no config keys
            ("ladder", "discretization", {"points_per_shell": "x"}),
            ("ladder", "run", {"quad_points": 0}),
            ("cone-check", "run", {"levels": [2]}),
            ("cone-check", "run", {"levels": []}),
            ("ladder", "run", {"samples_per_scale": -3}),
            ("verify-appendix", "run", {"trials": 0}),
            ("g-circle", "run", {"g_circle": {"sampels": 4}}),
            ("theta-scan", "run", {"quad_points": 16}),
            ("ladder", "model", {"e0": 0.0}),
            ("ladder", "model", {"e0": 0.1}),
            ("ladder", "run", {"jobs": 2}),  # --jobs alone sets it
            ("g-circle", "run", {"g_circle": {"tol": 0.001}}),
            # inside the Im-theta strip, above the constant chain's pi/16
            ("ladder", "model", {"nu_floor": 0.25, "theta": [0.0, 0.3]}),
            ("feasibility", "model", {"nu_floor": 0.25, "theta": [0.0, 0.3]}),
            # the strict windows' order of cutoffs: the last one underflows
            ("feasibility", "ladder", {"rho0": 1e-289, "rho": 1e-147}),
            # above 2.5 / 4.9 every cone-chain step fails whatever lambda does
            ("cone-check", "ladder", {"rho": 0.52}),
        ],
    )
    def test_bad_run_value_stops_before_work(
        self, tmp_path, capsys, subcommand, section, values
    ):
        """Each bad value is a configuration error: exit 2, nothing written."""
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(config_text(**{section: values}))
        out = tmp_path / "out"
        code = main([subcommand, "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_any_parse_failure_is_a_configuration_error(
        self, tmp_path, capsys, monkeypatch
    ):
        """A package error raised while the grid is built exits 2 as well."""
        def broken(text, **run):
            raise AssemblyError("mode frequencies must be strictly increasing")

        monkeypatch.setattr(cli, "parse_config", broken)
        out = tmp_path / "out"
        assert main(["ladder", "--out", str(out)]) == 2
        assert "configuration error: mode frequencies" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "subcommand, report", [("ladder", "trace.json"),
                               ("feasibility", "feasibility.json"),
                               ("theta-scan", "theta_scan.json")]
    )
    def test_theta_near_cap_runs(self, tmp_path, capsys, subcommand, report):
        """Near the pi/8 cap the default theta orbit steps down into the strip."""
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(config_text(model={"theta": [0.0, 0.36]}))
        out = tmp_path / "out"
        code = main([subcommand, "--config", str(cfg_path), "--out", str(out)])
        assert code in (0, 1)
        assert "configuration error" not in capsys.readouterr().err
        assert (out / report).exists()

    def test_theta_scan_free_model(self, tmp_path):
        """At g = 0 the bare levels are exact on the refined grid as well, so
        the refinement deltas are 0 and the budget is the solver floor."""
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "model": {"g": 0.0}, "ladder": {"n_scales": 2},
            "discretization": {"points_per_shell": 2, "uv_points_per_panel": 2},
        }))
        out = tmp_path / "out"
        assert main(["theta-scan", "--config", str(cfg_path), "--out", str(out)]) == 0
        payload = json.loads((out / "theta_scan.json").read_text())
        details = payload["details"]
        assert details["refinement_delta"] == {"0": 0.0, "1": 0.0}
        assert payload["max_pairwise"] == {"0": 0.0, "1": 0.0}
        assert payload["budget"] == details["solver_tolerance"]

    def test_default_theta_orbit(self):
        assert parse_config(config_text()).theta_list == [0.2j, 0.225j, 0.25j]
        near_cap = parse_config(config_text(model={"theta": [0.0, 0.36]}))
        assert near_cap.theta_list == pytest.approx([0.36j, 0.335j, 0.31j])

    def test_given_theta_list_checked_at_parse(self):
        with pytest.raises(ConfigError):
            parse_config(config_text(run={"theta_list": [[0, 0.2], [0, 0.3], [0, 0.5]]}))


class TestConeCheckDispatch:
    def test_stress_case_nonzero_exit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CONE_TOL", 1e-4)
        rc = parse_config(
            config_text(model={"g": 0.15, "m_cone": 40}, run={"levels": [0]})
        )
        code = dispatch("cone-check", rc, tmp_path)
        payload = json.loads((tmp_path / "cone_check.json").read_text())
        assert code == 1
        assert not payload["pass"]
        some_violations = any(
            payload["levels"][i]["violations"] for i in payload["levels"]
        )
        assert some_violations

    def test_chain_ratio_bound(self, tmp_path, capsys):
        """Above ``CHAIN_RHO_MAX`` every chain step fails whatever lambda
        does, so cone-check refuses such a ladder before any work and names
        the bound; one scale has no chain step and runs, as does every other
        subcommand."""
        cfg = parse_config(config_text()).model
        lam = 1.0 - 0.001j
        for factor, passes in ((1 - 1e-6, True), (1 + 1e-6, False)):
            ladder = spinboson.CutoffLadder(0.25, cli.CHAIN_RHO_MAX * factor, e1=1.0)
            assert spinboson.verify_cone_chain(lam, lam, ladder, 1, cfg)["pass"] == passes
        cfg_path = tmp_path / "run.json"
        for subcommand, n_scales, want in (("cone-check", 2, 2), ("cone-check", 1, 0),
                                           ("feasibility", 2, 0)):
            cfg_path.write_text(config_text(ladder={"rho": 0.52, "n_scales": n_scales}))
            out = tmp_path / f"{subcommand}-{n_scales}"
            assert main([subcommand, "--config", str(cfg_path), "--out", str(out)]) == want
            err = capsys.readouterr().err
            assert ("rho <= 2.5/4.9 = 0.5102" in err) == (want == 2)
            assert out.exists() == (want != 2)

    def test_moderate_case_passes(self, tmp_path):
        assert cli.CONE_TOL == 5e-3  # the acceptance value
        rc = parse_config(config_text())
        assert dispatch("cone-check", rc, tmp_path) == 0

    def test_oversized_step_fails_chain(self, tmp_path, monkeypatch):
        """lambda_1 jumping by rho_1 / 2 from scale 1 to 2 exits 1."""
        ladder = multiscale.run_ladder

        def jumped(cfg, field, *args, **kwargs):
            trace = ladder(cfg, field, *args, **kwargs)
            trace.scales[1].levels[1].lam += 0.5 * field.ladder.cutoff(1) * 1j
            return trace

        # the command line reads run_ladder off multiscale at call time
        monkeypatch.setattr(multiscale, "run_ladder", jumped)
        rc = parse_config(config_text())
        assert dispatch("cone-check", rc, tmp_path) == 1
        payload = json.loads((tmp_path / "cone_check.json").read_text())
        assert not payload["pass"]
        assert all(lv["pass"] for lv in payload["levels"].values())
        assert all(row["pass"] for row in payload["chain"]["0"])
        step = payload["chain"]["1"][0]
        assert step["n"] == 1 and not step["pass"] and "witness" in step

    def test_cli_one_eigensolve_per_sector_and_scale(self, tmp_path, monkeypatch):
        """The full-grid spectrum is read off the ladder's last scale."""
        eigvals = np.linalg.eigvals
        calls = []
        monkeypatch.setattr(
            np.linalg, "eigvals", lambda a: calls.append(len(a)) or eigvals(a)
        )
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(config_text())
        code = main(["cone-check", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out")])
        assert code == 0
        assert len(calls) == 2 * TINY["ladder"]["n_scales"]


class TestSampleShortfall:
    """A sampler that stops at its guard short of the request fails the run."""

    def test_resolvent_scan(self, tmp_path, monkeypatch):
        calls = itertools.count(1)
        # the forbidden cone lets through only every 1000th candidate
        monkeypatch.setattr(
            diagnostics, "cone_contains", lambda cone, z: next(calls) % 1000 != 0
        )
        rc = parse_config(config_text(run={"n_samples": 10}))
        assert dispatch("resolvent-scan", rc, tmp_path) == 1
        payload = json.loads((tmp_path / "resolvent_scan.json").read_text())
        assert 0 < payload["n_used"] < 10

    def test_ladder_p4(self, tmp_path, monkeypatch):
        sample = spinboson.Box.sample
        # a reject that refuses every candidate point
        monkeypatch.setattr(
            spinboson.Box, "sample",
            lambda box, *args: sample(box, *args[:-1], lambda z: "refused"),
        )
        rc = parse_config(config_text(run={"samples_per_scale": 4}))
        assert dispatch("ladder", rc, tmp_path) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "failure" not in manifest and not manifest["pass"]


class TestVerifyAppendix:
    """verify-appendix makes one batched estimate call per mode set."""

    @staticmethod
    def per_trial_reference(rc) -> tuple[dict, list]:
        """The report and the amplitudes of a one-vector-per-call loop."""
        rng = np.random.default_rng(rc.seed)
        trials = rc.trials
        violations, drawn, total = [], [], 0
        for n_modes, n_max in [(4, 2), (6, 3), (8, 2)]:
            freqs = np.sort(rng.uniform(0.05, 3.0, size=n_modes))
            modes = ModeSet(freqs, np.ones(n_modes), np.zeros(n_modes, dtype=int))
            basis = enumerate_basis(modes, n_max)
            hs = []
            for _ in range(trials):
                h = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
                hs.append(h)
                rep = verify_standard_estimates(basis, h)
                total += 1
                if not rep["pass"]:
                    violations.append({"modes": n_modes, "n_max": n_max, "rep": rep})
            drawn.append(np.array(hs))
            bound = interaction_norm_bound(rc.model, basis)
            total += 1
            if not bound["pass"]:
                violations.append({"modes": n_modes, "n_max": n_max, "rep": bound})
        report = {"trials": total, "violations": violations, "pass": not violations}
        return json.loads(json.dumps(report)), drawn

    def test_report_matches_per_trial_loop(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(
            cli, "verify_standard_estimates",
            lambda basis, h: seen.append(h) or verify_standard_estimates(basis, h),
        )
        rc = parse_config(config_text(run={"trials": 37}))
        assert dispatch("verify-appendix", rc, tmp_path) == 0
        payload = json.loads((tmp_path / "verify_appendix.json").read_text())
        report, drawn = self.per_trial_reference(rc)
        shells = payload.pop("shells")
        assert payload == report and payload["trials"] == 3 * 38
        assert len(shells) == TINY["ladder"]["n_scales"]
        assert len(seen) == 3
        assert all(np.array_equal(a, b) for a, b in zip(seen, drawn))

    def test_violation_recorded(self, tmp_path, monkeypatch):
        def fail_row_two(basis, h):
            rep = verify_standard_estimates(basis, h)
            if basis.modes.n_modes == 6:
                rep["pass"][2] = False
            return rep

        monkeypatch.setattr(cli, "verify_standard_estimates", fail_row_two)
        rc = parse_config(config_text(run={"trials": 5}))
        assert dispatch("verify-appendix", rc, tmp_path) == 1
        payload = json.loads((tmp_path / "verify_appendix.json").read_text())
        assert not payload["pass"] and payload["trials"] == 18
        [entry] = payload["violations"]
        assert entry["modes"] == 6 and entry["n_max"] == 3
        rep = entry["rep"]
        assert rep["pass"] is False
        for key in ("lhs_a", "lhs_astar", "rhs_a", "rhs_astar"):
            assert type(rep[key]) is float and rep[key] > 0

    def test_one_shell_row_per_shell(self, tmp_path):
        rc = parse_config(config_text(run={"trials": 5}))
        assert dispatch("verify-appendix", rc, tmp_path) == 0
        payload = json.loads((tmp_path / "verify_appendix.json").read_text())
        assert payload["pass"] and payload["trials"] == 18
        expected = [
            {"n": n, **shell_norm_report(rc.model, rc.field, n)}
            for n in range(rc.field.n_scales)
        ]
        assert payload["shells"] == json.loads(json.dumps(expected))
        assert all(row["pass"] for row in payload["shells"])

    def test_failing_shell_fails_run(self, tmp_path, monkeypatch):
        def fail_shell_one(cfg, field, n):
            return {**shell_norm_report(cfg, field, n), "pass": n != 1}

        monkeypatch.setattr(cli, "shell_norm_report", fail_shell_one)
        rc = parse_config(config_text(run={"trials": 5}))
        assert dispatch("verify-appendix", rc, tmp_path) == 1
        payload = json.loads((tmp_path / "verify_appendix.json").read_text())
        assert not payload["pass"] and not payload["violations"]
        assert [row["pass"] for row in payload["shells"]] == [True, False, True]


def run_fresh(code: str, *args: str, environ=os.environ) -> str:
    """Standard output of ``code`` run in a new interpreter on this package,
    in ``environ`` (by default this process's environment)."""
    src = str(Path(spinboson.__file__).resolve().parents[1])
    env = {**environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return run.stdout


def test_benchmark_tracer_installs():
    """The benchmark's tracer finds every name it wraps in the package.

    ``bench/tracer.py`` reads ``lu_factor``, ``lu_solve`` and ``svds`` off
    ``spinboson.spectral`` with no default, so a change that drops one of
    them fails here as well as in ``bench/selftest.py``.
    """
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "sys.path.insert(0, 'bench')\n"
        "import tracer\n"
        "tracer.install(tracer.Recorder())\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_cli_import_skips_optimize_and_special():
    """Importing the command line loads neither scipy.optimize nor scipy.special."""
    code = (
        "import sys\n"
        "import numpy, scipy.linalg, scipy.sparse, scipy.sparse.linalg\n"
        "before = set(sys.modules)\n"
        "import spinboson.cli\n"
        "added = set(sys.modules) - before\n"
        "print(sorted(added & {'scipy.optimize', 'scipy.special'}))\n"
    )
    assert run_fresh(code).strip() == "[]"


# the package's exports, each of which must resolve on ``spinboson``
EXPORTS = [
    "AssemblyError", "BasisSizeError", "Box", "Cone", "ConfigError",
    "ContourCollisionError", "ConvergenceError", "CutoffLadder",
    "DegeneracyError", "DiscretizedField", "FeasibilityReport", "FockBasis",
    "InvarianceReport", "ModeSet", "ModelConfig", "MultiscaleTrace",
    "OperatorMatrix", "P4Sampler", "RieszProjector", "ShiftedSolver",
    "SingularShiftError", "SpectralCensus", "SpectralRecord", "SpinBosonError",
    "TrackingError",
    "assemble_hamiltonian", "basis_dimension", "build_field_operator",
    "check_inequalities", "check_p1", "check_p2_p4", "check_p3",
    "compute_constants", "cone_contains", "constants", "coupling_amplitudes",
    "diagnostics", "dist_to_cone", "enumerate_basis", "errors",
    "extrapolate_limit", "fermi_golden_rule", "fock", "form_factor",
    "g_analyticity_check", "geometry", "golden_rule_coefficient",
    "interaction_norm_bound", "model", "multiscale",
    "resolvent_cone_bound_check", "resolvent_norm", "riesz_rank_one",
    "run_ladder", "second_order_eigenvalue",
    "shell_norm_report", "spectral", "spectrum_cone_check",
    "theta_invariance_scan", "threads", "track_eigenvalue",
    "verify_cone_chain", "verify_standard_estimates",
]


# every subcommand, on a config that takes resolvent samples and P4 samples
NUMPY_ONLY = cli.SUBCOMMANDS


def test_numpy_only_subcommands_skip_scipy_stack(tmp_path):
    """No run imports scipy or numpy.ma, resolvent norms included, and no
    run at one job imports concurrent.futures; no manifest then records a
    scipy version, and each records the BLAS and the peak memory."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(config_text(
        ladder={"n_scales": 2},
        run={"trials": 5, "n_samples": 5, "samples_per_scale": 2},
    ))
    code = (
        "import json, sys\n"
        "heavy = {'scipy', 'scipy.linalg', 'scipy.sparse', 'scipy.sparse.linalg',\n"
        "         'numpy.ma'}\n"
        "pool = 'concurrent.futures'\n"
        "from spinboson import cli\n"
        "seen = [sorted((heavy | {pool}) & set(sys.modules))]\n"
        "for sub in json.loads(sys.argv[4]):\n"
        "    code = cli.main([sub, '--config', sys.argv[1], '--jobs', '1',\n"
        "                     '--out', sys.argv[2] + sub])\n"
        "    seen.append([code, *sorted((heavy | {pool}) & set(sys.modules))])\n"
        "code = cli.main(['ladder', '--config', sys.argv[1], '--jobs', '2',\n"
        "                 '--out', sys.argv[2] + 'pool'])\n"
        "seen.append([code, pool in sys.modules, *sorted(heavy & set(sys.modules))])\n"
        "import spinboson\n"
        "names = json.loads(sys.argv[3])\n"
        "missing = [n for n in names if not hasattr(spinboson, n)]\n"
        "print(json.dumps({'seen': seen, 'missing': missing}))\n"
    )
    out = run_fresh(code, str(cfg_path), str(tmp_path / "out-"), json.dumps(EXPORTS),
                    json.dumps(NUMPY_ONLY))
    result = json.loads(out.splitlines()[-1])
    assert result == {
        "seen": [[]] + [[0]] * len(NUMPY_ONLY) + [[0, True]], "missing": []
    }
    assert spinboson.__all__ == EXPORTS
    for run in [*NUMPY_ONLY, "pool"]:
        manifest = json.loads((tmp_path / f"out-{run}" / "manifest.json").read_text())
        assert "scipy" not in manifest["versions"]
        assert manifest["versions"]["blas"]["name"]
        assert manifest["peak_rss_mb"] > 0
        assert math.isfinite(manifest["cpu_s"]) and manifest["cpu_s"] > 0


def test_readme_quick_start_runs():
    """The README's Python quick start runs as written, on a smaller grid."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start in Python", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    small = block.replace("n_scales=6, points_per_shell=8",
                          "n_scales=2, points_per_shell=2")
    assert small != block
    exec(compile(small, "<README quick start>", "exec"), {})


# ---------------------------------------------------------- thread budget

LIBS = threads.openblas_libraries()
needs_openblas = pytest.mark.skipif(not LIBS, reason="no OpenBLAS in this process")


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS at two threads for the test, the old counts after."""
    before = [lib.threads for lib in LIBS]
    for lib in LIBS:
        lib.threads = 2
    try:
        yield
    finally:
        for lib, n in zip(LIBS, before):
            lib.threads = n


def fake_subcommand(seen, raises=None):
    def run(rc, out):
        seen.append([lib.threads for lib in threads.openblas_libraries()])
        if raises is not None:
            raise raises
        return True

    return run


@needs_openblas
class TestPinnedBlas:
    def test_one_thread_during_dispatch_restored_after(
        self, tmp_path, monkeypatch, two_blas_threads
    ):
        seen = []
        monkeypatch.setitem(cli._DISPATCH, "ladder", fake_subcommand(seen))
        rc = parse_config(config_text())
        assert dispatch("ladder", rc, tmp_path) == 0
        assert seen == [[1] * len(LIBS)]
        assert [lib.threads for lib in LIBS] == [2] * len(LIBS)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert (manifest["kind"], manifest["pass"]) == ("ladder", True)
        budget = manifest["threads"]
        assert budget["usable_cpus"] == len(os.sched_getaffinity(0))
        assert budget["jobs"] == rc.jobs
        assert [b["library"] for b in budget["blas"]] == [lib.library for lib in LIBS]
        assert all(
            b["threads_before"] == 2 and b["threads_during"] == 1
            for b in budget["blas"]
        )

    def test_restored_after_failed_run(self, tmp_path, monkeypatch, two_blas_threads):
        seen = []
        monkeypatch.setitem(
            cli._DISPATCH, "ladder", fake_subcommand(seen, SpinBosonError("boom"))
        )
        assert dispatch("ladder", parse_config(config_text()), tmp_path) == 2
        assert seen == [[1] * len(LIBS)]
        assert [lib.threads for lib in LIBS] == [2] * len(LIBS)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert (manifest["kind"], manifest["pass"]) == ("ladder", False)
        assert manifest["failure"]["error"] == "SpinBosonError"

    def test_restored_after_uncaught_error(self, tmp_path, monkeypatch, two_blas_threads):
        monkeypatch.setitem(
            cli._DISPATCH, "ladder", fake_subcommand([], RuntimeError("bug"))
        )
        with pytest.raises(RuntimeError):
            dispatch("ladder", parse_config(config_text()), tmp_path)
        assert [lib.threads for lib in LIBS] == [2] * len(LIBS)


@needs_openblas
@pytest.mark.parametrize("subcommand", ["ladder", "verify-appendix"])
def test_every_loaded_blas_pinned(tmp_path, subcommand):
    """Each OpenBLAS mapped after a fresh run ran it on one thread."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(config_text(run={"trials": 5}))
    code = (
        "import json, sys\n"
        "from spinboson import cli, threads\n"
        "argv = [sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]]\n"
        "code = cli.main(argv)\n"
        "loaded = [lib.library for lib in threads.openblas_libraries()]\n"
        "print(json.dumps([code, loaded]))\n"
    )
    out = run_fresh(code, subcommand, str(cfg_path), str(tmp_path / "out"))
    code, loaded = json.loads(out.splitlines()[-1])
    assert code == 0 and loaded
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    pinned = {b["library"]: b["threads_during"] for b in manifest["threads"]["blas"]}
    assert all(pinned.get(lib) == 1 for lib in loaded)


# imports ``sys.argv[1]`` ("numpy" or "cli") first, then the command line,
# and prints the OS threads, the OpenBLAS thread counts and the variable
BLAS_PROBE = (
    "import json, os, sys\n"
    "if sys.argv[1] == 'numpy':\n"
    "    import numpy\n"
    "from spinboson import cli, threads\n"
    "task = '/proc/self/task'\n"
    "print(json.dumps({\n"
    "    'tasks': len(os.listdir(task)) if os.path.isdir(task) else None,\n"
    "    'blas': [lib.threads for lib in threads.openblas_libraries()],\n"
    "    'env': os.environ.get('OPENBLAS_NUM_THREADS'),\n"
    "}))\n"
)


def blas_probe(first: str, openblas_threads: str | None = None) -> dict:
    """``BLAS_PROBE`` in a fresh process whose environment sets
    ``OPENBLAS_NUM_THREADS`` to ``openblas_threads``, or leaves it out."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        environ["OPENBLAS_NUM_THREADS"] = openblas_threads
    return json.loads(run_fresh(BLAS_PROBE, first, environ=environ).splitlines()[-1])


@needs_openblas
class TestCliLoadsOneBlasThread:
    """The command line loads OpenBLAS at one thread unless told otherwise."""

    def test_no_worker_started(self):
        probe = blas_probe("cli")
        assert probe["env"] == "1"
        assert probe["blas"] and all(n == 1 for n in probe["blas"])
        if probe["tasks"] is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert probe["tasks"] == 1

    @pytest.mark.skipif(threads.usable_cpus() < 2, reason="OpenBLAS caps at the CPUs")
    def test_named_count_kept(self):
        probe = blas_probe("cli", "2")
        assert probe["env"] == "2"
        assert probe["blas"] and all(n == 2 for n in probe["blas"])

    def test_numpy_loaded_first_left_alone(self):
        assert blas_probe("numpy")["env"] is None


@needs_openblas
@pytest.mark.parametrize(
    "subcommand, run", [("resolvent-scan", {"n_samples": 5}),
                        ("ladder", {"samples_per_scale": 2})],
)
def test_resolvent_norm_runs_pin_numpy_blas_alone(tmp_path, subcommand, run):
    """Runs that take resolvent norms leave scipy.linalg unloaded and pin
    exactly the OpenBLAS libraries mapped, each at one thread."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(config_text(ladder={"n_scales": 2}, run=run))
    code = (
        "import json, sys\n"
        "from spinboson import cli, threads\n"
        "code = cli.main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]])\n"
        "libs = [lib.library for lib in threads.openblas_libraries()]\n"
        "print(json.dumps([code, libs, 'scipy.linalg' in sys.modules]))\n"
    )
    out = run_fresh(code, subcommand, str(cfg_path), str(tmp_path / "out"))
    code, libs, loaded = json.loads(out.splitlines()[-1])
    assert code == 0 and libs and not loaded
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    pinned = {b["library"]: b["threads_during"] for b in manifest["threads"]["blas"]}
    assert pinned == dict.fromkeys(libs, 1)


def test_no_openblas_recorded_and_run(tmp_path, monkeypatch):
    monkeypatch.setattr(threads, "_mapped_openblas", lambda: [])
    assert dispatch("feasibility", parse_config(config_text()), tmp_path) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["threads"]["blas"] == []


class TestJobs:
    def test_default_is_usable_cpu_count(self):
        assert parse_config("{}").jobs == len(os.sched_getaffinity(0))

    def test_nonpositive_rejected(self, tmp_path, capsys):
        with pytest.raises(spinboson.ConfigError, match=r"unknown run keys: \['jobs'\]"):
            parse_config(config_text(run={"jobs": 2}))  # --jobs alone sets it
        assert main(["feasibility", "--jobs", "0", "--out", str(tmp_path)]) == 2
        assert "jobs" in capsys.readouterr().err

    def test_inline_without_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built for one job")

        monkeypatch.setattr(futures, "ThreadPoolExecutor", no_pool)
        assert threads.parallel_map(lambda x: x * x, [1, 2, 3], 1) == [1, 4, 9]
        assert threads.parallel_map(lambda x: x, [5], 4) == [5]

    def test_order_kept_on_threads(self):
        assert threads.parallel_map(lambda x: -x, range(9), 3) == [-x for x in range(9)]

    @pytest.mark.parametrize(
        "subcommand",
        ["ladder", "fgr", "theta-scan", "g-circle", "cone-check", "resolvent-scan"],
    )
    def test_ladder_reports_identical(self, tmp_path, subcommand):
        """Every solving subcommand writes the same reports at ``--jobs`` 1 and 2."""
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(config_text(run={"n_samples": 20}))
        for jobs in ("1", "2"):
            assert main([subcommand, "--config", str(cfg_path), "--jobs", jobs,
                         "--out", str(tmp_path / jobs)]) == 0
        reports = sorted(p.name for p in (tmp_path / "1").iterdir())
        reports.remove("manifest.json")
        assert reports
        for name in reports:
            assert (tmp_path / "1" / name).read_bytes() == (
                tmp_path / "2" / name
            ).read_bytes()


def test_ladder_reports_independent_of_blas_threads(tmp_path):
    """The same report under one and two OpenBLAS threads (a fresh process each)."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(config_text())
    src = str(Path(spinboson.__file__).resolve().parents[1])
    for n in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": n,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run(
            [sys.executable, "-m", "spinboson.cli", "ladder", "--config",
             str(cfg_path), "--out", str(tmp_path / n)],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
    assert (tmp_path / "1" / "trace.json").read_bytes() == (
        tmp_path / "2" / "trace.json"
    ).read_bytes()
