"""Configuration parsing, dispatch, artifacts, reproducibility."""

import itertools
import json

import numpy as np
import pytest

from spinboson import (
    ConfigError,
    ModeSet,
    cli,
    diagnostics,
    enumerate_basis,
    interaction_norm_bound,
    multiscale,
    verify_standard_estimates,
)
from spinboson.cli import dispatch, main, parse_config

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
        assert rc.ladder.rho0 == 0.25
        assert rc.n_scales == 6
        assert rc.mode == "practical"

    def test_full_document(self):
        rc = parse_config(config_text())
        assert rc.model.g == 0.05
        assert rc.model.theta == 0.2j
        assert rc.points_per_shell == 2

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

    def test_g_circle_artifacts(self, tmp_path):
        rc = parse_config(
            config_text(
                ladder={"n_scales": 2},
                run={"g_circle": {"center": 0.04, "radius": 0.01,
                                  "samples": 8, "tol": 1e-3}},
            )
        )
        code = dispatch("g-circle", rc, tmp_path)
        payload = json.loads((tmp_path / "g_circle.json").read_text())
        assert code == 0
        assert len(payload["samples"]) == 8
        assert "fourier" in payload["details"]

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

    def test_cli_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"model": {"mu": 0.9}}))
        code = main(["ladder", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err


class TestConeCheckDispatch:
    def test_stress_case_nonzero_exit(self, tmp_path):
        rc = parse_config(
            config_text(model={"g": 0.15, "m_cone": 40},
                        run={"cone_tol": 1e-4, "levels": [0]})
        )
        code = dispatch("cone-check", rc, tmp_path)
        payload = json.loads((tmp_path / "cone_check.json").read_text())
        assert code == 1
        assert not payload["pass"]
        some_violations = any(
            payload["levels"][i]["violations"] for i in payload["levels"]
        )
        assert some_violations

    def test_moderate_case_passes(self, tmp_path):
        rc = parse_config(config_text(run={"cone_tol": 5e-3}))
        assert dispatch("cone-check", rc, tmp_path) == 0

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
        sample = multiscale._sample_window
        # an exclusion radius around the truncation artifacts that covers
        # every candidate point
        monkeypatch.setattr(
            multiscale, "_sample_window",
            lambda *args, **kw: sample(*args, **{**kw, "avoid_radius": np.inf}),
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
        trials = rc.raw["run"]["trials"]
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
        assert payload == report and payload["trials"] == 3 * 38
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
