"""Command-line entry point: validate a config, dispatch a run, emit artifacts.

Subcommands: ladder, fgr, theta-scan, g-circle, cone-check, resolvent-scan,
feasibility, verify-appendix.  Every run writes its report as JSON (grids
additionally as CSV) plus a manifest with the config hash; the exit status
is zero exactly when all checks of the run pass.  In strict mode the
paper-grade smallness windows gate the exit status; practical mode keys
off the structural checks and the practical envelopes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import check_inequalities, compute_constants
from .diagnostics import (
    fermi_golden_rule,
    g_analyticity_check,
    resolvent_cone_bound_check,
    spectrum_cone_check,
    theta_invariance_scan,
)
from .errors import ConfigError, SpinBosonError
from .fock import ModeSet, enumerate_basis, verify_standard_estimates
from .model import (
    CutoffLadder,
    DiscretizedField,
    ModelConfig,
    interaction_norm_bound,
)
from .multiscale import check_p1, check_p2_p4, check_p3, extrapolate_limit, run_ladder
from .reporting import run_manifest, write_csv, write_json

SUBCOMMANDS = (
    "ladder",
    "fgr",
    "theta-scan",
    "g-circle",
    "cone-check",
    "resolvent-scan",
    "feasibility",
    "verify-appendix",
)

_MODEL_KEYS = {"e1", "lambda_uv", "mu", "g", "theta", "nu_floor", "m_cone", "e0"}
_LADDER_KEYS = {"rho0", "rho", "n_scales"}
_DISC_KEYS = {"points_per_shell", "r_max", "n_max", "uv_points_per_panel"}
_RUN_KEYS = {
    "mode",
    "seed",
    "jobs",
    "quad_points",
    "g_list",
    "theta_list",
    "g_circle",
    "cone_tol",
    "n_samples",
    "samples_per_scale",
    "c_generic",
    "trials",
    "levels",
}


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError("complex values are [re, im] pairs")
        return complex(float(value[0]), float(value[1]))
    return complex(float(value), 0.0)


@dataclass
class RunConfig:
    """Validated run configuration: model, ladder, discretization, run."""

    model: ModelConfig
    ladder: CutoffLadder
    n_scales: int
    points_per_shell: int
    r_max: float
    n_max: int
    uv_points_per_panel: int | None
    mode: str
    seed: int
    jobs: int
    quad_points: int
    raw: dict

    def build_field(self) -> DiscretizedField:
        return DiscretizedField(
            self.ladder,
            self.n_scales,
            points_per_shell=self.points_per_shell,
            r_max=self.r_max,
            n_max=self.n_max,
            uv_points_per_panel=self.uv_points_per_panel,
        )


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON run configuration.

    Unknown keys are rejected; every model and ladder invariant is
    re-checked through the domain constructors so a bad document fails
    with a message naming the violated constraint.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    known_top = {"schema_version", "model", "ladder", "discretization", "run"}
    unknown = set(doc) - known_top
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")

    model_doc = dict(doc.get("model", {}))
    unknown = set(model_doc) - _MODEL_KEYS
    if unknown:
        raise ConfigError(f"unknown model keys: {sorted(unknown)}")
    ladder_doc = dict(doc.get("ladder", {}))
    unknown = set(ladder_doc) - _LADDER_KEYS
    if unknown:
        raise ConfigError(f"unknown ladder keys: {sorted(unknown)}")
    disc_doc = dict(doc.get("discretization", {}))
    unknown = set(disc_doc) - _DISC_KEYS
    if unknown:
        raise ConfigError(f"unknown discretization keys: {sorted(unknown)}")
    run_doc = dict(doc.get("run", {}))
    unknown = set(run_doc) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown run keys: {sorted(unknown)}")

    model = ModelConfig(
        e1=float(model_doc.get("e1", 1.0)),
        lambda_uv=float(model_doc.get("lambda_uv", 1.0)),
        mu=float(model_doc.get("mu", 0.25)),
        g=_as_complex(model_doc.get("g", 0.05)),
        theta=_as_complex(model_doc.get("theta", [0.0, 0.2])),
        nu_floor=float(model_doc.get("nu_floor", 0.1)),
        m_cone=int(model_doc.get("m_cone", 4)),
        e0=float(model_doc.get("e0", 0.0)),
    )
    ladder = CutoffLadder(
        rho0=float(ladder_doc.get("rho0", 0.25)),
        rho=float(ladder_doc.get("rho", 0.5)),
        e1=model.e1,
    )
    mode = str(run_doc.get("mode", "practical"))
    if mode not in ("practical", "strict"):
        raise ConfigError("run mode must be 'practical' or 'strict'")
    uv = disc_doc.get("uv_points_per_panel")
    return RunConfig(
        model=model,
        ladder=ladder,
        n_scales=int(ladder_doc.get("n_scales", 6)),
        points_per_shell=int(disc_doc.get("points_per_shell", 8)),
        r_max=float(disc_doc.get("r_max", 4.0 * model.lambda_uv)),
        n_max=int(disc_doc.get("n_max", 2)),
        uv_points_per_panel=None if uv is None else int(uv),
        mode=mode,
        seed=int(run_doc.get("seed", 0)),
        jobs=int(run_doc.get("jobs", 1)),
        quad_points=int(run_doc.get("quad_points", 16)),
        raw=doc,
    )


def _ladder_artifacts(rc: RunConfig, out: Path) -> tuple[int, dict]:
    cfg, ladder = rc.model, rc.ladder
    field = rc.build_field()
    trace = run_ladder(cfg, ladder, field, quad_points=rc.quad_points)
    report = compute_constants(
        cfg.mu, cfg.nu_floor, nu=cfg.nu, m=cfg.m_cone,
        c_generic=float(rc.raw.get("run", {}).get("c_generic", 10.0)),
    )
    p1 = check_p1(trace, cfg, ladder, log10_C=report.log10_C)
    p3 = check_p3(trace, cfg, ladder, log10_C=report.log10_C)
    extrapolate_limit(trace, cfg, ladder, field)
    trace.checks["p1"] = p1
    trace.checks["p3"] = p3
    samples = rc.raw.get("run", {}).get("samples_per_scale")
    ok = True
    if samples:
        p2_p4 = check_p2_p4(trace, cfg, ladder, field,
                            samples_per_scale=int(samples), seed=rc.seed,
                            log10_C=report.log10_C)
        # a window sampler that stops at its guard short of the request fails
        for per_scale in p2_p4["p4"].values():
            for entry in per_scale.values():
                ok &= len(entry["samples"]) >= int(samples)
    for i, lv in p1["levels"].items():
        ok &= lv["all_practical_pass"]
        if rc.mode == "strict":
            ok &= all(r.get("strict_pass", False) for r in lv["rows"])
    for i, lv in p3["levels"].items():
        ok &= lv["all_practical_pass"]
    for rec in trace.scales:
        for data in rec.levels.values():
            ok &= data.p2_unique and data.contour_safe
            ok &= data.projector_residual < 1e-10
    write_json(out / "trace.json", trace.to_dict())
    return (0 if ok else 1), {"kind": "ladder", "pass": bool(ok)}


def _fgr_artifacts(rc: RunConfig, out: Path) -> tuple[int, dict]:
    cfg, ladder = rc.model, rc.ladder
    field = rc.build_field()
    g_list = [
        _as_complex(g) for g in rc.raw.get("run", {}).get("g_list", [])
    ] or [cfg.g, cfg.g / 2]
    rep = fermi_golden_rule(cfg, ladder, field, g_list, quad_points=rc.quad_points)
    rows = [
        {k: v for k, v in row.items() if k != "trace"} for row in rep["rows"]
    ]
    ok = rep["monotone_improvement"]
    write_json(
        out / "fgr.json",
        {
            "coefficient": rep["coefficient"],
            "rows": rows,
            "monotone_improvement": rep["monotone_improvement"],
        },
    )
    return (0 if ok else 1), {"kind": "fgr", "pass": bool(ok)}


def _theta_scan_artifacts(rc: RunConfig, out: Path) -> tuple[int, dict]:
    cfg, ladder = rc.model, rc.ladder
    field = rc.build_field()
    thetas = [
        _as_complex(t) for t in rc.raw.get("run", {}).get("theta_list", [])
    ] or [cfg.theta, cfg.theta + 0.025j, cfg.theta + 0.05j]
    levels = _run_levels(rc)
    rep = theta_invariance_scan(cfg, ladder, field, thetas, levels=levels,
                                quad_points=rc.quad_points)
    ok = rep.budget is None or all(
        v <= rep.budget for v in rep.max_pairwise.values()
    )
    write_json(out / "theta_scan.json", rep.to_dict())
    return (0 if ok else 1), {"kind": "theta-scan", "pass": bool(ok)}


def _g_circle_artifacts(rc: RunConfig, out: Path) -> tuple[int, dict]:
    cfg, ladder = rc.model, rc.ladder
    field = rc.build_field()
    circle = rc.raw.get("run", {}).get("g_circle", {})
    center = _as_complex(circle.get("center", abs(cfg.g)))
    radius = float(circle.get("radius", abs(cfg.g) / 4 or 0.01))
    k = int(circle.get("samples", 8))
    rep = g_analyticity_check(
        cfg, ladder, field, center, radius, n_samples=k, quad_points=rc.quad_points
    )
    tol = float(circle.get("tol", 1e-4))
    ok = all(v <= tol for v in rep.max_pairwise.values())
    write_json(out / "g_circle.json", rep.to_dict())
    return (0 if ok else 1), {"kind": "g-circle", "pass": bool(ok)}


def _run_levels(rc: RunConfig) -> tuple:
    levels = rc.raw.get("run", {}).get("levels", [0, 1])
    return tuple(int(i) for i in levels)


def _cone_check_artifacts(rc: RunConfig, out: Path) -> tuple[int, dict]:
    cfg, ladder = rc.model, rc.ladder
    field = rc.build_field()
    levels = _run_levels(rc)
    trace = run_ladder(cfg, ladder, field, levels=levels,
                       quad_points=rc.quad_points)
    tol = float(rc.raw.get("run", {}).get("cone_tol", 5e-3))
    rep = spectrum_cone_check(cfg, ladder, field, trace, tol=tol, levels=levels)
    write_json(out / "cone_check.json", rep)
    return (0 if rep["pass"] else 1), {"kind": "cone-check", "pass": rep["pass"]}


def _resolvent_scan_artifacts(rc: RunConfig, out: Path) -> tuple[int, dict]:
    cfg, ladder = rc.model, rc.ladder
    field = rc.build_field()
    trace = run_ladder(cfg, ladder, field, levels=(1,), quad_points=rc.quad_points)
    n_samples = int(rc.raw.get("run", {}).get("n_samples", 200))
    rep = resolvent_cone_bound_check(
        cfg, ladder, field, trace, n_samples=n_samples, seed=rc.seed,
        jobs=rc.jobs,
    )
    write_json(
        out / "resolvent_scan.json",
        {k: v for k, v in rep.items() if k != "rows"},
    )
    write_csv(
        out / "resolvent_scan.csv",
        ["re_z", "im_z", "lhs", "dist", "ratio"],
        [
            [r["z"][0], r["z"][1], r["lhs"], r["dist"], r["lhs"] * r["dist"]]
            for r in rep["rows"]
        ],
    )
    # fewer usable samples than requested (sampler guard) fails the scan
    ok = np.isfinite(rep["K"]) and 0 < rep["n_used"] == n_samples
    return (0 if ok else 1), {"kind": "resolvent-scan", "pass": bool(ok)}


def _feasibility_artifacts(rc: RunConfig, out: Path) -> tuple[int, dict]:
    cfg, ladder = rc.model, rc.ladder
    c_generic = float(rc.raw.get("run", {}).get("c_generic", 10.0))
    rep = compute_constants(
        cfg.mu, cfg.nu_floor, nu=cfg.nu, m=cfg.m_cone, c_generic=c_generic
    )
    proposed = {
        "log10_rho0": float(np.log10(ladder.rho0)),
        "log10_rho": float(np.log10(ladder.rho)),
        "log10_g": float(np.log10(abs(cfg.g))) if cfg.g != 0 else -np.inf,
    }
    checks = check_inequalities(rep, proposed, e1=cfg.e1)
    payload = rep.to_dict()
    payload["proposed"] = proposed
    strict_ok = all(c["satisfied"] for c in checks)
    payload["strict_pass"] = strict_ok
    payload["flag"] = None if strict_ok else "practical mode"
    write_json(out / "feasibility.json", payload)
    ok = strict_ok if rc.mode == "strict" else True
    return (0 if ok else 1), {"kind": "feasibility", "pass": bool(ok)}


def _verify_appendix_artifacts(rc: RunConfig, out: Path) -> tuple[int, dict]:
    cfg = rc.model
    rng = np.random.default_rng(rc.seed)
    trials = int(rc.raw.get("run", {}).get("trials", 100))
    configs = [(4, 2), (6, 3), (8, 2)]
    violations = []
    total = 0
    for n_modes, n_max in configs:
        freqs = np.sort(rng.uniform(0.05, 3.0, size=n_modes))
        modes = ModeSet(freqs, np.ones(n_modes), np.zeros(n_modes, dtype=int))
        basis = enumerate_basis(modes, n_max)
        # the same stream as drawing real, then imaginary parts per trial
        z = rng.standard_normal((trials, 2, n_modes))
        reps = verify_standard_estimates(basis, z[:, 0] + 1j * z[:, 1])
        total += trials
        for i in np.nonzero(~reps["pass"])[0]:
            rep = {key: v[i].item() for key, v in reps.items()}
            violations.append({"modes": n_modes, "n_max": n_max, "rep": rep})
        bound = interaction_norm_bound(cfg, basis)
        total += 1
        if not bound["pass"]:
            violations.append({"modes": n_modes, "n_max": n_max, "rep": bound})
    ok = not violations
    write_json(
        out / "verify_appendix.json",
        {"trials": total, "violations": violations, "pass": ok},
    )
    return (0 if ok else 1), {"kind": "verify-appendix", "pass": bool(ok)}


_DISPATCH = {
    "ladder": _ladder_artifacts,
    "fgr": _fgr_artifacts,
    "theta-scan": _theta_scan_artifacts,
    "g-circle": _g_circle_artifacts,
    "cone-check": _cone_check_artifacts,
    "resolvent-scan": _resolvent_scan_artifacts,
    "feasibility": _feasibility_artifacts,
    "verify-appendix": _verify_appendix_artifacts,
}


def dispatch(subcommand: str, rc: RunConfig, out_dir) -> int:
    """Run one subcommand, write its artifacts and manifest, return status."""
    if subcommand not in _DISPATCH:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    out = Path(out_dir)
    t0 = time.perf_counter()
    try:
        code, extras = _DISPATCH[subcommand](rc, out)
        failure = None
    except SpinBosonError as exc:
        code, extras = 2, {"kind": subcommand, "pass": False}
        failure = {"error": type(exc).__name__, "message": str(exc)}
    manifest = run_manifest(rc.raw, wall_time=time.perf_counter() - t0, extras=extras)
    if failure:
        manifest["failure"] = failure
    write_json(out / "manifest.json", manifest)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinboson",
        description="Spectral laboratory for the dilated spin-boson model",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", type=Path, required=False)
    parser.add_argument("--out", type=Path, default=Path("out"))
    parser.add_argument("--mode", choices=("practical", "strict"), default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    text = args.config.read_text() if args.config else "{}"
    try:
        rc = parse_config(text)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.mode is not None:
        rc.mode = args.mode
    if args.jobs is not None:
        rc.jobs = args.jobs
    if args.seed is not None:
        rc.seed = args.seed
    code = dispatch(args.subcommand, rc, args.out)
    print(f"{args.subcommand}: {'pass' if code == 0 else 'FAIL'} (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
