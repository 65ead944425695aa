"""Command-line entry point: validate a config, dispatch a run, emit artifacts.

Subcommands: ladder, fgr, theta-scan, g-circle, cone-check, resolvent-scan,
feasibility, verify-appendix.  Every run writes its report as JSON (grids
additionally as CSV) plus a manifest with the config hash; the exit status
is zero exactly when all checks of the run pass.  In strict mode the
paper-grade smallness windows gate the exit status; practical mode keys
off the structural checks and the practical envelopes.

A run pins every OpenBLAS in the process to one thread and parallelizes
only over ``jobs`` worker threads (``--jobs``, by default the usable CPU
count): the parity-sector eigensolves of each ladder scale and the points
of a resolvent scan.  Reports are therefore the same for any thread
count; the manifest records the budget.  Only the subcommands that solve
load the scipy stack (``dispatch`` imports it before pinning);
``feasibility`` and ``verify-appendix`` run on numpy alone.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import C_GENERIC_MIN, check_inequalities, compute_constants
from .errors import ConfigError, SpinBosonError
from .fock import ModeSet, enumerate_basis, verify_standard_estimates
from .model import (
    IM_THETA_CAP,
    CutoffLadder,
    DiscretizedField,
    ModelConfig,
    interaction_norm_bound,
    shell_norm_report,
)
from .reporting import run_manifest, write_csv, write_json
from .threads import pinned_blas, usable_cpus

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


def _integer(value, name: str, lo: int | None = None) -> int:
    """``value`` if it is an integer, at least ``lo`` (booleans are not)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or (lo is not None and value < lo)
    ):
        bound = "" if lo is None else f" >= {lo}"
        raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")
    return value


def _real(value, name: str, lo: float | None = None, above: bool = False) -> float:
    """``value`` as a finite float, at least ``lo`` (above it if ``above``)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max  # NaN, infinities, huge ints
        or (lo is not None and (value <= lo if above else value < lo))
    ):
        bound = "" if lo is None else f" {'>' if above else '>='} {lo}"
        raise ConfigError(f"{name} must be a finite number{bound}, got {value!r}")
    return float(value)


def _as_complex(value, name: str) -> complex:
    """A real number or an [re, im] pair as a complex number."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError(f"{name}: complex values are [re, im] pairs")
        return complex(_real(value[0], name), _real(value[1], name))
    return complex(_real(value, name), 0.0)


def _complex_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of values")
    return [_as_complex(v, name) for v in value]


def _section(doc: dict, name: str, known) -> dict:
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return section


@dataclass
class RunConfig:
    """Validated run configuration: model, ladder, discretization, run.

    Every run value is parsed here; ``raw`` is the document as given, kept
    for the manifest's hash.
    """

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
    g_list: list
    theta_list: list
    g_circle: dict
    cone_tol: float
    n_samples: int
    samples_per_scale: int
    c_generic: float
    trials: int
    levels: tuple
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

    Unknown keys are rejected, and every value is converted and
    range-checked here, the model, ladder and grid invariants through the
    domain constructors, so a bad document fails with a message naming the
    violated constraint before any work starts.  The list lengths and the
    circle's sample count are checked by the scan that uses them.
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
    model_doc = _section(doc, "model", _MODEL_KEYS)
    ladder_doc = _section(doc, "ladder", _LADDER_KEYS)
    disc_doc = _section(doc, "discretization", _DISC_KEYS)
    run_doc = _section(doc, "run", _RUN_KEYS)

    def real(section, key, default, lo=None, above=False):
        return _real(section.get(key, default), key, lo, above)

    def integer(section, key, default, lo=None):
        return _integer(section.get(key, default), key, lo)

    model = ModelConfig(
        e1=real(model_doc, "e1", 1.0),
        lambda_uv=real(model_doc, "lambda_uv", 1.0),
        mu=real(model_doc, "mu", 0.25),
        g=_as_complex(model_doc.get("g", 0.05), "g"),
        theta=_as_complex(model_doc.get("theta", [0.0, 0.2]), "theta"),
        nu_floor=real(model_doc, "nu_floor", 0.1),
        m_cone=integer(model_doc, "m_cone", 4),
        e0=real(model_doc, "e0", 0.0),
    )
    ladder = CutoffLadder(
        rho0=real(ladder_doc, "rho0", 0.25),
        rho=real(ladder_doc, "rho", 0.5),
        e1=model.e1,
    )
    mode = run_doc.get("mode", "practical")
    if mode not in ("practical", "strict"):
        raise ConfigError("run mode must be 'practical' or 'strict'")
    uv = disc_doc.get("uv_points_per_panel")
    g, theta = model.g, model.theta
    # an absent or empty list takes the default; only a given orbit is
    # checked here; the default steps down where up would leave the strip
    g_list = run_doc.get("g_list")
    g_list = _complex_list(g_list, "g_list") if g_list else [g, g / 2]
    theta_list = run_doc.get("theta_list")
    if theta_list:
        theta_list = _complex_list(theta_list, "theta_list")
        for t in theta_list:
            model.validate_theta(t)
    else:
        step = 0.025j if theta.imag + 0.05 < IM_THETA_CAP else -0.025j
        theta_list = [theta, theta + step, theta + 2 * step]
    circle = _section(run_doc, "g_circle", ("center", "radius", "samples", "tol"))
    levels = run_doc.get("levels", [0, 1])
    if (
        not isinstance(levels, list)
        or sorted(_integer(i, "levels", 0) for i in levels) not in ([0], [1], [0, 1])
    ):
        raise ConfigError(f"levels must list 0, 1 or both once, got {levels!r}")
    rc = RunConfig(
        model=model,
        ladder=ladder,
        n_scales=integer(ladder_doc, "n_scales", 6),
        points_per_shell=integer(disc_doc, "points_per_shell", 8),
        r_max=real(disc_doc, "r_max", 4.0 * model.lambda_uv),
        n_max=integer(disc_doc, "n_max", 2, 0),
        uv_points_per_panel=(
            None if uv is None else _integer(uv, "uv_points_per_panel", 1)
        ),
        mode=mode,
        seed=integer(run_doc, "seed", 0, 0),
        jobs=integer(run_doc, "jobs", usable_cpus(), 1),
        quad_points=integer(run_doc, "quad_points", 16, 1),
        g_list=g_list,
        theta_list=theta_list,
        g_circle={
            "center": _as_complex(circle.get("center", abs(g)), "center"),
            "radius": real(circle, "radius", abs(g) / 4 or 0.01, 0.0, True),
            "samples": integer(circle, "samples", 8),
            "tol": real(circle, "tol", 1e-4, 0.0),
        },
        cone_tol=real(run_doc, "cone_tol", 5e-3, 0.0),
        n_samples=integer(run_doc, "n_samples", 200, 1),
        samples_per_scale=integer(run_doc, "samples_per_scale", 0, 0),
        c_generic=real(run_doc, "c_generic", 10.0, C_GENERIC_MIN),
        trials=integer(run_doc, "trials", 100, 1),
        levels=tuple(levels),
        raw=doc,
    )
    rc.build_field()  # the grid's own checks
    return rc


def _ladder_artifacts(rc: RunConfig, out: Path) -> tuple[int, dict]:
    from .multiscale import (
        check_p1,
        check_p2_p4,
        check_p3,
        extrapolate_limit,
        run_ladder,
    )

    cfg, ladder = rc.model, rc.ladder
    field = rc.build_field()
    samples = rc.samples_per_scale
    trace = run_ladder(cfg, ladder, field, quad_points=rc.quad_points,
                       jobs=rc.jobs, samples_per_scale=samples, seed=rc.seed)
    report = compute_constants(
        cfg.mu, cfg.nu_floor, nu=cfg.nu, m=cfg.m_cone, c_generic=rc.c_generic
    )
    p1 = check_p1(trace, cfg, ladder, log10_C=report.log10_C)
    p3 = check_p3(trace, cfg, ladder, log10_C=report.log10_C)
    extrapolate_limit(trace, cfg, ladder)
    trace.checks["p1"] = p1
    trace.checks["p3"] = p3
    ok = True
    if samples:
        p2_p4 = check_p2_p4(trace)
        # a window sampler that stops at its guard short of the request fails
        for per_scale in p2_p4["p4"].values():
            for entry in per_scale.values():
                ok &= len(entry["samples"]) >= samples
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
    from .diagnostics import fermi_golden_rule

    cfg, ladder = rc.model, rc.ladder
    field = rc.build_field()
    rep = fermi_golden_rule(cfg, ladder, field, rc.g_list,
                            quad_points=rc.quad_points, jobs=rc.jobs)
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
    from .diagnostics import theta_invariance_scan

    cfg, ladder = rc.model, rc.ladder
    field = rc.build_field()
    rep = theta_invariance_scan(cfg, ladder, field, rc.theta_list, levels=rc.levels,
                                quad_points=rc.quad_points, jobs=rc.jobs)
    ok = rep.budget is None or all(
        v <= rep.budget for v in rep.max_pairwise.values()
    )
    write_json(out / "theta_scan.json", rep.to_dict())
    return (0 if ok else 1), {"kind": "theta-scan", "pass": bool(ok)}


def _g_circle_artifacts(rc: RunConfig, out: Path) -> tuple[int, dict]:
    from .diagnostics import g_analyticity_check

    cfg, ladder = rc.model, rc.ladder
    field = rc.build_field()
    circle = rc.g_circle
    rep = g_analyticity_check(
        cfg, ladder, field, circle["center"], circle["radius"],
        n_samples=circle["samples"], quad_points=rc.quad_points, jobs=rc.jobs,
    )
    ok = all(v <= circle["tol"] for v in rep.max_pairwise.values())
    write_json(out / "g_circle.json", rep.to_dict())
    return (0 if ok else 1), {"kind": "g-circle", "pass": bool(ok)}


def _cone_check_artifacts(rc: RunConfig, out: Path) -> tuple[int, dict]:
    from .diagnostics import spectrum_cone_check
    from .multiscale import run_ladder

    cfg, ladder = rc.model, rc.ladder
    field = rc.build_field()
    trace = run_ladder(cfg, ladder, field, levels=rc.levels,
                       quad_points=rc.quad_points, jobs=rc.jobs)
    rep = spectrum_cone_check(cfg, ladder, field, trace, tol=rc.cone_tol,
                              levels=rc.levels)
    write_json(out / "cone_check.json", rep)
    return (0 if rep["pass"] else 1), {"kind": "cone-check", "pass": rep["pass"]}


def _resolvent_scan_artifacts(rc: RunConfig, out: Path) -> tuple[int, dict]:
    from .diagnostics import resolvent_cone_bound_check
    from .multiscale import run_ladder

    cfg, ladder = rc.model, rc.ladder
    field = rc.build_field()
    trace = run_ladder(cfg, ladder, field, levels=(1,), quad_points=rc.quad_points,
                       jobs=rc.jobs)
    n_samples = rc.n_samples
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
    rep = compute_constants(
        cfg.mu, cfg.nu_floor, nu=cfg.nu, m=cfg.m_cone, c_generic=rc.c_generic
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
    trials = rc.trials
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
    # coupling norms of every infrared shell of the run's grid
    field = rc.build_field()
    shells = [
        {"n": n, **shell_norm_report(cfg, field, n)} for n in range(field.n_scales)
    ]
    ok = not violations and all(row["pass"] for row in shells)
    write_json(
        out / "verify_appendix.json",
        {"trials": total, "violations": violations, "shells": shells, "pass": ok},
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
# the subcommands that solve; the other two run on numpy alone
_SOLVING = frozenset(_DISPATCH) - {"feasibility", "verify-appendix"}


def dispatch(subcommand: str, rc: RunConfig, out_dir) -> int:
    """Run one subcommand, write its artifacts and manifest, return status.

    BLAS runs on one thread for the length of the subcommand; the previous
    thread counts are back when this returns or raises.
    """
    if subcommand not in _DISPATCH:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    out = Path(out_dir)
    if subcommand in _SOLVING:
        # maps scipy's OpenBLAS: pinned_blas sees only the libraries mapped
        # when it starts, and one loaded later would run on its own threads
        importlib.import_module(".diagnostics", __package__)
    t0 = time.perf_counter()
    with pinned_blas(1) as blas:
        try:
            code, extras = _DISPATCH[subcommand](rc, out)
            failure = None
        except SpinBosonError as exc:
            code, extras = 2, {"kind": subcommand, "pass": False}
            failure = {"error": type(exc).__name__, "message": str(exc)}
    manifest = run_manifest(rc.raw, wall_time=time.perf_counter() - t0, extras=extras)
    # an empty "blas" list: no OpenBLAS was found, so nothing was pinned
    manifest["threads"] = {"usable_cpus": usable_cpus(), "jobs": rc.jobs, "blas": blas}
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
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker threads (default: the usable CPU count)",
    )
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    text = args.config.read_text() if args.config else "{}"
    try:
        rc = parse_config(text)
        if args.jobs is not None:
            rc.jobs = _integer(args.jobs, "--jobs", 1)
        if args.seed is not None:
            rc.seed = _integer(args.seed, "--seed", 0)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.mode is not None:
        rc.mode = args.mode
    code = dispatch(args.subcommand, rc, args.out)
    print(f"{args.subcommand}: {'pass' if code == 0 else 'FAIL'} (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
