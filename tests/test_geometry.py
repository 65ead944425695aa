"""Cones, level boxes, distances, and the nested-cone step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from spinboson import (
    Box,
    Cone,
    ConfigError,
    CutoffLadder,
    ModelConfig,
    cone_contains,
    dist_to_cone,
    verify_cone_chain,
)
from spinboson.geometry import cone_complement_distance

NU = 0.2


def brute_force_dist(cone: Cone, z: complex, samples: int = 10_000) -> float:
    """Dense minimization over boundary rays with one local refinement."""
    if cone_contains(cone, z):
        return 0.0
    best = abs(z - cone.vertex)
    scale = max(1.0, 4.0 * abs(z - cone.vertex))
    for direction in cone.edge_directions():
        xs = np.linspace(0.0, scale, samples)
        for _ in range(2):
            pts = cone.vertex + xs * direction
            dists = np.abs(pts - z)
            k = int(np.argmin(dists))
            best = min(best, float(dists[k]))
            lo, hi = xs[max(0, k - 1)], xs[min(len(xs) - 1, k + 1)]
            xs = np.linspace(lo, hi, samples)
    return best


class TestConeMembership:
    def test_vertex_contained(self):
        cone = Cone(1.0 + 0.5j, NU, 4)
        assert cone_contains(cone, 1.0 + 0.5j)

    def test_axis_ray_contained(self):
        cone = Cone(0.0, NU, 4)
        assert cone_contains(cone, np.exp(-1j * NU))

    def test_beyond_aperture_excluded(self):
        cone = Cone(0.0, NU, 4)
        z = np.exp(-1j * (NU + 2 * NU / 4))
        assert not cone_contains(cone, z)

    def test_edge_ray_boundary(self):
        cone = Cone(0.0, NU, 4)
        z = 2.0 * np.exp(-1j * (NU + NU / 4))
        assert dist_to_cone(cone, z) < 1e-12

    def test_aperture_validation(self):
        with pytest.raises(ConfigError):
            Cone(0.0, NU, 3)
        with pytest.raises(ConfigError):
            Cone(0.0, -0.1, 4)


class TestConeDistance:
    def test_interior_zero(self):
        cone = Cone(0.0, NU, 4)
        assert dist_to_cone(cone, 0.5 * np.exp(-1j * NU)) == 0.0

    def test_perpendicular_point(self):
        cone = Cone(0.0, NU, 4)
        t = 0.01
        z = 1j * t * np.exp(-1j * NU)  # perpendicular to the axis at vertex
        got = dist_to_cone(cone, z)
        # angle from the upper edge is pi/2 - nu/m
        want = t * np.sin(np.pi / 2 - NU / 4)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(brute_force_dist(cone, z), rel=1e-4)

    def test_behind_apex_full_distance(self):
        cone = Cone(0.0, NU, 4)
        z = -1.0 + 0.2j
        assert dist_to_cone(cone, z) == pytest.approx(abs(z), rel=1e-9)

    @given(
        re=st.floats(-3, 3), im=st.floats(-3, 3),
        vre=st.floats(-1, 1), vim=st.floats(-1, 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_membership_iff_zero_distance(self, re, im, vre, vim):
        cone = Cone(complex(vre, vim), NU, 4)
        z = complex(re, im)
        d = dist_to_cone(cone, z)
        assert cone_contains(cone, z) == (d == 0.0)

    @given(re=st.floats(-2, 2), im=st.floats(-2, 2),
           wre=st.floats(-1, 1), wim=st.floats(-1, 1))
    @settings(max_examples=40, deadline=None)
    def test_translation_equivariance(self, re, im, wre, wim):
        w = complex(wre, wim)
        z = complex(re, im)
        base = Cone(0.0, NU, 5)
        moved = Cone(w, NU, 5)
        assert dist_to_cone(moved, z) == pytest.approx(
            dist_to_cone(base, z - w), abs=1e-13
        )

    def test_monotone_along_axis(self, rng):
        # retreating the vertex along the axis only enlarges the cone
        for _ in range(50):
            v = complex(*rng.uniform(-1, 1, 2))
            t = rng.uniform(0, 2)
            inner = Cone(v, NU, 4)
            outer = Cone(v - t * np.exp(-1j * NU), NU, 4)
            assert dist_to_cone(outer, inner.vertex) <= 1e-14

    def test_brute_force_random_instances(self, rng):
        for _ in range(25):
            cone = Cone(complex(*rng.uniform(-1, 1, 2)), NU, 4)
            z = complex(*rng.uniform(-2, 2, 2))
            got = dist_to_cone(cone, z)
            ref = brute_force_dist(cone, z)
            assert got == pytest.approx(ref, abs=1e-6)
            assert got <= ref + 1e-12  # sampling only overestimates

    def test_thousand_random_membership_distance(self, rng):
        cone = Cone(0.3 - 0.1j, NU, 4)
        for _ in range(1000):
            z = complex(*rng.uniform(-2, 2, 2))
            d = dist_to_cone(cone, z)
            assert cone_contains(cone, z) == (d == 0.0)
            assert d >= 0.0


def literal_contains(variant, cfg, i, z, rho1=None, rho_n=None, lam=None) -> bool:
    """The defining inequalities of B1, Bn and Wn, evaluated one by one on a
    single number: the region test the boxes replaced, kept as an oracle."""
    z = complex(z)
    delta = cfg.e1 - cfg.e0
    level = cfg.e1 if i == 1 else cfg.e0
    sn = np.sin(cfg.nu)
    if variant == "Wn":
        return (
            abs(z.real - level) <= 0.5 * delta
            and lam.imag - 0.25 * rho_n * sn <= z.imag <= 0.125 * delta * sn
        )
    in_box = (
        abs(z.real - level) <= 0.5 * delta
        and -0.5 * rho1 * sn <= z.imag <= 0.125 * delta * sn
    )
    if variant == "B1":
        return in_box
    return in_box and z.imag >= lam.imag - 0.25 * rho_n * sn


def nudged(x: float) -> list:
    """x and its two floating-point neighbours."""
    return [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]


def box_cfg(nu: float) -> ModelConfig:
    return ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=0.05, theta=1j * nu)


class TestRegions:
    def test_b1_box(self):
        box = Box.b1(box_cfg(0.15), 1, 0.2)
        assert box.contains(1.0 + 0.01j)
        assert not box.contains(1.6)
        assert not box.contains(1.0 - 1j)

    def test_bn_floor_anchored(self):
        lam = 1.0 - 0.001j
        box = Box.bn(box_cfg(NU), 1, 0.2, 0.05, lam)
        floor = lam.imag - 0.25 * 0.05 * np.sin(NU)
        assert box.contains(1.0 + 1j * (floor + 1e-6))
        assert not box.contains(1.0 + 1j * (floor - 1e-6))

    def test_wn_window_ignores_b1_floor(self):
        lam = 1.0 - 0.02j  # below the B1 floor for this rho1
        assert Box.wn(box_cfg(NU), 1, 0.05, lam).contains(lam)
        assert not Box.bn(box_cfg(NU), 1, 0.2, 0.05, lam).contains(lam)

    # (variant, rho1, rho_n, lam): Bn with its eigenvalue inside and below
    # the B1 floor, so either floor decides
    CASES = [
        ("B1", 0.2, None, None),
        ("Bn", 0.2, 0.05, 1.0 - 0.001j),
        ("Bn", 0.2, 0.05, 1.0 - 0.02j),
        ("Wn", None, 0.05, 1.0 - 0.001j),
        ("Wn", None, 0.05, 1.0 - 0.02j),
    ]

    @staticmethod
    def build(variant, cfg, i, rho1, rho_n, lam) -> Box:
        if variant == "B1":
            return Box.b1(cfg, i, rho1)
        if variant == "Bn":
            return Box.bn(cfg, i, rho1, rho_n, lam)
        return Box.wn(cfg, i, rho_n, lam)

    @pytest.mark.parametrize("variant, rho1, rho_n, lam", CASES)
    @pytest.mark.parametrize("i", [0, 1])
    def test_contains_matches_literal_inequalities(
        self, rng, variant, rho1, rho_n, lam, i
    ):
        cfg = box_cfg(NU)
        lam = None if lam is None else lam - 1.0 + (cfg.e1 if i == 1 else cfg.e0)
        box = self.build(variant, cfg, i, rho1, rho_n, lam)
        # random points around the box and points exactly on every edge and
        # one ulp outside it
        random = (box.level + rng.uniform(-0.8, 0.8, 2000)
                  + 1j * rng.uniform(-0.05, 0.05, 2000))
        left, right = box.level - box.half_width, box.level + box.half_width
        mid = 0.5 * (box.lo + box.hi)
        edges = [complex(re, mid) for x in (left, right) for re in nudged(x)]
        edges += [complex(box.level, im) for y in (box.lo, box.hi) for im in nudged(y)]
        edges += [complex(re, im) for re in (left, right) for im in (box.lo, box.hi)]
        zs = np.concatenate([random, edges])
        want = [
            literal_contains(variant, cfg, i, z, rho1=rho1, rho_n=rho_n, lam=lam)
            for z in zs
        ]
        mask = box.contains(zs)
        assert mask.dtype == bool and mask.tolist() == want
        assert [box.contains(z) for z in zs] == want
        assert all(type(box.contains(z)) is bool for z in edges)
        assert 0 < sum(want) < len(want)


class TestConeChain:
    @pytest.fixture
    def chain_cfg(self):
        return ModelConfig(e1=1.0, lambda_uv=1.0, mu=0.25, g=1e-4, theta=0.2j)

    def test_zero_shift_maximal_slack(self, chain_cfg, ladder):
        lam = 1.0 - 0.001j
        rep = verify_cone_chain(lam, lam, ladder, 2, chain_cfg)
        assert rep["pass"], rep

    def test_admissible_shift(self, chain_cfg, ladder):
        n = 2
        shift = abs(chain_cfg.g) * ladder.cutoff(n) ** (1 + chain_cfg.mu / 2)
        lam = 1.0 - 0.001j
        rep = verify_cone_chain(lam, lam + shift * 1j, ladder, n, chain_cfg)
        assert rep["pass"], rep

    def test_oversized_shift_detected(self, chain_cfg, ladder):
        n = 2
        lam = 1.0 - 0.001j
        bad = lam + 0.5 * ladder.cutoff(n) * 1j
        rep = verify_cone_chain(lam, bad, ladder, n, chain_cfg)
        assert not rep["pass"]
        assert "witness" in rep

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.51, 0.52, 0.6])
    def test_inner_step_sees_rho_only(self, chain_cfg, rho):
        """gap_inner / bound = 10 (0.25 - 0.39 rho) / rho for any lambda, so
        every step fails once rho > 0.25 / 0.49 = 0.5102, even a still one."""
        lad = CutoffLadder(0.25, rho, e1=1.0)
        for lam in (1.0 - 0.001j, 0.02 - 0.3j):
            for n in (1, 3):
                rep = verify_cone_chain(lam, lam, lad, n, chain_cfg)
                ratio = rep["gap_inner"] / rep["gap_inner_bound"]
                assert ratio == pytest.approx(10 * (0.25 - 0.39 * rho) / rho, rel=1e-9)
                assert rep["pass"] == (rho <= 0.25 / 0.49)

    def test_gap_bounds_quantitative(self, chain_cfg, ladder):
        lam = 1.0 - 0.001j
        rep = verify_cone_chain(lam, lam, ladder, 3, chain_cfg)
        assert rep["gap_outer"] >= rep["gap_outer_bound"] * (1 - 1e-9)
        assert rep["gap_inner"] >= rep["gap_inner_bound"] * (1 - 1e-9)


def test_cone_complement_distance_coaxial():
    # same-axis cones offset by d along the axis: gap = d sin(nu/m)
    nu, m, d = 0.2, 4, 0.3
    outer = Cone(0.0, nu, m)
    inner = Cone(d * np.exp(-1j * nu), nu, m)
    got = cone_complement_distance(inner, outer)
    assert got == pytest.approx(d * np.sin(nu / m), rel=1e-6)


def scanned_complement_distance(inner: Cone, outer: Cone, samples: int = 64) -> float:
    """The gap by a geometric scan of the outer edge rays plus a bounded
    scalar minimization (the distance to the convex inner cone is convex
    along each ray)."""
    if dist_to_cone(outer, inner.vertex) > 0.0:
        return 0.0
    scale = abs(inner.vertex - outer.vertex) + 1.0
    best = np.inf
    for direction in outer.edge_directions():

        def f(x: float) -> float:
            return dist_to_cone(inner, outer.vertex + x * direction)

        xs = np.concatenate([[0.0], np.geomspace(1e-9 * scale, 1e6 * scale, samples)])
        vals = [f(x) for x in xs]
        k = int(np.argmin(vals))
        lo = xs[max(0, k - 1)]
        hi = xs[min(len(xs) - 1, k + 1)]
        res = minimize_scalar(f, bounds=(lo, hi), method="bounded")
        best = min(best, float(res.fun), min(vals))
    return best


def projected_vertex_distance(inner: Cone, outer: Cone) -> float:
    """Distance from the inner vertex to the outer edge rays by projection."""
    p = inner.vertex - outer.vertex
    best = np.inf
    for d in outer.edge_directions():
        t = max(0.0, (np.conj(d) * p).real)
        best = min(best, abs(p - t * d))
    return best


class TestConeComplementDistance:
    @staticmethod
    def random_nested(gen):
        nu = gen.uniform(0.1, 0.39)
        m = int(gen.integers(4, 9))
        outer = Cone(complex(*gen.uniform(-1, 1, 2)), nu, m)
        offset = 10.0 ** gen.uniform(-6, 0)
        angle = nu + gen.uniform(-1, 1) * nu / m
        return Cone(outer.vertex + offset * np.exp(-1j * angle), nu, m), outer, offset

    def test_closed_form_against_projection_and_scan(self, rng):
        for _ in range(2000):
            inner, outer, offset = self.random_nested(rng)
            got = cone_complement_distance(inner, outer)
            # rounding of the vertices costs every route eps * |offset|,
            # so agreement is measured against the vertex offset
            assert abs(got - projected_vertex_distance(inner, outer)) <= 1e-14 * offset
            assert abs(got - scanned_complement_distance(inner, outer)) <= 1e-9

    def test_not_nested_is_zero(self):
        outer = Cone(0.0, NU, 4)
        behind = Cone(-0.1 * np.exp(-1j * NU), NU, 4)
        beside = Cone(0.1 * np.exp(-1j * (NU + 2 * NU / 4)), NU, 4)
        assert cone_complement_distance(behind, outer) == 0.0
        assert cone_complement_distance(beside, outer) == 0.0
        assert cone_complement_distance(outer, outer) == 0.0

    def test_shapes_must_match(self):
        with pytest.raises(ConfigError):
            cone_complement_distance(Cone(0.0, NU, 4), Cone(0.0, NU, 5))
