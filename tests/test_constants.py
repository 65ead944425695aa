"""Log-domain constant chain and admissibility windows."""

from math import log10, pi, sin

import pytest

from spinboson import ConfigError, check_inequalities, compute_constants


def mp_log10_C(mu, nu_floor, c):
    """Independent high-precision evaluation of the constant chain."""
    import mpmath as mp

    mp.mp.dps = 60
    D = mp.mpf(10) ** 6 + 10 * mp.mpf(c)
    return float(mp.log10(D) - 3 * mp.log10(mp.sin(mp.mpf(nu_floor) / 2)))


class TestComputeConstants:
    def test_reference_point(self):
        rep = compute_constants(mu=0.25, nu_floor=pi / 16, c_generic=1.0)
        assert rep.log10_C == pytest.approx(mp_log10_C(0.25, pi / 16, 1.0),
                                            abs=1e-12)
        assert rep.log10_C == pytest.approx(9.0261, abs=1e-3)
        assert rep.log10_rho0_max == pytest.approx(-32 * rep.log10_C)
        assert rep.log10_rho0_max == pytest.approx(-288.8, abs=0.5)

    def test_rho_window(self):
        rep = compute_constants(mu=0.25, nu_floor=pi / 16, c_generic=1.0)
        assert rep.log10_rho_max == pytest.approx(
            (log10(0.25) - 4 * rep.log10_C) / 0.25
        )

    def test_mu_monotonicity(self):
        # larger mu loosens the window: at mu -> 1/2 the exponent halves
        lo = compute_constants(mu=0.25, nu_floor=pi / 16, c_generic=1.0)
        hi = compute_constants(mu=0.499999, nu_floor=pi / 16, c_generic=1.0)
        assert hi.log10_rho0_max > lo.log10_rho0_max
        assert hi.log10_rho0_max == pytest.approx(-16 * hi.log10_C, rel=1e-4)

    def test_nu_floor_monotonicity(self):
        wide = compute_constants(mu=0.25, nu_floor=pi / 16, c_generic=1.0)
        narrow = compute_constants(mu=0.25, nu_floor=pi / 32, c_generic=1.0)
        assert narrow.log10_C > wide.log10_C
        assert narrow.log10_rho0_max < wide.log10_rho0_max

    def test_generic_constant_dominance(self):
        # D = 1e6 + 10c: the c term only matters once c > 1e5
        small = compute_constants(mu=0.25, nu_floor=pi / 16, c_generic=10.0)
        big = compute_constants(mu=0.25, nu_floor=pi / 16, c_generic=1e5)
        bigger = compute_constants(mu=0.25, nu_floor=pi / 16, c_generic=2e5)
        assert big.D == pytest.approx(2e6)
        assert bigger.D == pytest.approx(3e6)
        assert small.D == pytest.approx(1e6 + 100)

    def test_cone_aware_lower_bounds(self):
        rep = compute_constants(mu=0.25, nu_floor=0.1, nu=0.2, m=4,
                                c_generic=1.0)
        assert rep.log10_C >= 5.0 - 2.0 * log10(sin(0.2 / 4))
        assert rep.log10_C >= log10(rep.D) - log10(sin(0.2 / 4))

    def test_all_outputs_finite(self):
        for mu in (0.01, 0.25, 0.49):
            for nu_floor in (1e-4, 0.05, pi / 16):
                rep = compute_constants(mu=mu, nu_floor=nu_floor, c_generic=3.0)
                for value in (rep.log10_C, rep.log10_rho0_max,
                              rep.log10_rho_max, rep.log10_g0, rep.log10_gm):
                    assert value == value and abs(value) < 1e9

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            compute_constants(mu=0.6, nu_floor=0.1)
        with pytest.raises(ConfigError):
            compute_constants(mu=0.25, nu_floor=0.0)
        with pytest.raises(ConfigError):
            compute_constants(mu=0.25, nu_floor=0.1, c_generic=0.5)
        with pytest.raises(ConfigError):
            compute_constants(mu=0.25, nu_floor=0.1, m=4)  # m without nu


class TestCheckInequalities:
    def test_boundary_probe_zero_slack(self):
        rep = compute_constants(mu=0.25, nu_floor=pi / 16, c_generic=1.0)
        proposed = {
            "log10_rho0": rep.log10_rho0_max,
            "log10_rho": rep.log10_rho_max,
            "log10_g": rep.log10_g0,
        }
        checks = check_inequalities(rep, proposed)
        for check in checks:
            assert check["satisfied"]
            assert check["slack_log10"] == pytest.approx(0.0, abs=1e-9)

    def test_one_order_violation(self):
        rep = compute_constants(mu=0.25, nu_floor=pi / 16, c_generic=1.0)
        proposed = {
            "log10_rho0": rep.log10_rho0_max + 1.0,
            "log10_rho": rep.log10_rho_max,
            "log10_g": rep.log10_g0,
        }
        checks = {c["id"]: c for c in check_inequalities(rep, proposed)}
        assert not checks["rho0_window"]["satisfied"]
        assert checks["rho0_window"]["slack_log10"] == pytest.approx(-1.0)

    def test_practical_ladder_fails_strict(self):
        from math import log10 as lg

        rep = compute_constants(mu=0.25, nu_floor=0.1, nu=0.2, m=4,
                                c_generic=10.0)
        checks = check_inequalities(
            rep,
            {"log10_rho0": lg(0.2), "log10_rho": lg(0.5), "log10_g": lg(0.05)},
        )
        assert not all(c["satisfied"] for c in checks)
        ids = {c["id"] for c in checks}
        assert {"rho0_window", "rho_window", "g_window",
                "g_cone_window", "rho_cone_window"} == ids

    def test_missing_key_rejected(self):
        rep = compute_constants(mu=0.25, nu_floor=0.1)
        with pytest.raises(ConfigError):
            check_inequalities(rep, {"log10_rho0": -1.0})
