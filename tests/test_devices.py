"""Device model unit tests.

Expected currents and derivatives are frozen from hand evaluation of the
square law, not from the code under test.  P-channel devices exist only
inside the engine, which evaluates them on the N-channel law with their
terminals swapped, so their tests go through the engine's residual and
Jacobian (the one_fet fixture).  Capacitor companions exist only inside
the engine's transient too, so TestCompanions reads them off its waveforms.
"""

import dataclasses

import numpy as np
import pytest

from mvlsim.devices import (
    FetModelCard,
    TechnologyCard,
    preset,
    preset_names,
)
from mvlsim.engine import SolveOptions, transient
from mvlsim.netlist import parse

from helpers import square_law_alloc

N = FetModelCard("n", 0.3, 1e-4, 0.05, 8e-17, 6e-17)
P = FetModelCard("p", -0.3, 1e-4, 0.05, 8e-17, 6e-17)


def nfet(card, vgs, vds):
    """(id, gm, gds) of an N card by square_law; numpy scalars for scalars."""
    return square_law_alloc(card.vth, card.k, card.lam, vgs, vds)


class TestRegions:
    def test_cutoff_is_exactly_zero(self):
        for vgs in (0.3, 0.2, 0.0, -1.0):
            assert nfet(N, vgs, 1.0) == (0.0, 0.0, 0.0)

    def test_saturation_oracle(self):
        # vov=0.6, cl=1.05: i = 0.5*1e-4*0.36*1.05, gm = 1e-4*0.6*1.05,
        # gds = 0.5*1e-4*0.36*0.05 (hand computed)
        i, gm, gds = nfet(N, 0.9, 1.0)
        assert i == pytest.approx(1.89e-5, rel=1e-12)
        assert gm == pytest.approx(6.3e-5, rel=1e-12)
        assert gds == pytest.approx(9e-7, rel=1e-12)

    def test_triode_oracle(self):
        # vov=0.6, vds=0.2, cl=1.01, q=0.1: i = 1e-4*0.1*1.01,
        # gm = 1e-4*0.2*1.01, gds = 1e-4*0.4*1.01 + 1e-4*0.1*0.05
        i, gm, gds = nfet(N, 0.9, 0.2)
        assert i == pytest.approx(1.01e-5, rel=1e-12)
        assert gm == pytest.approx(2.02e-5, rel=1e-12)
        assert gds == pytest.approx(4.09e-5, rel=1e-12)

    def test_saturation_without_lambda(self):
        card = FetModelCard("n", 0.3, 2e-4, 0.0, 0.0)
        i, gm, gds = nfet(card, 1.2, 2.0)
        assert i == pytest.approx(8.1e-5, rel=1e-12)
        assert gm == pytest.approx(1.8e-4, rel=1e-12)
        assert gds == 0.0

    def test_current_increases_with_vgs_and_vds(self):
        i1 = nfet(N, 0.7, 0.6)[0]
        i2 = nfet(N, 0.9, 0.6)[0]
        i3 = nfet(N, 0.9, 1.1)[0]
        assert 0.0 < i1 < i2 < i3


class TestSymmetries:
    def test_p_mirrors_n_exactly(self, one_fet):
        # the p device at (vgs, vds) carries minus the current of the n
        # device at (-vgs, -vds), with the same gm and gds
        p_fet, n_fet = one_fet(P), one_fet(N)
        for vgs in (-1.2, -0.7, -0.4, 0.0, 0.5):
            for vds in (-1.2, -0.3, 0.0, 0.4, 1.0):
                fp, jp = p_fet(vgs, vds)
                fn, jn = n_fet(-vgs, -vds)
                assert np.array_equal(fp, -fn)
                assert np.array_equal(jp, jn)

    def test_arrays_match_scalar_calls_bitwise(self):
        vgs, vds = np.meshgrid(np.linspace(-1.3, 1.3, 27),
                               np.concatenate((np.linspace(-1.2, 1.2, 25),
                                               [-1e-3, -0.0, 0.0, 1e-3])))
        arrays = nfet(N, vgs, vds)
        for a, b in np.ndindex(vgs.shape):
            scalar = nfet(N, float(vgs[a, b]), float(vds[a, b]))
            for arr, value in zip(arrays, scalar):
                assert arr[a, b] == value
                assert np.signbit(arr[a, b]) == np.signbit(value)

    def test_reversed_conduction_is_antisymmetric(self):
        # swapping drain and source negates the current: the device with
        # (vgs, vds) equals minus the device with (vgs - vds, -vds).
        # dyadic voltages keep vgs - vds exact so the match is bitwise
        for vgs in (0.5, 1.0, 1.25):
            for vds in (0.25, 0.5, 1.0):
                i_fwd, gm_fwd, gds_fwd = nfet(N, vgs, vds)
                i_rev, gm_rev, gds_rev = nfet(N, vgs - vds, -vds)
                assert i_rev == -i_fwd
                assert gm_rev == -gm_fwd
                assert gds_rev == gm_fwd + gds_fwd

    def test_reverse_region_conducts(self):
        i, _, _ = nfet(N, 0.9, -0.5)
        assert i < 0.0

    def test_continuity_through_vds_zero(self):
        eps = 1e-9
        below = nfet(N, 0.9, -eps)[0]
        above = nfet(N, 0.9, eps)[0]
        assert abs(below - above) < 1e-12


def where_square_law(vth, k, lam, vgs, vds):
    """The square law written with np.where on every reversed output: the
    oracle for square_law's shorter form."""
    rev = vds < 0.0
    vgs = np.where(rev, vgs - vds, vgs)
    vds = np.abs(vds)
    vov = np.maximum(vgs - vth, 0.0)
    ve = np.minimum(vds, vov)
    cl = 1.0 + lam * vds
    kq = k * (ve * (vov - 0.5 * ve))
    i = kq * cl
    gm = k * ve * cl
    gds = k * (vov - ve) * cl + kq * lam
    return np.where(rev, -i, i), np.where(rev, -gm, gm), np.where(rev, gm + gds, gds)


class TestFormulation:
    @staticmethod
    def assert_bitwise(vth, k, lam, vgs, vds):
        got = square_law_alloc(vth, k, lam, vgs, vds)
        want = where_square_law(vth, k, lam, vgs, vds)
        for g, w in zip(got, want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    def test_random_batches_match_the_where_form_bitwise(self):
        rng = np.random.default_rng(20240517)
        for _ in range(200):
            m = 48
            vth = rng.choice([0.3, 0.45, 0.0], m)
            k = rng.uniform(1e-5, 1e-3, m)
            lam = rng.choice([0.05, 0.0], m)
            vgs = rng.uniform(-1.5, 1.5, m)
            vds = rng.uniform(-1.5, 1.5, m)
            vds[rng.random(m) < 0.1] = 0.0
            vds[rng.random(m) < 0.1] = -0.0
            vgs[rng.random(m) < 0.1] = -0.0
            self.assert_bitwise(vth, k, lam, vgs, vds)

    def test_edges_match_the_where_form_bitwise(self):
        vth, k, lam = 0.3, 1e-4, 0.05
        for vgs in (-0.0, 0.0, vth, 0.9, -0.9):
            vov = max(vgs - vth, 0.0)
            for vds in (0.0, -0.0, vov, -vov, 1e-3, -1e-3, 1.2, -1.2):
                self.assert_bitwise(vth, k, lam, np.array([vgs]), np.array([vds]))
                self.assert_bitwise(vth, k, lam, vgs, vds)


class TestContinuity:
    def test_pinchoff_boundary_values_and_slopes(self):
        vgs = 0.9
        vov = vgs - N.vth
        eps = 1e-9
        tri = nfet(N, vgs, vov - eps)
        sat = nfet(N, vgs, vov + eps)
        for a, b in zip(tri, sat):
            assert a == pytest.approx(b, rel=1e-6, abs=1e-12)

    def test_pinchoff_boundary_exact_match(self):
        # at vds == vov both region formulas coincide algebraically
        vgs, k, lam = 0.9, N.k, N.lam
        vov = vgs - N.vth
        i, gm, gds = nfet(N, vgs, vov)
        cl = 1.0 + lam * vov
        assert i == pytest.approx(0.5 * k * vov * vov * cl, rel=1e-15)
        assert gm == pytest.approx(k * vov * cl, rel=1e-15)
        assert gds == pytest.approx(0.5 * k * vov * vov * lam, rel=1e-15)

    def test_cutoff_boundary(self):
        eps = 1e-9
        i_below = nfet(N, N.vth - eps, 0.8)[0]
        i_above = nfet(N, N.vth + eps, 0.8)[0]
        assert i_below == 0.0
        assert abs(i_above) < 1e-12


class TestDerivatives:
    @pytest.mark.parametrize("card", [N, P], ids=["nfet", "pfet"])
    def test_finite_difference_agreement(self, card, one_fet):
        # the drain row of the engine's Jacobian against central differences
        # of its residual; both carry the drain's gmin shunt
        fet = one_fet(card)
        rng = np.random.default_rng(20260814)
        h = 1e-6
        checked = 0
        while checked < 100:
            vgs = float(rng.uniform(-1.5, 1.5))
            vds = float(rng.uniform(-1.5, 1.5))
            vg, vd = (vgs, vds) if card.polarity == "n" else (-vgs, -vds)
            vth = abs(card.vth)
            # skip points near region boundaries where C1 but not C2
            if min(abs(vg - vth), abs(vd), abs(vg - vth - vd)) < 1e-3:
                continue
            gm, gds = fet(vgs, vds)[1][1, :2]
            fd_gm = (fet(vgs + h, vds)[0][1] - fet(vgs - h, vds)[0][1]) / (2 * h)
            fd_gds = (fet(vgs, vds + h)[0][1] - fet(vgs, vds - h)[0][1]) / (2 * h)
            assert gm == pytest.approx(fd_gm, rel=1e-6, abs=1e-12)
            assert gds == pytest.approx(fd_gds, rel=1e-6, abs=1e-12)
            checked += 1


class TestCardValidation:
    def test_polarity_checked(self):
        with pytest.raises(ValueError):
            FetModelCard("x", 0.3, 1e-4, 0.0, 0.0)

    def test_threshold_sign_convention(self):
        with pytest.raises(ValueError):
            FetModelCard("n", -0.1, 1e-4, 0.0, 0.0)
        with pytest.raises(ValueError):
            FetModelCard("p", 0.1, 1e-4, 0.0, 0.0)

    def test_positive_k(self):
        with pytest.raises(ValueError):
            FetModelCard("n", 0.3, 0.0, 0.0, 0.0)

    def test_nonnegative_lambda_and_caps(self):
        with pytest.raises(ValueError):
            FetModelCard("n", 0.3, 1e-4, -0.01, 0.0)
        with pytest.raises(ValueError):
            FetModelCard("n", 0.3, 1e-4, 0.0, -1e-18)
        with pytest.raises(ValueError):
            FetModelCard("n", 0.3, 1e-4, 0.0, 0.0, -1e-18)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["vth", "k", "lam", "cg", "cd"])
    def test_non_finite_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            dataclasses.replace(N, **{field: value})

    def test_technology_card_needs_both_polarities(self):
        with pytest.raises(ValueError):
            TechnologyCard("t", nfet=N, pfet=N)


def ramp_run(rule, pwl, load, tran):
    """Transient under rule of the source v1 (in to ground) on pwl into load."""
    net = parse(f"* ramp\nv1 in 0 pwl({pwl})\n{load}{tran}\n.end\n")
    return transient(net, opts=SolveOptions(integration=rule))


def assert_rc_follows_the_recurrence(rule):
    """An RC driven by a PWL ramp, with a 0 F capacitor across its resistor,
    on steps that grow and shrink between 3 ps and 30 ps: at each accepted
    point, KCL at out with the companion of the rule on that point's step h,
    geq = C/h (2C/h) and ihist = -geq*v_prev (less i_prev); the 0 F
    capacitor adds nothing."""
    r, c, trap = 1e3, 1e-12, rule == "trapezoidal"
    ws = ramp_run(rule, "0 0 1n 1 3n 1", "r1 in out 1k\nc1 out 0 1p\nc0 in out 0\n",
                  ".tran 10p 3n 200p")
    t, out = ws.times, ws.voltage("out").values
    assert len(t) > 200 and np.ptp(np.diff(t)) > 2e-11
    v_in = np.interp(t, [0.0, 1e-9, 3e-9], [0.0, 1.0, 1.0])
    v, i = 0.0, 0.0  # the DC point: the capacitor at 0 V carries no current
    assert out[0] == v
    for k in range(1, len(t)):
        geq = (2.0 if trap else 1.0) * c / (t[k] - t[k - 1])
        ihist = -geq * v - (i if trap else 0.0)
        v = (v_in[k] / r - ihist) / (1.0 / r + geq)
        i = geq * v + ihist
        assert out[k] == pytest.approx(v, rel=1e-12), (rule, k)


class TestCompanions:
    def test_backward_euler_values(self):
        assert_rc_follows_the_recurrence("backward_euler")

    def test_trapezoidal_values(self):
        assert_rc_follows_the_recurrence("trapezoidal")

    def test_linear_ramp_current(self):
        # 1.2 fF ramped at 1 V/ns carries C*dv/dt = 1.2 uA on every backward
        # Euler step of the ramp, and nothing once the source holds
        ws = ramp_run("backward_euler", "0 0 1n 1 3n 1", "c1 in 0 1.2f\n",
                      ".tran 10p 3n 200p")
        t, i = ws.times, -ws.current("v1").values
        ramp = (t > 0.0) & (t <= 1e-9)
        assert np.count_nonzero(ramp) > 10
        assert i[ramp] == pytest.approx(np.full(np.count_nonzero(ramp), 1.2e-6), rel=1e-12)
        assert np.all(i[~ramp] == 0.0)

    def test_trapezoidal_ramp_steady_state(self):
        # an RC (tau = 50 ps) on a 1 V/ns ramp settles to the ramp current
        # C*dv/dt = 1 mA, which the trapezoidal companion then keeps exactly
        ws = ramp_run("trapezoidal", "0 0 3n 3", "r1 in out 50\nc1 out 0 1p\n",
                      ".tran 10p 3n 30p")
        t, i = ws.times, -ws.current("v1").values
        settled = t >= 1.5e-9
        assert np.count_nonzero(settled) > 40
        assert i[settled] == pytest.approx(np.full(np.count_nonzero(settled), 1e-3), rel=1e-12)


class TestPresets:
    def test_names(self):
        assert preset_names() == ("cmos32", "gnrfet32")

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="cmos32"):
            preset("finfet7")

    def test_cards_are_consistent(self):
        for name in preset_names():
            t = preset(name)
            assert t.name == name
            assert t.nfet.polarity == "n" and t.pfet.polarity == "p"
            assert t.nfet.vth == -t.pfet.vth
            assert t.nfet.k == t.pfet.k

    def test_gnrfet_ratios(self):
        cm, gn = preset("cmos32"), preset("gnrfet32")
        assert gn.nfet.k == 30.0 * cm.nfet.k
        assert gn.nfet.cg == cm.nfet.cg / 4.0
        assert gn.nfet.cd == cm.nfet.cd / 4.0
        assert gn.nfet.vth == cm.nfet.vth
        assert gn.pfet.vth == cm.pfet.vth
