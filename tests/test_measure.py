import math

import numpy as np
import pytest
from scipy import integrate

from fresnelpseudo import measure
from fresnelpseudo.density import PseudoParams, density
from fresnelpseudo.errors import DomainError, QuadratureFailure
from fresnelpseudo.measure import (
    CylinderEvent,
    box_kernel_integral,
    cylinder_measure,
    line_total,
)

INF = math.inf


class TestEventValidation:
    def test_requires_increasing_positive_times(self):
        with pytest.raises(DomainError):
            CylinderEvent((1.0, 0.5), ((-1, 1), (-1, 1)))
        with pytest.raises(DomainError):
            CylinderEvent((0.0, 1.0), ((-1, 1), (-1, 1)))
        with pytest.raises(DomainError):
            CylinderEvent((), ())

    def test_requires_matching_lengths_and_ordered_boxes(self):
        with pytest.raises(DomainError):
            CylinderEvent((1.0,), ((-1, 1), (0, 2)))
        with pytest.raises(DomainError):
            CylinderEvent((1.0,), ((2.0, -1.0),))
        with pytest.raises(DomainError):
            CylinderEvent((1.0,), ((1.0, 1.0),))

    def test_unbounded_outer_box_refused(self):
        ev = CylinderEvent((0.5, 1.0), ((0.0, INF), (-1.0, 1.0)))
        with pytest.raises(QuadratureFailure):
            cylinder_measure(ev, 2.0, 0.5)


class TestTotalMass:
    @pytest.mark.parametrize(
        "alpha,p,t",
        [(2.0, 0.5, 1.0), (2.5, 0.3, 0.6), (3.0, 0.8, 1.5), (1.5, 0.5, 1.0)],
    )
    def test_line_total_is_one(self, alpha, p, t):
        assert line_total(alpha, p, t) == pytest.approx(1.0, abs=1e-8)

    def test_line_total_takes_each_tail_once(self, monkeypatch):
        calls = []
        tail = measure.airy_cdf_tail
        monkeypatch.setattr(measure, "airy_cdf_tail", lambda c, *rest: calls.append(c) or tail(c, *rest))
        line_total(3.0, 0.4, 1.0)
        assert sorted(calls) == [-8.0, 8.0]

    def test_full_line_cylinders(self):
        one = CylinderEvent((1.0,), ((-INF, INF),))
        assert cylinder_measure(one, 2.0, 0.5) == pytest.approx(1.0, abs=1e-8)
        two = CylinderEvent((0.4, 1.0), ((-INF, INF), (-INF, INF)))
        assert cylinder_measure(two, 2.5, 0.3) == pytest.approx(1.0, abs=1e-8)
        three = CylinderEvent((0.4, 1.0, 1.7), ((-INF, INF),) * 3)
        assert cylinder_measure(three, 3.0, 0.7) == pytest.approx(1.0, abs=1e-8)

    def test_trailing_full_line_equals_shorter_event(self):
        short = cylinder_measure(CylinderEvent((0.5,), ((-1.0, 1.0),)), 2.0, 0.5)
        long = cylinder_measure(
            CylinderEvent((0.5, 1.2), ((-1.0, 1.0), (-INF, INF))), 2.0, 0.5
        )
        assert long == pytest.approx(short * line_total(2.0, 0.5, 0.7), abs=1e-10)


class TestSingleTime:
    @pytest.mark.parametrize("box", [(-1.0, 2.0), (2.5, 4.0), (-6.0, -3.0)])
    def test_matches_direct_density_quadrature(self, box):
        got = cylinder_measure(CylinderEvent((1.0,), (box,)), 2.0, 0.5)
        want, _ = integrate.quad(
            lambda x: density(x, PseudoParams(2.0, 0.5, 1.0)), *box, limit=400, epsabs=1e-12
        )
        assert got == pytest.approx(want, abs=1e-9)

    def test_negative_boxes_exist_at_order_two(self):
        """The kernel's trough between the first oscillation nodes
        carries strictly negative mass."""
        box = (math.sqrt(3.0 * math.pi), math.sqrt(7.0 * math.pi))
        val = cylinder_measure(CylinderEvent((1.0,), (box,)), 2.0, 0.5)
        assert val < -0.1

    def test_semi_infinite_split_recovers_total(self):
        up = cylinder_measure(CylinderEvent((1.0,), ((1.5, INF),)), 2.0, 0.5)
        down = cylinder_measure(CylinderEvent((1.0,), ((-INF, 1.5),)), 2.0, 0.5)
        assert up + down == pytest.approx(line_total(2.0, 0.5, 1.0), abs=2e-9)

    def test_additivity(self):
        def m(a, b):
            return cylinder_measure(CylinderEvent((1.0,), ((a, b),)), 2.5, 0.4)

        assert m(-1.0, 0.5) + m(0.5, 2.0) == pytest.approx(m(-1.0, 2.0), abs=1e-8)


class TestMultiTime:
    def test_two_time_against_dblquad(self):
        ev = CylinderEvent((0.5, 1.2), ((-1.0, 1.0), (0.0, 2.0)))
        got = cylinder_measure(ev, 2.0, 0.5)
        pp1 = PseudoParams(2.0, 0.5, 0.5)
        pp2 = PseudoParams(2.0, 0.5, 0.7)
        want, _ = integrate.dblquad(
            lambda y, x: density(x, pp1) * density(y - x, pp2),
            -1.0,
            1.0,
            0.0,
            2.0,
            epsabs=1e-10,
        )
        assert got == pytest.approx(want, abs=5e-9)

    def test_two_time_inner_additivity(self):
        def m(a, b):
            ev = CylinderEvent((0.5, 1.2), ((-1.0, 1.0), (a, b)))
            return cylinder_measure(ev, 2.0, 0.5)

        assert m(0.0, 0.8) + m(0.8, 2.0) == pytest.approx(m(0.0, 2.0), abs=1e-8)

    def test_two_time_semi_infinite_split(self):
        def m(a, b):
            ev = CylinderEvent((0.5, 1.2), ((-1.0, 1.0), (a, b)))
            return cylinder_measure(ev, 2.0, 0.5)

        assert m(0.3, INF) + m(-INF, 0.3) == pytest.approx(m(-INF, INF), abs=5e-9)

    def test_three_time_against_tplquad(self):
        ev = CylinderEvent((0.5, 1.0, 1.5), ((-1.0, 0.5), (-0.5, 1.0), (0.0, 1.5)))
        got = cylinder_measure(ev, 2.0, 0.5)
        pp = PseudoParams(2.0, 0.5, 0.5)
        want, _ = integrate.tplquad(
            lambda z, y, x: density(x, pp) * density(y - x, pp) * density(z - y, pp),
            -1.0,
            0.5,
            -0.5,
            1.0,
            0.0,
            1.5,
            epsabs=1e-8,
        )
        assert got == pytest.approx(want, abs=5e-7)

    @pytest.mark.parametrize(
        "alpha,p,inner",
        [(2.5, 0.3, (-0.2, 1.3)), (3.0, 0.7, (0.4, INF))],
        ids=["finite", "semi_infinite"],
    )
    def test_four_time_against_product_rule(self, alpha, p, inner):
        """Four levels (no cap on the depth) against a 24-node
        Gauss-Legendre product rule over the outer boxes; the innermost
        box is a fourth product factor when finite and the tail identity
        at the third level's nodes when semi-infinite."""
        times = (0.5, 1.0, 1.6, 2.2)
        outer = ((-1.0, 0.5), (-0.5, 1.0), (0.0, 1.5))
        got = cylinder_measure(CylinderEvent(times, outer + (inner,)), alpha, p)

        dts = np.diff((0.0,) + times)
        x, w = np.polynomial.legendre.leggauss(24)
        rules = [(0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w) for a, b in outer]
        (x1, w1), (x2, w2), (x3, w3) = rules

        def u(y, dt):
            return density(y, PseudoParams(alpha, p, dt))

        if math.isinf(inner[1]):
            i4 = np.array(
                [box_kernel_integral(inner[0] - z, INF, alpha, p, dts[3]) for z in x3]
            )
        else:
            half, mid = 0.5 * (inner[1] - inner[0]), 0.5 * (inner[1] + inner[0])
            i4 = u(mid + half * x[None, :] - x3[:, None], dts[3]) @ (half * w)
        want = np.einsum(
            "i,i,ij,j,jk,k,k->",
            w1,
            u(x1, dts[0]),
            u(x2[None, :] - x1[:, None], dts[1]),
            w2,
            u(x3[None, :] - x2[:, None], dts[2]),
            w3,
            i4,
        )
        assert got == pytest.approx(want, abs=1e-8)


class TestBoxKernelIntegral:
    def test_matches_quadrature_on_finite_box(self):
        want, _ = integrate.quad(
            lambda x: density(x, PseudoParams(2.5, 0.3, 1.0)), -2.0, 1.0, epsabs=1e-12
        )
        assert box_kernel_integral(-2.0, 1.0, 2.5, 0.3, 1.0) == pytest.approx(
            want, abs=1e-9
        )

    def test_degenerate_infinite_endpoints(self):
        full = box_kernel_integral(-INF, INF, 2.0, 0.5, 1.0)
        assert full == pytest.approx(1.0, abs=1e-12)
