import math
import random

import pytest

from fareyslopes.cfrac import EventuallyPeriodic
from fareyslopes.division import beads, division_points, ses_check
from fareyslopes.errors import MismatchedTheta
from fareyslopes.exact import INFINITY, ReducedFraction as F
from fareyslopes.farey import left_right_vertices
from fareyslopes.lattice import ThetaLatticeElement, chi, norm_to_fraction, theta_norm

from _oracles import random_theta

golden = EventuallyPeriodic((1,), (1,))
sqrt2 = EventuallyPeriodic((1,), (2,))
PHI = (1 + math.sqrt(5)) / 2


def el(m, n, theta=golden):
    return ThetaLatticeElement(m, n, theta)


def test_linear_structure():
    x, y = el(1, -1), el(2, 3)
    assert x + y == el(3, 2)
    assert x - y == el(-1, -4)
    assert -x == el(-1, 1)
    assert y.scaled(-2) == el(-4, -6)
    with pytest.raises(MismatchedTheta):
        x + ThetaLatticeElement(1, 0, sqrt2)


def test_exact_sign():
    # golden ratio: sign(m*phi + n) decided with no floats
    assert el(1, -1).sign() == 1      # phi - 1 > 0
    assert el(1, -2).sign() == -1     # phi - 2 < 0
    assert el(-1, 2).sign() == 1
    assert el(0, 5).sign() == 1
    assert el(0, -5).sign() == -1
    assert el(0, 0).sign() == 0
    # Fibonacci combos q*phi - p get arbitrarily close to zero; the sign
    # alternates with the convergent index (even convergents sit below phi)
    # and is still decided exactly
    for i in range(40):
        p, q = golden.convergent_pair(i)
        assert el(q, -p).sign() == (-1 if i % 2 else 1)
    # cross-check signs against high-precision floats
    rng = random.Random(7)
    for _ in range(300):
        theta = random_theta(rng)
        m, n = rng.randint(-40, 40), rng.randint(-40, 40)
        if m == 0 and n == 0:
            continue
        v = m * theta.approx(60) + n
        if abs(v) > 1e-9:
            assert ThetaLatticeElement(m, n, theta).sign() == (1 if v > 0 else -1)


def test_order_and_value():
    assert el(1, -1) < el(1, 0) < el(1, 1)
    assert el(-1, 2) < el(0, 1)
    assert abs(el(1, 0).value() - PHI) < 1e-9
    assert abs(el(-3, 5).value() - (5 - 3 * PHI)) < 1e-9


def test_chi_pairing():
    x, y = el(1, 2), el(3, 4)
    assert chi(x, y) == 3 * 2 - 1 * 4 == 2
    assert chi(y, x) == -chi(x, y)
    assert chi(x, x) == 0
    z = el(-1, 5)
    assert chi(x + z, y) == chi(x, y) + chi(z, y)
    with pytest.raises(MismatchedTheta):
        chi(x, ThetaLatticeElement(1, 0, sqrt2))


def test_chi_of_norms_recovers_fraction_det():
    rng = random.Random(8)
    for _ in range(400):
        theta = random_theta(rng)
        r = F(rng.randint(-15, 15), rng.randint(1, 15))
        s = F(rng.randint(-15, 15), rng.randint(1, 15))
        got = abs(chi(theta_norm(r, theta), theta_norm(s, theta)))
        assert got == abs(r.p * s.q - s.p * r.q)


def test_theta_norm():
    # |p/q| = |q*theta - p|, positive by construction
    assert theta_norm(INFINITY, golden) == el(0, 1)
    assert theta_norm(F(1, 1), golden) == el(1, -1)    # phi > 1
    assert theta_norm(F(2, 1), golden) == el(-1, 2)    # phi < 2
    assert theta_norm(F(8, 5), golden) == el(5, -8)
    rng = random.Random(9)
    for _ in range(200):
        theta = random_theta(rng)
        r = F(rng.randint(-15, 15), rng.randint(1, 15))
        w = theta_norm(r, theta)
        assert w.sign() > 0
        assert w.is_primitive()
        assert abs(w.value(60) - abs(r.q * theta.approx(60) - r.p)) < 1e-6
        assert norm_to_fraction(w) == r


def test_norm_to_fraction_rejects():
    with pytest.raises(ValueError):
        norm_to_fraction(el(2, 2))      # not primitive
    with pytest.raises(ValueError):
        norm_to_fraction(el(1, -2))     # negative value
    assert norm_to_fraction(el(0, 1)) == INFINITY


def test_division_never_computes_a_convergent():
    # a slope no other test uses, so no cached answer stands in for the work
    theta = EventuallyPeriodic((1, 3, 100000), (2, 5, 7))
    r = F(2, 1)
    points = division_points(theta, r, 6)
    for c, e, d in zip(points, points[1:], points[3:]):
        assert ses_check(theta, r, c, e, d).passed
    assert beads(theta, r, points[0], points[-1]).labels == (r,)
    left_right_vertices(theta, F(10**400 + 1, 10**400))
    assert theta._memo == [(1, 0)]
