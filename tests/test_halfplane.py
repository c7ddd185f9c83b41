import math

import numpy as np
import pytest

import cusplab as cl
from cusplab import (
    BASE_POINT,
    INFINITY,
    Geodesic,
    Horoball,
    HPoint,
    MoebiusMap,
)

I = HPoint(0.0, 1.0)


def random_mobius(rng):
    while True:
        a, b, c, d = rng.normal(size=4)
        if a * d - b * c > 0.05:
            return MoebiusMap(a, b, c, d)


def random_point(rng):
    return HPoint(rng.uniform(-3, 3), rng.uniform(0.1, 5.0))


# -- Moebius maps ------------------------------------------------------------

def test_identity_fixes_i():
    assert MoebiusMap.identity()(I) == I


def test_parabolic_fixes_infinity():
    m = MoebiusMap(1, 1, 0, 1)
    assert math.isinf(m(INFINITY))


def test_inversion_formula():
    m = MoebiusMap(0, -1, 1, 0)
    assert m(2.0) == pytest.approx(-0.5, abs=1e-15)


def test_determinant_normalized():
    m = MoebiusMap(2, 0, 0, 2)
    assert abs(m.det - 1.0) < 1e-12
    assert m(I) == I


def test_nonpositive_determinant_rejected():
    with pytest.raises(ValueError):
        MoebiusMap(1, 0, 0, -1)
    with pytest.raises(ValueError):
        MoebiusMap(1, 2, 2, 4)


def test_compose_and_inverse():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g, h = random_mobius(rng), random_mobius(rng)
        z = random_point(rng)
        lhs = (g @ h)(z)
        rhs = g(h(z))
        assert lhs.z == pytest.approx(rhs.z, abs=1e-9)
        back = (g.inverse() @ g)(z)
        assert back.z == pytest.approx(z.z, abs=1e-9)


def test_composition_associative():
    rng = np.random.default_rng(6)
    for _ in range(30):
        f, g, h = (random_mobius(rng) for _ in range(3))
        z = random_point(rng)
        assert ((f @ g) @ h)(z).z == pytest.approx((f @ (g @ h))(z).z, abs=1e-8)


def test_interior_maps_to_interior():
    rng = np.random.default_rng(7)
    for _ in range(200):
        w = random_mobius(rng)(random_point(rng))
        assert w.y > 0


# -- cross-ratio -------------------------------------------------------------

def test_cross_ratio_imaginary_axis():
    assert cl.cross_ratio(HPoint(0, 2), 0.0, I, INFINITY) == pytest.approx(2.0)


def test_cross_ratio_limit_case():
    assert cl.cross_ratio(3.0, 0.0, 1.0, INFINITY) == pytest.approx(3.0)


def test_cross_ratio_invariance_random_maps():
    rng = np.random.default_rng(8)
    count = 0
    while count < 300:
        pts = sorted(rng.uniform(-5, 5, size=4))
        if min(b - a for a, b in zip(pts, pts[1:])) < 1e-3:
            continue
        g = random_mobius(rng)
        if min(abs(g.c * x + g.d) for x in pts) < 0.05:
            continue
        before = cl.cross_ratio(*pts)
        after = cl.cross_ratio(*(g(x) for x in pts))
        assert after == pytest.approx(before, rel=1e-9)
        count += 1


def test_cross_ratio_degenerate():
    with pytest.raises(ValueError):
        cl.cross_ratio(1.0, 1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        cl.cross_ratio(INFINITY, INFINITY, 2.0, 3.0)


# -- distances ---------------------------------------------------------------

def test_distance_vertical_segment():
    assert cl.hyp_distance(I, HPoint(0, 2)) == pytest.approx(math.log(2), abs=1e-15)


def test_distance_horizontal_step():
    # cosh d = 1 + 1/2 = 3/2
    assert cl.hyp_distance(I, HPoint(1, 1)) == pytest.approx(math.acosh(1.5), abs=1e-15)
    assert cl.hyp_distance(I, HPoint(1, 1)) == pytest.approx(0.9624236501192069)


def test_distance_petal_case():
    # |z-w|^2 = 25/36, cosh d = 97/72, acosh gives log(9/4) exactly
    assert cl.hyp_distance(I, HPoint(5 / 6, 1)) == pytest.approx(math.log(9 / 4), abs=1e-12)


def test_distance_symmetric_positive():
    rng = np.random.default_rng(9)
    for _ in range(100):
        z, w = random_point(rng), random_point(rng)
        d = cl.hyp_distance(z, w)
        assert d >= 0
        assert d == pytest.approx(cl.hyp_distance(w, z), abs=1e-14)
    assert cl.hyp_distance(I, I) == 0.0


def test_isometry_invariance():
    rng = np.random.default_rng(10)
    for _ in range(500):
        g = random_mobius(rng)
        z, w = random_point(rng), random_point(rng)
        assert cl.hyp_distance(g(z), g(w)) == pytest.approx(
            cl.hyp_distance(z, w), abs=1e-9)


# -- geodesics ---------------------------------------------------------------

def test_geodesic_vertical():
    g = cl.geodesic_through(I, HPoint(0, 2))
    assert g.start == 0.0 and math.isinf(g.end)


def test_geodesic_semicircle_solve():
    # center c solves |i - c| = |5/6 + i - c|: c = 5/12, r = sqrt(1 + c^2) = 13/12
    g = cl.geodesic_through(I, HPoint(5 / 6, 1))
    assert g.start == pytest.approx(5 / 12 - 13 / 12, abs=1e-12)
    assert g.end == pytest.approx(5 / 12 + 13 / 12, abs=1e-12)


def test_geodesic_orientation_reversal():
    a = cl.geodesic_through(I, HPoint(0, 2))
    b = cl.geodesic_through(HPoint(0, 2), I)
    assert a.start == b.end and a.end == b.start


def test_distance_via_crossratio_examples():
    assert cl.distance_via_crossratio(I, HPoint(0, 2)) == pytest.approx(math.log(2), abs=1e-12)
    assert cl.distance_via_crossratio(I, HPoint(1, 1)) == pytest.approx(0.9624236501192069, abs=1e-12)
    assert cl.distance_via_crossratio(I, HPoint(5 / 6, 1)) == pytest.approx(math.log(9 / 4), abs=1e-12)


def test_distance_routes_agree():
    rng = np.random.default_rng(11)
    for _ in range(500):
        z, w = random_point(rng), random_point(rng)
        if cl.hyp_distance(z, w) < 1e-6:
            continue
        assert cl.distance_via_crossratio(z, w) == pytest.approx(
            cl.hyp_distance(z, w), abs=1e-9)


# -- petal span ---------------------------------------------------------------

def test_petal_span_n2():
    c, dist = cl.petal_span(2)
    assert c == pytest.approx(5 / 12, abs=1e-15)
    assert dist == pytest.approx(math.log(9 / 4), abs=1e-12)
    # the offset term: 1 <= 1 + (2c - 3/2)^2 = 13/9 <= 5
    off = 1 + (2 * c - 1.5) ** 2
    assert off == pytest.approx(13 / 9, abs=1e-12)
    assert 1.0 <= off <= 5.0


def test_petal_span_matches_distance_route():
    for n in (2, 3, 10, 100):
        c, dist = cl.petal_span(n)
        assert dist == pytest.approx(cl.hyp_distance(I, HPoint(2 * c, 1)), abs=1e-9)


def test_petal_span_sandwich():
    for n in (2, 10, 1000, 10_000):
        _, dist = cl.petal_span(n)
        assert math.log(n * n) - math.log(10) <= dist <= math.log(n * n)


def test_petal_span_domain():
    with pytest.raises(ValueError):
        cl.petal_span(1)


# -- horoballs ---------------------------------------------------------------

def test_depth_tangency():
    assert cl.penetration_depth(Horoball(0.0, 1.0), Geodesic(-1.0, 1.0)) == pytest.approx(0.0, abs=1e-14)


def test_depth_entering():
    # oracle: map base to infinity with z -> -1/z; geodesic (-1/2, 1/2) becomes
    # the semicircle over (2, -2) with apex 2, ball becomes {y > 1}: depth log 2
    assert cl.penetration_depth(Horoball(0.0, 1.0), Geodesic(-0.5, 0.5)) == pytest.approx(
        math.log(2), abs=1e-12)


def test_depth_no_entry_is_negative():
    d = cl.penetration_depth(Horoball(0.0, 1.0), Geodesic(-2.0, 2.0))
    assert d < 0
    assert d == pytest.approx(math.log(0.5), abs=1e-12)


def test_depth_geodesic_into_cusp():
    with pytest.raises(ValueError):
        cl.penetration_depth(Horoball(0.0, 1.0), Geodesic(0.0, 1.0))


def test_depth_vertical_geodesic():
    # normalized: depth = log(size / (2 |foot - base|))
    d = cl.penetration_depth(Horoball(0.0, 1.0), Geodesic(0.25, INFINITY))
    assert d == pytest.approx(math.log(1.0 / 0.5), abs=1e-12)


def test_depth_ball_at_infinity():
    d = cl.penetration_depth(Horoball(INFINITY, 1.0), Geodesic(-3.0, 3.0))
    assert d == pytest.approx(math.log(3.0), abs=1e-12)
    with pytest.raises(ValueError):
        cl.penetration_depth(Horoball(INFINITY, 1.0), Geodesic(0.0, INFINITY))


def test_entry_exit_symmetry_and_chord():
    ball, geod = Horoball(0.0, 1.0), Geodesic(-0.5, 0.5)
    entry, exit_ = cl.entry_exit_points(ball, geod)
    # symmetric about the imaginary axis, entry on the travel side
    assert entry.x == pytest.approx(-math.sqrt(3) / 4, abs=1e-12)
    assert exit_.x == pytest.approx(math.sqrt(3) / 4, abs=1e-12)
    assert entry.y == pytest.approx(0.25, abs=1e-12)
    # chord length: 2*arccosh(e^depth) = 2*arccosh(2), NOT 2*depth; the
    # excess over 2*depth is bounded by 2 log 2
    chord = cl.hyp_distance(entry, exit_)
    depth = cl.penetration_depth(ball, geod)
    assert chord == pytest.approx(2 * math.acosh(math.exp(depth)), abs=1e-9)
    assert chord == pytest.approx(cl.chord_length(depth), abs=1e-9)
    assert 0 < chord - 2 * depth < 2 * math.log(2)


def test_entry_exit_random_chord_identity():
    rng = np.random.default_rng(12)
    done = 0
    while done < 100:
        base = rng.uniform(-2, 2)
        size = rng.uniform(0.05, 1.5)
        a = base + rng.uniform(0.01, 2.0)
        b = base - rng.uniform(0.01, 2.0)
        ball, geod = Horoball(base, size), Geodesic(min(a, b), max(a, b))
        depth = cl.penetration_depth(ball, geod)
        if depth <= 1e-6:
            continue
        entry, exit_ = cl.entry_exit_points(ball, geod)
        assert cl.hyp_distance(entry, exit_) == pytest.approx(
            cl.chord_length(depth), abs=1e-9)
        done += 1


def test_entry_exit_tangent_rejected():
    with pytest.raises(ValueError):
        cl.entry_exit_points(Horoball(0.0, 1.0), Geodesic(-1.0, 1.0))


def test_horoball_transform_depth_invariance():
    # integer unimodular maps permute the standard horoball family; depths
    # must be preserved exactly
    rng = np.random.default_rng(13)
    words = [MoebiusMap(1, 1, 0, 1), MoebiusMap(1, -1, 0, 1), MoebiusMap(0, -1, 1, 0)]
    for _ in range(100):
        g = MoebiusMap.identity()
        for k in rng.integers(0, 3, size=6):
            g = g @ words[k]
        ball = Horoball(0.25, 0.3)
        geod = Geodesic(-0.7, 0.9)
        d0 = cl.penetration_depth(ball, geod)
        d1 = cl.penetration_depth(cl.mobius_apply_horoball(g, ball),
                                  cl.mobius_apply_geodesic(g, geod))
        assert d1 == pytest.approx(d0, abs=1e-9)


def test_horoball_transform_ford_to_ford():
    # z -> -1/z sends the Ford circle at 0 to the line at height 1 and back
    inv = MoebiusMap(0, -1, 1, 0)
    img = cl.mobius_apply_horoball(inv, Horoball(0.0, 1.0))
    assert math.isinf(img.base) and img.size == pytest.approx(1.0, abs=1e-12)
    back = cl.mobius_apply_horoball(inv, img)
    assert back.base == pytest.approx(0.0, abs=1e-12)
    assert back.size == pytest.approx(1.0, abs=1e-12)


# -- shadows -------------------------------------------------------------------

def test_shadow_ford_unit_ball():
    iv = cl.shadow(cl.ford_circle(0, 1), BASE_POINT)
    assert iv.lo == pytest.approx(-1.0, abs=1e-12)
    assert iv.hi == pytest.approx(1.0, abs=1e-12)


def test_shadow_endpoints_are_tangent_rays():
    # oracle: the geodesic from i to a shadow endpoint e (other endpoint -1/e)
    # is tangent to the ball: formal depth 0
    for ball in (cl.ford_circle(1, 2), cl.ford_circle(1, 3), Horoball(0.3, 0.17)):
        iv = cl.shadow(ball, BASE_POINT)
        for e in (iv.lo, iv.hi):
            ray = Geodesic(*sorted((-1.0 / e, e)))
            assert cl.penetration_depth(ball, ray) == pytest.approx(0.0, abs=1e-9)
        # rays to points inside the shadow enter the ball
        mid = ball.base
        ray = Geodesic(*sorted((-1.0 / mid if mid != 0 else INFINITY, mid + 1e-9)))
        assert iv.contains(ball.base)


def test_shadow_scale_comparability():
    # |shadow| ~ e^{-d(viewpoint, top)}; report the measured constants
    ratios = []
    for p, q in [(1, 2), (1, 3), (2, 3), (1, 4), (3, 5), (2, 7)]:
        ball = cl.ford_circle(p, q)
        iv = cl.shadow(ball, BASE_POINT)
        scale = math.exp(-cl.hyp_distance(BASE_POINT, ball.top))
        ratios.append(iv.length / scale)
    print(f"\nshadow comparability |shadow| / e^(-d(i, top)): "
          f"min={min(ratios):.4f} max={max(ratios):.4f}")
    assert 0.5 < min(ratios) and max(ratios) < 8.0


def test_shadow_monotone_in_size():
    lengths = [cl.shadow(Horoball(0.5, s), BASE_POINT).length
               for s in (0.5, 0.25, 0.1, 0.05)]
    assert all(a > b for a, b in zip(lengths, lengths[1:]))


def test_shadow_viewpoint_inside_rejected():
    with pytest.raises(ValueError):
        cl.shadow(Horoball(0.0, 3.0), BASE_POINT)
