"""Regularized oscillatory moments against their closed forms.

The closed values are exact on the principal branch: with K = (2 pi i D
eps)^(1/2), the n-th moment is K times {1, 0, i D eps, -3 (D eps)^2} for
n = {0, 1, 2, 4}.  The quadrature must recover them through the regulator
ladder without being told the answer.
"""

import tracemalloc

import numpy as np
import pytest

from gaussprop.fields import FieldSpec
from gaussprop.fresnel import (MOMENT_ORDERS, cancellation_check, closed_moment, fresnel_moment,
                               fresnel_moments, ladder_integral, monomial, unit_mass_check)
from gaussprop.propagate import ValidityError


def _window(d, eps, delta0=None):
    """The documented window: delta0 = 0.008/(2 D eps) unless given,
    (delta0/4) L^2 = 40 (times 1 + 1e-9 on L) and 100,000 nodes."""
    if delta0 is None:
        delta0 = 0.008 / (2.0 * d * eps)
    half_width = float(np.sqrt(40.0 / (delta0 / 4.0)) * (1.0 + 1e-9))
    return delta0, half_width, 100_000


def test_moment_orders_exposed():
    assert tuple(MOMENT_ORDERS) == (0, 1, 2, 4)


def test_closed_moment_zero_is_principal_root():
    c = closed_moment(0, 1.0, 0.5)
    assert c == pytest.approx(np.sqrt(2.0 * np.pi * 0.5) * np.exp(1j * np.pi / 4.0))


def test_closed_moment_ratios():
    d, eps = 0.7, 0.3
    k = closed_moment(0, d, eps)
    assert closed_moment(1, d, eps) == 0.0
    assert closed_moment(2, d, eps) / k == pytest.approx(1j * d * eps)
    assert closed_moment(4, d, eps) / k == pytest.approx(-3.0 * (d * eps) ** 2)


@pytest.mark.parametrize("d", [1.0, 0.5])
@pytest.mark.parametrize("eps", [1.0, 0.1])
def test_quadrature_matches_closed_forms(d, eps):
    delta0, half_width, samples = _window(d, eps)
    # the default window turns the chirp 0.8 rad a node at its edge, so the
    # ladder's refusal of a step above pi sits at 0.8/pi times the default delta0
    assert half_width ** 2 / (samples // 2 * d * eps) == pytest.approx(0.8)
    with pytest.raises(ValidityError):
        ladder_integral([monomial(0)], d, eps, delta0 * 0.8 / np.pi * (1.0 - 1e-6))
    ladder_integral([monomial(0)], d, eps, delta0 * 0.8 / np.pi * (1.0 + 1e-6))
    for n in MOMENT_ORDERS:
        q = fresnel_moment(n, d, eps)
        c = closed_moment(n, d, eps)
        if n == 1:
            assert abs(q) <= 1e-6 * abs(closed_moment(0, d, eps))
        else:
            assert abs(q - c) <= 1e-6 * abs(c)


def test_unit_mass():
    for d, eps in ((1.0, 1.0), (1.0, 0.1), (0.5, 1.0), (0.5, 0.1)):
        m = unit_mass_check(d, eps)
        assert abs(m - 1.0) <= 1e-6


def test_moment_rejects_bad_order_and_params():
    with pytest.raises(ValueError):
        fresnel_moment(3, 1.0, 0.1)
    with pytest.raises(ValueError):
        fresnel_moment(2, -1.0, 0.1)
    with pytest.raises(ValueError):
        fresnel_moment(2, 1.0, 0.0)
    with pytest.raises(ValueError):
        closed_moment(5, 1.0, 0.1)


def test_quadrature_validation():
    for delta0 in (-0.1, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="delta0 must be finite and > 0"):
            ladder_integral([monomial(0)], 1.0, 0.1, delta0)


@pytest.mark.parametrize("delta0", (None, 0.25), ids=("auto", "explicit"))
@pytest.mark.parametrize("d,eps,name", [
    (-1.0, 0.1, "D"), (0.0, 0.1, "D"), (np.inf, 0.1, "D"), (np.nan, 0.1, "D"),
    (1.0, -0.1, "eps"), (1.0, 0.0, "eps"), (1.0, np.inf, "eps"), (1.0, np.nan, "eps"),
])
def test_the_ladder_refuses_a_bad_d_or_eps(d, eps, name, delta0):
    """Neither the conjugate integral (D or eps < 0), a vanished chirp (D = inf)
    nor a ZeroDivisionError: the ladder names the bad parameter itself."""
    with pytest.raises(ValueError, match=f"^{name} must be "):
        ladder_integral([monomial(0)], d, eps, delta0)
    if name == "eps":
        with pytest.raises(ValueError, match="^eps must be > 0 and finite"):
            cancellation_check(1.0, FieldSpec.sine(1.0, 1.0), 0.5, eps, delta0=delta0)


def test_the_ladder_refuses_a_chirp_its_nodes_cannot_resolve():
    """delta0 = 0.001 stretches L to 400, where the chirp turns 32 rad a node."""
    with pytest.raises(ValidityError, match=r"phase step 32 rad > pi"):
        ladder_integral([monomial(0)], 1.0, 0.1, 0.001)
    with pytest.raises(ValidityError, match=r"phase step 32 rad > pi"):
        cancellation_check(1.0, FieldSpec.sine(1.0, 1.0), 0.5, 0.1, delta0=0.001)


def test_coarse_regulator_degrades_accuracy():
    # a deliberately large delta0 leaves a visible regulator error
    d, eps = 1.0, 0.1
    q = ladder_integral([monomial(2)], d, eps, 0.25)[0]
    c = closed_moment(2, d, eps)
    assert abs(q - c) / abs(c) > 1e-6


def test_cancellation_constant_drift_is_exact_zero():
    res = cancellation_check(1.0, FieldSpec.constant(0.7), 0.3, 0.2)
    assert res.closed_form == pytest.approx(0.0)
    assert abs(res.quadrature) < 1e-7


def test_cancellation_residual_matches_u_prime_squared():
    for eps in (0.4, 0.1):
        res = cancellation_check(1.0, FieldSpec.linear(0.4), 0.5, eps)
        assert res.closed_form == pytest.approx((0.4 * eps) ** 2)
        assert res.abs_error <= 1e-6 * max(abs(res.closed_form), 1.0)


def test_cancellation_residual_order_two():
    u = FieldSpec.linear(0.4)
    ladder = (0.4, 0.2, 0.1, 0.05)
    vals = [abs(cancellation_check(1.0, u, 0.5, eps).quadrature) for eps in ladder]
    slope = np.polyfit(np.log(ladder), np.log(vals), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)


def test_cancellation_spatial_dependence():
    # sine drift: residual tracks (u'(x) eps)^2 point by point
    u = FieldSpec.sine(1.0, 1.0)
    eps = 0.1
    for x in (0.0, 0.5, 1.2):
        res = cancellation_check(1.0, u, x, eps)
        assert res.closed_form == pytest.approx((np.cos(x) * eps) ** 2)
        assert res.abs_error <= 1e-6


def _one_poly_ladder(poly, d, eps, delta0=None):
    """The ladder integral of a single poly, its chirp made for it alone.

    The value stays a numpy complex, as ladder_integral returns it, so that
    dividing it by K rounds as cancellation_check's division does."""
    delta0, half_width, samples = _window(d, eps, delta0)
    m = samples // 2
    deta = half_width / m
    eta = deta * np.arange(1, m + 1)
    chirp = 1j / (2.0 * d * eps)
    center = complex(np.asarray(poly(np.zeros(1)))[0])
    pair = np.asarray(poly(eta)) + np.asarray(poly(-eta))
    r = np.exp(-(delta0 / 4.0) * eta ** 2)
    g = np.exp((chirp - delta0 / 4.0) * eta ** 2)
    ladder = []
    for rung in (g * r * r * r, g * r, g):  # delta0, delta0/2, delta0/4
        weighted = pair * rung
        ladder.append((center + np.sum(weighted[:-1]) + 0.5 * weighted[-1]) * deta)
    v0, v1, v2 = ladder
    return (8.0 * v2 - 6.0 * v1 + v0) / 3.0


@pytest.mark.parametrize("explicit", (False, True), ids=("auto", "explicit"))
@pytest.mark.parametrize("d,eps", [(1.0, 0.1), (0.5, 1.0), (2.0, 0.03), (0.5, 0.05), (2.0, 0.2)])
def test_shared_ladder_equals_one_ladder_per_order(d, eps, explicit):
    """Sharing the chirp across the orders changes no bit of any moment."""
    delta0 = 0.25 if explicit else None
    shared = fresnel_moments(MOMENT_ORDERS, d, eps, delta0)
    for n, value in zip(MOMENT_ORDERS, shared):
        expected = _one_poly_ladder(monomial(n), d, eps, delta0)
        assert value == expected
        if not explicit:
            assert fresnel_moment(n, d, eps) == expected


def _power_ladder(n, d, eps, delta0=None):
    """The ladder as first written: a regulated chirp per rung, eta ** n."""
    delta0, half_width, samples = _window(d, eps, delta0)
    m = samples // 2
    deta = half_width / m
    eta = deta * np.arange(1, m + 1)
    chirp = 1j / (2.0 * d * eps)
    pair = eta ** n + (-eta) ** n
    center = 1.0 if n == 0 else 0.0
    ladder = []
    for delta in (delta0, delta0 / 2.0, delta0 / 4.0):
        weighted = pair * np.exp((chirp - delta) * eta ** 2)
        ladder.append((center + np.sum(weighted[:-1]) + 0.5 * weighted[-1]) * deta)
    v0, v1, v2 = ladder
    return complex((8.0 * v2 - 6.0 * v1 + v0) / 3.0)


@pytest.mark.parametrize("explicit", (False, True), ids=("auto", "explicit"))
@pytest.mark.parametrize("d", [0.5, 2.0])
@pytest.mark.parametrize("eps", [0.05, 0.2])
def test_one_chirp_ladder_agrees_with_a_chirp_per_rung(d, eps, explicit):
    """Deriving the rungs from one chirp moves no moment by more than 1e-9 K.

    The corners of D in [0.5, 2], eps in [0.05, 0.2]; the auto-built grid
    must also keep every order within 5e-7 of its closed form (the explicit
    coarse regulator is not that accurate, whichever way it is summed).
    """
    delta0 = 0.25 if explicit else None
    k = abs(closed_moment(0, d, eps))
    values = fresnel_moments(MOMENT_ORDERS, d, eps, delta0)
    for n, value in zip(MOMENT_ORDERS, values):
        assert abs(value - _power_ladder(n, d, eps, delta0)) <= 1e-9 * k
        if not explicit:
            c = closed_moment(n, d, eps)
            assert abs(value - c) <= 5e-7 * (abs(c) if n != 1 else k)


def test_monomials_have_exact_parity():
    _, half_width, samples = _window(1.0, 0.1)
    eta = half_width / (samples // 2) * np.arange(1, samples // 2 + 1)
    for n in MOMENT_ORDERS:
        assert np.array_equal(monomial(n)(-eta), (-1) ** n * monomial(n)(eta))
    assert fresnel_moment(1, 1.0, 0.1) == 0.0
    with pytest.raises(ValueError):
        monomial(-1)


@pytest.mark.parametrize("d,eps,delta0,error,match", [
    (-1.0, 0.1, None, ValueError, "^D must be "), (1.0, 0.0, None, ValueError, "^eps must be "),
    (1.0, 0.1, -1.0, ValueError, "^delta0 must be "),
    (1.0, 0.1, 0.001, ValidityError, "phase step 32 rad > pi"),
], ids=("D", "eps", "delta0", "edge-step"))
def test_odd_moments_alone_are_checked(d, eps, delta0, error, match):
    with pytest.raises(error, match=match):
        fresnel_moments([1], d, eps, delta0)


def test_odd_moments_alone_build_no_ladder():
    """Odd moments are exactly 0: no 50,000-node chirp is built to say so."""
    tracemalloc.start()
    try:
        values = fresnel_moments([1, 1], 1.0, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == [0j, 0j] and all(type(v) is complex for v in values)
    assert ladder_integral([], 1.0, 0.1) == []
    assert peak < 64 * 1024  # a ladder's nodes alone are 400 KB


def test_cancellation_check_is_unchanged_at_the_shipped_point():
    """moments_default's cancellation row: k = 1, x = 0.5, eps = 0.1, D = 1."""
    u, du = np.sin(0.5), np.cos(0.5)

    def integrand(eta):
        return (u + eta * du) ** 2 * (-(eta ** 2) / 2.0 + 0.05j)

    res = cancellation_check(1.0, FieldSpec.sine(1.0, 1.0), 0.5, 0.1)
    assert res.quadrature == _one_poly_ladder(integrand, 1.0, 0.1) / closed_moment(0, 1.0, 0.1)
    assert res.closed_form == complex(du ** 2 * 0.1 ** 2)
