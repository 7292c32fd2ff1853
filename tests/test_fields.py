import numpy as np
import pytest

from gaussprop.fields import (BoundaryDecayError, FieldSpec, PropagatorSpec, RealState, WaveState,
                              check_boundary_decay, gaussian_packet, make_grid, moments, norm)


def test_grid_spacing_and_coverage():
    grid = make_grid(-8.0, 8.0, 1024)
    assert grid.n == 1024
    assert grid.dx == pytest.approx(16.0 / 1024)
    assert grid.x[0] == pytest.approx(-8.0)
    # periodic convention: the right endpoint itself is excluded
    assert grid.x[-1] == pytest.approx(8.0 - grid.dx)
    assert np.allclose(np.diff(grid.x), grid.dx)


def test_grid_wavenumbers_match_fft_convention():
    grid = make_grid(-5.0, 5.0, 256)
    assert np.allclose(grid.k, 2.0 * np.pi * np.fft.fftfreq(256, d=grid.dx))


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(2.0, -2.0, 64)
    with pytest.raises(ValueError):
        make_grid(-2.0, 2.0, 1)
    with pytest.raises(ValueError, match="spacing .* = inf must be finite"):
        make_grid(-1e308, 1e308, 16)
    with pytest.raises(ValueError, match="spacing .* = 6.22523e-322 must be finite and >= "):
        make_grid(0.0, 1e-320, 16)
    with pytest.raises(ValueError, match="grid points must strictly increase"):
        make_grid(1e17, 1e17 + 32.0, 16)


def test_field_presets_evaluate():
    x = np.linspace(-3.0, 3.0, 7)
    assert np.allclose(FieldSpec.constant(0.7)(x), 0.7)
    assert np.allclose(FieldSpec.linear(0.4)(x), 0.4 * x)
    assert np.allclose(FieldSpec.quadratic(0.545)(x), 0.545 * x ** 2)
    assert np.allclose(FieldSpec.sine(0.3, 2.0, 0.5)(x), 0.3 * np.sin(2.0 * x + 0.5))


def test_field_derivatives_close_analytically():
    x = np.linspace(-2.0, 2.0, 9)
    assert np.allclose(FieldSpec.linear(0.4).derivative(x), 0.4)
    assert np.allclose(FieldSpec.quadratic(0.5).derivative(x), x)
    assert np.allclose(FieldSpec.sine(0.3, 2.0).derivative(x),
                       0.6 * np.cos(2.0 * x))
    assert np.allclose(FieldSpec.constant(1.0).derivative(x), 0.0)


def test_quadratic_derivative_field_is_linear():
    f = FieldSpec.quadratic(0.545).derivative_field()
    assert f.degree == 1
    assert f.coeffs == (0.0, 2.0 * 0.545)


def test_tabulated_field_interpolates_and_differentiates():
    xs = np.linspace(-4.0, 4.0, 801)
    table = FieldSpec.tabulated(xs, np.sin(xs))
    probe = np.array([-1.3, 0.0, 0.9, 2.2])
    assert np.allclose(table(probe), np.sin(probe), atol=1e-4)
    assert np.allclose(table.derivative(probe), np.cos(probe), atol=1e-3)


def test_tabulated_derivative_is_exact_for_a_quadratic_on_uneven_samples():
    xs = np.array([0.0, 1.0, 3.0, 4.5, 7.0])
    table = FieldSpec.tabulated(xs, xs ** 2)
    assert table.derivative(1.0) == pytest.approx(2.0, abs=1e-12)  # 4.5 from a uniform stencil
    assert np.allclose(table.derivative_field().values, 2.0 * xs, rtol=0.0, atol=1e-12)


# an uneven table, so each piece has its own slope
TABLE_XS = np.array([-3.0, -1.7, -0.2, 0.4, 1.9, 3.5])
TABLE = FieldSpec.tabulated(TABLE_XS, [0.4, -0.3, 1.1, 0.2, -0.8, 0.5])


@pytest.mark.parametrize("field,x", [
    (FieldSpec.constant(0.7), np.linspace(-5.0, 5.0, 11)),
    (FieldSpec("polynomial", coeffs=(0.3, -0.4, 0.545)), np.linspace(-5.0, 5.0, 11)),
    (FieldSpec.sine(0.3, 1.7, 0.4), np.linspace(-5.0, 5.0, 11)),
    (FieldSpec.sine(0.3, 0.0, 0.4), np.linspace(-5.0, 5.0, 11)),
    (TABLE, np.array([-7.0, -3.2, 3.7, 9.0])),                 # beyond either end
    (TABLE, 0.5 * (TABLE_XS[1:] + TABLE_XS[:-1])),             # within every piece
], ids=("constant", "quadratic", "sine", "sine-k0", "table-beyond", "table-pieces"))
def test_an_antiderivative_differentiates_back_to_its_field(field, x):
    """Each probe's x +- h stay within one piece of a table, where the
    integral is quadratic, so the central difference is exact there."""
    h = 1e-4
    slope = (field.antiderivative(x + h) - field.antiderivative(x - h)) / (2.0 * h)
    assert np.max(np.abs(slope - field(x))) <= 1e-8


def test_a_table_s_antiderivative_is_the_trapezoid_sum_at_its_nodes():
    """The piecewise-linear curve's integral: continuous, exact at each node."""
    trapezoids = np.concatenate(([0.0], np.cumsum(
        0.5 * (TABLE.values[1:] + TABLE.values[:-1]) * np.diff(TABLE_XS))))
    assert np.allclose(TABLE.antiderivative(TABLE_XS), trapezoids, rtol=0.0, atol=1e-15)
    gap = TABLE.antiderivative(TABLE_XS + 1e-12) - TABLE.antiderivative(TABLE_XS - 1e-12)
    assert np.max(np.abs(gap)) <= 1e-11


def test_a_polynomial_or_sine_antiderivative_is_zero_at_zero():
    for field in (FieldSpec.quadratic(0.545), FieldSpec.sine(0.3, 1.7, 0.4),
                  FieldSpec.sine(0.3, 0.0, 0.4)):
        assert field.antiderivative(0.0) == 0.0


@pytest.mark.parametrize("xs,values,message", [
    ([0.0, 1.0], [0.0, 1.0], "at least 3 samples"),
    ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], "strictly increasing"),
])
def test_tabulated_field_rejects_short_or_unsorted_tables(xs, values, message):
    with pytest.raises(ValueError, match=message):
        FieldSpec.tabulated(xs, values)


def test_scaled_field():
    x = np.linspace(-2.0, 2.0, 5)
    assert np.allclose(FieldSpec.linear(0.4).scaled(2.0)(x), 0.8 * x)
    assert np.allclose(FieldSpec.quadratic(0.2).scaled(3.0)(x), 0.6 * x ** 2)
    assert FieldSpec.constant(1.5).scaled(2.0)(np.zeros(1))[0] == pytest.approx(3.0)


def test_is_constant():
    assert FieldSpec.constant(2.0).is_constant()
    assert FieldSpec.linear(0.0).is_constant()
    assert not FieldSpec.linear(0.1).is_constant()
    assert FieldSpec.quadratic(0.0).is_constant()
    assert not FieldSpec.sine(0.3, 1.0).is_constant()


@pytest.mark.parametrize("field,degree,coeffs", [
    (FieldSpec.constant(0.0), -1, ()),
    (FieldSpec.constant(0.7), 0, (0.7,)),
    (FieldSpec.linear(0.4), 1, (0.0, 0.4)),
    (FieldSpec.linear(0.0), -1, ()),
    (FieldSpec.quadratic(0.545), 2, (0.0, 0.0, 0.545)),
    (FieldSpec.quadratic(0.0), -1, ()),
    (FieldSpec("polynomial", coeffs=(1.0, -2.0, 0.0)), 1, (1.0, -2.0)),
    (FieldSpec.sine(0.3, 1.0), None, ()),
    (FieldSpec.tabulated([-1.0, 0.0, 1.0], [0.0, 0.1, 0.3]), None, ()),
], ids=("zero", "constant", "linear", "zero-linear", "quadratic", "zero-quadratic",
        "trailing-zero", "sine", "tabulated"))
def test_degree_and_coeffs(field, degree, coeffs):
    assert field.degree == degree
    assert field.coeffs == coeffs


def test_a_polynomial_differentiates_scales_and_evaluates_by_its_coeffs():
    f = FieldSpec("polynomial", coeffs=(1.0, 2.0, 3.0))
    x = np.linspace(-2.0, 2.0, 9)
    assert np.allclose(f(x), 1.0 + 2.0 * x + 3.0 * x ** 2, rtol=0.0, atol=1e-14)
    assert f.derivative_field().coeffs == (2.0, 6.0)
    assert f.derivative_field().derivative_field().coeffs == (6.0,)
    assert f.derivative_field().derivative_field().derivative_field().degree == -1
    assert f.scaled(0.5).coeffs == (0.5, 1.0, 1.5)
    assert f.scaled(0.0).degree == -1
    assert FieldSpec.linear(0.4).derivative_field() == FieldSpec.constant(0.4)
    with pytest.raises(ValueError, match="degree <= 2"):
        FieldSpec("polynomial", coeffs=(0.0, 0.0, 0.0, 1.0))


def test_a_one_term_preset_keeps_its_bits():
    x = np.linspace(-3.0, 3.0, 4097)
    assert np.array_equal(FieldSpec.constant(0.7)(x), np.full_like(x, 0.7))
    assert np.array_equal(FieldSpec.linear(0.4)(x), 0.4 * x)
    assert np.array_equal(FieldSpec.quadratic(0.545)(x), 0.545 * x ** 2)
    assert np.array_equal(FieldSpec.constant(0.0)(x), np.zeros_like(x))


def test_propagator_spec_variant_validation():
    u = FieldSpec.linear(0.4)
    with pytest.raises(ValueError):
        PropagatorSpec(d=1.0, u=u, variant="complex_d")
    with pytest.raises(ValueError):
        PropagatorSpec(d=1.0, u=u, variant="complex_u")
    with pytest.raises(ValueError):
        PropagatorSpec(d=1.0, u=u, variant="x_dependent_d")
    with pytest.raises(ValueError):
        PropagatorSpec(d=1.0, u=u, im_d=0.1)
    with pytest.raises(ValueError):
        PropagatorSpec(d=-1.0, u=u)
    with pytest.raises(ValueError):
        PropagatorSpec(d=1.0, u=u, variant="nonsense")


def test_admissible_flag():
    assert PropagatorSpec(d=1.0).is_admissible()
    assert not PropagatorSpec(d=1.0, variant="no_t").is_admissible()
    assert not PropagatorSpec(d=1.0, variant="complex_u", im_u=0.1).is_admissible()


def test_gaussian_packet_norm_and_moments():
    grid = make_grid(-10.0, 10.0, 1024)
    state = gaussian_packet(grid, x0=0.5, sigma0=0.8, k0=1.2)
    assert norm(state) == pytest.approx(1.0, abs=1e-12)
    mass, mean, var = moments(state)
    assert mass == norm(state)
    assert mean == pytest.approx(0.5, abs=1e-9)
    assert var == pytest.approx(0.64, rel=1e-9)
    w = np.abs(np.fft.fft(state.psi)) ** 2
    assert np.sum(grid.k * w) / np.sum(w) == pytest.approx(1.2, abs=1e-9)


def test_boundary_decay_check():
    grid = make_grid(-4.0, 4.0, 256)
    ok = gaussian_packet(grid, x0=0.0, sigma0=0.5)
    check_boundary_decay(ok)
    # too wide for the box: rejected at construction
    with pytest.raises(BoundaryDecayError):
        gaussian_packet(grid, x0=0.0, sigma0=2.5)
    wide = WaveState(grid, np.exp(-grid.x ** 2 / 25.0).astype(complex))
    with pytest.raises(BoundaryDecayError):
        check_boundary_decay(wide)


def test_real_state_mass_and_moments():
    grid = make_grid(-10.0, 10.0, 512)
    p = np.exp(-grid.x ** 2 / 2.0)
    p /= np.sum(p) * grid.dx
    state = RealState(grid=grid, density=p, time=0.0)
    mass, mean, var = moments(state)
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert mass == float(np.sum(p) * grid.dx)
    assert mean == pytest.approx(0.0, abs=1e-10)
    assert var == pytest.approx(1.0, rel=1e-6)


def test_real_state_rejects_negative_density():
    grid = make_grid(-4.0, 4.0, 64)
    bad = np.full(64, -1.0)
    with pytest.raises(ValueError):
        RealState(grid=grid, density=bad, time=0.0)
