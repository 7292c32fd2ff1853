"""Numerical laboratory for a single-step complex Gaussian propagator.

The package builds the short-time kernel for drifted diffusion with an
imaginary diffusivity, steps wave packets with it, and checks the result
three independent ways: closed-form regularized kernel moments, the
equivalent Hamiltonian's exact Gaussian solution (or, outside its quadratic
class, a Crank-Nicolson integrator), and direct norm-drift audits of
deliberately broken propagator variants.  A real diffusive twin (density
stepping plus random-walk sampling) shares the same drift and diffusivity
fields.

The package root exports nothing: import each name from the module that
defines it, e.g. ``from gaussprop.fields import make_grid``.
"""
