"""Reference values computed with mpmath, independent of azw's kernels.

Every multiple Hurwitz zeta used by the numeric workloads has equal
periods or two coprime periods, and both collapse to finite sums of
one-dimensional Hurwitz zetas. Those sums are written out here from the
lattice definitions and evaluated with mpmath's own Hurwitz zeta at 20
digits, so no azw code lies on the reference path.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 20


def _poly_mul(a: list, b: list) -> list:
    out = [mp.mpf(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _multiplicity_in_t(order: int, y) -> list:
    """binom(k + r - 1, r - 1) as a polynomial in t = k + y (ascending)."""
    poly = [mp.mpf(1)]
    for i in range(1, order):
        poly = _poly_mul(poly, [mp.mpf(i) - y, mp.mpf(1)])  # k + i = t - y + i
    return [c / math.factorial(order - 1) for c in poly]


def hurwitz(s, a, derivative: int = 0):
    return mp.zeta(s, a, derivative)


def digamma(a):
    return mp.digamma(a)


def equal_period_zeta(order: int, x, period, s, derivative: int = 0):
    """Sum over k >= 0 of binom(k+r-1, r-1) (x + k N)^(-s), or its s-derivative.

    (x + kN)^(-s) = N^(-s) (k + y)^(-s) with y = x / N, and the
    multiplicity is a polynomial in k + y, so the lattice sum is
    N^(-s) sum_j c_j zeta(s - j, y).
    """
    x, period, s = mp.mpmathify(x), mp.mpf(period), mp.mpmathify(s)
    y = x / period
    coeffs = _multiplicity_in_t(order, y)
    value = mp.fsum(c * hurwitz(s - j, y) for j, c in enumerate(coeffs))
    scale = period ** (-s)
    if derivative == 0:
        return scale * value
    dvalue = mp.fsum(c * hurwitz(s - j, y, 1) for j, c in enumerate(coeffs))
    return scale * (dvalue - mp.log(period) * value)


def two_period_zeta(x, p: int, q: int, s):
    """Sum over j, k >= 0 of (x + p j + q k)^(-s) for coprime p, q.

    The number of representations of n = p j + q k satisfies
    r(pq t + rho) = t + r(rho) for 0 <= rho < pq, so the sum splits into
    pq one-index sums of (t + r(rho)) (x + rho + pq t)^(-s).
    """
    if math.gcd(p, q) != 1:
        raise ValueError("periods must be coprime")
    x, s = mp.mpmathify(x), mp.mpmathify(s)
    L = p * q
    total = mp.mpf(0)
    for rho in range(L):
        r_rho = sum(1 for k in range(rho // q + 1) if (rho - q * k) % p == 0)
        y = (x + rho) / L
        total += L ** (-s) * (hurwitz(s - 1, y) + (r_rho - y) * hurwitz(s, y))
    return total


def multiple_gamma(order: int, x, period):
    return mp.exp(equal_period_zeta(order, x, period, 0, derivative=1))


def multiple_sine(order: int, x, period):
    g_x = multiple_gamma(order, x, period)
    g_ref = multiple_gamma(order, order * period - mp.mpmathify(x), period)
    return g_ref / g_x if order % 2 == 0 else 1 / (g_x * g_ref)


def subset_shifts(l: int, num: tuple, den: tuple, s):
    """(sign, shift) over subsets I of the numerator exponents, from the
    expansion of prod(x^m - 1) = sum_I (-1)^(a-|I|) x^(m(I))."""
    base = mp.mpmathify(s) - mp.mpf(l) / 2 + sum(den)
    out = []
    for mask in range(1 << len(num)):
        picked = [e for i, e in enumerate(num) if mask >> i & 1]
        out.append((-1 if (len(num) - len(picked)) % 2 else 1, base - sum(picked)))
    return out


def absolute_Z(l: int, num: tuple, den: tuple, w, s):
    """Z_f(w, s) = sum_I sign * zeta_b(w, shift_I; den exponents)."""
    total = mp.mpf(0)
    for sign, shift in subset_shifts(l, num, den, s):
        if len(set(den)) == 1:
            term = equal_period_zeta(len(den), shift, den[0], w)
        elif len(den) == 2:
            term = two_period_zeta(shift, den[0], den[1], w)
        else:
            raise ValueError("reference covers equal periods or two coprime periods")
        total += sign * term
    return total


def absolute_zeta(l: int, num: tuple, den: tuple, s):
    """zeta_f(s) = prod_I Gamma_b(shift_I)^sign for equal den exponents."""
    value = mp.mpf(1)
    for sign, shift in subset_shifts(l, num, den, s):
        g = multiple_gamma(len(den), shift, den[0])
        value = value * g if sign > 0 else value / g
    return value

