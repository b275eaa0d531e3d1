"""Exact algebraic values of the paper's headline alphas.

With s = sqrt((2 alpha - 1)/(alpha + 1)), so alpha = (1 + s^2)/(2 - s^2),
every closed form is rational in s. Clearing denominators in each defining
equation gives an integer polynomial in s:

- threshold, f_coop_avg = f_noncoop: -4s^6 + 30s^5 - 9s^4 - 228s^3 + 345s^2 + 12s - 163;
- cooperative classical crossing, f_coop_avg = 1/2: -4s^4 - 18s^3 + 127s^2 - 180s + 68;
- standard classical crossing, f_noncoop = 1/2: 4s^2 - 6s + 1, whose root
  gives alpha = 5 + 2 sqrt(5).

Their roots, taken with mpmath at 50 digits, are exact references for the
float solvers. The polynomials come from the closed forms, so they check the
solvers and the float evaluation of the closed forms, not the physics.
"""

import mpmath

DIGITS = 50

# integer coefficients in s, highest degree first
THRESHOLD = (-4, 30, -9, -228, 345, 12, -163)
COOP_CROSSING = (-4, -18, 127, -180, 68)
STANDARD_CROSSING = (4, -6, 1)


def alpha_roots(coefficients, lo, hi):
    """The alphas in [lo, hi] at the real roots s in [0, sqrt(2)) of the
    polynomial, as 50-digit mpf values in increasing order."""
    with mpmath.workdps(DIGITS):
        roots = mpmath.polyroots(coefficients, maxsteps=200, extraprec=4 * DIGITS)
        real = [mpmath.re(r) for r in roots if abs(mpmath.im(r)) < mpmath.mpf(10) ** (5 - DIGITS)]
        alphas = [(1 + s * s) / (2 - s * s) for s in real if 0 <= s < mpmath.sqrt(2)]
        return sorted(a for a in alphas if lo <= a <= hi)
