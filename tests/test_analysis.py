import math
import tracemalloc
from fractions import Fraction

import mpmath
import pytest

import exact
from telegame import (
    BracketError,
    DomainError,
    InvalidInputError,
    f_coop_avg,
    f_noncoop,
    find_classical_crossings,
    find_threshold,
    sweep,
)
from telegame.analysis import _bisect
from telegame.checks import ALPHA_TH_EXACT
from test_closed_form_oracle import oracle

TH_GAP = lambda a: f_coop_avg(a) - f_noncoop(a)
TR_GAP = lambda a: f_noncoop(a) - 0.5
COOP_GAP = lambda a: f_coop_avg(a) - 0.5


class TestSweep:
    def test_endpoints_only(self):
        rows = sweep(0.5, 12.0, 2)
        assert len(rows) == 2
        assert rows[0].alpha == 0.5
        assert rows[-1].alpha == 12.0

    def test_grid_row_at_two(self):
        rows = sweep(0.5, 12.0, 24)  # step 0.5 puts alpha = 2 on the grid
        row = next(r for r in rows if r.alpha == pytest.approx(2.0, abs=1e-12))
        assert row.f_tr == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_coop_column_is_exact_average(self):
        for row in sweep(0.5, 30.0, 40):
            assert row.f_coop == (row.f_ab + row.f_ac) / 2.0
            assert 0.0 < row.f_ac < row.f_tr <= 1.0
            assert row.f_ab >= row.f_tr - 1e-14

    def test_reproducible(self):
        assert sweep(0.5, 12.0, 100) == sweep(0.5, 12.0, 100)

    def test_crossing_brackets_on_default_grid(self):
        rows = sweep(0.5, 12.0, 200)
        below = [r for r in rows if r.alpha < 5.7]
        above = [r for r in rows if r.alpha > 5.82]
        assert all(r.f_tr > r.f_coop for r in below)
        assert all(r.f_tr < r.f_coop for r in above)

    @pytest.mark.parametrize("bad", [(2.0, 1.0, 10), (0.5, 12.0, 1), (0.5, 12.0, 2.5),
                                     (0.5, 12.0, True), ("a", 3, 10), (12.0, 12.0, 3),
                                     (0.5, True, 3), (0.5, "12", 3)])
    def test_invalid_arguments(self, bad):
        with pytest.raises(InvalidInputError):
            sweep(*bad)

    @pytest.mark.parametrize("bad", [(0.4, 12.0, 10), (0.5, math.inf, 3), (math.nan, 12.0, 3)])
    def test_bound_outside_alpha_domain(self, bad):
        """Both bounds pass the one alpha check that every other entry point uses."""
        with pytest.raises(DomainError):
            sweep(*bad)

    def test_bound_past_the_edge_is_refused_before_allocating(self):
        """A grid up to 1.7e308 would build about half of its 10**6 rows
        before the first alpha past the edge raised."""
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="overflows"):
                sweep(0.5, 1.7e308, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("steps", [10**6 + 1, 10**30, 2**63])
    def test_step_count_is_capped_before_allocating(self, steps):
        """A row costs about 250 bytes, so 10**8 of them would exhaust memory
        rather than raise; numpy's own errors for 10**30 and 2**63 would leak."""
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="steps"):
                sweep(0.5, 1.0, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestThreshold:
    def test_location_and_residual(self):
        res = find_threshold(1e-9)
        assert 5.70 <= res.alpha_th <= 5.82
        assert res.residual <= 1e-9
        assert abs(f_coop_avg(res.alpha_th) - f_noncoop(res.alpha_th)) <= 1e-9
        assert res.iterations <= 200

    def test_fidelity_at_threshold(self):
        res = find_threshold(1e-9)
        assert res.f_at_threshold == pytest.approx(0.5858, abs=5e-4)

    def test_looser_tolerance_needs_fewer_iterations(self):
        assert find_threshold(1e-3).iterations < find_threshold(1e-9).iterations

    def test_tol_must_be_positive(self):
        """Both solvers reject a tol that is not positive, NaN included, as
        invalid input rather than as a bracketing failure."""
        for solver in (find_threshold, find_classical_crossings):
            for tol in (0.0, -1.0, math.nan):
                with pytest.raises(InvalidInputError):
                    solver(tol)

    @pytest.mark.parametrize("gap, lo, hi", [(TH_GAP, 1.0, 50.0), (TR_GAP, 2.0, 200.0),
                                             (COOP_GAP, 2.0, 200.0)],
                             ids=["threshold", "noncoop-classical", "coop-classical"])
    def test_single_sign_change_on_search_interval(self, gap, lo, hi):
        """Each solve bisects its whole interval, so it must hold exactly one root."""
        signs = 0
        prev = gap(lo)
        a = lo
        while a < hi:
            a = min(a + 0.01, hi)
            cur = gap(a)
            if prev * cur < 0:
                signs += 1
            prev = cur
        assert signs == 1

    @pytest.mark.parametrize("tol", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_loose_tolerance_still_places_roots(self, tol):
        """A loose tol cannot stop the bisection before the bracket is 0.01 wide."""
        tight = find_threshold(1e-15)
        loose = find_threshold(tol)
        assert abs(loose.alpha_th - tight.alpha_th) <= 0.005
        assert abs(loose.alpha_th - tight.alpha_th) <= (loose.bracket_width + tight.bracket_width) / 2
        for got, want in zip(find_classical_crossings(tol), find_classical_crossings(1e-15)):
            assert abs(got - want) <= 0.005


class TestClassicalCrossings:
    def test_noncoop_crossing_against_algebraic_oracle(self):
        """The larger root of f = 1/2 solves alpha^2 - 10 alpha + 5 = 0."""
        alpha_tr, _ = find_classical_crossings()
        exact = 5.0 + 2.0 * math.sqrt(5.0)
        assert abs(alpha_tr - exact) < 1e-6
        poly = Fraction(alpha_tr) ** 2 - 10 * Fraction(alpha_tr) + 5
        assert abs(float(poly)) < 1e-6

    def test_coop_crossing_is_larger(self):
        alpha_tr, alpha_coop = find_classical_crossings()
        assert alpha_coop > alpha_tr
        assert abs(f_coop_avg(alpha_coop) - 0.5) < 1e-9
        assert abs(f_noncoop(alpha_tr) - 0.5) < 1e-9


class TestRootFinding:
    def test_bisect_contract(self):
        root, iterations, residual, width = _bisect(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert residual <= 1e-12
        assert iterations > 0
        assert abs(root - math.sqrt(2.0)) <= width / 2 <= 0.005

    def test_bisect_raises_at_adjacent_floats(self):
        # sqrt(2) is no float, so |x^2 - 2| stays near 4e-16 > tol
        with pytest.raises(BracketError, match="bisection stopped"):
            _bisect(lambda x: x * x - 2.0, 0.0, 2.0, 1e-30)

    def test_bisect_raises_at_iteration_cap(self):
        # from 1e300 down to a root near 1e-300 takes more than the cap
        with pytest.raises(BracketError, match="200 iterations"):
            _bisect(lambda x: x - 1e-300, -1.0, 1e300, 1e-320)

    def test_production_solves_converge_on_tolerance(self):
        result = find_threshold(1e-9)
        assert result.iterations == 28 and result.residual <= 1e-9
        assert result.bracket_width <= 0.01
        alpha_tr, alpha_coop = find_classical_crossings()
        assert abs(f_noncoop(alpha_tr) - 0.5) <= 1e-12
        assert abs(f_coop_avg(alpha_coop) - 0.5) <= 1e-12

    def test_bisect_needs_bracket(self):
        with pytest.raises(BracketError):
            _bisect(lambda x: x * x + 1.0, -1.0, 1.0, 1e-9)

    @pytest.mark.parametrize("fn", [lambda x: x, lambda x: math.nan], ids=["zero", "nan"])
    def test_bisect_refuses_a_zero_or_nan_endpoint(self, fn):
        """Only a strict sign change brackets a root."""
        with pytest.raises(BracketError, match="no sign change"):
            _bisect(fn, 0.0, 1.0, 1e-9)


# polynomial, float gap, solver interval, and the gap on the 420-digit oracle
EXACT_CASES = {
    "threshold": (exact.THRESHOLD, TH_GAP, 1.0, 50.0,
                  lambda o: (o["f_ab_coop"] + o["f_ac_coop"]) / 2 - o["f_noncoop"]),
    "noncoop-classical": (exact.STANDARD_CROSSING, TR_GAP, 2.0, 200.0, lambda o: o["f_noncoop"] - 0.5),
    "coop-classical": (exact.COOP_CROSSING, COOP_GAP, 2.0, 200.0,
                       lambda o: (o["f_ab_coop"] + o["f_ac_coop"]) / 2 - 0.5),
}
TOLS = (1e-3, 1e-6, 1e-9, 1e-12)


class TestExactRoots:
    """The solvers against the exact roots of tests/exact.py's polynomials.

    These check the bisection and the float closed forms it reads, not the
    physics: the polynomials are derived from the same closed forms.
    """

    @pytest.mark.parametrize("case", EXACT_CASES)
    def test_one_root_on_the_solver_interval_and_the_oracle_gap_vanishes(self, case):
        coefficients, _, lo, hi, oracle_gap = EXACT_CASES[case]
        (root,) = exact.alpha_roots(coefficients, lo, hi)
        with mpmath.workdps(exact.DIGITS):
            assert abs(oracle_gap(oracle(root))) <= mpmath.mpf(10) ** (5 - exact.DIGITS)

    def test_known_values(self):
        (alpha_th,) = exact.alpha_roots(exact.THRESHOLD, 1.0, 50.0)
        (alpha_tr,) = exact.alpha_roots(exact.STANDARD_CROSSING, 2.0, 200.0)
        (alpha_coop,) = exact.alpha_roots(exact.COOP_CROSSING, 2.0, 200.0)
        with mpmath.workdps(exact.DIGITS):
            assert mpmath.nstr(alpha_th, 20) == "5.7615647384767373573"
            assert mpmath.nstr(alpha_coop, 20) == "51.191698229015438513"
            assert abs(alpha_tr - (5 + 2 * mpmath.sqrt(5))) <= mpmath.mpf(10) ** (5 - exact.DIGITS)
        assert ALPHA_TH_EXACT == float(alpha_th)

    @pytest.mark.parametrize("tol", TOLS)
    def test_threshold_lies_within_half_its_bracket(self, tol):
        (root,) = exact.alpha_roots(exact.THRESHOLD, 1.0, 50.0)
        res = find_threshold(tol)
        with mpmath.workdps(exact.DIGITS):
            assert abs(res.alpha_th - root) <= res.bracket_width / 2

    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("index, case", enumerate(["noncoop-classical", "coop-classical"]))
    def test_crossing_lies_within_half_its_bracket(self, index, case, tol):
        coefficients, gap, lo, hi, _ = EXACT_CASES[case]
        (root,) = exact.alpha_roots(coefficients, lo, hi)
        alpha, _, _, width = _bisect(gap, lo, hi, tol)
        assert alpha == find_classical_crossings(tol)[index]
        with mpmath.workdps(exact.DIGITS):
            assert abs(alpha - root) <= width / 2
