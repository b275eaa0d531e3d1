import math
from fractions import Fraction

import pytest

from telegame import (
    BracketError,
    InvalidInputError,
    f_coop_avg,
    f_noncoop,
    find_classical_crossings,
    find_threshold,
    sweep,
)
from telegame.analysis import _bisect, _scan_bracket


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

    @pytest.mark.parametrize("bad", [(0.4, 12.0, 10), (2.0, 1.0, 10), (0.5, 12.0, 1),
                                     (0.5, math.inf, 3), (math.nan, 12.0, 3)])
    def test_invalid_arguments(self, bad):
        with pytest.raises(InvalidInputError):
            sweep(*bad)


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
        with pytest.raises(InvalidInputError):
            find_threshold(0.0)

    def test_single_sign_change_on_search_interval(self):
        gap = lambda a: f_coop_avg(a) - f_noncoop(a)
        signs = 0
        prev = gap(1.0)
        a = 1.0
        while a < 50.0:
            a += 0.01
            cur = gap(a)
            if prev * cur < 0:
                signs += 1
            prev = cur
        assert signs == 1


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
        root, iterations, residual = _bisect(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert residual <= 1e-12
        assert iterations > 0

    def test_bisect_needs_bracket(self):
        with pytest.raises(BracketError):
            _bisect(lambda x: x * x + 1.0, -1.0, 1.0, 1e-9)

    def test_scan_finds_first_bracket(self):
        lo, hi = _scan_bracket(lambda x: x - 0.55, 0.0, 2.0, 0.1)
        assert lo <= 0.55 <= hi

    def test_scan_failure(self):
        with pytest.raises(BracketError):
            _scan_bracket(lambda x: 1.0, 0.0, 1.0, 0.1)
