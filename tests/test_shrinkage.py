"""Closed-form factors, the quadrature estimator, and the classification grid."""

import functools
import math
import os
import subprocess
import sys
import threading

import mpmath
import numpy as np
import pytest

from shrinksel import shrinkage
from shrinksel.core import InvariantError
from shrinksel.shrinkage import (DEFAULT_A_GRID, DEFAULT_RHO_GRID,
                                 DEFAULT_TAU_GRID, _MC_BLOCK, QuadratureError,
                                 ShrinkGridPoint, TwoVarProblem, _f_coeffs,
                                 _hs_row, _point_part, _quad_batch,
                                 hs_estimator_mc, hs_shrinkage,
                                 normal_estimator, normal_ratio_contracts,
                                 normal_shrink_factors, reverse_shrinkage_grid,
                                 write_grid_csv)


#: (rho, tau, mle) with MLE pairs of opposite signs: an estimate composed
#: with |x1/x2| in place of the signed x1/x2 gets each of them wrong.
OPPOSITE_SIGNS = [(rho, tau, mle) for rho, tau in ((0.5, 0.5), (0.9, 0.7))
                  for mle in ((2.0, -1.0), (-2.0, 1.0))]


def random_problem(rng, a_min=1.0) -> TwoVarProblem:
    rho = rng.uniform(0.001, 0.999)
    tau = rng.uniform(0.01, 100.0)
    a = rng.uniform(a_min, 100.0)
    return TwoVarProblem(rho=rho, tau=tau, mle=(a, 1.0))


class TestTwoVarProblem:
    def test_ratio(self):
        assert TwoVarProblem(rho=0.5, tau=1.0, mle=(-4.0, 2.0)).a == 2.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvariantError):
            TwoVarProblem(rho=1.0, tau=1.0, mle=(2.0, 1.0))
        with pytest.raises(InvariantError):
            TwoVarProblem(rho=-0.1, tau=1.0, mle=(2.0, 1.0))
        with pytest.raises(InvariantError):
            TwoVarProblem(rho=0.5, tau=0.0, mle=(2.0, 1.0))
        with pytest.raises(InvariantError):
            TwoVarProblem(rho=0.5, tau=1.0, mle=(1.0, 2.0))
        with pytest.raises(InvariantError):
            TwoVarProblem(rho=0.5, tau=1.0, mle=(1.0, 0.0))
        for mle in ((2.0, 1.0, 3.0), (2.0,), 2.0):
            with pytest.raises(InvariantError, match="pair of numbers"):
                TwoVarProblem(rho=0.5, tau=1.0, mle=mle)
        # A bool or text is not a number, in a scalar field or in the pair.
        for bad in ({"rho": False}, {"tau": True}, {"rho": "0.5"},
                    {"mle": (True, 1)}, {"mle": ("3", "1")}):
            (name,) = bad
            with pytest.raises(InvariantError, match=f"^{name}: "):
                TwoVarProblem(**{"rho": 0.5, "tau": 1.0, "mle": (2.0, 1.0),
                                 **bad})


def test_grid_csv_same_for_numpy_and_python_floats(tmp_path):
    # The default rho and tau grids hold np.float64 values.
    grid = (DEFAULT_RHO_GRID[::3], DEFAULT_TAU_GRID[::6], DEFAULT_A_GRID[::2])
    for name, number in (("py", float), ("np", np.float64)):
        write_grid_csv(reverse_shrinkage_grid(
            *(tuple(map(number, g)) for g in grid), x2=number(1.5)),
            str(tmp_path / f"{name}.csv"))
    py, np_ = (tmp_path / f"{name}.csv" for name in ("py", "np"))
    assert py.read_bytes() == np_.read_bytes()


class TestNormalFactors:
    def test_hand_computed_point(self):
        fac = normal_shrink_factors(TwoVarProblem(rho=0.5, tau=1.0,
                                                  mle=(2.0, 1.0)))
        assert fac.kappa == pytest.approx(0.5, abs=1e-15)
        assert fac.f1 == pytest.approx(-7.0 / 15.0, abs=1e-12)
        assert fac.f3 == pytest.approx(-2.0 / 15.0, abs=1e-12)
        assert fac.r1 == pytest.approx(8.0 / 15.0, abs=1e-12)
        assert fac.r2 == pytest.approx(11.0 / 15.0, abs=1e-12)
        assert fac.s1 == pytest.approx(7.0 / 15.0, abs=1e-12)
        assert fac.s2 == pytest.approx(4.0 / 15.0, abs=1e-12)

    def test_zero_correlation_gives_uniform_shrinkage(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tau = rng.uniform(0.05, 20.0)
            a = rng.uniform(1.0, 50.0)
            pr = TwoVarProblem(rho=0.0, tau=tau, mle=(a * 1.3, 1.3))
            fac = normal_shrink_factors(pr)
            kappa = 1.0 / (1.0 + tau * tau)
            assert fac.f3 == 0.0
            assert fac.s1 == pytest.approx(kappa, abs=1e-13)
            assert fac.s2 == pytest.approx(kappa, abs=1e-13)
            b1, b2 = normal_estimator(pr)
            assert abs(b1 / b2) == pytest.approx(a, rel=1e-12)

    def test_bound_chain_on_random_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(100_000):
            fac = normal_shrink_factors(random_problem(rng, a_min=1.0 + 1e-9))
            assert fac.f1 == fac.f2
            assert -1.0 < fac.f1 < fac.f3 < 0.0
            assert 0.0 < fac.s1 < 1.0
            assert fac.s2 < 1.0


class TestNormalEstimator:
    def test_hand_computed_estimate(self):
        b1, b2 = normal_estimator(TwoVarProblem(rho=0.5, tau=1.0,
                                                mle=(2.0, 1.0)))
        assert b1 == pytest.approx(16.0 / 15.0, abs=1e-12)
        assert b2 == pytest.approx(11.0 / 15.0, abs=1e-12)
        assert abs(b1 / b2) == pytest.approx(16.0 / 11.0, abs=1e-12)

    def test_equal_mles_keep_ratio_one(self):
        pr = TwoVarProblem(rho=0.7, tau=2.0, mle=(1.5, -1.5))
        b1, b2 = normal_estimator(pr)
        assert abs(b1 / b2) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("rho,tau,mle", OPPOSITE_SIGNS)
    def test_opposite_signs_match_the_ridge_solution(self, rho, tau, mle):
        # The posterior mean under beta ~ N(0, tau^2 I), solved directly.
        gram = np.array([[1.0, rho], [rho, 1.0]])
        want = np.linalg.solve(gram + np.eye(2) / tau ** 2, gram @ mle)
        got = normal_estimator(TwoVarProblem(rho=rho, tau=tau, mle=mle))
        assert got == pytest.approx(want.tolist(), rel=1e-12, abs=0.0)


class TestRatioContraction:
    def test_hand_computed_point(self):
        assert normal_ratio_contracts(TwoVarProblem(rho=0.5, tau=1.0,
                                                    mle=(2.0, 1.0)))

    def test_near_degenerate_ratio(self):
        pr = TwoVarProblem(rho=0.99, tau=1.0, mle=(1.0 + 1e-6, 1.0))
        assert normal_ratio_contracts(pr)

    def test_requires_strict_ratio_and_interior_rho(self):
        with pytest.raises(InvariantError):
            normal_ratio_contracts(TwoVarProblem(rho=0.5, tau=1.0,
                                                 mle=(1.0, 1.0)))
        with pytest.raises(InvariantError):
            normal_ratio_contracts(TwoVarProblem(rho=0.0, tau=1.0,
                                                 mle=(2.0, 1.0)))

    def test_refuses_opposite_signs(self):
        # The claim fails there: the estimate (0.303, -0.030) widens the
        # ratio from 2 to 10.
        pr = TwoVarProblem(rho=0.5, tau=0.5, mle=(2.0, -1.0))
        b1, b2 = normal_estimator(pr)
        assert abs(b1 / b2) == pytest.approx(10.0, rel=1e-12)
        with pytest.raises(InvariantError, match="same-sign"):
            normal_ratio_contracts(pr)


def mp_integrand(k1, k2, pr):
    """The horseshoe integrand's parts by its plain formulas, at 50 digits.

    Returns (f1, f2, f3), 1/d, (lin1, lin2, log E) and the prior weight F
    at weights (k1, k2). F E, lin1 F E and lin2 F E are the integrands of
    the estimator's denominator and its two numerators.
    """
    with mpmath.workdps(50):
        k1, k2 = mpmath.mpf(k1), mpmath.mpf(k2)
        rho, tau2 = mpmath.mpf(pr.rho), mpmath.mpf(pr.tau) ** 2
        x1, x2 = (mpmath.mpf(v) for v in pr.mle)
        d = 1 - (1 - k1) * (1 - k2) * rho ** 2
        f1 = (rho ** 2 - 1 - rho ** 2 * k2) * k1 / d
        f2 = (rho ** 2 - 1 - rho ** 2 * k1) * k2 / d
        f3 = -rho * k1 * k2 / d
        point = (f1 * x1 + f3 * x2, f2 * x2 + f3 * x1,
                 (f1 * x1 ** 2 + f2 * x2 ** 2 + 2 * f3 * x1 * x2) / 2)
        f_factor = (d ** mpmath.mpf("-0.5")
                    / (1 - (1 - tau2) * k1) / (1 - (1 - tau2) * k2)
                    * (1 - k1) ** mpmath.mpf("-0.5")
                    * (1 - k2) ** mpmath.mpf("-0.5"))
        return (f1, f2, f3), 1 / d, point, f_factor


def mp_sums(pr, maxdegree=None):
    """mpmath's tanh-sinh integrals of F E, lin1 F E and lin2 F E over
    [0, 1]^2: the denominator and the two numerators, at mpmath's own
    degree unless ``maxdegree`` caps it. Tanh-sinh needs no substitution
    for the (1 - k)^(-1/2) endpoint singularities."""

    # The three integrals visit the same nodes: evaluate each once.
    @functools.lru_cache(maxsize=None)
    def integrands(k1, k2):
        _, _, (lin1, lin2, log_e), f_factor = mp_integrand(k1, k2, pr)
        with mpmath.workdps(50):
            fe = f_factor * mpmath.exp(log_e)
            return fe, lin1 * fe, lin2 * fe

    with mpmath.workdps(15):
        return [mpmath.quad(lambda k1, k2, i=i: integrands(k1, k2)[i],
                            [0, 1], [0, 1], maxdegree=maxdegree)
                for i in range(3)]


@functools.lru_cache(maxsize=None)
def mp_tweedie_mean(rho, tau):
    """The horseshoe posterior mean at mle (2, -1) by Tweedie's formula,
    mle + G^-1 num / den, from :func:`mp_sums`. Tanh-sinh at degree 3
    agrees with mpmath's own degree, 6 here, to 2e-9 at both (rho, tau) of
    ``OPPOSITE_SIGNS``, in a twentieth of the time."""
    pr = TwoVarProblem(rho=rho, tau=tau, mle=(2.0, -1.0))
    den, num1, num2 = mp_sums(pr, maxdegree=3)
    gram = np.array([[1.0, rho], [rho, 1.0]])
    return np.array(pr.mle) + np.linalg.solve(
        gram, [float(num1 / den), float(num2 / den)])


class TestHsIntegrand:
    """The integrand's algebra, ``_f_coeffs`` and ``_point_part``, against
    ``mp_integrand``, and the quadrature against mpmath's own integral."""

    def test_symmetric_numerators(self):
        pr = TwoVarProblem(rho=0.4, tau=0.7, mle=(1.2, 1.2))
        f, _ = _f_coeffs(0.3, 0.3, pr.rho)
        n1, n2, _ = _point_part(pr) @ f
        assert n1 == pytest.approx(n2, rel=1e-14)

    def test_zero_correlation_factorizes(self):
        # At rho = 0 the quadratic form is diagonal: E factorises into
        # exp(-k1 x1^2 / 2) exp(-k2 x2^2 / 2), and d = 1.
        pr = TwoVarProblem(rho=0.0, tau=0.5, mle=(2.0, 1.0))
        f, inv_d = _f_coeffs(0.3, 0.6, pr.rho)
        assert f.tolist() == [-0.3, -0.6, 0.0]
        assert inv_d == 1.0
        log_e = (_point_part(pr) @ f)[2]
        assert log_e == pytest.approx(-0.5 * (0.3 * 2.0 ** 2 + 0.6 * 1.0 ** 2),
                                      rel=1e-12)

    def test_matches_high_precision_evaluation(self):
        pr = TwoVarProblem(rho=0.5, tau=0.5, mle=(2.0, 1.0))
        f, inv_d = _f_coeffs(0.3, 0.7, pr.rho)
        got = [*f, inv_d, *(_point_part(pr) @ f)]
        want_f, want_inv_d, want_point, _ = mp_integrand(0.3, 0.7, pr)
        names = ("f1", "f2", "f3", "1/d", "lin1", "lin2", "log E")
        for name, g, w in zip(names, got, [*want_f, want_inv_d, *want_point]):
            assert g == pytest.approx(float(w), rel=1e-12), name

    def test_quadrature_matches_mpmath_integral(self):
        """r1 and r2 of ``hs_shrinkage`` against the ratios of mpmath's
        integrals (:func:`mp_sums`): the substitution, the weights and the
        tau and d factors of the quadrature, end to end."""
        pr = TwoVarProblem(rho=0.5, tau=0.5, mle=(2.0, 1.0))
        den, num1, num2 = mp_sums(pr)
        x1, x2 = pr.mle
        want = (float(-num1 / (x1 * den)), float(-num2 / (x2 * den)))
        res = hs_shrinkage(pr)
        assert res.r1 == pytest.approx(want[0], rel=1e-8, abs=0.0)
        assert res.r2 == pytest.approx(want[1], rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("rho,tau,mle", OPPOSITE_SIGNS)
    def test_opposite_signs_match_the_tweedie_mean(self, rho, tau, mle):
        # The mean is odd in the MLE pair: (-2, 1) gives minus (2, -1)'s.
        want = mp_tweedie_mean(rho, tau) * (mle[0] / 2.0)
        res = hs_shrinkage(TwoVarProblem(rho=rho, tau=tau, mle=mle))
        assert res.estimate == pytest.approx(want.tolist(), rel=1e-8, abs=0.0)


class TestHsEstimator:
    def test_symmetric_problem(self):
        b1, b2 = hs_shrinkage(
            TwoVarProblem(rho=0.0, tau=0.5, mle=(1.5, 1.5))).estimate
        assert b1 == pytest.approx(b2, rel=1e-10)

    def test_independent_coordinates_widen_ratio(self):
        pr = TwoVarProblem(rho=0.0, tau=0.5, mle=(3.0, 1.0))
        res = hs_shrinkage(pr)
        b1, b2 = res.estimate
        assert abs(b1 / b2) >= 3.0
        mc = hs_estimator_mc(pr, n_samples=1_000_000, seed=17)
        assert abs(b1 - mc.estimate[0]) < 4 * mc.se[0]
        assert abs(b2 - mc.estimate[1]) < 4 * mc.se[1]

    def test_high_correlation_point_matches_mc(self):
        pr = TwoVarProblem(rho=0.95, tau=0.1, mle=(3.0, 1.0))
        quad = hs_shrinkage(pr)
        mc = hs_estimator_mc(pr, n_samples=2_000_000, seed=3)
        for q, m, se in zip(quad.estimate, mc.estimate, mc.se):
            assert abs(q - m) < 4 * se
        quad_reverse = abs(quad.estimate[0] / quad.estimate[1]) >= pr.a
        mc_reverse = abs(mc.estimate[0] / mc.estimate[1]) >= pr.a
        assert quad_reverse == mc_reverse

    def test_quadrature_error_reported(self):
        res = hs_shrinkage(TwoVarProblem(rho=0.97, tau=0.05, mle=(10.0, 1.0)))
        assert res.quad_error < 1e-6
        assert res.order in (32, 64, 128, 256, 512)

    @pytest.mark.parametrize("rho,tau,mle", OPPOSITE_SIGNS)
    def test_opposite_signs_mc_matches_the_tweedie_mean(self, rho, tau, mle):
        # Against mpmath's mean, not hs_shrinkage: the two evaluators share
        # the composition, so they can agree and both be wrong.
        want = mp_tweedie_mean(rho, tau) * (mle[0] / 2.0)
        mc = hs_estimator_mc(TwoVarProblem(rho=rho, tau=tau, mle=mle),
                             n_samples=1_000_000, seed=5)
        for w, m, se in zip(want, mc.estimate, mc.se):
            assert abs(w - m) < 4 * se

    def test_sign_flip_invariance(self):
        base = TwoVarProblem(rho=0.9, tau=0.3, mle=(4.0, 2.0))
        flipped = TwoVarProblem(rho=0.9, tau=0.3, mle=(-4.0, -2.0))
        rb = hs_shrinkage(base)
        rf = hs_shrinkage(flipped)
        assert rb.estimate[0] == pytest.approx(-rf.estimate[0], rel=1e-9)
        assert rb.estimate[1] == pytest.approx(-rf.estimate[1], rel=1e-9)
        ratio_b = abs(rb.estimate[0] / rb.estimate[1])
        ratio_f = abs(rf.estimate[0] / rf.estimate[1])
        assert (ratio_b >= base.a) == (ratio_f >= flipped.a)


class TestGrid:
    def test_row_count_and_order(self, tmp_path):
        pts = reverse_shrinkage_grid(rho_grid=[0.94, 0.95], tau_grid=[0.1, 0.5],
                                     a_grid=[2.0, 10.0], x2=1.0)
        assert len(pts) == 8
        assert [p.problem.rho for p in pts[:4]] == [0.94] * 4
        assert [p.problem.tau for p in pts[:2]] == [0.1, 0.1]
        path = tmp_path / "grid.csv"
        write_grid_csv(pts, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("rho,tau,a,x2,ratio_mle,ratio_shrunk,reverse")
        assert len(lines) == 9

    def test_zero_correlation_is_always_reverse(self):
        pts = reverse_shrinkage_grid(rho_grid=[0.0], tau_grid=[0.5],
                                     a_grid=[1.5, 3.0, 10.0], x2=1.0)
        assert all(p.reverse for p in pts)

    def test_sign_preservation_on_full_default_grid(self):
        # Positive MLEs must keep positive estimates everywhere the two
        # default panels are evaluated (the per-coordinate shrinkage
        # factors stay below one in practice for the horseshoe as well).
        for x2 in (1.0, 1.5):
            for rho in DEFAULT_RHO_GRID:
                for tau in DEFAULT_TAU_GRID:
                    for a in DEFAULT_A_GRID:
                        pr = TwoVarProblem(rho=rho, tau=tau, mle=(a * x2, x2))
                        b1, b2 = hs_shrinkage(pr).estimate
                        assert b1 > 0 and b2 > 0, (rho, tau, a, x2)


class TestGridBatches:
    """A grid row evaluated as one batch against each point alone."""

    def test_rows_match_single_points(self):
        # A = 1.1 twice: a repeated value is its own member of the batch.
        a_grid = [1.0, 1.1, 10.0, 1.1]
        for x2 in (1.0, 1.5):
            points = reverse_shrinkage_grid([0.0, 0.5, 0.99], [0.01, 0.95],
                                            a_grid, x2=x2)
            assert len(points) == 24
            for pt in points:
                res = hs_shrinkage(pt.problem)
                b1, b2 = res.estimate
                assert pt.error is None
                assert pt.ratio_shrunk == abs(b1 / b2), pt.problem
                assert pt.reverse == (abs(b1 / b2) >= pt.problem.a)
                assert pt.quad_error == res.quad_error
            for lo in range(0, len(points), len(a_grid)):
                row = [pt.problem for pt in points[lo:lo + len(a_grid)]]
                # HsEstimate equality covers the estimate, r1, r2, s1, s2,
                # quad_error and the order reached.
                assert _hs_row(row) == [hs_shrinkage(pr) for pr in row]

    def test_failed_points_keep_the_single_point_record(self, monkeypatch,
                                                        tmp_path):
        # rho 0.99, tau 0.01 needs order 128; at tau 0.5 only A = 10 fails,
        # so one batch holds points that converge and one that does not.
        monkeypatch.setattr(shrinkage, "_QUAD_ORDERS", (16, 32))
        points = reverse_shrinkage_grid([0.99], [0.01, 0.5], [1.1, 10.0, 1.0])
        assert [pt.error is None for pt in points] == [False] * 3 + [
            True, False, True]
        for pt in points:
            if pt.error is None:
                assert pt.quad_error == hs_shrinkage(pt.problem).quad_error
                continue
            with pytest.raises(QuadratureError) as exc:
                hs_shrinkage(pt.problem)
            assert pt.error == str(exc.value)
            assert "by order 32 (achieved" in pt.error
            assert pt.quad_error == exc.value.achieved
            assert math.isnan(pt.ratio_shrunk) and pt.reverse is False
        path = tmp_path / "grid.csv"
        write_grid_csv(points, str(path))
        row = path.read_text().splitlines()[1].split(",")
        assert row[5:] == ["nan", "0", f"{points[0].quad_error:.6g}"]

    def test_batches_split_below_one_megabyte(self):
        # At order 128 (16384 nodes) seven problems fill 0.875 MB, so nine
        # go in two batches; at order 256 each goes alone.
        row = [TwoVarProblem(rho=0.99, tau=0.01, mle=(1.0 + a / 4, 1.0))
               for a in range(9)]
        for order in (128, 256):
            assert _quad_batch(row, order) == [
                _quad_batch([pr], order)[0] for pr in row]

    def test_blocks_of_one_rho_split_into_chunks(self):
        # Every (tau, A) point of one rho is one batch per order. At rho
        # 0.99, 44 of these 48 points reach order 64 (31 fill a chunk) and
        # 13 reach order 128 (7 fill a chunk), so both orders cut the block
        # into chunks that mix tau values.
        tau_grid = [0.01, 0.015, 0.02, 0.03, 0.04, 0.05, 0.07, 0.1]
        a_grid = [1.0, 1.1, 1.5, 2.0, 5.0, 10.0]
        block = [TwoVarProblem(rho=0.99, tau=tau, mle=(a, 1.0))
                 for tau in tau_grid for a in a_grid]
        alone = [hs_shrinkage(pr) for pr in block]
        assert sum(res.order >= 64 for res in alone) == 44
        assert sum(res.order >= 128 for res in alone) == 13
        assert _hs_row(block) == alone
        points = reverse_shrinkage_grid([0.99], tau_grid, a_grid)
        assert [pt.quad_error for pt in points] == [
            res.quad_error for res in alone]
        for order in (64, 128):
            assert _quad_batch(block, order) == [
                _quad_batch([pr], order)[0] for pr in block]


def plain_formula_r_values(pr, order):
    """The r-values by the integrand's plain formula on a fresh rule.

    Every factor is a full node-grid array and each sum a plain ``sum``;
    the kernel rearranges this arithmetic, so the two agree to rounding.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(order)
    theta = (nodes + 1.0) * (math.pi / 4.0)
    w = weights * (math.pi / 4.0)
    sin_t = np.sin(theta)
    k = sin_t * sin_t
    axis_w = w * 2.0 * sin_t
    tau2 = pr.tau ** 2
    x1, x2 = pr.mle
    k1, k2 = k[:, None], k[None, :]
    rho = pr.rho
    d = 1.0 - (1.0 - k1) * (1.0 - k2) * rho * rho
    f1 = (rho * rho - 1.0 - rho * rho * k2) * k1 / d
    f2 = (rho * rho - 1.0 - rho * rho * k1) * k2 / d
    f3 = -rho * k1 * k2 / d
    log_e = (f1 * x1 * x1 + f2 * x2 * x2 + 2.0 * f3 * x1 * x2) / 2.0
    rest = (d ** -0.5
            / (1.0 - (1.0 - tau2) * k1)
            / (1.0 - (1.0 - tau2) * k2))
    base = (axis_w[:, None] * axis_w[None, :]) * rest * np.exp(log_e - log_e.max())
    den = float(base.sum())
    num1 = float(((f1 * x1 + f3 * x2) * base).sum())
    num2 = float(((f2 * x2 + f3 * x1) * base).sum())
    return -num1 / (x1 * den), -num2 / (x2 * den)


class TestCachedQuadratureRules:
    """Each Gauss-Legendre rule is built once and reused read-only."""

    @staticmethod
    def fresh_rule_r_values(pr, order):
        """The r-values with the rule and the rho tables rebuilt here.

        Repeats the kernel's operations one by one, the matrix-vector
        products included, so a cached rule or table must give the same
        bits.
        """
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(order)
        theta = (nodes + 1.0) * (math.pi / 4.0)
        w = weights * (math.pi / 4.0)
        sin_t = np.sin(theta)
        k = sin_t * sin_t
        axis_w = w * 2.0 * sin_t
        x1, x2 = pr.mle
        k1, k2 = k[:, None], k[None, :]
        rho, r2 = pr.rho, pr.rho * pr.rho
        inv_d = 1.0 / (1.0 - (1.0 - k1) * (1.0 - k2) * r2)
        f = np.stack([(r2 - 1.0 - r2 * k2) * k1, (r2 - 1.0 - r2 * k1) * k2,
                      -rho * k1 * k2]) * inv_d
        f = f.reshape(3, -1)
        wd = (axis_w[:, None] * axis_w[None, :]) * np.sqrt(inv_d)
        # The rows lin1, lin2 and log E on (f1, f2, f3).
        point = np.array([[x1, 0.0, x2], [0.0, x2, x1],
                          [x1 * x1 / 2.0, x2 * x2 / 2.0, x1 * x2]])
        log_e = point[2] @ f
        base = np.exp(log_e - log_e.max()) * wd.ravel()
        g = 1.0 / (1.0 - (1.0 - pr.tau ** 2) * k)
        base = (base.reshape(order, order) * g[:, None] * g).ravel()
        num1, num2 = point[:2] @ (f @ base)
        den = base.sum()
        return float(-num1 / (x1 * den)), float(-num2 / (x2 * den))

    @pytest.mark.parametrize("order", [16, 32, 64])
    def test_bit_identical_to_a_fresh_rule(self, order):

        for pr in (TwoVarProblem(rho=0.97, tau=0.05, mle=(10.0, 1.0)),
                   TwoVarProblem(rho=0.94, tau=0.5, mle=(3.0, 1.5)),
                   TwoVarProblem(rho=0.0, tau=0.95, mle=(1.1, 1.0))):
            want = self.fresh_rule_r_values(pr, order)
            # A second call reads the cached rule.
            assert _quad_batch([pr], order)[0][:2] == want
            assert _quad_batch([pr], order)[0][:2] == want

    def test_cached_arrays_are_read_only(self):
        from shrinksel.shrinkage import _quad_rule

        k, w2 = _quad_rule(32)
        assert _quad_rule(32)[0] is k
        assert k.shape == (32,) and w2.shape == (32, 32)
        for arr in (k, w2):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5

    @staticmethod
    def fresh_rule_point(pr, tol=1e-6, r_values=None):
        """(ratio_shrunk, reverse, quad_error, order) by doubling fresh rules.

        Doubles the order from 16 until the r-values (``r_values``, by
        default the fresh-rule ones) change by less than ``tol`` relative,
        then maps them to the estimate and its ratio.
        """
        r_values = r_values or TestCachedQuadratureRules.fresh_rule_r_values
        prev = None
        for order in (16, 32, 64, 128, 256, 512):
            r1, r2 = r_values(pr, order)
            if prev is not None:
                err = (max(abs(r1 - prev[0]), abs(r2 - prev[1]))
                       / max(abs(r1), abs(r2), 1e-300))
                if err < tol:
                    rho, a = pr.rho, pr.a
                    s1 = (r1 - rho * r2 / a) / (1.0 - rho * rho)
                    s2 = (r2 - rho * r1 * a) / (1.0 - rho * rho)
                    ratio = abs((1.0 - s1) * pr.mle[0] / ((1.0 - s2) * pr.mle[1]))
                    return ratio, ratio >= a, err, order
            prev = (r1, r2)
        raise AssertionError(f"no convergence at {pr}")

    @pytest.mark.parametrize("x2", [1.0, 1.5])
    def test_default_grid_bit_identical_to_fresh_rules(self, x2):
        points = reverse_shrinkage_grid(x2=x2)
        assert len(points) == (len(DEFAULT_RHO_GRID) * len(DEFAULT_TAU_GRID)
                               * len(DEFAULT_A_GRID))
        for pt in points:
            got = (pt.ratio_shrunk, pt.reverse, pt.quad_error)
            assert got == self.fresh_rule_point(pt.problem)[:3], pt.problem

    @pytest.mark.parametrize("order", [16, 32, 64, 128])
    def test_r_values_match_the_plain_formula(self, order):

        for pr in (TwoVarProblem(rho=0.97, tau=0.05, mle=(10.0, 1.0)),
                   TwoVarProblem(rho=0.94, tau=0.5, mle=(3.0, 1.5)),
                   TwoVarProblem(rho=0.99, tau=0.01, mle=(1.1, 1.0)),
                   TwoVarProblem(rho=0.5, tau=0.5, mle=(2.0, 1.0)),
                   TwoVarProblem(rho=0.0, tau=0.95, mle=(1.1, 1.0))):
            want = plain_formula_r_values(pr, order)
            assert _quad_batch([pr], order)[0][:2] == pytest.approx(
                want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("x2", [1.0, 1.5])
    def test_default_grid_matches_the_plain_formula(self, x2):
        # The rearranged arithmetic moves the last digits only: no point
        # changes its classification or the order it converges at.
        for pt in reverse_shrinkage_grid(x2=x2):
            ratio, reverse, _, order = self.fresh_rule_point(
                pt.problem, r_values=plain_formula_r_values)
            assert pt.reverse == reverse, pt.problem
            assert hs_shrinkage(pt.problem).order == order, pt.problem
            assert pt.ratio_shrunk == pytest.approx(ratio, rel=1e-12, abs=0.0)

    def test_rho_tables_are_read_only_and_bounded(self):
        from shrinksel.shrinkage import _QUAD_ORDERS, _rho_tables

        assert _rho_tables.cache_info().maxsize == len(_QUAD_ORDERS)
        tables = _rho_tables(0.95, 32)
        assert _rho_tables(0.95, 32) is tables
        assert len(tables) == 4
        for arr in tables:
            assert arr.shape == (32, 32)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.5

    def test_interleaved_rho_values_give_identical_r_values(self):
        from shrinksel.shrinkage import _rho_tables

        orders = (16, 32, 64, 128)
        pr_a = TwoVarProblem(rho=0.96, tau=0.3, mle=(3.0, 1.0))
        pr_b = TwoVarProblem(rho=0.5, tau=0.7, mle=(2.0, 1.5))
        want_a = [self.fresh_rule_r_values(pr_a, o) for o in orders]
        want_b = [self.fresh_rule_r_values(pr_b, o) for o in orders]
        _rho_tables.cache_clear()
        # One order at a time: B's set sits beside A's.
        for o, wa, wb in zip(orders, want_a, want_b):
            assert _quad_batch([pr_a], o)[0][:2] == wa
            assert _quad_batch([pr_b], o)[0][:2] == wb
            assert _quad_batch([pr_a], o)[0][:2] == wa
        # Every order of A, then of B, then of A: B's sets evict some of A's.
        for pr, want in ((pr_a, want_a), (pr_b, want_b), (pr_a, want_a)):
            assert [_quad_batch([pr], o)[0][:2] for o in orders] == want


def whole_array_mc(pr, n_samples, seed):
    """``hs_estimator_mc`` with all samples processed in one piece.

    Draws the same uniforms in the same order (one ``(2, b)`` array per
    block of ``_MC_BLOCK`` samples), joins them into whole k1 and k2
    arrays, accumulates the sums and cross-products of (lin1 phi, lin2 phi,
    phi) over all samples at once, and maps them to the estimate and its
    delta-method standard errors. Returns (estimate, se, (r1, r2)).
    """
    from numpy.random import PCG64DXSM, Generator, SeedSequence

    rho, tau = pr.rho, pr.tau
    x1, x2 = pr.mle
    rng = Generator(PCG64DXSM(SeedSequence(seed)))
    u = np.concatenate([rng.random((2, min(_MC_BLOCK, n_samples - lo)))
                        for lo in range(0, n_samples, _MC_BLOCK)], axis=1)
    k1, k2 = 1.0 / (1.0 + (tau * np.tan(u * (math.pi / 2.0))) ** 2)
    d = 1.0 - (1.0 - k1) * (1.0 - k2) * rho * rho
    f1 = (rho * rho - 1.0 - rho * rho * k2) * k1 / d
    f2 = (rho * rho - 1.0 - rho * rho * k1) * k2 / d
    f3 = -rho * k1 * k2 / d
    log_e = (f1 * x1 * x1 + f2 * x2 * x2 + 2.0 * f3 * x1 * x2) / 2.0
    phi = np.sqrt(k1 * k2 / d) * np.exp(log_e)
    block = np.stack([(f1 * x1 + f3 * x2) * phi, (f2 * x2 + f3 * x1) * phi, phi])
    means = block.sum(axis=1) / n_samples
    cov_means = ((block @ block.T) / n_samples
                 - np.outer(means, means)) / n_samples
    m1, m2, mb = means
    r1, r2 = -m1 / (x1 * mb), -m2 / (x2 * mb)
    a, denom = pr.a, 1.0 - rho * rho
    s1 = (r1 - rho * r2 / a) / denom
    s2 = (r2 - rho * r1 * a) / denom
    # d(estimate)/d(means) = d(estimate)/d(r) @ d(r)/d(means).
    jac_r = np.array([[-1.0 / (x1 * mb), 0.0, m1 / (x1 * mb * mb)],
                      [0.0, -1.0 / (x2 * mb), m2 / (x2 * mb * mb)]])
    jac_b = np.array([[-x1 / denom, x1 * rho / (a * denom)],
                      [x2 * rho * a / denom, -x2 / denom]]) @ jac_r
    se = np.sqrt(np.diag(jac_b @ cov_means @ jac_b.T))
    return ((1.0 - s1) * x1, (1.0 - s2) * x2), tuple(se), (r1, r2)


class TestMcBlocks:
    """The blocked Monte Carlo pipeline against whole-array accumulation."""

    @pytest.mark.parametrize(
        "n", [1, _MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1, 100_003])
    def test_matches_whole_array_reference(self, n):
        # r1, r2 and se hold the sums before the estimate's cancellation:
        # one sample with 1 - s1 near 0.0016 magnifies a last-digit change
        # in r1 (the pipeline's log E is a BLAS product) 600-fold in b1,
        # so the estimate is held to 1e-12 of |x_j| instead.
        pr = TwoVarProblem(rho=0.96, tau=0.3, mle=(3.0, 1.5))
        mc = hs_estimator_mc(pr, n_samples=n, seed=7)
        est, se, r = whole_array_mc(pr, n, seed=7)
        assert mc.n_samples == n
        for got, want in zip((mc.r1, mc.r2) + mc.se, r + se):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        for got, want, x in zip(mc.estimate, est, pr.mle):
            assert got == pytest.approx(want, rel=0.0, abs=1e-12 * abs(x))


class TestMcBytes:
    """Estimates and standard errors pinned bit for bit at the benchmark's
    four spot checks (10^6 samples, seeds 1000-1003) and at one block plus
    one sample: the in-place block arithmetic and the uniforms drawn into a
    buffer must keep every bit of the plain expressions."""

    @pytest.mark.parametrize("i,rho,tau,a,x2,want", [
        (0, 0.94, 0.05, 10.0, 1.0,
         (10.67998230698823, 0.0722624594682929,
          0.002487486177819506, 0.0017629583990102786)),
        (1, 0.96, 0.2, 5.0, 1.5,
         (7.539307622265237, 1.1430866144965617,
          0.007345665403309811, 0.006952972421333099)),
        (2, 0.97, 0.5, 2.0, 1.0,
         (1.1225308901804039, 1.0329272017331956,
          0.0013304281312601707, 0.0012911397661624169)),
        (3, 0.99, 0.95, 1.1, 1.5,
         (1.2928080677081701, 1.2858434199749071,
          0.001290854631085567, 0.001288782248579822))])
    def test_benchmark_spot_checks(self, i, rho, tau, a, x2, want):
        pr = TwoVarProblem(rho=rho, tau=tau, mle=(a * x2, x2))
        mc = hs_estimator_mc(pr, n_samples=1_000_000, seed=1000 + i)
        assert mc.estimate + mc.se == want

    def test_one_block_and_one_sample(self):
        mc = hs_estimator_mc(TwoVarProblem(rho=0.96, tau=0.3, mle=(3.0, 1.5)),
                             n_samples=_MC_BLOCK + 1, seed=7)
        assert mc.estimate + mc.se == (2.1806708465413718, 1.692034410453763,
                                       0.020867236248149238,
                                       0.020187078987721284)


class TestMcSplit:
    """The blocks split into one run per usable CPU, each run skipping
    ahead in the seed's PCG64DXSM stream, against the same call on one
    CPU."""

    @staticmethod
    def force_cpus(monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)

    @staticmethod
    def record_runs(monkeypatch):
        """(lo, hi, on the calling thread) of each run, as the runs start."""
        runs, caller = [], threading.get_ident()
        real = shrinkage._mc_run

        def recording(problem, point, seed, lo, hi):
            runs.append((lo, hi, threading.get_ident() == caller))
            return real(problem, point, seed, lo, hi)

        monkeypatch.setattr(shrinkage, "_mc_run", recording)
        return runs

    def test_pcg64dxsm_advance_skips_one_draw_per_uniform(self):
        # The skip-ahead by 2 * lo rests on this unit: after advance(k),
        # random(m) gives draws k to k + m - 1 of an unadvanced twin.
        from numpy.random import PCG64DXSM, Generator, SeedSequence

        for k in (1, 3, 1 << 15, 10_002):
            drawn = Generator(PCG64DXSM(SeedSequence(11)))
            skipped = Generator(PCG64DXSM(SeedSequence(11)))
            want = drawn.random(k + 5)[k:]
            skipped.bit_generator.advance(k)
            assert (skipped.random(5) == want).all(), k

    @pytest.mark.parametrize("n", [1, _MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1,
                                   3 * _MC_BLOCK + 17, 100_003])
    def test_same_estimate_at_any_cpu_count(self, monkeypatch, n):
        pr = TwoVarProblem(rho=0.96, tau=0.3, mle=(3.0, 1.5))
        self.force_cpus(monkeypatch, 1)
        want = hs_estimator_mc(pr, n_samples=n, seed=7)
        n_blocks = -(-n // _MC_BLOCK)
        for cpus in (2, 3, 5, n_blocks + 3):
            self.force_cpus(monkeypatch, cpus)
            runs = self.record_runs(monkeypatch)
            assert hs_estimator_mc(pr, n_samples=n, seed=7) == want, cpus
            # Contiguous runs over all samples, block-aligned, never more
            # than the blocks; the calling thread does the first.
            runs.sort()
            assert len(runs) == min(cpus, n_blocks)
            assert [on_caller for *_, on_caller in runs] == [True] + [
                False] * (len(runs) - 1)
            edges = [lo for lo, _, _ in runs] + [runs[-1][1]]
            assert edges[0] == 0 and edges[-1] == n
            assert all(lo % _MC_BLOCK == 0 and lo < hi
                       for lo, hi, _ in runs)
            assert all(hi == lo for (_, hi, _), (lo, _, _) in zip(runs,
                                                                  runs[1:]))

    def test_cpu_count_when_affinity_is_unknown(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert shrinkage._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert shrinkage._usable_cpus() == 1

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_failed_run_raises_and_leaves_no_thread(self, monkeypatch,
                                                    failing):
        self.force_cpus(monkeypatch, 3)
        real = shrinkage._mc_run

        def run(problem, point, seed, lo, hi):
            if (lo > 0) == (failing == "worker"):
                raise RuntimeError(f"run at {lo} failed")
            return real(problem, point, seed, lo, hi)

        monkeypatch.setattr(shrinkage, "_mc_run", run)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="failed"):
            hs_estimator_mc(TwoVarProblem(rho=0.96, tau=0.3, mle=(3.0, 1.5)),
                            n_samples=3 * _MC_BLOCK, seed=7)
        assert threading.active_count() == threads


class TestMcStandardError:
    """The delta-method standard errors against the seed-to-seed spread."""

    @pytest.mark.parametrize("rho,tau,mle", [(0.97, 0.5, (2.0, 1.0)),
                                             (0.9, 0.3, (3.0, 1.5))])
    def test_se_matches_spread_over_seeds(self, rho, tau, mle):
        pr = TwoVarProblem(rho=rho, tau=tau, mle=mle)
        runs = [hs_estimator_mc(pr, n_samples=5000, seed=s) for s in range(200)]
        spread = np.std([r.estimate for r in runs], axis=0, ddof=1)
        se = np.mean([r.se for r in runs], axis=0)
        assert se == pytest.approx(spread, rel=0.15)


class TestArgumentChecks:
    @pytest.mark.parametrize("kwargs", [
        {"n_samples": 0}, {"n_samples": -5}, {"n_samples": 1.5},
        {"n_samples": math.nan}, {"n_samples": True}, {"n_samples": "10"}])
    def test_mc_sample_counts_must_be_positive(self, kwargs):
        pr = TwoVarProblem(rho=0.95, tau=0.5, mle=(2.0, 1.0))
        with pytest.raises(InvariantError, match="n_samples: .* is not an "
                                                 "integer >= 1"):
            hs_estimator_mc(pr, **kwargs)


_THREAD_CHILD = """
import hashlib
from shrinksel.shrinkage import TwoVarProblem, _quad_batch, hs_estimator_mc
row = [TwoVarProblem(rho=0.99, tau=0.01, mle=(a, 1.0)) for a in (1.1, 2.0, 10.0)]
r = [_quad_batch(row, order) for order in (64, 128, 256, 512)]
mc = hs_estimator_mc(TwoVarProblem(rho=0.96, tau=0.3, mle=(3.0, 1.5)),
                     n_samples=100_003, seed=7)
print(hashlib.sha256(repr((r, mc)).encode()).hexdigest())
"""


def test_shrinkage_independent_of_blas_threads():
    """Quadrature of a three-point batch at up to 512^2 nodes and an MC
    estimate give the same bits on one and two BLAS threads: the engine runs
    without the chains' one-thread pin, and OpenBLAS splits a long dot
    product across threads. The batch puts any thread-dependent call inside
    the batched kernel under the same check."""
    pr = TwoVarProblem(rho=0.99, tau=0.01, mle=(1.1, 1.0))
    assert hs_shrinkage(pr).order == 128  # 16384 nodes
    import shrinksel
    src = os.path.dirname(os.path.dirname(os.path.abspath(shrinksel.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", _THREAD_CHILD], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


_RSS_CHILD = """
import sys
from shrinksel.shrinkage import TwoVarProblem, hs_estimator_mc
hs_estimator_mc(TwoVarProblem(rho=0.96, tau=0.3, mle=(3.0, 1.5)),
                n_samples=int(sys.argv[1]), seed=7)
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs the VmHWM line of /proc/self/status")
def test_mc_memory_does_not_grow_with_samples():
    """Peak RSS of a fresh process at 4e6 samples stays within 8 MB of its
    peak at 1e5: the MC keeps no array whose size follows ``n_samples``.

    The peak is VmHWM, not ``ru_maxrss``: a child's ``ru_maxrss`` starts at
    the peak of the process that spawned it, here pytest's.
    """
    import shrinksel
    src = os.path.dirname(os.path.dirname(os.path.abspath(shrinksel.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                 else [])))
    peaks_kib = []
    for n in (100_000, 4_000_000):
        proc = subprocess.run([sys.executable, "-c", _RSS_CHILD, str(n)],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        peaks_kib.append(int(proc.stdout))
    assert peaks_kib[1] - peaks_kib[0] < 8 * 1024, peaks_kib
