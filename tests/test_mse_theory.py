"""Unit tests for first-order MSE forms, optimizers and efficiency conditions."""

import pytest

from oracles import (
    grid_min_alphas,
    grid_min_theta,
    make_random_population,
    naive_bias_dual,
    naive_quadratic_form,
    parabola_vertex_theta,
    stationary_alphas,
)
from stratdual import mse_theory
from stratdual import (
    A_of_theta,
    DualMomentSet,
    EstimatorSpec,
    MomentSet,
    MseReport,
    bias_first_order_dual,
    combine,
    compute_dual_moments,
    compute_moments,
    efficiency_conditions,
    mse_first_order,
    optimize_alphas,
    optimize_theta,
    summarize_stratum,
    theta_of_A,
    var_yst,
)

PLAIN_KINDS = ("classical", "combined_ratio", "combined_product",
               "ratio_cum_product")


def random_pop(rng):
    frames, designs = make_random_population(rng)
    return combine([summarize_stratum(f, n) for f, n in zip(frames, designs)])


class TestQuadraticForms:
    def test_plain_kinds_match_direct_substitution(self, corrected_pop,
                                                   corrected_m, corrected_md):
        v = corrected_m.as_dict()
        for kind in PLAIN_KINDS + ("plikusas_dual",):
            report = mse_first_order(EstimatorSpec(kind=kind), corrected_pop,
                                     corrected_m, corrected_md)
            want = corrected_pop.mean_y**2 * naive_quadratic_form(
                kind, v, corrected_md.as_dict())
            assert report.mse == pytest.approx(want, rel=1e-12), kind

    def test_parametric_kinds_match_direct_substitution(
            self, corrected_pop, corrected_m, corrected_md):
        v = corrected_m.as_dict()
        vd = corrected_md.as_dict()
        for theta in (-1.5, 0.8, 1.0, 1.5971, 2.4):
            A = A_of_theta(corrected_pop, theta)
            for kind in ("transformed_product", "tracy_product"):
                report = mse_first_order(EstimatorSpec(kind=kind, A=A),
                                         corrected_pop, corrected_m)
                want = corrected_pop.mean_y**2 * naive_quadratic_form(
                    kind, v, theta=theta)
                assert report.mse == pytest.approx(want, rel=1e-10), (kind, theta)
        for a1, a2 in ((1.0, 1.0), (6.2918, -0.887), (-2.0, 0.5)):
            report = mse_first_order(
                EstimatorSpec(kind="dual_family", alpha1=a1, alpha2=a2),
                corrected_pop, corrected_m, corrected_md)
            want = corrected_pop.mean_y**2 * naive_quadratic_form(
                "dual_family", v, vd, alpha1=a1, alpha2=a2)
            assert report.mse == pytest.approx(want, rel=1e-12), (a1, a2)

    def test_randomized_populations_match_direct_substitution(self, rng):
        for _ in range(15):
            pop = random_pop(rng)
            m = compute_moments(pop)
            md = compute_dual_moments(pop)
            v, vd = m.as_dict(), md.as_dict()
            for kind in PLAIN_KINDS:
                got = mse_first_order(EstimatorSpec(kind=kind), pop, m, md).mse
                assert got == pytest.approx(
                    pop.mean_y**2 * naive_quadratic_form(kind, v), rel=1e-11)
            a1, a2 = rng.uniform(-2, 2, size=2)
            got = mse_first_order(
                EstimatorSpec(kind="dual_family", alpha1=a1, alpha2=a2),
                pop, m, md).mse
            assert got == pytest.approx(
                pop.mean_y**2 * naive_quadratic_form(
                    "dual_family", v, vd, alpha1=a1, alpha2=a2), rel=1e-11)

    def test_var_yst_is_mean_squared_times_v200(self, corrected_pop,
                                                corrected_m):
        assert var_yst(corrected_pop, corrected_m) == (
            corrected_pop.mean_y**2 * corrected_m.v200)

    def test_classical_pre_is_exactly_100(self, corrected_pop, corrected_m):
        report = mse_first_order(EstimatorSpec(kind="classical"),
                                 corrected_pop, corrected_m)
        assert report.pre == 100.0

    def test_tracy_at_unit_theta_equals_ratio_cum_product(
            self, corrected_pop, corrected_m, corrected_md):
        A = A_of_theta(corrected_pop, 1.0)
        tracy = mse_first_order(EstimatorSpec(kind="tracy_product", A=A),
                                corrected_pop, corrected_m).mse
        rcp = mse_first_order(EstimatorSpec(kind="ratio_cum_product"),
                              corrected_pop, corrected_m).mse
        assert tracy == pytest.approx(rcp, rel=1e-10)

    def test_dual_family_at_zero_exponents_is_classical(
            self, corrected_pop, corrected_m, corrected_md):
        null = mse_first_order(
            EstimatorSpec(kind="dual_family", alpha1=0.0, alpha2=0.0),
            corrected_pop, corrected_m, corrected_md)
        assert null.mse == var_yst(corrected_pop, corrected_m)

    def test_swapped_moment_sets_rejected(self, corrected_pop, corrected_m,
                                          corrected_md):
        spec = EstimatorSpec(kind="combined_ratio")
        with pytest.raises(ValueError, match="m must be an unprimed"):
            mse_first_order(spec, corrected_pop, corrected_md, corrected_m)
        with pytest.raises(ValueError, match="md must be a dual"):
            mse_first_order(spec, corrected_pop, corrected_m, corrected_m)
        with pytest.raises(ValueError, match="md must be a dual"):
            optimize_alphas(corrected_m, corrected_pop)

    def test_dual_kinds_require_dual_moments(self, corrected_pop, corrected_m):
        with pytest.raises(ValueError, match="dual"):
            mse_first_order(EstimatorSpec(kind="plikusas_dual"),
                            corrected_pop, corrected_m)


class TestThetaMapping:
    def test_theta_of_A_and_back(self, corrected_pop):
        for theta in (-2.0, 0.5, 1.0, 1.5971, 3.0):
            assert theta_of_A(corrected_pop,
                              A_of_theta(corrected_pop, theta)) == (
                pytest.approx(theta, rel=1e-12))

    def test_theta_one_is_twice_the_mean(self, corrected_pop):
        assert A_of_theta(corrected_pop, 1.0) == pytest.approx(
            2.0 * corrected_pop.mean_x, rel=1e-14)

    def test_A_at_mean_rejected(self, corrected_pop):
        with pytest.raises(ValueError):
            theta_of_A(corrected_pop, corrected_pop.mean_x)


class TestOptimizeTheta:
    def test_closed_form_matches_three_point_parabola_oracle(
            self, corrected_pop, corrected_m):
        theta_opt, A_opt, mse_min = optimize_theta(corrected_pop, corrected_m)
        assert theta_opt == pytest.approx(
            parabola_vertex_theta(corrected_m.as_dict()), rel=1e-12)
        assert A_opt == pytest.approx(
            corrected_pop.mean_x * (1 + theta_opt) / theta_opt, rel=1e-14)
        assert mse_min == pytest.approx(
            corrected_pop.mean_y**2 * naive_quadratic_form(
                "tracy_product", corrected_m.as_dict(), theta=theta_opt),
            rel=1e-13)

    def test_optimum_is_a_strict_local_minimum(self, corrected_pop,
                                               corrected_m):
        theta_opt, _, mse_min = optimize_theta(corrected_pop, corrected_m)
        for bump in (-0.01, 0.01):
            A = A_of_theta(corrected_pop, theta_opt + bump)
            mse = mse_first_order(EstimatorSpec(kind="tracy_product", A=A),
                                  corrected_pop, corrected_m).mse
            assert mse > mse_min

    def test_optimum_beats_fine_grid(self, corrected_pop, corrected_m):
        _, _, mse_min = optimize_theta(corrected_pop, corrected_m)
        _, grid_best = grid_min_theta(corrected_m.as_dict(), step=5e-3)
        assert mse_min <= corrected_pop.mean_y**2 * grid_best + 1e-9

    def test_randomized_populations(self, rng):
        for _ in range(15):
            pop = random_pop(rng)
            m = compute_moments(pop)
            theta_opt, _, mse_min = optimize_theta(pop, m)
            assert theta_opt == pytest.approx(
                parabola_vertex_theta(m.as_dict()), rel=1e-9)
            _, grid_best = grid_min_theta(m.as_dict(), step=1e-2)
            assert mse_min <= pop.mean_y**2 * grid_best + 1e-9

    def test_flat_direction_rejected(self, corrected_pop):
        flat = MomentSet(v200=0.01, v020=0.0, v002=0.01,
                         v110=0.0, v101=0.0, v011=0.0)
        with pytest.raises(ValueError, match="v020"):
            optimize_theta(corrected_pop, flat)

    def test_degenerate_zero_optimum_rejected(self, corrected_pop):
        balanced = MomentSet(v200=0.01, v020=0.02, v002=0.01,
                             v110=0.01, v101=0.0, v011=-0.01)
        with pytest.raises(ValueError, match="degenerate"):
            optimize_theta(corrected_pop, balanced)

    @pytest.mark.parametrize("optimize, moments, missing", [
        (optimize_theta, MomentSet(v200=0.01, v020=0.0, v002=0.01, v110=0.0,
                                   v101=0.0, v011=0.0), True),
        (optimize_theta, MomentSet(v200=0.01, v020=0.02, v002=0.01, v110=0.01,
                                   v101=0.0, v011=-0.01), True),
        (optimize_alphas, DualMomentSet(v200=0.01, v020=1e-3, v002=1e-3,
                                        v110=-2e-3, v101=-2e-3, v011=1e-3),
         True),
        (optimize_theta, MomentSet(v200=0.01, v020=1e-320, v002=0.01,
                                   v110=0.01, v101=0.0, v011=0.0), False),
        (optimize_alphas, DualMomentSet(v200=0.01, v020=1e-3, v002=1e-3,
                                        v110=-2e-3, v101=-2e-3, v011=1e155),
         False),
    ], ids=["v020=0", "theta_opt=0", "collinear", "A_opt-overflows",
            "v011-overflows"])
    def test_a_missing_optimum_is_told_from_one_that_overflows(
            self, corrected_pop, optimize, moments, missing):
        # The CLI keeps its table, with a note, where the population has no
        # optimum, and fails with one error where the optimum overflows.
        args = ((corrected_pop, moments) if optimize is optimize_theta
                else (moments, corrected_pop))
        with pytest.raises(ValueError) as info:
            optimize(*args)
        assert isinstance(info.value, mse_theory._NoOptimum) == missing


class TestOptimizeAlphas:
    def test_matches_black_box_solver_oracle(self, corrected_pop, corrected_m,
                                             corrected_md):
        a1, a2, mse_min = optimize_alphas(corrected_md, corrected_pop)
        o1, o2 = stationary_alphas(corrected_m.as_dict(),
                                   corrected_md.as_dict())
        assert a1 == pytest.approx(o1, rel=1e-10)
        assert a2 == pytest.approx(o2, rel=1e-10)
        assert mse_min == pytest.approx(
            corrected_pop.mean_y**2 * naive_quadratic_form(
                "dual_family", corrected_m.as_dict(), corrected_md.as_dict(),
                alpha1=a1, alpha2=a2), rel=1e-12)

    def test_stationarity_by_central_differences(self, corrected_pop,
                                                 corrected_m, corrected_md):
        a1, a2, _ = optimize_alphas(corrected_md, corrected_pop)
        h = 1e-6
        Y2 = corrected_pop.mean_y**2

        def f(b1, b2):
            return mse_first_order(
                EstimatorSpec(kind="dual_family", alpha1=b1, alpha2=b2),
                corrected_pop, corrected_m, corrected_md).mse

        d1 = (f(a1 + h, a2) - f(a1 - h, a2)) / (2 * h)
        d2 = (f(a1, a2 + h) - f(a1, a2 - h)) / (2 * h)
        tol = 1e-6 * Y2 * max(corrected_md.v020, corrected_md.v002)
        assert abs(d1) < tol
        assert abs(d2) < tol

    def test_optimum_beats_coarse_grid(self, corrected_pop, corrected_m,
                                       corrected_md):
        _, _, mse_min = optimize_alphas(corrected_md, corrected_pop)
        _, _, grid_best = grid_min_alphas(
            corrected_m.as_dict(), corrected_md.as_dict(), step=0.05)
        assert mse_min <= corrected_pop.mean_y**2 * grid_best + 1e-9

    def test_randomized_populations(self, rng):
        for _ in range(15):
            pop = random_pop(rng)
            m = compute_moments(pop)
            md = compute_dual_moments(pop)
            a1, a2, _ = optimize_alphas(md, pop)
            o1, o2 = stationary_alphas(m.as_dict(), md.as_dict())
            assert a1 == pytest.approx(o1, rel=1e-8, abs=1e-10)
            assert a2 == pytest.approx(o2, rel=1e-8, abs=1e-10)

    def test_collinear_auxiliaries_rejected(self, corrected_pop):
        collinear = DualMomentSet(v200=0.01, v020=1e-3, v002=1e-3,
                                  v110=-2e-3, v101=-2e-3, v011=1e-3)
        with pytest.raises(ValueError, match="collinear"):
            optimize_alphas(collinear, corrected_pop)


class TestBreakdownReporting:
    def test_negative_mse_reported_not_clamped(self, corrected_pop):
        # Inconsistent (guessed) moments can push the first-order MSE
        # negative; the report keeps the value and withholds PRE.
        inconsistent = MomentSet(v200=0.001, v020=0.001, v002=0.001,
                                 v110=0.01, v101=0.0, v011=0.0)
        report = mse_first_order(EstimatorSpec(kind="combined_ratio"),
                                 corrected_pop, inconsistent)
        assert report.mse < 0
        assert report.pre is None
        assert any("moments" in w for w in report.warnings)

    def test_negative_dual_mse_names_dual_moments(self, corrected_pop,
                                                  corrected_m):
        bad_dual = DualMomentSet(v200=0.001, v020=0.001, v002=0.001,
                                 v110=-0.05, v101=0.0, v011=0.0)
        report = mse_first_order(
            EstimatorSpec(kind="plikusas_dual"), corrected_pop,
            corrected_m, bad_dual)
        assert report.mse < 0
        assert any("dual moments" in w for w in report.warnings)

    @pytest.mark.parametrize("mse", [0.0, -0.0])
    def test_a_zero_mse_is_exact_not_inconsistent(self, mse):
        # A census design makes every first-order MSE 0; that once read
        # "nonpositive (0.0); the supplied moments are internally
        # inconsistent at this order".
        report = MseReport(EstimatorSpec(kind="combined_ratio"), mse, 0.0)
        assert report.pre is None
        assert report.warnings == (
            "first-order MSE of combined_ratio is 0: the estimator is exact "
            "at first order, and its PRE is undefined",)

    @pytest.mark.parametrize("mse, var, message", [
        (float("inf"), 1.0, "first-order MSE of dual_family:a1=2.0,a2=3.0 "
                            "is inf: it overflows a float on the supplied "
                            "dual moments"),
        (float("nan"), 1.0, "first-order MSE of dual_family:a1=2.0,a2=3.0 "
                            "is nan: it overflows a float on the supplied "
                            "dual moments"),
        (1.0, float("inf"), "PRE of dual_family:a1=2.0,a2=3.0 is inf: "
                            "var_yst = inf against a first-order MSE of 1.0"),
    ], ids=["inf", "nan", "pre"])
    def test_a_value_that_is_not_finite_is_an_error(self, mse, var, message):
        spec = EstimatorSpec(kind="dual_family", alpha1=2, alpha2=3)
        with pytest.raises(ValueError) as info:
            MseReport(spec, mse, var)
        assert str(info.value) == message

    def test_an_overflowing_dual_cross_moment_is_an_error(self, corrected_pop):
        md = DualMomentSet(v200=0.01, v020=1e-3, v002=1e-3, v110=-2e-3,
                           v101=-2e-3, v011=1e155)
        with pytest.raises(ValueError, match=r"^dual moment v011=1e\+155 is "
                           "too large to optimize the alphas"):
            optimize_alphas(md, corrected_pop)

    def test_an_optimal_alpha_that_overflows_is_an_error(self, corrected_pop):
        # A determinant of 1e-323: alpha1 overflows, alpha2 does not.
        md = DualMomentSet(v200=0.01, v020=1e-320, v002=1e-3, v110=-2e-3,
                           v101=-2e-3, v011=0.0)
        with pytest.raises(ValueError, match=r"^alpha1 is inf and alpha2 "
                           r"-2\.0: they overflow a float at the determinant "
                           r"v020\*v002 - v011\*\*2 = 1e-323 of the dual "
                           r"moments v020=1e-320, "):
            optimize_alphas(md, corrected_pop)

    @pytest.mark.parametrize("v020, message", [
        (1e-320, r"^A_opt is nan: it overflows a float at theta_opt = "
                 r"\(v110 \+ v011\) / v020 = \(0\.01 \+ 0\.0\) / 1e-320$"),
        (1e-20, r"^A_opt rounds to the population x-mean "),
    ], ids=["overflows", "rounds"])
    def test_an_A_opt_that_is_no_transform_constant_is_an_error(
            self, corrected_pop, v020, message):
        m = MomentSet(v200=0.01, v020=v020, v002=1e-3, v110=0.01, v101=0.0,
                      v011=0.0)
        with pytest.raises(ValueError, match=message):
            optimize_theta(corrected_pop, m)


class TestEfficiencyConditions:
    def test_margins_equal_mse_gap(self, corrected_pop, corrected_m,
                                   corrected_md):
        Y2 = corrected_pop.mean_y**2
        base = var_yst(corrected_pop, corrected_m)
        for theta in (0.5, 0.7, 1.0, 1.6, 2.3, 2.5):
            for a1, a2 in ((1.0, 1.0), (0.6, -3.9), (-1.0, 2.0)):
                verdict = efficiency_conditions(corrected_m, corrected_md,
                                                theta, a1, a2)
                tracy = mse_first_order(
                    EstimatorSpec(kind="tracy_product",
                                  A=A_of_theta(corrected_pop, theta)),
                    corrected_pop, corrected_m).mse
                dual = mse_first_order(
                    EstimatorSpec(kind="dual_family", alpha1=a1, alpha2=a2),
                    corrected_pop, corrected_m, corrected_md).mse
                assert verdict.margin21 == pytest.approx(
                    (tracy - base) / Y2, rel=1e-9, abs=1e-15)
                assert verdict.margin22 == pytest.approx(
                    (dual - base) / Y2, rel=1e-9, abs=1e-15)
                assert verdict.condition21 == (tracy < base)
                assert verdict.condition22 == (dual < base)

    def test_beneficial_theta_range_endpoints(self, corrected_m, corrected_md):
        # the margin flips sign just below 0.72 and just above 2.32
        def margin(theta):
            return efficiency_conditions(corrected_m, corrected_md, theta,
                                         1.0, 1.0).margin21

        assert margin(0.70) > 0
        assert margin(0.73) < 0
        assert margin(2.31) < 0
        assert margin(2.33) > 0


class TestBias:
    def test_matches_direct_substitution(self, corrected_pop, corrected_md):
        vd = corrected_md.as_dict()
        for a1, a2 in ((1.0, 1.0), (0.6088536732633183, -3.922981837318862),
                       (-0.5, 2.0)):
            got = bias_first_order_dual(corrected_md, corrected_pop, a1, a2)
            want = naive_bias_dual(vd, corrected_pop.mean_y, a1, a2)
            assert got == pytest.approx(want, rel=1e-12)

    def test_vanishes_at_zero_exponents(self, corrected_pop, corrected_md):
        assert bias_first_order_dual(corrected_md, corrected_pop, 0.0,
                                     0.0) == 0.0

    def test_vanishes_for_null_moments(self, corrected_pop):
        null = DualMomentSet(v200=0.0, v020=0.0, v002=0.0,
                             v110=0.0, v101=0.0, v011=0.0)
        assert bias_first_order_dual(null, corrected_pop, 1.7, -2.4) == 0.0
