"""Unit tests for estimator specs, parsing and point evaluation."""

import numpy as np
import pytest

from oracles import naive_estimate
from stratdual import (
    DUAL_KINDS,
    KINDS,
    DegenerateSampleError,
    EstimatorSpec,
    SampleMeans,
    UnitFrame,
    combine,
    dual_transform_means,
    estimate,
    parse_estimator,
    summarize_stratum,
)
from stratdual.domain import _weighted_sum
from stratdual.estimators import _dual_means, _estimate_block
from test_domain import make_summary


def sample_for(pop, ybar, xbar, zbar):
    return SampleMeans.from_stratum_means(
        pop.stratum_ids, ybar, xbar, zbar, pop.w)


@pytest.fixture
def tiny_sample(tiny_pop):
    return sample_for(tiny_pop, (12.0, 24.0), (110.0, 230.0), (47.0, 55.0))


@pytest.fixture
def identity_sample(tiny_pop):
    return sample_for(
        tiny_pop,
        tuple(s.mean_y for s in tiny_pop.strata),
        tuple(s.mean_x for s in tiny_pop.strata),
        tuple(s.mean_z for s in tiny_pop.strata),
    )


class TestParseAndLabel:
    def test_plain_kinds(self):
        for kind in ("classical", "combined_ratio", "combined_product",
                     "ratio_cum_product", "plikusas_dual"):
            spec = parse_estimator(kind)
            assert spec.kind == kind
            assert spec.label == kind
            assert parse_estimator(spec.label) == spec

    def test_transform_kinds_round_trip(self):
        spec = parse_estimator("tracy_product:A=18631.62")
        assert spec.A == 18631.62
        assert parse_estimator(spec.label) == spec
        spec2 = parse_estimator("transformed_product:a=22915.37")
        assert spec2.A == 22915.37

    def test_dual_family_round_trip(self):
        spec = parse_estimator("dual_family:a1=6.2918,a2=-0.887")
        assert (spec.alpha1, spec.alpha2) == (6.2918, -0.887)
        assert parse_estimator(spec.label) == spec
        long_form = parse_estimator("dual_family:alpha1=6.2918,alpha2=-0.887")
        assert long_form == spec

    def test_plikusas_normalizes_exponents(self):
        spec = EstimatorSpec(kind="plikusas_dual")
        assert (spec.alpha1, spec.alpha2) == (1.0, 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator kind"):
            parse_estimator("separate_ratio")

    def test_missing_parameters_rejected(self):
        with pytest.raises(ValueError, match="A"):
            parse_estimator("tracy_product")
        with pytest.raises(ValueError, match="alpha"):
            parse_estimator("dual_family:a1=1.0")

    def test_malformed_parameters_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_estimator("tracy_product:A")
        with pytest.raises(ValueError, match="unknown estimator parameter"):
            parse_estimator("tracy_product:B=3")
        with pytest.raises(ValueError, match="bad value"):
            parse_estimator("tracy_product:A=twelve")

    def test_non_finite_parameters_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            EstimatorSpec(kind="tracy_product", A=float("inf"))
        with pytest.raises(ValueError, match="finite"):
            EstimatorSpec(kind="dual_family", alpha1=float("nan"), alpha2=1.0)


class TestSampleMeans:
    def test_combined_means_are_weighted(self, tiny_pop, tiny_sample):
        w = tiny_pop.w
        assert tiny_sample.ybar_st == pytest.approx(
            float(w @ np.array([12.0, 24.0])), rel=1e-15)
        assert tiny_sample.xbar_st == pytest.approx(
            float(w @ np.array([110.0, 230.0])), rel=1e-15)

    def test_misaligned_strata_rejected(self, tiny_pop):
        sample = SampleMeans.from_stratum_means(
            ("b", "a"), (24.0, 12.0), (230.0, 110.0), (55.0, 47.0),
            tiny_pop.w[::-1])
        with pytest.raises(ValueError, match="align"):
            estimate(EstimatorSpec(kind="classical"), sample, tiny_pop)

    def test_length_mismatch_rejected(self, tiny_pop):
        with pytest.raises(ValueError):
            SampleMeans.from_stratum_means(
                tiny_pop.stratum_ids, (1.0,), (2.0,), (3.0,), tiny_pop.w)


class TestEstimateAgainstOracle:
    def test_all_kinds_match_loop_oracle(self, tiny_pop, tiny_sample):
        cases = [
            EstimatorSpec(kind="classical"),
            EstimatorSpec(kind="combined_ratio"),
            EstimatorSpec(kind="combined_product"),
            EstimatorSpec(kind="ratio_cum_product"),
            EstimatorSpec(kind="transformed_product", A=2 * tiny_pop.mean_x),
            EstimatorSpec(kind="tracy_product", A=2 * tiny_pop.mean_x),
            EstimatorSpec(kind="plikusas_dual"),
            EstimatorSpec(kind="dual_family", alpha1=0.7, alpha2=-1.3),
        ]
        for spec in cases:
            got = estimate(spec, tiny_sample, tiny_pop)
            want = naive_estimate(
                spec.kind, tiny_pop, (12.0, 24.0), (110.0, 230.0),
                (47.0, 55.0), A=spec.A, alpha1=spec.alpha1, alpha2=spec.alpha2)
            assert got == pytest.approx(want, rel=1e-12), spec.label

    def test_classical_is_the_weighted_sample_mean(self, tiny_pop, tiny_sample):
        assert estimate(EstimatorSpec(kind="classical"), tiny_sample,
                        tiny_pop) == tiny_sample.ybar_st

    def test_hand_computed_dual_transform(self, tiny_pop, tiny_sample):
        # stratum a: g = 2/3, (5/3)*122 - (2/3)*110 = 130
        # stratum b: g = 1, 2*225 - 230 = 220
        xstar, zstar = dual_transform_means(tiny_sample, tiny_pop)
        assert xstar == pytest.approx((5 * 130.0 + 6 * 220.0) / 11, rel=1e-12)
        expected_z = (5 * ((5 / 3) * 45.6 - (2 / 3) * 47.0)
                      + 6 * (2 * 55.0 - 55.0)) / 11
        assert zstar == pytest.approx(expected_z, rel=1e-12)


class TestInvariantPoints:
    def test_identity_point_returns_population_mean(self, tiny_pop,
                                                    identity_sample):
        specs = [
            EstimatorSpec(kind="classical"),
            EstimatorSpec(kind="combined_ratio"),
            EstimatorSpec(kind="combined_product"),
            EstimatorSpec(kind="ratio_cum_product"),
            EstimatorSpec(kind="transformed_product", A=2 * tiny_pop.mean_x),
            EstimatorSpec(kind="tracy_product", A=2 * tiny_pop.mean_x),
            EstimatorSpec(kind="plikusas_dual"),
            EstimatorSpec(kind="dual_family", alpha1=0.5, alpha2=2.5),
        ]
        for spec in specs:
            assert estimate(spec, identity_sample, tiny_pop) == pytest.approx(
                tiny_pop.mean_y, rel=1e-12), spec.label

    def test_dual_family_at_unit_exponents_equals_plikusas(self, tiny_pop, rng):
        unit = EstimatorSpec(kind="dual_family", alpha1=1.0, alpha2=1.0)
        plik = EstimatorSpec(kind="plikusas_dual")
        for _ in range(20):
            ybar = tuple(s.mean_y * rng.uniform(0.9, 1.1)
                         for s in tiny_pop.strata)
            xbar = tuple(s.mean_x * rng.uniform(0.9, 1.1)
                         for s in tiny_pop.strata)
            zbar = tuple(s.mean_z * rng.uniform(0.9, 1.1)
                         for s in tiny_pop.strata)
            sample = sample_for(tiny_pop, ybar, xbar, zbar)
            assert estimate(unit, sample, tiny_pop) == estimate(
                plik, sample, tiny_pop)

    def test_zero_exponents_collapse_to_classical(self, tiny_pop, tiny_sample):
        null = EstimatorSpec(kind="dual_family", alpha1=0.0, alpha2=0.0)
        assert estimate(null, tiny_sample, tiny_pop) == tiny_sample.ybar_st

    def test_tracy_equals_transformed_product_when_z_is_at_its_mean(
            self, tiny_pop, rng):
        A = 2 * tiny_pop.mean_x
        z_at_mean = tuple(s.mean_z for s in tiny_pop.strata)
        for _ in range(10):
            ybar = tuple(s.mean_y * rng.uniform(0.9, 1.1)
                         for s in tiny_pop.strata)
            xbar = tuple(s.mean_x * rng.uniform(0.9, 1.1)
                         for s in tiny_pop.strata)
            sample = sample_for(tiny_pop, ybar, xbar, z_at_mean)
            tracy = estimate(EstimatorSpec(kind="tracy_product", A=A),
                             sample, tiny_pop)
            plain = estimate(EstimatorSpec(kind="transformed_product", A=A),
                             sample, tiny_pop)
            assert tracy == pytest.approx(plain, rel=1e-14)


class TestGuards:
    def test_zero_sample_x_mean_is_degenerate(self, tiny_pop):
        sample = sample_for(tiny_pop, (12.0, 24.0), (0.0, 0.0), (47.0, 55.0))
        with pytest.raises(DegenerateSampleError):
            estimate(EstimatorSpec(kind="combined_ratio"), sample, tiny_pop)
        with pytest.raises(DegenerateSampleError):
            estimate(EstimatorSpec(kind="ratio_cum_product"), sample, tiny_pop)

    def test_negative_dual_base_with_fractional_exponent_is_degenerate(
            self, tiny_pop):
        # stratum b has g = 1: xbar = 2 * mean makes xstar_b negative
        # enough to push the combined xstar below zero.
        sample = sample_for(tiny_pop, (12.0, 24.0), (400.0, 700.0),
                            (47.0, 55.0))
        xstar, _ = dual_transform_means(sample, tiny_pop)
        assert xstar < 0
        frac = EstimatorSpec(kind="dual_family", alpha1=0.5, alpha2=1.0)
        with pytest.raises(DegenerateSampleError, match="negative"):
            estimate(frac, sample, tiny_pop)
        # integer exponents stay defined (real-valued power)
        whole = EstimatorSpec(kind="dual_family", alpha1=1.0, alpha2=1.0)
        assert np.isfinite(estimate(whole, sample, tiny_pop))

    def test_A_at_population_mean_is_a_config_error(self, tiny_pop,
                                                    tiny_sample):
        bad = EstimatorSpec(kind="tracy_product", A=tiny_pop.mean_x)
        with pytest.raises(ValueError, match="theta undefined"):
            estimate(bad, tiny_sample, tiny_pop)

    def test_dual_kinds_rejected_under_census(self):
        pop = combine([make_summary(N=5, n=5, s_xy=20.0, s_yz=-10.0,
                                    s_xz=-20.0)])
        sample = SampleMeans.from_stratum_means(
            pop.stratum_ids, (100.0,), (200.0,), (50.0,), pop.w)
        with pytest.raises(ValueError, match="census"):
            estimate(EstimatorSpec(kind="plikusas_dual"), sample, pop)
        with pytest.raises(ValueError, match="census"):
            dual_transform_means(sample, pop)

    def test_census_sample_reproduces_population_mean(self):
        # Drawing every unit makes all non-dual estimators exact.
        frame = UnitFrame(stratum_id="c", y=(4.0, 8.0, 6.0),
                          x=(10.0, 14.0, 12.0), z=(20.0, 24.0, 22.0))
        pop = combine([summarize_stratum(frame, 3)])
        sample = SampleMeans.from_stratum_means(
            pop.stratum_ids, (float(np.mean(frame.y)),),
            (float(np.mean(frame.x)),), (float(np.mean(frame.z)),), pop.w)
        for kind in ("classical", "combined_ratio", "combined_product",
                     "ratio_cum_product"):
            assert estimate(EstimatorSpec(kind=kind), sample,
                            pop) == pop.mean_y


def test_kind_registry_is_complete():
    assert KINDS == (
        "classical", "combined_ratio", "combined_product",
        "transformed_product", "ratio_cum_product", "tracy_product",
        "plikusas_dual", "dual_family",
    )


def block_estimates(spec, pop, ybar, xbar, zbar):
    """The array kernel on a block of per-stratum sample means (c x L)."""
    combined = [_weighted_sum(pop.w, v) for v in (ybar, xbar, zbar)]
    if spec.kind in DUAL_KINDS:
        combined += _dual_means(pop, xbar, zbar)
    return _estimate_block(spec, pop, *combined)


@pytest.fixture
def half_pop():
    """One stratum with n = N/2, so g = 1 and the transform is 2X - xbar.

    With a single stratum the weight is 1 and the means X = 5, Z = 2 are
    exact, so sample means of 2X or 2Z give dual-transformed means of
    exactly zero, and 3X or 3Z give exactly minus the population mean
    (a ratio of -1).
    """
    frame = UnitFrame(stratum_id="h", y=(10.0, 14.0, 12.0, 16.0, 13.0, 11.0),
                      x=(4.0, 6.0, 5.0, 7.0, 4.5, 3.5),
                      z=(3.0, 2.0, 2.5, 1.5, 2.25, 0.75))
    return combine([summarize_stratum(frame, 3)])


KERNEL_SPECS = (
    EstimatorSpec(kind="classical"),
    EstimatorSpec(kind="combined_ratio"),
    EstimatorSpec(kind="combined_product"),
    EstimatorSpec(kind="ratio_cum_product"),
    EstimatorSpec(kind="plikusas_dual"),
    EstimatorSpec(kind="dual_family", alpha1=0.5, alpha2=-0.5),
    EstimatorSpec(kind="dual_family", alpha1=2.0, alpha2=-1.0),
    EstimatorSpec(kind="dual_family", alpha1=-1.0, alpha2=3.0),
    EstimatorSpec(kind="dual_family", alpha1=0.7, alpha2=0.0),
    EstimatorSpec(kind="dual_family", alpha1=-0.5, alpha2=1.5),
)


class TestArrayKernel:
    """The block kernel against the loop oracle and the scalar path."""

    def rows(self, pop, rng, count=200):
        """Random per-stratum means near the population's, plus edge rows."""
        scale = rng.uniform(0.5, 1.5, size=(3, count, pop.L))
        means = pop.means
        ybar, xbar, zbar = (scale[i] * means[i] for i in range(3))
        if pop.L == 1:
            X, Z = means[1][0], means[2][0]
            edges = [(0.0, Z), (2 * X, Z), (X, 2 * Z), (3 * X, Z),
                     (X, 3 * Z), (2 * X, 2 * Z), (3 * X, 3 * Z)]
            for i, (x, z) in enumerate(edges):
                xbar[i], zbar[i] = x, z
        return ybar, xbar, zbar

    def specs(self, pop):
        A = 2 * pop.mean_x
        return KERNEL_SPECS + (
            EstimatorSpec(kind="transformed_product", A=A),
            EstimatorSpec(kind="tracy_product", A=A),
        )

    @pytest.mark.parametrize("which", ["tiny_pop", "half_pop"])
    def test_rows_match_oracle_and_scalar_path(self, which, request, rng):
        pop = request.getfixturevalue(which)
        ybar, xbar, zbar = self.rows(pop, rng)
        kinds_seen, rejected = set(), 0
        for spec in self.specs(pop):
            values, codes = block_estimates(spec, pop, ybar, xbar, zbar)
            assert values.shape == codes.shape == (len(ybar),)
            for i in range(len(ybar)):
                sample = sample_for(pop, ybar[i], xbar[i], zbar[i])
                try:
                    scalar = estimate(spec, sample, pop)
                except DegenerateSampleError:
                    assert codes[i] != 0, (spec.label, i)
                    assert np.isnan(values[i])
                    rejected += 1
                    continue
                assert codes[i] == 0, (spec.label, i)
                assert values[i] == scalar, (spec.label, i)
                want = naive_estimate(
                    spec.kind, pop, ybar[i], xbar[i], zbar[i], A=spec.A,
                    alpha1=spec.alpha1, alpha2=spec.alpha2)
                assert values[i] == pytest.approx(want, rel=1e-12), (
                    spec.label, i)
            kinds_seen.add(spec.kind)
        assert kinds_seen == set(KINDS)
        if which == "half_pop":
            assert rejected > 0

    def test_edge_rows_get_the_documented_verdicts(self, half_pop, rng):
        # Rows 0-6 of half_pop: xbar_st = 0; xstar = 0; zstar = 0;
        # x ratio -1; z ratio -1; both transforms zero; both ratios -1.
        ybar, xbar, zbar = self.rows(half_pop, rng)

        def codes_of(spec):
            return block_estimates(spec, half_pop, ybar, xbar, zbar)[1][:7]

        ratio = codes_of(EstimatorSpec(kind="combined_ratio"))
        assert list(ratio != 0) == [True] + [False] * 6
        frac = codes_of(EstimatorSpec(kind="dual_family", alpha1=0.5,
                                      alpha2=-0.5))
        # zero zstar (alpha2 != 0) and negative bases under fractional
        # exponents are rejected; a zero x ratio under 0.5 is fine.
        assert list(frac != 0) == [False, False, True, True, True, True, True]
        whole = codes_of(EstimatorSpec(kind="dual_family", alpha1=2.0,
                                       alpha2=-1.0))
        # integer exponents accept negative bases
        assert list(whole != 0) == [False, False, True, False, False, True,
                                    False]
        zero_neg = codes_of(EstimatorSpec(kind="dual_family", alpha1=-1.0,
                                          alpha2=3.0))
        assert list(zero_neg != 0) == [False, True, True, False, False, True,
                                       False]
        # alpha2 = 0 accepts zstar = 0: the infinite ratio's zeroth power
        # is 1; a zero x ratio under a positive exponent is fine too.
        free_z = codes_of(EstimatorSpec(kind="dual_family", alpha1=0.7,
                                        alpha2=0.0))
        assert list(free_z != 0) == [False, False, False, True, False, False,
                                     True]

    def test_scalar_messages_name_the_degeneracy(self, half_pop):
        X, Z = half_pop.mean_x, half_pop.mean_z
        y = (half_pop.mean_y,)
        cases = [
            ("combined_ratio", {}, (0.0,), (Z,), "combined sample x-mean is zero"),
            ("dual_family", dict(alpha1=0.5, alpha2=1.0), (X,), (2 * Z,),
             "dual-transformed z-mean is zero"),
            ("dual_family", dict(alpha1=-1.0, alpha2=1.0), (2 * X,), (Z,),
             "dual-transformed x ratio is zero with negative exponent"),
            ("dual_family", dict(alpha1=0.5, alpha2=1.0), (3 * X,), (Z,),
             "dual-transformed x ratio = -1.0 is negative under fractional "
             "exponent 0.5"),
            ("dual_family", dict(alpha1=1.0, alpha2=0.25), (X,), (3 * Z,),
             "dual-transformed z ratio = -1.0 is negative under fractional "
             "exponent 0.25"),
        ]
        for kind, params, xbar, zbar, message in cases:
            sample = sample_for(half_pop, y, xbar, zbar)
            with pytest.raises(DegenerateSampleError) as info:
                estimate(EstimatorSpec(kind=kind, **params), sample, half_pop)
            assert str(info.value) == message
