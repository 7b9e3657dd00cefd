"""Unit tests for estimator specs, parsing and point evaluation."""

import dataclasses

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
from stratdual import estimators
from stratdual.domain import _weighted_sum
from stratdual.estimators import (
    _REJECTIONS, _dual_means, _estimate_block, _kernel, _rejection_codes,
)
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


#: A finite value for each estimator parameter, and every key
#: parse_estimator accepts for it, the label's key first.
_VALUES = {"A": 18631.62, "alpha1": 6.2918, "alpha2": -0.887}
_KEYS = {"A": ("A", "a"), "alpha1": ("a1", "alpha1"), "alpha2": ("a2", "alpha2")}


def _takes(kind):
    """A value for each parameter ``kind`` takes: those named in its row of
    the kind table that the row does not bind, in row order."""
    x, z, _, bound = estimators._TABLE[kind]
    return {p: _VALUES[p] for p in (*x, *z)
            if isinstance(p, str) and p not in bound}


def _text(kind, params, key=0):
    """The spec string of ``kind`` with ``params``, each value under its
    parameter's ``key``-th key."""
    items = ",".join(f"{_KEYS[p][key]}={v!r}" for p, v in params.items())
    return f"{kind}:{items}" if items else kind


class TestParseAndLabel:
    """Generated from the kind table, so a new row is covered as it is."""

    def test_plain_kinds(self):
        plain = [kind for kind in KINDS if not _takes(kind)]
        assert "classical" in plain and "plikusas_dual" in plain
        for kind in plain:
            spec = parse_estimator(kind)
            assert spec.kind == kind
            assert spec.label == kind
            assert parse_estimator(spec.label) == spec

    def test_every_label_round_trips_with_the_parameters_it_takes(self):
        for kind in KINDS:
            params = _takes(kind)
            spec = EstimatorSpec(kind=kind, **params)
            assert spec.label == _text(kind, params)
            for key in (0, 1):  # the label's keys, then the aliases
                assert parse_estimator(_text(kind, params, key)) == spec
            assert all(getattr(spec, p) == v for p, v in params.items())

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
        for kind in KINDS:
            params = _takes(kind)
            for p in params:
                rest = {q: v for q, v in params.items() if q != p}
                with pytest.raises(ValueError,
                                   match=f"^{kind} requires the parameter {p}$"):
                    parse_estimator(_text(kind, rest))

    def test_unused_parameters_rejected(self):
        # plikusas_dual binds a1 = a2 = 1, so it takes neither: a1=3 is an
        # error, not a silent a1 = 1.
        for kind in KINDS:
            params = _takes(kind)
            for p in _KEYS.keys() - params.keys():
                for key in _KEYS[p]:
                    text = f"{_text(kind, params)}{',' if params else ':'}{key}=3"
                    with pytest.raises(ValueError) as info:
                        parse_estimator(text)
                    assert str(info.value) == (
                        f"{kind} takes no parameter {key!r} in {text!r}")

    def test_a_parameter_given_twice_is_rejected(self):
        # Once the last key won without a word: a1=1,alpha1=2 gave
        # alpha1 = 2.  Every pair of keys of one parameter, the same key
        # twice included, is an error naming both keys and the text.
        for kind in KINDS:
            params = _takes(kind)
            for p in params:
                for key in (0, 1):
                    for second in _KEYS[p]:
                        text = f"{_text(kind, params, key)},{second}=2"
                        with pytest.raises(ValueError) as info:
                            parse_estimator(text)
                        assert str(info.value) == (
                            f"parameter {p} given twice, as "
                            f"{_KEYS[p][key]!r} and {second!r}, in {text!r}")

    def test_the_constructor_rejects_a_parameter_the_kind_does_not_name(self):
        # Once kept: EstimatorSpec(kind="classical", A=5) was unequal to
        # classical though it estimates the same.
        for kind in KINDS:
            x, z, _, _ = estimators._TABLE[kind]
            for p in _VALUES.keys() - set(x + z):
                with pytest.raises(ValueError) as info:
                    EstimatorSpec(kind=kind, **_takes(kind), **{p: 3.0})
                assert str(info.value) == f"{kind} takes no parameter {p}"

    def test_a_bound_parameter_keeps_its_value(self):
        # plikusas_dual binds alpha1 = alpha2 = 1: another value is an
        # error (once stored as 1.0 without a word), the bound one is
        # accepted, so dataclasses.replace rebuilds the spec.
        with pytest.raises(ValueError) as info:
            EstimatorSpec(kind="plikusas_dual", alpha1=3)
        assert str(info.value) == "plikusas_dual fixes alpha1 = 1.0, got 3"
        with pytest.raises(ValueError, match="fixes alpha2 = 1.0"):
            EstimatorSpec(kind="plikusas_dual", alpha2=float("nan"))
        spec = EstimatorSpec(kind="plikusas_dual")
        assert EstimatorSpec(kind="plikusas_dual", alpha1=1, alpha2=1.0) == spec
        assert dataclasses.replace(spec) == spec
        assert dataclasses.replace(spec).label == "plikusas_dual"

    def test_malformed_parameters_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_estimator("tracy_product:A")
        with pytest.raises(ValueError, match="unknown estimator parameter"):
            parse_estimator("tracy_product:B=3")
        with pytest.raises(ValueError, match="bad value"):
            parse_estimator("tracy_product:A=twelve")

    def test_non_finite_parameters_rejected(self):
        for kind in KINDS:
            for p in _takes(kind):
                for bad in (np.inf, -np.inf, np.nan):
                    params = _takes(kind) | {p: bad}
                    message = f"^{p} must be finite$"
                    with pytest.raises(ValueError, match=message):
                        EstimatorSpec(kind=kind, **params)
                    with pytest.raises(ValueError, match=message):
                        parse_estimator(_text(kind, params))


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
    """The array kernel's values for one spec on a block of per-stratum
    sample means (c x L), and their rejection codes."""
    ybar_st, *plain = (_weighted_sum(pop.w, v) for v in (ybar, xbar, zbar))
    dual = None
    if spec.kind in DUAL_KINDS:
        dual = _dual_means(pop, np.array([xbar, zbar]))
    kernel = _kernel([spec._row], pop)
    values, ratios, den = _estimate_block(kernel, ybar_st, np.array(plain),
                                          dual)
    return values[0], _rejection_codes(kernel, ratios, den)[0]


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

    def test_estimate_evaluates_a_one_row_plan(self, tiny_pop, tiny_sample,
                                               monkeypatch):
        # estimate() is the kernel's one-row call: the spec's own row
        # compiled on the population, and the kernel's value unchanged.
        calls = []

        def spy(kernel, *args):
            out = _estimate_block(kernel, *args)
            calls.append((kernel, float(out[0][0, 0])))
            return out

        monkeypatch.setattr(estimators, "_estimate_block", spy)
        for spec in self.specs(tiny_pop):
            calls.clear()
            value = estimate(spec, tiny_sample, tiny_pop)
            [(kernel, kernel_value)] = calls
            for got, want in zip(kernel, _kernel([spec._row], tiny_pop)):
                assert got.shape[-2:] == (1, 1)
                np.testing.assert_array_equal(got, want)
            assert value == kernel_value, spec.label

    @pytest.mark.parametrize("which", ["tiny_pop", "half_pop"])
    def test_estimate_equals_one_kernel_over_every_spec(self, which,
                                                        request, rng):
        # Every spec compiled into one kernel and evaluated on a block, as
        # a Monte Carlo study does, against estimate() on each row: the
        # same value, bit for bit, or the same rejection and message.
        pop = request.getfixturevalue(which)
        specs = self.specs(pop)
        means = np.array(self.rows(pop, rng))
        combined = _weighted_sum(pop.w, means)
        kernel = _kernel([spec._row for spec in specs], pop)
        values, ratios, den = _estimate_block(
            kernel, combined[0], combined[1:], _dual_means(pop, means[1:]))
        codes = _rejection_codes(kernel, ratios, den)
        np.testing.assert_array_equal(codes != 0, np.isnan(values))
        assert {spec.kind for spec in specs} == set(KINDS)
        for r in range(means.shape[1]):
            sample = sample_for(pop, *means[:, r])
            for j, spec in enumerate(specs):
                code = int(codes[j, r])
                if not code:
                    assert estimate(spec, sample, pop) == values[j, r]
                    continue
                axis = 0 if code in (1, 3, 4) else 1
                with pytest.raises(DegenerateSampleError) as info:
                    estimate(spec, sample, pop)
                assert str(info.value) == _REJECTIONS[code].format(
                    base=float(ratios[axis, j, r]),
                    exponent=float(kernel.e[axis, j, 0])), (spec.label, r)
        if which == "half_pop":
            # Code 5 needs a zero z ratio; every table kind's z factor has
            # the population mean on top.
            assert set(np.unique(codes).tolist()) == {0, 1, 2, 3, 4, 6}

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

    def test_a_ratio_that_overflows_to_minus_infinity_is_rejected(self):
        # Z / z* = -5 / 1e-310 overflows to -inf, and (-inf)**0.25 is inf,
        # not NaN: only the negative-ratio mask rejects this draw.
        frame = UnitFrame(stratum_id="n", y=(10.0, 14.0, 12.0, 16.0, 13.0, 11.0),
                          x=(4.0, 6.0, 5.0, 7.0, 4.5, 3.5),
                          z=(-3.0, -7.0, -5.0, -5.0, -4.0, -6.0))
        pop = combine([summarize_stratum(frame, 3)])
        assert pop.mean_z == -5.0
        spec = EstimatorSpec(kind="dual_family", alpha1=0.25, alpha2=0.25)
        kernel = _kernel([spec._row], pop)
        with np.errstate(all="raise"):  # the kernel silences the overflow
            values, ratios, den = _estimate_block(
                kernel, np.array([pop.mean_y]),
                np.array([[pop.mean_x], [pop.mean_z]]),
                np.array([[pop.mean_x], [1e-310]]))
        assert ratios[1, 0, 0] == -np.inf
        assert np.isnan(values[0, 0])
        assert _rejection_codes(kernel, ratios, den).tolist() == [[6]]

    def test_the_lowest_code_wins_where_rejections_overlap(self, half_pop):
        # Every pair of x and z factors (both sides, exponents whole,
        # fractional, negative and zero), reading the plain or the dual
        # means, on rows where each mean is zero, the population mean,
        # its negative or twice it.  Each code is checked against the
        # first condition that holds, in _REJECTIONS order, found in plain
        # Python from the kernel's own ratios.
        factors = [(side, 0.0, e) for side in (1.0, -1.0)
                   for e in (1.0, -1.0, 0.5, -0.5, 0.0)]
        specs = [(fx, fz, dual) for fx in factors for fz in factors
                 for dual in (False, True)]
        U = (half_pop.mean_x, half_pop.mean_z)
        levels = [(0.0, 1.0, -1.0, 2.0)] * 2
        rows = np.array([(a * U[0], b * U[1]) for a in levels[0]
                         for b in levels[1]]).T
        dual = rows[:, ::-1].copy()  # other pairs of the same levels
        ybar_st = np.full(rows.shape[1], half_pop.mean_y)
        kernel = _kernel(specs, half_pop)
        values, ratios, den = _estimate_block(kernel, ybar_st, rows, dual)
        codes = _rejection_codes(kernel, ratios, den)
        # The kernel marks its rejections itself; the codes say why.
        np.testing.assert_array_equal(codes != 0, np.isnan(values))
        overlaps = set()
        for j, (fx, fz, reads_dual) in enumerate(specs):
            for r in range(rows.shape[1]):
                u = (dual if reads_dual else rows)[:, r]
                held = []
                for axis, (side, c, e) in enumerate((fx, fz)):
                    den = c - U[axis] if side > 0 else c - u[axis]
                    ratio = ratios[axis, j, r]
                    held.append((e != 0 and den == 0, e < 0 and ratio == 0,
                                 e != int(e) and ratio < 0))
                conditions = [held[0][0], held[1][0], held[0][1], held[0][2],
                              held[1][1], held[1][2]]
                want = [k + 1 for k, hit in enumerate(conditions) if hit]
                assert codes[j, r] == (want[0] if want else 0), (j, r)
                if len(want) > 1:
                    overlaps.add(tuple(want))
        assert {(1, 4), (1, 6), (2, 4), (3, 6), (4, 6), (1, 2)} <= {
            pair for want in overlaps for pair in
            ((want[a], want[b]) for a in range(len(want))
             for b in range(a + 1, len(want)))}

    def test_estimate_reports_the_lowest_code_where_rejections_overlap(
            self, half_pop):
        # Table kinds on half_pop (x* = 2X - xbar, z* = 2Z - zbar): each
        # sample meets two rejections, and the message is the lower one's.
        X, Z = half_pop.mean_x, half_pop.mean_z
        cases = [
            # x* = 0 under alpha1 < 0 (3), z ratio -1 under 0.5 (6)
            (-0.5, 0.5, 2 * X, 3 * Z, 3),
            # x ratio -1 under 0.5 (4), z* = 0 (2)
            (0.5, 0.5, 3 * X, 2 * Z, 2),
            # x* = 0 under alpha1 < 0 (3), z* = 0 (2)
            (-0.5, 0.5, 2 * X, 2 * Z, 2),
            # x ratio -1 under 0.5 (4), z ratio -1 under 0.25 (6)
            (0.5, 0.25, 3 * X, 3 * Z, 4),
        ]
        y = (half_pop.mean_y,)
        for alpha1, alpha2, xbar, zbar, code in cases:
            spec = EstimatorSpec(kind="dual_family", alpha1=alpha1,
                                 alpha2=alpha2)
            sample = sample_for(half_pop, y, (xbar,), (zbar,))
            with pytest.raises(DegenerateSampleError) as info:
                estimate(spec, sample, half_pop)
            assert str(info.value) == _REJECTIONS[code].format(
                base=-1.0, exponent=alpha1), (alpha1, alpha2, xbar, zbar)
            _, codes = block_estimates(spec, half_pop, np.array([y]),
                                       np.array([[xbar]]), np.array([[zbar]]))
            assert codes.tolist() == [code]

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
