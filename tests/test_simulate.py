"""Unit tests for the Monte Carlo validation harness."""

import dataclasses
import json
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from stratdual import (
    KINDS,
    AllDrawsRejectedError,
    DegenerateSampleError,
    EstimatorSpec,
    PopulationSpec,
    SampleMeans,
    StratumSpec,
    UnitFrame,
    combine,
    compute_dual_moments,
    compute_moments,
    draw_sample,
    estimate,
    generate_population,
    load_population_spec,
    monte_carlo,
    mse_first_order,
    summarize_stratum,
)
from stratdual import simulate
from stratdual.simulate import BLOCK, _block_means, _block_seeds

RHO = (0.7, 0.4, 0.3)


def make_stratum_spec(**over):
    base = dict(
        stratum_id="a",
        N=30,
        mu=(100.0, 50.0, 80.0),
        sigma=(10.0, 5.0, 8.0),
        rho=RHO,
        n=6,
    )
    base.update(over)
    return StratumSpec(**base)


def two_strata_spec(seed=7):
    return PopulationSpec(
        strata=(
            make_stratum_spec(),
            make_stratum_spec(stratum_id="b", N=40, n=8,
                              mu=(120.0, 60.0, 70.0),
                              sigma=(12.0, 6.0, 7.0)),
        ),
        seed=seed,
    )


class TestStratumSpec:
    def test_rejects_correlation_outside_unit_interval(self):
        with pytest.raises(ValueError, match="rho_xy"):
            make_stratum_spec(rho=(1.2, 0.0, 0.0))
        with pytest.raises(ValueError, match="rho_xz"):
            make_stratum_spec(rho=(0.0, 0.0, -1.01))

    def test_rejects_non_psd_correlations(self):
        # Pairwise valid, jointly impossible: x tracks both y and z while
        # y and z anti-track each other.
        with pytest.raises(ValueError, match="positive semi-definite"):
            make_stratum_spec(rho=(0.9, 0.9, -0.9))

    def test_allows_singular_boundary(self):
        spec = make_stratum_spec(rho=(1.0, 1.0, 1.0))
        assert spec.rho == (1.0, 1.0, 1.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="nonnegative"):
            make_stratum_spec(sigma=(10.0, -1.0, 8.0))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="three"):
            make_stratum_spec(mu=(100.0, 50.0))
        with pytest.raises(ValueError, match="three"):
            make_stratum_spec(rho=(0.5, 0.5))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="N"):
            make_stratum_spec(N=0)
        with pytest.raises(ValueError, match="out of range"):
            make_stratum_spec(n=0)
        with pytest.raises(ValueError, match="out of range"):
            make_stratum_spec(n=31)


class TestPopulationSpec:
    def test_requires_at_least_one_stratum(self):
        with pytest.raises(ValueError, match="at least one"):
            PopulationSpec(strata=(), seed=1)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            PopulationSpec(
                strata=(make_stratum_spec(), make_stratum_spec()), seed=1)

    def test_design_requires_every_n(self):
        spec = PopulationSpec(
            strata=(make_stratum_spec(),
                    make_stratum_spec(stratum_id="b", n=None)),
            seed=1,
        )
        with pytest.raises(ValueError, match="b"):
            spec.design
        assert two_strata_spec().design == (6, 8)

    def test_from_dict_round_trip(self):
        doc = {
            "seed": 99,
            "strata": [
                {"stratum_id": "north", "N": 25,
                 "mu": [100, 50, 80], "sigma": [10, 5, 8],
                 "rho": {"xy": 0.7, "yz": 0.4, "xz": 0.3}, "n": 5},
                {"N": 40,
                 "mu": [120, 60, 70], "sigma": [12, 6, 7],
                 "rho": {"xy": 0.7, "yz": 0.4, "xz": 0.3}},
            ],
        }
        spec = PopulationSpec.from_dict(doc)
        assert spec.seed == 99
        assert [s.stratum_id for s in spec.strata] == ["north", "2"]
        assert spec.strata[0].n == 5
        assert spec.strata[1].n is None
        assert spec.strata[0].mu == (100.0, 50.0, 80.0)
        assert spec.strata[1].rho == (0.7, 0.4, 0.3)

    @pytest.mark.parametrize("where, key, value", [
        ("doc", "seed", 2.7), ("doc", "seed", True), ("stratum", "N", 30.9),
        ("stratum", "N", False), ("stratum", "n", True), ("stratum", "n", 5.5),
    ] + [
        # a count written as a string is not a count, integral or not
        pytest.param(where, key, text, id=f"{where}-{key}-{text!r}")
        for where, key in (("doc", "seed"), ("stratum", "N"), ("stratum", "n"))
        for text in ("30", "30.9")
    ])
    def test_from_dict_rejects_non_integral_counts(self, where, key, value):
        doc = {"seed": 1, "strata": [{"N": 30, "n": 5, "mu": [1, 1, 1],
                                      "sigma": [1, 1, 1],
                                      "rho": {"xy": 0, "yz": 0, "xz": 0}}]}
        (doc if where == "doc" else doc["strata"][0])[key] = value
        with pytest.raises(ValueError) as info:
            PopulationSpec.from_dict(doc)
        assert str(info.value) == (f"malformed population spec: {key} must be "
                                   f"an integer, got {value!r}")
        # an integral float is still a count
        (doc if where == "doc" else doc["strata"][0])[key] = 6.0
        spec = PopulationSpec.from_dict(doc)
        got = spec.seed if where == "doc" else getattr(spec.strata[0], key)
        assert got == 6 and type(got) is int

    def test_negative_seed_rejected(self, tiny_frames):
        message = "seed must be a non-negative integer, got -1"
        with pytest.raises(ValueError, match=message):
            PopulationSpec(strata=(make_stratum_spec(),), seed=-1)
        with pytest.raises(ValueError, match=message):
            PopulationSpec.from_dict({"seed": -1, "strata": [
                {"N": 30, "mu": [1, 1, 1], "sigma": [1, 1, 1],
                 "rho": {"xy": 0, "yz": 0, "xz": 0}}]})
        with pytest.raises(ValueError, match=message):
            monte_carlo(tiny_frames, (2, 3), [EstimatorSpec(kind="classical")],
                        R=4, seed=-1)

    def test_from_dict_malformed(self):
        with pytest.raises(ValueError, match="malformed population spec"):
            PopulationSpec.from_dict({"strata": []})
        with pytest.raises(ValueError, match="malformed population spec"):
            PopulationSpec.from_dict(
                {"seed": 1, "strata": [{"N": 10, "mu": [1, 1, 1],
                                        "sigma": [1, 1, 1]}]})
        with pytest.raises(ValueError, match="malformed population spec"):
            PopulationSpec.from_dict(
                {"seed": 1, "strata": [{"N": 10, "mu": [1, 1, 1],
                                        "sigma": [1, 1, 1],
                                        "rho": [0.5, 0.5, 0.5]}]})

    @pytest.mark.parametrize("key, value, message", [
        # A string used to become the tuple of its characters: "100"
        # gave mu = (1.0, 0.0, 0.0).
        ("mu", "100", "mu must be a list of three numbers, got '100'"),
        ("mu", [1, 2], "mu must be a list of three numbers, got [1, 2]"),
        ("mu", [1, "2", 3],
         "mu must be a list of three numbers, got [1, '2', 3]"),
        ("sigma", 5, "sigma must be a list of three numbers, got 5"),
        ("sigma", [1, True, 1],
         "sigma must be a list of three numbers, got [1, True, 1]"),
        ("rho", [0.5, 0.5, 0.5], "rho must be an object with numbers xy, "
         "yz and xz, got [0.5, 0.5, 0.5]"),
        ("rho", {"xy": "0.5", "yz": 0, "xz": 0}, "rho must be an object with "
         "numbers xy, yz and xz, got {'xy': '0.5', 'yz': 0, 'xz': 0}"),
        ("rho", {"xy": 0.5, "xz": 0}, "rho must be an object with numbers "
         "xy, yz and xz, got {'xy': 0.5, 'xz': 0}"),
    ])
    def test_from_dict_names_the_malformed_value(self, key, value, message):
        stratum = {"N": 10, "mu": [1, 1, 1], "sigma": [1, 1, 1],
                   "rho": {"xy": 0, "yz": 0, "xz": 0}, key: value}
        with pytest.raises(ValueError) as info:
            PopulationSpec.from_dict({"seed": 1, "strata": [stratum]})
        assert str(info.value) == f"malformed population spec: {message}"

    def test_load_from_json_file(self, tmp_path):
        doc = {
            "seed": 7,
            "strata": [
                {"stratum_id": "a", "N": 30, "mu": [100, 50, 80],
                 "sigma": [10, 5, 8],
                 "rho": {"xy": 0.7, "yz": 0.4, "xz": 0.3}, "n": 6},
            ],
        }
        path = tmp_path / "pop.json"
        path.write_text(json.dumps(doc))
        assert load_population_spec(path) == PopulationSpec.from_dict(doc)


class TestGeneratePopulation:
    def test_deterministic(self):
        spec = two_strata_spec()
        first = generate_population(spec)
        second = generate_population(spec)
        for f, g in zip(first, second):
            assert f.stratum_id == g.stratum_id
            np.testing.assert_array_equal(f.y, g.y)
            np.testing.assert_array_equal(f.x, g.x)
            np.testing.assert_array_equal(f.z, g.z)

    def test_sizes_and_ids_follow_spec(self):
        frames = generate_population(two_strata_spec())
        assert [f.stratum_id for f in frames] == ["a", "b"]
        assert [f.size for f in frames] == [30, 40]

    def test_zero_sigma_gives_constant_columns(self):
        spec = PopulationSpec(
            strata=(make_stratum_spec(sigma=(0.0, 0.0, 0.0)),), seed=5)
        frame, = generate_population(spec)
        np.testing.assert_array_equal(frame.y, np.full(30, 100.0))
        np.testing.assert_array_equal(frame.x, np.full(30, 50.0))
        np.testing.assert_array_equal(frame.z, np.full(30, 80.0))

    def test_realized_correlation_concentrates(self):
        # At N = 10,000 the sample correlation's standard error is about
        # (1 - rho^2)/sqrt(N) ~ 0.002, so +-0.05 is a > 4 sigma band.
        spec = PopulationSpec(
            strata=(make_stratum_spec(N=10_000, rho=(0.9, 0.6, 0.5),
                                      n=None),),
            seed=20260815,
        )
        frame, = generate_population(spec)
        corr = np.corrcoef(np.vstack([frame.y, frame.x, frame.z]))
        assert corr[0, 1] == pytest.approx(0.9, abs=0.05)
        assert corr[0, 2] == pytest.approx(0.6, abs=0.05)
        assert corr[1, 2] == pytest.approx(0.5, abs=0.05)

    def test_perfect_correlation_boundary(self):
        # |rho| = 1 makes the covariance singular; generation must still
        # work (eigen factorization) and reproduce the degeneracy.
        spec = PopulationSpec(
            strata=(make_stratum_spec(N=500, sigma=(2.0, 3.0, 4.0),
                                      rho=(1.0, 1.0, 1.0), n=None),),
            seed=11,
        )
        frame, = generate_population(spec)
        corr = np.corrcoef(np.vstack([frame.y, frame.x, frame.z]))
        assert np.min(corr) > 1.0 - 1e-9


def powers_of_two_frame(N, stratum_id="s"):
    """Frame whose y decodes the drawn subset: y_j = 2^j."""
    return UnitFrame(
        stratum_id=stratum_id,
        y=[float(2**j) for j in range(N)],
        x=[1.0] * N,
        z=[1.0] * N,
    )


def decode_subset(ybar, n):
    total = round(ybar * n)
    return {j for j in range(total.bit_length()) if total >> j & 1}


class TestDrawSample:
    def test_census_reproduces_population_means(self, tiny_frames):
        design = [f.size for f in tiny_frames]
        sample = draw_sample(tiny_frames, design, np.random.default_rng(0))
        pop = combine([summarize_stratum(f, n)
                       for f, n in zip(tiny_frames, design)])
        for i, frame in enumerate(tiny_frames):
            assert sample.ybar[i] == frame.y.mean()
            assert sample.xbar[i] == frame.x.mean()
            assert sample.zbar[i] == frame.z.mean()
        assert sample.ybar_st == pop.mean_y
        assert sample.xbar_st == pop.mean_x
        assert sample.zbar_st == pop.mean_z

    def test_draws_are_distinct_subsets_of_requested_size(self):
        frame = powers_of_two_frame(16)
        rng = np.random.default_rng(2024)
        for _ in range(200):
            sample = draw_sample([frame], [5], rng)
            subset = decode_subset(sample.ybar[0], 5)
            # A sum of five *distinct* powers of two has exactly five
            # set bits; repeats or wrong counts cannot decode this way.
            assert len(subset) == 5
            assert subset <= set(range(16))

    def test_inclusion_frequencies_are_uniform(self):
        """Under SRSWOR each unit is included with probability n/N.

        Over 10,000 draws of 3 of 10 units the inclusion counts give one
        pooled score (:func:`inclusion_score`), which must stay under its
        chi-square bound.

        Nominal false-alarm rate of the test: 1e-4.
        """
        frame = powers_of_two_frame(10)
        rng = np.random.default_rng(42)
        draws = 10_000
        counts = np.zeros(10)
        for _ in range(draws):
            sample = draw_sample([frame], [3], rng)
            for j in decode_subset(sample.ybar[0], 3):
                counts[j] += 1
        score = inclusion_score(counts, draws, 3)
        assert score < chi2_bound(9, 1e-4), score

    def test_rejects_out_of_range_sample_size(self, tiny_frames):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="stratum a"):
            draw_sample(tiny_frames, [0, 3], rng)
        with pytest.raises(ValueError, match="stratum b"):
            draw_sample(tiny_frames, [2, 7], rng)

    def test_rejects_design_length_mismatch(self, tiny_frames):
        with pytest.raises(ValueError, match="one sample size per stratum"):
            draw_sample(tiny_frames, [2], np.random.default_rng(0))

    def test_combined_means_weight_by_frame_size(self):
        small = UnitFrame(stratum_id="s", y=[1.0] * 5, x=[10.0] * 5,
                          z=[2.0] * 5)
        large = UnitFrame(stratum_id="l", y=[3.0] * 15, x=[30.0] * 15,
                          z=[4.0] * 15)
        sample = draw_sample([small, large], [2, 2],
                             np.random.default_rng(0))
        assert sample.ybar_st == pytest.approx(0.25 * 1.0 + 0.75 * 3.0)
        assert sample.xbar_st == pytest.approx(0.25 * 10.0 + 0.75 * 30.0)
        assert sample.zbar_st == pytest.approx(0.25 * 2.0 + 0.75 * 4.0)


def negative_base_frame():
    """One negative x value so the dual transform can go nonpositive."""
    return UnitFrame(stratum_id="s1", y=(10.0, 12.0), x=(-1.0, 3.0),
                     z=(5.0, 6.0))


ALL_KINDS_SPECS = (
    EstimatorSpec(kind="classical"),
    EstimatorSpec(kind="combined_ratio"),
    EstimatorSpec(kind="combined_product"),
    EstimatorSpec(kind="ratio_cum_product"),
    EstimatorSpec(kind="plikusas_dual"),
    EstimatorSpec(kind="dual_family", alpha1=0.5, alpha2=-0.5),
)


class TestMonteCarlo:
    def test_deterministic(self, tiny_frames):
        specs = ALL_KINDS_SPECS
        a = monte_carlo(tiny_frames, (2, 3), specs, R=64, seed=123)
        b = monte_carlo(tiny_frames, (2, 3), specs, R=64, seed=123)
        assert a.rows() == b.rows()
        assert a.xstar_mean == b.xstar_mean
        assert a.zstar_se == b.zstar_se

    def test_common_random_numbers_across_estimators(self, tiny_frames):
        # Every estimator sees the same draws, and all of them are
        # evaluated together, so each row must be bit for bit the row of
        # the estimator run alone: counts, aggregates and theory.  On the
        # negative-base frame the fractional dual exponents reject about
        # half of the draws.
        for frames, design in ((tiny_frames, (2, 3)),
                               ([negative_base_frame()], (1,))):
            pop = combine([summarize_stratum(f, n)
                           for f, n in zip(frames, design)])
            A = 2.0 * pop.mean_x + 1.0
            specs = ALL_KINDS_SPECS + (
                EstimatorSpec(kind="transformed_product", A=A),
                EstimatorSpec(kind="tracy_product", A=A),
                EstimatorSpec(kind="dual_family", alpha1=0.5, alpha2=0.5),
                EstimatorSpec(kind="dual_family", alpha1=-1.5, alpha2=0.25),
                EstimatorSpec(kind="dual_family", alpha1=2.0, alpha2=-1.0),
            )
            assert {spec.kind for spec in specs} == set(KINDS)
            R = BLOCK + 40
            together = monte_carlo(frames, design, specs, R=R, seed=9)
            for spec, row in zip(specs, together.rows()):
                alone = monte_carlo(frames, design, [spec], R=R, seed=9)
                np.testing.assert_equal(alone.rows()[0], row)
            rejected = sum(row["rejected"] for row in together.rows())
            assert (rejected > 0) == (len(frames) == 1)

    def test_theoretical_column_matches_direct_formula(self, tiny_frames):
        design = (2, 3)
        result = monte_carlo(tiny_frames, design, ALL_KINDS_SPECS,
                             R=8, seed=1)
        pop = combine([summarize_stratum(f, n)
                       for f, n in zip(tiny_frames, design)])
        m = compute_moments(pop)
        md = compute_dual_moments(pop)
        for spec, row in zip(ALL_KINDS_SPECS, result.results):
            assert row.theoretical_mse == mse_first_order(
                spec, pop, m, md).mse

    def test_variance_decomposition(self, tiny_frames):
        result = monte_carlo(tiny_frames, (2, 3), ALL_KINDS_SPECS,
                             R=500, seed=77)
        for row in result.results:
            gap = abs(row.empirical_mse - row.empirical_variance
                      - row.empirical_bias**2)
            assert gap <= 1e-9 * row.empirical_mse

    def test_classical_estimator_is_unbiased(self, tiny_frames):
        result = monte_carlo(tiny_frames, (2, 3),
                             [EstimatorSpec(kind="classical")],
                             R=4000, seed=5)
        row = result.results[0]
        se = np.sqrt(row.empirical_variance / row.accepted)
        assert abs(row.empirical_bias) < 4 * se

    def test_dual_transform_means_track_population(self):
        """The dual-transformed x and z means are unbiased, as one score.

        Per stratum ``xstar_h = (N_h X_h - n_h xbar_h) / (N_h - n_h)`` is
        linear in the sample mean, so the design covariance of one draw's
        ``(xstar_st, zstar_st)`` is exactly ``C = sum_h W_h^2 g_h^2
        (1/n_h - 1/N_h) S_h`` with ``g_h = n_h / (N_h - n_h)`` and ``S_h``
        the stratum's (x, z) covariance.  Over R draws the mean gap ``d``
        from the population means is close to normal with covariance
        ``C / R``, so ``Q = R d' C^-1 d`` is chi-square with 2 degrees of
        freedom, and ``Q < 2 ln(2e4)`` fails with probability 5e-5.  The
        reported standard errors must also agree with ``sqrt(diag(C) / R)``
        to 10 %, about 9 standard errors of a standard deviation estimated
        from R = 4,000 draws.

        Nominal false-alarm rate of the test: 5e-5.
        """
        spec = PopulationSpec(
            strata=(
                StratumSpec(stratum_id="a", N=25, mu=(90.0, 45.0, 60.0),
                            sigma=(9.0, 4.5, 6.0), rho=(0.6, 0.3, 0.2),
                            n=5),
                StratumSpec(stratum_id="b", N=30, mu=(110.0, 55.0, 50.0),
                            sigma=(9.0, 4.5, 6.0), rho=(0.6, 0.3, 0.2),
                            n=6),
                StratumSpec(stratum_id="c", N=20, mu=(70.0, 35.0, 40.0),
                            sigma=(9.0, 4.5, 6.0), rho=(0.6, 0.3, 0.2),
                            n=4),
            ),
            seed=3,
        )
        frames = generate_population(spec)
        R = 4000
        result = monte_carlo(frames, spec.design,
                             [EstimatorSpec(kind="classical")],
                             R=R, seed=11)
        N = np.array([f.size for f in frames], dtype=float)
        n = np.array(spec.design, dtype=float)
        W = N / N.sum()
        factor = W**2 * (n / (N - n)) ** 2 * (1.0 / n - 1.0 / N)
        C = sum(k * np.cov(f.x, f.z) for k, f in zip(factor, frames))
        target = [W @ [f.x.mean() for f in frames],
                  W @ [f.z.mean() for f in frames]]
        d = np.array([result.xstar_mean, result.zstar_mean]) - target
        Q = R * d @ np.linalg.solve(C, d)
        assert Q < 2.0 * np.log(2e4)
        se = np.sqrt(np.diag(C) / R)
        np.testing.assert_allclose([result.xstar_se, result.zstar_se], se,
                                   rtol=0.1)

    def test_census_design_has_zero_empirical_mse(self, tiny_frames):
        design = [f.size for f in tiny_frames]
        specs = [
            EstimatorSpec(kind="classical"),
            EstimatorSpec(kind="combined_ratio"),
            EstimatorSpec(kind="combined_product"),
            EstimatorSpec(kind="ratio_cum_product"),
        ]
        result = monte_carlo(tiny_frames, design, specs, R=16, seed=2)
        assert result.xstar_mean is None
        assert result.zstar_se is None
        for row in result.results:
            assert row.rejected == 0
            assert row.empirical_bias == 0.0
            assert row.empirical_variance == 0.0
            assert row.empirical_mse == 0.0
            assert np.isnan(row.ratio)

    def test_census_design_rejects_dual_estimators(self, tiny_frames):
        design = [f.size for f in tiny_frames]
        with pytest.raises(ValueError, match="census"):
            monte_carlo(tiny_frames, design,
                        [EstimatorSpec(kind="plikusas_dual")], R=4, seed=2)

    def test_degenerate_draws_are_rejected_and_counted(self):
        # g = 1 here, so the transformed x-mean is 2*mean_x - xbar =
        # 2 - xbar: drawing the unit with x = 3 (y = 12) sends it
        # negative and a fractional exponent must reject the draw.  The
        # other unit has y = 10, so the classical mean counts the
        # rejected draws: it is 10 + 2 * rejected / R.
        frames = [negative_base_frame()]
        specs = [EstimatorSpec(kind="classical"),
                 EstimatorSpec(kind="dual_family", alpha1=0.5, alpha2=0.5)]
        R = 8
        result = monte_carlo(frames, (1,), specs, R=R, seed=0)
        classical, dual = result.results
        assert classical.rejected == 0
        assert classical.accepted == R
        assert dual.rejected == round(R * (classical.empirical_mean - 10) / 2)
        assert 0 < dual.rejected < R
        assert dual.rejected + dual.accepted == dual.replications

    def test_all_draws_rejected_raises(self):
        # A draw is rejected exactly when it picks the unit with x = 3,
        # so a study raises exactly when all its draws pick that unit.
        # At R = 1 that happens with probability 1/2 per seed, so no
        # seed of 40 raising has probability 2**-40.
        frames = [negative_base_frame()]
        specs = [EstimatorSpec(kind="dual_family", alpha1=0.5, alpha2=0.5)]
        raised = {1: 0, 3: 0}
        for seed in range(40):
            for R in raised:
                xbar = study_means(frames, (1,), R, seed)[1, :, 0]
                picks = int(np.count_nonzero(xbar == 3.0))
                if picks == R:
                    with pytest.raises(AllDrawsRejectedError,
                                       match="dual_family"):
                        monte_carlo(frames, (1,), specs, R=R, seed=seed)
                    raised[R] += 1
                else:
                    result = monte_carlo(frames, (1,), specs, R=R, seed=seed)
                    assert result.results[0].rejected == picks
        assert raised[1] > 0

    def test_rejects_nonpositive_replication_count(self, tiny_frames):
        with pytest.raises(ValueError, match="R"):
            monte_carlo(tiny_frames, (2, 3),
                        [EstimatorSpec(kind="classical")], R=0, seed=1)

    def test_true_mean_is_realized_population_mean(self, tiny_frames):
        result = monte_carlo(tiny_frames, (2, 3),
                             [EstimatorSpec(kind="classical")], R=4, seed=1)
        pop = combine([summarize_stratum(f, n)
                       for f, n in zip(tiny_frames, (2, 3))])
        assert result.true_mean_y == pop.mean_y
        assert result.population.mean_y == pop.mean_y

    def test_classical_mse_ratio_converges_with_more_replications(self):
        """The classical empirical/theoretical MSE ratio converges to 1.

        The classical first-order MSE is the exact design variance, so a
        ratio over R draws has mean exactly 1 and a spread that shrinks
        like 1/sqrt(R).  The seeds 33-52 give 20 independent studies at
        R = 5,000 and at R = 50,000 (the smaller one a prefix of the
        larger), with ratios close to normal at these R.  Two pooled
        scores are checked:

        * at each R, the t statistic of the 20 ratios against 1 lies
          within 5.5; under t with 19 degrees of freedom each bound is
          crossed with probability 2.6e-5;
        * the summed squared gap ``(ratio - 1)**2`` is smaller at
          R = 50,000 than at R = 5,000.  With the prefix correlation
          the difference of the sums is ``0.908 chi2_20 - 9.908 chi2_20``
          in units of the larger study's variance, which is nonnegative
          with probability P(F(20, 20) > 10.9) = 7.9e-7.

        Nominal false-alarm rate of the test: 5.4e-5.
        """
        spec = two_strata_spec(seed=7)
        frames = generate_population(spec)
        design = spec.design
        classical = [EstimatorSpec(kind="classical")]
        ratios = {5_000: [], 50_000: []}
        for seed in range(33, 53):
            for R, found in ratios.items():
                study = monte_carlo(frames, design, classical, R=R, seed=seed)
                found.append(study.results[0].ratio)
        gaps = {R: np.array(found) - 1.0 for R, found in ratios.items()}
        for R, gap in gaps.items():
            t = gap.mean() / (gap.std(ddof=1) / np.sqrt(gap.size))
            assert abs(t) < 5.5, (R, t)
        assert np.sum(gaps[50_000] ** 2) < np.sum(gaps[5_000] ** 2)


def study_means(frames, design, R, seed):
    """Per-stratum (y, x, z) means of every draw of a study, (3, R, L).

    Each block comes from the per-block function ``monte_carlo`` runs.
    """
    return np.concatenate(
        [_block_means(frames, design, R, b, child)
         for b, child in enumerate(_block_seeds(seed, R))], axis=1)


def rejecting_study():
    """``(frames, design, specs)`` of a study in which some draws are rejected.

    Two small strata with high sampling fractions, as in the benchmark's
    estimator grid.  The z-mean sits near zero against its spread, so the
    fractional dual exponents reject some draws.
    """
    rho = (0.8, -0.5, -0.4)
    spec = PopulationSpec(strata=(
        StratumSpec(stratum_id="p", N=30, n=18, mu=(50.0, 100.0, 3.0),
                    sigma=(10.0, 15.0, 10.0), rho=rho),
        StratumSpec(stratum_id="q", N=20, n=12, mu=(60.0, 120.0, 2.5),
                    sigma=(12.0, 18.0, 10.0), rho=rho)), seed=5)
    frames = generate_population(spec)
    mean_x = combine([summarize_stratum(f, n)
                      for f, n in zip(frames, spec.design)]).mean_x
    specs = ALL_KINDS_SPECS + (
        EstimatorSpec(kind="tracy_product", A=2.0 * mean_x),
        EstimatorSpec(kind="dual_family", alpha1=0.25, alpha2=0.75),
        EstimatorSpec(kind="dual_family", alpha1=0.75, alpha2=-0.25),
    )
    return frames, spec.design, specs


class TestBlockSampler:
    def test_block_b_comes_from_child_b_of_the_seed(self, tiny_frames):
        # Block b draws every stratum in turn, BLOCK rows each, from the
        # generator of child b; the last block is drawn at full size and
        # cut.  The tiny strata take the keys sampler: a row's sample is
        # its n smallest of N uniform keys, its units averaged in index
        # order.
        R, seed, design = 2 * BLOCK + 3, 8, (2, 3)
        means = study_means(tiny_frames, design, R, seed)
        for b in range(3):
            child = np.random.SeedSequence(seed).spawn(b + 1)[b]
            rng = np.random.default_rng(child)
            kept = min(BLOCK, R - b * BLOCK)
            for h, (frame, n) in enumerate(zip(tiny_frames, design)):
                keys = rng.random((BLOCK, frame.size))
                units = np.sort(np.argsort(keys, axis=1)[:kept, :n], axis=1)
                for r, row in enumerate(units):
                    expected = [frame.y[row].mean(), frame.x[row].mean(),
                                frame.z[row].mean()]
                    np.testing.assert_array_equal(
                        means[:, b * BLOCK + r, h], expected)

    def test_study_is_a_prefix_of_any_larger_study(self, tiny_frames):
        # The short study ends inside a block, the long one runs on.
        short, long = BLOCK + 37, 3 * BLOCK + 5
        first = study_means(tiny_frames, (2, 3), short, seed=8)
        second = study_means(tiny_frames, (2, 3), long, seed=8)
        assert first.shape == (3, short, 2)
        np.testing.assert_array_equal(first, second[:, :short])
        other_seed = study_means(tiny_frames, (2, 3), short, seed=9)
        assert not np.array_equal(first, other_seed)

    def test_prefix_property_holds_for_monte_carlo(self, tiny_frames):
        # The first R draws of a long study are those of the short one,
        # so the classical estimates of the short study are recomputed
        # exactly from the long study's leading draws.
        R = BLOCK + 11
        result = monte_carlo(tiny_frames, (2, 3),
                             [EstimatorSpec(kind="classical")], R=R, seed=4)
        pop = result.population
        ybar = study_means(tiny_frames, (2, 3), 2 * BLOCK, seed=4)[0, :R]
        values = sum(pop.w[h] * ybar[:, h] for h in range(pop.L))
        assert result.results[0].empirical_mean == float(values.mean())

    def test_aggregates_match_a_per_draw_loop(self):
        """Each row aggregates its accepted draws, estimated one at a time.

        The study evaluates every estimator on a block at once and sums
        over the accepted draws with the rejected ones zeroed.  Here each
        draw is estimated alone with :func:`estimate`, the rejected ones
        are dropped, and numpy aggregates the rest.  Counts must agree
        exactly; the aggregates are equal bit for bit where nothing was
        rejected and to 1e-12 otherwise, the summation order differing.
        The z-mean sits near zero against its spread, so the fractional
        dual exponents reject some draws.
        """
        frames, design, specs = rejecting_study()
        pop = combine([summarize_stratum(f, n) for f, n in zip(frames, design)])
        R, seed = BLOCK + 40, 3
        result = monte_carlo(frames, design, specs, R=R, seed=seed)
        ybar, xbar, zbar = study_means(frames, design, R, seed)
        samples = [SampleMeans.from_stratum_means(
            pop.stratum_ids, ybar[r], xbar[r], zbar[r], pop.w)
            for r in range(R)]
        partly_rejected = 0
        for estimator, row in zip(specs, result.results):
            kept = []
            for sample in samples:
                try:
                    kept.append(estimate(estimator, sample, pop))
                except DegenerateSampleError:
                    pass
            kept = np.array(kept)
            assert (row.accepted, row.rejected) == (kept.size, R - kept.size)
            partly_rejected += 0 < row.rejected < R
            want = (kept.mean(), kept.var(), np.mean((kept - pop.mean_y) ** 2))
            got = (row.empirical_mean, row.empirical_variance, row.empirical_mse)
            if row.rejected:
                assert got == pytest.approx(want, rel=1e-12), estimator.label
            else:
                assert got == want, estimator.label
        assert partly_rejected > 0

    def test_study_equals_itself_when_run_again(self, tiny_frames):
        R = 2 * BLOCK + 9
        first = monte_carlo(tiny_frames, (2, 3), ALL_KINDS_SPECS, R=R, seed=6)
        again = monte_carlo(tiny_frames, (2, 3), ALL_KINDS_SPECS, R=R, seed=6)
        assert again.rows() == first.rows()
        assert (again.xstar_mean, again.xstar_se, again.zstar_mean,
                again.zstar_se) == (first.xstar_mean, first.xstar_se,
                                    first.zstar_mean, first.zstar_se)

    def test_rows_are_uniform_sets_of_distinct_units(self):
        """Every row is a set of n distinct units, included uniformly.

        ``y = 2^j`` decodes each drawn subset from its mean.  Every row
        must decode to ``n`` distinct units, and under SRSWOR each unit is
        included with probability ``n/N``: over 10,000 draws the pooled
        inclusion score of each stratum (:func:`inclusion_score`) must
        stay under its chi-square bound at 5e-5.

        Nominal false-alarm rate of the test: 1e-4.
        """
        frames = [powers_of_two_frame(10, "a"), powers_of_two_frame(16, "b")]
        design = (3, 5)
        draws = 10_000
        ybar = study_means(frames, design, draws, seed=2024)[0]
        for h, (frame, n) in enumerate(zip(frames, design)):
            counts = np.zeros(frame.size)
            for value in ybar[:, h]:
                subset = decode_subset(value, n)
                assert len(subset) == n
                assert subset <= set(range(frame.size))
                counts[list(subset)] += 1
            score = inclusion_score(counts, draws, n)
            assert score < chi2_bound(frame.size - 1, 5e-5), (h, score)


class RecordingGenerator:
    """A ``Generator`` that records which of its drawing methods ran."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.called = set()

    def random(self, *args, **kwargs):
        self.called.add("keys")
        return self.rng.random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.called.add("redraw")
        return self.rng.integers(*args, **kwargs)


def chi2_bound(k, alpha):
    """A ``t`` with ``P(chi2_k >= t) <= alpha``, from the Chernoff bound.

    ``P(chi2_k >= k u) <= (u e^(1 - u))^(k/2)`` for ``u > 1``; ``u`` is
    found by bisection, so the bound is conservative.
    """
    target = 2.0 * np.log(alpha) / k
    lo, hi = 1.0, 100.0
    for _ in range(100):
        mid = (lo + hi) / 2
        if np.log(mid) + 1.0 - mid > target:
            lo = mid
        else:
            hi = mid
    return k * hi


def inclusion_score(counts, draws, n):
    """Pooled score of the unit inclusion counts of uniform ``n``-subsets.

    Over ``draws`` uniform draws of ``n`` of ``N = len(counts)`` units, the
    count ``c_i`` of unit ``i`` has mean ``draws p``, ``p = n/N``.  The
    counts sum to ``draws n``, and their covariance is ``draws (p - q)``
    times the identity off the all-ones direction, ``q = n(n-1)/(N(N-1))``.
    So ``sum_i (c_i - draws p)^2 / (draws (p - q))`` is close to
    chi-square with ``N - 1`` degrees of freedom.
    """
    N = len(counts)
    p = n / N
    q = p * (n - 1) / (N - 1)
    return np.sum((np.asarray(counts) - draws * p) ** 2) / (draws * (p - q))


class TestSubsets:
    @pytest.mark.parametrize("N, n, sampler", [
        (10, 10, "keys"),     # census
        (5, 2, "keys"),
        (64, 8, "keys"),      # N <= 64
        (65, 8, "redraw"),    # one unit past the small-stratum bound
        (66, 22, "keys"),     # 3 n = N
        (67, 22, "redraw"),   # 3 n = N - 1
        (200, 20, "redraw"),
    ])
    def test_rows_are_uniform_subsets(self, N, n, sampler):
        """Both samplers draw uniform ``n``-subsets, by pooled scores.

        Every row must hold ``n`` distinct in-range units, ascending.
        Over ``D`` uniform draws the inclusion count ``c_i`` of unit
        ``i`` has mean ``D p``, ``p = n/N``, and each pair ``i < j``
        count ``C_ij`` has mean ``D q``, ``q = n(n-1)/(N(N-1))``.

        * Units: the counts sum to ``D n`` and their covariance is
          ``D (p - q)`` times the identity off the all-ones direction, so
          ``Q1 = sum_i (c_i - D p)^2 / (D (p - q))`` is close to
          chi-square with ``N - 1`` degrees of freedom.
        * Pairs: uniform single-unit frequencies do not prove uniform
          subsets, so the pair counts are scored too.  Their gaps
          ``e_ij = C_ij - D q`` sum to zero; removing the part a sum
          ``g_i + g_j`` explains (the unit counts) leaves
          ``|e|^2 - sum_i d_i^2 / (N - 2)``, with ``d_i = sum_j e_ij``,
          a projection onto ``N(N-3)/2`` dimensions on which the
          covariance is ``D (q - 2r + s)``, where ``r`` and ``s`` are the
          chances that three and four given units are all drawn.  So
          ``Q2``, their ratio, is close to chi-square with ``N(N-3)/2``
          degrees of freedom.

        Each score must stay under its Chernoff bound at 5e-6.  The
        census shape has no spread and is checked by its rows alone.

        Nominal false-alarm rate of the test: 1e-5 per shape, 7e-5 in all.
        """
        rng = RecordingGenerator(seed=20261018)
        blocks = 80
        D = blocks * BLOCK
        C = np.zeros((N, N))
        for _ in range(blocks):
            units = simulate._subsets(rng, N, n, BLOCK)
            assert units.shape == (BLOCK, n)
            assert np.all(np.diff(units, axis=1) > 0)
            assert units.min() >= 0 and units.max() < N
            X = np.zeros((BLOCK, N))
            np.put_along_axis(X, units, 1.0, axis=1)
            C += X.T @ X
        assert rng.called == {sampler}
        if n == N:
            return
        p = n / N
        q = p * (n - 1) / (N - 1)
        r = q * (n - 2) / (N - 2)
        s = r * (n - 3) / (N - 3)
        alpha = 5e-6
        Q1 = inclusion_score(np.diag(C), D, n)
        assert Q1 < chi2_bound(N - 1, alpha), Q1
        e = C - D * q
        np.fill_diagonal(e, 0.0)
        d = e.sum(axis=1)
        Q2 = (np.sum(e**2) / 2 - np.sum(d**2) / (N - 2)) / (D * (q - 2 * r + s))
        assert Q2 < chi2_bound(N * (N - 3) // 2, alpha), Q2

    def test_large_stratum_study_memory_is_bounded(self, monkeypatch):
        """Sampling memory follows the index block, not the stratum size.

        One stratum of N = 20,000 units at n = 200 takes the redraw
        sampler, whose arrays are a few ``(BLOCK, n)`` blocks of 400 KiB.
        Ranking uniform keys instead would hold two ``(BLOCK, N)``
        arrays, 78 MiB.  The traced peak of a two-block study, its blocks
        run on two threads, must stay under 4 MiB.
        """
        force_threads(monkeypatch, 2)
        values = np.random.default_rng(5).normal(100.0, 10.0, (3, 20_000))
        frame = UnitFrame(stratum_id="big", y=values[0], x=values[1],
                          z=values[2])
        tracemalloc.start()
        try:
            monte_carlo([frame], (200,), [EstimatorSpec(kind="classical")],
                        R=2 * BLOCK, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


def force_threads(monkeypatch, count):
    """Run the blocks of every study on ``count`` threads, whatever its size."""
    monkeypatch.setattr(simulate, "_thread_count", lambda blocks: count)


class TestThreadedBlocks:
    @pytest.mark.parametrize("R", [1, BLOCK - 1, BLOCK + 1, 5 * BLOCK + 3])
    def test_results_do_not_depend_on_the_thread_count(self, monkeypatch, R):
        # Every field of the result, bit for bit, with some draws rejected
        # by the fractional dual exponents (at R = 1, perhaps all of them).
        # Threads switch every microsecond, so that they interleave.
        frames, design, specs = rejecting_study()
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 2, 3):
                force_threads(monkeypatch, threads)
                try:
                    result = monte_carlo(frames, design, specs, R=R, seed=11)
                    results.append(dataclasses.asdict(result))
                except AllDrawsRejectedError as exc:
                    results.append(str(exc))
        finally:
            sys.setswitchinterval(interval)
        for other in results[1:]:
            np.testing.assert_equal(other, results[0])
        if R > 1:
            rows = results[0]["results"]
            assert any(0 < row["rejected"] < R for row in rows)

    def test_all_draws_rejected_raises_the_same_way(self, monkeypatch):
        # As in TestMonteCarlo.test_all_draws_rejected_raises: at R = 1 a
        # study raises with probability 1/2 per seed.
        frames = [negative_base_frame()]
        specs = [EstimatorSpec(kind="dual_family", alpha1=0.5, alpha2=0.5)]
        raised = 0
        for seed in range(40):
            for R in (1, 3, BLOCK + 1):
                outcomes = []
                for threads in (1, 2):
                    force_threads(monkeypatch, threads)
                    try:
                        outcomes.append(monte_carlo(frames, (1,), specs, R=R,
                                                    seed=seed).rows())
                    except AllDrawsRejectedError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (seed, R)
                raised += isinstance(outcomes[0], str)
        assert raised > 0

    @pytest.mark.parametrize("where", ["caller", "helper"])
    @pytest.mark.parametrize("error, settings", [
        (MemoryError, {}),
        (RuntimeWarning, {}),                    # turned into an error
        (FloatingPointError, {"over": "raise"}),  # the caller's settings
    ])
    def test_a_failing_block_fails_the_study_and_leaves_no_thread(
            self, monkeypatch, tiny_frames, where, error, settings):
        # The thread named by ``where`` fails on its first block; the other
        # one holds its block until then, so both threads take a block.
        force_threads(monkeypatch, 2)
        caller = threading.get_ident()
        failed = threading.Event()
        draw = simulate._draw_block

        def failing_draw(*args):
            if (threading.get_ident() == caller) == (where == "caller"):
                failed.set()
                if error is MemoryError:
                    raise MemoryError("block failed")
                np.float64(1e308) * 10.0  # overflows
            failed.wait(timeout=30)
            return draw(*args)

        monkeypatch.setattr(simulate, "_draw_block", failing_draw)
        before = threading.active_count()
        with warnings.catch_warnings(), np.errstate(**settings):
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(error):
                monte_carlo(tiny_frames, (2, 3), ALL_KINDS_SPECS,
                            R=4 * BLOCK, seed=1)
        assert failed.is_set()
        assert threading.active_count() == before

    def test_threads_that_cannot_start_leave_their_blocks_to_the_caller(
            self, monkeypatch, tiny_frames):
        R = 3 * BLOCK + 5
        serial = monte_carlo(tiny_frames, (2, 3), ALL_KINDS_SPECS, R=R, seed=4)

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        force_threads(monkeypatch, 3)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        alone = monte_carlo(tiny_frames, (2, 3), ALL_KINDS_SPECS, R=R, seed=4)
        np.testing.assert_equal(dataclasses.asdict(alone),
                                dataclasses.asdict(serial))

    def test_one_block_study_starts_no_thread(self, monkeypatch, tiny_frames):
        started = []
        monkeypatch.setattr(threading.Thread, "start", started.append)
        monte_carlo(tiny_frames, (2, 3), ALL_KINDS_SPECS, R=BLOCK, seed=3)
        assert started == []

    @pytest.mark.parametrize("cpus, expected", [
        (1, {1: 1, 2: 1, 9: 1}),
        (2, {1: 1, 2: 2, 9: 2}),
        (3, {1: 1, 2: 2, 9: 3}),
        (64, {1: 1, 2: 2, 3: 3, 9: 4, 10_000: 4}),
    ])
    def test_thread_count_is_the_least_of_four_cpus_and_blocks(
            self, monkeypatch, cpus, expected):
        # Computed only: no thread is started.
        monkeypatch.setattr(simulate.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        assert {b: simulate._thread_count(b) for b in expected} == expected
        # Without CPU affinity the CPU count is used, and 1 if unknown.
        monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpus)
        assert {b: simulate._thread_count(b) for b in expected} == expected
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
        assert simulate._thread_count(9) == 1


class TestCountArguments:
    """``R``, ``seed`` and every ``n_h`` must be integers; a bool is not one."""

    classical = [EstimatorSpec(kind="classical")]

    @pytest.mark.parametrize("R", [-2, 10.5, "10", True, None])
    def test_bad_replication_count(self, tiny_frames, R):
        with pytest.raises(ValueError) as info:
            monte_carlo(tiny_frames, (2, 3), self.classical, R=R, seed=1)
        assert str(info.value) == f"R must be an integer of at least 1, got {R!r}"

    @pytest.mark.parametrize("seed", [-1, 1.5, "5", True, None])
    def test_bad_seed(self, tiny_frames, seed):
        with pytest.raises(ValueError) as info:
            monte_carlo(tiny_frames, (2, 3), self.classical, R=4, seed=seed)
        assert str(info.value) == (f"seed must be a non-negative integer, "
                                   f"got {seed!r}")
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            PopulationSpec(strata=(make_stratum_spec(),), seed=seed)

    @pytest.mark.parametrize("design, stratum, n", [
        ((5.5, 3), "a", 5.5), (("2", 3), "a", "2"), ((2, True), "b", True),
        ((2, None), "b", None),
    ])
    def test_bad_sample_size(self, tiny_frames, design, stratum, n):
        message = (f"design: sample size must be an integer, got {n!r} "
                   f"in stratum {stratum}")
        with pytest.raises(ValueError) as info:
            monte_carlo(tiny_frames, design, self.classical, R=4, seed=1)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            draw_sample(tiny_frames, design, np.random.default_rng(0))
        assert str(info.value) == message

    def test_integral_floats_are_counts(self, tiny_frames):
        exact = monte_carlo(tiny_frames, (2, 3), ALL_KINDS_SPECS, R=40, seed=6)
        floats = monte_carlo(tiny_frames, (2.0, np.float64(3.0)),
                             ALL_KINDS_SPECS, R=40.0, seed=6.0)
        np.testing.assert_equal(dataclasses.asdict(floats),
                                dataclasses.asdict(exact))
        assert (type(floats.R), type(floats.seed)) == (int, int)
        assert all(type(n) is int for n in floats.design)
