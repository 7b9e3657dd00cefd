"""Unit tests for the Monte Carlo validation harness."""

import json

import numpy as np
import pytest

from stratdual import (
    AllDrawsRejectedError,
    EstimatorSpec,
    PopulationSpec,
    StratumSpec,
    UnitFrame,
    combine,
    compute_dual_moments,
    compute_moments,
    draw_sample,
    generate_population,
    load_population_spec,
    monte_carlo,
    mse_first_order,
    summarize_stratum,
)
from stratdual import simulate
from stratdual.simulate import BLOCK, _sample_blocks

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
        # Under SRSWOR each unit is included with probability n/N; over
        # 10,000 draws the frequency should sit within 4 binomial
        # standard errors of 0.3.
        frame = powers_of_two_frame(10)
        rng = np.random.default_rng(42)
        draws = 10_000
        counts = np.zeros(10)
        for _ in range(draws):
            sample = draw_sample([frame], [3], rng)
            for j in decode_subset(sample.ybar[0], 3):
                counts[j] += 1
        freq = counts / draws
        band = 4 * np.sqrt(0.3 * 0.7 / draws)
        assert np.all(np.abs(freq - 0.3) < band)

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
        # Every estimator sees the same draws, so adding estimators to a
        # run must not perturb the rows already present.
        alone = monte_carlo(tiny_frames, (2, 3),
                            [EstimatorSpec(kind="classical")], R=64, seed=9)
        paired = monte_carlo(
            tiny_frames, (2, 3),
            [EstimatorSpec(kind="classical"),
             EstimatorSpec(kind="combined_ratio")],
            R=64, seed=9)
        assert alone.rows()[0] == paired.rows()[0]

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
        pop = combine([summarize_stratum(f, n)
                       for f, n in zip(frames, spec.design)])
        result = monte_carlo(frames, spec.design,
                             [EstimatorSpec(kind="classical")],
                             R=4000, seed=11)
        # The per-stratum transform is exactly unbiased for the x and z
        # means, so the Monte Carlo averages must sit within noise.
        assert abs(result.xstar_mean - pop.mean_x) < 3 * result.xstar_se
        assert abs(result.zstar_mean - pop.mean_z) < 3 * result.zstar_se

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
        frames = [negative_base_frame()]
        specs = [EstimatorSpec(kind="dual_family", alpha1=0.5, alpha2=0.5)]
        for R in (1, 3):
            with pytest.raises(AllDrawsRejectedError, match="dual_family"):
                monte_carlo(frames, (1,), specs, R=R, seed=0)

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
        # The empirical/theoretical MSE ratio for the classical
        # estimator (whose first-order formula is exact) should drift
        # toward 1 as R grows.  Replications are seeded per-child, so
        # the R = 5,000 run is a prefix of the R = 50,000 run; per seed
        # the comparison is still noisy, hence the 18-of-20 vote across
        # a fixed window of seeds.
        spec = two_strata_spec(seed=7)
        frames = generate_population(spec)
        design = spec.design
        classical = [EstimatorSpec(kind="classical")]
        wins = 0
        for seed in range(33, 53):
            small = monte_carlo(frames, design, classical, R=5_000,
                                seed=seed)
            big = monte_carlo(frames, design, classical, R=50_000,
                              seed=seed)
            small_gap = abs(small.results[0].ratio - 1.0)
            big_gap = abs(big.results[0].ratio - 1.0)
            wins += big_gap < small_gap
        assert wins >= 18


def study_means(frames, design, R, seed):
    """Per-stratum (y, x, z) means of every draw of a study, (3, R, L)."""
    return np.concatenate(
        [means for _, means in _sample_blocks(frames, design, R, seed)],
        axis=1)


class TestBlockSampler:
    def test_draw_r_comes_from_child_r_of_the_seed(self, tiny_frames):
        # Replication r draws each stratum in turn from its own child
        # stream, as a one-replication loop does, across a block
        # boundary too; the units of a sample are averaged in index order.
        R, seed, design = BLOCK + 3, 8, (2, 3)
        means = study_means(tiny_frames, design, R, seed)
        children = np.random.SeedSequence(seed).spawn(R)
        for r, child in enumerate(children):
            rng = np.random.default_rng(child)
            for h, (frame, n) in enumerate(zip(tiny_frames, design)):
                units = np.sort(rng.choice(frame.size, n, replace=False))
                expected = [frame.y[units].mean(), frame.x[units].mean(),
                            frame.z[units].mean()]
                np.testing.assert_array_equal(means[:, r, h], expected)

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

    def test_block_size_does_not_change_results(self, tiny_frames,
                                                monkeypatch):
        R = 2 * BLOCK + 9
        whole = monte_carlo(tiny_frames, (2, 3), ALL_KINDS_SPECS, R=R, seed=6)
        monkeypatch.setattr(simulate, "BLOCK", 7)
        small = monte_carlo(tiny_frames, (2, 3), ALL_KINDS_SPECS, R=R, seed=6)
        assert small.rows() == whole.rows()
        assert (small.xstar_mean, small.xstar_se, small.zstar_mean,
                small.zstar_se) == (whole.xstar_mean, whole.xstar_se,
                                    whole.zstar_mean, whole.zstar_se)

    def test_rows_are_uniform_sets_of_distinct_units(self):
        # y = 2^j decodes each drawn subset from its mean.  Every row
        # must decode to n distinct units, and under SRSWOR each unit
        # is included with probability n/N: over 10,000 draws each
        # frequency sits within 4 binomial standard errors.
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
            p = n / frame.size
            band = 4 * np.sqrt(p * (1 - p) / draws)
            assert np.all(np.abs(counts / draws - p) < band)
