"""Unit tests for population summaries, validation, allocation and CSV IO."""

import math

import numpy as np
import pytest

from oracles import (
    naive_largest_remainder,
    naive_neyman_raw,
    naive_summary,
)
from stratdual import (
    PopulationSummary,
    StratumSummary,
    UnitFrame,
    combine,
    neyman_allocation,
    read_summary_csv,
    read_units_csv,
    summarize_stratum,
    validate,
    write_summary_csv,
)
from stratdual.datasets import demo_path, demo_strata


def make_summary(**overrides):
    base = dict(
        stratum_id="s", N=20, n=5,
        mean_y=100.0, mean_x=200.0, mean_z=50.0,
        s_y=10.0, s_x=20.0, s_z=5.0,
        s_xy=150.0, s_yz=-30.0, s_xz=-60.0,
    )
    base.update(overrides)
    return StratumSummary(**base)


class TestUnitFrame:
    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            UnitFrame(stratum_id="a", y=(1.0, 2.0), x=(1.0,), z=(1.0, 2.0))

    def test_values_must_be_finite(self):
        with pytest.raises(ValueError):
            UnitFrame(stratum_id="a", y=(1.0, float("nan")), x=(1.0, 2.0),
                      z=(1.0, 2.0))

    def test_size(self):
        frame = UnitFrame(stratum_id="a", y=(1.0, 2.0, 3.0), x=(4.0, 5.0, 6.0),
                          z=(7.0, 8.0, 9.0))
        assert frame.size == 3


class TestSummarizeStratum:
    def test_matches_loop_oracle(self, tiny_frames):
        for frame, n in zip(tiny_frames, (2, 3)):
            got = summarize_stratum(frame, n)
            want = naive_summary(frame.y, frame.x, frame.z, n)
            for key, expected in want.items():
                assert getattr(got, key) == pytest.approx(expected, rel=1e-12)

    def test_matches_loop_oracle_randomized(self, rng):
        for _ in range(25):
            N = int(rng.integers(2, 30))
            data = rng.uniform(10.0, 500.0, size=(N, 3))
            frame = UnitFrame(stratum_id="r", y=tuple(data[:, 0]),
                              x=tuple(data[:, 1]), z=tuple(data[:, 2]))
            got = summarize_stratum(frame, 1)
            want = naive_summary(frame.y, frame.x, frame.z, 1)
            for key, expected in want.items():
                assert getattr(got, key) == pytest.approx(expected, rel=1e-11)

    def test_single_unit_stratum_has_zero_spread(self):
        frame = UnitFrame(stratum_id="a", y=(5.0,), x=(7.0,), z=(9.0,))
        s = summarize_stratum(frame, 1)
        assert s.mean_y == 5.0
        assert (s.s_y, s.s_x, s.s_z) == (0.0, 0.0, 0.0)
        assert (s.s_xy, s.s_yz, s.s_xz) == (0.0, 0.0, 0.0)

    def test_cauchy_schwarz_holds_for_unit_built_summaries(self, rng):
        for _ in range(50):
            N = int(rng.integers(2, 25))
            data = rng.normal(100.0, 20.0, size=(N, 3))
            s = summarize_stratum(
                UnitFrame(stratum_id="r", y=tuple(data[:, 0]),
                          x=tuple(data[:, 1]), z=tuple(data[:, 2])), 1)
            for cov, a, b in ((s.s_xy, s.s_x, s.s_y), (s.s_yz, s.s_y, s.s_z),
                              (s.s_xz, s.s_x, s.s_z)):
                assert cov**2 <= a**2 * b**2 + 1e-9 * a**2 * b**2


class TestCombine:
    def test_weights_fractions_and_g(self, tiny_frames):
        pop = combine([summarize_stratum(tiny_frames[0], 2),
                       summarize_stratum(tiny_frames[1], 3)])
        assert pop.L == 2
        assert pop.N == 11
        np.testing.assert_allclose(pop.w, [5 / 11, 6 / 11])
        np.testing.assert_allclose(pop.f, [2 / 5, 3 / 6])
        np.testing.assert_allclose(pop.gamma, [(1 - 2 / 5) / 2, (1 - 3 / 6) / 3])
        np.testing.assert_allclose(pop.g, [2 / 3, 3 / 3])
        assert pop.mean_y == pytest.approx(
            (5 * 13.0 + 6 * 23.333333333333332) / 11, rel=1e-12)

    def test_single_stratum_means_equal_frame_means(self, rng):
        data = rng.uniform(50.0, 200.0, size=(9, 3))
        frame = UnitFrame(stratum_id="only", y=tuple(data[:, 0]),
                          x=tuple(data[:, 1]), z=tuple(data[:, 2]))
        pop = combine([summarize_stratum(frame, 4)])
        assert pop.mean_y == pytest.approx(np.mean(frame.y), rel=1e-12)
        assert pop.mean_x == pytest.approx(np.mean(frame.x), rel=1e-12)
        assert pop.mean_z == pytest.approx(np.mean(frame.z), rel=1e-12)

    @pytest.mark.parametrize("corrected", [True, False])
    def test_table_holds_the_strata_fields(self, corrected):
        strata = demo_strata(corrected)
        pop = combine(strata)
        assert pop.means.shape == (3, len(strata))
        assert pop.cov.shape == (3, 3, len(strata))
        for h, s in enumerate(strata):
            assert pop.means[:, h].tolist() == [s.mean_y, s.mean_x, s.mean_z]
            assert pop.cov[:, :, h].tolist() == [
                [s.s_y * s.s_y, s.s_xy, s.s_yz],
                [s.s_xy, s.s_x * s.s_x, s.s_xz],
                [s.s_yz, s.s_xz, s.s_z * s.s_z],
            ]
        # The moment kernel dots with one (r, s) row at a time.
        assert all(pop.cov[r, c].flags.c_contiguous
                   for r in range(3) for c in range(3))
        # The combined means are the weighted sums, added in stratum order.
        for name in ("mean_y", "mean_x", "mean_z"):
            total = pop.w[0] * getattr(strata[0], name)
            for w, s in zip(pop.w[1:], strata[1:]):
                total = total + w * getattr(s, name)
            assert getattr(pop, name) == total

    def test_census_stratum_has_nan_g(self):
        pop = combine([make_summary(N=5, n=5)])
        assert pop.has_census_stratum
        assert math.isnan(pop.g[0])
        with pytest.raises(ValueError, match="census"):
            pop.require_no_census("dual transform")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            combine([make_summary(stratum_id="x"), make_summary(stratum_id="x")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine([])

    def test_gamma_times_n_is_one_minus_f_exactly(self):
        # Exactly representable sampling fractions make the identity exact.
        for N, n in ((128, 32), (64, 16), (8, 2), (16, 4), (4, 1)):
            pop = combine([make_summary(N=N, n=n)])
            assert pop.gamma[0] * n == 1.0 - n / N


class TestValidate:
    def test_corrected_fixture_has_single_rho_warning(self, corrected_pop):
        report = validate(corrected_pop)
        assert report.ok
        assert len(report.errors) == 0
        codes = [(f.severity, f.stratum_id, f.code) for f in report.findings]
        assert codes == [("warning", "5", "rho_mismatch")]

    def test_printed_fixture_flags_impossible_covariance(self, printed_pop):
        report = validate(printed_pop)
        assert not report.ok
        errors = [(f.stratum_id, f.code) for f in report.errors]
        assert errors == [("3", "impossible_covariance")]

    def test_auto_corrections_repair_decimal_shift(self, printed_pop):
        report = validate(printed_pop, corrections="auto")
        assert report.corrected is not None
        assert any(f.code == "decimal_shift" for f in report.warnings)
        fixed = report.corrected
        assert fixed.strata[2].s_xz == pytest.approx(16490067.456, rel=1e-12)
        assert validate(fixed).ok

    def test_auto_corrections_on_clean_population_change_nothing(self, corrected_pop):
        report = validate(corrected_pop, corrections="auto")
        assert report.corrected is None

    def test_n_greater_than_N_is_an_error(self):
        pop = combine([make_summary(N=5, n=9)])
        report = validate(pop)
        assert [f.code for f in report.errors] == ["n_gt_N"]
        # not repairable: the error survives corrections="auto"
        auto = validate(pop, corrections="auto")
        assert any(f.code == "n_gt_N" for f in auto.errors)

    def test_negative_sd_is_an_error(self):
        pop = combine([make_summary(s_z=-1.0, s_xz=0.0, s_yz=0.0)])
        report = validate(pop)
        assert "negative_sd" in [f.code for f in report.errors]

    def test_rho_mismatch_is_a_warning_not_an_error(self):
        s = make_summary(rho_xy=0.99)  # implied rho is 150/200 = 0.75
        report = validate(combine([s]))
        assert report.ok
        assert [f.code for f in report.warnings] == ["rho_mismatch"]

    def test_consistent_rho_passes_quietly(self):
        s = make_summary(rho_xy=150.0 / (10.0 * 20.0))
        assert validate(combine([s])).findings == ()

    def test_census_stratum_is_not_a_finding(self):
        report = validate(combine([make_summary(N=5, n=5, s_xy=20.0,
                                                s_yz=-10.0, s_xz=-20.0)]))
        assert report.findings == ()


class TestNeymanAllocation:
    def test_fixture_allocation(self, corrected_pop):
        pairs = [(s.N, s.s_y) for s in corrected_pop.strata]
        alloc = neyman_allocation(pairs, 180)
        assert alloc == [31, 20, 29, 38, 23, 39]
        assert sum(alloc) == 180
        assert alloc == naive_largest_remainder(pairs, 180)

    def test_matches_oracle_on_random_inputs(self, rng):
        for _ in range(40):
            L = int(rng.integers(1, 7))
            pairs = [(int(rng.integers(5, 300)), float(rng.uniform(0.5, 50.0)))
                     for _ in range(L)]
            lo, hi = L, sum(N for N, _ in pairs)
            n_total = int(rng.integers(lo, hi + 1))
            alloc = neyman_allocation(pairs, n_total)
            assert sum(alloc) == n_total
            assert all(1 <= n <= N for n, (N, _) in zip(alloc, pairs))

    def test_rounding_stays_within_one_of_raw_shares(self, rng):
        # Without binding caps/floors, largest remainder moves each
        # stratum by strictly less than one unit from its raw share.
        pairs = [(200, 12.0), (150, 30.0), (400, 7.5), (120, 22.0)]
        n_total = 90
        raw = naive_neyman_raw(pairs, n_total)
        alloc = neyman_allocation(pairs, n_total)
        assert all(abs(a - r) < 1.0 for a, r in zip(alloc, raw))

    def test_capacity_cap_redistributes(self):
        assert neyman_allocation([(3, 10.0), (100, 1.0)], 50) == [3, 47]

    def test_floor_of_one_per_stratum(self):
        assert neyman_allocation([(10, 0.0), (10, 5.0)], 5) == [1, 4]

    def test_tie_handling_is_deterministic(self):
        pairs = [(10, 1.0), (10, 1.0)]
        first = neyman_allocation(pairs, 3)
        assert sum(first) == 3
        assert sorted(first) == [1, 2]
        assert neyman_allocation(pairs, 3) == first

    def test_infeasible_totals_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            neyman_allocation([(5, 1.0), (5, 1.0)], 1)
        with pytest.raises(ValueError, match="infeasible"):
            neyman_allocation([(5, 1.0), (5, 1.0)], 11)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            neyman_allocation([], 5)
        with pytest.raises(ValueError):
            neyman_allocation([(5, -1.0)], 2)
        with pytest.raises(ValueError):
            neyman_allocation([(5, 0.0), (5, 0.0)], 4)


class TestCsvRoundTrip:
    def test_summary_round_trip_preserves_values(self, tmp_path, corrected_pop):
        path = tmp_path / "out.csv"
        write_summary_csv(path, corrected_pop.strata)
        back = read_summary_csv(path)
        assert list(back) == list(corrected_pop.strata)

    def test_fixture_file_round_trips_byte_identically(self, tmp_path):
        src = demo_path(corrected=True)
        strata = read_summary_csv(src)
        dst = tmp_path / "again.csv"
        write_summary_csv(dst, strata)
        assert dst.read_bytes() == src.read_bytes()

    def test_rho_columns_written_only_when_present(self, tmp_path):
        bare = make_summary()
        path = tmp_path / "bare.csv"
        write_summary_csv(path, [bare])
        header = path.read_text().splitlines()[0]
        assert "rho_xy" not in header
        with_rho = make_summary(rho_xy=0.75)
        path2 = tmp_path / "rho.csv"
        write_summary_csv(path2, [with_rho])
        header2 = path2.read_text().splitlines()[0]
        assert "rho_xy" in header2
        assert read_summary_csv(path2)[0].rho_xy == 0.75

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("stratum_id,N,n\na,5,2\n")
        with pytest.raises(ValueError):
            read_summary_csv(path)

    def test_units_csv_groups_by_first_appearance(self, tmp_path):
        path = tmp_path / "units.csv"
        path.write_text(
            "stratum_id,y,x,z\n"
            "b,1.0,10.0,100.0\n"
            "a,2.0,20.0,200.0\n"
            "b,3.0,30.0,300.0\n"
            "a,4.0,40.0,400.0\n"
        )
        frames = read_units_csv(path)
        assert [f.stratum_id for f in frames] == ["b", "a"]
        assert tuple(frames[0].y) == (1.0, 3.0)
        assert tuple(frames[1].x) == (20.0, 40.0)

    def test_units_csv_columns_by_name(self, tmp_path):
        # Columns are found by header name, extra columns are ignored and
        # blank lines are skipped.
        path = tmp_path / "units.csv"
        path.write_text(
            "z,note,y,stratum_id,x\n"
            "100.0,first,1.0,b,10.0\n"
            "\n"
            "300.0,,3.0,b,30.0\n"
        )
        frame, = read_units_csv(path)
        assert frame.stratum_id == "b"
        assert tuple(frame.y) == (1.0, 3.0)
        assert tuple(frame.x) == (10.0, 30.0)
        assert tuple(frame.z) == (100.0, 300.0)

    @pytest.mark.parametrize("bad_row", ["a,2.0,20.0", "a,2.0,abc,200.0"])
    def test_units_csv_malformed_row_names_its_line(self, tmp_path, bad_row):
        path = tmp_path / "units.csv"
        path.write_text("stratum_id,y,x,z\na,1.0,10.0,100.0\n"
                        f"{bad_row}\n")
        with pytest.raises(ValueError, match=r"units\.csv:3: malformed row"):
            read_units_csv(path)

    def test_malformed_row_after_blank_lines_names_its_file_line(
            self, tmp_path, corrected_pop):
        units = tmp_path / "units.csv"
        units.write_text("stratum_id,y,x,z\na,1.0,10.0,100.0\n\n\n"
                         "a,2.0,abc,200.0\n")
        with pytest.raises(ValueError, match=r"units\.csv:5: malformed row"):
            read_units_csv(units)
        summary = tmp_path / "summary.csv"
        write_summary_csv(summary, corrected_pop.strata[:1])
        header, row = summary.read_text().splitlines()
        summary.write_text(f"{header}\n{row}\n\n\n{row.replace(',', ',x', 1)}\n")
        with pytest.raises(ValueError, match=r"summary\.csv:5: malformed row"):
            read_summary_csv(summary)

    @pytest.mark.parametrize("text, message", [
        ("", "empty file or missing header"),
        ("stratum_id,y,x\na,1,2\n", r"missing required columns \['z'\]"),
        ("stratum_id,y,x,z\n", "no unit rows"),
    ])
    def test_units_csv_rejects_bad_files(self, tmp_path, text, message):
        path = tmp_path / "units.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_units_csv(path)


class TestDatasets:
    def test_both_variants_ship(self):
        strata_c = demo_strata(corrected=True)
        strata_p = demo_strata(corrected=False)
        assert len(strata_c) == len(strata_p) == 6
        # the two variants differ in exactly one covariance cell
        diffs = [
            (c.stratum_id, field)
            for c, p in zip(strata_c, strata_p)
            for field in ("s_xy", "s_yz", "s_xz")
            if getattr(c, field) != getattr(p, field)
        ]
        assert diffs == [("3", "s_xz")]
