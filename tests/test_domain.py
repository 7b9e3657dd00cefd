"""Unit tests for population summaries, validation, allocation and CSV IO."""

import math
import sys

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

NAN = float("nan")


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

    @pytest.mark.parametrize("y, x, z, message", [
        # shape of y, x and z first, then lengths, emptiness, finiteness
        ([[1.0, 2.0]], (1.0,), (1.0, 2.0), "y must be one-dimensional"),
        (5.0, (1.0,), (1.0,), "y must be one-dimensional"),
        ((1.0, 2.0), (1.0,), [[1.0], [2.0]], "z must be one-dimensional"),
        ((1.0, NAN), (1.0,), (1.0, 2.0), "y, x, z must have identical lengths"),
        ((), (1.0,), (), "y, x, z must have identical lengths"),
        ((), (), (), "unit frame must contain at least one unit"),
        ((1.0, 2.0), (1.0, math.inf), (NAN, 2.0), "stratum u: non-finite values in x"),
        ((1.0, 2.0), (1.0, 2.0), (NAN, 2.0), "stratum u: non-finite values in z"),
    ])
    def test_error_precedence(self, y, x, z, message):
        with pytest.raises(ValueError) as info:
            UnitFrame(stratum_id="u", y=y, x=x, z=z)
        assert str(info.value) == message


    def test_holds_read_only_copies(self):
        # Columns of a (units, 3) block, as generate_population passes
        # them: the frame copies each into its own array, so writing to
        # the block afterwards leaves the frame as it was built.
        block = np.arange(12.0).reshape(4, 3)
        frame = UnitFrame(stratum_id="a", y=block[:, 0], x=block[:, 1],
                          z=block[:, 2])
        block[:] = -1.0
        assert frame.y.tolist() == [0.0, 3.0, 6.0, 9.0]
        assert frame.z.tolist() == [2.0, 5.0, 8.0, 11.0]
        for column in (frame.y, frame.x, frame.z):
            assert column.dtype == float and column.flags.c_contiguous
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        source = np.array([1.0, 2.0])
        copy = UnitFrame(stratum_id="b", y=source, x=source, z=source)
        source[0] = 5.0
        assert copy.y.tolist() == copy.x.tolist() == [1.0, 2.0]


class TestStratumSummary:
    @pytest.mark.parametrize("field, value", [
        ("N", 20.5), ("N", "20"), ("N", True),
        ("n", 5.5), ("n", "5"), ("n", True),
    ])
    def test_count_that_is_not_an_integer_is_rejected(self, field, value):
        with pytest.raises(ValueError,
                           match=f"^{field} must be an integer count$"):
            make_summary(**{field: value})

    @pytest.mark.parametrize("N, n", [(20.0, 5.0),
                                      (np.int64(20), np.int64(5))])
    def test_integral_counts_are_stored_as_int(self, N, n):
        s = make_summary(N=N, n=n)
        assert (s.N, s.n) == (20, 5)
        assert type(s.N) is int and type(s.n) is int


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

    @pytest.mark.parametrize("column", ["s_y", "s_x", "s_z"])
    @pytest.mark.parametrize("value", [1e308, -2e200, 1.35e154])
    def test_a_standard_deviation_whose_square_overflows(self, column, value):
        # Once numpy's overflow warning, then "v200 must be finite" from
        # the moments; now one error naming the stratum and the column,
        # and no warning (RuntimeWarning is an error in this suite).
        strata = [make_summary(stratum_id="a"),
                  make_summary(stratum_id="b", **{column: value})]
        with pytest.raises(ValueError) as info:
            combine(strata)
        assert str(info.value) == (
            f"stratum b: {column}={value} is too large to form a variance: "
            "its square overflows")
        # The largest standard deviation whose square is finite passes.
        edge = math.sqrt(sys.float_info.max)
        pop = combine([make_summary(**{column: edge})])
        assert np.isfinite(pop.cov).all()

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

    def test_arrays_are_read_only(self, tiny_frames):
        pop = combine([summarize_stratum(f, 2) for f in tiny_frames])
        for name in ("means", "cov", "w", "f", "gamma", "g"):
            array = getattr(pop, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

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


class TestFindingMessages:
    """The exact text of every validation finding, in report order."""

    RHO_5 = ("warning", "5", "rho_mismatch",
             "supplied rho_xy=0.989 differs from implied "
             "s_xy/(s_x*s_y)=0.934362 by more than 0.005")
    IMPOSSIBLE_3 = ("error", "3", "impossible_covariance",
                    "implied |rho_xz| > 1: |s_xz|=164900674.56 "
                    "exceeds s_x*s_z=16886612.34502379")
    CRAFTED = [
        ("error", "a", "n_gt_N", "sample size n=9 exceeds population size N=5"),
        ("error", "a", "negative_sd", "negative standard deviation s_x=-2.0"),
        ("error", "a", "impossible_covariance",
         "implied |rho_yz| > 1: |s_yz|=1000.0 exceeds s_y*s_z=50.0"),
        ("warning", "a", "rho_mismatch",
         "supplied rho_yz=0.3 differs from implied "
         "s_yz/(s_y*s_z)=20.000000 by more than 0.005"),
        ("error", "b", "impossible_covariance",
         "implied |rho_xy| > 1: |s_xy|=1500.0 exceeds s_x*s_y=200.0"),
        ("warning", "b", "rho_mismatch",
         "supplied rho_xz=0.1 differs from implied "
         "s_xz/(s_x*s_z)=-0.600000 by more than 0.005"),
        ("error", "c", "negative_sd", "negative standard deviation s_y=-1.0"),
        ("error", "c", "negative_sd", "negative standard deviation s_z=-3.0"),
    ]

    @staticmethod
    def rows(report):
        return [(f.severity, f.stratum_id, f.code, f.message)
                for f in report.findings]

    @staticmethod
    def crafted_pop():
        return combine([
            # negative s_x hides both x pairs (and rho_xy) from the bound
            # checks; |s_yz| exceeds ten times its bound, so no repair
            make_summary(stratum_id="a", N=5, n=9, s_x=-2.0, s_xy=1e6,
                         s_yz=1000.0, rho_xy=0.5, rho_yz=0.3),
            make_summary(stratum_id="b", s_xy=-1500.0, rho_xz=0.1),
            make_summary(stratum_id="c", s_y=-1.0, s_z=-3.0),
        ])

    def test_printed_table(self, printed_pop):
        assert self.rows(validate(printed_pop)) == [self.IMPOSSIBLE_3, self.RHO_5]
        assert self.rows(validate(printed_pop, corrections="auto")) == [
            self.IMPOSSIBLE_3, self.RHO_5,
            ("warning", "3", "decimal_shift",
             "corrected s_xz from 164900674.56 to 16490067.456 "
             "(one decimal shift restores |rho_xz| <= 1)"),
        ]

    def test_corrected_table(self, corrected_pop):
        for corrections in ("off", "auto"):
            report = validate(corrected_pop, corrections=corrections)
            assert self.rows(report) == [self.RHO_5]

    def test_crafted_strata(self):
        pop = self.crafted_pop()
        assert self.rows(validate(pop)) == self.CRAFTED
        auto = validate(pop, corrections="auto")
        assert self.rows(auto) == self.CRAFTED + [
            ("warning", "b", "decimal_shift",
             "corrected s_xy from -1500.0 to -150.0 "
             "(one decimal shift restores |rho_xy| <= 1)"),
        ]
        assert [s.s_xy for s in auto.corrected.strata] == [1e6, -150.0, 150.0]


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
            assert alloc == naive_largest_remainder(pairs, n_total)

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

    def test_empty_stratum_rejected(self):
        # Every stratum gets at least one unit, so N_h = 0 is infeasible
        # whatever n_total is.
        with pytest.raises(ValueError) as info:
            neyman_allocation([(0, 1.0), (5, 1.0)], 2)
        assert str(info.value) == "stratum 1 has N=0; every stratum needs N >= 1"

    @pytest.mark.parametrize("N", [5.9, True, "5"])
    def test_non_integral_stratum_size_rejected(self, N):
        # int() would truncate 5.9 to 5 and allocate [5, 5] without a word.
        with pytest.raises(ValueError) as info:
            neyman_allocation([(N, 1.0), (5, 1.0)], 10)
        assert str(info.value) == f"stratum 1 has N={N!r}; N must be an integer"
        assert neyman_allocation([(5.0, 1.0), (np.int64(5), 1.0)], 10) == [5, 5]

    @pytest.mark.parametrize("n_total", [5.5, True, "5"])
    def test_non_integral_total_rejected(self, n_total):
        with pytest.raises(ValueError) as info:
            neyman_allocation([(5, 1.0), (5, 1.0)], n_total)
        assert str(info.value) == f"n_total must be an integer, got {n_total!r}"
        assert neyman_allocation([(5, 1.0), (5, 1.0)], 6.0) == [3, 3]


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

    def test_summary_rho_cells_past_a_short_row_are_none(self, tmp_path):
        header, row = _SCHEMAS["summary"][1:]
        path = tmp_path / "summary.csv"
        path.write_text(f"{header},rho_xy,rho_yz\n{row},0.5\n{row}\n")
        assert [(s.rho_xy, s.rho_yz, s.rho_xz)
                for s in read_summary_csv(path)] == [(0.5, None, None),
                                                      (None, None, None)]


#: Each CSV schema's reader, header and one well-formed row.
_SCHEMAS = {
    "summary": (read_summary_csv,
                "stratum_id,N,n,mean_y,mean_x,mean_z,s_y,s_x,s_z,s_xy,s_yz,"
                "s_xz",
                "s,20,5,100.0,200.0,50.0,10.0,20.0,5.0,150.0,-30.0,-60.0"),
    "units": (read_units_csv, "stratum_id,y,x,z", "a,1.0,10.0,100.0"),
}


@pytest.mark.parametrize("schema", sorted(_SCHEMAS))
class TestCsvReaders:
    """Both schemas are read by one row reader with the same checks."""

    @pytest.mark.parametrize("bad", ["short", "not a number"])
    def test_malformed_row_names_its_line(self, tmp_path, schema, bad):
        read, header, row = _SCHEMAS[schema]
        cells = row.split(",")
        if bad == "short":
            cells = cells[:3]
            # A short summary row once read None into a required column.
            detail = ("list index out of range" if schema == "units" else
                      "could not convert string to float: ''")
        else:
            cells[3] = "abc"
            detail = "could not convert string to float: 'abc'"
        path = tmp_path / f"{schema}.csv"
        path.write_text(f"{header}\n{row}\n{','.join(cells)}\n")
        with pytest.raises(ValueError) as info:
            read(path)
        assert str(info.value) == f"{path}:3: malformed row: {detail}"

    def test_malformed_row_after_blank_lines_names_its_file_line(
            self, tmp_path, schema):
        read, header, row = _SCHEMAS[schema]
        path = tmp_path / f"{schema}.csv"
        path.write_text(f"{header}\n{row}\n\n\n{row.replace(',', ',x', 1)}\n")
        with pytest.raises(ValueError,
                           match=rf"{schema}\.csv:5: malformed row"):
            read(path)

    @pytest.mark.parametrize("case", ["empty", "missing column", "no rows"])
    def test_rejects_bad_files(self, tmp_path, schema, case):
        read, header, _ = _SCHEMAS[schema]
        head, _, last = header.rpartition(",")
        text, message = {
            "empty": ("", "empty file or missing header"),
            "missing column": (f"{head}\n", f"missing required columns "
                                            f"{[last]}"),
            "no rows": (f"{header}\n\n", "no stratum rows"
                        if schema == "summary" else "no unit rows"),
        }[case]
        path = tmp_path / f"{schema}.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read(path)
        assert str(info.value) == f"{path}: {message}"

    def test_reads_as_dict_reader_does(self, tmp_path, schema):
        # The last of a repeated column name wins, and blank rows are
        # skipped, however many.
        read, header, row = _SCHEMAS[schema]
        column = header.split(",")[1]
        path = tmp_path / f"{schema}.csv"
        path.write_text(f"{header},{column}\n\n{row},30\n\n\n{row},31\n")
        first, *rest = read(path)
        if schema == "units":
            assert (rest, first.y.tolist()) == ([], [30.0, 31.0])
        else:
            assert [first.N, *(s.N for s in rest)] == [30, 31]


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
