"""Unit tests for the weighted relative moment functionals."""

import dataclasses
import json

import numpy as np
import pytest

from oracles import (
    MOMENT_KEYS,
    make_random_population,
    naive_dual_moments,
    naive_moments,
)
from stratdual import (
    DualMomentSet,
    MomentSet,
    combine,
    compute_dual_moments,
    compute_moments,
    moments_from_dict,
    moments_to_json,
    summarize_stratum,
)
from test_domain import make_summary


class TestComputeMoments:
    def test_matches_loop_oracle_on_fixture(self, corrected_pop, corrected_m):
        want = naive_moments(corrected_pop)
        for key in MOMENT_KEYS:
            assert getattr(corrected_m, key) == pytest.approx(
                want[key], rel=1e-13)

    def test_matches_loop_oracle_randomized(self, rng):
        for _ in range(30):
            frames, designs = make_random_population(rng)
            pop = combine([summarize_stratum(f, n)
                           for f, n in zip(frames, designs)])
            m = compute_moments(pop)
            want = naive_moments(pop)
            for key in MOMENT_KEYS:
                assert getattr(m, key) == pytest.approx(want[key], rel=1e-12)

    def test_zero_means_rejected(self):
        pop = combine([make_summary(mean_z=0.0)])
        with pytest.raises(ValueError, match="mean"):
            compute_moments(pop)

    def test_diagonals_nonnegative_enforced(self):
        with pytest.raises(ValueError):
            MomentSet(v200=-1e-3, v020=0.01, v002=0.01,
                      v110=0.0, v101=0.0, v011=0.0)

    def test_census_stratum_contributes_nothing(self):
        # gamma = 0 under census, so the stratum adds no variability.
        census = make_summary(stratum_id="c", N=5, n=5, s_xy=20.0,
                              s_yz=-10.0, s_xz=-20.0)
        other = make_summary(stratum_id="o")
        m_both = compute_moments(combine([census, other]))
        # replacing the census stratum's spreads changes nothing
        noisy = dataclasses.replace(census, s_y=999.0, s_x=999.0, s_z=999.0,
                                    s_xy=0.0, s_yz=0.0, s_xz=0.0)
        m_noisy = compute_moments(combine([noisy, other]))
        for key in MOMENT_KEYS:
            assert getattr(m_both, key) == getattr(m_noisy, key)


def written_out_moments(pop):
    """The unprimed and dual sets as six separate sums each.

    Per-field arrays are rebuilt from the stratum summaries, and every
    moment is its own expression: the form the kernel replaced, which
    it must reproduce bit for bit.
    """
    s_y, s_x, s_z, s_xy, s_yz, s_xz = (
        np.array([getattr(s, name) for s in pop.strata], dtype=float)
        for name in ("s_y", "s_x", "s_z", "s_xy", "s_yz", "s_xz"))
    ybar, xbar, zbar = pop.mean_y, pop.mean_x, pop.mean_z
    w2g = pop.w**2 * pop.gamma
    v200 = float(w2g @ s_y**2 / ybar**2)
    m = dict(
        v200=v200,
        v020=float(w2g @ s_x**2 / xbar**2),
        v002=float(w2g @ s_z**2 / zbar**2),
        v110=float(w2g @ s_xy / (xbar * ybar)),
        v101=float(w2g @ s_yz / (ybar * zbar)),
        v011=float(w2g @ s_xz / (xbar * zbar)),
    )
    if pop.has_census_stratum:
        return m, None
    g = pop.g
    md = dict(
        v200=v200,
        v020=float(w2g * g**2 @ s_x**2 / xbar**2),
        v002=float(w2g * g**2 @ s_z**2 / zbar**2),
        v110=float(-(w2g * g) @ s_xy / (xbar * ybar)),
        v101=float(-(w2g * g) @ s_yz / (ybar * zbar)),
        v011=float(w2g * g**2 @ s_xz / (xbar * zbar)),
    )
    return m, md


class TestMomentKernel:
    """One kernel computes both sets with the written-out sums' bits."""

    def assert_bit_equal(self, pop):
        want_m, want_md = written_out_moments(pop)
        assert compute_moments(pop).as_dict() == want_m
        if want_md is not None:
            assert compute_dual_moments(pop).as_dict() == {**want_md, "dual": True}

    @pytest.mark.parametrize("which", ["corrected_pop", "printed_pop"])
    def test_bundled_tables(self, which, request):
        self.assert_bit_equal(request.getfixturevalue(which))

    def test_random_populations(self, rng):
        for _ in range(30):
            frames, designs = make_random_population(rng, max_strata=8)
            self.assert_bit_equal(combine([summarize_stratum(f, n)
                                           for f, n in zip(frames, designs)]))


class TestComputeDualMoments:
    def test_matches_loop_oracle_on_fixture(self, corrected_pop, corrected_md):
        want = naive_dual_moments(corrected_pop)
        for key in MOMENT_KEYS:
            assert getattr(corrected_md, key) == pytest.approx(
                want[key], rel=1e-13)

    def test_matches_loop_oracle_randomized(self, rng):
        for _ in range(30):
            frames, designs = make_random_population(rng)
            pop = combine([summarize_stratum(f, n)
                           for f, n in zip(frames, designs)])
            md = compute_dual_moments(pop)
            want = naive_dual_moments(pop)
            for key in MOMENT_KEYS:
                assert getattr(md, key) == pytest.approx(want[key], rel=1e-12)

    def test_v200_bit_equal_to_unprimed(self, corrected_m, corrected_md):
        assert corrected_md.v200 == corrected_m.v200

    def test_census_rejected(self):
        pop = combine([make_summary(N=5, n=5, s_xy=20.0, s_yz=-10.0,
                                    s_xz=-20.0)])
        with pytest.raises(ValueError, match="census"):
            compute_dual_moments(pop)

    def test_equal_sampling_fractions_scale_unprimed_moments(self):
        # With one shared g across strata the dual set factorizes:
        # v'_rst = (-g)^(s+t) v_rst.
        strata = [
            make_summary(stratum_id="a", N=40, n=4),
            make_summary(stratum_id="b", N=80, n=8, mean_y=120.0,
                         s_xy=120.0, s_yz=-20.0, s_xz=-50.0),
        ]
        pop = combine(strata)
        m = compute_moments(pop)
        md = compute_dual_moments(pop)
        g = 4 / (40 - 4)
        assert md.v200 == m.v200
        assert md.v110 == pytest.approx(-g * m.v110, rel=1e-12)
        assert md.v101 == pytest.approx(-g * m.v101, rel=1e-12)
        assert md.v020 == pytest.approx(g**2 * m.v020, rel=1e-12)
        assert md.v002 == pytest.approx(g**2 * m.v002, rel=1e-12)
        assert md.v011 == pytest.approx(g**2 * m.v011, rel=1e-12)

    def test_moment_numerators_are_additive_over_strata(self, rng):
        # Un-normalizing removes the global weights; the raw sums then
        # add across any split of the strata.
        while True:
            frames, designs = make_random_population(rng, max_strata=5)
            if len(frames) >= 2:
                break
        strata = [summarize_stratum(f, n) for f, n in zip(frames, designs)]
        k = len(strata) // 2

        def raw_sums(sub):
            pop = combine(sub)
            m = compute_moments(pop)
            Y, X, Z = pop.mean_y, pop.mean_x, pop.mean_z
            N = pop.N
            return {
                "v200": m.v200 * N**2 * Y**2,
                "v020": m.v020 * N**2 * X**2,
                "v002": m.v002 * N**2 * Z**2,
                "v110": m.v110 * N**2 * X * Y,
                "v101": m.v101 * N**2 * Y * Z,
                "v011": m.v011 * N**2 * X * Z,
            }

        left = raw_sums(strata[:k])
        right = raw_sums(strata[k:])
        full = raw_sums(strata)
        for key in MOMENT_KEYS:
            assert left[key] + right[key] == pytest.approx(full[key], rel=1e-12)

    def test_scaling_s_y_scales_y_moments_only(self, corrected_pop, corrected_m):
        c = 3.0
        scaled = [
            dataclasses.replace(s, s_y=c * s.s_y, s_xy=c * s.s_xy,
                                s_yz=c * s.s_yz)
            for s in corrected_pop.strata
        ]
        m2 = compute_moments(combine(scaled))
        assert m2.v200 == pytest.approx(c**2 * corrected_m.v200, rel=1e-12)
        assert m2.v110 == pytest.approx(c * corrected_m.v110, rel=1e-12)
        assert m2.v101 == pytest.approx(c * corrected_m.v101, rel=1e-12)
        assert m2.v020 == corrected_m.v020
        assert m2.v002 == corrected_m.v002
        assert m2.v011 == corrected_m.v011


class TestMomentSerialization:
    def test_as_dict_marks_dual_sets(self, corrected_m, corrected_md):
        assert "dual" not in corrected_m.as_dict()
        assert corrected_md.as_dict()["dual"] is True

    def test_json_document_round_trips(self, corrected_pop, corrected_m,
                                       corrected_md):
        text = moments_to_json(
            corrected_m, corrected_md,
            {"mean_y": corrected_pop.mean_y, "mean_x": corrected_pop.mean_x,
             "mean_z": corrected_pop.mean_z})
        doc = json.loads(text)
        assert set(doc) == {"moments", "dual_moments", "mean_y", "mean_x",
                            "mean_z"}
        m2, md2, means = moments_from_dict(doc)
        assert m2 == corrected_m
        assert md2 == corrected_md
        assert means["mean_y"] == corrected_pop.mean_y

    def test_unprimed_only_document_accepted(self, corrected_m):
        doc = json.loads(moments_to_json(corrected_m))
        m2, md2, means = moments_from_dict(doc)
        assert m2 == corrected_m
        assert md2 is None

    def test_bare_flat_object_accepted(self, corrected_m):
        m2, md2, _ = moments_from_dict(corrected_m.as_dict())
        assert m2 == corrected_m
        assert md2 is None

    @pytest.mark.parametrize("where", ["moments", "dual_moments", "mean"])
    @pytest.mark.parametrize("bad", [None, True, False, "1.5", [1.0], {}])
    def test_value_that_is_not_a_json_number_is_rejected(
            self, corrected_pop, corrected_m, corrected_md, where, bad):
        doc = json.loads(moments_to_json(
            corrected_m, corrected_md, {"mean_y": corrected_pop.mean_y}))
        if where == "mean":
            doc["mean_y"], key = bad, "mean_y"
        else:
            doc[where]["v011"], key = bad, "v011"
        with pytest.raises(ValueError,
                           match=f"moments key '{key}' must be a JSON number"):
            moments_from_dict(doc)

    def test_bare_dual_object_rejected(self, corrected_md):
        with pytest.raises(ValueError, match="dual"):
            moments_from_dict(corrected_md.as_dict())

    def test_user_supplied_moments_need_no_population(self):
        # Guessed moment values are a legitimate input path; consistency
        # is not enforced at construction.
        guessed = MomentSet(v200=0.01, v020=0.02, v002=0.005,
                            v110=0.012, v101=0.008, v011=0.007)
        assert guessed.v110 == 0.012
        dual_guess = DualMomentSet(v200=0.01, v020=0.001, v002=0.0005,
                                   v110=-0.003, v101=-0.002, v011=0.0006)
        assert dual_guess.as_dict()["dual"] is True

    def test_dual_moment_set_is_a_flagged_moment_set(self):
        values = (0.01, 0.001, 0.0005, -0.003, -0.002, 0.0006)
        md = DualMomentSet(*values)
        assert md == MomentSet(*values, dual=True)
        assert md != MomentSet(*values)
        assert "dual" not in MomentSet(*values).as_dict()
