"""Calibration: CV, confidence, batched sampling, regression, prediction."""

import json
import math
import operator
import sys
import warnings
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from autotier import calibration
from autotier.calibration import (
    MAX_MEAN_LATENCY_US,
    CalibrationSamples,
    collect_samples,
    compute_confidence,
    estimate_avg_lat,
    regress_latency_curve,
)
from autotier.cli import main
from autotier.engine import run_scenario
from autotier.model import (
    DEFAULT_INJECTED_LATENCIES_US,
    CalibrationFits,
    PolicyWeights,
    validate_scenario,
)
from autotier.scenario import load_bundled_scenario, scenario_to_document

from conftest import compute_cv, make_fits

PLAN = DEFAULT_INJECTED_LATENCIES_US


def linear_probe(m, b, noise_cv=0.0, rng=None, vmdks=1):
    """A probe of ``vmdks`` VMDKs, each answering m * d + b, times 1 + noise_cv * z."""
    def probe(latencies, samples):
        shape = (vmdks, len(latencies), samples)
        values = np.broadcast_to((m * np.asarray(latencies) + b)[:, None], shape).copy()
        if noise_cv:
            values *= 1.0 + noise_cv * rng.standard_normal(shape)
        return values
    return probe


def sample_set(per_latency, vmdk_id="v"):
    """One VMDK's samples from a {injected latency: samples} mapping."""
    return CalibrationSamples(
        (vmdk_id,), tuple(per_latency), np.array([list(per_latency.values())], dtype=float)
    )


def reference_cv(arr):
    """CV the three-pass way: one mean, then ``np.std`` taking its own."""
    return arr.std(axis=-1) / arr.mean(axis=-1)


def reference_regress(samples, floor=0.05):
    """``regress_latency_curve`` with each (VMDK, latency) mean taken three times.

    Once for the CV's denominator, once inside ``np.std`` and once for the fit:
    the one-pass statistics must match it bit for bit.
    """
    latencies = samples.injected_latencies_us
    if len(set(latencies)) < 2:
        raise ValueError("regression needs at least two distinct injected latencies")
    order = np.argsort(latencies, kind="stable")
    xs = np.asarray(latencies)[order]
    cv = reference_cv(samples.values)[:, order]
    means = samples.values.mean(axis=-1)[:, order]
    cv_total = 0.0
    for column in cv.T:
        cv_total = cv_total + column
    mean_cv = cv_total / len(latencies)
    for vmdk_id, row_means, row_cv in zip(samples.vmdk_ids, means, mean_cv):
        if (row_means >= MAX_MEAN_LATENCY_US).any():
            limit = f"the calibration limit of {MAX_MEAN_LATENCY_US} us"
            raise ValueError(f"VMDK {vmdk_id!r}: mean sampled latency reaches {limit}")
        if not math.isfinite(row_cv):
            cause = f"mean CV of its samples is not finite, got {row_cv}"
            raise ValueError(f"VMDK {vmdk_id!r}: {cause}")
    m, b = np.polyfit(xs, means.T, 1)
    return CalibrationFits(m=m, b=b, confidence=compute_confidence(mean_cv, floor), mean_cv=mean_cv)


def outcome(regress, samples):
    """The fit's four columns as bytes, or the message of the ValueError raised."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            fits = regress(samples)
        except ValueError as exc:
            return str(exc)
    return tuple(getattr(fits, name).tobytes() for name in ("m", "b", "confidence", "mean_cv"))


class TestComputeCv:
    def test_constant_samples_have_zero_cv(self):
        assert compute_cv([100.0, 100.0, 100.0]) == 0.0

    def test_hand_computed_population_sigma(self):
        # sigma = 10, mean = 100
        assert compute_cv([90.0, 110.0]) == pytest.approx(0.1, rel=1e-12)

    def test_empty_input_errors(self):
        with pytest.raises(ValueError, match="cannot compute CV of an empty sample list"):
            compute_cv([])
        with pytest.raises(ValueError, match="empty sample list"):
            compute_cv(np.empty((2, 3, 0)))

    def test_zero_mean_errors(self):
        with pytest.raises(ValueError, match="cannot compute CV when the sample mean is 0"):
            compute_cv([0.0, 0.0])
        with pytest.raises(ValueError, match="sample mean is 0"):
            compute_cv([[1.0, 2.0], [-1.0, 1.0]])

    @given(
        hnp.arrays(
            float,
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=12),
            elements=st.floats(min_value=1e-3, max_value=1e290),
        )
    )
    def test_matches_the_three_pass_statistics_bitwise(self, values):
        with np.errstate(over="ignore", invalid="ignore"):
            cv = compute_cv(values)
            from_list = compute_cv(values.tolist())
            expected = reference_cv(values)
        assert np.asarray(cv).tobytes() == np.asarray(expected).tobytes()
        assert np.asarray(from_list).tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("length", [1, 2, 7, 8, 9, 16, 127, 128, 129, 300])
    def test_matches_the_three_pass_statistics_bitwise_at_every_blocking(self, length):
        # numpy's pairwise sum adds eight partial sums at a time and splits
        # past 128 terms: these lengths sit either side of each change.
        rng = np.random.default_rng(length)
        rows = np.stack([
            rng.uniform(1e-3, 1e4, length),
            rng.integers(1, 2 ** 20, length) * 5e-324,  # subnormal samples
            rng.uniform(-1e4, 1e4, length),
            rng.uniform(1e290, 1e300, length),  # the squared deviations overflow
        ])
        subnormal, nan, inf, infinities = (rows[0].copy() for _ in range(4))
        subnormal[::2] = rows[1, ::2]
        nan[rng.integers(length)] = math.nan
        inf[rng.integers(length)] = math.inf
        infinities[0], infinities[-1] = -math.inf, math.inf
        values = np.concatenate([rows, [subnormal, nan, inf, infinities]]).reshape(2, 4, length)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = reference_cv(values)
            assert compute_cv(values).tobytes() == expected.tobytes()
        assert np.isfinite(expected[:, 0]).all() and np.isnan(expected[1, 1:]).all()

    def test_one_cv_per_row(self):
        cv = compute_cv(np.array([[[90.0, 110.0], [100.0, 100.0]]]))
        assert cv.shape == (1, 2)
        assert cv[0, 0] == pytest.approx(0.1, rel=1e-12)
        assert cv[0, 1] == 0.0


class TestComputeConfidence:
    def test_high_cv_floors(self):
        assert compute_confidence(1.2) == 0.05

    def test_cv_maps_linearly(self):
        assert compute_confidence(0.3) == pytest.approx(0.7, rel=1e-12)

    def test_perfect_samples(self):
        assert compute_confidence(0.0) == 1.0

    @given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    def test_confidence_stays_in_floor_one(self, cv):
        conf = compute_confidence(cv)
        assert 0.05 <= conf <= 1.0

    def test_elementwise_over_rows(self):
        conf = compute_confidence(np.array([1.2, 0.3, 0.0, 0.99]), floor=0.05)
        assert conf.tolist() == [0.05, 1.0 - 0.3, 1.0, 0.05]

    def test_negative_mean_cv_errors(self):
        with pytest.raises(ValueError, match="meanCv must be non-negative"):
            compute_confidence(np.array([0.1, -0.1]))


class TestCollectSamples:
    def test_noiseless_linear_truth(self):
        samples = collect_samples(["v"], linear_probe(1.0, 200.0), [0.0, 1000.0], 3)
        assert samples.values[0, 1].tolist() == [1200.0, 1200.0, 1200.0]

    def test_plan_cardinality(self):
        samples = collect_samples(["v"], linear_probe(1.0, 100.0), PLAN, 10)
        assert samples.values.shape == (1, 5, 10)
        assert samples.injected_latencies_us == PLAN
        assert samples.sample_count == 50

    def test_sample_count_covers_every_vmdk(self):
        samples = collect_samples(["a", "b", "c"], linear_probe(1.0, 100.0, vmdks=3), PLAN, 10)
        assert samples.vmdk_ids == ("a", "b", "c")
        assert samples.sample_count == 3 * 5 * 10

    def test_fixed_seed_reproduces_samples(self):
        def session(seed):
            rng = np.random.default_rng(seed)
            return collect_samples(["v"], linear_probe(1.0, 100.0, 0.05, rng), PLAN, 10)
        assert session(7).values.tobytes() == session(7).values.tobytes()

    def test_positive_samples_required(self):
        with pytest.raises(ValueError):
            sample_set({0.0: [0.0]})

    def test_a_nan_sample_is_accepted(self):
        samples = sample_set({0.0: [1.0, np.nan], 500.0: [2.0, 3.0]})
        assert np.isnan(samples.values[0, 0, 1])

    def test_a_negative_zero_sample_is_refused(self):
        with pytest.raises(ValueError, match="non-positive sample for injected latency 500.0"):
            sample_set({0.0: [1.0, 2.0], 500.0: [3.0, -0.0]})

    def test_the_first_bad_latency_in_plan_order_is_named(self):
        # Row 0 goes wrong at the 4th latency only, row 1 at the 2nd and 4th,
        # next to a NaN at the 1st: the error names the 2nd.
        plan = (0.0, 100.0, 200.0, 300.0)
        values = np.full((2, 4, 3), 50.0)
        values[0, 3, 1] = -1.0
        values[1, 1, 2] = 0.0
        values[1, 3, 0] = -2.0
        values[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-positive sample for injected latency 100.0"):
            CalibrationSamples(("a", "b"), plan, values)

    @pytest.mark.parametrize("shape", [(1, 2, 3), (2, 3, 3)])
    def test_the_grid_must_match_its_labels(self, shape):
        message = r"sample values must be shaped \(VMDKs, injected latencies, samples\)"
        with pytest.raises(ValueError, match=message):
            CalibrationSamples(("a", "b"), (0.0, 500.0), np.ones(shape))

    def test_checks_name_the_injected_latency(self):
        with pytest.raises(ValueError, match="non-positive sample for injected latency 500.0"):
            sample_set({0.0: [1.0, 2.0], 500.0: [3.0, -1.0]})
        with pytest.raises(ValueError, match="no samples for injected latency 0.0"):
            CalibrationSamples(("v",), (0.0, 500.0), np.empty((1, 2, 0)))
        with pytest.raises(ValueError, match="at least one injected latency"):
            CalibrationSamples(("v",), (), np.empty((1, 0, 3)))


def test_records_compare_and_hash_by_identity():
    # Array fields give a generated __eq__ no single truth value, so a record
    # equals itself alone; equal twins still compare, unequal, without raising.
    fits = [CalibrationFits(*(np.full(2, 0.5),) * 4) for _ in range(2)]
    samples = [sample_set({0.0: [1.0, 2.0], 500.0: [3.0, 4.0]}) for _ in range(2)]
    for first, second in (fits, samples):
        assert first == first and second == second
        assert first != second and not first == second
        assert hash(first) == hash(first) and hash(first) != hash(second)


class TestRegression:
    def test_noiseless_points_recover_line(self):
        samples = sample_set({0.0: [200.0], 1000.0: [1200.0], 2000.0: [2200.0]})
        rec = regress_latency_curve(samples)
        assert rec.m[0] == pytest.approx(1.0, rel=1e-9)
        assert rec.b[0] == pytest.approx(200.0, rel=1e-9)
        assert rec.confidence[0] == 1.0

    def test_single_latency_is_singular(self):
        with pytest.raises(ValueError, match="two distinct"):
            regress_latency_curve(sample_set({500.0: [100.0, 101.0]}))

    def test_mean_cv_averages_per_latency_cvs(self):
        samples = sample_set({0.0: [90.0, 110.0], 1000.0: [1000.0, 1000.0]})
        rec = regress_latency_curve(samples)
        assert rec.mean_cv[0] == pytest.approx(0.05, rel=1e-12)
        assert rec.confidence[0] == pytest.approx(0.95, rel=1e-12)

    # Eight or more latencies are where numpy may add a contiguous axis pairwise.
    @pytest.mark.parametrize("count", [2, 5, 8, 9, 16])
    def test_mean_cv_adds_in_plan_order_from_the_first_latency(self, count):
        # The lowest latency's samples are constant, so its CV is +0.0 and the
        # sum starts there, after the latencies are sorted, not where drawn.
        plan = PLAN if count == len(PLAN) else tuple(100.0 * (i + 1) for i in range(count))
        values = np.random.default_rng(7).uniform(50.0, 5000.0, size=(64, count, 4))
        values[:, 0] = values[:, 0, :1]
        drawn = [2, 3, 0, 4, 1] if count == len(PLAN) else list(reversed(range(count)))
        ids = tuple(f"v{i}" for i in range(len(values)))
        samples = CalibrationSamples(ids, tuple(plan[i] for i in drawn), values[:, drawn])
        cv = compute_cv(values)
        assert cv[:, 0].tobytes() == bytes(8 * len(values))
        sums = [reduce(operator.add, row, 0.0) for row in cv.tolist()]
        fits = regress_latency_curve(samples)
        assert fits.mean_cv.tobytes() == (np.array(sums) / count).tobytes()
        assert outcome(regress_latency_curve, samples) == outcome(reference_regress, samples)
        as_drawn = [reduce(operator.add, row, 0.0) for row in cv[:, drawn].tolist()]
        # The order of the terms moves some last bits; two terms add alike either way.
        assert (as_drawn != sums) == (count > 2)

    def test_statistical_recovery_of_slope(self):
        # truth m=2, b=150 with 5% multiplicative noise; >=95% of seeds within +-10%
        hits = 0
        seeds = 120
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            samples = collect_samples(["v"], linear_probe(2.0, 150.0, 0.05, rng), PLAN, 10)
            rec = regress_latency_curve(samples)
            if abs(rec.m[0] - 2.0) <= 0.2:
                hits += 1
        assert hits >= 0.95 * seeds

    @given(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=5000.0, allow_nan=False),
    )
    def test_noiseless_recovery_property(self, m, b):
        samples = collect_samples(["v"], linear_probe(m, b), PLAN, 2)
        rec = regress_latency_curve(samples)
        assert rec.m[0] == pytest.approx(m, rel=1e-9, abs=1e-9)
        assert rec.b[0] == pytest.approx(b, rel=1e-9)

    def test_latency_axis_is_fitted_in_ascending_order(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(50.0, 5000.0, size=(4, 5, 3))
        shuffled = [3, 0, 4, 1, 2]
        plan = tuple(PLAN[i] for i in shuffled)
        ascending = regress_latency_curve(CalibrationSamples(tuple("abcd"), PLAN, values))
        as_drawn = regress_latency_curve(
            CalibrationSamples(tuple("abcd"), plan, values[:, shuffled, :])
        )
        for name in ("m", "b", "confidence", "mean_cv"):
            assert getattr(as_drawn, name).tobytes() == getattr(ascending, name).tobytes()

    @given(
        hnp.arrays(
            float,
            st.tuples(st.integers(1, 12), st.just(len(PLAN)), st.integers(1, 6)),
            elements=st.floats(min_value=1e-3, max_value=1e7, allow_nan=False),
        )
    )
    def test_rows_are_independent(self, values):
        ids = tuple(f"v{i}" for i in range(len(values)))
        together = regress_latency_curve(CalibrationSamples(ids, PLAN, values))
        for i, vmdk_id in enumerate(ids):
            alone = regress_latency_curve(CalibrationSamples((vmdk_id,), PLAN, values[i:i + 1]))
            for name in ("m", "b", "confidence", "mean_cv"):
                assert getattr(together, name)[i:i + 1].tobytes() == getattr(alone, name).tobytes()

    @given(
        hnp.arrays(
            float,
            st.tuples(st.integers(1, 4), st.just(len(PLAN)), st.integers(1, 12)),
            elements=st.floats(min_value=1e-3, max_value=1e290),
        ),
        st.permutations(PLAN),
    )
    def test_matches_the_three_pass_reference_bitwise(self, values, plan):
        # Up to 1e290 the squared deviations overflow to inf, and with them
        # the CVs and the mean CV: both sides must then refuse the fit alike.
        ids = tuple(f"v{i}" for i in range(len(values)))
        samples = CalibrationSamples(ids, tuple(plan), values)
        assert outcome(regress_latency_curve, samples) == outcome(reference_regress, samples)

    def huge_next_to_normal(self, scale):
        """A normal row and a row whose per-latency means are (1..5) * ``scale``.

        Samples of the huge row repeat within each latency and ``scale`` is a
        power of two, so its CVs are exactly 0 and its means exact.
        """
        normal = np.random.default_rng(1).uniform(50.0, 5000.0, size=(len(PLAN), 3))
        huge = np.broadcast_to((np.arange(len(PLAN)) + 1.0)[:, None] * scale, (len(PLAN), 3))
        return CalibrationSamples(("huge", "normal"), PLAN, np.stack([huge, normal]))

    def test_mean_at_the_limit_fails_naming_the_vmdk(self):
        # means up to 5 * 2**980 ~ 5e295 us: the shared solve would rescale
        # and move the normal row's fit by an ulp
        with pytest.raises(ValueError, match="VMDK 'huge': mean sampled latency .* 1e\\+290 us"):
            regress_latency_curve(self.huge_next_to_normal(2.0 ** 980))

    def test_means_below_the_limit_keep_rows_independent(self):
        samples = self.huge_next_to_normal(2.0 ** 960)  # means up to ~4.9e289 us
        together = regress_latency_curve(samples)
        alone = regress_latency_curve(
            CalibrationSamples(("normal",), PLAN, samples.values[1:])
        )
        for name in ("m", "b", "confidence", "mean_cv"):
            assert getattr(together, name)[1:].tobytes() == getattr(alone, name).tobytes()

    def run_tiny_oracle(self, *edit):
        """An AutoTiering run of ``tiny-oracle`` with one document field set: (keys..., value)."""
        doc = scenario_to_document(load_bundled_scenario("tiny-oracle"))
        node = doc
        for key in edit[:-2]:
            node = node[key]
        node[edit[-2]] = edit[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            run_scenario(validate_scenario(doc), "autotiering")

    def test_overflowing_truth_fails_on_mean_cv(self):
        # means near 4e155 us stay below the limit, but their squared
        # deviations overflow: the CV is inf
        with pytest.raises(ValueError, match="^VMDK 'db': mean CV of its samples .* got inf$"):
            self.run_tiny_oracle("vmdks", 0, "truthSlope", 1e152)

    def test_truth_past_the_limit_fails_naming_the_vmdk(self):
        with pytest.raises(ValueError, match="^VMDK 'db': mean sampled latency reaches the"):
            self.run_tiny_oracle("vmdks", 0, "truthSlope", 1e300)

    def test_truth_past_the_limit_is_refused_without_a_warning(self, tmp_path, capsys):
        # The squared deviations overflow; the named refusal is all the CLI prints.
        doc = scenario_to_document(load_bundled_scenario("table3-table4"))
        doc["vmdks"][0]["truthSlope"] = 1e300
        path = tmp_path / "huge-truth.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--scenario", str(path), "--policy", "autotiering",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: VMDK 'basic-verify': mean sampled latency reaches the calibration limit "
            "of 1e+290 us\n"
        )

    def test_overflowing_noise_names_the_first_vmdk_in_id_order(self):
        with pytest.raises(ValueError, match="^VMDK 'archive': mean CV of its samples is not"):
            self.run_tiny_oracle("simulation", "noiseCv", 1e160)

    def test_a_nan_sample_names_its_vmdk_for_its_mean_cv(self):
        # A NaN sample passes the sample checks; the fit refuses its row by name.
        values = np.random.default_rng(2).uniform(50.0, 5000.0, size=(3, len(PLAN), 3))
        values[1, 2, 0] = math.nan
        samples = CalibrationSamples(("a", "b", "c"), PLAN, values)
        refusal = "^VMDK 'b': mean CV of its samples is not finite, got nan$"
        with pytest.raises(ValueError, match=refusal):
            regress_latency_curve(samples)

    def test_the_first_bad_row_is_named_whatever_its_cause(self):
        huge = self.huge_next_to_normal(2.0 ** 980).values
        spread = np.array([[[1.0, 2.0 ** 600, 1.0]] * len(PLAN)])  # squared deviations overflow
        samples = CalibrationSamples(("a", "b"), PLAN, np.concatenate([spread, huge[:1]]))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="^VMDK 'a': mean CV .* got inf$"):
                regress_latency_curve(samples)
            reordered = CalibrationSamples(("a", "b"), PLAN, samples.values[::-1].copy())
            with pytest.raises(ValueError, match="^VMDK 'a': mean sampled latency reaches"):
                regress_latency_curve(reordered)


def fit_with_warnings(regress, samples):
    """The fit's four columns as bytes and the categories of the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fits = regress(samples)
    columns = tuple(getattr(fits, name).tobytes() for name in ("m", "b", "confidence", "mean_cv"))
    return columns, [w.category for w in caught]


class TestFitPlan:
    """``regress_latency_curve`` fits through a cached plan; ``np.polyfit`` is the reference."""

    PERMUTED = tuple(PLAN[i] for i in (3, 0, 4, 1, 2))
    NEGATIVE_ZERO = (-0.0,) + PLAN[1:]
    CLOSE = (1.0, float(np.nextafter(1.0, np.inf)))  # rank 1: the cached solve warns itself
    # Some squares underflow in the set-up, but not all of them.
    PARTIAL_UNDERFLOW = ((0.0, 1e-160, 1.0), (0.0, 5e-324, 1000.0))

    def samples(self, plan, seed=3):
        values = np.random.default_rng(seed).uniform(50.0, 5000.0, size=(3, len(plan), 4))
        return CalibrationSamples(("a", "b", "c"), tuple(plan), values)

    def test_alternating_plans_match_polyfit_bitwise_with_its_warnings(self):
        rng = np.random.default_rng(3)
        warned = set()
        for _ in range(3):
            plans = (PLAN, self.PERMUTED, self.NEGATIVE_ZERO, *self.PARTIAL_UNDERFLOW, self.CLOSE)
            for plan in plans:
                values = rng.uniform(50.0, 5000.0, size=(6, len(plan), 4))
                samples = CalibrationSamples(tuple(f"v{i}" for i in range(6)), plan, values)
                got = fit_with_warnings(regress_latency_curve, samples)
                assert got == fit_with_warnings(reference_regress, samples), plan
                if np.exceptions.RankWarning in got[1]:
                    warned.add(plan)
        assert warned == {self.CLOSE}

    def test_the_set_up_ignores_the_callers_error_state(self):
        calibration._fit_plan.cache_clear()
        for plan in self.PARTIAL_UNDERFLOW:
            samples = self.samples(plan)
            expected = outcome(reference_regress, samples)
            with np.errstate(all="raise"):
                assert outcome(regress_latency_curve, samples) == expected

    def test_plans_equal_as_tuples_share_one_entry(self):
        assert calibration._fit_plan(self.NEGATIVE_ZERO) is calibration._fit_plan(PLAN)
        assert calibration._fit_plan(PLAN)[0].tolist() == list(range(len(PLAN)))  # ascending

    # The smallest latency whose square is not 0.0: 2 ** -537.5, rounded up.
    SMALLEST_SQUARED = float.fromhex("0x1.6a09e667f3bcdp-538")
    # The largest latency whose square is finite: the float just below 2 ** 512.
    LARGEST_SQUARED = float.fromhex("0x1.fffffffffffffp+511")
    TINY = st.one_of(
        st.sampled_from((
            0.0, 5e-324, 1e-300, 1e-200, math.nextafter(SMALLEST_SQUARED, 0.0),
            SMALLEST_SQUARED, 2 * SMALLEST_SQUARED,
        )),
        st.floats(0.0, 1e-150),
    )
    LARGE = st.one_of(
        st.sampled_from((
            1e154, 1.4e154, 1e155, 1e300, math.nextafter(LARGEST_SQUARED, 0.0),
            LARGEST_SQUARED, math.nextafter(LARGEST_SQUARED, math.inf), sys.float_info.max,
        )),
        st.floats(1e150, sys.float_info.max),
    )

    @given(
        st.lists(st.one_of(TINY, LARGE, st.floats(0.0, 1e4)), min_size=2, max_size=4, unique=True),
        st.integers(0, 2**32 - 1),
    )
    def test_accepted_plans_fit_as_polyfit_and_refused_plans_are_refused(self, plan, seed):
        # PolicyWeights refuses a plan whose norm is 0.0 or inf; the fit
        # refuses it alike, and takes every other plan as np.polyfit does.
        samples = self.samples(plan, seed)
        try:
            PolicyWeights(injected_latencies_us=tuple(plan))
        except ValueError as refusal:
            with pytest.raises(ValueError) as caught:
                regress_latency_curve(samples)
            assert str(caught.value) == str(refusal)
            return
        assert fit_with_warnings(regress_latency_curve, samples) == (
            fit_with_warnings(reference_regress, samples)
        )

    def test_the_smallest_plans_either_side_of_the_underflow(self):
        below = math.nextafter(self.SMALLEST_SQUARED, 0.0)
        assert below * below == 0.0 < self.SMALLEST_SQUARED * self.SMALLEST_SQUARED
        with pytest.raises(ValueError, match="injectedLatenciesUs too close to 0"):
            PolicyWeights(injected_latencies_us=(0.0, below))
        PolicyWeights(injected_latencies_us=(0.0, self.SMALLEST_SQUARED))

    def test_the_largest_plans_either_side_of_the_overflow(self):
        largest = (0.0, self.LARGEST_SQUARED)
        PolicyWeights(injected_latencies_us=largest)
        samples = self.samples(largest)
        assert fit_with_warnings(regress_latency_curve, samples) == (
            fit_with_warnings(reference_regress, samples)
        )
        above = math.nextafter(self.LARGEST_SQUARED, math.inf)
        assert above * above == math.inf
        refused = (
            (0.0, above),
            (0.0, self.LARGEST_SQUARED, self.LARGEST_SQUARED),  # the sum overflows
            (math.nextafter(self.LARGEST_SQUARED, 0.0), self.LARGEST_SQUARED),  # so does this
            (1e300, math.nextafter(1e300, math.inf)),
            (0.0, 500.0, 1.4e154),
        )
        for plan in refused:
            with pytest.raises(ValueError, match="^injectedLatenciesUs too large: a square"):
                regress_latency_curve(self.samples(plan))
            if len(set(plan)) == len(plan):
                with pytest.raises(ValueError, match="^injectedLatenciesUs too large"):
                    PolicyWeights(injected_latencies_us=plan)

    def test_a_nan_latency_is_refused_as_a_plan(self):
        # A NaN makes the norm NaN; a plan built in Python then ran, and the
        # run died blaming the first VMDK for its NaN mean CV.
        plan = (0.0, math.nan, 500.0)
        refusal = "^injectedLatenciesUs holds NaN, so the fit cannot scale them$"
        with pytest.raises(ValueError, match=refusal):
            PolicyWeights(injected_latencies_us=plan)
        with pytest.raises(ValueError, match=refusal):
            replace(load_bundled_scenario("tiny-oracle").weights, injected_latencies_us=plan)
        with pytest.raises(ValueError, match=refusal):
            regress_latency_curve(self.samples(plan))

    def test_cached_arrays_refuse_writes(self):
        for plan in (self.PERMUTED, self.CLOSE):
            for array in calibration._fit_plan(plan)[:3]:
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0


class TestEstimateAvgLat:
    def rec(self, m, b):
        return make_fits([(m, b, 1.0)])

    def test_direct_formula(self):
        lat = estimate_avg_lat(self.rec(2.0, 100.0), [0], np.array([20.0, 50.0]))
        assert lat[1, 0] == pytest.approx(160.0, rel=1e-12)

    def test_current_tier_returns_intercept_exactly(self):
        assert estimate_avg_lat(self.rec(2.0, 123.456), [0], np.array([20.0]))[0, 0] == 123.456

    def test_faster_target_can_go_negative(self):
        lat = estimate_avg_lat(self.rec(1.0, 500.0), [1], np.array([500.0, 2500.0]))
        assert lat[0, 0] == pytest.approx(-1500.0, rel=1e-12)

    def test_negative_raw_slope_is_clamped_for_prediction(self):
        lat = estimate_avg_lat(self.rec(-0.5, 300.0), [0], np.array([100.0, 800.0]))
        assert lat[1, 0] == 300.0

    @given(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    def test_monotone_in_target_latency(self, m):
        rec = self.rec(m, 50.0)
        lats = np.array([10.0, 100.0, 1000.0])
        estimates = estimate_avg_lat(rec, [0], lats)[:, 0].tolist()
        assert estimates == sorted(estimates)

    def test_grid_is_tiers_by_vmdks(self):
        fits = make_fits([(0.5, 80.0, 1.0), (2.0, 300.0, 1.0)])
        lats = np.array([10.0, 100.0, 1000.0])
        grid = estimate_avg_lat(fits, [2, 0], lats)
        assert grid.shape == (3, 2)
        assert grid[:, 0].tolist() == [0.5 * (10.0 - 1000.0) + 80.0, 0.5 * (100.0 - 1000.0) + 80.0, 80.0]
        assert grid[:, 1].tolist() == [300.0, 2.0 * (100.0 - 10.0) + 300.0, 2.0 * (1000.0 - 10.0) + 300.0]
