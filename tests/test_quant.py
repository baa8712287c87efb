"""Unit and property tests for the dynamic fixed-point quantization package."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.ernet import build_dnernet
from repro.nn.network import Sequential
from repro.quant import (
    QFormat,
    mse,
    optimal_fraction_bits,
    psnr,
    quantization_error,
    simulate_fine_tuning,
)
from repro.quant.fixed import fixed_point_network
from repro.quant.quantize import _optimal_fraction_bits_scalar


class TestQFormat:
    def test_name_and_step(self):
        assert QFormat(6).name == "Q6"
        assert QFormat(4, signed=False).name == "UQ4"
        assert QFormat(3).step == 0.125

    def test_ranges_8bit(self):
        q = QFormat(7, bits=8, signed=True)
        assert q.min_code == -128 and q.max_code == 127
        assert q.max_value == pytest.approx(127 / 128)
        u = QFormat(8, bits=8, signed=False)
        assert u.min_code == 0 and u.max_code == 255

    def test_quantize_clips_and_rounds(self):
        q = QFormat(6, bits=8)
        values = np.array([0.0, 0.01, 1.5, 3.0, -5.0])
        quantized = q.quantize(values)
        assert quantized[0] == 0.0
        assert abs(quantized[1] - 0.01) <= q.step / 2
        assert quantized[3] == pytest.approx(q.max_value)
        assert quantized[4] == pytest.approx(q.min_value)

    def test_parse_round_trip(self):
        assert QFormat.parse("Q5") == QFormat(5)
        assert QFormat.parse("UQ3") == QFormat(3, signed=False)
        with pytest.raises(ValueError):
            QFormat.parse("X3")

    def test_codes_out_of_range_rejected(self):
        q = QFormat(0, bits=8)
        with pytest.raises(ValueError):
            q.codes_to_values(np.array([200]))

    def test_minimum_bits(self):
        with pytest.raises(ValueError):
            QFormat(0, bits=1)

    @settings(max_examples=50, deadline=None)
    @given(
        frac=st.integers(-2, 10),
        values=st.lists(st.floats(-4, 4, allow_nan=False), min_size=1, max_size=50),
    )
    def test_quantization_error_bounded_by_half_lsb_in_range(self, frac, values):
        q = QFormat(frac, bits=8)
        arr = np.clip(np.asarray(values), q.min_value, q.max_value)
        err = np.abs(arr - q.quantize(arr))
        assert np.all(err <= q.step / 2 + 1e-12)

    @settings(max_examples=50, deadline=None)
    @given(codes=st.lists(st.integers(-128, 127), min_size=1, max_size=64))
    def test_code_round_trip_is_exact(self, codes):
        q = QFormat(5, bits=8)
        arr = np.asarray(codes)
        values = q.codes_to_values(arr)
        assert np.array_equal(q.quantize_to_codes(values), arr)


class TestPrecisionSearch:
    def test_small_values_prefer_fine_fractions(self):
        values = np.random.default_rng(0).normal(0, 0.01, 1000)
        fmt = optimal_fraction_bits(values)
        assert fmt.frac >= 10

    def test_large_values_prefer_coarse_fractions(self):
        values = np.random.default_rng(0).normal(0, 10.0, 1000)
        fmt = optimal_fraction_bits(values)
        assert fmt.frac <= 4

    def test_l1_vs_l2_both_supported(self):
        values = np.random.default_rng(1).normal(0, 0.3, 500)
        l1 = optimal_fraction_bits(values, norm="l1")
        l2 = optimal_fraction_bits(values, norm="l2")
        assert abs(l1.frac - l2.frac) <= 2

    def test_chosen_format_minimises_error(self):
        values = np.random.default_rng(2).normal(0, 0.5, 300)
        best = optimal_fraction_bits(values, norm="l2")
        best_err = quantization_error(values, best, norm="l2")
        for frac in range(-2, 12):
            err = quantization_error(values, QFormat(frac), norm="l2")
            assert best_err <= err + 1e-9

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            optimal_fraction_bits(np.array([]))

    def test_bad_norm_rejected(self):
        with pytest.raises(ValueError):
            quantization_error(np.ones(3), QFormat(4), norm="l3")

    def test_vectorized_search_matches_scalar_reference(self):
        # The one-pass search must pick the same format as the original
        # candidate-at-a-time loop on every input — including tie-breaking
        # toward the finer fraction and unusual bit widths / ranges.
        from repro.quant.quantize import _optimal_fraction_bits_scalar

        rng = np.random.default_rng(42)
        for case in range(60):
            scale = 10.0 ** rng.uniform(-4, 3)
            values = rng.normal(0, scale, size=int(rng.integers(1, 300)))
            if case % 3 == 0:
                values = np.abs(values)
            bits = int(rng.choice([4, 7, 8, 12]))
            signed = bool(rng.random() < 0.7)
            norm = "l1" if case % 2 else "l2"
            fast = optimal_fraction_bits(values, bits=bits, signed=signed, norm=norm)
            slow = _optimal_fraction_bits_scalar(
                values, bits=bits, signed=signed, norm=norm
            )
            assert fast == slow, (case, fast, slow)

    def test_vectorized_search_custom_range_and_ties(self):
        from repro.quant.quantize import _optimal_fraction_bits_scalar

        # All-zero input makes every candidate error zero: the tie must
        # break toward the finest fraction of the range in both searches.
        zeros = np.zeros(17)
        custom = range(2, 9)
        fast = optimal_fraction_bits(zeros, search_range=custom)
        assert fast == _optimal_fraction_bits_scalar(zeros, search_range=custom)
        assert fast.frac == 8
        with pytest.raises(ValueError):
            optimal_fraction_bits(np.ones(3), search_range=[])
        with pytest.raises(ValueError):
            optimal_fraction_bits(np.ones(3), norm="l3")


class TestFractionSearchTies:
    """Satellite regression: scalar and vectorized Eq. (4) searches agree on
    every tie shape (all-zero, all-inf and l2-overflow inputs), breaking ties
    toward the larger frac instead of crashing."""

    TIE_FRAC = max(range(-4, 16))  # default search range's largest candidate

    def _both(self, values, norm):
        with np.errstate(over="ignore", invalid="ignore"):
            scalar = _optimal_fraction_bits_scalar(values, norm=norm)
            vectorized = optimal_fraction_bits(values, norm=norm)
        return scalar, vectorized

    @pytest.mark.parametrize("norm", ("l1", "l2"))
    def test_all_zero_values_tie_toward_largest_frac(self, norm):
        scalar, vectorized = self._both(np.zeros(7), norm)
        assert scalar == vectorized == QFormat(frac=self.TIE_FRAC, bits=8, signed=True)

    @pytest.mark.parametrize("norm", ("l1", "l2"))
    def test_infinite_sample_ties_at_infinite_error(self, norm):
        scalar, vectorized = self._both(np.array([np.inf, 1.0]), norm)
        assert scalar == vectorized == QFormat(frac=self.TIE_FRAC, bits=8, signed=True)

    def test_l2_overflow_for_every_candidate_ties(self):
        scalar, vectorized = self._both(np.array([1e300]), "l2")
        assert scalar == vectorized == QFormat(frac=self.TIE_FRAC, bits=8, signed=True)

    def test_ordinary_values_still_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            values = rng.normal(scale=rng.uniform(0.01, 20.0), size=129)
            for norm in ("l1", "l2"):
                scalar, vectorized = self._both(values, norm)
                assert scalar == vectorized


class TestNetworkQuantization:
    def test_quantized_network_output_close_to_float(self, small_image):
        # The served 8-bit program of a float network stays close to it.
        net = build_dnernet(2, 1, 0, seed=13)
        reference = net.forward(small_image)
        quantized = fixed_point_network(net).forward(small_image)
        assert psnr(reference.data, quantized.data, peak=float(np.abs(reference.data).max())) > 25.0

    def test_network_without_convs_rejected(self):
        from repro.nn.layers import ReLU

        with pytest.raises(ValueError):
            fixed_point_network(Sequential([ReLU()]))


class TestFineTuning:
    @pytest.fixture
    def served(self, tiny_ernet):
        return tiny_ernet, fixed_point_network(tiny_ernet)

    def test_finetune_recovers_most_loss(self, served):
        result = simulate_fine_tuning(*served)
        assert result.final_loss_db <= result.initial_loss_db
        assert 0.0 < result.final_loss_db <= 0.3
        assert result.recovered_db >= 0.0

    def test_lower_bits_increase_initial_loss(self, served):
        loss8 = simulate_fine_tuning(*served, bits=8).initial_loss_db
        loss6 = simulate_fine_tuning(*served, bits=6).initial_loss_db
        assert loss6 > loss8

    def test_deterministic_for_fixed_seed(self, served):
        a = simulate_fine_tuning(*served, seed=4)
        b = simulate_fine_tuning(*served, seed=4)
        assert a == b


class TestMetrics:
    def test_psnr_infinite_for_identical(self):
        data = np.random.default_rng(0).random((3, 8, 8))
        assert psnr(data, data) == float("inf")

    def test_psnr_known_value(self):
        reference = np.zeros((1, 10, 10))
        test = np.full((1, 10, 10), 0.1)
        assert psnr(reference, test) == pytest.approx(20.0)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((3, 2)))
