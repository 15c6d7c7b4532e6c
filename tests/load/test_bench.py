"""Tests for load-bench's calibration arithmetic."""

import pytest

from repro.load.bench import DETERMINISM_FRACTION, OVERLOAD_FACTOR, calibrate


class TestCalibrate:
    def test_rates_follow_measured_capacity_not_thread_count(self):
        """Regression: capacity used to be modelled as ``workers / s̄``.

        On a two-core box the serial probe read ~40 req/s and two
        workers closed-loop sustained ~24 req/s; the modelled 80 req/s
        put the "half of capacity" determinism pass at 40 req/s against
        a server that sustains 24, so it could only drop requests.
        """
        serial_rps, measured_rps, workers = 40.0, 24.0, 2
        deadline, determinism_rate, overload_rate = calibrate(
            measured_rps, workers, max_pending=64, arrivals="poisson"
        )
        assert determinism_rate <= 0.5 * measured_rps
        assert determinism_rate < 0.5 * workers * serial_rps
        assert overload_rate == pytest.approx(OVERLOAD_FACTOR * measured_rps)
        # Above a round trip at that concurrency, below a full queue.
        assert workers / measured_rps < deadline < 64 / measured_rps

    def test_deadline_scales_with_measured_time_per_request(self):
        fast, _, _ = calibrate(100.0, 2, max_pending=64, arrivals="poisson")
        slow, _, _ = calibrate(10.0, 2, max_pending=64, arrivals="poisson")
        assert slow == pytest.approx(10 * fast)

    def test_burst_determinism_rate_is_sized_against_the_peak(self):
        _, poisson, _ = calibrate(24.0, 2, max_pending=64, arrivals="poisson")
        _, burst, _ = calibrate(24.0, 2, max_pending=64, arrivals="burst")
        assert poisson == pytest.approx(DETERMINISM_FRACTION * 24.0)
        assert burst < poisson
