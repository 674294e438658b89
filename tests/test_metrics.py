"""PER, goodput and the reports a run writes."""

import pytest

from shuttervlc.metrics import MetricsError, goodput, packet_error_rate
from shuttervlc.scenario import bundled_scenario, run_scenario


def test_packet_error_rate_examples():
    # 449 of 477 expected packets detected -> 5.87 %
    assert packet_error_rate(449, 477) == pytest.approx(5.87, abs=0.005)
    assert packet_error_rate(477, 477) == 0.0
    assert packet_error_rate(0, 10) == 100.0
    # detections beyond the expectation clamp at zero
    assert packet_error_rate(12, 10) == 0.0
    with pytest.raises(MetricsError):
        packet_error_rate(1, 0)


def test_goodput_formula():
    assert goodput(0.0, 1.0, 1e6, 1) == 1e6
    assert goodput(0.015, 1 / 3, 2e6, 2) == pytest.approx(1.313333e6, rel=1e-6)
    assert goodput(1.0, 1.0, 1e6, 1) == 0.0
    with pytest.raises(MetricsError):
        goodput(1.5, 1.0, 1e6, 1)
    with pytest.raises(MetricsError):
        goodput(0.1, 0.0, 1e6, 1)


def test_run_report_has_exactly_seven_keys():
    for name in ("table1_type1_case1", "protocol_clean"):
        reports = run_scenario(bundled_scenario(name)).reports
        assert reports
        for rep in reports.values():
            assert sorted(rep) == ["ber", "bits_compared", "goodput_bps",
                                   "packets_detected_valid", "packets_expected",
                                   "per_percent", "snr_db"]
