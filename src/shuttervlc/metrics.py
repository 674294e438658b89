"""Link quality metrics: PER and goodput."""


class MetricsError(ValueError):
    """Raised for inconsistent metric inputs."""


def packet_error_rate(valid: int, expected: int) -> float:
    """Percentage of expected packets not validly detected, from the count
    of valid detections.

    A packet counts as valid by header detection alone; payload bit errors
    do not invalidate it.
    """
    if expected <= 0:
        raise MetricsError("expected packet count must be positive")
    per = 100.0 * (1.0 - valid / expected)
    return float(min(max(per, 0.0), 100.0))


def goodput(ber: float, code_rate: float, symbol_rate: float,
            bits_per_symbol: float) -> float:
    """(1 - BER) * code_rate * symbol_rate * bits_per_symbol, in bits/s."""
    if not (0.0 <= ber <= 1.0):
        raise MetricsError("ber must be in [0, 1]")
    if not (0.0 < code_rate <= 1.0):
        raise MetricsError("code_rate must be in (0, 1]")
    return (1.0 - ber) * code_rate * symbol_rate * bits_per_symbol
