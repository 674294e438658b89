"""Shutter controller, latency and slot arithmetic."""

import numpy as np
import pytest

from shuttervlc.channel import PixelMask
from shuttervlc.framing import (IdKind, IdLookupTable, PACKET_BITS, frame,
                                make_id)
from shuttervlc.modem import ModemConfig, Scheme, demodulate, modulate
from shuttervlc.protocol import (ProtocolError, ProtocolParams,
                                 estimate_latency, packets_per_slot,
                                 run_controller)

TABLE = IdLookupTable([make_id(IdKind.BARKER13, 1),
                       make_id(IdKind.BARKER11_PADDED, 2)])


def test_latency_reference_values():
    # 100x100 pixels, 100 transmitters, 1 us bit time and switching slot
    step1, step2, total = estimate_latency(10_000, 100, 2096, 1e-6, 1e-6)
    assert step1 * 1e3 == pytest.approx(10.0)
    assert step2 * 1e3 == pytest.approx(209.6)
    assert total * 1e3 == pytest.approx(219.6)
    _, _, total = estimate_latency(1_000_000, 100, 2096, 1e-6, 1e-6)
    assert total * 1e3 == pytest.approx(1209.6)


def test_latency_linearity():
    a = estimate_latency(100, 10, 2096, 1e-6, 1e-3)
    b = estimate_latency(200, 20, 2096, 1e-6, 1e-3)
    assert b[0] == pytest.approx(2 * a[0])
    assert b[1] == pytest.approx(2 * a[1])
    for bad in ((0, 1, 1, 1e-6, 1e-3), (1, 1, 1, 1e-6, float("nan")),
                (1, 1, 1, float("inf"), 1e-3)):
        with pytest.raises(ProtocolError):
            estimate_latency(*bad)


@pytest.mark.parametrize("rate,expected", [(500e3, 477), (1e6, 954),
                                           (2e6, 1908)])
def test_packets_per_two_second_slot(rate, expected):
    assert packets_per_slot(rate, 1, 2.0, 2096) == expected


def test_packets_per_slot_floors():
    assert packets_per_slot(2096.0, 1, 1.0, 2096) == 1
    assert packets_per_slot(2095.0, 1, 1.0, 2096) == 0
    with pytest.raises(ProtocolError):
        packets_per_slot(0.0, 1, 1.0, 2096)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_packets_per_slot_rejects_non_finite(bad):
    for args in ((bad, 1, 1.0, 2096), (2e6, 1, bad, 2096)):
        with pytest.raises(ProtocolError):
            packets_per_slot(*args)


class _StubSim:
    """Two-pixel link: transmitter 1 on pixel 0, nothing on pixel 1. With
    `header_chip_error`, the first chip of every header is flipped; with
    `dark`, transmitter 1 is off too."""

    def __init__(self, header_chip_error=False, dark=False):
        self.cfg = ModemConfig(scheme=Scheme.OOK, symbol_rate=10_000,
                               samples_per_symbol=4)
        rng = np.random.default_rng(99)
        tid = make_id(IdKind.BARKER13, 1)
        chunks = [frame(tuple(rng.integers(0, 2, PACKET_BITS - 13)), tid).bits
                  for _ in range(40)]
        self._bits = np.concatenate(chunks)
        if header_chip_error:
            self._bits[::PACKET_BITS] ^= 1
        self._wave = modulate(self._bits, self.cfg)
        self.dark = dark
        self.noise = rng
        self.n_pixels = 2
        self.clock = 0
        self.identification_window_s = 3 * PACKET_BITS / 10_000

    @property
    def sim_time_s(self):
        return self.clock / self.cfg.sample_rate

    def dwell(self, mask: PixelMask, duration_s: float):
        n = int(round(duration_s * self.cfg.sample_rate))
        n = (n // 4) * 4
        sig = self._wave[self.clock:self.clock + n] \
            if 0 in mask.open and not self.dark \
            else np.full(n, self.cfg.dc_bias)
        self.clock += n
        return sig + self.noise.normal(0, 0.02, n)

    def decode(self, samples):
        return demodulate(samples, self.cfg)


def _control(sim, **params):
    return run_controller(sim, ProtocolParams(T_s=0.5, snr_threshold_db=10.0,
                                              **params), TABLE)


def _phase_mask(events, name):
    """(phase, mask) of every event called `name`."""
    return [(e["phase"], e["mask"]) for e in events if e["event"] == name]


def _cycles(events):
    """Discovery scans run: each opens with one noise reference dwell."""
    return sum(e["event"] == "noise_reference_dwell" for e in events)


def test_run_controller_locks_on_signal_pixel():
    result = _control(_StubSim())
    assert result.converged
    assert _cycles(result.events) == 1
    assert result.locked_pixels == frozenset({0})
    assert result.pixel_snr_db[0] >= 10 > result.pixel_snr_db[1]
    assert [e["event"] for e in result.events] == [
        "init", "noise_reference_dwell", "discovery_dwell", "discovery_dwell",
        "discovery_done", "identification_dwell", "locked"]
    assert _phase_mask(result.events, "init") == [("INIT", [1, 1])]
    assert _phase_mask(result.events, "discovery_done") == [
        ("IDENTIFICATION", [1, 0])]
    assert _phase_mask(result.events, "locked") == [("LOCKED", [1, 0])]
    assert result.events[-1]["locked_pixels"] == [0]


def test_run_controller_resets_when_no_pixel_reaches_threshold():
    result = _control(_StubSim(dark=True), retry_budget=2)
    assert not result.converged
    assert _cycles(result.events) == 2
    assert result.locked_pixels == frozenset()
    names = [e["event"] for e in result.events]
    assert names.count("reset") == 2
    assert "identification_dwell" not in names
    assert _phase_mask(result.events, "reset") == [("RESET", [0, 0])] * 2
    assert _phase_mask(result.events, "gave_up") == [("RESET", [0, 0])]
    assert names[-1] == "gave_up"


def test_run_controller_select_target_rejects_other_ids():
    # demanding transmitter 2 (the 11-chip padded ID), which nobody
    # transmits: pixel 0 identifies transmitter 1 bit for bit, yet no lock
    result = _control(_StubSim(), retry_budget=2, select_target=2)
    assert not result.converged
    assert _cycles(result.events) == 2
    assert result.locked_pixels == frozenset()
    assert _phase_mask(result.events, "identification_failed") == [
        ("DISCOVERY", [0, 0])] * 2
    assert result.events[-1]["event"] == "gave_up"
    assert result.events[-1]["mask"] == [0, 0]


def test_run_controller_locks_only_on_bit_exact_headers():
    # every header carries one chip error: detected at score 11, so pixel 0
    # reports transmitter 1, but it never identifies it and never locks
    result = _control(_StubSim(header_chip_error=True), retry_budget=2)
    assert not result.converged
    assert result.locked_pixels == frozenset()
    idents = [e for e in result.events if e["event"] == "identification_dwell"]
    assert [e["detected_ids"] for e in idents] == [[1], [1]]
    assert _phase_mask(result.events, "identification_failed") == [
        ("DISCOVERY", [0, 0])] * 2
    assert result.events[-1]["event"] == "gave_up"
