"""OOK and GMSK modulation/demodulation."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import hilbert
from scipy.special import erfc

import shuttervlc
from shuttervlc.modem import (GMSK_BT, GMSK_CARRIER_CYCLES, GMSK_SPAN,
                              MAX_SAMPLES_PER_SYMBOL, ModemConfig, ModemError,
                              PhaseOffset, Scheme, _gmsk_frequency_pulse,
                              _gmsk_rows, demodulate, gmsk_data_phase,
                              modulate)

OOK = ModemConfig(scheme=Scheme.OOK, symbol_rate=1000, samples_per_symbol=4,
                  modulation_depth=0.5)
GMSK = ModemConfig(scheme=Scheme.GMSK, symbol_rate=1000, samples_per_symbol=8,
                   modulation_depth=0.5)


def test_config_validation():
    with pytest.raises(ModemError):
        ModemConfig(scheme=Scheme.OOK, symbol_rate=0)
    with pytest.raises(ModemError):
        ModemConfig(scheme=Scheme.OOK, symbol_rate=1e3, modulation_depth=0.0)
    # intensity is in units of the DC bias, which a depth above 1 would
    # take below zero
    with pytest.raises(ModemError):
        ModemConfig(scheme=Scheme.OOK, symbol_rate=1e3, modulation_depth=1.5)
    with pytest.raises(TypeError):
        ModemConfig(scheme=Scheme.OOK, symbol_rate=1e3, dc_bias=0.3)
    # an odd GMSK sps would centre the receiver's windows half a sample late
    for sps in (3, 5, 7):
        with pytest.raises(ModemError):
            ModemConfig(scheme=Scheme.GMSK, symbol_rate=1e3,
                        samples_per_symbol=sps)
    assert ModemConfig(scheme=Scheme.OOK, symbol_rate=1e3,
                       samples_per_symbol=5).samples_per_symbol == 5
    with pytest.raises(ModemError):
        ModemConfig(scheme=Scheme.OOK, symbol_rate=1e3, samples_per_symbol=4.5)
    for rate in (float("nan"), float("inf")):
        with pytest.raises(ModemError):
            ModemConfig(scheme=Scheme.OOK, symbol_rate=rate)
    cfg = ModemConfig(scheme=Scheme.OOK, symbol_rate=1e3, samples_per_symbol=4.0)
    assert type(cfg.samples_per_symbol) is int


def test_samples_per_symbol_is_capped_before_any_table(monkeypatch):
    # a config holds a table of its symbol waveforms, so an oversized
    # samples_per_symbol is refused before a pulse or a table is built
    def build(*args):
        raise AssertionError("built a table for a capped samples_per_symbol")

    for name in ("_gmsk_frequency_pulse", "_waveforms"):
        monkeypatch.setattr(shuttervlc.modem, name, build)
    for scheme in Scheme:
        for sps in (MAX_SAMPLES_PER_SYMBOL + 1, 2**27, 2.0**80):
            with pytest.raises(ModemError, match="samples_per_symbol"):
                ModemConfig(scheme=scheme, symbol_rate=1e3,
                            samples_per_symbol=sps)
    monkeypatch.undo()
    for scheme in Scheme:
        cfg = ModemConfig(scheme=scheme, symbol_rate=1e3,
                          samples_per_symbol=MAX_SAMPLES_PER_SYMBOL)
        assert cfg.samples_per_symbol == MAX_SAMPLES_PER_SYMBOL


def test_ook_sample_levels():
    bits = np.array([1, 0, 1, 1, 0])
    block = modulate(bits, OOK)
    assert len(block) == len(bits) * OOK.samples_per_symbol
    expected = np.repeat(np.where(bits == 1, 1.5, 0.5), 4)
    np.testing.assert_allclose(block, expected)


def test_intensity_nonnegative_both_schemes():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, 500)
    for cfg in (OOK, GMSK):
        for off in PhaseOffset:
            s = modulate(bits, cfg, off)
            assert np.all(s >= 0.0)
            assert np.all(s <= cfg.dc_bias + cfg.modulation_depth + 1e-12)


def test_inverted_phase_mirrors_waveform():
    bits = np.array([1, 0, 1, 1, 0, 0, 1])
    for cfg in (OOK, GMSK):
        a = modulate(bits, cfg, PhaseOffset.IN_PHASE)
        b = modulate(bits, cfg, PhaseOffset.INVERTED)
        np.testing.assert_allclose(a + b, 2 * cfg.dc_bias, atol=1e-12)


def test_gmsk_pulse_unit_area_quadrature_oracle():
    # the frequency pulse is a Gaussian (BT-scaled) convolved with a symbol
    # rectangle; its continuous-time area is exactly 1, so the discrete
    # pulse, which integrates one sample period per tap, must sum to 1/1
    for sps in (4, 8, 16):
        cfg = ModemConfig(scheme=Scheme.GMSK, symbol_rate=1e3,
                          samples_per_symbol=sps)
        pulse = _gmsk_frequency_pulse(cfg)
        assert pulse.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pulse >= 0)
        # peak per-sample weight cannot exceed one symbol's share
        assert pulse.max() <= 1.0 / sps + 1e-12


@pytest.mark.parametrize("sps", [4, 8, 16, 1000])
def test_gmsk_pulse_matches_direct_convolution(sps):
    # the pulse is built by a running-sum difference; np.convolve of the
    # Gaussian with an sps-sample rectangle is the reference
    t = np.arange(-GMSK_SPAN * sps / 2, GMSK_SPAN * sps / 2 + 1) / sps
    k = np.sqrt(2 * np.pi / np.log(2)) * GMSK_BT
    gauss = k * np.exp(-2 * (np.pi * GMSK_BT * t) ** 2 / np.log(2))
    pulse = np.convolve(gauss, np.ones(sps))
    cfg = ModemConfig(scheme=Scheme.GMSK, symbol_rate=1e3,
                      samples_per_symbol=sps)
    np.testing.assert_allclose(_gmsk_frequency_pulse(cfg), pulse / pulse.sum(),
                               rtol=0, atol=1e-12)


def test_gmsk_isolated_bit_phase_shift():
    for cfg in (GMSK, ModemConfig(scheme=Scheme.GMSK, symbol_rate=1e3,
                                  samples_per_symbol=4)):
        up = gmsk_data_phase([1], cfg)
        down = gmsk_data_phase([0], cfg)
        assert up[-1] == pytest.approx(math.pi / 2, abs=1e-3)
        assert down[-1] == pytest.approx(-math.pi / 2, abs=1e-3)


def test_gmsk_phase_continuity_bound():
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2, 400)
    phase = gmsk_data_phase(bits, GMSK)
    increments = np.abs(np.diff(phase))
    # per-sample phase step is bounded by the pulse's per-sample peak
    assert increments.max() <= (math.pi / 2) / GMSK.samples_per_symbol * 1.001


def _convolution_phase(bits, cfg):
    """The data phase as a running sum of the frequency pulse at the
    sample rate, tails included (units of pi/2)."""
    sps = cfg.samples_per_symbol
    impulses = np.zeros(len(bits) * sps)
    impulses[::sps] = 2.0 * np.asarray(bits) - 1.0
    return np.cumsum(np.convolve(impulses, _gmsk_frequency_pulse(cfg)))


def _stacked_phase(bits, cfg, first, n_symbols):
    """Unscaled data phase (units of pi/2) at the samples of symbols
    [first, first + n_symbols) of a stream that holds `bits` from symbol 0,
    from the config's phase taps: the integer running sum of the symbols
    whose pulse has passed plus, per sample phase, a short convolution over
    those still in transition, stacked out of place."""
    j0, taps = cfg.gmsk_phase_taps
    lo, hi = first - (j0 + taps.shape[1] - 1), first + n_symbols - j0
    i, j = np.clip((lo, hi), 0, len(bits))
    a = np.pad(2.0 * bits[i:j] - 1.0, (i - lo, hi - j))
    settled = 2 * int(np.count_nonzero(bits[:i])) - i
    run = np.cumsum(a[:n_symbols]) - a[:n_symbols] + settled
    moving = np.stack([np.convolve(a, w, "valid") for w in taps], axis=1)
    return (moving + run[:, None]).ravel()


@pytest.mark.parametrize("sps", [4, 8, 16])
def test_gmsk_phase_matches_convolution_oracle(sps):
    # sample m of a window lies `delay` samples into the running sum, so
    # each symbol's frequency mass is centred in its symbol
    cfg = ModemConfig(scheme=Scheme.GMSK, symbol_rate=1e3,
                      samples_per_symbol=sps)
    delay = (len(_gmsk_frequency_pulse(cfg)) - sps) // 2
    ctx = cfg.context_symbols
    # no bits: the pulse's tails alone, all zero
    assert gmsk_data_phase([], cfg).tobytes() == np.zeros(
        len(_gmsk_frequency_pulse(cfg)) - 1).tobytes()
    rng = np.random.default_rng(300 + sps)
    for _ in range(40):
        n_bits = int(rng.integers(1, 800))
        bits = rng.integers(0, 2, n_bits).astype(np.uint8)
        oracle = _convolution_phase(bits, cfg)
        np.testing.assert_allclose(gmsk_data_phase(bits, cfg),
                                   (np.pi / 2) * oracle, rtol=0, atol=1e-9)
        first = int(rng.integers(0, n_bits))
        windows = [(0, int(rng.integers(1, n_bits + 1))),
                   (first, int(rng.integers(1, n_bits - first + 1)))]
        if n_bits > ctx + 1:
            # ends ctx symbols before the stream does: the bits past it
            # are real, and the window reads only ctx of them
            start = int(rng.integers(0, n_bits - ctx - 1))
            windows.append((start, n_bits - ctx - start))
        for first, n in windows:
            phase = _stacked_phase(bits[:first + n + ctx], cfg, first, n)
            expected = oracle[first * sps + delay:(first + n) * sps + delay]
            np.testing.assert_allclose(phase, expected, rtol=0, atol=1e-9)


def test_gmsk_pulse_is_built_once_per_config(monkeypatch):
    # the config builds the pulse and its phase taps; a window and
    # gmsk_data_phase only read them
    bits = np.random.default_rng(7).integers(0, 2, 200).astype(np.uint8)
    samples, phase = modulate(bits, GMSK), gmsk_data_phase(bits, GMSK)

    def rebuilt(cfg):
        raise AssertionError("GMSK frequency pulse rebuilt after load")

    monkeypatch.setattr(shuttervlc.modem, "_gmsk_frequency_pulse", rebuilt)
    np.testing.assert_array_equal(modulate(bits, GMSK), samples)
    np.testing.assert_array_equal(gmsk_data_phase(bits, GMSK), phase)


def test_ook_roundtrip_noiseless_property():
    rng = np.random.default_rng(100)
    for _ in range(100):
        n = int(rng.integers(1, 2000))
        bits = rng.integers(0, 2, n)
        out = demodulate(modulate(bits, OOK), OOK)
        np.testing.assert_array_equal(out, bits)
        assert out.dtype == np.uint8


@pytest.mark.parametrize("sps", [4, 8, 16])
def test_gmsk_roundtrip_noiseless_property(sps):
    cfg = ModemConfig(scheme=Scheme.GMSK, symbol_rate=1e3,
                      samples_per_symbol=sps)
    rng = np.random.default_rng(200 + sps)
    for n in [1, 2, 3] + [int(m) for m in rng.integers(1, 1500, 50)]:
        bits = rng.integers(0, 2, n)
        for offset in PhaseOffset:
            out = demodulate(modulate(bits, cfg, offset), cfg)
            np.testing.assert_array_equal(out, bits)
            assert out.dtype == np.uint8


def _exact_carrier(bits, cfg, offset, first, n_symbols):
    """The GMSK samples of a window with the subcarrier's phase taken at
    the sample's index within its symbol, so the argument stays small."""
    sps = cfg.samples_per_symbol
    phase = (np.pi / 2.0) * _stacked_phase(bits, cfg, first, n_symbols)
    k = np.arange(first * sps, (first + n_symbols) * sps)
    m = np.cos(phase + 2 * np.pi * GMSK_CARRIER_CYCLES * (k % sps) / sps)
    if offset is PhaseOffset.INVERTED:
        m = -m
    return cfg.dc_bias + cfg.modulation_depth * m


@pytest.mark.parametrize("offset", list(PhaseOffset))
@pytest.mark.parametrize("cfg", [OOK, GMSK], ids=["OOK", "GMSK"])
def test_modulate_matches_out_of_place_expressions(cfg, offset):
    # OOK computes in place and must equal the out-of-place expression bit
    # for bit; GMSK reads each symbol from a table of waveforms, so it must
    # match the exact-carrier expression within 1e-11
    sps = cfg.samples_per_symbol
    bits = np.random.default_rng(11).integers(0, 2, 600).astype(np.uint8)
    for first, n in [(0, 600), (0, 1), (37, 201), (599, 1)]:
        got = modulate(bits, cfg, offset, first, n)
        if cfg.scheme is Scheme.OOK:
            m = np.repeat(2.0 * bits[first:first + n] - 1.0, sps)
            if offset is PhaseOffset.INVERTED:
                m = -m
            expected = cfg.dc_bias + cfg.modulation_depth * m
            assert got.tobytes() == expected.tobytes()
        else:
            np.testing.assert_allclose(
                got, _exact_carrier(bits, cfg, offset, first, n),
                rtol=0, atol=1e-11)


@pytest.mark.parametrize("sps", [4, 8, 16])
def test_gmsk_modulate_matches_exact_carrier(sps):
    # a carrier computed from the absolute sample index rounds worse as the
    # index grows: 5.7e-10 off at 10**6 symbols
    cfg = ModemConfig(scheme=Scheme.GMSK, symbol_rate=1e3,
                      samples_per_symbol=sps)
    bits = np.random.default_rng(400 + sps).integers(
        0, 2, 10**6 + 500).astype(np.uint8)
    # from the stream's start, where the symbols before it are 0; to its
    # end, where the pulses run past the last bit; and 10**6 symbols in
    for first, n in [(0, 300), (10**6 + 200, 300), (10**6, 400)]:
        for offset in PhaseOffset:
            np.testing.assert_allclose(
                modulate(bits, cfg, offset, first, n),
                _exact_carrier(bits, cfg, offset, first, n), rtol=0, atol=1e-11)


@pytest.mark.parametrize("sps", [4, 8, 16])
def test_gmsk_trig_tables_match_libm(sps):
    # numpy's cos and sin may round differently under each SIMD dispatch;
    # the pinned GMSK digests hold on every host only while they equal
    # libm's on each argument GMSK takes them of: every row argument of the
    # config's waveform table, pi/2 (quadrant + sum pattern * taps) plus
    # the subcarrier, and the receiver's mixer phases
    cfg = ModemConfig(scheme=Scheme.GMSK, symbol_rate=1e3,
                      samples_per_symbol=sps)
    taps = cfg.gmsk_phase_taps[1]
    n_taps = taps.shape[1]
    quadrant, pattern = np.divmod(np.arange(4 * 3 ** n_taps), 3 ** n_taps)
    phase = np.zeros((len(quadrant), sps))
    phase += quadrant[:, None]
    for t in range(n_taps):
        phase += (pattern[:, None] // 3 ** t % 3 - 1) * taps[:, t]
    carrier = 2 * np.pi * GMSK_CARRIER_CYCLES / sps * np.arange(sps)
    rows = np.pi / 2 * phase + carrier
    # they are the modulator's: every row of the table, at either phase
    # offset, is the bias plus the signed depth times a row's libm cosine
    cos = np.fromiter(map(math.cos, rows.ravel()), float).reshape(rows.shape)
    for offset, depth in ((PhaseOffset.IN_PHASE, cfg.modulation_depth),
                          (PhaseOffset.INVERTED, -cfg.modulation_depth)):
        expected = cfg.dc_bias + depth * cos
        assert cfg.waveforms[offset].tobytes() == expected.tobytes()
    mixer = 2 * np.pi * GMSK_CARRIER_CYCLES * np.arange(sps) / sps
    for args, ufunc, libm in ((rows, np.cos, math.cos),
                              (mixer, np.cos, math.cos),
                              (mixer, np.sin, math.sin)):
        expected = np.fromiter(map(libm, args.ravel()), float)
        assert ufunc(args).ravel().tobytes() == expected.tobytes()


def test_gmsk_rows_are_bounded_by_the_window():
    # at the samples_per_symbol cap a config holds its two tables of
    # 4 * 3**5 rows of sps samples, little besides, and a window gathers
    # its rows from them: it builds no table of its own
    sps = MAX_SAMPLES_PER_SYMBOL
    tracemalloc.start()
    try:
        cfg = ModemConfig(scheme=Scheme.GMSK, symbol_rate=1e3,
                          samples_per_symbol=sps)
        config_held, config_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        modulate([1, 0, 1], cfg, first=1, n_symbols=1)
        _, window_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = 4 * 3**5 * sps * 8
    assert [w.nbytes for w in cfg.waveforms.values()] == [table, table]
    assert config_held < 2 * table + 100 * sps * 8
    assert config_peak < 3 * table + 100 * sps * 8
    assert window_peak < config_held + 16 * sps * 8



def _rows_by_loop(bits, cfg, first, n_symbols):
    """Each symbol's waveform row, one symbol at a time: the quadrant of
    the sum of 2 b - 1 over the symbols whose pulse has passed, then one
    base-3 digit, 1 + 2 b - 1, per symbol still in transition, with 0 for
    2 b - 1 outside the stream."""
    j0, taps = cfg.gmsk_phase_taps
    n_taps = taps.shape[1]

    def a(s):
        return 2 * int(bits[s]) - 1 if 0 <= s < len(bits) else 0

    rows = []
    for k in range(first, first + n_symbols):
        lo = k - (j0 + n_taps - 1)      # the first symbol in transition
        row = sum(a(s) for s in range(lo)) % 4
        for s in range(lo, lo + n_taps):
            row = 3 * row + a(s) + 1
        rows.append(row)
    return rows


@settings(max_examples=150, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=40),
       data=st.data(), sps=st.sampled_from([4, 8, 16]))
def test_gmsk_rows_match_a_per_symbol_loop(bits, data, sps):
    # windows from bit 0 on, and windows whose last symbols' pulses run
    # past the end of the stream, or the window itself does
    cfg = ModemConfig(scheme=Scheme.GMSK, symbol_rate=1e3,
                      samples_per_symbol=sps)
    bits = np.array(bits, dtype=np.uint8)
    first = data.draw(st.integers(0, len(bits) - 1))
    n_symbols = data.draw(st.integers(1, len(bits) - first + 3))
    rows = _gmsk_rows(bits, cfg, first, n_symbols)
    assert rows.dtype == np.int16
    assert rows.tolist() == _rows_by_loop(bits, cfg, first, n_symbols)

def test_gmsk_inverted_roundtrip():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, 3000)
    block = modulate(bits, GMSK, PhaseOffset.INVERTED)
    # inversion flips the subcarrier sign (a pi carrier phase), which the
    # noncoherent frequency discriminator is insensitive to
    out = demodulate(block, GMSK)
    np.testing.assert_array_equal(out, bits)


def test_ook_fixed_vs_adaptive_threshold():
    bits = np.array([1, 1, 1, 0, 1, 1, 1, 1])   # heavily biased block
    block = modulate(bits, OOK)
    # adaptive (block mean) still separates the two levels
    np.testing.assert_array_equal(demodulate(block, OOK), bits)
    # explicit level at the bias does too
    np.testing.assert_array_equal(demodulate(block, OOK, threshold=1.0), bits)
    # an absurd fixed level slices everything one way
    assert demodulate(block, OOK, threshold=10.0).sum() == 0


def _ook_awgn_ber(sigma: float, n_bits: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, n_bits)
    block = modulate(bits, OOK)
    noisy = block + rng.normal(0, sigma, len(block))
    out = demodulate(noisy, OOK, threshold=OOK.dc_bias)
    return float(np.mean(out != bits))


@pytest.mark.parametrize("sigma", [0.5, 0.4, 1 / 3])
def test_ook_awgn_ber_matches_analytic(sigma):
    # integrate-and-dump over sps samples averages the noise, so
    # BER = Q(depth * sqrt(sps) / sigma)
    arg = OOK.modulation_depth * math.sqrt(OOK.samples_per_symbol) / sigma
    analytic = 0.5 * erfc(arg / math.sqrt(2))
    measured = _ook_awgn_ber(sigma, 100_000, seed=int(sigma * 1000))
    assert analytic / 2 <= measured <= analytic * 2


def test_demodulate_truncates_to_whole_symbols():
    bits = np.array([1, 0, 1])
    block = modulate(bits, OOK)
    ragged = np.concatenate([block, [1.0, 1.0]])
    np.testing.assert_array_equal(demodulate(ragged, OOK), bits)


def test_demodulate_errors():
    with pytest.raises(ModemError):
        demodulate(np.ones(2), OOK)
    with pytest.raises(ModemError):
        modulate([], OOK)


@settings(max_examples=80, deadline=None)
@given(data=st.data(),
       scheme=st.sampled_from(list(Scheme)),
       sps=st.sampled_from([4, 8, 16]),
       offset=st.sampled_from(list(PhaseOffset)),
       n_bits=st.integers(1, 700),
       seed=st.integers(0, 2**32 - 1))
def test_windows_concatenate_to_one_shot_property(data, scheme, sps, offset,
                                                  n_bits, seed):
    cfg = ModemConfig(scheme=scheme, symbol_rate=1e3, samples_per_symbol=sps)
    bits = np.random.default_rng(seed).integers(0, 2, n_bits)
    cuts = sorted(set(data.draw(st.lists(st.integers(1, max(1, n_bits - 1)),
                                         max_size=8)))) if n_bits > 1 else []
    edges = list(zip([0] + cuts, cuts + [n_bits]))
    whole = modulate(bits, cfg, offset)
    parts = [modulate(bits, cfg, offset, a, b - a) for a, b in edges]
    assert np.array_equal(np.concatenate(parts), whole)
    # a window needs only cfg.context_symbols bits past its end
    parts = [modulate(bits[:b + cfg.context_symbols], cfg, offset, a,
                      b - a) for a, b in edges]
    assert np.array_equal(np.concatenate(parts), whole)
    # a window starting anywhere is the one-shot slice, with no window
    # modulated before it
    a = data.draw(st.integers(0, n_bits - 1))
    b = data.draw(st.integers(a + 1, n_bits))
    part = modulate(bits, cfg, offset, a, b - a)
    assert np.array_equal(part, whole[a * sps:b * sps])


def test_window_past_end_of_bits_rejected():
    with pytest.raises(ModemError):
        modulate([1, 0, 1], OOK, first=2, n_symbols=2)
    with pytest.raises(ModemError):
        modulate([1, 0, 1], OOK, first=-1, n_symbols=2)


def _reference_gmsk_phase_steps(x, cfg, nsym):
    """The full-band discriminator: scipy's analytic signal of
    the evenly mirror-padded window, np.unwrap, and the unwrapped phase
    step across each symbol (positive reads as a 1)."""
    sps = cfg.samples_per_symbol
    x = x - x.mean()
    n = len(x)
    pad = min(8 * sps, n - 1)
    padded = np.concatenate([x[pad:0:-1], x, x[-2:-pad - 2:-1]])
    psi = np.unwrap(np.angle(hilbert(padded)))[pad:pad + n]
    psi = psi - 2 * np.pi * GMSK_CARRIER_CYCLES / sps * np.arange(n)
    if n >= 3:
        psi[-1] = 2 * psi[-2] - psi[-3]
    ends = np.minimum(np.arange(1, nsym + 1) * sps, n - 1)
    return psi[ends] - psi[np.arange(nsym) * sps]


@pytest.mark.parametrize("sps", [4, 8, 16])
def test_gmsk_decisions_match_reference_discriminator(sps):
    # The receiver filters before it discriminates, so over the same
    # windows it must make well under the full-band discriminator's errors.
    cfg = ModemConfig(scheme=Scheme.GMSK, symbol_rate=1e3,
                      samples_per_symbol=sps)
    for sigma in (0.1, 0.2):
        errors = reference_errors = 0
        for nsym in (1, 2, 13, 777, 8803, 20000):
            rng = np.random.default_rng([sps, nsym, round(sigma * 100)])
            bits = rng.integers(0, 2, nsym + 20)
            x = modulate(bits, cfg, first=10, n_symbols=nsym)
            x = x + rng.normal(0, sigma, len(x))
            sent = bits[10:10 + nsym]
            errors += np.sum(demodulate(x, cfg) != sent)
            steps = _reference_gmsk_phase_steps(x, cfg, nsym)
            reference_errors += np.sum((steps > 0) != sent)
        assert errors < 0.6 * reference_errors, (sigma, errors,
                                                 reference_errors)


def test_import_leaves_scipy_unloaded():
    src = str(Path(shuttervlc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, shuttervlc; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
