"""Bit <-> intensity-waveform conversion: OOK and GMSK schemes.

Both schemes emit nonnegative intensity samples of the form
dc_bias + modulation_depth * m(t) with m(t) in [-1, 1]. For OOK m(t) is the
NRZ bit level; for GMSK m(t) is a constant-envelope FM waveform riding on a
subcarrier (a real baseband cos(phi) cannot carry the sign of the frequency
deviation, so an intensity channel needs the subcarrier to make the
frequency discriminator work).
"""

import enum
from dataclasses import dataclass

import numpy as np


class ModemError(ValueError):
    """Raised for invalid modem configuration or undecodable input."""


class Scheme(enum.Enum):
    OOK = "OOK"
    GMSK = "GMSK"


class PhaseOffset(enum.Enum):
    IN_PHASE = "IN_PHASE"
    INVERTED = "INVERTED"


@dataclass(frozen=True)
class ModemConfig:
    scheme: Scheme
    symbol_rate: float
    samples_per_symbol: int = 4
    gmsk_bt: float = 0.35
    gmsk_span: int = 4              # Gaussian pulse span in symbols
    gmsk_carrier_cycles: float = 1.0  # subcarrier cycles per symbol
    dc_bias: float = 1.0
    modulation_depth: float = 0.5

    def __post_init__(self):
        if self.symbol_rate <= 0:
            raise ModemError("symbol_rate must be positive")
        if self.samples_per_symbol < 2:
            raise ModemError("samples_per_symbol must be >= 2")
        if not (0 < self.modulation_depth <= 1):
            raise ModemError("modulation_depth must be in (0, 1]")
        if self.dc_bias < self.modulation_depth:
            raise ModemError("dc_bias must cover modulation_depth "
                             "(intensity must stay nonnegative)")
        if self.scheme is Scheme.GMSK:
            if self.samples_per_symbol < 4:
                raise ModemError("GMSK needs samples_per_symbol >= 4")
            # keep carrier + peak deviation below Nyquist
            if self.gmsk_carrier_cycles + 0.5 >= self.samples_per_symbol / 2:
                raise ModemError("GMSK subcarrier too high for sample rate")

    @property
    def sample_rate(self) -> float:
        return self.symbol_rate * self.samples_per_symbol

    @property
    def context_symbols(self) -> int:
        """Symbols beyond either edge of a window that its samples depend
        on: one GMSK frequency pulse span, none for OOK."""
        return self.gmsk_span + 1 if self.scheme is Scheme.GMSK else 0


@dataclass
class SampleBlock:
    """A finite run of real intensity samples at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


def _gmsk_frequency_pulse(cfg: ModemConfig) -> np.ndarray:
    """Discrete frequency pulse: Gaussian-filtered rectangle, unit area."""
    sps = cfg.samples_per_symbol
    t = np.arange(-cfg.gmsk_span * sps / 2, cfg.gmsk_span * sps / 2 + 1) / sps
    k = np.sqrt(2 * np.pi / np.log(2)) * cfg.gmsk_bt
    gauss = k * np.exp(-2 * (np.pi * cfg.gmsk_bt * t) ** 2 / np.log(2))
    pulse = np.convolve(gauss, np.ones(sps))
    return pulse / pulse.sum()


def _gmsk_frequency(bits, cfg: ModemConfig) -> np.ndarray:
    """Per-sample phase increments / (pi/2): one frequency pulse per bit,
    including the filter tails past either end."""
    sps = cfg.samples_per_symbol
    impulses = np.zeros(len(bits) * sps)
    impulses[::sps] = 2.0 * np.asarray(bits) - 1.0
    return np.convolve(impulses, _gmsk_frequency_pulse(cfg))


def gmsk_data_phase(bits, cfg: ModemConfig) -> np.ndarray:
    """Full (untrimmed) data phase trajectory, pi/2 net shift per bit.

    Includes the filter tails, so an isolated bit accumulates exactly
    +-pi/2 in total.
    """
    return (np.pi / 2.0) * np.cumsum(_gmsk_frequency(bits, cfg))


@dataclass
class StreamCursor:
    """Where the next window of a stream starts: its first symbol and, for
    GMSK, the unscaled data phase accumulated before that window."""

    symbol: int = 0
    phase: float = 0.0


def _advance(bits: np.ndarray, cfg: ModemConfig, n_symbols: int,
             cursor: StreamCursor) -> np.ndarray | None:
    """Check the window of `n_symbols` symbols at `cursor` and move the
    cursor past it. For GMSK, return the window's unscaled data phase per
    sample, whose running sum the cursor carries on; None for OOK."""
    first, stop = cursor.symbol, cursor.symbol + n_symbols
    if n_symbols < 1:
        raise ModemError("bits must be nonempty")
    if stop > len(bits):
        raise ModemError("window runs past the end of the bits")
    cursor.symbol = stop
    if cfg.scheme is Scheme.OOK:
        return None
    sps = cfg.samples_per_symbol
    lo = max(0, first - cfg.context_symbols)
    freq = _gmsk_frequency(bits[lo:stop + cfg.context_symbols], cfg)
    # trim so each symbol's frequency mass is centered in its window;
    # the stream's phase also counts the pulse lead-in before sample 0
    delay = (len(_gmsk_frequency_pulse(cfg)) - sps) // 2
    start = (first - lo) * sps + delay
    lead = delay if first == 0 else 0
    acc = np.cumsum(np.concatenate(
        ([cursor.phase], freq[start - lead:start + n_symbols * sps])))[1:]
    cursor.phase = float(acc[-1])
    return acc[lead:]


def modulate(bits, cfg: ModemConfig,
             phase_offset: PhaseOffset = PhaseOffset.IN_PHASE,
             n_symbols: int | None = None,
             cursor: StreamCursor | None = None) -> SampleBlock:
    """Intensity samples (samples_per_symbol per bit) of one window of a
    bit stream.

    `bits` holds the stream's leading bits. The window is `n_symbols`
    symbols from `cursor.symbol`, and the cursor advances past it; without
    a cursor the window is the whole of `bits`. Consecutive windows
    concatenate to the samples of one window spanning them all. A GMSK
    pulse spreads over `cfg.context_symbols` symbols, so a GMSK window also
    reads that many bits either side of it; past the end of `bits` the
    stream is taken to have ended.
    """
    bits = np.asarray(bits)
    if cursor is None:
        cursor = StreamCursor()
    if n_symbols is None:
        n_symbols = len(bits) - cursor.symbol
    first = cursor.symbol
    data_phase = _advance(bits, cfg, n_symbols, cursor)
    sps = cfg.samples_per_symbol
    if data_phase is None:
        m = np.repeat(2.0 * bits[first:cursor.symbol] - 1.0, sps)
    else:
        phase = (np.pi / 2.0) * data_phase
        n = np.arange(first * sps, cursor.symbol * sps)
        carrier = 2 * np.pi * cfg.gmsk_carrier_cycles / sps * n
        m = np.cos(carrier + phase)
    if phase_offset is PhaseOffset.INVERTED:
        m = -m
    samples = cfg.dc_bias + cfg.modulation_depth * m
    return SampleBlock(samples, cfg.sample_rate)


def advance(bits, cfg: ModemConfig, n_symbols: int,
            cursor: StreamCursor) -> None:
    """Move `cursor` past the next `n_symbols` symbols of the stream
    without synthesising their samples, leaving it exactly where
    `modulate` of the same window would."""
    _advance(np.asarray(bits), cfg, n_symbols, cursor)


def demodulate(block: SampleBlock, cfg: ModemConfig,
               threshold: float | None = None) -> np.ndarray:
    """Recover bits from an intensity block.

    OOK: integrate-and-dump per symbol against a fixed `threshold` level, or
    the block mean when `threshold` is None (adaptive). GMSK: noncoherent
    frequency discrimination on the analytic signal; `threshold` is ignored.
    Returns exactly floor(len / samples_per_symbol) bits.
    """
    sps = cfg.samples_per_symbol
    x = np.asarray(block.samples, dtype=float)
    nsym = len(x) // sps
    if nsym < 1:
        raise ModemError("block shorter than one symbol")
    x = x[:nsym * sps]
    if cfg.scheme is Scheme.OOK:
        means = x.reshape(nsym, sps).mean(axis=1)
        level = float(np.mean(x)) if threshold is None else float(threshold)
        return (means > level).astype(int)
    return _demodulate_gmsk(x, cfg, nsym)


def _demodulate_gmsk(x: np.ndarray, cfg: ModemConfig, nsym: int) -> np.ndarray:
    sps = cfg.samples_per_symbol
    x = x - x.mean()
    n = len(x)
    # mirror-pad so the FFT edge ringing lands outside the data; the right
    # pad runs on to a 5-smooth length, where the FFT is fast
    pad = min(8 * sps, n - 1)
    right = min(_smooth_length(n + 2 * pad) - n - pad, n - 1)
    padded = np.concatenate([x[pad:0:-1], x, x[-2:-right - 2:-1]])
    p = np.arctan2(_quadrature(padded)[pad:pad + n], x)
    # the unwrapped phase, carrier removed, is needed only at the symbol
    # boundaries: count np.unwrap's 2*pi corrections as turns
    dd = np.diff(p)
    turns = np.zeros(n, dtype=np.int64)
    np.cumsum((dd < -np.pi).astype(np.int64) - (dd > np.pi), out=turns[1:])
    step = 2 * np.pi * cfg.gmsk_carrier_cycles / sps

    def psi(i):
        return p[i] + 2 * np.pi * turns[i] - step * i

    edges = psi(np.append(np.arange(nsym) * sps, n - 1))
    if n >= 3:
        # the final sample's analytic-phase estimate is unreliable (the
        # mirror pad reverses the frequency there); extrapolate it locally
        edges[-1] = 2 * psi(n - 2) - psi(n - 3)
    return (edges[1:] > edges[:-1]).astype(int)


def _smooth_length(m: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= m."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that takes it to m
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _quadrature(x: np.ndarray) -> np.ndarray:
    """hilbert(x).imag by a real FFT: -j times the spectrum, with the DC
    bin (and the Nyquist bin of an even length) zeroed."""
    spectrum = -1j * np.fft.rfft(x)
    spectrum[0] = 0
    if len(x) % 2 == 0:
        spectrum[-1] = 0
    return np.fft.irfft(spectrum, len(x))
