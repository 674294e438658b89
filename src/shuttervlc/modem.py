"""Bit <-> intensity-waveform conversion: OOK and GMSK schemes.

Intensity is measured in units of the LED's DC bias: both schemes emit
nonnegative samples 1 + modulation_depth * m(t) with m(t) in [-1, 1], which
the channel scales by each emitter's gain. For OOK m(t) is the NRZ bit
level; for GMSK m(t) is a constant-envelope FM waveform riding on a
subcarrier (a real baseband cos(phi) cannot carry the sign of the frequency
deviation, so an intensity channel needs the subcarrier to make the
frequency discriminator work). Samples are plain float64 arrays, all at
one rate, `ModemConfig.sample_rate`: `modulate` gathers them from the
config's table of symbol waveforms and `demodulate` takes them.
"""

import enum
import math
from dataclasses import dataclass
from typing import ClassVar
import numpy as np

GMSK_BT = 0.35                # Gaussian filter bandwidth-time product
GMSK_SPAN = 4                 # Gaussian pulse span in symbols
GMSK_CARRIER_CYCLES = 1.0     # subcarrier cycles per symbol; a whole number,
                              # so every symbol starts at carrier phase 0
MAX_SAMPLES_PER_SYMBOL = 1024  # 64 times the most a bundled scenario uses


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
    modulation_depth: float = 0.5
    dc_bias: ClassVar[float] = 1.0      # the unit of intensity

    def __post_init__(self):
        sps = self.samples_per_symbol
        if not (isinstance(sps, int) or float(sps).is_integer()):
            raise ModemError("samples_per_symbol must be an integer")
        object.__setattr__(self, "samples_per_symbol", int(sps))
        # before any table of samples_per_symbol samples is built
        if self.samples_per_symbol > MAX_SAMPLES_PER_SYMBOL:
            raise ModemError(f"samples_per_symbol {self.samples_per_symbol} "
                             f"is more than {MAX_SAMPLES_PER_SYMBOL}")
        if not 0 < self.symbol_rate < math.inf:
            raise ModemError("symbol_rate must be finite and positive")
        if self.samples_per_symbol < 2:
            raise ModemError("samples_per_symbol must be >= 2")
        if not self.sample_rate < math.inf:
            raise ModemError("sample rate (symbol_rate * samples_per_symbol) "
                             "must be finite")
        # a depth of at most the bias keeps intensity nonnegative
        if not (0 < self.modulation_depth <= 1):
            raise ModemError("modulation_depth must be in (0, 1]")
        # 4 keeps subcarrier + peak deviation (1.5 cycles/symbol) below Nyquist
        if self.scheme is Scheme.GMSK and self.samples_per_symbol < 4:
            raise ModemError("GMSK needs samples_per_symbol >= 4")
        # the receiver's windows centre on symbol boundaries only at even sps
        if self.scheme is Scheme.GMSK and self.samples_per_symbol % 2:
            raise ModemError("GMSK needs an even samples_per_symbol")
        if self.scheme is Scheme.GMSK:
            object.__setattr__(self, "gmsk_pulse", _gmsk_frequency_pulse(self))
            object.__setattr__(self, "gmsk_phase_taps", _gmsk_phase_taps(
                self.gmsk_pulse, self.samples_per_symbol))
        object.__setattr__(self, "waveforms", _waveforms(self))

    @property
    def sample_rate(self) -> float:
        return self.symbol_rate * self.samples_per_symbol

    @property
    def context_symbols(self) -> int:
        """Symbols past the end of a window that its samples may depend
        on: one GMSK frequency pulse span, none for OOK."""
        return GMSK_SPAN + 1 if self.scheme is Scheme.GMSK else 0


def _gmsk_frequency_pulse(cfg: ModemConfig) -> np.ndarray:
    """Discrete frequency pulse: Gaussian-filtered rectangle, unit area."""
    sps = cfg.samples_per_symbol
    t = np.arange(-GMSK_SPAN * sps / 2, GMSK_SPAN * sps / 2 + 1) / sps
    k = np.sqrt(2 * np.pi / np.log(2)) * GMSK_BT
    # libm's exp per tap: numpy's depends on the SIMD it runs on
    gauss = k * np.fromiter(map(math.exp, -2 * (np.pi * GMSK_BT * t) ** 2
                                / np.log(2)), float)
    # the Gaussian convolved with an sps-sample rectangle, as a running-sum
    # difference: O(sps) where np.convolve is O(sps**2)
    c = np.cumsum(np.pad(gauss, (sps, sps - 1)))
    pulse = c[sps:] - c[:-sps]
    return pulse / pulse.sum()


def _gmsk_phase_taps(pulse: np.ndarray, sps: int) -> tuple[int, np.ndarray]:
    """(j0, taps): the phase pulse q = cumsum(frequency pulse), centred and
    sampled per symbol. Symbol s adds taps[r, t] to the data phase at sample
    (s + j0 + t) * sps + r; before that it adds 0, after it exactly 1.
    `ModemConfig` builds them once, as `gmsk_phase_taps`."""
    q = np.cumsum(pulse)
    delay = (len(q) - sps) // 2
    j0 = -((delay + sps - 1) // sps)
    n_taps = (len(q) - 2 - delay) // sps - j0 + 1
    idx = (j0 + np.arange(n_taps)) * sps + np.arange(sps)[:, None] + delay
    taps = np.concatenate(([0.0], q[:-1], [1.0]))[np.clip(idx + 1, 0, len(q))]
    return j0, taps


def _waveforms(cfg: ModemConfig) -> dict:
    """{PhaseOffset: rows}: dc_bias +- modulation_depth * m for every
    symbol waveform m, one row each, built once per config.

    OOK's row b is 2 b - 1. GMSK's are cos(pi/2 * phase + subcarrier). The
    subcarrier turns a whole number of cycles per symbol, so it is at
    2 pi GMSK_CARRIER_CYCLES r / sps at sample r of every symbol. The data
    phase is the running sum, of which only its value mod 4 (a quadrant)
    moves the cosine, plus the taps weighted by the symbols in transition,
    each -1, 0 or +1. So a symbol's samples are one of 4 * 3**n_taps
    waveforms (Murota & Hirade, 1981). Row quadrant * 3**n_taps + pattern
    is the one whose base-3 digit t is 1 + the symbol taps' column t weighs."""
    sps = cfg.samples_per_symbol
    if cfg.scheme is Scheme.OOK:
        m = np.repeat([[-1.0], [1.0]], sps, axis=1)
    else:
        taps = cfg.gmsk_phase_taps[1]
        n_taps = taps.shape[1]
        quadrant, pattern = np.divmod(np.arange(4 * 3 ** n_taps), 3 ** n_taps)
        # sums per element in a fixed order, as a matrix product may not
        phase = np.zeros((len(quadrant), sps))
        phase += quadrant[:, None]
        for t in range(n_taps):
            phase += (pattern[:, None] // 3 ** t % 3 - 1) * taps[:, t]
        phase *= np.pi / 2
        phase += 2 * np.pi * GMSK_CARRIER_CYCLES / sps * np.arange(sps)
        m = np.cos(phase, out=phase)
    m *= cfg.modulation_depth
    # bias - depth * m == bias + (-depth) * m: IEEE products are symmetric
    return {PhaseOffset.IN_PHASE: cfg.dc_bias + m,
            PhaseOffset.INVERTED: cfg.dc_bias - m}


def _gmsk_rows(bits: np.ndarray, cfg: ModemConfig, first: int,
               n_symbols: int) -> np.ndarray:
    """The `waveforms` row of each symbol of the window of symbols
    [first, first + n_symbols).

    `a` holds 2 b - 1 of the symbols a sample of the window may still be
    in transition on, 0 outside the stream: a[k:k + n_taps] are those of
    symbol first + k, taps' column t pairing with a[k + n_taps - 1 - t].
    run[k] is the integer sum of `a` over the earlier symbols, whose pulse
    has passed; its quadrant leads the row index, by Horner's rule."""
    j0, taps = cfg.gmsk_phase_taps
    n_taps = taps.shape[1]
    lo, hi = first - (j0 + n_taps - 1), first + n_symbols - j0
    i, j = np.clip((lo, hi), 0, len(bits))
    a = np.pad(2.0 * bits[i:j] - 1.0, (i - lo, hi - j))
    settled = 2 * int(np.count_nonzero(bits[:i])) - i
    run = np.cumsum(a[:n_symbols]) - a[:n_symbols] + settled
    index = run.astype(np.intp) & 3
    code = (a + 1).astype(np.intp)
    for s in range(n_taps):
        index *= 3
        index += code[s:s + n_symbols]
    return index


def gmsk_data_phase(bits, cfg: ModemConfig) -> np.ndarray:
    """Full (untrimmed) data phase trajectory, pi/2 net shift per bit.

    The running sum of the frequency pulse at the sample rate, tails
    included, so an isolated bit accumulates exactly +-pi/2 in total.
    """
    bits = np.asarray(bits)
    sps = cfg.samples_per_symbol
    impulses = np.zeros(len(bits) * sps + 1)    # np.convolve refuses []
    impulses[:-1:sps] = 2.0 * bits - 1.0
    return np.pi / 2 * np.cumsum(np.convolve(impulses, cfg.gmsk_pulse)[:-1])


def modulate(bits, cfg: ModemConfig,
             phase_offset: PhaseOffset = PhaseOffset.IN_PHASE,
             first: int = 0, n_symbols: int | None = None) -> np.ndarray:
    """Intensity samples (samples_per_symbol per bit, float64 at
    `cfg.sample_rate`) of one window of a bit stream.

    `bits` holds the stream's leading bits. The window is `n_symbols`
    symbols from symbol `first`, by default the rest of `bits`; it is a
    function of the bits alone, so windows cut anywhere concatenate to the
    samples of one window spanning them all. A GMSK window also counts the
    bits before it and reads up to `cfg.context_symbols` bits past its end;
    past the end of `bits` the stream is taken to have ended.
    """
    bits = np.asarray(bits)
    if n_symbols is None:
        n_symbols = len(bits) - first
    if n_symbols < 1:
        raise ModemError("bits must be nonempty")
    if first < 0 or first + n_symbols > len(bits):
        raise ModemError("window runs past the end of the bits")
    rows = (bits[first:first + n_symbols] if cfg.scheme is Scheme.OOK
            else _gmsk_rows(bits, cfg, first, n_symbols))
    return np.take(cfg.waveforms[phase_offset], rows, axis=0).ravel()


def demodulate(samples: np.ndarray, cfg: ModemConfig,
               threshold: float | None = None) -> np.ndarray:
    """Recover bits from intensity samples at `cfg.sample_rate`.

    OOK: integrate-and-dump per symbol against a fixed `threshold` level, or
    the samples' mean when `threshold` is None (adaptive). GMSK: noncoherent
    frequency discrimination after a pre-detection filter (Murota & Hirade,
    1981). The samples, less their mean, are mixed down by the subcarrier and
    summed over a one-symbol window centred on each symbol boundary (they
    are zero-padded by half a symbol at each end); a bit is 1 when the
    baseband phase turns positive from one boundary to the next.
    `threshold` is ignored. Returns exactly floor(len / samples_per_symbol)
    bits.
    """
    sps = cfg.samples_per_symbol
    x = np.asarray(samples, dtype=float)
    nsym = len(x) // sps
    if nsym < 1:
        raise ModemError("samples shorter than one symbol")
    x = x[:nsym * sps]
    if cfg.scheme is Scheme.OOK:
        means = x.reshape(nsym, sps).mean(axis=1)
        level = float(np.mean(x)) if threshold is None else float(threshold)
        return (means > level).astype(np.uint8)
    return _demodulate_gmsk(x, cfg, nsym)


def _demodulate_gmsk(x: np.ndarray, cfg: ModemConfig, nsym: int) -> np.ndarray:
    sps = cfg.samples_per_symbol
    # row i is the one-symbol window centred on the boundary before symbol i
    rows = np.zeros((nsym + 1, sps))
    np.subtract(x, x.mean(), out=rows.reshape(-1)[sps // 2:-(sps // 2)])
    # one product mixes each row down and sums it: the real and imaginary
    # parts of its baseband. The subcarrier turns a whole number of cycles
    # per row, so its DC and its 2 f_c image sum to zero
    w = 2 * np.pi * GMSK_CARRIER_CYCLES * np.arange(sps) / sps
    b = (rows @ np.stack([np.cos(w), -np.sin(w)], axis=1)).view(complex)[:, 0]
    return (np.angle(b[1:] * b[:-1].conj()) > 0).astype(np.uint8)
