"""Single-photodiode optical channel with a pixelated shutter in front.

The photodiode sums every intensity reaching it; each shutter pixel gates
the emitters (and ambient light) mapped to it with a factor of 1 when OPEN
or `closed_leakage` when CLOSED. AWGN and a hard saturation clip model the
amplifier front end. Samples are plain float64 arrays at the modem's
`ModemConfig.sample_rate`: `receive` takes one per emitter and returns one,
and `ac_power` and `received_snr_db` take one. `receive` draws its noise
into its output, a chunk at a time: it holds no other dwell-length array.

A run's noise is one `NoiseStream`, which a helper thread draws ahead, in
order, while the run does other work: no value depends on timing. Each
stream holds blocks of its own, 1 MiB per live stream.
"""

import math
import operator
import os
import queue
import threading
import weakref
from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Tuple

import numpy as np

# the largest gain, ambient_dc entry and noise_sigma, in units of the LEDs'
# DC bias: sums and squares of 10^7 such terms stay finite in float64
MAX_INTENSITY = 1e100


class ChannelError(ValueError):
    """Raised for inconsistent channel inputs."""


def _pixel_indices(pixels) -> Tuple[int, ...]:
    """`pixels` as ints; a float, even a whole one, names no pixel."""
    try:
        return tuple(map(operator.index, pixels))
    except TypeError:
        raise ChannelError("pixel indices must be integers") from None


@dataclass(frozen=True)
class PixelMask:
    """The shutter at an instant: its pixel count and the set of OPEN
    pixels. `PixelMask(n)` closes every pixel."""

    n_pixels: int
    open: FrozenSet[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "open", frozenset(_pixel_indices(self.open)))
        if any(not (0 <= p < self.n_pixels) for p in self.open):
            raise ChannelError("open pixel outside the shutter")

    def states(self) -> List[int]:
        """Per-pixel 0/1 list, 1 where the pixel is open."""
        return [int(p in self.open) for p in range(self.n_pixels)]


@dataclass(frozen=True)
class ChannelConfig:
    emitter_gain: Tuple[float, ...]
    emitter_pixel: Tuple[int, ...]
    ambient_dc: Tuple[float, ...]       # per pixel
    noise_sigma: float = 0.0
    closed_leakage: float = 0.0
    saturation_level: float = float("inf")

    def __post_init__(self):
        for name, what in (("emitter_gain", "gains"),
                           ("ambient_dc", "ambient_dc entries")):
            values = tuple(map(float, getattr(self, name)))
            if not all(0 <= x <= MAX_INTENSITY for x in values):
                raise ChannelError(f"{what} must be in [0, {MAX_INTENSITY:g}]")
            object.__setattr__(self, name, values)
        object.__setattr__(self, "emitter_pixel", _pixel_indices(self.emitter_pixel))
        for name in ("noise_sigma", "closed_leakage", "saturation_level"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "ambient_total", sum(self.ambient_dc))
        if not (0 <= self.closed_leakage < 1):
            raise ChannelError("closed_leakage must be in [0, 1)")
        if not 0 <= self.noise_sigma <= MAX_INTENSITY:
            raise ChannelError(f"noise_sigma must be in [0, {MAX_INTENSITY:g}]")
        if not self.saturation_level > 0:
            raise ChannelError("saturation_level must be positive")
        if len(self.emitter_gain) != len(self.emitter_pixel):
            raise ChannelError("one gain per emitter required")
        if any(not 0 <= p < len(self.ambient_dc) for p in self.emitter_pixel):
            raise ChannelError("emitter mapped to an invalid pixel")


def _gate(mask: PixelMask, cfg: ChannelConfig, pixel: int) -> float:
    return 1.0 if pixel in mask.open else cfg.closed_leakage


def emitter_weights(mask: PixelMask, cfg: ChannelConfig) -> Tuple[float, ...]:
    """Amplitude with which each emitter reaches the photodiode under
    `mask`: its gain, times 1 if its pixel is open, else `closed_leakage`.

    An emitter of weight 0 contributes nothing to `receive`, so its
    waveform need not be synthesised."""
    if mask.n_pixels != len(cfg.ambient_dc):
        raise ChannelError("mask length must match pixel count")
    return tuple(gain * _gate(mask, cfg, pixel)
                 for gain, pixel in zip(cfg.emitter_gain, cfg.emitter_pixel))


# Drawing ahead: one daemon thread per process draws a fresh block of _BLOCK
# normals per job; a stream has up to _AHEAD jobs (1 MiB) filled or in flight.
# No block is shared, so a forked child keeps its streams' blocks. Allocated
# on the main thread and filled in place, blocks cost 0.7 MiB more peak RSS.
_BLOCK, _AHEAD = 2**15, 4
_CHUNK = 2**17  # samples of `receive`'s output built at a time: 1 MiB
_worker = []    # [job queue] once a stream draws ahead
os.register_at_fork(after_in_child=_worker.clear)   # a child has no worker


def _draw_ahead(jobs: queue.SimpleQueue) -> None:
    """For each job, a weakref to a stream, hand a live stream its next
    block, or what the draw raised; a gone stream's job draws nothing."""
    while True:
        stream = jobs.get()()
        if stream is None:
            continue
        try:
            block = stream._rng.standard_normal(_BLOCK)
        except BaseException as exc:    # the take that waits raises it
            block = exc
        stream._filled.put(block)
        del stream, block   # else a finished run's stream lives to the next job


class NoiseStream:
    """The standard normals of `rng` in order: the takes of `standard_normal`,
    which fills `out` when given one, join into one `rng.standard_normal` draw.

    From the second take on, the worker draws the next blocks ahead. Only
    one thread draws from `rng` at a time: a take uses the blocks drawn
    ahead, waiting for any in flight, and only then draws the rest itself.
    A take that waits for a block whose draw raised raises that. In a
    forked child a stream draws nothing ahead, and a take that needs a
    block still in flight to the parent's worker raises ChannelError."""

    def __init__(self, rng: np.random.Generator):
        self._rng, self._pid = rng, os.getpid()
        self._head = None                   # a block's unread rest, after a take
        self._filled = queue.SimpleQueue()  # the blocks drawn ahead, in order
        self._in_flight = 0                 # jobs whose block is not yet taken

    def standard_normal(self, size=None, out=None) -> np.ndarray:
        if self._head is None:  # a one-chunk run puts no work on the worker
            self._head = np.empty(0)
            return self._rng.standard_normal(size, out=out)
        out = np.empty(size) if out is None else out
        n, k, head = len(out), 0, self._head
        while True:
            m = min(n - k, len(head))
            out[k:k + m] = head[:m]
            # an empty view of a spent block would keep the block alive
            k, self._head = k + m, head[m:] if m < len(head) else np.empty(0)
            if k == n or not self._in_flight:
                break
            if self._pid != os.getpid() and self._filled.empty():
                raise ChannelError("noise in flight to a parent process")
            head = self._filled.get()
            self._in_flight -= 1
            if isinstance(head, BaseException):
                raise head
        if k < n:
            self._rng.standard_normal(out=out[k:])
        if self._pid != os.getpid():
            return out  # a forked child has no worker for its parent's streams
        if not _worker:     # two streams starting one at once use the first
            jobs = queue.SimpleQueue()
            threading.Thread(target=_draw_ahead, args=(jobs,),
                             name="shuttervlc-noise", daemon=True).start()
            _worker.append(jobs)
        while self._in_flight < _AHEAD:
            _worker[0].put(weakref.ref(self))
            self._in_flight += 1
        return out


def receive(emitter_blocks: Sequence[np.ndarray], mask: PixelMask,
            cfg: ChannelConfig, rng=None) -> np.ndarray:
    """Superpose gated emitter waveforms, ambient DC and AWGN; clip to
    [0, saturation_level].

    All emitter blocks must have one length; the samples of an emitter
    whose `emitter_weights` entry is 0 are never read. Noise comes from
    `rng`, which a noisy channel requires: anything whose
    `standard_normal(out=array)` fills the array with the next standard
    normals, such as a numpy `Generator` or a run's `NoiseStream`.

    The output is built `_CHUNK` samples at a time: noise drawn into it,
    plus the light, summed apart in one scratch chunk. Each sample takes
    the float operations of a sum of whole blocks and one draw.
    """
    if len(emitter_blocks) != len(cfg.emitter_gain):
        raise ChannelError("one block per configured emitter required")
    weights = emitter_weights(mask, cfg)
    lengths = {len(b) for b in emitter_blocks}
    if len(lengths) > 1:
        raise ChannelError("emitter blocks must share one length")
    noisy = cfg.noise_sigma > 0
    if noisy and rng is None:
        raise ChannelError("a noisy channel needs a generator")

    n = lengths.pop() if lengths else 0
    lit = [(b, weight) for b, weight in zip(emitter_blocks, weights) if weight]
    ambient = cfg.ambient_total and (  # no light: no sum over open pixels
        cfg.closed_leakage * cfg.ambient_total + (1 - cfg.closed_leakage)
        * sum(cfg.ambient_dc[p] for p in sorted(mask.open)))
    out = np.empty(n) if noisy or lit else np.zeros(n)
    light = np.empty(min(n, _CHUNK)) if noisy and lit else None
    for k in range(0, n, _CHUNK):
        chunk = out[k:k + _CHUNK]
        if noisy:   # the values of rng.normal(0, sigma, n): 0 + sigma * z
            rng.standard_normal(out=chunk)
            chunk *= cfg.noise_sigma
        if lit:     # summed apart from the noise; with none, in the chunk
            total = light[:len(chunk)] if noisy else chunk
            for i, (block, weight) in enumerate(lit):   # the first is written
                if i:
                    total += weight * block[k:k + _CHUNK]
                else:
                    np.multiply(block[k:k + _CHUNK], weight, out=total)
            if cfg.ambient_total:
                total += ambient
            if noisy:   # fl(N + S) is fl(S + N): noise first moves no bit
                chunk += total
        elif cfg.ambient_total:     # onto the noise, or onto 0.0
            chunk += ambient
        np.clip(chunk, 0.0, cfg.saturation_level, out=chunk)
    return out


def ac_power(samples: np.ndarray) -> float:
    """AC power of a block: the variance of its samples."""
    if len(samples) == 0:
        raise ChannelError("SNR needs nonempty blocks")
    return float(np.var(samples))


def received_snr_db(signal_only: np.ndarray, noise_power: float) -> float:
    """AC-coupled power ratio in dB: 10*log10(var(signal)/noise_power), with
    `noise_power` the `ac_power` of a noise-only block, taken once for any
    number of probes, or the channel's noise_sigma ** 2.

    A signal with no AC power gives -inf, whatever the noise, as does a
    ratio that underflows; otherwise a noise power of 0 gives +inf. So a
    dark probe never clears a threshold, not even in a noiseless channel.
    The dB take libm's log10: numpy's varies with the SIMD it runs on.
    """
    p_sig = ac_power(signal_only)
    if p_sig == 0.0:
        return float("-inf")
    if noise_power == 0.0:
        return float("inf")
    ratio = p_sig / noise_power
    return 10.0 * math.log10(ratio) if ratio else float("-inf")
