"""Automated shutter control, latency estimation and per-slot packet
arithmetic.

`run_controller` drives the shutter through the paper's two steps.
Discovery scans the pixels one at a time (all others closed) and makes the
pixels whose SNR reaches the threshold candidates. Identification opens
each candidate in turn, decodes, and locks the candidates on which the
header of a registered transmitter (of `select_target`, if set) decoded
bit for bit. A scan with no candidate resets, an identification with no
lock closes the shutter and scans again, and the controller gives up after
its retry budget.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .channel import PixelMask, ac_power, received_snr_db
from .framing import HEADER_BITS, IdLookupTable, detect_packets

IDENT_WINDOW_PACKETS = 4.2      # an identification dwell, in packets


class ProtocolError(ValueError):
    """Raised for protocol, latency or slot parameters out of range."""


@dataclass(frozen=True)
class ProtocolParams:
    T_s: float = 0.5
    snr_threshold_db: float = 10.0
    corr_threshold: int = 11
    retry_budget: int = 3
    select_target: Optional[int] = None     # an emitter label

    def __post_init__(self):
        for name in ("corr_threshold", "retry_budget"):
            value = getattr(self, name)
            if not (isinstance(value, int) or float(value).is_integer()):
                raise ProtocolError(f"{name} must be an integer")
        for name, kind in (("T_s", float), ("snr_threshold_db", float),
                           ("corr_threshold", int), ("retry_budget", int)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        _check_positive("T_s", self.T_s)
        if not math.isfinite(self.snr_threshold_db):
            raise ProtocolError("snr_threshold_db must be finite")
        if not 1 <= self.corr_threshold <= HEADER_BITS:
            raise ProtocolError(f"corr_threshold must be in 1..{HEADER_BITS}")
        if self.retry_budget < 0:
            raise ProtocolError("retry_budget must be nonnegative")


def _check_positive(what: str, *values) -> None:
    if not all(0 < x < math.inf for x in values):
        raise ProtocolError(f"{what} must be finite and positive")


def estimate_latency(grid_pixels: int, n_transmitters: int, packet_bits: int,
                     bit_time: float,
                     T_s: float) -> Tuple[float, float, float]:
    """(step1_s, step2_s, total_s): Step 1 scans every pixel for T_s; Step 2
    decodes one packet per transmitter at the bit time (s per bit)."""
    _check_positive("latency arguments", grid_pixels, n_transmitters,
                    packet_bits, bit_time, T_s)
    step1 = grid_pixels * T_s
    step2 = n_transmitters * packet_bits * bit_time
    if not math.isfinite(step1 + step2):
        raise ProtocolError("the latency total overflows")
    return step1, step2, step1 + step2


def packets_per_slot(symbol_rate: float, bits_per_symbol: int,
                     T_s: float, packet_bits: int) -> int:
    """Whole packets that fit in one dwell slot."""
    _check_positive("packets_per_slot arguments", symbol_rate,
                    bits_per_symbol, T_s, packet_bits)
    bits = symbol_rate * bits_per_symbol * T_s
    if not math.isfinite(bits):
        raise ProtocolError("the bits in one slot overflow")
    return int(bits // packet_bits)


@dataclass
class ControllerResult:
    converged: bool
    locked_pixels: frozenset
    pixel_snr_db: Dict[int, float]      # of the last Discovery scan
    events: List[dict]


def run_controller(sim, params: ProtocolParams,
                   id_table: IdLookupTable) -> ControllerResult:
    """Run Discovery and Identification against a link simulation until a
    pixel locks or `params.retry_budget` cycles have run.

    `sim` supplies the physical side: `n_pixels`, `sim_time_s`,
    `dwell(mask, duration_s) -> samples` (a float64 array; advancing its
    clock), `decode(samples) -> bits` and `identification_window_s` (long
    enough to contain a whole packet at any alignment). Each Discovery scan takes one
    extra all-closed dwell as the noise reference for the SNR probes.

    Every event records the controller's phase; a phase-transition event
    adds its 0/1 mask per pixel, a dwell event the pixel it opened, and a
    Discovery probe its SNR, rounded to 4 decimals, as `pixel_snr_db`. Each
    identification dwell logs `detected_ids`: the labels of every detection
    at or above `corr_threshold`, whether or not it locks. A candidate locks
    only if a detection on it scores HEADER_BITS and carries
    `select_target` (any label if that is None). Non-convergence is
    reported in the result, not raised.
    """
    n = sim.n_pixels
    phase, mask = "INIT", PixelMask(n, range(n))
    snrs: Dict[int, float] = {}
    events: List[dict] = []

    def log(event: str, **extra):
        rec = {"sim_time_s": round(sim.sim_time_s, 9),
               "event": event,
               "phase": phase}
        if not event.endswith("_dwell"):
            rec["mask"] = mask.states()
        rec.update(extra)
        events.append(rec)

    log("init")
    for _ in range(params.retry_budget):
        phase = "DISCOVERY"
        noise_power = ac_power(sim.dwell(PixelMask(n), params.T_s))
        log("noise_reference_dwell")
        snrs = {}
        # no block is kept across the next dwell: at the paper's rate each
        # one holds hundreds of MiB
        for p in range(n):
            snrs[p] = received_snr_db(sim.dwell(PixelMask(n, {p}), params.T_s),
                                      noise_power)
            log("discovery_dwell", pixel=p, pixel_snr_db=round(snrs[p], 4))
        candidates = [p for p, s in snrs.items()
                      if s >= params.snr_threshold_db]
        phase = "IDENTIFICATION" if candidates else "RESET"
        mask = PixelMask(n, candidates)
        log("discovery_done")
        if not candidates:
            log("reset")
            continue

        locked = []
        for p in candidates:
            dets = detect_packets(sim.decode(sim.dwell(
                PixelMask(n, {p}), sim.identification_window_s)), id_table,
                params.corr_threshold)
            if any(d.score == HEADER_BITS
                   and params.select_target in (None, d.label) for d in dets):
                locked.append(p)
            log("identification_dwell", pixel=p,
                detected_ids=sorted({d.label for d in dets}))
        if locked:
            phase, mask = "LOCKED", PixelMask(n, locked)
            log("locked", locked_pixels=locked)
            return ControllerResult(True, frozenset(locked), snrs, events)
        phase, mask = "DISCOVERY", PixelMask(n)
        log("identification_failed")

    phase, mask = "RESET", PixelMask(n)
    log("gave_up")
    return ControllerResult(False, frozenset(), snrs, events)
