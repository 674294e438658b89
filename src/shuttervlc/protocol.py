"""Automated shutter control: Discovery/Identification state machine,
latency estimation and per-slot packet arithmetic.

Discovery scans the pixels one at a time (all others closed) and records
per-pixel SNR against a threshold; Identification re-opens each candidate
pixel, decodes, and keeps only pixels where the header of a registered
transmitter decoded bit for bit. The controller loops Discovery after a
failed Identification and gives up after a retry budget.
"""

import enum
from dataclasses import dataclass, replace, field
from typing import Callable, Dict, List, Optional, Set

from .channel import PixelMask, received_snr_db
from .framing import HEADER_BITS, IdLookupTable, detect_packets


class ProtocolError(ValueError):
    """Raised when a step is applied in the wrong phase."""


class Phase(enum.Enum):
    INIT = "INIT"
    DISCOVERY = "DISCOVERY"
    IDENTIFICATION = "IDENTIFICATION"
    LOCKED = "LOCKED"
    RESET = "RESET"


@dataclass(frozen=True)
class ShutterControllerState:
    phase: Phase
    mask: PixelMask
    snr_threshold_db: float
    pixel_snr_db: Dict[int, float] = field(default_factory=dict)
    candidate_pixels: frozenset = frozenset()
    locked_pixels: frozenset = frozenset()


def initial_state(n_pixels: int,
                  snr_threshold_db: float) -> ShutterControllerState:
    """INIT state with all pixels open, ready to enter Discovery."""
    return ShutterControllerState(
        phase=Phase.INIT,
        mask=PixelMask(n_pixels, range(n_pixels)),
        snr_threshold_db=snr_threshold_db,
    )


def step_discovery(state: ShutterControllerState,
                   snr_probe: Callable[[int], float]) -> ShutterControllerState:
    """Scan every pixel through `snr_probe` (one T_s dwell each, that pixel
    open and all others closed). Pixels at or above the SNR threshold become
    candidates and are opened for Identification; if none qualify, all
    pixels close and the phase falls to RESET."""
    if state.phase is not Phase.DISCOVERY:
        raise ProtocolError(f"step_discovery in phase {state.phase.name}")
    n = state.mask.n_pixels
    snrs = {p: float(snr_probe(p)) for p in range(n)}
    candidates = frozenset(p for p, s in snrs.items() if s >= state.snr_threshold_db)
    if candidates:
        return replace(state,
                       phase=Phase.IDENTIFICATION,
                       mask=PixelMask(n, candidates),
                       pixel_snr_db=snrs,
                       candidate_pixels=candidates)
    return replace(state,
                   phase=Phase.RESET,
                   mask=PixelMask(n),
                   pixel_snr_db=snrs,
                   candidate_pixels=frozenset())


def step_identification(
        state: ShutterControllerState,
        identified: Callable[[int], Set[int]],
) -> ShutterControllerState:
    """Lock the candidate pixels that identified a registered transmitter.

    `identified(p)` is the set of labels whose header decoded bit for bit
    on pixel `p` (a detection scoring HEADER_BITS); a header with any chip
    error does not count. Pixels with at least one such label lock in and
    stay open; with none anywhere, all pixels close and the phase returns
    to DISCOVERY."""
    if state.phase is not Phase.IDENTIFICATION:
        raise ProtocolError(f"step_identification in phase {state.phase.name}")
    if not state.candidate_pixels:
        raise ProtocolError("identification with no candidate pixels")
    n = state.mask.n_pixels
    locked = {p for p in state.candidate_pixels if identified(p)}
    if locked:
        return replace(state,
                       phase=Phase.LOCKED,
                       mask=PixelMask(n, locked),
                       locked_pixels=frozenset(locked))
    return replace(state,
                   phase=Phase.DISCOVERY,
                   mask=PixelMask(n),
                   locked_pixels=frozenset())


@dataclass(frozen=True)
class LatencyModel:
    grid_pixels: int
    n_transmitters: int
    packet_bits: int
    bit_time: float     # seconds per bit
    T_s: float

    def __post_init__(self):
        if min(self.grid_pixels, self.n_transmitters, self.packet_bits) < 1 \
                or self.bit_time <= 0 or self.T_s <= 0:
            raise ProtocolError("latency model fields must be positive")


@dataclass(frozen=True)
class LatencyEstimate:
    step1_s: float
    step2_s: float
    total_s: float


def estimate_latency(model: LatencyModel) -> LatencyEstimate:
    """Step 1 scans every pixel for T_s; Step 2 decodes one packet per
    transmitter at the bit time."""
    step1 = model.grid_pixels * model.T_s
    step2 = model.n_transmitters * model.packet_bits * model.bit_time
    return LatencyEstimate(step1, step2, step1 + step2)


def packets_per_slot(symbol_rate: float, bits_per_symbol: int,
                     T_s: float, packet_bits: int) -> int:
    """Whole packets that fit in one dwell slot."""
    if min(symbol_rate, bits_per_symbol, T_s, packet_bits) <= 0:
        raise ProtocolError("packets_per_slot arguments must be positive")
    return int(symbol_rate * bits_per_symbol * T_s // packet_bits)


@dataclass
class ControllerResult:
    state: ShutterControllerState
    events: List[dict]
    converged: bool
    cycles_used: int


def run_controller(sim, T_s: float, snr_threshold_db: float,
                   id_table: IdLookupTable, corr_threshold: int = 11,
                   retry_budget: int = 3,
                   select_target: Optional[int] = None) -> ControllerResult:
    """Drive the state machine against a link simulation.

    `sim` supplies the physical side: `n_pixels`, `sim_time_s`,
    `dwell(mask, duration_s) -> SampleBlock` (advancing its clock),
    `decode(block) -> bits` and `identification_window_s` (long enough to
    contain a whole packet at any alignment). Each Discovery scan takes one
    extra all-closed dwell as the noise reference for the SNR probes.

    Each identification dwell logs `detected_ids`: the labels of every
    detection at or above `corr_threshold`, whether or not it locks. With
    `select_target` (a label), only a pixel that identified that label may
    lock; pixels that identified only other labels send the controller back
    to Discovery. Non-convergence after `retry_budget` full cycles is reported
    in the result, not raised.
    """
    n = sim.n_pixels
    state = initial_state(n, snr_threshold_db)
    events: List[dict] = []

    def log(event: str, **extra):
        rec = {"sim_time_s": round(sim.sim_time_s, 9),
               "event": event,
               "phase": state.phase.value,
               "mask": state.mask.states()}
        rec.update(extra)
        events.append(rec)

    log("init")
    cycles = 0
    for cycle in range(retry_budget):
        cycles = cycle + 1
        state = replace(state, phase=Phase.DISCOVERY)
        noise_ref = sim.dwell(PixelMask(n), T_s)
        log("noise_reference_dwell")

        def probe(pixel: int) -> float:
            block = sim.dwell(PixelMask(n, {pixel}), T_s)
            snr = received_snr_db(block, noise_ref)
            log("discovery_dwell", pixel=pixel, pixel_snr_db=round(snr, 4))
            return snr

        state = step_discovery(state, probe)
        log("discovery_done",
            pixel_snr_db={p: round(s, 4) for p, s in state.pixel_snr_db.items()})
        if state.phase is Phase.RESET:
            log("reset")
            continue

        identified: Dict[int, Set[int]] = {}
        for p in sorted(state.candidate_pixels):
            block = sim.dwell(PixelMask(n, {p}), sim.identification_window_s)
            dets = detect_packets(sim.decode(block), id_table, corr_threshold)
            identified[p] = {d.label for d in dets if d.score == HEADER_BITS}
            log("identification_dwell", pixel=p,
                detected_ids=sorted({d.label for d in dets}))
        state = step_identification(state, identified.__getitem__)

        if state.phase is Phase.LOCKED and select_target is not None:
            matching = {p for p in state.locked_pixels
                        if select_target in identified[p]}
            if matching:
                state = replace(state,
                                mask=PixelMask(n, matching),
                                locked_pixels=frozenset(matching))
            else:
                state = replace(state, phase=Phase.DISCOVERY,
                                mask=PixelMask(n),
                                locked_pixels=frozenset())
        if state.phase is Phase.LOCKED:
            log("locked", locked_pixels=sorted(state.locked_pixels))
            return ControllerResult(state, events, True, cycles)
        log("identification_failed")

    state = replace(state, phase=Phase.RESET, mask=PixelMask(n))
    log("gave_up")
    return ControllerResult(state, events, False, cycles)
