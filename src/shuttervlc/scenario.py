"""Scenario definition, end-to-end runs, trace persistence and replay.

A scenario JSON describes the shutter grid, the modem, the emitters
(pixel, gain, transmitter ID, payload), the channel and either a fixed
shutter mask (BER-style experiments) or the automated control protocol.
Runs are fully deterministic given the seed; traces persist the decoded
bits, packed, so metrics can be recomputed offline.
"""

import base64
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import framing
from .channel import (ChannelConfig, PixelMask, emitter_weights, receive,
                      received_snr_db)
from .framing import IdKind, IdLookupTable, detect_packets, make_id
from .metrics import goodput, packet_error_rate
from .modem import ModemConfig, PhaseOffset, Scheme, demodulate, modulate
from .protocol import IDENT_WINDOW_PACKETS, ProtocolParams, run_controller

SCENARIO_SCHEMA_VERSION = 3  # no value the loader can work out
TRACE_SCHEMA_VERSION = 5     # no code_rate in context
MAX_PIXELS = 10**7           # ten times Table V's largest (1000x1000) shutter
MAX_DWELL_SAMPLES = 2**27    # 1 GiB of float64; 2 MHz GMSK slots of 2 s: 3.2e7
MAX_DWELLS = 10**8           # a run's; a MAX_PIXELS grid takes 6e7 in 3 retries


class ScenarioError(ValueError):
    """Raised for invalid scenario or trace files."""


@dataclass(frozen=True)
class EmitterSpec:
    """An emitter resolved at load. Its payload repeats `pattern`, or else
    is random bits from the run seed and `stream` (its own label, or that of
    the emitter its `same_as` names)."""
    label: int
    id_kind: IdKind
    phase_offset: PhaseOffset
    pattern: Optional[np.ndarray]
    stream: int


@dataclass
class Scenario:
    """A parsed and checked scenario; `scenario_from_dict` builds it.

    `channel` holds each emitter's pixel; `threshold` is the
    fixed OOK decision level, or None for the adaptive one; `id_table` holds
    the emitters' headers when there is a protocol to identify them.
    `source_dict` is a copy of the parsed document, which later edits of
    the caller's dict do not reach; `scenario_hash` is the sha256 of its
    JSON with sorted keys."""

    name: str
    rng_seed: int
    duration_s: float
    n_pixels: int
    modem: ModemConfig
    emitters: List[EmitterSpec]
    channel: ChannelConfig
    scenario_hash: str
    mask: Optional[PixelMask] = None
    protocol: Optional[ProtocolParams] = None
    threshold: Optional[float] = None
    id_table: Optional[IdLookupTable] = None
    source_dict: dict = field(default_factory=dict, repr=False)


# keys of the objects no dataclass checks
_SCENARIO_KEYS = ("schema_version", "name", "rng_seed", "duration_s",
                  "optics", "modem", "emitters", "channel", "mask",
                  "protocol", "threshold")
_EMITTER_KEYS = ("label", "pixel", "gain", "id_kind", "phase_offset",
                 "pattern", "same_as")


def _object(value, what: str, keys=None) -> dict:
    """`value` as a JSON object; with `keys`, one that holds no other key."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be a JSON object")
    unknown = sorted(map(str, set(value) - set(keys or value)))
    if unknown:
        raise ScenarioError(f"unknown {what} key {unknown[0]!r}")
    return value


def _per_pixel(values, n: int, what: str) -> list:
    if not isinstance(values, list) or len(values) != n:
        raise ScenarioError(f"{what} must be a list of {n} entries, one per pixel")
    return values


def _number(value, what: str, whole: bool = False):
    """A JSON number: an int or a float, never a bool or a string. With
    `whole`, an integral one, as an int (4.0 is taken as 4)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{what} must be a number")
    if whole and not (isinstance(value, int) or value.is_integer()):
        raise ScenarioError(f"{what} must be an integer")
    return int(value) if whole else value


def _numbers(obj: dict, what: str, *text: str) -> dict:
    """`obj` with each value a JSON number, but those of the `text` keys."""
    return {k: v if k in text else _number(v, f"{what} {k}")
            for k, v in obj.items()}


def _emitters(specs: List[dict]) -> List[EmitterSpec]:
    """Resolve each emitter's header, phase and payload: its `pattern`, the
    payload of the emitter its `same_as` names, or else random bits."""
    labels = [_number(e["label"], "label", whole=True) for e in specs]
    if len(set(labels)) < len(labels) or min(labels, default=0) < 0:
        raise ScenarioError("emitter labels must be distinct and nonnegative")
    if any("pattern" in e and "same_as" in e for e in specs):
        raise ScenarioError("an emitter takes a pattern or same_as, not both")
    own = {label: _bits_from_str(e["pattern"]) if "pattern" in e else None
           for label, e in zip(labels, specs) if "same_as" not in e}
    if any(p is not None and p.size == 0 for p in own.values()):
        raise ScenarioError("a pattern needs at least one bit")
    emitters = []
    for label, e in zip(labels, specs):
        stream = _number(e.get("same_as", label), "same_as", whole=True)
        if stream not in own:
            raise ScenarioError("same_as must name an emitter with bits of its own")
        emitters.append(EmitterSpec(
            label, IdKind(e.get("id_kind", "BARKER13")),
            PhaseOffset(e.get("phase_offset", "IN_PHASE")), own[stream],
            stream))
    return emitters


def _parse(d: dict) -> Scenario:
    version = _number(_object(d, "scenario", _SCENARIO_KEYS).get(
        "schema_version", SCENARIO_SCHEMA_VERSION), "schema_version")
    if version != SCENARIO_SCHEMA_VERSION:
        raise ScenarioError(f"scenario schema version {version} unsupported")
    optics = _object(d["optics"], "optics", ("grid_rows", "grid_cols"))
    rows, cols = (_number(optics.get(k), f"optics {k}", whole=True)
                  for k in ("grid_rows", "grid_cols"))
    if rows < 1 or cols < 1:
        raise ScenarioError("the shutter grid needs at least one pixel")
    n = rows * cols
    if n > MAX_PIXELS:
        raise ScenarioError(f"the shutter grid has {n} pixels, more than "
                            f"{MAX_PIXELS}")
    keys = [f.name for f in fields(ModemConfig)]     # not the dc_bias unit
    m = _numbers(_object(d["modem"], "modem", keys), "modem", "scheme")
    modem = ModemConfig(**dict(m, scheme=Scheme(m["scheme"])))
    specs = [_object(e, "emitter", _EMITTER_KEYS) for e in d["emitters"]]
    if not 0 < len(specs) <= n:
        raise ScenarioError(f"need 1 to {n} emitters for {n} shutter pixels")
    emitters = _emitters(specs)
    ch = _object(d.get("channel", {}), "channel")
    ambient_dc = _per_pixel(ch["ambient_dc"] if "ambient_dc" in ch
                            else [0.0] * n, n, "ambient_dc")
    channel = ChannelConfig(
        emitter_gain=tuple(_number(e.get("gain", 1.0), "gain") for e in specs),
        emitter_pixel=tuple(_number(e.get("pixel"), "pixel", whole=True)
                            for e in specs),
        **dict(_numbers(ch, "channel", "ambient_dc"), ambient_dc=[
            _number(a, "ambient_dc entry") for a in ambient_dc]))
    mask = None
    if d.get("mask") is not None:
        if not isinstance(d["mask"], list):
            raise ScenarioError("mask must be a list of the open pixels")
        mask = PixelMask(n, [_number(p, "mask pixel", whole=True)
                             for p in d["mask"]])
        if len(mask.open) < len(d["mask"]):
            raise ScenarioError("mask lists a pixel twice")
    protocol = id_table = None
    if d.get("protocol") is not None:
        p = _numbers(_object(d["protocol"], "protocol",
                             ProtocolParams.__dataclass_fields__),
                     "protocol", "select_target")
        target = p.get("select_target")
        if target is not None:
            carriers = [e.label for e in emitters if e.id_kind.value == target]
            if not carriers:
                raise ScenarioError(
                    f"select_target {target!r} is no emitter's id_kind")
            p["select_target"] = carriers[0]
        protocol = ProtocolParams(**p)
        id_table = IdLookupTable([make_id(e.id_kind, e.label) for e in emitters])
    if (mask is None) == (protocol is None):
        raise ScenarioError("scenario needs exactly one of mask / protocol")
    # a fixed OOK decision level; without one the threshold is adaptive
    threshold = d.get("threshold")
    if threshold is not None:
        if modem.scheme is Scheme.GMSK:
            raise ScenarioError("a GMSK modem takes no threshold")
        threshold = float(_number(threshold, "threshold"))
        if not math.isfinite(threshold):
            raise ScenarioError("threshold must be finite")
    name = d.get("name", "scenario")
    if (not isinstance(name, str) or name in ("", ".", "..")
            or any(c in name for c in "/\\\0")):
        raise ScenarioError("name must be a nonempty file name, not '.' or "
                            "'..', without '/', '\\' or NUL")
    rng_seed = _number(d.get("rng_seed", 0), "rng_seed", whole=True)
    duration_s = float(_number(d.get("duration_s", 0.0), "duration_s"))
    if rng_seed < 0:
        raise ScenarioError("rng_seed must be a nonnegative integer")
    if not 0 <= duration_s < float("inf"):
        raise ScenarioError("duration_s must be finite and nonnegative")
    # a dwell's samples: its window's, or one symbol's if that is more (an
    # identification window's 4.2 packets take under 10^7 at the sps cap);
    # the budgets also keep the int64 sample clock far from overflow
    what, span = (("duration_s", duration_s) if protocol is None
                  else ("T_s", protocol.T_s))
    if span * modem.sample_rate > MAX_DWELL_SAMPLES:
        raise ScenarioError(f"{what} asks for more than "
                            f"{MAX_DWELL_SAMPLES} samples in one dwell")
    if protocol is not None:
        # per retry a noise reference, a probe and an identification dwell
        # per pixel; then the locked slots
        dwells = (protocol.retry_budget * (2 * n + 1) + duration_s
                  * modem.sample_rate / _dwell_samples(modem, protocol.T_s))
        if dwells > MAX_DWELLS:
            raise ScenarioError(f"the protocol may take {dwells:.3g} dwells, "
                                f"more than {MAX_DWELLS}")
    source = json.dumps(d, sort_keys=True)
    return Scenario(
        name=name,
        rng_seed=rng_seed,
        duration_s=duration_s,
        n_pixels=n,
        modem=modem,
        emitters=emitters,
        channel=channel,
        scenario_hash=hashlib.sha256(source.encode()).hexdigest(),
        mask=mask,
        protocol=protocol,
        threshold=threshold,
        id_table=id_table,
        source_dict=json.loads(source),
    )


@contextmanager
def _malformed(what: str):
    """Report whatever a malformed document raises as a ScenarioError."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"bad {what}: {exc}") from exc


def scenario_from_dict(d: dict) -> Scenario:
    """Parse and check a scenario dict once: whatever is wrong with it,
    a ScenarioError says so."""
    with _malformed("scenario"):
        return _parse(d)


def load_scenario(path) -> Scenario:
    with open(path) as f:
        try:
            d = json.load(f)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario parse error: {exc}") from exc
    return scenario_from_dict(d)


def bundled_scenario_names() -> List[str]:
    root = resources.files("shuttervlc") / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_scenario(name: str) -> Scenario:
    ref = resources.files("shuttervlc") / "scenarios" / f"{name}.json"
    if not ref.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}")
    return scenario_from_dict(json.loads(ref.read_text()))


# ---------------------------------------------------------------------------
# payload bits

def emitter_bits(spec: EmitterSpec, seed: int, first: int, n_bits: int,
                 framed: bool) -> np.ndarray:
    """Bits `first` to `first + n_bits` of an emitter's transmit stream, as
    uint8, from the run seed and the bit range alone.

    Framed streams are back-to-back 2096-bit packets (the emitter's own
    header + its payload), cut in whole packets: there `first` and `n_bits`
    are multiples of PACKET_BITS. Unframed streams use the payload bits
    directly. A pattern is indexed modulo its length. Random payload bit i
    is bit i of one `integers(0, 2)` draw from PCG64([seed, stream, 17]).
    That takes each bit from a 32-bit half of a 64-bit output, low half
    first, and never rejects (Lemire's method, range 2), so a draw from
    payload bit s jumps ahead s // 2 outputs, in O(log s), and drops the
    low half's bit when s is odd."""
    start, n = first, n_bits
    if framed:
        start = first // framing.PACKET_BITS * framing.PAYLOAD_BITS
        n = n_bits // framing.PACKET_BITS * framing.PAYLOAD_BITS
    if spec.pattern is not None:
        pattern = spec.pattern
        payload = np.resize(np.roll(pattern, -(start % len(pattern))), n)
    else:
        rng = np.random.Generator(np.random.PCG64(
            [seed, spec.stream, 17]).advance(start // 2))
        if start % 2:
            rng.integers(0, 2, size=1)
        payload = np.empty(n, dtype=np.uint8)
        for k in range(0, n, 2**22):        # int64 temporaries of 32 MiB
            payload[k:k + 2**22] = rng.integers(0, 2, size=min(n - k, 2**22))
    if not framed:
        return payload
    return framing.frame(payload, make_id(spec.id_kind, spec.label)).bits


# ---------------------------------------------------------------------------
# simulation core

def _dwell_samples(modem: ModemConfig, duration_s: float) -> int:
    """The samples of a dwell of `duration_s`: whole symbols, at least one."""
    sps = modem.samples_per_symbol
    return max(sps, int(round(duration_s * modem.sample_rate)) // sps * sps)


class LinkSimulation:
    """Emitter bit streams plus a channel and a sample clock.

    Every dwell modulates each emitter's window at the current clock, runs
    the channel with the shared noise generator, and advances the clock;
    dwell lengths are snapped to whole symbols so bit alignment is exact.
    A window is a function of the bits alone, so an emitter the mask gates
    to weight 0 is not synthesised: its block in `window` is all zeros.
    Only one dwell's samples exist at a time.

    Each emitter holds one run [lo, hi) of its stream, drawn when first
    read, so a dark emitter draws nothing. A window from at most hi extends
    the run to its end plus `context_symbols`, in whole packets when framed;
    an OOK window from past hi restarts it at its first packet (bit,
    unframed). A GMSK window counts every bit before it, so it reads from
    bit 0. `tx_bits`, the prefix a trace stores, fills [0, lo) first."""

    def __init__(self, scenario: Scenario, seed: int):
        self.scenario = scenario
        self.modem = scenario.modem
        self.fs = self.modem.sample_rate
        self.sps = self.modem.samples_per_symbol
        self.n_pixels = scenario.n_pixels
        self.seed = seed
        self.rng = np.random.default_rng([seed, 31])
        self.clock = 0      # sample index
        self.framed = scenario.protocol is not None
        self.identification_window_s = (
            IDENT_WINDOW_PACKETS * framing.PACKET_BITS
            / self.modem.symbol_rate if self.framed else None)
        self._runs = {e.label: (0, np.uint8([])) for e in scenario.emitters}
        self.window: List[np.ndarray] = []      # emitter blocks of the last dwell

    @property
    def sim_time_s(self) -> float:
        return self.clock / self.fs

    def _held(self, spec: EmitterSpec, first: int, end: int) -> np.ndarray:
        """Bits `first` to hi of an emitter's run, made to reach `end`."""
        unit = framing.PACKET_BITS if self.framed else 1
        lo, bits = self._runs[spec.label]
        if first > lo + len(bits):
            lo, bits = first // unit * unit, bits[:0]
        if first < lo:
            lo, bits = 0, np.concatenate((emitter_bits(
                spec, self.seed, 0, lo, self.framed), bits))
        hi = lo + len(bits)
        if end > hi:
            bits = np.concatenate((bits, emitter_bits(
                spec, self.seed, hi, -(-end // unit) * unit - hi, self.framed)))
        self._runs[spec.label] = lo, bits
        return bits[first - lo:]

    def tx_bits(self, spec: EmitterSpec, n_bits: int) -> np.ndarray:
        """The first n_bits of an emitter's transmit stream."""
        return self._held(spec, 0, n_bits)[:n_bits]

    def dwell(self, mask: PixelMask, duration_s: float) -> np.ndarray:
        first = self.clock // self.sps
        n_symbols = _dwell_samples(self.modem, duration_s) // self.sps
        end = first + n_symbols + self.modem.context_symbols
        start = 0 if self.modem.scheme is Scheme.GMSK else first
        weights = emitter_weights(mask, self.scenario.channel)
        self.window = []    # the last dwell's blocks go before new ones exist
        dark = np.zeros(n_symbols * self.sps)
        self.window = [modulate(self._held(spec, start, end), self.modem,
                                spec.phase_offset, first - start, n_symbols)
                       if weight else dark for spec, weight
                       in zip(self.scenario.emitters, weights)]
        out = receive(self.window, mask, self.scenario.channel, rng=self.rng)
        self.clock += n_symbols * self.sps
        return out

    def decode(self, samples: np.ndarray) -> np.ndarray:
        return demodulate(samples, self.modem, self.scenario.threshold)


# ---------------------------------------------------------------------------
# trace records

def _bits_to_str(bits) -> str:
    return (np.asarray(bits, dtype=np.uint8) + ord("0")).tobytes().decode("ascii")


def _bits_from_str(s: str) -> np.ndarray:
    """uint8 bits of a '0'/'1' string; any other character is an error."""
    try:
        bits = np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")
    except (AttributeError, UnicodeEncodeError):
        bits = None
    if bits is None or (bits.size and bits.max() > 1):
        raise ScenarioError("bit strings may hold only '0' and '1'")
    return bits


def _pack(bits: str) -> dict:
    """A bit field as a trace stores it: the bit count and the base64 of
    the bits packed eight to a byte, the last byte padded with zeros."""
    packed = np.packbits(_bits_from_str(bits)).tobytes()
    return {"n_bits": len(bits),
            "b64": base64.b64encode(packed).decode("ascii")}


def _unpack(value, what: str) -> str:
    """The '0'/'1' string of a packed bit field; a field that is not the
    one encoding `_pack` gives its bits is an error."""
    packed_field = _object(value, what, ("n_bits", "b64"))
    n, text = packed_field.get("n_bits"), packed_field.get("b64")
    if type(n) is not int or n < 0 or not isinstance(text, str):
        raise ScenarioError(
            f"{what} needs a nonnegative integer n_bits and a b64 string")
    try:
        packed = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ScenarioError(f"{what} is not base64: {exc}") from exc
    if len(packed) != -(-n // 8):
        raise ScenarioError(f"{what} holds {len(packed)} bytes, not the "
                            f"{-(-n // 8)} of {n} bits")
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))
    if bits[n:].any() or base64.b64encode(packed).decode("ascii") != text:
        raise ScenarioError(f"{what} has nonzero pad bits")
    return _bits_to_str(bits[:n])


@dataclass
class TraceRecord:
    """A run's trace. Bit fields are '0'/'1' strings here; the JSON form
    packs each one (see `_pack`) and has no indentation."""
    schema_version: int
    scenario_name: str
    scenario_hash: str
    seed: int
    mode: str                       # "fixed_mask" | "protocol"
    converged: Optional[bool]
    events: List[dict]
    dwells: List[dict]              # {t0_s, pixel|mask, start_bit, bits}
    tx_bits: Dict[str, str]         # label -> bit string
    reports: Dict[str, dict]        # label -> report (see _report)
    context: dict                   # what replay needs to recompute

    def to_json(self) -> str:
        doc = dict(vars(self),
                   dwells=[dict(dw, bits=_pack(dw["bits"]))
                           for dw in self.dwells],
                   tx_bits={label: _pack(bits)
                            for label, bits in self.tx_bits.items()})
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "TraceRecord":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"trace parse error: {exc}") from exc
        with _malformed("trace"):
            if d["schema_version"] != TRACE_SCHEMA_VERSION:
                raise ScenarioError(
                    f"trace schema version {d['schema_version']} unsupported")
            fields = dict(_object(d, "trace", cls.__dataclass_fields__))
            fields["dwells"] = [dict(dw, bits=_unpack(dw["bits"], "dwell bits"))
                                for dw in d["dwells"]]
            fields["tx_bits"] = {label: _unpack(bits, f"tx_bits {label!r}")
                                 for label, bits in d["tx_bits"].items()}
            return cls(**fields)

    @classmethod
    def load(cls, path) -> "TraceRecord":
        return cls.from_json(Path(path).read_text())


# ---------------------------------------------------------------------------
# runs

def _expected_packets(start_bit: int, n_bits: int) -> int:
    """Complete 2096-bit packets fully inside [start_bit, start_bit+n_bits)."""
    p = framing.PACKET_BITS
    first = -(-start_bit // p)
    last = (start_bit + n_bits) // p
    return max(0, last - first)


def _window_snrs(sim: LinkSimulation, mask: PixelMask) -> Dict[str, float]:
    """SNR of each emitter in the last dwell: the AC power of its noiseless
    gated window over the channel's noise power, noise_sigma ** 2."""
    cfg = sim.scenario.channel
    snrs = {}
    for i, spec in enumerate(sim.scenario.emitters):
        quiet = replace(cfg, noise_sigma=0.0, emitter_gain=tuple(
            g if j == i else 0.0 for j, g in enumerate(cfg.emitter_gain)))
        snrs[str(spec.label)] = received_snr_db(receive(sim.window, mask, quiet),
                                                cfg.noise_sigma ** 2)
    return snrs


def _report(ctx: dict, ber: float, per: float, snr_db: float,
            bits_compared: int, expected: int, valid: int) -> dict:
    """One emitter's entry in a trace's `reports`."""
    return {"ber": ber, "per_percent": per, "snr_db": snr_db,
            "goodput_bps": goodput(ber, 1.0, ctx["symbol_rate"], 1),
            "bits_compared": bits_compared, "packets_expected": expected,
            "packets_detected_valid": valid}


def _score(record: TraceRecord) -> Dict[str, dict]:
    """The reports of a trace, from its `mode`, per-dwell bits, `tx_bits`
    and `context` alone; a run and its replay both score here.

    A fixed-mask dwell is compared with every emitter's transmit bits; no
    packets are framed, so PER is 0. A protocol dwell is searched for
    packets and compared with every emitter on its pixel from the dwell's
    first detection on; a detection is valid only for the emitter whose
    label it carries; its pixel must be on the shutter that the `init`
    event's mask records. Each label's `snr_db` and the symbol rate
    behind goodput come from `context`."""
    ctx = record.context
    tx = {label: _bits_from_str(bits) for label, bits in record.tx_bits.items()}
    if record.mode == "fixed_mask":
        if not tx:
            return {}
        rx = _bits_from_str(record.dwells[0]["bits"])
        if not len(rx) or any(len(bits) != len(rx) for bits in tx.values()):
            raise ScenarioError("a fixed-mask dwell needs bits, as many as "
                                "each label's tx_bits")
        return {label: _report(ctx, int(np.count_nonzero(bits != rx))
                               / len(rx), 0.0, ctx["snr_db"][label], len(rx),
                               0, 0)
                for label, bits in tx.items()}

    table = IdLookupTable([make_id(IdKind(e["id_kind"]), e["label"])
                           for e in ctx["emitters"]])
    on_pixel: Dict[int, List[int]] = {}
    for e in ctx["emitters"]:
        on_pixel.setdefault(e["pixel"], []).append(e["label"])
    stats = {e["label"]: {"errors": 0, "bits": 0, "expected": 0, "valid": 0}
             for e in ctx["emitters"]}
    n_pixels = next((len(e["mask"]) for e in record.events
                     if e["event"] == "init"), 0)
    for dw in record.dwells:
        start, pixel = dw["start_bit"], dw["pixel"]
        if type(start) is not int or start < 0:
            raise ScenarioError(
                "a dwell's start_bit must be a nonnegative integer")
        if type(pixel) is not int or not 0 <= pixel < n_pixels:
            raise ScenarioError(f"a dwell's pixel must be an integer on the "
                                f"{n_pixels}-pixel shutter")
        rx = _bits_from_str(dw["bits"])
        dets = detect_packets(rx, table, ctx["corr_threshold"])
        for label in on_pixel.get(pixel, ()):
            st = stats[label]
            st["expected"] += _expected_packets(start, len(rx))
            st["valid"] += sum(1 for d in dets if d.label == label)
            if dets:
                o = dets[0].offset
                sent = tx[str(label)][start + o:start + len(rx)]
                if len(sent) != len(rx) - o:
                    raise ScenarioError(f"tx_bits {str(label)!r} ends "
                                        f"inside a dwell of its pixel")
                st["errors"] += int(np.count_nonzero(sent != rx[o:]))
                st["bits"] += len(rx) - o

    reports = {}
    for e in ctx["emitters"]:
        st = stats[e["label"]]
        if st["bits"] == 0 and st["expected"] == 0:
            continue
        ber = st["errors"] / st["bits"] if st["bits"] else 1.0
        per = (packet_error_rate(st["valid"], st["expected"])
               if st["expected"] else 100.0)
        label = str(e["label"])
        reports[label] = _report(ctx, ber, per, ctx["snr_db"][label],
                                 st["bits"], st["expected"], st["valid"])
    return reports


def run_scenario(scenario: Scenario,
                 seed_override: Optional[int] = None) -> TraceRecord:
    """Execute a scenario end to end and return its trace.

    Fixed-mask scenarios modulate and pass through the channel once.
    Protocol scenarios drive the shutter controller and, once locked,
    time-slot reception round-robin over the locked pixels. The trace is
    then scored as `replay_trace` scores it; `tx_bits` keeps the transmit
    bits of the emitters with a report.
    """
    seed = scenario.rng_seed if seed_override is None else seed_override
    if type(seed) is not int or seed < 0:
        raise ScenarioError("seed must be a nonnegative integer")
    run = _run_fixed_mask if scenario.mask is not None else _run_protocol
    record = run(scenario, seed)
    record.reports = _score(record)
    record.tx_bits = {label: bits for label, bits in record.tx_bits.items()
                      if label in record.reports}
    return record


def _record(scenario: Scenario, seed: int, **fields) -> TraceRecord:
    """An unscored trace: its `reports` are empty."""
    return TraceRecord(schema_version=TRACE_SCHEMA_VERSION,
                       scenario_name=scenario.name,
                       scenario_hash=scenario.scenario_hash, seed=seed,
                       reports={}, **fields)


def _run_fixed_mask(scenario: Scenario, seed: int) -> TraceRecord:
    sim = LinkSimulation(scenario, seed)
    mask = scenario.mask
    n_bits = int(round(scenario.duration_s * scenario.modem.symbol_rate))
    ctx = {"symbol_rate": scenario.modem.symbol_rate, "snr_db": {}}
    dwells: List[dict] = []
    tx_store: Dict[str, str] = {}
    if n_bits > 0:
        rx = sim.decode(sim.dwell(mask, scenario.duration_s))
        dwells.append({"t0_s": 0.0, "pixel": None,
                       "mask": mask.states(),
                       "start_bit": 0, "bits": _bits_to_str(rx)})
        tx_store = {str(spec.label):
                    _bits_to_str(sim.tx_bits(spec, len(rx)))
                    for spec in scenario.emitters}
        ctx["snr_db"] = _window_snrs(sim, mask)
    return _record(scenario, seed, mode="fixed_mask", converged=None,
                   events=[], dwells=dwells, tx_bits=tx_store, context=ctx)


def _run_protocol(scenario: Scenario, seed: int) -> TraceRecord:
    params = scenario.protocol
    sim = LinkSimulation(scenario, seed)
    n = scenario.n_pixels
    result = run_controller(sim, params, scenario.id_table)
    pixels = scenario.channel.emitter_pixel
    ctx = dict(symbol_rate=scenario.modem.symbol_rate,
               corr_threshold=params.corr_threshold,
               emitters=[{"label": e.label, "id_kind": e.id_kind.value,
                          "pixel": p}
                         for e, p in zip(scenario.emitters, pixels)],
               snr_db={str(e.label): result.pixel_snr_db[p] for e, p
                       in zip(scenario.emitters, pixels)
                       if result.pixel_snr_db})     # {} if no scan ran

    dwells: List[dict] = []
    end_bit: Dict[int, int] = {}        # pixel -> end of its last dwell
    if result.converged and scenario.duration_s > 0:
        locked = sorted(result.locked_pixels)
        remaining = scenario.duration_s
        while remaining >= params.T_s / 2:
            pixel = locked[len(dwells) % len(locked)]
            t0 = sim.sim_time_s
            start_bit = sim.clock // sim.sps
            rx = sim.decode(sim.dwell(PixelMask(n, {pixel}), params.T_s))
            dwells.append({"t0_s": round(t0, 9), "pixel": pixel,
                           "start_bit": int(start_bit),
                           "bits": _bits_to_str(rx)})
            end_bit[pixel] = start_bit + len(rx)
            remaining -= len(rx) * sim.sps / sim.fs     # the dwell's duration

    tx_store = {str(spec.label): _bits_to_str(
                    sim.tx_bits(spec, end_bit[pixel]))
                for spec, pixel in zip(scenario.emitters, pixels)
                if pixel in end_bit}
    return _record(scenario, seed, mode="protocol", converged=result.converged,
                   events=result.events, dwells=dwells, tx_bits=tx_store,
                   context=ctx)


def replay_trace(record: TraceRecord) -> Dict[str, dict]:
    """Recompute the reports of a trace with the scoring a run uses; its
    stored reports are ignored. A report edited in the trace
    therefore differs from its replay; bits and `context` edited
    consistently with the reports do not show. A trace with a field missing
    or malformed raises a ScenarioError."""
    if record.mode not in ("fixed_mask", "protocol"):
        raise ScenarioError(f"unknown trace mode {record.mode!r}")
    with _malformed("trace"):
        return _score(record)
