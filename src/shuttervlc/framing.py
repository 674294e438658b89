"""Packetization with Barker-code transmitter IDs and correlation detection.

Packets are fixed 2096-bit frames: a 13-bit header identifying the
transmitter followed by a 2083-bit payload. Detection looks up the best
bipolar correlation score (agreements minus disagreements over the 13
bits) of the 13-bit window at each offset of a bit stream and thresholds it.
"""

import enum
import functools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

HEADER_BITS = 13
PACKET_BITS = 2096
PAYLOAD_BITS = PACKET_BITS - HEADER_BITS

# canonical Barker codes, bipolar +1/-1 mapped to bits 1/0
BARKER_13 = (1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1)
BARKER_11 = (1, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0)


class FramingError(ValueError):
    """Raised for malformed packets or an unusable lookup table."""


class IdKind(enum.Enum):
    BARKER13 = "BARKER13"
    BARKER11_PADDED = "BARKER11_PADDED"


@dataclass(frozen=True)
class TransmitterId:
    id_bits: Tuple[int, ...]
    label: int

    def __post_init__(self):
        bits = tuple(int(b) for b in self.id_bits)
        object.__setattr__(self, "id_bits", bits)
        if len(bits) != HEADER_BITS or any(b not in (0, 1) for b in bits):
            raise FramingError(f"header must be exactly {HEADER_BITS} bits")


def make_id(kind: IdKind, label: int = 1) -> TransmitterId:
    """Build a header ID: the 13-chip Barker code, or the 11-chip code
    padded with '11' to 13 bits."""
    if kind is IdKind.BARKER13:
        return TransmitterId(BARKER_13, label)
    return TransmitterId(BARKER_11 + (1, 1), label)


@dataclass(frozen=True, eq=False)
class Packet:
    """Back-to-back packets of one transmitter: its header before each
    2083-bit payload."""
    header: TransmitterId
    payload: np.ndarray     # uint8, a whole number of payloads

    def __post_init__(self):
        payload = np.asarray(self.payload, dtype=np.uint8)
        object.__setattr__(self, "payload", payload)
        if payload.ndim != 1 or payload.size == 0 \
                or payload.size % PAYLOAD_BITS:
            raise FramingError(f"payload must be a whole number of "
                               f"{PAYLOAD_BITS}-bit payloads")

    @property
    def bits(self) -> np.ndarray:
        payloads = self.payload.reshape(-1, PAYLOAD_BITS)
        header = np.array(self.header.id_bits, dtype=np.uint8)
        return np.hstack([np.broadcast_to(header, (len(payloads), HEADER_BITS)),
                          payloads]).ravel()


def frame(payload: Sequence[int], tid: TransmitterId) -> Packet:
    """Prepend the transmitter header to each 2083-bit payload in
    `payload`."""
    return Packet(tid, payload)


class IdLookupTable:
    """Registered transmitter IDs, fixed before the link runs; no two may
    share a header."""

    def __init__(self, ids: Sequence[TransmitterId] = ()):
        self.ids: List[TransmitterId] = list(ids)
        if len({tid.id_bits for tid in self.ids}) < len(self.ids):
            raise FramingError("duplicate id_bits in lookup table")

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class Detection:
    offset: int
    label: int
    score: int


@functools.lru_cache(maxsize=64)
def _window_table(headers: Tuple[Tuple[int, ...], ...]):
    """(score, k) of each 13-bit code, whose bit 12 - t is a window's bit t:
    the best correlation score of the headers, as int8, and the first
    header that reaches it. Built once per header set, when first used."""
    codes = np.arange(2**HEADER_BITS)
    scores = [2 * sum((codes >> 12 - t & 1) == b for t, b in enumerate(header))
              - HEADER_BITS for header in headers]
    # the first on a tie; both tables, which stay, in the smallest types
    best_id = np.argmax(scores, axis=0).astype(np.min_scalar_type(len(scores)))
    best_score = np.max(scores, axis=0).astype(np.int8)
    best_score.flags.writeable = best_id.flags.writeable = False
    return best_score, best_id


def detect_packets(bits: Sequence[int], table: IdLookupTable,
                   corr_threshold: int = 11) -> List[Detection]:
    """Find packets in a decoded bit stream by header correlation.

    Packets are fixed-length and back-to-back, so all true headers share
    one offset modulo the packet length. Header-shaped patterns also occur
    inside random payload, so instead of taking matches greedily the
    detector picks the packet-grid alignment with the most above-threshold
    hits (ties: higher total score, then lower offset) and emits detections
    along that lattice; at each hit the highest-scoring registered ID wins,
    the first on a tie. Only offsets where the complete 2096-bit packet fits
    are reported. The 13 bits at an offset are a code, which one lookup in
    a table per header set turns into that score and ID, whatever the
    number of IDs. Bits other than 0 and 1 are an error.
    """
    if len(table) == 0:
        raise FramingError("empty lookup table")
    if not (1 <= corr_threshold <= HEADER_BITS):
        raise FramingError("corr_threshold must be in [1, 13]")
    bits = np.asarray(bits)
    ones = bits.astype(bool)
    if np.any(ones != bits):
        raise FramingError("bits must be 0 or 1")
    if len(bits) < PACKET_BITS:
        return []
    n = len(bits) - PACKET_BITS + 1     # offsets scored
    # codes[r, j] is the window at offset 8 j + r: bits r to r + 12 of the
    # 24 from byte j on, which the packet after the last offset holds
    p = np.packbits(ones[:n + 23]).astype(np.int32)
    words = p[:-2] << 16 | p[1:-1] << 8 | p[2:]
    codes = words >> np.arange(11, 3, -1, dtype=np.int32)[:, None]
    codes &= 2**HEADER_BITS - 1
    ids = table.ids
    table_score, table_id = _window_table(tuple(tid.id_bits for tid in ids))
    best_score = np.take(table_score, codes).T.ravel()[:n]
    hits = np.flatnonzero(best_score >= corr_threshold)
    if hits.size == 0:
        return []
    residues = hits % PACKET_BITS
    counts = np.bincount(residues)
    totals = np.bincount(residues, weights=best_score[hits])
    # the last key sorts first: most hits, then highest total, then residue
    lattice = np.lexsort((np.arange(len(counts)), -totals, -counts))[0]
    return [Detection(int(off), ids[table_id[codes[off % 8, off // 8]]].label,
                      int(best_score[off]))
            for off in hits[residues == lattice]]
