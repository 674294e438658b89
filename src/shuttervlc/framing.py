"""Packetization with Barker-code transmitter IDs and correlation detection.

Packets are fixed 2096-bit frames: a 13-bit header identifying the
transmitter followed by a 2083-bit payload. Detection slides each
registered header over a decoded bit stream and thresholds the bipolar
correlation score (agreements minus disagreements over the 13 bits).
"""

import enum
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


def correlation_scores(bits: np.ndarray, id_bits: Sequence[int]) -> np.ndarray:
    """Bipolar sliding correlation of a header over a bit stream: at each
    offset, agreements minus disagreements, 2 * agreements - len(id_bits)."""
    bits = np.asarray(bits, dtype=np.uint8)
    n = max(len(bits) - len(id_bits) + 1, 0)
    agree = np.zeros(n, dtype=np.int16)
    for t, b in enumerate(id_bits):
        agree += bits[t:t + n] == b
    return 2 * agree - len(id_bits)


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
    are reported.
    """
    if len(table) == 0:
        raise FramingError("empty lookup table")
    if not (1 <= corr_threshold <= HEADER_BITS):
        raise FramingError("corr_threshold must be in [1, 13]")
    bits = np.asarray(bits, dtype=np.uint8)
    if len(bits) < PACKET_BITS:
        return []
    ids = table.ids
    head = bits[:len(bits) - PACKET_BITS + HEADER_BITS]
    # a running vote: a strict > keeps the first ID on a tie
    best_score = correlation_scores(head, ids[0].id_bits)
    best_id = np.zeros(len(best_score), dtype=np.intp)
    for k, tid in enumerate(ids[1:], 1):
        score = correlation_scores(head, tid.id_bits)
        best_id[score > best_score] = k
        np.maximum(best_score, score, out=best_score)
    hits = np.nonzero(best_score >= corr_threshold)[0]
    if hits.size == 0:
        return []
    residues = hits % PACKET_BITS
    counts = np.bincount(residues)
    totals = np.bincount(residues, weights=best_score[hits])
    # the last key sorts first: most hits, then highest total, then residue
    lattice = np.lexsort((np.arange(len(counts)), -totals, -counts))[0]
    return [Detection(int(off), ids[int(best_id[off])].label,
                      int(best_score[off]))
            for off in hits[residues == lattice]]
