"""Packetization, Barker-code headers and correlation detection."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shuttervlc import framing
from shuttervlc.framing import (BARKER_11, BARKER_13, HEADER_BITS, PACKET_BITS,
                                PAYLOAD_BITS, Detection, FramingError, IdKind,
                                IdLookupTable, TransmitterId, detect_packets,
                                frame, make_id)


def correlation_scores(bits, id_bits) -> np.ndarray:
    """Bipolar sliding correlation of a header over a bit stream: at each
    offset, agreements minus disagreements, 2 * agreements - len(id_bits).
    The oracle of the window-code lookup in `detect_packets`."""
    bits = np.asarray(bits, dtype=np.uint8)
    n = max(len(bits) - len(id_bits) + 1, 0)
    agree = np.zeros(n, dtype=np.int16)
    for t, b in enumerate(id_bits):
        agree += bits[t:t + n] == b
    return 2 * agree - len(id_bits)


def _brute_force_autocorr(code):
    """Aperiodic bipolar autocorrelation at every lag, by direct loop."""
    bip = [2 * b - 1 for b in code]
    n = len(bip)
    out = {}
    for lag in range(-(n - 1), n):
        s = 0
        for i in range(n):
            j = i + lag
            if 0 <= j < n:
                s += bip[i] * bip[j]
        out[lag] = s
    return out


@pytest.mark.parametrize("code", [BARKER_13, BARKER_11])
def test_barker_autocorrelation_oracle(code):
    ac = _brute_force_autocorr(code)
    assert ac[0] == len(code)
    assert max(abs(v) for lag, v in ac.items() if lag != 0) <= 1


def test_header_constants():
    assert HEADER_BITS == 13
    assert PACKET_BITS == 2096
    assert PAYLOAD_BITS == 2083
    assert len(BARKER_13) == 13 and len(BARKER_11) == 11


def test_make_id_variants():
    a = make_id(IdKind.BARKER13, 1)
    b = make_id(IdKind.BARKER11_PADDED, 2)
    assert a.id_bits == BARKER_13
    assert b.id_bits == BARKER_11 + (1, 1)
    assert a.id_bits != b.id_bits


def test_frame_deframe_roundtrip():
    rng = np.random.default_rng(3)
    payload = tuple(int(b) for b in rng.integers(0, 2, PAYLOAD_BITS))
    tid = make_id(IdKind.BARKER13, 7)
    pkt = frame(payload, tid)
    assert len(pkt.bits) == PACKET_BITS
    assert tuple(pkt.bits[:HEADER_BITS]) == tid.id_bits
    assert tuple(pkt.bits[HEADER_BITS:]) == payload


def test_framing_k_payloads_is_k_frames_concatenated():
    rng = np.random.default_rng(4)
    tid = make_id(IdKind.BARKER11_PADDED, 2)
    for k in (1, 2, 5):
        payloads = rng.integers(0, 2, (k, PAYLOAD_BITS)).astype(np.uint8)
        bits = frame(payloads.ravel(), tid).bits
        assert bits.dtype == np.uint8
        np.testing.assert_array_equal(
            bits, np.concatenate([frame(p, tid).bits for p in payloads]))


def test_frame_validation():
    with pytest.raises(FramingError):
        frame((0, 1), make_id(IdKind.BARKER13))
    with pytest.raises(FramingError):
        TransmitterId((0, 1), 1)


def test_lookup_table():
    table = IdLookupTable([make_id(IdKind.BARKER13, 1),
                           make_id(IdKind.BARKER11_PADDED, 2)])
    assert len(table) == 2
    assert [tid.label for tid in table.ids] == [1, 2]
    assert [tid.id_bits for tid in table.ids] == [BARKER_13, BARKER_11 + (1, 1)]
    with pytest.raises(FramingError):
        IdLookupTable([make_id(IdKind.BARKER13, 1),
                       make_id(IdKind.BARKER13, 9)])


def test_correlation_score_counts_disagreements():
    # score = 13 - 2 * (# flipped chips)
    base = np.array(BARKER_13)
    scores = correlation_scores(base, BARKER_13)
    assert scores[0] == 13
    for flips, expected in ((1, 11), (3, 7), (6, 1)):
        corrupted = base.copy()
        corrupted[:flips] ^= 1
        assert correlation_scores(corrupted, BARKER_13)[0] == expected


@settings(max_examples=60, deadline=None)
@given(n_bits=st.integers(0, 200), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(list(IdKind)))
def test_correlation_scores_match_bipolar_correlate(n_bits, seed, kind):
    # the scores count agreements; the bipolar dot product is the oracle
    bits = np.random.default_rng(seed).integers(0, 2, n_bits)
    id_bits = make_id(kind).id_bits
    expected = np.correlate(2.0 * bits - 1, 2.0 * np.array(id_bits) - 1,
                            mode="valid") if n_bits >= HEADER_BITS else []
    np.testing.assert_array_equal(correlation_scores(bits, id_bits), expected)


def _packet_stream(labels, rng):
    chunks = []
    for lab in labels:
        tid = make_id(IdKind.BARKER13 if lab == 1 else IdKind.BARKER11_PADDED,
                      lab)
        payload = rng.integers(0, 2, PAYLOAD_BITS)
        chunks.append(frame(tuple(payload), tid).bits)
    return np.concatenate(chunks)


def test_detect_exact_count_property():
    rng = np.random.default_rng(77)
    for _ in range(100):
        k = int(rng.integers(1, 51))
        labels = rng.choice([1, 2], size=k)
        bits = _packet_stream(labels, rng)
        table = IdLookupTable([make_id(IdKind.BARKER13, 1),
                               make_id(IdKind.BARKER11_PADDED, 2)])
        dets = detect_packets(bits, table)
        assert len(dets) == k
        assert [d.offset for d in dets] == [i * PACKET_BITS for i in range(k)]
        assert [d.label for d in dets] == list(labels)
        assert all(d.score == 13 for d in dets)


def test_detect_with_unaligned_lead_in():
    # random bits before the packet grid must not shift the detections
    rng = np.random.default_rng(13)
    table = IdLookupTable([make_id(IdKind.BARKER13, 1),
                           make_id(IdKind.BARKER11_PADDED, 2)])
    for _ in range(20):
        k = int(rng.integers(2, 8))
        lead = int(rng.integers(1, PACKET_BITS))
        bits = np.concatenate([rng.integers(0, 2, lead),
                               _packet_stream([1] * k, rng)])
        dets = detect_packets(bits, table)
        true_offsets = {lead + i * PACKET_BITS for i in range(k)}
        found = {d.offset for d in dets if d.label == 1 and d.score == 13}
        assert true_offsets <= found
        # everything reported sits on the true packet lattice
        assert all(d.offset % PACKET_BITS == lead % PACKET_BITS for d in dets)


def test_detect_recovers_corrupted_headers():
    rng = np.random.default_rng(21)
    bits = _packet_stream([1, 1, 1], rng)
    bits[PACKET_BITS] ^= 1   # one chip error in the middle packet's header
    table = IdLookupTable([make_id(IdKind.BARKER13, 1)])
    dets = detect_packets(bits, table, corr_threshold=11)
    assert [d.offset for d in dets] == [0, PACKET_BITS, 2 * PACKET_BITS]
    assert dets[1].score == 11


def test_detect_argument_validation():
    table = IdLookupTable([make_id(IdKind.BARKER13, 1)])
    with pytest.raises(FramingError):
        detect_packets([0, 1], IdLookupTable())
    with pytest.raises(FramingError):
        detect_packets([0, 1], table, corr_threshold=0)
    assert detect_packets([0, 1, 0], table) == []   # shorter than a packet


def _reference_detect(bits, table, corr_threshold):
    """The lattice vote as a Python loop over the hits: most hits, then
    highest total score, then lowest residue."""
    bits = np.asarray(bits, dtype=int)
    if len(bits) < PACKET_BITS:
        return []
    ids = table.ids
    scores = np.stack([correlation_scores(bits, tid.id_bits) for tid in ids])
    last = len(bits) - PACKET_BITS
    best_id = np.argmax(scores[:, :last + 1], axis=0)
    best_score = scores[best_id, np.arange(last + 1)]
    hits = np.nonzero(best_score >= corr_threshold)[0]
    if hits.size == 0:
        return []
    residues = hits % PACKET_BITS
    counts: dict = {}
    for off, res in zip(hits, residues):
        cnt, tot = counts.get(res, (0, 0))
        counts[res] = (cnt + 1, tot + int(best_score[off]))
    lattice = min(counts, key=lambda r: (-counts[r][0], -counts[r][1], r))
    return [Detection(int(off), ids[int(best_id[off])].label,
                      int(best_score[off]))
            for off in hits[residues == lattice]]


# three hits of score 7 outvote two of score 13 despite a lower total
@example(n_bits=3 * PACKET_BITS + 400, seed=0, lattices=[(5, 3, 3), (900, 2, 0)],
         kinds=[IdKind.BARKER13], corr_threshold=7)
@settings(max_examples=80, deadline=None)
@given(n_bits=st.integers(PACKET_BITS - 1, 3 * PACKET_BITS + 400),
       seed=st.integers(0, 2**32 - 1),
       lattices=st.lists(st.tuples(st.integers(0, PACKET_BITS - 1),
                                   st.integers(1, 3), st.integers(0, 3)),
                         max_size=3),
       kinds=st.sampled_from([[IdKind.BARKER13], [IdKind.BARKER11_PADDED],
                              list(IdKind)]),
       corr_threshold=st.sampled_from([7, 9, 11, 13]))
def test_detect_matches_reference_lattice_vote(n_bits, seed, lattices, kinds,
                                               corr_threshold):
    # plant up to three lattices of headers, each (residue, packets, header
    # bits flipped), so residues tie on hit count and on total score or
    # trade one for the other; low thresholds add random payload hits
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, n_bits)
    ids = [make_id(kind, label) for label, kind in enumerate(kinds, 1)]
    for i, (res, repeats, flips) in enumerate(lattices):
        header = np.array(ids[i % len(ids)].id_bits)
        header[:flips] ^= 1
        for k in range(repeats):
            off = res + k * PACKET_BITS
            if off + HEADER_BITS <= n_bits:
                bits[off:off + HEADER_BITS] = header
    table = IdLookupTable(ids)
    assert (detect_packets(bits, table, corr_threshold)
            == _reference_detect(bits, table, corr_threshold))


@pytest.mark.parametrize("order", [(1, 2), (2, 1)])
def test_detect_tied_ids_go_to_the_first_registered(order):
    # the two headers differ in 8 chips; flipping every other one of them
    # gives a header that scores 5 against both, so the table's first ID
    # must win
    kinds = {1: IdKind.BARKER13, 2: IdKind.BARKER11_PADDED}
    ids = [make_id(kinds[label], label) for label in order]
    h1, h2 = (np.array(tid.id_bits) for tid in ids)
    tied = h1.copy()
    tied[np.flatnonzero(h1 != h2)[::2]] ^= 1
    bits = np.zeros(3 * PACKET_BITS, dtype=int)
    for k in range(3):
        bits[7 + k * PACKET_BITS:7 + k * PACKET_BITS + HEADER_BITS] = tied
    table = IdLookupTable(ids)
    dets = detect_packets(bits, table, corr_threshold=5)
    assert dets == _reference_detect(bits, table, 5)
    assert [(d.offset, d.label, d.score) for d in dets] == [
        (7, order[0], 5), (7 + PACKET_BITS, order[0], 5)]


_BARKER_HEADERS = [BARKER_13, BARKER_11 + (1, 1)]


# thresholds of 1 tie most offsets between IDs and most residues on count
@example(n_bits=2 * PACKET_BITS, seed=0, headers=_BARKER_HEADERS,
         corr_threshold=1, tied=[(0, 1)], residue=3)
@settings(max_examples=150, deadline=None)
@given(n_bits=st.integers(PACKET_BITS - 3, PACKET_BITS + 40)
       | st.integers(2 * PACKET_BITS - 9, 3 * PACKET_BITS + 9),
       seed=st.integers(0, 2**32 - 1),
       headers=st.lists(st.sampled_from(_BARKER_HEADERS)
                        | st.tuples(*[st.integers(0, 1)] * HEADER_BITS),
                        min_size=1, max_size=5, unique=True),
       corr_threshold=st.integers(1, HEADER_BITS),
       tied=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                     max_size=2),
       residue=st.integers(0, PACKET_BITS - 1))
def test_window_lookup_matches_sliding_correlation(n_bits, seed, headers,
                                                   corr_threshold, tied,
                                                   residue):
    # N headers, with the Barker ones among them, at every threshold: the
    # lookup's score, ID and lattice are the correlation's. Each (a, b) in
    # `tied` plants, on one lattice, a window as far from header a as from
    # header b, so the first registered of the two must win
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, n_bits)
    for i, (a, b) in enumerate(tied):
        ha, hb = (np.array(headers[k % len(headers)]) for k in (a, b))
        window = ha.copy()
        window[np.flatnonzero(ha != hb)[::2]] ^= 1
        for off in range(residue + 7 * i, n_bits - HEADER_BITS + 1,
                         PACKET_BITS):
            bits[off:off + HEADER_BITS] = window
    table = IdLookupTable([TransmitterId(h, label)
                           for label, h in enumerate(headers, 1)])
    assert (detect_packets(bits, table, corr_threshold)
            == _reference_detect(bits, table, corr_threshold))


@pytest.mark.parametrize("bad", [2, -1, 0.5, 255, np.nan])
@pytest.mark.parametrize("n_bits", [3, PACKET_BITS + 5])
def test_detect_rejects_bits_other_than_0_and_1(bad, n_bits):
    table = IdLookupTable([make_id(IdKind.BARKER13, 1)])
    bits = np.zeros(n_bits)
    bits[-1] = bad
    with pytest.raises(FramingError, match="0 or 1"):
        detect_packets(bits, table)
    with pytest.raises(FramingError, match="0 or 1"):
        detect_packets(list(bits), table)
    assert detect_packets(np.zeros(n_bits, dtype=bool), table) == []


def test_window_table_is_built_once_per_header_set():
    framing._window_table.cache_clear()
    bits = _packet_stream([1, 2, 1], np.random.default_rng(5))
    ids = [make_id(IdKind.BARKER13, 1), make_id(IdKind.BARKER11_PADDED, 2)]
    for _ in range(3):      # a table of its own each time, as replay builds
        assert len(detect_packets(bits, IdLookupTable(ids))) == 3
    # labels do not enter the table; the order of the headers does
    relabelled = [TransmitterId(tid.id_bits, tid.label + 10) for tid in ids]
    detect_packets(bits, IdLookupTable(relabelled))
    assert framing._window_table.cache_info().misses == 1
    dets = detect_packets(bits, IdLookupTable(ids[::-1]))
    assert framing._window_table.cache_info().misses == 2
    assert [d.label for d in dets] == [1, 2, 1]
