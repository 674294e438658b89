"""Pinned simulation output, the memory bound of per-dwell generation, the
cost of a dwell on the paper's largest shutter and the emitters a dwell
synthesises.

The first five digests were taken from the simulator that precomputed every
emitter's waveform over the worst-case controller horizon, the next four
from the one that synthesised every emitter on every dwell; generating only
the windows the shutter lets through must reproduce their traces bit for
bit. The last four pin GMSK operating points (noise sigma <= 0.1) as the
evenly padded demodulator decoded them, before its FFT length was rounded
up to a 5-smooth number.

The eight GMSK digests were retaken when the data phase came to be computed
at the symbol rate (an integer running sum plus the pulse tails) instead of
as a running sum of the sample-rate frequency. The phase moved only by the
rounding drift of that running sum (5e-11 rad after 300 000 symbols at 8
samples per symbol); every decoded bit, detection, event and transmit bit
stayed the same, and a few SNR floats changed, by at most 1.2e-12 dB.

The eight protocol digests were retaken when the controller's dwell events
stopped recording a mask (trace schema 3): every other simulated field
stayed the same, and so did every event once the dwell events' `mask` was
deleted. The five fixed-mask digests are unchanged.

All thirteen were retaken when a trace stopped storing its detections and
the `discovery_done` event's per-pixel SNRs (trace schema 4), over the
fields a trace still has: each new digest equals the old code's digest of
the same four fields once `discovery_done.pixel_snr_db` is deleted. The
last digest, `protocol_multi`, was taken then.

Six GMSK digests were retaken when the full-band FFT discriminator gave way
to a receiver that mixes each one-symbol window down and sums it before it
discriminates, and the frequency pulse came to be built by a running-sum
difference: `gmsk_demo_sigma0.1`, `protocol_clean_gmsk4`,
`protocol_clean_gmsk16` and the `_leak`, `_sigma0.1` and `_gain0` variants
of `protocol_clean_gmsk8`. In each, the events, the transmit bits and the
packet counts stayed the same; 1 to 730 decoded bits changed, and no BER
rose (0.00576 -> 0.00095 at `protocol_clean_gmsk8_sigma0.1`). The 3 bits
that changed in `_gain0` are each the first bit of a slot, before the
slot's first detection, so none is scored. `_leak`'s report SNR moved by
4e-15 dB with the pulse. `gmsk_demo`, `protocol_clean_gmsk8` and the six
OOK digests did not move.

The eight GMSK digests were retaken when GMSK samples came to be read from
a table of symbol waveforms, with the subcarrier at its phase within the
symbol instead of at 2 pi k / sps for the absolute sample index k, which
rounds worse as k grows. In each, `events`, `dwells`, `tx_bits` and
`converged` stayed the same; only the `snr_db` floats of the reports and
the context changed, by at most 3.7e-13 dB. The six OOK digests did not
move.

`protocol_clean_gmsk8_leak` and `protocol_clean_gmsk8_sigma0.1` were
retaken when the SNR came to take libm's log10 instead of numpy's: only
the last ulps of their `snr_db` floats moved, to the values that AVX2 and
baseline SIMD dispatch had computed all along.

The five fixed-mask digests were retaken when a fixed-mask run's SNR came
to divide its gated window's AC power by the channel's stated noise power,
noise_sigma ** 2, instead of by the variance of a second, full-length
noise draw: `gmsk_demo`, `gmsk_demo_sigma0.1`, `table1_type1_case1_leak`,
`table1_type4_case1` and `table1_type4_case2_leak`. Only the reports'
`snr_db` floats moved, by at most 0.076 dB; `dwells`, `events`, `tx_bits`
and every other report key stayed the same. The nine protocol digests did
not move.
"""

import hashlib
import json
import tracemalloc

import pytest

from shuttervlc import modem, scenario
from shuttervlc.scenario import (TraceRecord, bundled_scenario,
                                 run_scenario, scenario_from_dict)

SIMULATED_FIELDS = ("dwells", "events", "tx_bits", "reports")

# sha256 of the simulated fields of each case's trace, at its bundled seed,
# as JSON with the bits as '0'/'1' text: the digests were taken over that
# text, which a trace's JSON held until it came to pack its bits, and which
# decoding a trace gives back. The SNRs take libm's log10 and the GMSK
# pulse libm's exp, so a digest does not depend on numpy's SIMD dispatch
PINNED = {
    "protocol_clean":
        "0c94c8778343c50433ad07d19c0e5400a5200af2763a56161bf97560b6cc760d",
    "protocol_all_off":
        "e9dfa0e4490fb57e0b98c07d88fd881746af5fba78b78dad9f5b45f053b5df86",
    "gmsk_demo":
        "0017144d1b7d2456302be5eeb2e59552ca575887782585ed8aff101c0d291ca6",
    # a same_as bit source on an INVERTED emitter
    "table1_type4_case1":
        "0084dc2e0d33e544ba0cd6f218fac20500641ada5484b5b81938579e5c6b9c05",
    "protocol_clean_gmsk8":
        "c66534b3d4d6f214254b29e62d6e5d100ec6bbbf6bc9bfade60e14f9194bc1d9",
    # closed pixels leak, so blocked emitters must still be synthesised
    "protocol_clean_gmsk8_leak":
        "cc7e8d935d170789d5f3192eb89a5c02e5ffc10f5827be8bce2ca444dd3a6dad",
    "table1_type1_case1_leak":
        "ec6d703be1205585a08ac670f64c9c0435dcbe3158090ef1211429570ff499b7",
    # a fixed mask that closes emitter 2's pixel
    "table1_type4_case2_leak":
        "bc500d206ca311cdd9ca1c3e19decb2ca8025766e2396e09444caeec9de72fdb",
    # an open pixel whose emitter has gain 0 is not synthesised either
    "protocol_clean_gmsk8_gain0":
        "2802371c782379d71f15781f02049e6179c925be4e380a99cb979d01f6f3026b",
    # GMSK operating points whose decisions the demodulator must keep
    "protocol_clean_gmsk4":
        "9f0c1d1ab2348a4864a7631cc3eac84df4f684c1bab99f7a02652a0c02cefbdc",
    "protocol_clean_gmsk16":
        "c3a6221f07702ada035596fd2b6b9070496cad5d4734e75483742fa594b85cea",
    "protocol_clean_gmsk8_sigma0.1":
        "75049e3d9b2ac599cb8e936e75128c129a2a4c5b633510542661b54c526df025",
    "gmsk_demo_sigma0.1":
        "f2241be06255a93038a3366bbe3e102b197af71b34ddb7cd3b0107058695af20",
    # no select_target: two pixels lock and share the slots
    "protocol_multi":
        "9d5ab60ef60844fa5d8b4c8ead80a051686b3024acba1330896e8ae49396adc9",
}


def _doc(name: str) -> dict:
    sps = name.removeprefix("protocol_clean_gmsk")
    if sps.isdigit():
        doc = _doc("protocol_clean")
        doc["modem"].update(scheme="GMSK", samples_per_symbol=int(sps))
        return doc
    if name.endswith("_sigma0.1"):
        doc = _doc(name[:-len("_sigma0.1")])
        doc["channel"]["noise_sigma"] = 0.1
        return doc
    if name == "protocol_clean_gmsk8_leak":
        doc = _doc("protocol_clean_gmsk8")
        doc["channel"]["closed_leakage"] = 0.05
        return doc
    if name == "protocol_clean_gmsk8_gain0":
        doc = _doc("protocol_clean_gmsk8")
        doc["emitters"][1]["gain"] = 0.0
        return doc
    if name.endswith("_leak"):
        doc = _doc(name[:-len("_leak")])
        doc["channel"]["closed_leakage"] = 0.1
        return doc
    return json.loads(json.dumps(bundled_scenario(name).source_dict))


def simulated_digest(record) -> str:
    doc = vars(TraceRecord.from_json(record.to_json()))
    blob = json.dumps({k: doc[k] for k in SIMULATED_FIELDS}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_simulated_fields_match_pinned_digest(name):
    record = run_scenario(scenario_from_dict(_doc(name)))
    assert simulated_digest(record) == PINNED[name]


def _grid_doc(rows: int, cols: int) -> dict:
    """protocol_clean on a rows x cols shutter, its emitters in opposite
    corners (pixels 0 and n-1), with no locked time."""
    n = rows * cols
    doc = _doc("protocol_clean")
    doc["duration_s"] = 0.0
    doc["optics"].update(grid_rows=rows, grid_cols=cols)
    doc["channel"]["ambient_dc"] = [0.0] * n
    doc["emitters"][1]["pixel"] = n - 1
    return doc


def test_grid_protocol_peak_memory_bounded_by_one_dwell():
    # when the run precomputed its worst-case horizon this peaked at 367 MiB
    scenario = scenario_from_dict(_grid_doc(6, 6))
    tracemalloc.start()
    try:
        record = run_scenario(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record.converged and record.events[-1]["locked_pixels"] == [0]
    assert peak < 64 * 2**20


def test_paper_scale_grid_costs_o_open_pixels_per_dwell():
    # Table V's 100x100 shutter at T_s = 20 us and 1 MHz: when every dwell
    # summed the ambient light of all n pixels and every dwell event stored
    # an n-entry mask, this run took 39 s on a 2-vCPU host, peaked at
    # 1.2 GiB and wrote a 192 MiB trace
    n = 100 * 100
    doc = _grid_doc(100, 100)
    doc["modem"]["symbol_rate"] = 1e6
    doc["protocol"]["T_s"] = 20e-6
    scenario = scenario_from_dict(doc)
    tracemalloc.start()
    try:
        record = run_scenario(scenario)
        text = record.to_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record.converged and record.events[-1]["locked_pixels"] == [0]
    # init, the noise reference, n probes, discovery_done, two
    # identification dwells and the lock
    assert len(record.events) == n + 6
    # each pixel's SNR is stored once, on its probe event; when it was also
    # on discovery_done and in the context, and the trace stored its
    # detections, the trace was 1.45 MiB
    assert len(text) < 1.25 * 2**20
    assert peak < 64 * 2**20
    dwell_events = {"noise_reference_dwell", "discovery_dwell",
                    "identification_dwell"}
    for event in record.events:
        if event["event"] in dwell_events:
            assert "mask" not in event
        else:
            assert len(event["mask"]) == n
        assert ("pixel_snr_db" in event) == (event["event"] == "discovery_dwell")
    doc = json.loads(text)
    assert "detections" not in doc
    assert set(doc["context"]["snr_db"]) == {str(e.label)
                                             for e in scenario.emitters}


def test_blocked_emitters_are_not_modulated(monkeypatch):
    # protocol_clean's controller dwells five times (noise reference, two
    # discovery scans, two identifications) with one pixel open or none,
    # so only one of its two emitters is ever let through, and a GMSK
    # dwell looks up the waveform rows of that one window only
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scenario, "modulate",
                        counting("modulate", scenario.modulate))
    monkeypatch.setattr(modem, "_gmsk_rows",
                        counting("waveform", modem._gmsk_rows))
    gmsk = {"scheme": "GMSK", "samples_per_symbol": 8}
    for modem_update, gmsk_windows in (({}, 0), (gmsk, 4)):
        calls.update(modulate=0, waveform=0)
        doc = _doc("protocol_clean")
        doc["duration_s"] = 0.0
        doc["modem"].update(modem_update)
        record = run_scenario(scenario_from_dict(doc))
        assert record.converged
        assert calls == {"modulate": 4, "waveform": gmsk_windows}
