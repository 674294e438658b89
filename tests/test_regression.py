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
"""

import hashlib
import json
import tracemalloc

import pytest

from shuttervlc import modem, scenario
from shuttervlc.scenario import (TraceRecord, bundled_scenario,
                                 run_scenario, scenario_from_dict)

SIMULATED_FIELDS = ("dwells", "detections", "events", "tx_bits", "reports")

# sha256 of the simulated fields of each case's trace, at its bundled seed,
# as JSON with the bits as '0'/'1' text: the digests were taken over that
# text, which a trace's JSON held until it came to pack its bits, and which
# decoding a trace gives back
PINNED = {
    "protocol_clean":
        "f40af95020f326aadc9fa6fbb000e368518cc3a41e17595cc0b3997a0fc17c5e",
    "protocol_all_off":
        "489078e2ba0e2e6f7c18e808424f780a8cb72c0f6981d6da2679e7cb2be5b364",
    "gmsk_demo":
        "043cd77b2a7c6da90a23d7138d748f1a6650d9a0753b85cf6c7b2df85cc9e772",
    # a same_as bit source on an INVERTED emitter
    "table1_type4_case1":
        "a1431e8662dd17fd702be7aa43301865ed3dee58107a9da6fafaaa460ed7cf79",
    "protocol_clean_gmsk8":
        "1c761c9a0d4bc6a7b57cac2c9189e8140a9522bc41035047e0b49b386a27ac43",
    # closed pixels leak, so blocked emitters must still be synthesised
    "protocol_clean_gmsk8_leak":
        "7d474572a31166277acf91a80254d4e1d37d38c1722dd459212adfb3ccc59be1",
    "table1_type1_case1_leak":
        "113342c1e105a683ca289e161229d1c10b503bd70c5d922741ab460a7cbe03a1",
    # a fixed mask that closes emitter 2's pixel
    "table1_type4_case2_leak":
        "cdb68ba65003e35d4a5e472c3df3c841bfb7926f42fcbbf6f6610f9c19edd2b8",
    # an open pixel whose emitter has gain 0 is not synthesised either
    "protocol_clean_gmsk8_gain0":
        "91171c4c9b384a842eae8d66456ad7d756bf736007ce0c6abf706a0e459c661e",
    # GMSK operating points whose decisions the demodulator must keep
    "protocol_clean_gmsk4":
        "e577300f24e72a22bc34e5fc026beb284ea9b93fdfc8ca18a64da84c3536deed",
    "protocol_clean_gmsk16":
        "31a5c48bd4185940300e1ec423f4604daae3e2122998a925d038c0219502fd86",
    "protocol_clean_gmsk8_sigma0.1":
        "b91fda0e3119a4e43134dfdd3f88ae03cfe00f8e9cacd02bce54e4b204044c91",
    "gmsk_demo_sigma0.1":
        "a593f152cc9fb3c81138be2f9bc74cd496b09c0228c2c2a9893efc26c647eea4",
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
    assert len(text) < 2 * 2**20
    assert peak < 64 * 2**20
    dwell_events = {"noise_reference_dwell", "discovery_dwell",
                    "identification_dwell"}
    for event in record.events:
        if event["event"] in dwell_events:
            assert "mask" not in event
        else:
            assert len(event["mask"]) == n


def test_blocked_emitters_are_not_modulated(monkeypatch):
    # protocol_clean's controller dwells five times (noise reference, two
    # discovery scans, two identifications) with one pixel open or none,
    # so only one of its two emitters is ever let through, and a GMSK
    # dwell computes the data phase of that one window only
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scenario, "modulate",
                        counting("modulate", scenario.modulate))
    monkeypatch.setattr(modem, "_gmsk_phase",
                        counting("phase", modem._gmsk_phase))
    gmsk = {"scheme": "GMSK", "samples_per_symbol": 8}
    for modem_update, phase_windows in (({}, 0), (gmsk, 4)):
        calls.update(modulate=0, phase=0)
        doc = _doc("protocol_clean")
        doc["duration_s"] = 0.0
        doc["modem"].update(modem_update)
        record = run_scenario(scenario_from_dict(doc))
        assert record.converged
        assert calls == {"modulate": 4, "phase": phase_windows}
