"""Pinned simulation output, the memory bound of per-dwell generation and
the emitters a dwell synthesises.

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
stayed the same, and a few SNR floats changed, by at most 1.2e-12 dB. The
five OOK digests are the originals.
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
        "e01e9ddbc6ea6553859e9dd08fbbe03b3a2264c27b295b0cd8ec83fc73bd4cb9",
    "protocol_all_off":
        "c437eb573b677a622858f13d8ef9ec1306bc767144fc83f92c2579939b50b4a7",
    "gmsk_demo":
        "043cd77b2a7c6da90a23d7138d748f1a6650d9a0753b85cf6c7b2df85cc9e772",
    # a same_as bit source on an INVERTED emitter
    "table1_type4_case1":
        "a1431e8662dd17fd702be7aa43301865ed3dee58107a9da6fafaaa460ed7cf79",
    "protocol_clean_gmsk8":
        "ba5420e6f7942973deb55bba5cdbee0836d6060ae43556c4ead777fd4f3124ac",
    # closed pixels leak, so blocked emitters must still be synthesised
    "protocol_clean_gmsk8_leak":
        "c854b49296e1796770983a33ba684b41ace6c3886121a31437a88a3c74ebcb2b",
    "table1_type1_case1_leak":
        "113342c1e105a683ca289e161229d1c10b503bd70c5d922741ab460a7cbe03a1",
    # a fixed mask that closes emitter 2's pixel
    "table1_type4_case2_leak":
        "cdb68ba65003e35d4a5e472c3df3c841bfb7926f42fcbbf6f6610f9c19edd2b8",
    # an open pixel whose emitter has gain 0 is not synthesised either
    "protocol_clean_gmsk8_gain0":
        "14c526c9b5f1b1c82d732ad10f0b607b0368155bece917db51548d1d5a18a2fb",
    # GMSK operating points whose decisions the demodulator must keep
    "protocol_clean_gmsk4":
        "20a767e3c824ef12d13b4ccfda02d10a9fb8613c3f634053841e62984a84013a",
    "protocol_clean_gmsk16":
        "c1860f9403d5e5ebc74b0fe1d52c32f910d7c9a89874897a104399c3dc38c571",
    "protocol_clean_gmsk8_sigma0.1":
        "cf02cec6f8607de638a3f7952f4d2f10ed1a82c2a3a1382d91d715672b210b11",
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


def test_grid_protocol_peak_memory_bounded_by_one_dwell():
    # protocol_clean on a 6x6 shutter, emitters in opposite corners; when
    # the run precomputed its worst-case horizon this peaked at 367 MiB
    doc = _doc("protocol_clean")
    doc["duration_s"] = 0.0
    doc["optics"].update(grid_rows=6, grid_cols=6)
    doc["channel"]["ambient_dc"] = [0.0] * 36
    doc["emitters"][1]["pixel"] = 35
    scenario = scenario_from_dict(doc)
    tracemalloc.start()
    try:
        record = run_scenario(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record.converged and record.events[-1]["locked_pixels"] == [0]
    assert peak < 64 * 2**20


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
