"""Pinned simulation output, the memory bound of per-dwell generation and
the emitters a dwell synthesises.

The first five digests were taken from the simulator that precomputed every
emitter's waveform over the worst-case controller horizon, the next four
from the one that synthesised every emitter on every dwell; generating only
the windows the shutter lets through must reproduce their traces bit for
bit. The last four pin GMSK operating points (noise sigma <= 0.1) as the
evenly padded demodulator decoded them, before its FFT length was rounded
up to a 5-smooth number.
"""

import hashlib
import json
import tracemalloc

import pytest

from shuttervlc import scenario
from shuttervlc.scenario import (bundled_scenario, run_scenario,
                                 scenario_from_dict)

SIMULATED_FIELDS = ("dwells", "detections", "events", "tx_bits", "reports")

# sha256 of the simulated fields of each case's trace, at its bundled seed
PINNED = {
    "protocol_clean":
        "e01e9ddbc6ea6553859e9dd08fbbe03b3a2264c27b295b0cd8ec83fc73bd4cb9",
    "protocol_all_off":
        "c437eb573b677a622858f13d8ef9ec1306bc767144fc83f92c2579939b50b4a7",
    "gmsk_demo":
        "04da4e3be034419f46e86d1a9cddf3352c18a4f8dc70740a056478064f84cee9",
    # a same_as bit source on an INVERTED emitter
    "table1_type4_case1":
        "a1431e8662dd17fd702be7aa43301865ed3dee58107a9da6fafaaa460ed7cf79",
    "protocol_clean_gmsk8":
        "6957290d1baeec9409be220624ce8f2c067a69c208fd88ea7c3540869331ec5f",
    # closed pixels leak, so blocked emitters must still be synthesised
    "protocol_clean_gmsk8_leak":
        "35b44f61229eac55f9e46b8bc6d006323211dd5367d722ae5fc2d26763892243",
    "table1_type1_case1_leak":
        "113342c1e105a683ca289e161229d1c10b503bd70c5d922741ab460a7cbe03a1",
    # a fixed mask that closes emitter 2's pixel
    "table1_type4_case2_leak":
        "cdb68ba65003e35d4a5e472c3df3c841bfb7926f42fcbbf6f6610f9c19edd2b8",
    # an open pixel whose emitter has gain 0 is not synthesised either
    "protocol_clean_gmsk8_gain0":
        "bd53cb56630b72fc7f965509d04d4a396c5b39cc06cdcb75d382d896fd970564",
    # GMSK operating points whose decisions the demodulator must keep
    "protocol_clean_gmsk4":
        "f9e081f5c6c0c6bedf2679b245aec3ae323cd057e46fd959c1123647689297e2",
    "protocol_clean_gmsk16":
        "49c880f2a6ea703e5b2acc43b513a366e7c0f9fa7a19b2b9b45f38e387e6ca4e",
    "protocol_clean_gmsk8_sigma0.1":
        "071a08a4570ce69f6011ab301494f3b4af5abfa7bd48f6d6283f9bc34734a5c5",
    "gmsk_demo_sigma0.1":
        "de0ac3d2798b94a4d89b92119e8dfde180c51f8f2738b0adec637e15283e5b93",
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
    doc = json.loads(record.to_json())
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
    # so only one of its two emitters is ever let through
    calls = []
    modulate = scenario.modulate

    def counting_modulate(*args, **kwargs):
        calls.append(1)
        return modulate(*args, **kwargs)

    monkeypatch.setattr(scenario, "modulate", counting_modulate)
    doc = _doc("protocol_clean")
    doc["duration_s"] = 0.0
    record = run_scenario(scenario_from_dict(doc))
    assert record.converged
    assert len(calls) == 4
