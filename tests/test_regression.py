"""Pinned simulation output and the memory bound of per-dwell generation.

The digests were taken from the simulator that precomputed every emitter's
waveform over the worst-case controller horizon; generating each dwell's
window on demand must reproduce its traces bit for bit.
"""

import hashlib
import json
import tracemalloc

import pytest

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
}


def _doc(name: str) -> dict:
    if name == "protocol_clean_gmsk8":
        doc = _doc("protocol_clean")
        doc["modem"].update(scheme="GMSK", samples_per_symbol=8)
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
