"""Scenario loading, end-to-end runs, traces and replay."""

import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from hypothesis import assume, example, given, settings, strategies as st

import shuttervlc
from shuttervlc import framing, modem, scenario
from shuttervlc.channel import (MAX_INTENSITY, ChannelConfig, PixelMask,
                               emitter_weights, received_snr_db)
from shuttervlc.cli import main
from shuttervlc.framing import PACKET_BITS, PAYLOAD_BITS, frame, make_id
from shuttervlc.scenario import (LinkSimulation, Scenario, ScenarioError,
                                 TraceRecord, bundled_scenario,
                                 bundled_scenario_names, emitter_bits,
                                 load_scenario, replay_trace, run_scenario,
                                 scenario_from_dict)

BASE = {
    "schema_version": 3,
    "name": "unit",
    "rng_seed": 5,
    "duration_s": 1.0,
    "optics": {"grid_rows": 1, "grid_cols": 2},
    "modem": {"scheme": "OOK", "symbol_rate": 1000, "samples_per_symbol": 4,
              "modulation_depth": 0.5},
    "emitters": [{"label": 1, "pixel": 0, "gain": 1.0, "id_kind": "BARKER13"}],
    "channel": {"ambient_dc": [0.0, 0.0], "noise_sigma": 0.1,
                "closed_leakage": 0.0, "saturation_level": 100.0},
    "mask": [0],
}


def _variant(**overrides):
    d = json.loads(json.dumps(BASE))
    d.update(overrides)
    return d


def _with(section, **values):
    """BASE with entries of one section replaced."""
    d = _variant()
    d[section] = dict(d[section], **values)
    return d


def test_bundled_scenarios_all_parse():
    names = bundled_scenario_names()
    assert "protocol_clean" in names and "table1_type1_case1" in names
    for name in names:
        sc = bundled_scenario(name)
        assert isinstance(sc, Scenario)
        assert sc.name == name


def test_bundled_unknown_name():
    with pytest.raises(ScenarioError):
        bundled_scenario("does_not_exist")


def test_bundled_names_only_the_listed_scenarios(tmp_path):
    # a path joined onto the scenarios directory used to load: one up and
    # back in, or an absolute one to a copy outside the package
    outside = tmp_path / "outside"
    outside.with_suffix(".json").write_text(
        json.dumps(bundled_scenario("gmsk_demo").source_dict))
    for name in ("../scenarios/gmsk_demo", str(outside), "gmsk_demo.json", ""):
        assert name not in bundled_scenario_names()
        with pytest.raises(ScenarioError, match="no bundled scenario named"):
            bundled_scenario(name)


def test_mask_xor_protocol_required():
    with pytest.raises(ScenarioError):
        scenario_from_dict(_variant(mask=None))
    both = _variant()
    both["protocol"] = {"T_s": 1.0}
    with pytest.raises(ScenarioError):
        scenario_from_dict(both)


def test_fixed_threshold_needs_level():
    # a threshold is the fixed decision level; without one it is adaptive
    with pytest.raises(ScenarioError):
        scenario_from_dict(_variant(threshold={"mode": "FIXED"}))
    sc = scenario_from_dict(_variant(threshold=1.0))
    assert sc.threshold == 1.0
    assert scenario_from_dict(_variant()).threshold is None
    assert scenario_from_dict(_variant(threshold=None)).threshold is None


GMSK8 = {"scheme": "GMSK", "samples_per_symbol": 8}


def _emitter(**keys):
    """BASE with its one emitter given these keys."""
    return _variant(emitters=[{"label": 1, "pixel": 0, **keys}])


def test_malformed_scenario_raises_scenario_error(tmp_path):
    with pytest.raises(ScenarioError):
        scenario_from_dict({"name": "broken"})
    bad_modem = _variant()
    bad_modem["modem"] = {"scheme": "OOK", "symbol_rate": -1}
    with pytest.raises(ScenarioError):
        scenario_from_dict(bad_modem)
    malformed = [
        _variant(mask="01"),            # a string, not a list
        # a mask lists each of its open pixels once, as an integer
        _variant(mask=[2, 0]),
        _variant(mask=[1.5]),
        _variant(mask=[True]),
        _variant(mask=[0, 0]),
        _variant(mask=[0, 1.0, 1]),
        _variant(mask=[-1]),
        _variant(schema_version=99),
        _with("modem", bits_per_symbol=2),
        _with("modem", samples_per_symbol=4.5),
        _with("modem", samples_per_symbol=1),
        _variant(channel=[]),
        _with("channel", noise_sigma="abc"),
        _with("channel", noise_sigma=float("nan")),
        _with("channel", ambient_dc="xyz"),
        _with("channel", ambient_dc=[0.0]),
        _variant(threshold=[]),
        _variant(threshold="high"),
        _variant(threshold=float("nan")),
        _variant(threshold=float("inf")),
        _variant(threshold=float("-inf")),
        _variant(threshold={"mode": "MEDIAN"}),
        _variant(emitters=[{"label": 1, "pixel": 2}]),
        _variant(emitters=[{"label": 1}]),      # no pixel
        _variant(emitters=["label"]),
        _variant(emitters=[{"label": 1, "pixel": 0}, {"label": 1, "pixel": 1}]),
        _variant(emitters=[{"label": -1, "pixel": 0}]),
        _variant(emitters=[{"label": 1.5, "pixel": 0}]),
        _variant(emitters=[{"label": 1, "pixel": 0.7}]),
        _emitter(same_as=9),
        _emitter(same_as=1),            # its own label: no bits of its own
        _emitter(pattern="01", same_as=1),
        _variant(emitters=[_SAME_AS[0], dict(_SAME_AS[1], pattern="01")]),
        _variant(mask=None, protocol={"T_s": "abc"}),
        _variant(mask=None, protocol={"T_s": 0.0}),
        # no emitter carries the 11-chip padded ID
        _variant(mask=None, protocol={"select_target": "BARKER11_PADDED"}),
        _variant(rng_seed=-1),
        _variant(duration_s=-5.0),
        _variant(mask=None, protocol={"T_s": float("inf")}),
        _variant(mask=None, protocol={"snr_threshold_db": float("nan")}),
        _variant(mask=None, protocol={"corr_threshold": 14}),
        _variant(mask=None, protocol={"corr_threshold": 0}),
        _variant(mask=None, protocol={"corr_threshold": float("inf")}),
        _variant(mask=None, protocol={"retry_budget": -2}),
        _variant(mask=None, protocol={"corr_threshold": 11.7}),
        _variant(mask=None, protocol={"retry_budget": 2.5}),
        _variant(rng_seed=1.5),
        _emitter(pattern=None),
        _emitter(pattern=""),
        _emitter(pattern=101),
        # not payloads: a file, and a random payload's own seed
        _emitter(file=str(tmp_path / "missing.txt")),
        _emitter(seed=3),
        dict(bundled_scenario("protocol_clean").source_dict, emitters=[
            {"label": 1, "pixel": 0, "id_kind": "BARKER13"},
            {"label": 2, "pixel": 1, "id_kind": "BARKER13"}]),
        # degenerate numbers, rejected where the config stores them
        _with("modem", symbol_rate=float("nan")),
        _with("modem", symbol_rate=float("inf")),
        _variant(emitters=[{"label": 1, "pixel": 0, "gain": float("inf")}]),
        _with("channel", noise_sigma=float("inf")),
        _with("channel", ambient_dc=[float("nan"), 0.0]),
        _with("channel", ambient_dc=[0.0, float("inf")]),
        _with("channel", ambient_dc=[-50.0, 0.0]),
        # a GMSK modem has no decision level to fix
        _variant(modem=dict(BASE["modem"], **GMSK8), threshold=123.0),
        # no emitter, and unknown keys in the untyped objects
        _variant(emitters=[]),
        _variant(duraton_s=1.0),
        _with("channel", noise_sgima=0.1),
        _with("channel", emitter_gain=[2.0]),
        # the GMSK pulse span and subcarrier and the identification window
        # are constants, not settings
        _with("modem", **GMSK8, gmsk_span=4),
        _with("modem", **GMSK8, gmsk_carrier_cycles=1.0),
        _variant(mask=None, protocol={"ident_window_packets": 4.2}),
        # a scenario gives its grid and each emitter's pixel: the lens, a
        # placement, a code rate and the GMSK bandwidth-time product are
        # not settings, nor is the old schema that held them
        _variant(schema_version=1),
        *(_with("optics", **{key: 0.036}) for key in ("d", "S1", "S2", "BFL")),
        _variant(emitters=[{"label": 1}], placement=[[0.0744, 0.0]]),
        _variant(code_rate=1.0),
        _with("modem", **GMSK8, gmsk_bt=0.35),
        _variant(emitters=[{"label": 1, "pixel": 0, "gian": 2.0}]),
        _emitter(pattern="01", seed=3),
        _variant(emitters=[_SAME_AS[0], dict(_SAME_AS[1], seed=3)]),
        # schema 2's keys that the loader can work out: the DC bias is the
        # unit of intensity, a threshold is a level or absent, and a
        # payload's kind follows from its key
        _variant(schema_version=2),
        _with("modem", dc_bias=1.0),
        _variant(threshold={"mode": "ADAPTIVE"}),
        _variant(threshold={"mode": "FIXED", "level": 1.0}),
        _emitter(bit_source={"type": "random"}),
        _emitter(bit_source={"type": "pattern", "bits": "01"}),
        _variant(emitters=[_SAME_AS[0], {"label": 2, "pixel": 1, "bit_source":
                                         {"type": "same_as", "label": 1}}]),
        # a name must be a file name of its own in the output directory
        _variant(name="../escaped"),
        _variant(name="a/b"),
        _variant(name="a\\b"),
        _variant(name="a\0b"),
        _variant(name="."),
        _variant(name=".."),
        _variant(name=""),
        _variant(name=None),
        # numbers are JSON numbers: never a bool, never a numeric string
        _variant(schema_version=True),
        _variant(emitters=[{"label": True, "pixel": 0}]),
        _variant(emitters=[{"label": 1, "pixel": True}]),
        _variant(emitters=[_SAME_AS[0], dict(_SAME_AS[1], same_as=True)]),
        _variant(rng_seed=True),
        _emitter(pattern=True),
        _with("optics", grid_rows=2, grid_cols=True),
        _with("optics", grid_cols=2.5),
        _with("optics", grid_cols=0),
        _with("optics", grid_rows="1"),
        _variant(optics={"grid_rows": 1}),
        _variant(mask=None, protocol={"corr_threshold": True}),
        _variant(mask=None, protocol={"retry_budget": True}),
        _variant(mask=None, protocol={"T_s": True}),
        _variant(duration_s=True),
        _variant(threshold=True),
        _with("channel", ambient_dc=[True, 0.0]),
        _variant(emitters=[{"label": 1, "pixel": 0, "gain": "0.05"}]),
        _with("channel", noise_sigma="0.05"),
        _with("channel", closed_leakage="0.05"),
        _with("channel", saturation_level="100"),
        _with("channel", ambient_dc=["0.05", 0.0]),
        _variant(mask=None, protocol={"T_s": "0.05"}),
        _variant(mask=None, protocol={"snr_threshold_db": "10"}),
        _variant(duration_s="0.05"),
        _variant(threshold="1"),
    ]
    for d in malformed:
        with pytest.raises(ScenarioError):
            scenario_from_dict(d)


def _set(doc: dict, path: tuple, value) -> None:
    """Put `value` at `path`, a tuple of keys and list indices, in `doc`."""
    for k in path[:-1]:
        doc = doc[k]
    doc[path[-1]] = value


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("path", [
    ("rng_seed",), ("emitters", 0, "pixel"), ("emitters", 0, "label"),
    ("optics", "grid_rows"), ("modem", "samples_per_symbol"),
    ("protocol", "retry_budget"), ("protocol", "corr_threshold"),
], ids=lambda path: path[-1])
def test_non_finite_whole_number_names_its_key(tmp_path, path, value):
    # Python's json reads the NaN and Infinity tokens; int() of one used to
    # fail with a message that named no key
    d = bundled_scenario("protocol_clean").source_dict
    _set(d, path, float(value.replace("Infinity", "inf")))
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(d))
    assert value in scenario_file.read_text()
    with pytest.raises(ScenarioError, match=f"{path[-1]} must be an integer"):
        load_scenario(scenario_file)


# what each edit of the loader sweep puts in place of a value
_HOSTILE = (None, True, "x", -1, 0, 0.5, 1e308, float("nan"), float("inf"),
            float("-inf"), [], {}, 10**20)


def _sweep_paths(value, path=()):
    """The path of every scalar leaf of a document, and of its
    `emitters`, `optics`, `modem` and `channel`."""
    if not isinstance(value, (dict, list)):
        yield path
        return
    if path in (("emitters",), ("optics",), ("modem",), ("channel",)):
        yield path
    keys = value if isinstance(value, dict) else range(len(value))
    for k in keys:
        yield from _sweep_paths(value[k], path + (k,))


def test_loader_sweep_loads_or_raises_one_line_scenario_error():
    # any other exception fails the test as it stands
    edits = 0
    for name in bundled_scenario_names():
        doc = bundled_scenario(name).source_dict
        for path in _sweep_paths(doc):
            for value in _HOSTILE:
                d = json.loads(json.dumps(doc))
                _set(d, path, value)
                edits += 1
                try:
                    scenario_from_dict(d)
                except ScenarioError as exc:
                    assert "\n" not in str(exc), (name, path, value)
    assert edits >= 6630     # 510 paths of the 18 bundled scenarios, 13 values


@pytest.mark.parametrize("name", ["table1_type1_case1", "gmsk_demo"])
def test_largest_intensities_run_without_overflow(name):
    # every gain, ambient_dc entry and noise_sigma at the bound, unclipped:
    # no sample, sum or power overflows (the suite turns warnings to errors)
    d = json.loads(json.dumps(bundled_scenario(name).source_dict))
    d.update(duration_s=0.1, emitters=[dict(e, gain=MAX_INTENSITY)
                                       for e in d["emitters"]],
             channel={"ambient_dc": [MAX_INTENSITY] * 2,
                      "noise_sigma": MAX_INTENSITY})
    report = run_scenario(scenario_from_dict(d)).reports["1"]
    assert np.isfinite(report["snr_db"]) and 0 <= report["ber"] <= 1


def test_work_budgets_are_inclusive_and_admit_the_operating_point(monkeypatch):
    def clean(**protocol):
        d = json.loads(json.dumps(bundled_scenario("protocol_clean").source_dict))
        d["protocol"].update(protocol)
        return d

    # samples_per_symbol is capped before a GMSK config builds its pulse
    cap = modem.MAX_SAMPLES_PER_SYMBOL
    d = clean()
    d["modem"].update(scheme="GMSK", samples_per_symbol=cap)
    scenario_from_dict(d)

    def pulse(cfg):
        raise AssertionError("GMSK pulse built for a capped samples_per_symbol")

    monkeypatch.setattr(modem, "_gmsk_frequency_pulse", pulse)
    for sps, scheme in ((cap + 1, "OOK"), (cap + 2, "GMSK"), (2**27, "GMSK")):
        d["modem"].update(scheme=scheme, samples_per_symbol=sps)
        with pytest.raises(ScenarioError, match="samples_per_symbol"):
            scenario_from_dict(d)
    monkeypatch.undo()

    # the 2 MHz GMSK operating point: 3.2e7 samples in a 2 s slot
    d = clean()
    d["modem"].update(scheme="GMSK", samples_per_symbol=8, symbol_rate=2e6)
    scenario_from_dict(d)
    # a MAX_PIXELS grid at 3 retries, with protocol_clean's 6 locked slots
    assert 3 * (2 * scenario.MAX_PIXELS + 1) + 6 <= scenario.MAX_DWELLS
    # 2 pixels and 6 locked slots: 5 dwells a retry
    retries = (scenario.MAX_DWELLS - 6) // 5
    scenario_from_dict(clean(retry_budget=retries))
    with pytest.raises(ScenarioError, match="dwells"):
        scenario_from_dict(clean(retry_budget=retries + 1))
    # a slot of exactly MAX_DWELL_SAMPLES samples, and one a sample longer
    d = clean(T_s=1.0)
    d["modem"]["symbol_rate"] = scenario.MAX_DWELL_SAMPLES / 4
    scenario_from_dict(d)
    d["protocol"]["T_s"] = 1.0 + 1.0 / scenario.MAX_DWELL_SAMPLES
    with pytest.raises(ScenarioError, match="samples in one dwell"):
        scenario_from_dict(d)


def test_scenario_is_typed_at_load():
    sc = scenario_from_dict(_variant(threshold=1))
    assert sc.mask == PixelMask(2, {0})
    assert sc.channel == ChannelConfig(
        emitter_gain=(1.0,), emitter_pixel=(0,), ambient_dc=(0.0, 0.0),
        noise_sigma=0.1, saturation_level=100.0)
    assert sc.threshold == 1.0 and isinstance(sc.threshold, float)
    # a mask lists its open pixels; an empty one closes them all
    assert scenario_from_dict(_variant(mask=[1, 0])).mask == PixelMask(2, {0, 1})
    assert scenario_from_dict(_variant(mask=[])).mask == PixelMask(2)
    # a whole float is taken as the integer it names
    sc = scenario_from_dict(_variant(rng_seed=5.0, mask=[0.0], emitters=[
        {"label": 1.0, "pixel": 0.0}]))
    assert (sc.rng_seed, sc.emitters[0].label, sc.channel.emitter_pixel,
            sc.mask.open) == (5, 1, (0,), {0})
    assert all(type(x) is int for x in (sc.rng_seed, sc.emitters[0].label,
                                        *sc.channel.emitter_pixel,
                                        *sc.mask.open))


def _payload_rng(spec, run_seed):
    """The generator a run draws an emitter's random payload from."""
    return np.random.default_rng([run_seed, spec.stream, 17])


def test_emitter_bits_sources():
    spec = scenario_from_dict(_variant()).emitters[0]

    pattern = scenario_from_dict(_emitter(pattern="101"))
    bits = emitter_bits(pattern.emitters[0], 5, 0, 8, False)
    np.testing.assert_array_equal(bits, [1, 0, 1, 1, 0, 1, 1, 0])
    # a pattern is indexed modulo its length from any first bit
    bits = emitter_bits(pattern.emitters[0], 5, 4, 4, False)
    np.testing.assert_array_equal(bits, [0, 1, 1, 0])

    # random source is deterministic per (run seed, label)
    a = emitter_bits(spec, 5, 0, 100, False)
    b = emitter_bits(spec, 5, 0, 100, False)
    np.testing.assert_array_equal(a, b)
    c = emitter_bits(spec, 6, 0, 100, False)
    assert not np.array_equal(a, c)


def test_emitter_bits_prefix_stable():
    # a stream cut in two equals one draw of the whole, also past the
    # 2^22 payload bits that emitter_bits draws at a time, for a random
    # source and for a pattern (whose cuts each take time linear in n)
    cases = ((False, 5001, 12345),
             (True, 2 * PACKET_BITS, 6 * PACKET_BITS),
             (False, 2**22 - 3, 2**22 + 7),
             (True, 2013 * PACKET_BITS, 2016 * PACKET_BITS))
    specs = [scenario_from_dict(doc).emitters[0]
             for doc in (_variant(), _emitter(pattern="1011001"))]
    for spec in specs:
        for framed, cut, total in cases:
            whole = emitter_bits(spec, 5, 0, total, framed)
            parts = [emitter_bits(spec, 5, 0, cut, framed),
                     emitter_bits(spec, 5, cut, total - cut, framed)]
            assert whole.dtype == np.uint8 and len(whole) == total
            np.testing.assert_array_equal(
                whole, _one_shot_bits(spec, total, framed, 5))
            np.testing.assert_array_equal(np.concatenate(parts), whole)


def _one_shot_bits(spec, n_bits, framed, run_seed):
    """Reference: the first n_bits of a stream, drawn in one go as the
    simulator did before streams were extended in place."""
    n_packets = -(-n_bits // PACKET_BITS)
    n = n_packets * PAYLOAD_BITS if framed else n_bits
    if spec.pattern is not None:
        payload = np.resize(spec.pattern, n)
    else:
        payload = _payload_rng(spec, run_seed).integers(
            0, 2, size=n).astype(np.uint8)
    if not framed:
        return payload
    header = np.array(make_id(spec.id_kind, spec.label).id_bits, dtype=np.uint8)
    packets = np.hstack([np.broadcast_to(header, (n_packets, len(header))),
                         payload.reshape(n_packets, PAYLOAD_BITS)])
    return packets.ravel()[:n_bits]


@pytest.fixture(scope="module")
def source_specs():
    """One emitter spec per kind of bit source."""
    sources = {"run-seeded": {}, "pattern": {"pattern": "10110"}}
    specs = {kind: scenario_from_dict(_emitter(**keys)).emitters[0]
             for kind, keys in sources.items()}
    specs["same_as"] = scenario_from_dict(
        _variant(emitters=_SAME_AS)).emitters[1]
    return specs


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["run-seeded", "pattern", "same_as"]),
       framed=st.booleans(),
       cuts=st.lists(st.integers(0, 9000), min_size=2, max_size=6))
def test_extended_stream_equals_one_shot_draw_property(source_specs, kind,
                                                       framed, cuts):
    # every window [a, b) of a stream, from an odd or even first bit, is
    # those bits of one draw from bit 0: random payload bit i is the one
    # Generator.integers(0, 2) takes from a half of PCG64 output i // 2.
    # Framed windows are whole packets, which start at odd and even
    # payload bits alike (PAYLOAD_BITS is odd)
    spec = source_specs[kind]
    edges = sorted({c % 6 * PACKET_BITS if framed else c for c in cuts})
    assume(len(edges) > 1)
    whole = _one_shot_bits(spec, edges[-1], framed, 5)
    windows = list(zip(edges, edges[1:])) + [(edges[0], edges[-1])]
    parts = []
    for a, b in windows:
        parts.append(emitter_bits(spec, 5, a, b - a, framed))
        np.testing.assert_array_equal(parts[-1], whole[a:b])
    # so a stream extended window by window equals the one-shot draw
    np.testing.assert_array_equal(np.concatenate(parts[:-1]),
                                  whole[edges[0]:])



@settings(max_examples=40, deadline=None)
@example(seed=5, first=3, n_bits=2**22 + 10)   # odd start, past one chunk
@given(seed=st.integers(0, 2**64 - 1), first=st.integers(0, 10**6),
       n_bits=st.integers(0, 5000))
def test_random_payload_bits_are_bit_31_of_each_raw_half(seed, first,
                                                         n_bits):
    # bit i is bit 31 of the i-th 32-bit half of the raw PCG64 outputs,
    # low half first, which is the bit Generator.integers(0, 2) draws
    spec = scenario_from_dict(_variant()).emitters[0]
    bits = emitter_bits(spec, seed, first, n_bits, False)
    assert bits.dtype == np.uint8 and len(bits) == n_bits
    words = np.random.PCG64([seed, spec.stream, 17]).random_raw(
        (first + n_bits + 1) // 2)
    halves = words.astype("<u8").view("<u4")    # low, high, low, ...
    np.testing.assert_array_equal(bits, (halves >> 31)[first:first + n_bits])
    drawn = _payload_rng(spec, seed).integers(0, 2, first + n_bits)
    np.testing.assert_array_equal(bits, drawn[first:])

def test_pattern_source_rejects_non_binary():
    with pytest.raises(ScenarioError):
        scenario_from_dict(_emitter(pattern="102"))


_SAME_AS = [{"label": 1, "pixel": 0, "id_kind": "BARKER13"},
            {"label": 2, "pixel": 1, "id_kind": "BARKER11_PADDED",
             "same_as": 1}]


def test_emitter_bits_framed_structure():
    from shuttervlc.framing import BARKER_11, BARKER_13
    sc = scenario_from_dict(_variant())
    spec = sc.emitters[0]
    bits = emitter_bits(spec, 5, 0, 2 * PACKET_BITS, True)
    assert tuple(bits[:13]) == BARKER_13
    assert tuple(bits[PACKET_BITS:PACKET_BITS + 13]) == BARKER_13
    # a same_as emitter sends its own header over the other's payload
    sc = scenario_from_dict(_variant(emitters=_SAME_AS))
    ref, copy = (emitter_bits(e, 5, 0, 2 * PACKET_BITS, True)
                 for e in sc.emitters)
    for start in (0, PACKET_BITS):
        assert tuple(copy[start:start + 13]) == BARKER_11 + (1, 1)
        np.testing.assert_array_equal(copy[start + 13:start + PACKET_BITS],
                                      ref[start + 13:start + PACKET_BITS])


def test_framed_streams_are_built_by_frame(monkeypatch):
    calls = []

    def counting_frame(payload, tid):
        calls.append(len(payload))
        return frame(payload, tid)

    monkeypatch.setattr(framing, "frame", counting_frame)
    sc = scenario_from_dict(_variant())
    spec = sc.emitters[0]
    bits = emitter_bits(spec, 5, 0, 3 * PACKET_BITS, True)
    assert calls == [3 * PAYLOAD_BITS]
    assert bits.dtype == np.uint8 and len(bits) == 3 * PACKET_BITS


def test_bits_are_drawn_once_and_only_for_lit_windows(monkeypatch):
    drawn = {}          # label -> [(first, end, drawn in a dwell), ...]
    lit = {}            # label -> [(first, end), ...] of the windows it lit
    draw, dwell = scenario.emitter_bits, LinkSimulation.dwell
    in_dwell = []

    def counting_bits(spec, seed, first, n_bits, framed):
        drawn.setdefault(spec.label, []).append(
            (first, first + n_bits, bool(in_dwell)))
        return draw(spec, seed, first, n_bits, framed)

    def recording_dwell(sim, mask, duration_s):
        first = sim.clock // sim.sps
        in_dwell.append(True)
        out = dwell(sim, mask, duration_s)
        in_dwell.pop()
        end = sim.clock // sim.sps + sim.modem.context_symbols
        weights = emitter_weights(mask, sim.scenario.channel)
        for spec, weight in zip(sim.scenario.emitters, weights):
            if weight:
                lit.setdefault(spec.label, []).append((first, end))
        return out

    monkeypatch.setattr(scenario, "emitter_bits", counting_bits)
    monkeypatch.setattr(LinkSimulation, "dwell", recording_dwell)
    # every emitter of protocol_all_off is dark, so no bit is drawn
    run_scenario(bundled_scenario("protocol_all_off"))
    assert drawn == {} and lit == {}

    # emitter 2 on the last pixel is first lit by the scan's last probe
    doc = json.loads(json.dumps(bundled_scenario("protocol_clean").source_dict))
    doc["duration_s"] = 3.0
    doc["optics"].update(grid_rows=5, grid_cols=5)
    doc["channel"]["ambient_dc"] = [0.0] * 25
    doc["emitters"][1]["pixel"] = 24
    for scheme, sps in (("OOK", 4), ("GMSK", 8)):
        drawn.clear()
        lit.clear()
        doc["modem"].update(scheme=scheme, samples_per_symbol=sps)
        record = run_scenario(scenario_from_dict(doc))
        assert record.converged and record.dwells
        assert sorted(drawn) == sorted(lit) == [1, 2]
        assert lit[2][0][0] >= 25 * 2 * doc["modem"]["symbol_rate"]
        for label, calls in drawn.items():
            spans = [(a, b) for a, b, during in calls if during]
            # the dwells draw each bit once, in order, and no further than
            # a packet past the last window that lit the emitter
            assert all(b <= c for (_, b), (c, _) in zip(spans, spans[1:]))
            assert spans[-1][1] <= lit[label][-1][1] + PACKET_BITS
            # an OOK window draws from its first packet on; a GMSK one
            # counts every bit before it
            assert spans[0][0] == (lit[label][0][0] // PACKET_BITS
                                   * PACKET_BITS if scheme == "OOK" else 0)
            # only the prefix a trace stores fills in bits before the run
            # the dwells left: [0, its first bit)
            runs = [spans[0][0]] + [c for (_, b), (c, _)
                                    in zip(spans, spans[1:]) if c > b]
            fills = [(a, b) for a, b, during in calls if not during]
            assert fills == ([(0, runs[-1])] if str(label) in record.tx_bits
                             and runs[-1] > 0 else [])
        # the selected target (label 1) keeps its trace prefix; label 2,
        # with no report, never draws before its first lit window
        assert list(record.tx_bits) == ["1"]


def test_simulations_alive_at_once_each_draw_their_own_noise():
    # two runs' dwells interleaved, some longer than the noise lookahead:
    # each gives the samples of a run whose noise is one plain generator
    sc = bundled_scenario("protocol_clean")
    durations = [0.3, 1.0, 0.01, 4.0, 0.0001, 0.9, 2.5]     # 4e4 samples/s
    sims = [LinkSimulation(sc, seed) for seed in (1, 2)]
    refs = [LinkSimulation(sc, seed) for seed in (1, 2)]
    for ref in refs:
        ref.noise = np.random.default_rng([ref.seed, 31])
    for i, duration in enumerate(durations):
        mask = PixelMask(sc.n_pixels, {sc.channel.emitter_pixel[i % 2]})
        for sim, ref in zip(sims, refs):
            got, expected = sim.dwell(mask, duration), ref.dwell(mask, duration)
            assert got.tobytes() == expected.tobytes()


def test_noiseless_dark_shutter_never_identifies():
    # a pixel with no AC power scores -inf even where the noise has none,
    # so every scan of a dark shutter resets and the controller gives up
    # after retry_budget scans of n + 1 dwells
    doc = json.loads(json.dumps(bundled_scenario("protocol_all_off").source_dict))
    doc["duration_s"] = 0.0
    doc["channel"]["noise_sigma"] = 0.0
    sc = scenario_from_dict(doc)
    record = run_scenario(sc)
    events = [e["event"] for e in record.events]
    assert "identification_dwell" not in events
    assert events.count("reset") == sc.protocol.retry_budget == 3
    assert events[-1] == "gave_up" and record.converged is False
    assert record.events[-1]["sim_time_s"] == pytest.approx(
        3 * (sc.n_pixels + 1) * sc.protocol.T_s)
    assert {e["pixel_snr_db"] for e in record.events
            if e["event"] == "discovery_dwell"} == {float("-inf")}
    assert set(record.context["snr_db"]) == {"1", "2"}
    assert set(record.context["snr_db"].values()) == {float("-inf")}


def test_fixed_mask_run_produces_report(monkeypatch):
    generators = []

    def default_rng(*args):
        generators.append(args)
        return real_default_rng(*args)

    real_default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    for channel in ({}, {"saturation_level": 1.2}, {"noise_sigma": 0.0}):
        generators.clear()
        sc = scenario_from_dict(_with("channel", **channel))
        record = run_scenario(sc)
        # the dwell's noise is the only generator the run builds
        assert len(generators) == 1
        assert record.mode == "fixed_mask"
        rep = record.reports["1"]
        assert rep["bits_compared"] == 1000
        tx, rx = (np.frombuffer(bits.encode(), dtype=np.uint8) for bits
                  in (record.tx_bits["1"], record.dwells[0]["bits"]))
        assert rep["ber"] == np.count_nonzero(tx != rx) / len(rx)
        assert type(rep["ber"]) is float
        assert rep["ber"] <= 0.01      # sigma 0.1 on a 0.5 depth is near-clean
        assert rep["snr_db"] > 10
        assert rep["goodput_bps"] == pytest.approx((1 - rep["ber"]) * 1000)
        assert len(record.tx_bits["1"]) == 1000
        # the SNR is the AC power of the gated, clipped window over sigma**2;
        # a noiseless channel scores +inf
        cfg = sc.channel
        window = np.clip(cfg.emitter_gain[0] * modem.modulate(
            list(map(int, record.tx_bits["1"])), sc.modem),
            0, cfg.saturation_level)
        snr = received_snr_db(window, cfg.noise_sigma ** 2)
        assert rep["snr_db"] == pytest.approx(snr, rel=0, abs=1e-12)
        assert (rep["snr_db"] == float("inf")) == (cfg.noise_sigma == 0)


def test_zero_duration_fixed_mask():
    record = run_scenario(scenario_from_dict(_variant(duration_s=0.0)))
    assert record.reports == {} and record.dwells == []


def test_scenario_hash_is_that_of_the_parsed_scenario():
    d = _variant()
    sc = scenario_from_dict(d)
    expected = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
    # editing the dict after loading changes neither the run, its hash nor
    # the source it keeps, from which the same scenario can be rebuilt
    d["duration_s"] = 999.0
    record = run_scenario(sc)
    assert record.scenario_hash == sc.scenario_hash == expected
    assert len(record.dwells[0]["bits"]) == 1000
    assert sc.source_dict == _variant()
    rebuilt = scenario_from_dict(sc.source_dict)
    assert rebuilt.scenario_hash == expected
    assert run_scenario(rebuilt).to_json() == record.to_json()


def test_run_is_deterministic_and_seed_sensitive():
    d = _variant()
    a = run_scenario(scenario_from_dict(d)).to_json()
    b = run_scenario(scenario_from_dict(d)).to_json()
    assert a == b
    c = run_scenario(scenario_from_dict(d), seed_override=123).to_json()
    assert a != c
    for bad in (-1, 1.5, "7", True):
        with pytest.raises(ScenarioError):
            run_scenario(scenario_from_dict(d), seed_override=bad)
    # non-integral protocol parameters are not truncated
    for field in ("corr_threshold", "retry_budget"):
        with pytest.raises(ScenarioError):
            scenario_from_dict(_variant(mask=None, protocol={field: 2.5}))


def test_trace_save_load_roundtrip(tmp_path):
    record = run_scenario(scenario_from_dict(_variant()))
    path = tmp_path / "trace.json"
    record.save(path)
    back = TraceRecord.load(path)
    assert back == record


@settings(max_examples=60, deadline=None)
@given(rx_bits=st.integers(0, 5000), tx_bits=st.integers(0, 5000),
       seed=st.integers(0, 2**32 - 1))
def test_trace_json_roundtrip_property(rx_bits, tx_bits, seed):
    # bit strings of any length, a multiple of 8 or not, pack and unpack
    # to themselves
    rng = np.random.default_rng(seed)

    def bits(n):
        return "".join(map(str, rng.integers(0, 2, n)))

    record = TraceRecord(
        schema_version=scenario.TRACE_SCHEMA_VERSION, scenario_name="unit",
        scenario_hash="0" * 64, seed=seed, mode="protocol", converged=True,
        events=[], dwells=[{"t0_s": 0.0, "pixel": 0, "start_bit": 0,
                            "bits": bits(rx_bits)}],
        tx_bits={"1": bits(tx_bits), "2": bits(tx_bits // 3)},
        reports={}, context={})
    assert TraceRecord.from_json(record.to_json()) == record


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_bundled_traces_decode_to_the_records_that_wrote_them(name):
    for seed in (None, 3):
        record = run_scenario(bundled_scenario(name), seed_override=seed)
        assert TraceRecord.from_json(record.to_json()) == record


def test_trace_rejects_garbage(tmp_path):
    with pytest.raises(ScenarioError):
        TraceRecord.from_json("not json {")
    with pytest.raises(ScenarioError):
        TraceRecord.from_json(json.dumps({"schema_version": 99}))


def test_replay_fixed_mask_recomputes_metrics():
    record = run_scenario(scenario_from_dict(_variant()))
    assert replay_trace(record)["1"]["ber"] == record.reports["1"]["ber"]
    # tampering with the stored report does not survive a replay
    record.reports["1"]["ber"] = 0.0
    record.reports["1"]["goodput_bps"] = 9e9
    replayed = replay_trace(record)["1"]
    assert replayed["ber"] != 0.0 or record.reports["1"]["ber"] == 0.0
    assert replayed["goodput_bps"] < 9e9


def test_protocol_run_and_replay():
    record = run_scenario(bundled_scenario("protocol_clean"))
    assert record.mode == "protocol"
    assert record.converged
    rep = record.reports["1"]
    assert rep["ber"] <= 1e-3
    assert rep["per_percent"] == 0.0
    assert rep["packets_expected"] == rep["packets_detected_valid"] > 0
    assert replay_trace(record) == record.reports
    # the trace is valid JSON end to end
    assert json.loads(record.to_json())["converged"] is True


def test_protocol_no_signal_does_not_converge():
    record = run_scenario(bundled_scenario("protocol_all_off"))
    assert record.converged is False
    assert record.reports == {}
    assert record.events[-1]["event"] == "gave_up"
    assert record.events[-1]["mask"] == [0, 0]


def test_protocol_locks_on_same_as_emitter_by_its_own_header():
    d = json.loads(json.dumps(bundled_scenario("protocol_clean").source_dict))
    d["duration_s"] = 0.0
    d["emitters"][1]["same_as"] = 1
    d["protocol"]["select_target"] = "BARKER11_PADDED"
    record = run_scenario(scenario_from_dict(d))
    assert record.converged
    assert record.events[-1]["locked_pixels"] == [1]


def test_shared_pixel_reports_every_emitter_on_it():
    # emitter 2 shares pixel 0 with emitter 1 but sends nothing: the pixel
    # locks on emitter 1's header, which is scored as received, and
    # emitter 2 is scored against the same bits
    d = json.loads(json.dumps(bundled_scenario("protocol_clean").source_dict))
    d["duration_s"] = 4
    d["emitters"][1].update(pixel=0, gain=0.0)
    record = run_scenario(scenario_from_dict(d))
    assert record.events[-1]["locked_pixels"] == [0]
    assert sorted(record.reports) == sorted(record.tx_bits) == ["1", "2"]
    received, silent = record.reports["1"], record.reports["2"]
    assert received["ber"] == 0.0 and received["per_percent"] == 0.0
    assert received["packets_detected_valid"] == received["packets_expected"] > 0
    assert silent["ber"] == pytest.approx(0.5, abs=0.02)
    assert silent["per_percent"] == 100.0
    assert silent["packets_detected_valid"] == 0
    assert replay_trace(record) == record.reports


@pytest.mark.parametrize("field,value", [("snr_db", 99.0),
                                         ("per_percent", 50.0)])
def test_replay_fixed_mask_flags_tampered_snr_and_per(tmp_path, capsys,
                                                      field, value):
    record = run_scenario(scenario_from_dict(_variant()))
    assert replay_trace(record) == record.reports
    doc = json.loads(record.to_json())
    doc["reports"]["1"][field] = value
    forged = TraceRecord.from_json(json.dumps(doc))
    assert replay_trace(forged) != forged.reports
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == 1


@pytest.mark.parametrize("bad", ["01x1", "0121", "01 1", "01\u00e91", 101])
def test_replay_rejects_non_binary_bit_strings(bad):
    fixed = run_scenario(scenario_from_dict(_variant(duration_s=0.01)))
    fixed.dwells[0]["bits"] = bad
    with pytest.raises(ScenarioError):
        replay_trace(fixed)
    fixed = run_scenario(scenario_from_dict(_variant(duration_s=0.01)))
    fixed.tx_bits["1"] = bad
    with pytest.raises(ScenarioError):
        replay_trace(fixed)


# what README's Python example and linkbench import from the package
FRONT_DOOR = ("TraceRecord", "bundled_scenario", "replay_trace",
              "run_scenario", "scenario_from_dict")


def test_package_binds_only_its_front_door():
    public = {name for name, value in vars(shuttervlc).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == set(FRONT_DOOR)
    for name in FRONT_DOOR:
        assert getattr(shuttervlc, name) is getattr(scenario, name)
    assert isinstance(shuttervlc.__version__, str)


def test_import_leaves_tables_geometry_and_cli_unloaded():
    # every other name is imported from its own module, so importing the
    # package loads only what a run needs
    src = str(Path(shuttervlc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, shuttervlc; print(sorted(m for m in sys.modules"
         " if m in ('shuttervlc.tables', 'shuttervlc.geometry',"
         " 'shuttervlc.cli')))"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
