"""Command-line interface behavior."""

import json
import string

import numpy as np
import pytest

from shuttervlc.cli import main
from shuttervlc.framing import IdKind, IdLookupTable, detect_packets, make_id
from shuttervlc.scenario import TraceRecord, bundled_scenario, run_scenario


def test_geometry_json(capsys):
    assert main(["geometry", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h_m"] == pytest.approx(0.1488, abs=5e-5)
    assert out["alpha_deg"] == pytest.approx(51.2, abs=0.1)


def test_tables_all_pass(capsys):
    assert main(["tables", "ALL", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"GEOMETRY", "T3_PACKETS", "T5_LATENCY", "GOODPUT"}
    assert all(cell["pass"] for cells in out.values() for cell in cells)


def test_latency_defaults(capsys):
    assert main(["latency", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["step1_ms"] == pytest.approx(10.0)
    assert out["total_ms"] == pytest.approx(219.6)


@pytest.mark.parametrize("rate,expected", [("500e3", 477), ("1e6", 954),
                                           ("2e6", 1908)])
def test_packets_per_slot_cmd(capsys, rate, expected):
    assert main(["packets-per-slot", "--symbol-rate", rate, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["packets_per_slot"] == expected


@pytest.mark.parametrize("argv", [
    ["latency", "--ts", "nan", "--json"],
    ["latency", "--bit-time", "inf", "--json"],
    ["latency", "--rows", "-10", "--cols", "-10"],
    ["packets-per-slot", "--symbol-rate", "nan"],
    ["packets-per-slot", "--symbol-rate", "inf"],
    # results that overflow a float
    ["packets-per-slot", "--symbol-rate", "1e308", "--ts", "1e10"],
    ["latency", "--ts", "1e306", "--json"],
    ["latency", "--ts", "1e303", "--json"],
    ["geometry", "--d", "1e300", "--s1", "1e300", "--bfl", "1e-300",
     "--json"],
    # h is finite, but not in centimetres
    ["geometry", "--d", "1e306"],
    ["geometry", "--d", "1e306", "--json"],
], ids=" ".join)
def test_bad_numbers_exit_2_with_one_error_line(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:       # argparse rejected an option's value
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last.startswith("shuttervlc") and ": error: " in last
    assert "Traceback" not in captured.err


def _text_and_json(capsys, argv):
    """What a command prints, and what it prints with --json, parsed."""
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert main(argv + ["--json"]) == 0
    return text.splitlines(), json.loads(capsys.readouterr().out)


def _number_after(line, sep=":"):
    return float(line.split(sep, 1)[1].split()[0])


def test_geometry_text_matches_json(capsys):
    lines, out = _text_and_json(capsys, ["geometry"])
    assert _number_after(lines[0]) == pytest.approx(out["h_m"] * 100,
                                                    abs=0.005)
    assert _number_after(lines[1]) == out["alpha_deg"]
    assert len(lines) == 2 and set(out) == {"h_m", "alpha_deg"}


def test_tables_text_matches_json(capsys):
    lines, out = _text_and_json(capsys, ["tables", "ALL"])
    rows = {line.split()[0]: line for line in lines if "computed=" in line}
    cells = [cell for table in out.values() for cell in table]
    assert len(rows) == len(cells)
    for cell in cells:
        row = rows[cell["name"]]
        assert _number_after(row, "computed=") == pytest.approx(
            cell["computed"], rel=1e-5)
        assert row.endswith("[PASS]" if cell["pass"] else "[FAIL]")


def test_latency_text_matches_json(capsys):
    lines, out = _text_and_json(capsys, ["latency", "--rows", "20",
                                         "--cols", "30"])
    assert out["step1_ms"] == pytest.approx(20 * 30 * 1e-3)
    for line, key in zip(lines, ("step1_ms", "step2_ms", "total_ms")):
        assert _number_after(line) == pytest.approx(out[key], rel=1e-3)


def test_packets_per_slot_text_matches_json(capsys):
    lines, out = _text_and_json(capsys, ["packets-per-slot",
                                         "--symbol-rate", "1e6"])
    assert lines == [str(out["packets_per_slot"])]


def test_run_text_matches_trace(tmp_path, capsys):
    assert main(["run", "protocol_clean", "--bundled", "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    path = tmp_path / "protocol_clean_trace.json"
    trace = json.loads(path.read_text())
    assert trace["seed"] == 3
    assert lines[0] == f"trace written to {path}"
    assert lines[-1] == f"converged: {trace['converged']}"
    assert len(lines) == 2 + len(trace["reports"])
    for line, (label, rep) in zip(lines[1:], sorted(trace["reports"].items())):
        assert line.startswith(f"emitter {label}: ")
        fields = dict(f.split("=") for f in line.split()[2:] if "=" in f)
        assert float(fields["BER"]) == pytest.approx(rep["ber"], rel=1e-3)
        assert float(fields["PER"].rstrip("%")) == pytest.approx(
            rep["per_percent"], abs=0.005)
        assert float(fields["SNR"]) == pytest.approx(rep["snr_db"], abs=0.005)
        assert float(fields["goodput"]) == pytest.approx(rep["goodput_bps"],
                                                         rel=1e-3)


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    names = capsys.readouterr().out.split()
    assert "protocol_clean" in names


def test_run_and_replay_roundtrip(tmp_path, capsys):
    scenario = bundled_scenario("table1_type1_case2")
    src = tmp_path / "scenario.json"
    src.write_text(json.dumps(scenario.source_dict))
    assert main(["run", str(src), "--out", str(tmp_path)]) == 0
    trace = tmp_path / "table1_type1_case2_trace.json"
    assert trace.is_file()
    capsys.readouterr()
    assert main(["replay", str(trace)]) == 0


def test_replay_flags_tampered_trace(tmp_path, capsys):
    assert main(["run", "table1_type1_case2", "--bundled",
                 "--out", str(tmp_path)]) == 0
    trace = tmp_path / "table1_type1_case2_trace.json"
    d = json.loads(trace.read_text())
    d["reports"]["1"]["ber"] = 0.4999
    trace.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["replay", str(trace)]) == 1


def _trace(name):
    return json.loads(run_scenario(bundled_scenario(name)).to_json())


def test_trace_is_compact_json_with_packed_bits(tmp_path):
    assert main(["run", "protocol_clean", "--bundled",
                 "--out", str(tmp_path)]) == 0
    text = (tmp_path / "protocol_clean_trace.json").read_text()
    assert "\n" not in text and ", " not in text
    record = run_scenario(bundled_scenario("protocol_clean"))
    d = json.loads(text)
    assert d["schema_version"] == 5
    for packed, bits in zip([dw["bits"] for dw in d["dwells"]]
                            + [d["tx_bits"]["1"]],
                            [dw["bits"] for dw in record.dwells]
                            + [record.tx_bits["1"]]):
        assert sorted(packed) == ["b64", "n_bits"]
        assert packed["n_bits"] == len(bits) > 0
        assert len(packed["b64"]) == 4 * -(-len(bits) // 24)


def test_replay_rejects_version_1_trace(tmp_path, capsys):
    # the version-1 layout: bits as '0'/'1' text, indented JSON
    record = run_scenario(bundled_scenario("protocol_clean"))
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(dict(vars(record), schema_version=1),
                                sort_keys=True, indent=2))
    assert main(["replay", str(trace)]) == 2
    assert capsys.readouterr().err == (
        "shuttervlc: error: trace schema version 1 unsupported\n")


def test_replay_rejects_version_4_trace(tmp_path, capsys):
    # a version-4 trace kept its code rate in context; replayed at rate 1 it
    # would differ, the verdict for an edited report, so it is unsupported
    d = _trace("gmsk_demo")
    d.update(schema_version=4, context=dict(d["context"], code_rate=0.5))
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(d))
    assert main(["replay", str(trace)]) == 2
    assert capsys.readouterr().err == (
        "shuttervlc: error: trace schema version 4 unsupported\n")


def _set_packed(where, **values):
    """An edit of one packed bit field of a trace: `where` picks it."""
    def edit(d):
        where(d).update(values)
    return edit


def _dwell_bits(d):
    return d["dwells"][0]["bits"]


def _tx_bits(d):
    return d["tx_bits"]["1"]


def _noncanonical_tail(d):
    # the dwell's last base64 quantum is "xy==": y carries 4 unused bits,
    # and setting one gives the same bytes under a second encoding
    b64 = _dwell_bits(d)["b64"]
    assert b64.endswith("==")
    alphabet = (string.ascii_uppercase + string.ascii_lowercase
                + string.digits + "+/")
    tail = alphabet[alphabet.index(b64[-3]) | 1]
    _dwell_bits(d)["b64"] = b64[:-3] + tail + "=="


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d["dwells"][0].update(bits="0101"),
                 id="dwell-bits-as-text"),
    pytest.param(lambda d: d["tx_bits"].update({"1": [0, 1]}),
                 id="tx_bits-as-list"),
    pytest.param(lambda d: _dwell_bits(d).update(b64=_dwell_bits(d)["b64"][1:]),
                 id="dwell-b64-char-removed"),
    pytest.param(lambda d: _tx_bits(d).update(b64=_tx_bits(d)["b64"][:-1]),
                 id="tx_bits-b64-char-removed"),
    pytest.param(lambda d: _dwell_bits(d).update(
        b64="*" + _dwell_bits(d)["b64"][1:]), id="b64-not-base64"),
    pytest.param(lambda d: _dwell_bits(d).update(
        b64=_dwell_bits(d)["b64"] + "\n"), id="b64-newline"),
    pytest.param(lambda d: _dwell_bits(d).update(
        n_bits=_dwell_bits(d)["n_bits"] - 8), id="n_bits-one-byte-fewer"),
    pytest.param(lambda d: _tx_bits(d).update(n_bits=_tx_bits(d)["n_bits"] + 8),
                 id="n_bits-one-byte-more"),
    pytest.param(_set_packed(_dwell_bits, b64=5), id="b64-number"),
    pytest.param(_set_packed(_dwell_bits, n_bits=True), id="n_bits-true"),
    pytest.param(_set_packed(_dwell_bits, n_bits=-1), id="n_bits-negative"),
    pytest.param(_set_packed(_dwell_bits, n_bits=8.0), id="n_bits-float"),
    pytest.param(lambda d: _dwell_bits(d).pop("n_bits"), id="n_bits-missing"),
    pytest.param(_set_packed(_dwell_bits, extra=1), id="unknown-key"),
    # "oQ==" is the byte 1010 0001: the bits 101, then a 1 in the pad bits
    pytest.param(_set_packed(_dwell_bits, n_bits=3, b64="oQ=="),
                 id="nonzero-pad-bit"),
    pytest.param(_noncanonical_tail, id="nonzero-base64-pad-bit"),
])
def test_replay_reports_malformed_packed_bits_as_error(tmp_path, capsys, edit):
    d = _trace("protocol_clean")
    edit(d)
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(d))
    assert main(["replay", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shuttervlc: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name,edit", [
    pytest.param("protocol_clean", lambda d, k=key: d["context"].pop(k),
                 id=key)
    for key in ("emitters", "corr_threshold", "snr_db", "symbol_rate")
] + [
    pytest.param("protocol_clean", lambda d, k=key: d["dwells"][0].pop(k),
                 id=f"dwell-without-{key}") for key in ("bits", "start_bit")
] + [
    pytest.param("protocol_clean",
                 lambda d: d["context"]["emitters"][0].update(id_kind="FOO"),
                 id="id_kind-FOO"),
    pytest.param("protocol_clean", lambda d: d.update(dwells=5), id="dwells-5"),
    pytest.param("protocol_clean",
                 lambda d: d["dwells"][0].update(start_bit=-25000),
                 id="start_bit-negative"),
    pytest.param("protocol_clean", lambda d: d["dwells"][0].update(pixel=5),
                 id="pixel-out-of-range"),
    # booleans are not integers in a trace
    pytest.param("protocol_clean",
                 lambda d: d["dwells"][0].update(start_bit=True),
                 id="start_bit-true"),
    pytest.param("protocol_clean", lambda d: d["dwells"][0].update(pixel=True),
                 id="pixel-true"),
    pytest.param("protocol_clean", lambda d: d.update(context={}),
                 id="context-empty"),
    pytest.param("protocol_clean", lambda d: d.update(mode="weird"),
                 id="mode-weird"),
    pytest.param("table1_type1_case1", lambda d: d.update(dwells=[]),
                 id="fixed-mask-without-dwells"),
    # a fixed-mask dwell of no bits, and tx_bits of none to match it
    pytest.param("table1_type1_case1", lambda d: [
        bits.update(n_bits=0, b64="") for bits
        in (_dwell_bits(d), *d["tx_bits"].values())],
                 id="fixed-mask-empty-dwell"),
    # one bit of tx_bits would broadcast over the dwell's
    pytest.param("table1_type1_case1",
                 _set_packed(_tx_bits, n_bits=1, b64="AA=="),
                 id="fixed-mask-tx-bits-one-bit"),
    pytest.param("table1_type1_case1",
                 lambda d: d["context"].update(snr_db=[]), id="snr_db-list"),
    # a schema-3 trace relabelled as version 5 still stores its detections,
    # and a trace holds no key its fields do not name
    pytest.param("protocol_clean", lambda d: d.update(detections=[
        {"dwell_index": 0, "offset": 0, "label": 1, "score": 13}]),
                 id="schema-3-detections"),
])
def test_replay_reports_malformed_trace_as_error(tmp_path, capsys, name, edit):
    d = _trace(name)
    edit(d)
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(d))
    assert main(["replay", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shuttervlc: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("extra", [0, 1, 2])
def test_replay_rejects_tx_bits_that_end_inside_a_dwell(tmp_path, capsys,
                                                        extra):
    # tx_bits cut 1 bit after the last dwell's first detection would
    # broadcast that bit over the whole dwell
    d = _trace("protocol_clean")
    record = TraceRecord.from_json(json.dumps(d))
    table = IdLookupTable([make_id(IdKind(e["id_kind"]), e["label"])
                           for e in record.context["emitters"]])
    last = record.dwells[-1]
    rx = np.frombuffer(last["bits"].encode(), dtype=np.uint8) - ord("0")
    first = detect_packets(rx, table, record.context["corr_threshold"])[0]
    end = last["start_bit"] + first.offset + extra
    record.tx_bits["1"] = record.tx_bits["1"][:end]
    trace = tmp_path / "trace.json"
    record.save(trace)
    assert main(["replay", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shuttervlc: error: ") and err.count("\n") == 1


def test_replay_rejects_fixed_mask_tx_bits_shorter_than_the_dwell(tmp_path,
                                                                  capsys):
    d = _trace("table1_type1_case1")
    record = TraceRecord.from_json(json.dumps(d))
    record.tx_bits["1"] = record.tx_bits["1"][:-1]
    trace = tmp_path / "trace.json"
    record.save(trace)
    assert main(["replay", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shuttervlc: error: ") and err.count("\n") == 1


def _edited(bundled, section, **values):
    """A bundled scenario's JSON text with entries of one section (None:
    the top level) replaced."""
    d = json.loads(json.dumps(bundled_scenario(bundled).source_dict))
    (d if section is None else d[section]).update(values)
    return json.dumps(d)


@pytest.mark.parametrize("text", [
    '{"name": "no optics"}', '{"optics": ', '[1, 2]',
    pytest.param(_edited("protocol_clean", None, channel=[]),
                 id="channel-list"),
    pytest.param(_edited("protocol_clean", "channel", noise_sigma="abc"),
                 id="noise_sigma-abc"),
    pytest.param(_edited("protocol_clean", "channel", ambient_dc="xyz"),
                 id="ambient_dc-xyz"),
    pytest.param(_edited("table1_type1_case1", None, mask="01"),
                 id="mask-string"),
    pytest.param(_edited("protocol_clean", None, schema_version=99),
                 id="schema_version-99"),
    pytest.param(_edited("protocol_clean", None, schema_version=1),
                 id="schema_version-1"),
    # schema 2 stated dc_bias, the threshold's mode and the bit source's
    # type, and a mask of one 0/1 per pixel
    pytest.param(_edited("gmsk_demo", None, schema_version=2, mask=[1, 0],
                         threshold={"mode": "ADAPTIVE"}),
                 id="schema_version-2"),
    pytest.param(_edited("protocol_clean", "modem", bits_per_symbol=2),
                 id="bits_per_symbol"),
    pytest.param(_edited("gmsk_demo", None, rng_seed=-1), id="rng_seed--1"),
    pytest.param(_edited("gmsk_demo", None, emitters=[
        {"label": 1, "pixel": 0, "bit_source": {"type": "random", "seed": -3}}]),
                 id="bit_source-seed--3"),
    pytest.param(_edited("gmsk_demo", None, emitters=[
        {"label": 1, "pixel": 0, "pattern": ""}]),
                 id="pattern-without-bits"),
    # a file's bits go inline as a pattern; random bits follow the run seed;
    # and there is no bit_source object
    pytest.param(_edited("gmsk_demo", None, emitters=[
        {"label": 1, "pixel": 0, "bit_source": {"type": "file",
                                                "path": "/dev/zero"}}]),
                 id="bit_source-file"),
    pytest.param(_edited("gmsk_demo", None, emitters=[
        {"label": 1, "pixel": 0, "bit_source": {"type": "random", "seed": 3}}]),
                 id="bit_source-seed-3"),
    # a GMSK modem ignores a decision level
    pytest.param(_edited("gmsk_demo", None, threshold=123.0),
                 id="gmsk-fixed-threshold"),
    pytest.param(_edited("table1_type2_case1", "channel", ambient_dc=[-50, 0]),
                 id="ambient_dc-negative"),
    pytest.param(_edited("protocol_clean", None, emitters=[
        {"label": 1, "pixel": 0.7}]), id="pixel-0.7"),
    pytest.param(_edited("gmsk_demo", None, duration_s=-5), id="duration_s--5"),
    pytest.param(_edited("protocol_clean", "protocol", T_s=2.0).replace(
        '"T_s": 2.0', '"T_s": 1e999'), id="T_s-1e999"),
    pytest.param(_edited("protocol_clean", "modem", symbol_rate=1.0).replace(
        '"symbol_rate": 1.0', '"symbol_rate": 1e999'), id="symbol_rate-1e999"),
    pytest.param(_edited("protocol_clean", "channel", noise_sgima=0.1),
                 id="channel-misspelled-key"),
    pytest.param(_edited("protocol_clean", None, emitters=[]),
                 id="emitters-empty"),
    # a name is the stem of the trace's file name in --out
    pytest.param(_edited("protocol_clean", None, name="../escaped"),
                 id="name-../escaped"),
    pytest.param(_edited("protocol_clean", None, name="a\\b"),
                 id="name-backslash"),
    pytest.param(_edited("protocol_clean", None, name=".."), id="name-.."),
    pytest.param(_edited("protocol_clean", None, name="."), id="name-."),
    pytest.param(_edited("protocol_clean", None, name=""), id="name-empty"),
    pytest.param(_edited("protocol_clean", None, name=7), id="name-7"),
    # numbers are JSON numbers, not booleans or numeric strings
    pytest.param(_edited("protocol_clean", None, emitters=[
        {"label": True, "pixel": 0}]), id="label-true"),
    pytest.param(_edited("protocol_clean", "protocol", T_s=True),
                 id="T_s-true"),
    pytest.param(_edited("protocol_clean", "channel", noise_sigma="0.05"),
                 id="noise_sigma-numeric-string"),
    pytest.param(_edited("protocol_clean", None, duration_s="4"),
                 id="duration_s-numeric-string"),
    # sample counts that the int64 sample clock cannot hold
    pytest.param(_edited("protocol_clean", "modem", symbol_rate=1e308),
                 id="symbol_rate-1e308"),
    pytest.param(_edited("protocol_clean", "modem", samples_per_symbol=10**20),
                 id="samples_per_symbol-1e20"),
    pytest.param(_edited("protocol_clean", "protocol", T_s=1e300),
                 id="T_s-1e300"),
    pytest.param(_edited("protocol_clean", None, duration_s=1e300),
                 id="duration_s-1e300"),
    # 4.2 packets of 10^18 samples per symbol
    pytest.param(_edited("protocol_clean", "modem", samples_per_symbol=10**18,
                         symbol_rate=1e-9), id="ident-window-1e22-samples"),
    # the GMSK pulse span and the identification window are constants: a
    # scenario that sets them names an unknown key, whatever the value
    pytest.param(_edited("gmsk_demo", "modem", gmsk_span=10**7),
                 id="gmsk_span-1e7"),
    pytest.param(_edited("gmsk_demo", "modem", gmsk_span=-3),
                 id="gmsk_span--3"),
    pytest.param(_edited("protocol_clean", "protocol",
                         ident_window_packets=1e9),
                 id="ident_window_packets-1e9"),
    pytest.param(_edited("protocol_clean", "protocol",
                         ident_window_packets=1e300),
                 id="ident_window_packets-1e300"),
    # a scenario gives its grid and each emitter's pixel: the lens, a
    # placement, a code rate and the GMSK bandwidth-time product are unknown
    # keys (a gmsk_bt of 1e308 or 5e307 made the GMSK pulse NaN or all zeros)
    pytest.param(_edited("protocol_clean", None,
                         placement=[[0.0744, 0], [-0.0744, 0]]),
                 id="placement-and-pixels"),
    pytest.param(_edited("gmsk_demo", None, code_rate=2.0), id="code_rate-2"),
    pytest.param(_edited("gmsk_demo", "modem", gmsk_bt=1e308),
                 id="gmsk_bt-1e308"),
    pytest.param(_edited("gmsk_demo", "modem", gmsk_bt=5e307),
                 id="gmsk_bt-5e307"),
    *(pytest.param(_edited("protocol_clean", "optics", **{key: 0.036}),
                   id=f"optics-{key}") for key in ("d", "S1", "S2", "BFL")),
    # an odd GMSK samples_per_symbol would centre the receiver's windows
    # half a sample late
    *(pytest.param(_edited("gmsk_demo", "modem", samples_per_symbol=sps),
                   id=f"gmsk-sps-{sps}") for sps in (5, 7)),
    # a grid above 10^7 pixels is refused before any per-pixel list is
    # built (10^10 pixels would have asked for an 80 GB ambient_dc default)
    pytest.param(_edited("protocol_clean", "optics", grid_rows=10**5,
                         grid_cols=10**5), id="grid-1e5x1e5"),
    pytest.param(_edited("protocol_clean", "optics", grid_rows=3163,
                         grid_cols=3163), id="grid-3163x3163"),
    # counts that fit the int64 sample clock but are still too much work:
    # 5e11 locked slots, 5e12 dwells of retries, and dwells of 1e12 samples
    pytest.param(_edited("protocol_clean", None, duration_s=1e12),
                 id="duration_s-1e12-locked-slots"),
    pytest.param(_edited("protocol_all_off", "protocol", retry_budget=10**12),
                 id="retry_budget-1e12"),
    pytest.param(_edited("protocol_clean", "protocol", T_s=2.5e7),
                 id="T_s-1e12-samples"),
    pytest.param(_edited("table1_type1_case1", None, duration_s=2.5e9),
                 id="fixed-mask-duration_s-1e12-samples"),
    # a fixed threshold must be finite
    pytest.param(_edited("table1_type2_case1", None, threshold=float("nan")),
                 id="level-nan"),
    pytest.param(_edited("table1_type2_case1", None, threshold=float("inf")),
                 id="level-inf"),
    # a symbol of 2^27 samples fit the dwell budget, but a GMSK config of
    # 2^20 took 276 MiB to build its tables
    pytest.param(_edited("gmsk_demo", "modem", samples_per_symbol=2**27),
                 id="gmsk-sps-2^27"),
    # intensities of 1e308 ran to exit 0 with SNR +inf or NaN and numpy
    # overflow warnings
    pytest.param(_edited("table1_type1_case2", None, emitters=[
        {"label": 1, "pixel": 0, "gain": 1e308}]), id="gain-1e308"),
    pytest.param(_edited("gmsk_demo", "channel", ambient_dc=[1e308, 0.0]),
                 id="ambient_dc-1e308"),
    pytest.param(_edited("table1_type1_case2", "channel", noise_sigma=1e308),
                 id="noise_sigma-1e308"),
])
def test_run_reports_malformed_scenario_as_error(tmp_path, capsys, text):
    src = tmp_path / "scenario.json"
    src.write_text(text)
    assert main(["run", str(src), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shuttervlc: error: ")
    assert err.count("\n") == 1
    # nothing is written: no --out directory, and no trace beside it
    # (a scenario named ../escaped would have written escaped_trace.json)
    assert list(tmp_path.iterdir()) == [src]


def test_bundled_path_out_of_the_package_reported_as_error(capsys):
    assert main(["run", "../scenarios/gmsk_demo", "--bundled"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shuttervlc: error: no bundled scenario named ")
    assert err.count("\n") == 1


def test_negative_seed_option_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "gmsk_demo", "--bundled", "--seed", "-1"])
    assert exc.value.code == 2
    assert "seed must be a nonnegative integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["replay", "run"])
def test_missing_file_reported_as_error(tmp_path, capsys, command):
    missing = tmp_path / "missing.json"
    assert main([command, str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shuttervlc: error: [Errno 2] ")
    assert err.count("\n") == 1 and str(missing) in err


def test_unwritable_out_reported_as_error(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert main(["run", "gmsk_demo", "--bundled",
                 "--out", str(not_a_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shuttervlc: error: ") and err.count("\n") == 1
