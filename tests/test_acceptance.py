"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line
(run pytest with -s or read captured output) in addition to asserting.
"""

import json
import math
import time

import numpy as np
from scipy.special import erfc

from shuttervlc.framing import (BARKER_11, BARKER_13, IdKind, IdLookupTable,
                                PACKET_BITS, PAYLOAD_BITS, detect_packets,
                                frame, make_id)
from shuttervlc.modem import (ModemConfig, Scheme, demodulate,
                              gmsk_data_phase, modulate)
from shuttervlc.protocol import packets_per_slot
from shuttervlc.scenario import (bundled_scenario, replay_trace, run_scenario,
                                 scenario_from_dict)
from shuttervlc.tables import reproduce_table


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_01_geometry_exactness():
    cells = {c.name: c for c in reproduce_table("GEOMETRY")}
    ok = (abs(cells["min_separation_h"].computed - 14.88) <= 0.005
          and abs(cells["min_angle_alpha"].computed - 51.2) <= 0.1)
    _verdict(1, "geometry-exactness", ok)


def test_criterion_02_latency_exactness():
    cells = {c.name: c.computed for c in reproduce_table("T5_LATENCY")}
    expected = {"100x100_step1": 10.0, "100x100_step2": 209.6,
                "100x100_total": 219.6, "1000x1000_step1": 1000.0,
                "1000x1000_step2": 209.6, "1000x1000_total": 1209.6}
    ok = all(math.isclose(cells[k], v, abs_tol=1e-9)
             for k, v in expected.items())
    _verdict(2, "latency-exactness", ok)


def test_criterion_03_packet_count_exactness():
    ok = (packets_per_slot(500e3, 1, 2.0, 2096) == 477
          and packets_per_slot(1e6, 1, 2.0, 2096) == 954
          and packets_per_slot(2e6, 1, 2.0, 2096) == 1908)
    _verdict(3, "packet-count-exactness", ok)


def test_criterion_04_goodput_exactness():
    (cell,) = reproduce_table("GOODPUT")
    ok = abs(cell.computed - 1.313e6) <= 0.01 * 1.313e6
    _verdict(4, "goodput-exactness", ok)


def test_criterion_05_interference_regimes():
    t0 = time.time()
    ber = {}
    for typ in (1, 2, 3, 4):
        for case in (1, 2):
            name = f"table1_type{typ}_case{case}"
            record = run_scenario(bundled_scenario(name))
            assert record.reports["1"]["bits_compared"] >= 10_000
            ber[(typ, case)] = record.reports["1"]["ber"]
    ok = (ber[(3, 1)] <= 1e-2
          and 0.4 <= ber[(4, 1)] <= 0.6
          and 0.4 <= ber[(2, 1)] <= 0.6
          and all(ber[(t, 2)] <= 1e-2 for t in (1, 2, 3, 4))
          and time.time() - t0 < 60)
    _verdict(5, "interference-regimes", ok)


def test_criterion_06_selective_signaling():
    t0 = time.time()
    ok = True
    for tag in ("500k", "1M", "2M"):
        desired_only = run_scenario(
            bundled_scenario(f"table2_config1_{tag}")).reports["1"]["ber"]
        both_open = run_scenario(
            bundled_scenario(f"table2_config3_{tag}")).reports["1"]["ber"]
        ok &= both_open >= 5 * desired_only
    ok &= time.time() - t0 < 60
    _verdict(6, "selective-signaling", ok)


def _discovery_dwell_budget_respected(events):
    """One Discovery pass (noise reference + one dwell per pixel) and one
    Identification pass before locking."""
    names = [e["event"] for e in events]
    return (names.count("noise_reference_dwell") == 1
            and names.count("discovery_dwell") == 2
            and names.count("discovery_done") == 1
            and names[-1] == "locked")


def test_criterion_07_protocol_convergence():
    base = bundled_scenario("protocol_clean").source_dict
    clean = dict(base, duration_s=0.0)
    locked_ok = 0
    for trial in range(100):
        record = run_scenario(scenario_from_dict(clean),
                              seed_override=5000 + trial)
        if (record.converged
                and record.events[-1].get("locked_pixels") == [0]
                and _discovery_dwell_budget_respected(record.events)):
            locked_ok += 1

    off_base = bundled_scenario("protocol_all_off").source_dict
    off = dict(off_base, duration_s=0.0)
    off_ok = 0
    for trial in range(100):
        record = run_scenario(scenario_from_dict(off),
                              seed_override=9000 + trial)
        if (record.converged is False
                and record.events[-1]["event"] == "gave_up"
                and record.events[-1]["mask"] == [0, 0]):
            off_ok += 1
    _verdict(7, "protocol-convergence",
             locked_ok == 100 and off_ok == 100)


def test_criterion_08_framing_properties():
    ok = True
    for code in (BARKER_13, BARKER_11):
        bip = np.array([2 * b - 1 for b in code])
        full = np.correlate(bip, bip, mode="full")
        peak = len(code) - 1
        ok &= full[peak] == len(code)
        ok &= np.max(np.abs(np.delete(full, peak))) <= 1

    table = IdLookupTable([make_id(IdKind.BARKER13, 1),
                           make_id(IdKind.BARKER11_PADDED, 2)])
    rng = np.random.default_rng(808)
    for _ in range(100):
        k = int(rng.integers(1, 51))
        labels = rng.choice([1, 2], size=k)
        chunks = []
        for lab in labels:
            tid = make_id(IdKind.BARKER13 if lab == 1
                          else IdKind.BARKER11_PADDED, lab)
            chunks.append(frame(tuple(rng.integers(0, 2, PAYLOAD_BITS)),
                                tid).bits)
        dets = detect_packets(np.concatenate(chunks), table)
        ok &= (len(dets) == k
               and [d.label for d in dets] == list(labels)
               and [d.offset for d in dets] == [i * PACKET_BITS
                                                for i in range(k)])
    _verdict(8, "framing-properties", ok)


def test_criterion_09_modem_properties():
    rng = np.random.default_rng(909)
    ok = True

    # noiseless roundtrip identity over 10^4 bits, both schemes
    bits = rng.integers(0, 2, 10_000)
    ook = ModemConfig(scheme=Scheme.OOK, symbol_rate=1e3,
                      samples_per_symbol=4)
    gmsk = ModemConfig(scheme=Scheme.GMSK, symbol_rate=1e3,
                       samples_per_symbol=8)
    ok &= np.array_equal(demodulate(modulate(bits, ook), ook), bits)
    ok &= np.array_equal(demodulate(modulate(bits, gmsk), gmsk), bits)

    # isolated-symbol phase increment is exactly +-pi/2
    ok &= abs(gmsk_data_phase([1], gmsk)[-1] - math.pi / 2) < 1e-3
    ok &= abs(gmsk_data_phase([0], gmsk)[-1] + math.pi / 2) < 1e-3

    # OOK Monte-Carlo BER vs the two-level Gaussian-threshold analytic value
    for sigma in (0.5, 0.4, 1 / 3):
        tx = rng.integers(0, 2, 100_000)
        block = modulate(tx, ook)
        noisy = block + rng.normal(0, sigma, len(block))
        measured = float(np.mean(demodulate(noisy, ook,
                                            threshold=ook.dc_bias) != tx))
        arg = ook.modulation_depth * math.sqrt(ook.samples_per_symbol) / sigma
        analytic = 0.5 * erfc(arg / math.sqrt(2))
        ok &= analytic / 2 <= measured <= 2 * analytic
    _verdict(9, "modem-properties", ok)


def test_criterion_10_snr_dwell_consistency():
    # fixed channel, OOK at 10 kHz; the per-pixel SNR estimate must be
    # stable across dwell windows from 100 ms to 2000 ms
    cfg = ModemConfig(scheme=Scheme.OOK, symbol_rate=10_000,
                      samples_per_symbol=4)
    sigma = 0.3
    estimates = []
    for i, dwell_ms in enumerate((100, 500, 1000, 1500, 2000)):
        rng = np.random.default_rng([1010, i])
        n_bits = int(dwell_ms / 1000 * cfg.symbol_rate)
        block = modulate(rng.integers(0, 2, n_bits), cfg)
        sig = block + rng.normal(0, sigma, len(block))
        noise = rng.normal(0, sigma, len(block))
        estimates.append(10 * np.log10(np.var(sig) / np.var(noise)))
    spread = max(estimates) - min(estimates)
    _verdict(10, "snr-dwell-consistency", spread <= 0.5)


def test_criterion_11_replay_determinism():
    ok = True
    for name in ("table1_type1_case1", "gmsk_demo", "protocol_clean"):
        scenario = bundled_scenario(name)
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        ok &= first.to_json() == second.to_json()
        ok &= json.dumps(replay_trace(first), sort_keys=True) == \
            json.dumps(first.reports, sort_keys=True)
    _verdict(11, "replay-determinism", ok)
