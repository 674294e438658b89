#!/usr/bin/env python3
"""Regenerate the bundled scenario JSON files."""

import json
from pathlib import Path

OUT = Path(__file__).resolve().parents[1] / "src" / "shuttervlc" / "scenarios"

# the prototype's two-pixel shutter; each emitter names its pixel, and
# `shuttervlc geometry` gives how far apart two emitters must be to differ
OPTICS = {"grid_rows": 1, "grid_cols": 2}

# intensity is in units of the LEDs' DC bias
OOK_100 = {"scheme": "OOK", "symbol_rate": 100, "samples_per_symbol": 4,
           "modulation_depth": 0.5}


def led(label, pixel, **kw):
    base = {"label": label, "pixel": pixel, "gain": 1.0,
            "id_kind": "BARKER13" if label == 1 else "BARKER11_PADDED"}
    base.update(kw)
    return base


def table1(name, emitters, mask, ambient, saturation, seed, **extra):
    """A Table I scenario; `mask` lists the open pixels."""
    return {
        "schema_version": 3,
        "name": name,
        "rng_seed": seed,
        "duration_s": 100.0,                    # 10^4 bits at 100 Hz
        "optics": OPTICS,
        "modem": OOK_100,
        "emitters": emitters,
        "channel": {"ambient_dc": ambient, "noise_sigma": 0.3,
                    "closed_leakage": 0.0, "saturation_level": saturation},
        "mask": mask,
        **extra,
    }


scenarios = {}

# Table I interference patterns: Case I = both pixels open, Case II = only
# the desired pixel open. Noise sigma 0.3 puts clean per-symbol BER ~4e-4.
# The threshold is adaptive but for type 2's fixed decision level.
single = [led(1, 0)]
mirror_in = [led(1, 0), led(2, 1, same_as=1)]
mirror_out = [led(1, 0), led(2, 1, phase_offset="INVERTED", same_as=1)]

scenarios["table1_type1_case1"] = table1(
    "table1_type1_case1", single, [0, 1], [0.0, 0.0], 100.0, 11)
scenarios["table1_type1_case2"] = table1(
    "table1_type1_case2", single, [0], [0.0, 0.0], 100.0, 12)
# ambient DC on the interferer pixel saturates the front end when open
scenarios["table1_type2_case1"] = table1(
    "table1_type2_case1", single, [0, 1], [0.0, 10.0], 8.0, 13, threshold=1.0)
scenarios["table1_type2_case2"] = table1(
    "table1_type2_case2", single, [0], [0.0, 10.0], 8.0, 14, threshold=1.0)
scenarios["table1_type3_case1"] = table1(
    "table1_type3_case1", mirror_in, [0, 1], [0.0, 0.0], 100.0, 15)
scenarios["table1_type3_case2"] = table1(
    "table1_type3_case2", mirror_in, [0], [0.0, 0.0], 100.0, 16)
scenarios["table1_type4_case1"] = table1(
    "table1_type4_case1", mirror_out, [0, 1], [0.0, 0.0], 100.0, 17)
scenarios["table1_type4_case2"] = table1(
    "table1_type4_case2", mirror_out, [0], [0.0, 0.0], 100.0, 18)

# Table II selective signaling: independent interferer, three symbol rates,
# desired-only (config 1) vs both open (config 3). 10^4 bits per run.
for seed, (rate, tag) in enumerate(((500e3, "500k"), (1e6, "1M"),
                                    (2e6, "2M")), start=21):
    for config, mask in (("config1", [0]), ("config3", [0, 1])):
        name = f"table2_{config}_{tag}"
        scenarios[name] = {
            "schema_version": 3,
            "name": name,
            "rng_seed": seed,
            "duration_s": 1e4 / rate,
            "optics": OPTICS,
            "modem": {"scheme": "OOK", "symbol_rate": rate,
                      "samples_per_symbol": 4, "modulation_depth": 0.5},
            "emitters": [led(1, 0), led(2, 1)],
            "channel": {"ambient_dc": [0.0, 0.0], "noise_sigma": 0.35,
                        "closed_leakage": 0.0, "saturation_level": 100.0},
            "mask": mask,
            }

# Automated shutter protocol: two framed transmitters at 10 kbit/s, 2 s
# dwell slots, LED 1 selected as the desired signal.
protocol_common = {
    "schema_version": 3,
    "optics": OPTICS,
    "modem": {"scheme": "OOK", "symbol_rate": 10000, "samples_per_symbol": 4,
              "modulation_depth": 0.5},
    "channel": {"ambient_dc": [0.0, 0.0], "noise_sigma": 0.05,
                "closed_leakage": 0.0, "saturation_level": 100.0},
    "protocol": {"T_s": 2.0, "snr_threshold_db": 10.0, "corr_threshold": 11,
                 "retry_budget": 3, "select_target": "BARKER13"},
}
scenarios["protocol_clean"] = {
    **protocol_common,
    "name": "protocol_clean",
    "rng_seed": 7,
    "duration_s": 12.0,
    "emitters": [led(1, 0), led(2, 1)],
}
scenarios["protocol_all_off"] = {
    **protocol_common,
    "name": "protocol_all_off",
    "rng_seed": 8,
    "duration_s": 4.0,
    "emitters": [led(1, 0, gain=0.0), led(2, 1, gain=0.0)],
}
# no select_target: both pixels lock and the slots alternate between them
scenarios["protocol_multi"] = {
    **protocol_common,
    "name": "protocol_multi",
    "rng_seed": 7,
    "duration_s": 8.0,
    "emitters": [led(1, 0), led(2, 1)],
    "protocol": {k: v for k, v in protocol_common["protocol"].items()
                 if k != "select_target"},
}

# GMSK demo on a clean single-emitter link
scenarios["gmsk_demo"] = {
    "schema_version": 3,
    "name": "gmsk_demo",
    "rng_seed": 30,
    "duration_s": 2.0,
    "optics": OPTICS,
    "modem": {"scheme": "GMSK", "symbol_rate": 1000, "samples_per_symbol": 8,
              "modulation_depth": 0.5},
    "emitters": [led(1, 0)],
    "channel": {"ambient_dc": [0.0, 0.0], "noise_sigma": 0.01,
                "closed_leakage": 0.0, "saturation_level": 100.0},
    "mask": [0],
}


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, data in scenarios.items():
        path = OUT / f"{name}.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
