#!/usr/bin/env python3
"""Digests of a fixed, named corpus of traces, to prove a change moved no byte.

    python3 tools/trace_corpus.py --out FILE [--traces DIR]
    python3 tools/trace_corpus.py --against FILE [--traces DIR]

`--out` runs every case of the corpus with this checkout's `src/` and writes
`{case: sha256 of the trace's to_json}`. `--against` runs the corpus again
and exits 1 if any case's digest differs from FILE's, or a case is missing
from either side. With `--traces`, `--out` also writes each case's trace to
DIR/<case>.json, and `--against` reads them back to name, for each case that
differs, the first differing path of the trace (such as `dwells[3].bits`,
`reports.1.snr_db` or `events[7]`) and both values there.

The corpus: every bundled scenario at its own seed and at seeds 1-3;
`protocol_clean` as GMSK at 4, 8 and 16 samples per symbol, at seeds 1 and
2; a 5x5 shutter with closed-pixel leakage 0.05, ambient light 0.01 i on
pixel i and its emitters on pixels 0 and 24, as OOK and GMSK, at seeds 1
and 2; `table1_type2_case1` at `duration_s` 1000, one fixed-mask dwell of
400 000 samples, more than one of `receive`'s chunks; and CI's 100x100
shutter at T_s = 20 us and 1 MHz.
"""

import argparse
import base64
import hashlib
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from shuttervlc.scenario import (bundled_scenario,  # noqa: E402
                                 bundled_scenario_names, run_scenario,
                                 scenario_from_dict)


def _bundled(name: str) -> dict:
    return json.loads(json.dumps(bundled_scenario(name).source_dict))


def _grid(rows: int, cols: int) -> dict:
    """protocol_clean on a rows x cols shutter, its emitters in opposite
    corners."""
    n = rows * cols
    doc = _bundled("protocol_clean")
    doc["optics"].update(grid_rows=rows, grid_cols=cols)
    doc["channel"]["ambient_dc"] = [0.0] * n
    doc["emitters"][1]["pixel"] = n - 1
    return doc


def _gmsk(doc: dict, sps: int) -> dict:
    doc["modem"].update(scheme="GMSK", samples_per_symbol=sps)
    return doc


def corpus() -> dict:
    """{case: (scenario document, seed or None for the scenario's own)}"""
    cases = {}
    for name in bundled_scenario_names():
        for seed in (None, 1, 2, 3):
            cases[name if seed is None else f"{name}@{seed}"] = (
                _bundled(name), seed)
    for sps in (4, 8, 16):
        for seed in (1, 2):
            cases[f"protocol_clean_gmsk{sps}@{seed}"] = (
                _gmsk(_bundled("protocol_clean"), sps), seed)
    for scheme in ("ook", "gmsk"):
        for seed in (1, 2):
            doc = _grid(5, 5)
            doc["channel"].update(closed_leakage=0.05,
                                  ambient_dc=[0.01 * i for i in range(25)])
            cases[f"grid5x5_{scheme}@{seed}"] = (
                _gmsk(doc, 8) if scheme == "gmsk" else doc, seed)
    doc = _bundled("table1_type2_case1")
    doc["duration_s"] = 1000.0
    cases["table1_type2_case1_1000s"] = (doc, None)
    doc = _grid(100, 100)   # as CI's large-grid smoke run builds it
    doc.update(name="grid_100x100", duration_s=0.0)
    doc["modem"]["symbol_rate"] = 1e6
    doc["protocol"]["T_s"] = 20e-6
    cases["grid_100x100"] = (doc, None)
    return cases


def _same(a, b) -> bool:
    """Equal as a trace's JSON writes them: -0.0 is not 0.0, nor 1 1.0."""
    return type(a) is type(b) and (repr(a) == repr(b) if isinstance(a, float)
                                   else a == b)


def _bits(field: dict) -> np.ndarray:
    return np.unpackbits(np.frombuffer(base64.b64decode(field["b64"]),
                                       dtype=np.uint8))[:field["n_bits"]]


def first_difference(a, b, path: str = ""):
    """(path, value in a, value in b) of the first place two JSON documents
    differ, or None; a packed bit field names its first differing bit."""
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) == set(b) == {"n_bits", "b64"} and a != b:
            x, y = _bits(a), _bits(b)
            n = min(len(x), len(y))
            moved = np.flatnonzero(x[:n] != y[:n])
            bit = int(moved[0]) if len(moved) else n
            return (f"{path}: bit {bit}", *(
                int(v[bit]) if bit < len(v) else f"<{len(v)} bits>"
                for v in (x, y)))
        for key in sorted(set(a) | set(b)):
            where = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                return where, a.get(key, "<absent>"), b.get(key, "<absent>")
            found = first_difference(a[key], b[key], where)
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            if i >= len(a) or i >= len(b):
                return (f"{path}[{i}]", a[i] if i < len(a) else "<absent>",
                        b[i] if i < len(b) else "<absent>")
            found = first_difference(a[i], b[i], f"{path}[{i}]")
            if found:
                return found
        return None
    return None if _same(a, b) else (path, a, b)


def _show(value) -> str:
    text = json.dumps(value) if not isinstance(value, float) or math.isfinite(
        value) else repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--out", type=Path, help="write the digests here")
    which.add_argument("--against", type=Path,
                       help="compare with the digests written here")
    ap.add_argument("--traces", type=Path,
                    help="the cases' traces: written with --out, read with "
                         "--against")
    args = ap.parse_args(argv)
    expected = (json.loads(args.against.read_text())
                if args.against else None)
    if args.out and args.traces:
        args.traces.mkdir(parents=True, exist_ok=True)
    digests, differ = {}, 0
    for case, (doc, seed) in corpus().items():
        text = run_scenario(scenario_from_dict(doc), seed).to_json()
        digests[case] = hashlib.sha256(text.encode()).hexdigest()
        if args.out and args.traces:
            (args.traces / f"{case}.json").write_text(text)
        if expected is None or expected.get(case) == digests[case]:
            continue
        differ += 1
        print(f"{case}: sha256 {expected.get(case, '<absent>')} "
              f"-> {digests[case]}")
        reference = args.traces / f"{case}.json" if args.traces else None
        if reference and reference.exists():
            found = first_difference(json.loads(reference.read_text()),
                                     json.loads(text))
            print("  {}: {} -> {}".format(found[0], *map(_show, found[1:]))
                  if found else f"  {reference} equals this run's trace")
    if expected is None:
        args.out.write_text(json.dumps(digests, indent=1) + "\n")
        print(f"{len(digests)} cases written to {args.out}")
        return 0
    for case in sorted(set(expected) - set(digests)):
        differ += 1
        print(f"{case}: in {args.against}, not in the corpus")
    if differ:
        print(f"{differ} cases differ")
        return 1
    print(f"all {len(digests)} cases identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
