"""Command-line harness: geometry numbers, scenario runs, reference
tables, latency/packet arithmetic and trace replay."""

import argparse
import json
import math
import sys
from pathlib import Path

from .channel import ChannelError
from .framing import PACKET_BITS, FramingError
from .geometry import (InvalidSetupError, OpticalSetup, min_angle,
                       min_separation)
from .metrics import MetricsError
from .modem import ModemError
from .protocol import ProtocolError, estimate_latency, packets_per_slot
from .scenario import (ScenarioError, TraceRecord, bundled_scenario,
                       bundled_scenario_names, load_scenario, replay_trace,
                       run_scenario)
from .tables import (PROTOTYPE_SETUP, TABLE_NAMES, format_table,
                     reproduce_table)


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"seed must be a nonnegative integer, not {text!r}")
    return int(text)


def _count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, not {text!r}")
    return int(text)


def _cmd_geometry(args) -> int:
    setup = OpticalSetup(d=args.d, S1=args.s1, BFL=args.bfl)
    out = {
        "h_m": min_separation(setup),
        "alpha_deg": round(min_angle(setup), 1),
    }
    if out["h_m"] * 100 == math.inf:    # a finite h of over 1.8e306 m
        raise InvalidSetupError("h overflows in centimetres")
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"minimum separation h : {out['h_m'] * 100:.2f} cm")
        print(f"minimum angle alpha  : {out['alpha_deg']:.1f} deg")
    return 0


def _cmd_run(args) -> int:
    if args.bundled:
        scenario = bundled_scenario(args.scenario)
    else:
        scenario = load_scenario(args.scenario)
    record = run_scenario(scenario, seed_override=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{scenario.name}_trace.json"
    record.save(path)
    print(f"trace written to {path}")
    for label, rep in sorted(record.reports.items()):
        print(f"emitter {label}: BER={rep['ber']:.4g} "
              f"PER={rep['per_percent']:.2f}% SNR={rep['snr_db']:.2f} dB "
              f"goodput={rep['goodput_bps']:.4g} bps")
    if record.mode == "protocol":
        print(f"converged: {record.converged}")
    return 0


def _cmd_tables(args) -> int:
    names = TABLE_NAMES if args.name == "ALL" else (args.name,)
    all_pass = True
    out = {}
    for name in names:
        cells = reproduce_table(name)
        out[name] = [c.to_dict() for c in cells]
        if not args.json:
            print(format_table(name, cells))
            print()
        all_pass &= all(c.passed for c in cells)
    if args.json:
        print(json.dumps(out, sort_keys=True))
    return 0 if all_pass else 1


def _cmd_latency(args) -> int:
    step1, step2, total = estimate_latency(
        args.rows * args.cols, args.transmitters, args.packet_bits,
        args.bit_time, args.ts)
    out = {"step1_ms": step1 * 1e3, "step2_ms": step2 * 1e3,
           "total_ms": total * 1e3}
    if out["total_ms"] == math.inf:     # a finite total of over 1.8e305 s
        raise ProtocolError("the latency total overflows in milliseconds")
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"step 1 (discovery scan): {out['step1_ms']:.4g} ms")
        print(f"step 2 (identification): {out['step2_ms']:.4g} ms")
        print(f"total                  : {out['total_ms']:.4g} ms")
    return 0


def _cmd_packets(args) -> int:
    n = packets_per_slot(args.symbol_rate, args.bits_per_symbol, args.ts,
                         args.packet_bits)
    if args.json:
        print(json.dumps({"packets_per_slot": n}))
    else:
        print(n)
    return 0


def _cmd_replay(args) -> int:
    record = TraceRecord.load(args.trace)
    reports = replay_trace(record)
    print(json.dumps(reports, sort_keys=True, indent=2))
    if reports == record.reports:
        print("replay matches stored reports", file=sys.stderr)
        return 0
    print("replay DIFFERS from stored reports", file=sys.stderr)
    return 1


def _cmd_list(args) -> int:
    for name in bundled_scenario_names():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shuttervlc",
        description="Pixelated-shutter single-photodiode VLC simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geometry", help="minimum emitter separation and angle")
    proto = PROTOTYPE_SETUP
    p.add_argument("--d", type=float, default=proto["d"], help="pixel pitch (m)")
    p.add_argument("--s1", type=float, default=proto["S1"], help="emitter-to-lens distance (m)")
    p.add_argument("--bfl", type=float, default=proto["BFL"], help="back focal length (m)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_geometry)

    p = sub.add_parser("run", help="run a scenario file end to end")
    p.add_argument("scenario", help="path to scenario JSON, or bundled name with --bundled")
    p.add_argument("--bundled", action="store_true")
    p.add_argument("--seed", type=_seed, default=None,
                   help="override the scenario seed (a nonnegative integer)")
    p.add_argument("--out", default=".", help="output directory for the trace")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("tables", help="reproduce reference tables with pass/fail")
    p.add_argument("name", choices=list(TABLE_NAMES) + ["ALL"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("latency", help="protocol latency estimate")
    p.add_argument("--rows", type=_count, default=100)
    p.add_argument("--cols", type=_count, default=100)
    p.add_argument("--transmitters", type=int, default=100)
    p.add_argument("--packet-bits", type=int, default=PACKET_BITS)
    p.add_argument("--bit-time", type=float, default=1e-6, help="seconds per bit")
    p.add_argument("--ts", type=float, default=1e-6, help="switching slot (s)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_latency)

    p = sub.add_parser("packets-per-slot", help="whole packets per dwell slot")
    p.add_argument("--symbol-rate", type=float, required=True)
    p.add_argument("--bits-per-symbol", type=int, default=1)
    p.add_argument("--ts", type=float, default=2.0)
    p.add_argument("--packet-bits", type=int, default=PACKET_BITS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_packets)

    p = sub.add_parser("replay", help="recompute metrics from a stored trace")
    p.add_argument("trace")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("list-scenarios", help="list bundled scenario names")
    p.set_defaults(func=_cmd_list)
    return parser


# what the package raises for bad input, and a scenario, trace or output
# path that cannot be read or written: reported as one line, exit code 2
_INPUT_ERRORS = (ScenarioError, ModemError, ChannelError, FramingError,
                 ProtocolError, MetricsError, InvalidSetupError, OSError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"shuttervlc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
