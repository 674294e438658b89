#!/usr/bin/env python3
"""Link-simulator benchmark: one process, one closed-loop client.

    python3 linkbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the program from
`src/` there and exits with code 2, printing no result, if that is missing.
One operation is what `shuttervlc run` followed by `shuttervlc replay`
does: run one scenario, serialise its trace, parse it back and replay it.
The run repeats whole rounds of operations until S seconds have passed and
checks every output. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it runs every round twice, untraced and then traced, and prints
the per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. A line
before it and a file under .linkbench_out/ record the machine, the
operation counts and any span targets the program no longer has.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one client thread: keep the BLAS and OpenMP pools from starting workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".linkbench_out"
SETUP_REPEATS = 5
# Time of the SpeedProbe kernel on the reference host (2 vCPUs, quiet).
# Host times are reported at that speed: scaled by REF_PROBE_S / the probe
# time measured beside them.
REF_PROBE_S = 0.015


class SpeedProbe:
    """A fixed kernel of interpreter and array work, timed between rounds.

    The benchmark shares its host with other tenants, whose load changes
    the host's speed by tens of percent over tens of seconds. The probe
    moves with that speed, so a time divided by the probe time beside it
    is steady where the raw time is not."""

    def __init__(self):
        self.data = np.random.default_rng(0).normal(size=1_000_000)
        self.times = []

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i
        np.cumsum(self.data)
        np.sort(self.data[:100_000])
        [int(b) for b in self.data[:30_000] > 0]
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]


def _samples_out(args, result):
    return (len(result), len(result) * len(args[0]))


def _first_arg_len(args, result):
    return (len(args[0]),)


def _result_len(args, result):
    return (len(result),)


# (owner, attribute, span name, work counts): each function is wrapped at
# the name its caller looks it up by.
TRACE_TARGETS = [
    ("shuttervlc", "run_scenario", "scenario.run", None),
    ("shuttervlc.TraceRecord", "to_json", "scenario.serialize", None),
    ("shuttervlc.TraceRecord", "from_json", "scenario.parse", None),
    ("shuttervlc", "replay_trace", "scenario.replay", None),
    ("shuttervlc.scenario.LinkSimulation", "prepare", "scenario.prepare", None),
    ("shuttervlc.scenario.LinkSimulation", "dwell", "scenario.dwell", None),
    ("shuttervlc.scenario", "emitter_bits", "scenario.emitter_bits", None),
    ("shuttervlc.framing", "frame", "framing.frame", None),
    ("shuttervlc.scenario", "modulate", "modem.modulate", _result_len),
    ("shuttervlc.scenario", "demodulate", "modem.demodulate", _first_arg_len),
    ("shuttervlc.scenario", "receive", "channel.receive", _samples_out),
    ("shuttervlc.scenario", "received_snr_db", "channel.snr", None),
    ("shuttervlc.protocol", "received_snr_db", "channel.snr", None),
    ("shuttervlc.scenario", "detect_packets", "framing.detect", _first_arg_len),
    ("shuttervlc.protocol", "detect_packets", "framing.detect", _first_arg_len),
    ("shuttervlc.scenario", "run_controller", "protocol.controller", None),
]

# per-layer metric -> (span name, quantity); values are per operation
LAYER_METRICS = {
    "framing.frame_s": ("framing.frame", "time"),
    "framing.frame_calls": ("framing.frame", "calls"),
    "scenario.bits_s": ("scenario.emitter_bits", "time"),
    "scenario.prepare_s": ("scenario.prepare", "time"),
    "scenario.samples_modulated": ("modem.modulate", "work0"),
    "modem.modulate_s": ("modem.modulate", "time"),
    "modem.demodulate_s": ("modem.demodulate", "time"),
    "modem.demodulate_samples": ("modem.demodulate", "work0"),
    "channel.receive_s": ("channel.receive", "time"),
    "channel.receive_calls": ("channel.receive", "calls"),
    "channel.snr_s": ("channel.snr", "time"),
    "framing.detect_s": ("framing.detect", "time"),
    "framing.detect_bits": ("framing.detect", "work0"),
    "scenario.serialize_s": ("scenario.serialize", "time"),
    "scenario.parse_s": ("scenario.parse", "time"),
    "scenario.replay_s": ("scenario.replay", "time"),
    "scenario.run_self_s": ("scenario.run", "self"),
    "protocol.controller_self_s": ("protocol.controller", "self"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def build_cases(svl, workload, seed):
    scenario_dir = Path(svl.__file__).resolve().parent / "scenarios"

    def bundled(name):
        return json.loads((scenario_dir / f"{name}.json").read_text())

    return [wl.Case(doc, svl.scenario_from_dict(doc), **expect)
            for doc, expect in workload.docs(bundled, seed)]


def run_op(svl, case, seed):
    t0 = time.perf_counter()
    record = svl.run_scenario(case.scenario, seed_override=seed)
    text = record.to_json()
    replayed = svl.replay_trace(svl.TraceRecord.from_json(text))
    return wl.Outcome(case, time.perf_counter() - t0, record, text, replayed)


def tamper_op(svl, case, forged_text):
    """Replay a trace whose stored snr_db was edited; True if replay (or
    parsing) reports the difference."""
    try:
        forged = svl.TraceRecord.from_json(forged_text)
        replayed = svl.replay_trace(forged)
    except ValueError:
        return True
    return (json.dumps(replayed, sort_keys=True)
            != json.dumps(forged.reports, sort_keys=True))


def forge(svl, case):
    """The case's trace at its own bundled seed, one report's snr_db
    edited; it does not depend on the run seed."""
    doc = json.loads(svl.run_scenario(case.scenario).to_json())
    report = doc["reports"][min(doc["reports"])]
    snr = report["snr_db"]
    report["snr_db"] = snr + 10.0 if abs(snr) < float("inf") else 0.0
    return json.dumps(doc, sort_keys=True, indent=2)


class Run:
    """Counters and per-operation figures of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []          # failed output checks
        self.op_errors = []       # operations that raised
        self.seconds = []         # untraced timed operations
        self.round_means = []     # mean operation time of each whole round
        self.round_rates = []     # channel samples per second of each round
        self.round_speed = []     # REF_PROBE_S / probe time around the round
        self.traced_seconds = []
        self.traced_samples = 0
        self.trace_bytes = 0
        self.events = 0


def do_pass(svl, workload, cases, seed, round_index, run, forged, rec=None):
    """One round of operations; returns the outcomes that completed."""
    outs = []
    for case, op_seed in workload.ops(cases, seed, round_index):
        run.attempted += 1
        if rec is not None:
            rec.op += 1
            rec.install()
        try:
            outs.append(run_op(svl, case, op_seed))
        except Exception:   # one failed operation must not end the run
            run.failed += 1
            run.op_errors.append(f"{case.name} seed {op_seed}: "
                                 + traceback.format_exc(limit=3))
        finally:
            if rec is not None:
                rec.uninstall()
    for case in workload.tamper_cases(cases):
        run.attempted += 1
        if case.name not in forged:
            forged[case.name] = forge(svl, case)
        if not tamper_op(svl, case, forged[case.name]):
            run.failed += 1
    return outs


def measure(svl, workload, cases, seed, seconds, rec, probe):
    run = Run()
    forged = {}
    deadline = time.perf_counter() + seconds
    round_index = 0
    before = probe()
    while round_index == 0 or time.perf_counter() < deadline:
        outs = do_pass(svl, workload, cases, seed, round_index, run, forged)
        after = probe()
        complete = len(outs) == len(workload.ops(cases, seed, round_index))
        for out in outs:
            run.errors += workload.check(out)
            run.seconds.append(out.seconds)
            run.trace_bytes += len(out.text)
        if complete:
            run.errors += workload.check_round(outs)
            busy = sum(o.seconds for o in outs)
            run.round_means.append(busy / len(outs))
            run.round_rates.append(
                sum(o.channel_samples() for o in outs) / busy)
            run.round_speed.append(2 * REF_PROBE_S / (before + after))
        before = after
        if rec is not None:
            traced = do_pass(svl, workload, cases, seed, round_index, run,
                             forged, rec)
            if [o.text for o in traced] != [o.text for o in outs]:
                run.errors.append(f"round {round_index}: traced outputs "
                                  "differ from untraced ones")
            for out in traced:
                run.traced_seconds.append(out.seconds)
                run.traced_samples += out.channel_samples()
                run.events += len(out.record.events)
        round_index += 1
    run.errors += workload.check_run()
    run.rounds = round_index
    return run


def layer_metrics(rec, run):
    """Per-operation layer figures from the traced passes."""
    n = len(run.traced_seconds)
    summary = spans.summarize(rec.spans)
    empty = {"calls": 0, "time": 0.0, "self": 0.0, "work": [0, 0],
             "under": {}}
    out = {}
    for metric, (span, quantity) in LAYER_METRICS.items():
        s = summary.get(span, empty)
        value = s["work"][0] if quantity == "work0" else s[quantity]
        out[metric] = value / n
    receive = summary.get("channel.receive", empty)
    # samples on the simulated timeline are those received inside a dwell;
    # without a dwell wrapper, every receive call counts
    timeline = receive["under"].get("scenario.dwell", receive)
    modulated = summary.get("modem.modulate", empty)["work"][0]
    out["channel.receive_samples"] = timeline["work"][0] / n
    out["scenario.sample_use"] = (timeline["work"][1] / modulated
                                  if modulated else 0.0)
    out["protocol.dwells"] = receive["under"].get(
        "protocol.controller", {"calls": 0})["calls"] / n
    out["protocol.events"] = run.events / n
    out["trace.overhead_s"] = (statistics.fmean(run.traced_seconds)
                               - statistics.fmean(run.seconds))
    if "shuttervlc.scenario.LinkSimulation.dwell" not in rec.absent \
            and timeline["work"][0] != run.traced_samples:
        run.errors.append(
            f"traced channel samples {timeline['work'][0]} != "
            f"{run.traced_samples} derived from the traces")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "shuttervlc" / "__init__.py").is_file():
        print(f"linkbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import scipy
    import shuttervlc as svl
    if Path(svl.__file__).resolve().parent != ROOT / "src" / "shuttervlc":
        print(f"linkbench: imported shuttervlc from {svl.__file__}",
              file=sys.stderr)
        return 2
    imported = time.perf_counter()
    workload = wl.WORKLOADS[args.workload]()
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cases = build_cases(svl, workload, args.seed)
        builds.append(time.perf_counter() - t0)
    setup_raw = (imported - T_START) + statistics.median(builds)
    probe = SpeedProbe()
    probe()                                     # warm-up, not used
    setup_speed = REF_PROBE_S / statistics.median(probe() for _ in range(3))
    setup = {"import_s": imported - T_START, "build_s": builds,
             "raw_s": setup_raw, "speed": setup_speed}

    rec = spans.Recorder(TRACE_TARGETS) if args.trace else None
    run = measure(svl, workload, cases, args.seed, args.seconds, rec, probe)
    scaled_means = [m * k for m, k in zip(run.round_means, run.round_speed)]
    scaled_rates = [r / k for r, k in zip(run.round_rates, run.round_speed)]

    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in layer_metrics(rec, run).items()}
    else:
        metrics = {
            "setup_s": {"value": setup_raw * setup_speed, "unit": "s"},
            "run_p50_s": {"value": statistics.median(scaled_means),
                          "unit": "s"},
            "msamples_per_s": {"value": statistics.median(scaled_rates) / 1e6,
                               "unit": "Msamples/s"},
            "peak_rss_mib": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
            "trace_kib": {"value": run.trace_bytes / len(run.seconds) / 1024,
                          "unit": "KiB"},
        }
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "setup": setup,
        "rounds": run.rounds,
        "unscaled": {"run_p50_s": statistics.median(run.round_means),
                     "msamples_per_s": statistics.median(run.round_rates) / 1e6,
                     "speed_probe_p50_s": statistics.median(probe.times)},
        "timed_operations": len(run.seconds), "attempted": run.attempted,
        "failed": run.failed,
        "machine": {"cores": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__},
        "absent": rec.absent if rec else [],
        "check_errors": run.errors[:20], "operation_errors": run.op_errors[:5],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        dict(info, metrics=metrics, spans=rec.to_json_obj() if rec else None)))
    for line in run.errors[:20] + run.op_errors[:5]:
        print(f"linkbench: {line}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric == "scenario.sample_use" else "count"


if __name__ == "__main__":
    sys.exit(main())
