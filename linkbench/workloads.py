"""The benchmark's workloads: scenario generation and output checks.

Every workload builds its scenario dicts from the bundled scenarios and the
run seed, hands the program only those dicts, and checks each operation's
outputs against properties computed here, apart from the program: closed-
form BER, protocol timing arithmetic, packet lattice counts and header
bits. One operation runs a scenario, serialises its trace, parses it back
and replays it.
"""

import json
import math
import random

import numpy as np

PACKET_BITS = 2096
HEADER_BITS = 13
IDENT_WINDOW_PACKETS = 4.2
# Barker codes as bits (+1 -> 1, -1 -> 0); the 11-chip one padded with "11"
HEADERS = {"BARKER13": "1111100110101", "BARKER11_PADDED": "1110001001011"}
BER_POOL_ROUNDS = 100       # the OOK BER pool stops growing after this
BER_POOL_Z = 4.5            # two-sided binomial bound, in standard deviations


def op_seed(seed: int, round_index: int, slot: int) -> int:
    """Seed handed to run_scenario for one operation of a run."""
    return int(np.random.SeedSequence([seed, round_index, slot])
               .generate_state(1)[0])


class Case:
    """One scenario dict and the Scenario the program built from it."""

    def __init__(self, doc: dict, scenario, **expect):
        self.doc = doc
        self.scenario = scenario
        self.expect = expect
        self.name = doc["name"]
        modem = doc["modem"]
        self.rate = float(modem["symbol_rate"])
        self.sps = int(modem["samples_per_symbol"])
        self.fs = self.rate * self.sps
        self.n_pixels = doc["optics"]["grid_rows"] * doc["optics"]["grid_cols"]


class Outcome:
    """Outputs of one operation, plus its host time."""

    def __init__(self, case: Case, seconds: float, record, text: str,
                 replayed: dict):
        self.case, self.seconds = case, seconds
        self.record, self.text, self.replayed = record, text, replayed
        self.bit_errors = {}        # label -> errors, set by a BER check

    def channel_samples(self) -> int:
        """Samples on the simulated timeline: its end time x sample rate."""
        rec, case = self.record, self.case
        if rec.mode == "fixed_mask":
            return sum(len(d["bits"]) for d in rec.dwells) * case.sps
        end = round(rec.events[-1]["sim_time_s"] * case.fs)
        if rec.dwells:
            last = rec.dwells[-1]
            end = max(end, round(last["t0_s"] * case.fs)
                      + len(last["bits"]) * case.sps)
        return end


def _copy(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


def _canon(reports: dict) -> str:
    return json.dumps(reports, sort_keys=True)


def _bits(s: str) -> np.ndarray:
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")


def _ook_ber(doc: dict) -> float:
    """Closed-form BER of integrate-and-dump OOK in AWGN:
    0.5 erfc(m sqrt(sps) / (sigma sqrt 2))."""
    m = doc["modem"]["modulation_depth"]
    sps = doc["modem"]["samples_per_symbol"]
    sigma = doc["channel"]["noise_sigma"]
    return 0.5 * math.erfc(m * math.sqrt(sps) / (sigma * math.sqrt(2)))


def _whole_packets(start_bit: int, n_bits: int) -> int:
    first = -(-start_bit // PACKET_BITS)
    return max(0, (start_bit + n_bits) // PACKET_BITS - first)


class Workload:
    name = ""
    why = ""

    def docs(self, bundled, seed: int) -> list:
        """(scenario dict, expectations) pairs; `bundled(name)` reads a
        bundled scenario dict."""
        raise NotImplementedError

    def ops(self, cases: list, seed: int, round_index: int) -> list:
        """(case, run seed) of every timed operation in one round: by
        default each case once."""
        return [(c, op_seed(seed, round_index, i)) for i, c in enumerate(cases)]

    def tamper_cases(self, cases: list) -> list:
        return []

    def check(self, out: Outcome) -> list:
        errors = []
        if _canon(out.replayed) != _canon(out.record.reports):
            errors.append("honest replay differs from the stored reports")
        return errors

    def check_round(self, outs: list) -> list:
        return []

    def check_run(self) -> list:
        return []


class BerFixedMask(Workload):
    name = "ber_fixed_mask"
    why = ("fixed-mask BER runs: modem, channel and replay only, no framing "
           "or controller")

    def __init__(self):
        self.pool = [0, 0, 0.0]     # errors, bits, expected errors
        self.pooled_rounds = 0

    def docs(self, bundled, seed):
        names = [f"table1_type{t}_case{c}" for t in (1, 2, 3, 4) for c in (1, 2)]
        names += [f"table2_config{k}_{r}" for k in (1, 3)
                  for r in ("500k", "1M", "2M")]
        return [(bundled(n), {}) for n in names + ["gmsk_demo"]]

    def tamper_cases(self, cases):
        return cases

    def check(self, out):
        errors = super().check(out)
        rec, case = out.record, out.case
        n = round(case.doc["duration_s"] * case.rate)
        labels = sorted(str(e["label"]) for e in case.doc["emitters"])
        if len(rec.dwells) != 1 or len(rec.dwells[0]["bits"]) != n:
            return errors + [f"{case.name}: expected one dwell of {n} bits"]
        if sorted(rec.reports) != labels or sorted(rec.tx_bits) != labels:
            return errors + [f"{case.name}: reports for {sorted(rec.reports)}"]
        rx = _bits(rec.dwells[0]["bits"])
        for label in labels:
            rep, tx = rec.reports[label], _bits(rec.tx_bits[label])
            if rep["bits_compared"] != n or len(tx) != n:
                errors.append(f"{case.name}: bits_compared "
                              f"{rep['bits_compared']} != {n}")
                continue
            k = int(np.count_nonzero(tx != rx))
            out.bit_errors[label] = k
            if not math.isclose(rep["ber"], k / n, rel_tol=1e-12, abs_tol=0):
                errors.append(f"{case.name}: ber {rep['ber']} != {k}/{n}")
        if case.name == "gmsk_demo" and rec.reports["1"]["ber"] > 1e-3:
            errors.append(f"gmsk_demo: ber {rec.reports['1']['ber']} > 1e-3")
        return errors

    def check_round(self, outs):
        ber = {o.case.name: o.record.reports["1"]["ber"] for o in outs}
        errors = []
        # acceptance criterion 05: interference regimes
        if not (ber["table1_type3_case1"] <= 1e-2
                and 0.4 <= ber["table1_type4_case1"] <= 0.6
                and 0.4 <= ber["table1_type2_case1"] <= 0.6
                and all(ber[f"table1_type{t}_case2"] <= 1e-2
                        for t in (1, 2, 3, 4))):
            errors.append(f"interference regimes violated: {ber}")
        # acceptance criterion 06: selective signalling
        for r in ("500k", "1M", "2M"):
            if not ber[f"table2_config3_{r}"] >= 5 * ber[f"table2_config1_{r}"]:
                errors.append(f"selective signalling violated at {r}")
        if self.pooled_rounds < BER_POOL_ROUNDS:
            self.pooled_rounds += 1
            for o in outs:
                if o.case.name.startswith("table2_config1_") \
                        and "1" in o.bit_errors:
                    n = o.record.reports["1"]["bits_compared"]
                    self.pool[0] += o.bit_errors["1"]
                    self.pool[1] += n
                    self.pool[2] += n * _ook_ber(o.case.doc)
        return errors

    def check_run(self):
        k, n, mean = self.pool
        if n == 0:
            return ["no OOK BER pooled"]
        p = mean / n
        if abs(k - mean) > BER_POOL_Z * math.sqrt(n * p * (1 - p)):
            return [f"pooled OOK BER {k}/{n} = {k / n:.6f} outside "
                    f"{BER_POOL_Z} sigma of the closed form {p:.6f}"]
        return []


class _Protocol(Workload):
    """Checks shared by the workloads that run the shutter controller."""

    def check(self, out):
        errors = super().check(out)
        rec, case, x = out.record, out.case, out.case.expect
        doc, n = case.doc, case.n_pixels
        proto = doc["protocol"]
        T_s, retry = proto["T_s"], proto["retry_budget"]
        ev = rec.events
        names = [e["event"] for e in ev]
        if x["target"] is None:
            end = retry * (n + 1) * T_s
            if rec.converged is not False or names[-1] != "gave_up" \
                    or ev[-1]["mask"] != [0] * n:
                errors.append(f"{case.name}: expected give-up with all "
                              f"pixels closed, got {names[-1]}")
            elif not math.isclose(ev[-1]["sim_time_s"], end, abs_tol=1e-9):
                errors.append(f"{case.name}: gave up at "
                              f"{ev[-1]['sim_time_s']} s, not {end} s")
            return errors
        bright = sum(1 for e in doc["emitters"] if e.get("gain", 1.0) > 0)
        window = math.floor(IDENT_WINDOW_PACKETS * PACKET_BITS) / case.rate
        lock = (n + 1) * T_s + bright * window
        if not (rec.converged is True and names[-1] == "locked"
                and ev[-1]["locked_pixels"] == [x["target"]]
                and names.count("noise_reference_dwell") == 1
                and names.count("discovery_dwell") == n
                and names.count("identification_dwell") == bright):
            return errors + [f"{case.name}: did not lock on pixel "
                             f"{x['target']} in one cycle: {ev[-1]}"]
        if not math.isclose(ev[-1]["sim_time_s"], lock, abs_tol=1e-9):
            errors.append(f"{case.name}: locked at {ev[-1]['sim_time_s']} s, "
                          f"not {lock} s")
        return errors + self._check_slots(out, lock)

    def _check_slots(self, out, lock):
        rec, case, x = out.record, out.case, out.case.expect
        doc = case.doc
        T_s = doc["protocol"]["T_s"]
        slots, left = 0, doc["duration_s"]
        while left >= T_s / 2:
            slots, left = slots + 1, left - T_s
        if slots == 0:
            if rec.dwells or rec.reports or rec.tx_bits:
                return [f"{case.name}: slot output without a locked period"]
            return []
        slot_bits = round(T_s * case.rate)
        first = round(lock * case.rate)
        errors = []
        if len(rec.dwells) != slots:
            return [f"{case.name}: {len(rec.dwells)} locked dwells, "
                    f"not {slots}"]
        for k, d in enumerate(rec.dwells):
            if (d["pixel"] != x["target"] or len(d["bits"]) != slot_bits
                    or d["start_bit"] != first + k * slot_bits
                    or not math.isclose(d["t0_s"], d["start_bit"] / case.rate,
                                        abs_tol=1e-9)):
                errors.append(f"{case.name}: locked dwell {k} misplaced")
        label = str(x["label"])
        if sorted(rec.reports) != [label] or sorted(rec.tx_bits) != [label]:
            return errors + [f"{case.name}: reports for {sorted(rec.reports)}"]
        rep = rec.reports[label]
        expected = sum(_whole_packets(d["start_bit"], len(d["bits"]))
                       for d in rec.dwells)
        if rep["packets_expected"] != expected:
            errors.append(f"{case.name}: packets_expected "
                          f"{rep['packets_expected']} != {expected}")
        if rep["packets_detected_valid"] != expected or rep["ber"] > 1e-3:
            errors.append(f"{case.name}: clean link lost packets or bits: "
                          f"{rep}")
        tx = rec.tx_bits[label]
        if len(tx) != first + slots * slot_bits:
            errors.append(f"{case.name}: tx_bits holds {len(tx)} bits")
        header = HEADERS[x["id_kind"]]
        for start in range(0, len(tx), PACKET_BITS):
            head = tx[start:start + HEADER_BITS]
            if head != header[:len(head)]:
                errors.append(f"{case.name}: packet at bit {start} does not "
                              f"start with the {x['id_kind']} header")
                break
        return errors


def _target(doc: dict) -> dict:
    """Pixel, label and ID of the emitter the protocol should lock on."""
    want = doc["protocol"]["select_target"]
    e = next(e for e in doc["emitters"] if e["id_kind"] == want)
    return {"target": e["pixel"], "label": e["label"], "id_kind": want}


class ProtocolSeeds(_Protocol):
    name = "protocol_seeds"
    why = ("criterion-07 shape: lock and give-up runs with no locked period; "
           "the horizon precompute dominates")

    def docs(self, bundled, seed):
        clean = dict(bundled("protocol_clean"), duration_s=0.0)
        off = dict(bundled("protocol_all_off"), duration_s=0.0)
        return [(clean, _target(clean)), (off, {"target": None})]


class SlottedTraffic(_Protocol):
    name = "slotted_traffic"
    why = ("12 s of locked time-slotted reception, OOK and GMSK: detection, "
           "demodulation, trace serialisation and replay")

    def docs(self, bundled, seed):
        ook = bundled("protocol_clean")
        gmsk = _copy(ook)
        gmsk["name"] = "protocol_clean_gmsk"
        gmsk["modem"].update(scheme="GMSK", samples_per_symbol=8)
        return [(ook, _target(ook)), (gmsk, _target(gmsk))]


class GridScan(_Protocol):
    name = "grid_scan"
    why = ("protocol_clean physics on a 5x5 shutter, two emitters on distant "
           "pixels: cost and memory grow with pixel count")
    side = 5
    placements = 8

    def docs(self, bundled, seed):
        base = bundled("protocol_clean")
        n = self.side * self.side
        rng = random.Random(seed)
        docs = []
        for k in range(self.placements):
            a = rng.randrange(n)
            far = [p for p in range(n)
                   if abs(p // self.side - a // self.side)
                   + abs(p % self.side - a % self.side) >= self.side - 1]
            b = rng.choice(far)
            doc = _copy(base)
            doc["name"] = f"grid{self.side}x{self.side}_{k}"
            doc["duration_s"] = 0.0
            doc["optics"].update(grid_rows=self.side, grid_cols=self.side)
            doc["channel"]["ambient_dc"] = [0.0] * n
            doc["emitters"][0]["pixel"] = a
            doc["emitters"][1]["pixel"] = b
            docs.append((doc, _target(doc)))
        return docs

    def ops(self, cases, seed, round_index):
        return [(cases[round_index % len(cases)], op_seed(seed, round_index, 0))]


WORKLOADS = {w.name: w for w in (BerFixedMask, ProtocolSeeds, SlottedTraffic,
                                 GridScan)}
