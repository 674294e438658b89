"""One-command reproduction of the reference geometry, packet-count,
latency and goodput numbers, with per-cell pass/fail."""

from dataclasses import dataclass
from typing import List

from .framing import PACKET_BITS
from .geometry import OpticalSetup, min_angle, min_separation
from .metrics import goodput
from .protocol import estimate_latency, packets_per_slot

TABLE_NAMES = ("GEOMETRY", "T3_PACKETS", "T5_LATENCY", "GOODPUT")

# prototype optics: d=3.6cm, S1=15.5cm, S2=8.2cm, BFL=3.75cm; no formula
# reads the lens-to-shutter distance S2
PROTOTYPE_SETUP = dict(d=0.036, S1=0.155, BFL=0.0375)


@dataclass
class TableCell:
    name: str
    computed: float
    expected: float
    tolerance: float
    unit: str = ""

    @property
    def passed(self) -> bool:
        return abs(self.computed - self.expected) <= self.tolerance

    def to_dict(self) -> dict:
        return {"name": self.name, "computed": self.computed,
                "expected": self.expected, "tolerance": self.tolerance,
                "unit": self.unit, "pass": self.passed}


def reproduce_table(name: str) -> List[TableCell]:
    """Compute one reference table; each cell carries its tolerance."""
    name = name.upper()
    if name == "GEOMETRY":
        setup = OpticalSetup(**PROTOTYPE_SETUP)
        return [
            TableCell("min_separation_h", min_separation(setup) * 100.0,
                      14.88, 0.005, "cm"),
            TableCell("min_angle_alpha", min_angle(setup), 51.2, 0.1, "deg"),
        ]
    if name == "T3_PACKETS":
        return [
            TableCell(f"packets_in_2s_at_{int(rate/1e3)}kHz",
                      packets_per_slot(rate, 1, 2.0, PACKET_BITS), expected, 0)
            for rate, expected in ((500e3, 477), (1e6, 954), (2e6, 1908))
        ]
    if name == "T5_LATENCY":
        cells = []
        for side, step1_ms, total_ms in ((100, 10.0, 219.6),
                                         (1000, 1000.0, 1209.6)):
            step1, step2, total = estimate_latency(
                side * side, 100, PACKET_BITS, 1e-6, 1e-6)
            cells += [
                TableCell(f"{side}x{side}_step1", step1 * 1e3,
                          step1_ms, 1e-9, "ms"),
                TableCell(f"{side}x{side}_step2", step2 * 1e3,
                          209.6, 1e-9, "ms"),
                TableCell(f"{side}x{side}_total", total * 1e3,
                          total_ms, 1e-9, "ms"),
            ]
        return cells
    if name == "GOODPUT":
        # reported headline value rounds 1.3133 Mbps to 1.3 Mbps
        g = goodput(0.015, 1.0 / 3.0, 2e6, 2)
        return [TableCell("goodput_2MHz_rate13", g, 1.313e6,
                          0.01 * 1.313e6, "bps")]
    raise ValueError(f"unknown table {name!r}; choose from {TABLE_NAMES}")


def format_table(name: str, cells: List[TableCell]) -> str:
    lines = [f"{name}", "-" * len(name)]
    width = max(len(c.name) for c in cells)
    for c in cells:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{c.name:<{width}}  computed={c.computed:<14.6g} "
                     f"expected={c.expected:<12.6g} {c.unit:<4} [{status}]")
    return "\n".join(lines)
