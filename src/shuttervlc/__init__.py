"""Link-level simulator and control protocol for multiple-access VLC on a
single photodiode behind a pixelated LCD shutter."""

from .channel import (ChannelConfig, PixelMask, ac_power, receive,
                      received_snr_db)
from .framing import (BARKER_11, BARKER_13, Detection, IdKind, IdLookupTable,
                      Packet, TransmitterId, detect_packets, frame, make_id)
from .geometry import OpticalSetup, min_angle, min_separation
from .metrics import bit_error_rate, goodput, packet_error_rate
from .modem import ModemConfig, PhaseOffset, Scheme, demodulate, modulate
from .protocol import (ControllerResult, ProtocolParams, estimate_latency,
                       packets_per_slot, run_controller)
from .scenario import (Scenario, TraceRecord, bundled_scenario,
                       bundled_scenario_names, load_scenario, replay_trace,
                       run_scenario, scenario_from_dict)
from .tables import TABLE_NAMES, reproduce_table

__version__ = "0.1.0"
