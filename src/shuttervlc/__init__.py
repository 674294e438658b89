"""Link-level simulator and control protocol for multiple-access VLC on a
single photodiode behind a pixelated LCD shutter."""

from .scenario import (TraceRecord, bundled_scenario, replay_trace,
                       run_scenario, scenario_from_dict)

__version__ = "0.1.0"
