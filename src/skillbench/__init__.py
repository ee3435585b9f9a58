"""Skill-based robot motion control: wire protocol, planning, and timing.

The package models the full chain from a manufacturing process description
down to the cyclic process images exchanged between a PLC and a robot
controller: motion records and frames (``wire``), trapezoidal timing and
corner blending (``trajectory``), the four-step motion planner
(``planner``), the PLC trigger and robot executor state machines
(``plc_trigger``, ``robot_executor``), a deterministic co-simulation
(``fieldbus_sim``), and the execution-type benchmark (``bench``).
"""

__version__ = "0.1.0"
