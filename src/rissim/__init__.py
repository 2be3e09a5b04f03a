"""Simulator and planning toolkit for a hexagonal mmWave reconfigurable surface.

Computes received power at arbitrary user positions from a coherent
per-element link budget, optimizes two-state element configurations for
reflective and active operation, sweeps 2D power patterns with an optional
measurement-pipeline emulation, and derives reconfiguration schedules for
mobile users from the half-power focus region.
"""

__version__ = "0.1.0"
