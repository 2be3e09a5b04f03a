"""Simulator and planning toolkit for a hexagonal mmWave reconfigurable surface.

Computes received power at arbitrary user positions from a coherent
per-element link budget, optimizes two-state element configurations for
reflective and active operation, sweeps 2D power patterns with an optional
measurement-pipeline emulation, and derives reconfiguration schedules for
mobile users from the half-power focus region.
"""

from .errors import (
    BeamNotResolvedError,
    GeometryError,
    NoPeakError,
    ValidationError,
)
from .geom import (
    RisLayout,
    SphericalCoord,
    Vec3,
    cartesian_to_spherical,
    hex_layout,
    spherical_to_cartesian,
)
from .linkbudget import (
    BELOW_FLOOR_DBM,
    AntennaPattern,
    ReflectionCoefficient,
    RisConfig,
    Scenario,
    config_fingerprint,
    is_below_floor,
    noise_floor,
    received_power,
    scenario_fingerprint,
    wavelength,
)
from .optimizer import (
    ACTIVE,
    REFLECTIVE,
    ReflectionAlphabet,
    optimize_config,
    uniform_config,
)
from .planner import (
    FocusEllipse,
    Trajectory,
    UpdateEvent,
    UpdateSchedule,
    arc_waypoints,
    focus_ellipse,
    plan_updates,
    radial_waypoints,
    rho_azimuth,
    rho_radial,
    update_interval,
)
from .sweep import (
    GridComparison,
    GridSpec,
    Peak,
    PowerGrid,
    SounderParams,
    compare_grids,
    emulate_measurement_grid,
    find_peak,
    hpbw,
    sweep_power,
)
from .io_cli import (
    ScenarioDoc,
    cli_dispatch,
    echo_scenario,
    export_heatmap,
    load_scenario,
)

__version__ = "0.1.0"
