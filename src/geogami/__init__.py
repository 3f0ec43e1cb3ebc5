"""Quasi-static simulator of a mono-actuated rolling origami ring.

A single motor trajectory is mapped through the cyclic cable-drive
gearbox, the compliant stiffness network, and the center-of-mass model to
produce shape-transformation and rolling-locomotion traces.
"""

from .compliance import (CompositionLaw, JointFamily, JointMeasurementSet,
                         JointModel, SideAssembly, bending_stiffness,
                         cable_series_stiffness, cable_tension,
                         chain_stiffness, default_joint_model,
                         fit_joint_model, parallel_stiffness,
                         read_measurement_csv, return_angle,
                         side_equivalent_stiffness)
from .config import RunConfig, load_config, load_preset
from .kinematics import (BodyState, MassLayout, RadiusInversionError,
                         body_mass_offset, com_velocity, instantaneous_radius,
                         offset_point, rotation_matrix, world_com)
from .locomotion import (ActuationProgram, DampingParams, EventKind,
                         ReleaseModel, SimEvent, SimTrace, Simulator,
                         execute_roll, tipping_check)
from .transmission import (EngagementSchedule, GearboxConfig,
                           RetractionWindowError, ScheduleMode, cable_force,
                           cable_retraction, driver_angle,
                           motor_angle_for_retraction,
                           motor_torque_for_cable_force, phase_velocity,
                           spool_angle, spool_torque)

__version__ = "0.1.0"
