"""Sensor fusion and flight estimation for tethered-wing systems.

The package splits into small layers: frame algebra (:mod:`.frames`,
:mod:`.attitude`), the line-angle mechanism model (:mod:`.lineangle`),
the constant-gain filter core (:mod:`.estimator`), the three measurement
routings (:mod:`.pipelines`), a seeded flight/sensor synthesizer
(:mod:`.simkite`) and log/report I/O plus the evaluation harness
(:mod:`.evalio`).  The most commonly used names are re-exported here.
"""

from .errors import (
    DegenerateInputError,
    DomainError,
    LogFormatError,
    NonConvergenceError,
)
from .estimator import (
    axis_gain,
    build_system,
    kalman_gain,
    kf_frequency_response,
    lo_frequency_response,
    solve_dare,
)
from .evalio import (
    LogData,
    RmseReport,
    TruthPoint,
    compare_approaches,
    default_configs,
    read_log,
    write_log,
)
from .frames import (
    cartesian_to_spherical,
    rot_g_to_l,
    rot_ned_to_g,
    spherical_to_cartesian,
    wrap_angle,
)
from .lineangle import (
    EncoderGeometry,
    angles_to_encoder,
    encoder_to_angles,
)
from .pipelines import (
    EstimateOutput,
    EstimationPipeline,
    EstimatorConfig,
    SensorFrame,
    geometric_correction,
)
from .simkite import NoiseSpec, TrajectoryParams, TruthSample, synthesize

__version__ = "0.1.0"

__all__ = [
    "DegenerateInputError",
    "DomainError",
    "LogFormatError",
    "NonConvergenceError",
    "axis_gain",
    "build_system",
    "kalman_gain",
    "kf_frequency_response",
    "lo_frequency_response",
    "solve_dare",
    "LogData",
    "RmseReport",
    "TruthPoint",
    "compare_approaches",
    "default_configs",
    "read_log",
    "write_log",
    "cartesian_to_spherical",
    "rot_g_to_l",
    "rot_ned_to_g",
    "spherical_to_cartesian",
    "wrap_angle",
    "EncoderGeometry",
    "angles_to_encoder",
    "encoder_to_angles",
    "EstimateOutput",
    "EstimationPipeline",
    "EstimatorConfig",
    "SensorFrame",
    "geometric_correction",
    "NoiseSpec",
    "TrajectoryParams",
    "TruthSample",
    "synthesize",
    "__version__",
]
