"""Windowed beamspace MVDR processing for wideband planar-array radar.

A numpy/scipy library covering the full chain: planar-array steering,
synthetic scene simulation, FFT channelization, beamspace windowing,
adaptive (MVDR) and conventional beamforming, range-Doppler/CFAR detection,
and a pipeline harness that tallies each kernel call's arithmetic cost.
"""

from . import cubeio
from .beamspace import (
    BeamspacePlan,
    WindowSpec,
    adjoint_transform,
    beamspace_transform,
    extract_window,
    scatter_window,
    window_center,
    window_for,
    windowed_steering,
)
from .channelizer import (
    bin_center_frequencies,
    channelize,
    subband_index_for_bin,
    synthesize,
)
from .detection import (
    Detection,
    DetectionScore,
    RangeDopplerMap,
    cfar_detect,
    range_doppler_map,
    score_detections,
    write_detection_report,
)
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    Direction,
    SpatialFrequencies,
    spatial_frequencies,
    steering_matrix,
    steering_vector,
    subband_center_freq,
)
from .mvdr import (
    Correlator,
    CovarianceEstimate,
    apply_correlator,
    beam_pattern,
    conventional_correlator,
    estimate_covariance,
    lift_correlator,
    mvdr_correlator,
    write_beam_pattern_csv,
)
from .pipeline import (
    METHOD_ANTENNA,
    METHOD_BEAMSPACE,
    METHOD_CONVENTIONAL,
    ComplexityReport,
    PipelineConfig,
    PipelineResult,
    process_cube,
    run_pipeline,
    sweep,
    write_reports,
)
from .simulate import (
    DEFAULT_GEOMETRY,
    DEFAULT_SEED,
    ChirpParams,
    DataCube,
    InterfererSpec,
    PRESET_NAMES,
    Scenario,
    TargetSpec,
    generate_chirp,
    scenario_preset,
    synthesize_datacube,
)

__version__ = "0.1.0"
