"""Joint phase-time array beamformer design and evaluation toolkit."""

__version__ = "0.1.0"

from .array_model import (
    SteeringAngle,
    SubcarrierGrid,
    SystemConfig,
    array_gain,
    array_response,
    build_grid,
    default_theta_grid,
    effective_beamformer,
    effective_beamformer_matrix,
    gain_map,
    steering_vectors,
)
from .beam_targets import (
    BeamTarget,
    WeightScheme,
    behavior1_target,
    behavior2_target,
    custom_target,
    multi_angle_target,
    write_custom_target,
)
from .design import (
    DesignOptions,
    JptaBeamformer,
    TtdUpdate,
    center_delays,
    design_jpta,
    digital_phase_update,
    digital_power_allocation,
    phase_unwrap,
    ps_update,
    quantize_delays,
    shift_nonnegative,
    ttd_objective,
    ttd_update_line_search,
    ttd_update_wls,
)
from .hbf import (
    HbfBeamformer,
    HbfStructure,
    TargetMatrix,
    altmin_pc,
    min_rf_chains,
    orthogonal_column_count,
    pe_altmin_fc,
    stack_target,
)
from .heuristics import (
    Behavior,
    HeuristicParams,
    heuristic_behavior1,
    heuristic_behavior2,
    required_delay_budget,
)
from .metrics import (
    FitReport,
    analog_objective,
    build_fit_report,
    fit_objective,
    linear_to_db,
    objective_tilde,
    per_subcarrier_match,
)
