"""Simulator and optimizer for hybrid RF/lightwave ultra-small cells.

Indoor optical cells carry both data and power over visible light; a
multi-antenna RF access point tops up devices the light cannot fully
charge.  The package models the channels, solves the joint bias /
RF-allocation problem and the AP's minimum-power beamforming, and runs
both control architectures as explicit message-passing simulations.
"""

from .channels import (RfChannelSet, VlcChannelMatrix, build_vlc_matrix,
                       sample_rf_channel)
from .energy import (BiasLimits, DriveParams, LinearEhParams, NonlinearEhParams,
                     VlcEhParams, generated_current, linear_eh, nonlinear_eh,
                     nonlinear_eh_inverse, open_circuit_voltage, rf_input_energy,
                     vlc_harvested_power, vlc_snr, vlc_snr_db)
from .errors import (AttocellError, DimensionMismatchError, InfeasibleError,
                     ScenarioError, SolverStallError, TargetUnreachableError,
                     UnservableDeviceError)
from .geometry import OpticalElement, build_angle_diversity_layout, lambert_mode
from .illumination import IlluminanceMap, element_luminous_flux, illuminance_map
from .lightwave import (LightwaveSolution, SubRfOutcome, identify_worst_user,
                        solve_bias_bisection, solve_bias_closed_form, solve_op1,
                        solve_op1_from_gains, solve_subrf)
from .beamforming import (BeamformingSolution, EhTargets, PsdMatrix,
                          VerificationReport, build_eh_targets, extract_beams,
                          required_power_linear, solve_aggregate_sdp,
                          solve_aggregate_sdp_batch, verify_beamforming)
from .numerics import lambert_w0
from .orchestrator import (ControlMessage, TraceLog, replay, run_centralized,
                           run_semi_decentralized)
from .experiments import (ExperimentResult, exp_eh_allocation,
                          exp_feasibility_vs_theta, exp_illuminance,
                          exp_rf_power, exp_snr_eh_region, exp_subopt_gap)
from .scenario import (Scenario, default_scenario, load_scenario,
                       parse_quantity, scenario_hash)

__version__ = "0.1.0"
