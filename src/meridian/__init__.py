"""Numerical toolkit for axisymmetric Biot-Savart kernels on the meridian
half-plane: kernel decay envelopes, velocity reconstruction from decaying
vorticity, norm machinery on cylinders, and the exponent-feasibility
arithmetic behind Liouville-type decay criteria."""

from .fields import (AxialEnvelope, AxisymField, MeridianPoint,
                     VorticityField, power_law_vorticity, stream_bump_field,
                     stream_function_field, swirl_bump_field)
from .kernels import KernelTriple, k_modulus, kernel_batch, kernel_triple
from .envelopes import (BoundEnvelope, ScanReport, envelope_value,
                        evaluate_scan_grid, k_split_consistency,
                        refine_and_compare, report_from_data, scan_grid)
from .norms import (CylinderDomain, DivergentNormError, WeakLorentzEstimate,
                    bmo_oscillation_ln, disk_mean_ln, lq_growth_exponent,
                    lq_norm_cylinder, weak_lorentz_norm)
from .operators import AxisTooCloseError, curl_axisym, divergence_axisym
from .profiles import Profile, SmoothBump, power_law_profile, zero_profile
from .rates import (DecayPrediction, FeasibleExponents, FitResult,
                    InfeasibleExponentError, bruteforce_feasible_set,
                    construct_feasible_pair, evaluate_pair, fit_decay,
                    optimize_split, predicted_decay, region_term_exponents)
from .reconstruct import (QuadratureSpec, ReconstructionResult, TraceSample,
                          decay_trace, reconstruct_ur, reconstruct_utheta,
                          reconstruct_uz)

__version__ = "0.1.0"
