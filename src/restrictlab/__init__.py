"""Desk-scale numerical laboratory for fractal geodesic restriction bounds.

Modules: measures (fractal measures, energies, smoothed weights), frequency
(the band-limited bump, its transform and band projections), geometry (upper
half-plane and PSL(2,R)), spherical (spherical functions and the band kernel),
hecke (quaternion orders, enumeration, amplifier), integrals (the geometric
bilinear integrals and their scaling experiments), modes (sphere
eigenfunctions, tube norms and exponent tables), cli (experiment runner).
"""

from .errors import DomainError, GridMismatchError, NonConvergenceError, ResourceError
from .sampling import SampledFunction
from .measures import (FractalMeasure, WeightFunction, make_cantor_measure,
                       frostman_ratio, energy, build_weight,
                       frostman_weight_sweep, decade_sweep)
from .frequency import (BumpPair, band_project, fourier_energy_identity,
                        gamma_factor, fourier_transform, rho_cutoff, smooth_step)
from .geometry import (GroupElement, act, dist_hyp, dist_to_identity,
                       dist_to_diag, log_psl2, gnorm)
from .spherical import (SphericalKernel, phi_s, phi_s_radial, hc_forward,
                        make_kernel, kernel_decay_constant)
from .hecke import (QuatAlgebra, Amplifier, MAXIMAL_ORDER_2_3, iota_matrix,
                    enumerate_norm_n, build_amplifier, random_hecke_eigenvalues,
                    return_count_ratio, primes_up_to, optimal_bandwidth,
                    optimal_amplifier_length)
from .integrals import (TestWindow, IntegralReport, eval_I, eval_I_pair,
                        amplified_rhs, beta_scaling_experiment,
                        rapid_decay_experiment, modulated_gaussian)
from .modes import (SphereMode, SphereGeodesic, restriction_norm, kn_norm,
                    theorem_ratio_table, dyadic_kernel_check, exponent_table,
                    fit_exponent, gamma_exponent, delta_exponent,
                    marshall_exponent, lp_bump)

__version__ = "0.1.0"
