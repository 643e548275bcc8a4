"""Desk-scale numerical laboratory for fractal geodesic restriction bounds.

Modules: measures (fractal measures, energies, smoothed weights), frequency
(the band-limited bump, its transform and band projections), geometry (upper
half-plane and PSL(2,R)), spherical (the radial band kernel),
hecke (quaternion orders, enumeration, amplifier), integrals (the geometric
bilinear integrals and their amplified sum), modes (sphere eigenfunctions,
tube norms and the closed-form exponents), cli (experiment runner).
"""

from .errors import DomainError, GridMismatchError, NonConvergenceError, ResourceError
from .sampling import SampledFunction
from .measures import (FractalMeasure, WeightFunction, make_cantor_measure,
                       frostman_ratio, energy, build_weight)
from .frequency import BumpPair, band_project, rho_cutoff, smooth_step
from .geometry import GroupElement, act, dist_hyp, dist_to_diag
from .spherical import SphericalKernel, make_kernel, kernel_decay_constant
from .hecke import (QuatAlgebra, Amplifier, MAXIMAL_ORDER_2_3, iota_matrix,
                    enumerate_norm_n, build_amplifier, random_hecke_eigenvalues,
                    return_count_ratio, primes_up_to)
from .integrals import (TestWindow, IntegralReport, eval_I, eval_I_pair,
                        amplified_rhs, modulated_gaussian)
from .modes import (SphereMode, SphereGeodesic, restriction_norm, kn_norm,
                    dyadic_kernel_check, fit_exponent, gamma_exponent,
                    delta_exponent, marshall_exponent, lp_bump)

__version__ = "0.1.0"
