"""Generalized Stieltjes constants gamma_n(x), Hurwitz zeta derivatives at
s = 0, and the related constant families (eta_n, delta_n, digamma, log-gamma,
generalized gamma functions), computed by independent logarithmic series with
Euler-Maclaurin tail acceleration and cross-checked by an identity suite.
"""

from .core import (ConvergenceError, DomainError, SeriesValue,
                   accelerate_alternating, comp_sum, default_tol,
                   find_root_bisect, harmonic)
from .gamma import (RationalArg, gamma1_alt, gamma1_rational, gamma_diff,
                    gamma_n, gamma_recurrence_check, incgamma_int,
                    stieltjes_integral)
from .logpoly import bernoulli, em_tail
from .quadrature import QuadratureError, quad_gl
from .related import (VonMangoldtTable, delta, digamma,
                      digamma_rational, dilcher_log_gamma_k, dilcher_power_series,
                      eta, log_gamma, mangoldt_gap_sums, von_mangoldt)
from .reporting import SubCheck, VerifyReport
from .verifier import (UnknownCheckError, check_cotangent,
                       check_g_functions, check_lemma31,
                       check_vanishing_integrals, check_zero_structure,
                       run_suite)
from .zeta import (hurwitz_em, hurwitz_hasse, zeta_deriv0_const,
                   zeta_deriv0_diff, zeta_prime_int)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DomainError", "QuadratureError", "UnknownCheckError",
    "SeriesValue", "RationalArg",
    "VonMangoldtTable", "SubCheck", "VerifyReport",
    "accelerate_alternating", "bernoulli", "comp_sum", "default_tol",
    "em_tail", "find_root_bisect", "harmonic", "quad_gl",
    "hurwitz_em", "hurwitz_hasse", "zeta_deriv0_const", "zeta_deriv0_diff",
    "zeta_prime_int", "gamma_n", "gamma_diff", "gamma_recurrence_check",
    "gamma1_rational", "gamma1_alt", "incgamma_int", "stieltjes_integral",
    "von_mangoldt", "mangoldt_gap_sums", "eta", "delta", "digamma",
    "digamma_rational", "log_gamma", "dilcher_log_gamma_k", "dilcher_power_series",
    "check_lemma31", "check_cotangent", "check_vanishing_integrals",
    "check_zero_structure", "check_g_functions", "run_suite",
]
