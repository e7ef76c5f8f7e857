"""Simulation laboratory for the local Marchenko-Pastur law of sparse
sample covariance matrices: ensemble sampling, closed-form law analytics,
SVD-based resolvents, self-consistency audits, configuration admissibility,
and the bilinear-form concentration inequality."""

from .concentration import (ConcentrationInput, ConcentrationReport,
                            bilinear_moment_exact, bilinear_moment_mc,
                            evaluate as concentration_evaluate, lemma_rhs)
from .configuration import (ConfigurationMatrix, ConfigurationReport,
                            classify, inadmissibility_probability,
                            sample_configuration)
from .errors import (DegenerateConditioningError, DivergentMomentError,
                     ExactEnumerationError, IdentityFailureError,
                     NumericalError, ParameterError)
from .locallaw import (AuditResult, CORRECTION_SIGNS, LocalLawReport,
                       MultiscaleLadder, TnMomentResult, correction_terms,
                       lambda_n, locallaw_scan, multiscale_ladder,
                       self_consistency_audit, tn_moment_study)
from .mc import MCEstimate
from .model import (EntryDistribution, ModelParams, SampledMatrix, check_c0,
                    moment_4_delta, sample_matrix)
from .mplaw import (ComplexPoint, DomainSpec, b_function, d_function,
                    d_n_function, domain_grid, gamma_n, gamma_n_theorem1,
                    mp_cdf, mp_density, mp_edges, prior_bound_tn, stieltjes_mp)
from .spectral import (ResolventEval, SpectrumResult, resolvent,
                       resolvent_from_spectrum, resolvent_max_abs,
                       resolvent_minor, singular_values, stieltjes_esd)

__version__ = "0.1.0"

__all__ = [
    "AuditResult", "ComplexPoint", "ConcentrationInput",
    "ConcentrationReport", "ConfigurationMatrix", "ConfigurationReport",
    "CORRECTION_SIGNS", "DegenerateConditioningError",
    "DivergentMomentError", "DomainSpec", "EntryDistribution",
    "ExactEnumerationError", "IdentityFailureError", "LocalLawReport",
    "MCEstimate", "ModelParams", "MultiscaleLadder",
    "NumericalError", "ParameterError", "ResolventEval",
    "SampledMatrix", "SpectrumResult", "TnMomentResult", "b_function",
    "bilinear_moment_exact", "bilinear_moment_mc", "check_c0",
    "classify", "concentration_evaluate", "correction_terms", "d_function",
    "d_n_function",
    "domain_grid", "gamma_n", "gamma_n_theorem1",
    "inadmissibility_probability", "lambda_n", "lemma_rhs", "locallaw_scan",
    "moment_4_delta", "mp_cdf", "mp_density", "mp_edges",
    "multiscale_ladder", "prior_bound_tn", "resolvent",
    "resolvent_from_spectrum", "resolvent_max_abs", "resolvent_minor",
    "sample_configuration", "sample_matrix", "self_consistency_audit",
    "singular_values",
    "stieltjes_esd", "stieltjes_mp", "tn_moment_study",
]
