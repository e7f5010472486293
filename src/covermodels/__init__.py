"""Streaming Bayesian conditional models on cover sequences.

Exact, closed form, incrementally updated posteriors over families of
tree structured conditional models, instantiated as an online
conditional density estimator and a variable order Markov model, plus
a kernel baseline and a streaming evaluation harness.
"""

from .cde import CdeConfig, CdeModel, new_cde
from .covers import (
    Box,
    Context,
    CoverSequence,
    KdTreeCover,
    SuffixTreeCover,
    cover_from_state,
)
from .data import (
    Dataset,
    gen_gaussian_ring,
    gen_markov,
    gen_mixture,
    load_csv,
    load_symbols,
    save_csv,
    save_symbols,
)
from .engine import CoverModelPosterior, parse_depth_weight
from .errors import (
    BadConfig,
    CoverModelError,
    DegenerateData,
    DepthLimitExceeded,
    MissingColumn,
    OutOfSupport,
    ParseError,
    QueryOutOfRootRegion,
    TooLargeToEnumerate,
    UnknownSymbol,
    ZeroDenominator,
)
from .evaluate import (
    EvalRecord,
    default_checkpoints,
    read_records_csv,
    run_eval,
    write_records_csv,
)
from .kernel import CvReport, DoubleKernelCde, fit_cv
from .local import (
    BayesTreeDensity,
    DirichletMultinomial,
    MixtureLocal,
    NormalWishart,
    local_from_state,
)
from .vmm import CtwOracle, VmmModel, ctw_logprob

__version__ = "0.1.0"

__all__ = [
    "BadConfig",
    "BayesTreeDensity",
    "Box",
    "CdeConfig",
    "CdeModel",
    "Context",
    "CoverModelError",
    "CoverModelPosterior",
    "CoverSequence",
    "CtwOracle",
    "CvReport",
    "Dataset",
    "DegenerateData",
    "DepthLimitExceeded",
    "DirichletMultinomial",
    "DoubleKernelCde",
    "EvalRecord",
    "KdTreeCover",
    "MissingColumn",
    "MixtureLocal",
    "NormalWishart",
    "OutOfSupport",
    "ParseError",
    "QueryOutOfRootRegion",
    "SuffixTreeCover",
    "TooLargeToEnumerate",
    "UnknownSymbol",
    "VmmModel",
    "ZeroDenominator",
    "cover_from_state",
    "ctw_logprob",
    "default_checkpoints",
    "fit_cv",
    "gen_gaussian_ring",
    "gen_markov",
    "gen_mixture",
    "load_csv",
    "load_symbols",
    "local_from_state",
    "new_cde",
    "parse_depth_weight",
    "read_records_csv",
    "run_eval",
    "save_csv",
    "save_symbols",
    "write_records_csv",
]
