"""Bayesian optimization of classifier ensembles."""

from .ensemble import (
    Ensemble,
    PredictionMatrix,
    VoteState,
    greedy_select,
    observation_vector,
    round_robin_replace,
    zero_one_ensemble_loss,
)
from .hyperspace import Config, ParamSpec, SearchSpace, decode, load_space, sample
from .optimizer import (
    CrossValEvaluator,
    History,
    RunArtifact,
    SearchSettings,
    evaluate_on_test,
    post_hoc,
    run_bo,
    run_eo,
    select_best,
)

__all__ = [
    "Config",
    "CrossValEvaluator",
    "Ensemble",
    "History",
    "ParamSpec",
    "PredictionMatrix",
    "RunArtifact",
    "SearchSettings",
    "SearchSpace",
    "VoteState",
    "decode",
    "evaluate_on_test",
    "greedy_select",
    "load_space",
    "observation_vector",
    "post_hoc",
    "round_robin_replace",
    "run_bo",
    "run_eo",
    "sample",
    "select_best",
    "zero_one_ensemble_loss",
]

__version__ = "0.1.0"
