"""Collision-risk forecasting toolkit.

A synthetic two-vehicle intersection simulator, a multi-branch
convolutional-recurrent collision predictor with Monte-Carlo-dropout
uncertainty, and the training/statistics harness around them.
"""

__version__ = "0.1.0"

from .dropout import DropoutSpec, run_sfp, stochastic_forward
from .network import NetworkConfig, NetworkParams, dpm_forward, dpm_gradients, init_params
from .sim import CameraSpec, Episode, ScenarioSpec, VehicleState, WorldConfig, run_scenario
from .stats import ConfusionCounts, UncertaintyClass, anova_oneway, f_survival, mcc_of
from .training import TrainConfig, evaluate, run_kfold, train

__all__ = [
    "DropoutSpec", "run_sfp", "stochastic_forward",
    "NetworkConfig", "NetworkParams", "dpm_forward", "dpm_gradients", "init_params",
    "CameraSpec", "Episode", "ScenarioSpec", "VehicleState", "WorldConfig", "run_scenario",
    "ConfusionCounts", "UncertaintyClass", "anova_oneway", "f_survival", "mcc_of",
    "TrainConfig", "evaluate", "run_kfold", "train",
    "__version__",
]
