"""Delay-adaptive predictor feedback with neural-operator approximate predictors."""

from .adaptation import (AdaptationState, deadzone_sign, phi_measured,
                         phi_unmeasured, project, step_delay_estimate)
from .benchmark import BenchReport, benchmark_predictors, make_corpus
from .dataset import (PredictorDataset, SampleRanges, generate_dataset,
                      load_dataset, save_dataset)
from .history import (HistoryWindowError, InputHistory,
                      distributed_input_xderiv, estimated_input_profile,
                      window_functionals)
from .neural_operator import (NeuralOperatorModel, TrainingConfig, forward,
                              init_model, load_model, save_model, train)
from .predictor import (PredictorError, PredictorGrid, PredictorProfile,
                        q1_scan, solve_fixed_point, solve_ode_march,
                        transition_matrix)
from .simulation import (SimulationConfig, SimulationTrace, gamma_functional,
                         run, upsilon_functional)
from .systems import SystemModel, make_system

__version__ = "0.1.0"
