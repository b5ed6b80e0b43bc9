"""Decentralized stochastic gradient descent with gradient tracking.

A desk-scale simulation library: communication topologies with
Metropolis-Hastings mixing, per-agent cost ensembles, stochastic gradient
oracles, tracked and vanilla decentralized SGD trajectories, multi-run tail
and MSE metrics, trajectory-level inequality checks, and an experiment
harness with a CLI.
"""

from .topology import (
    WeightedGraph, MixingMatrix, generate_graph, metropolis_hastings,
    spectral_gap, tune_er_probability, save_matrix_csv, load_matrix_csv,
)
from .costs import (
    CostEnsemble, QuadraticEnsemble, LogisticEnsemble, quadratic_optimum,
    make_synthetic_quadratics, save_ensemble_json, load_ensemble_json,
)
from .noise import (
    GaussianOracle, MinibatchOracle, calibrate_sigma, estimate_mgf,
)
from .datasets import LabeledDataset, parse_libsvm, load_libsvm, split_uniform
from .algorithms import (
    ConstantStep, InverseTimeStep, RunConfig, TrajectoryRecord, run,
    nonconvex_step_cap, pl_t0_floor,
)
from .metrics import (
    RunSet, MetricSeries, empirical_tail_probability, empirical_mse,
    consensus_gap, transient_time_nonconvex, transient_time_pl, tail_decay_fit,
)
from .theorycheck import (
    CheckReport, check_descent, check_descent_pl, check_consensus_bound,
    check_tracker_recursion, check_noise_properties,
)
from .harness import (
    ExperimentConfig, ResultEnvelope, load_config, run_experiment, run_checks,
    emit_outputs,
)

__version__ = "0.1.0"
