"""Decentralized stochastic gradient descent with gradient tracking.

A desk-scale simulation library: communication topologies with
Metropolis-Hastings mixing, per-agent cost ensembles, stochastic gradient
oracles, tracked and vanilla decentralized SGD trajectories, multi-run tail
and MSE metrics, trajectory-level inequality checks, and an experiment
harness with a CLI.

The package re-exports nothing: import its modules, for example
``from gtsim import harness``, and take each name from its module's
``__all__``.
"""

__version__ = "0.1.0"
