"""Hybrid quantum-classical temporal fusion transformers.

A small statevector circuit simulator, parameter-shift differentiation
on a reverse-mode tape, the classical temporal fusion transformer, its
quantum counterpart, and a quantile-loss training harness for desk-scale
multi-horizon forecasting experiments.
"""

from .quantum_sim import (
    Gate,
    ParameterizedCircuit,
    StateVector,
    angle_embedding,
    apply_gate,
    basic_entangler_layers,
    measure_all_z,
    n_local,
    pauli_z_expectation,
    run_circuit,
    sampler_probabilities,
    zz_feature_map,
)
from .grad import Node, QuantumNode, backward, quantum_forward, sgd_step
from .forecasting import TrainConfig, WindowedSample, evaluate, make_windows, quantile_loss, train

__all__ = [
    "Gate",
    "Node",
    "ParameterizedCircuit",
    "QuantumNode",
    "StateVector",
    "TrainConfig",
    "WindowedSample",
    "angle_embedding",
    "apply_gate",
    "backward",
    "basic_entangler_layers",
    "evaluate",
    "make_windows",
    "measure_all_z",
    "n_local",
    "pauli_z_expectation",
    "quantile_loss",
    "quantum_forward",
    "run_circuit",
    "sampler_probabilities",
    "sgd_step",
    "train",
    "zz_feature_map",
]

__version__ = "0.1.0"
