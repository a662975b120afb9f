"""Statevector simulator walkthrough: gates, batching, ansatz builders.

Qubit 0 is the most significant bit of the state index, so |10> on two
qubits sits at index 2. All rotation gates are Pauli rotations
exp(-i theta P / 2) and circuits can be evaluated for a whole batch of
parameter rows at once.
"""
import math

import numpy as np

from qinitopt import (Circuit, Gate, Observable, apply_circuit,
                      build_hea, build_strongly_entangling,
                      build_two_design, expectation)

# one RX(pi) on qubit 0 of two qubits: |00> -> -i|10> (index 2)
flip = Circuit(2, (Gate("rx", target=0, param_slot=0),), 1)
state = apply_circuit(flip, np.array([math.pi]))
print("RX(pi) on qubit 0:", np.round(state, 12))

# a batch of RY angles evaluated in one pass
ry = Circuit(1, (Gate("ry", target=0, param_slot=0),), 1)
angles = np.linspace(0, math.pi, 5)[:, None]
batch = apply_circuit(ry, angles)
print("\nRY amplitudes for 5 angles (rows):")
print(np.round(batch.real, 6))

# a Bell-type circuit: RY then CNOT gives cos(t/2)|00> + sin(t/2)|11>,
# so <Z on qubit 0> traces cos(t) and <XX> traces sin(t)
bell = Circuit(2, (Gate("ry", target=0, param_slot=0),
                   Gate("cnot", target=1, control=0)), 1)
z0 = Observable(((1.0, "ZI"),))
xx = Observable(((1.0, "XX"),))
print()
for theta in (0.0, math.pi / 3, math.pi / 2, math.pi):
    state = apply_circuit(bell, np.array([theta]))
    print(f"theta={theta:.3f}  <Z0>={expectation(state, z0):+.6f}"
          f"  <XX>={expectation(state, xx):+.6f}")

# the three ansatz families used across the experiments
for name, circuit in (
        ("strongly entangling", build_strongly_entangling(layers=3, qubits=2)),
        ("two-design", build_two_design(layers=3, qubits=2, seed=0)),
        ("hardware efficient", build_hea(layers=3, qubits=2))):
    print(f"\n{name}: {circuit.num_qubits} qubits, "
          f"{len(circuit.gates)} gates, {circuit.num_params} parameters, "
          f"{len(circuit.layers)} tagged layers")
