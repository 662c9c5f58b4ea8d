"""Two-copy qubit deletion machines: simulate, verify, and optimize.

The machine acts on qubit (x) qubit (x) ancilla(3) and removes the
information from the second copy of a pure input, leaving a blank state
behind.  Subpackage layout:

* `qlinalg`   - the joint-state index and the batched partial traces
* `machine`   - machine parameters, the 12x4 isometry, validation, file format
* `metrics`   - distortion and fidelity: the simulation oracle, the closed forms, one quadrature
* `presets`   - named machines (`MachineParams`): the paper's four cases and "perfect"
* `optimizer` - derivative-free search over the coupling sphere
* `cli`       - the `qdelete` command
"""

__version__ = "0.1.0"
