"""leaklab: information-leak checking for shared-variable concurrent programs.

The pipeline combines exhaustive-interleaving observation analysis under an
abstract clock with proof-outline verification conditions for leak
postulates, a dynamic-labelling pre-pass that locates sensitive public
statements, and a lattice-based information-flow state machine.
"""

__version__ = "0.1.0"
