"""fmesim: heralded frequency-multiplexed entangled single-photon source
simulator for a two-species atomic ensemble.

Modules by stage: write_dynamics (rates, pair-creation evolution on the
pair shell, Langevin moments), herald (threshold detection and the
closed-form click branch table), retrieval (frequency qubit and polariton
transport), protocol (repeat-until-success Monte Carlo), config and cli
(presets, validation, command line).
"""

__version__ = "0.1.0"
