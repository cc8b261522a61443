"""fmesim: heralded frequency-multiplexed entangled single-photon source
simulator for a two-species atomic ensemble.

Modules by stage: write_dynamics (rates, pair-creation evolution on the
pair shell), herald (threshold detection and the closed-form click branch
table), retrieval (the output frequency qubit), protocol
(repeat-until-success Monte Carlo), rng (the counter-based random streams
protocol draws from), config and cli (presets, validation, command line).
"""

__version__ = "0.1.0"
