"""Deterministic gridworld energy-collection benchmark.

Procedurally generated 11x11 grids, an episode state machine with
configurable agent constraints, random-walk and greedy-search baselines,
a chat-model prompt/parse harness, and an evaluation runner that produces
grouped Length/Energy tables and trace exports.
"""

__version__ = "0.1.0"
