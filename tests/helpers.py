"""Fixtures shared by the test modules."""

import numpy as np

from blockplan.submodels import ModelConfig
from blockplan.world import Color, WorldConfig, WorldState

EXACT_WORLD = WorldConfig(sigma_env=0.0)
EXACT_MODEL = ModelConfig(sigma_model=0.0)


def make_state(positions, colors=None):
    n = len(positions)
    if colors is None:
        colors = [list(Color)[i % 4] for i in range(n)]
    return WorldState(
        ids=tuple(range(n)),
        colors=tuple(colors),
        positions=np.array(positions, dtype=float),
    )
