"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from taxisim import Field, GridSpec


# Unequal extents and cell counts, so every axis has row wraps in the flat
# layout, including a 2-cell axis.
ORACLE_GRIDS = [
    ((1.3,), (8,)),
    ((0.7, 2.0), (2, 5)),
    ((2.1, 0.9), (7, 3)),
    ((1.0, 0.3, 2.5), (4, 2, 5)),
    ((0.6, 1.7, 1.1), (3, 6, 2)),
]


def smooth_field(
    grid: GridSpec, rng: np.random.Generator, nonneg: bool = False, amplitude: float = 1.0
) -> Field:
    """Random low-order cosine mixture; smooth on the grid scale."""
    mesh = grid.meshgrid()
    vals = np.full(grid.cells, rng.uniform(0.2, 1.0))
    for _ in range(3):
        term = np.full(grid.cells, amplitude * rng.uniform(-1.0, 1.0))
        for axis, x in enumerate(mesh):
            k = int(rng.integers(0, 4))
            phase = rng.uniform(0.0, 2.0 * np.pi)
            term = term * np.cos(np.pi * k * x / grid.extent[axis] + phase)
        vals = vals + term
    if nonneg:
        vals = vals - vals.min() + 0.1
    return Field.from_nd(grid, vals)


def grid_for_dim(dim: int, n: int = 12, length: float = 1.5) -> GridSpec:
    return GridSpec((length,) * dim, (n,) * dim)
