"""Cell-centered box grids and discrete operators with zero-flux boundaries.

Fields hold one value per cell of a uniform rectangular grid in 1 to 3
dimensions, stored flat in lexicographic order (axis 0 fastest). Homogeneous
Neumann (no-flux) boundaries are encoded with mirror ghost cells: each ghost
carries the value of its adjacent interior cell, so the discrete normal
derivative vanishes at every boundary face and flux sums telescope to zero
exactly at the discrete level.

The three stencils share that face-flux form: each computes one quantity per
interior face along every axis and scatters it into the cells below and
above the face; boundary faces carry nothing. taxis_divergence computes the
whole flux of the cell equation in one such pass: its upwind taxis flux is a
central flux plus numerical diffusion, and an optional carrier diffusion
adds to the same face coefficient, so no face needs a branch. laplacian and
taxis_divergence can scatter into a caller's array instead of a fresh one
(their out argument), so an explicit update accumulates into its seed.

In the flat layout the face normal to axis a joins cells p and p + s_a,
where s_a is the product of the cell counts of the axes before a, so
x[s_a:] - x[:-s_a] yields every face difference of that axis in one
contiguous pass. Where p is the last cell of its row along a, the pair
(p, p + s_a) straddles a boundary and is no face; a per-grid table of face
weights (1/h^2, 1/(2h), 1/h) holds 0 there, so those entries scatter
nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "GridSpec",
    "Field",
    "laplacian",
    "gradient",
    "magnitude",
    "taxis_divergence",
    "integrate",
    "lp_norm",
    "sup_norm",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid on the box [0, L_1] x ... x [0, L_d], d <= 3.

    ``extent`` holds the physical side lengths and ``cells`` the per-axis cell
    counts; spacing, cell volume and the domain measure are derived from them
    exactly. Cell centers sit at (i + 1/2) * h_a along axis a.
    """

    extent: tuple[float, ...]
    cells: tuple[int, ...]
    spacing: tuple[float, ...] = field(init=False, repr=False, compare=False)
    num_cells: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        extent = tuple(float(x) for x in self.extent)
        cells = tuple(int(n) for n in self.cells)
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "cells", cells)
        if not 1 <= len(extent) <= 3:
            raise ValueError("extent must have 1, 2 or 3 entries")
        if len(cells) != len(extent):
            raise ValueError("cells must have one entry per axis of extent")
        if not all(0.0 < length < np.inf for length in extent):
            raise ValueError("extent entries must be finite and > 0")
        # Two cells per axis suffice for the mirror-ghost stencils.
        if any(n < 2 for n in cells):
            raise ValueError("cells entries must be >= 2")
        object.__setattr__(self, "spacing", tuple(L / n for L, n in zip(extent, cells)))
        object.__setattr__(self, "num_cells", math.prod(cells))

    @property
    def dim(self) -> int:
        return len(self.extent)

    @property
    def volume_element(self) -> float:
        out = 1.0
        for h in self.spacing:
            out *= h
        return out

    @property
    def domain_measure(self) -> float:
        out = 1.0
        for L in self.extent:
            out *= L
        return out

    def cell_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.cells[axis], dtype=float) + 0.5) * h

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        coords = [self.cell_centers(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*coords, indexing="ij"))


@dataclass
class Field:
    """One scalar value per cell, stored flat with axis 0 fastest."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        values = self.values
        # A flat, contiguous float64 array is kept as is: asarray and ravel
        # would not copy it either.
        if not (
            type(values) is np.ndarray
            and values.ndim == 1
            and values.dtype == np.float64
            and values.flags.c_contiguous
        ):
            values = np.asarray(values, dtype=float).ravel()
        if values.size != self.grid.num_cells:
            raise ValueError(
                f"field has {values.size} values, grid has {self.grid.num_cells} cells"
            )
        self.values = values

    @property
    def nd(self) -> np.ndarray:
        """Multi-dimensional view of shape ``grid.cells`` (no copy)."""
        return self.values.reshape(self.grid.cells, order="F")

    @classmethod
    def from_nd(cls, grid: GridSpec, array: np.ndarray) -> Field:
        return cls(grid, np.asarray(array, dtype=float).ravel(order="F"))

    @classmethod
    def full(cls, grid: GridSpec, value: float) -> Field:
        return cls(grid, np.full(grid.num_cells, float(value)))

    @classmethod
    def zeros(cls, grid: GridSpec) -> Field:
        return cls(grid, np.zeros(grid.num_cells))

    def copy(self) -> Field:
        return Field(self.grid, self.values.copy())

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())


class _AxisFaces(NamedTuple):
    """The faces normal to one axis in the flat layout: face p joins cells p
    and p + stride, for p < num_cells - stride. The weight arrays hold
    1/h^2, 1/(2h) and 1/h at real faces and 0 where p ends its row."""

    stride: int
    h: float
    inv_h2: np.ndarray
    inv_2h: np.ndarray
    inv_h: np.ndarray


@lru_cache(maxsize=64)
def _face_table(grid: GridSpec) -> tuple[_AxisFaces, ...]:
    """Per-axis face strides and weights of grid (shared, so read-only)."""
    table = []
    stride = 1
    for n, h in zip(grid.cells, grid.spacing):
        p = np.arange(grid.num_cells - stride)
        inside = (p // stride) % n != n - 1
        weights = []
        for w in (1.0 / (h * h), 1.0 / (2.0 * h), 1.0 / h):
            arr = np.where(inside, w, 0.0)
            arr.flags.writeable = False
            weights.append(arr)
        table.append(_AxisFaces(stride, h, *weights))
        stride *= n
    return tuple(table)


def laplacian(f: Field, *, out: np.ndarray | None = None) -> Field:
    """Second-order Laplacian: divergence of the face fluxes (a_R - a_L) / h^2.

    A mirror ghost equals its boundary cell, so boundary faces carry no flux
    and a boundary cell sees only its interior neighbour. With out, a flat
    float64 array of one value per cell, the face pass adds lap f into out
    in place and the Field returned wraps out.
    """
    x = f.values
    if out is None:
        out = np.zeros(x.size)
    for faces in _face_table(f.grid):
        s = faces.stride
        flux = x[s:] - x[:-s]
        flux *= faces.inv_h2
        out[:-s] += flux
        out[s:] -= flux
    return Field(f.grid, out)


def gradient(f: Field) -> tuple[Field, ...]:
    """Central-difference gradient, one Field per axis: each cell sums the
    half-differences (a_R - a_L) / (2h) of its two faces along the axis.

    Boundary faces carry a zero difference (mirror ghosts), so the one-sided
    estimate (neighbor - cell) / (2h) appears at boundary cells.
    """
    x = f.values
    comps = []
    for faces in _face_table(f.grid):
        s = faces.stride
        half = x[s:] - x[:-s]
        half *= faces.inv_2h
        g = np.zeros(x.size)
        g[:-s] = half
        g[s:] += half
        comps.append(Field(f.grid, g))
    return tuple(comps)


def magnitude(components: tuple[Field, ...]) -> Field:
    """Euclidean norm, per cell, of a vector given by one Field per axis."""
    acc = components[0].values ** 2
    for c in components[1:]:
        acc = acc + c.values**2
    return Field(components[0].grid, np.sqrt(acc))


def taxis_divergence(
    carrier: Field,
    potential: Field,
    coeff: float,
    *more: tuple[Field, float],
    diffusion: float = 0.0,
    out: np.ndarray | None = None,
) -> Field:
    """Conservative upwind discretization of div(coeff * carrier * grad potential),
    plus one such term for every further (potential, coeff) pair in more,
    minus diffusion * lap(carrier).

    Each interior face carries, per pair, the velocity
    q = coeff * (p_R - p_L) / h and transports the carrier value of the
    upstream cell: q+ c_L + q- c_R with q+ = max(q, 0), q- = min(q, 0).
    Since q+ = (q + |q|) / 2 and q- = (q - |q|) / 2, that flux is the central
    flux plus |q| / 2 of numerical diffusion, so the pairs and the carrier
    diffusion -diffusion (c_R - c_L) / h add up, per face, to

        (c_L + c_R) Q + (c_L - c_R) A,
        Q = sum_i k_i dp_i / (2h),  A = sum_i |k_i dp_i| / (2h) + diffusion / h,

    up to round-off; no face selects its upstream cell by a branch. The flux
    is scaled by 1/h and scattered once. Boundary faces carry no flux, so the
    volume-weighted sum of the result telescopes to zero.

    With out, a flat float64 array of one value per cell, the face pass
    subtracts the divergence from out in place, so out gains the rate
    -div(...) of a transport equation, and the Field returned wraps out.
    Every term is linear in the coefficients and diffusion, so scaling them
    all by dt scales the result by dt, to round-off.
    """
    grid = carrier.grid
    pairs = ((potential, coeff), *more)
    for pot, k in pairs:
        if pot.grid is not grid and pot.grid != grid:
            raise ValueError("carrier and potential must share a grid")
        if not math.isfinite(k):
            raise ValueError("taxis coefficient must be finite")
    if not math.isfinite(diffusion):
        raise ValueError("diffusion must be finite")
    c = carrier.values
    subtract = out is not None
    if not subtract:
        out = np.zeros(c.size)
    for faces in _face_table(grid):
        s = faces.stride
        lower, upper = c[:-s], c[s:]
        central = upwind = None
        for pot, k in pairs:
            p = pot.values
            q = p[s:] - p[:-s]
            q *= k / (2.0 * faces.h)
            if central is None:
                central, upwind = q, np.abs(q)
            else:
                central += q
                upwind += np.abs(q)
        upwind += diffusion / faces.h
        flux = lower + upper
        flux *= central
        upwind *= lower - upper
        flux += upwind
        flux *= faces.inv_h
        # +div adds the flux below the face and takes it above; -div swaps.
        gain, loss = (out[s:], out[:-s]) if subtract else (out[:-s], out[s:])
        gain += flux
        loss -= flux
    return Field(grid, out)


def integrate(f: Field) -> float:
    """Volume integral: cell volume times the sum of values in storage order.

    The summation order is fixed by the flat layout, so repeated evaluation
    on the same input is bitwise reproducible.
    """
    return float(f.grid.volume_element * np.sum(f.values))


def lp_norm(f: Field, p: float) -> float:
    """(integral of |f|^p)^(1/p) for p >= 1, via the deterministic quadrature.

    Computed as s (integral of (|f| / s)^p)^(1/p) with s = sup |f|, so that
    |f|^p cannot overflow on a finite field: the norm is at most
    s |Omega|^(1/p). A zero field has norm 0; a non-finite s is returned
    as is.
    """
    if not p >= 1.0:
        raise ValueError("p must be >= 1")
    scaled = np.abs(f.values)
    s = float(scaled.max())
    if not 0.0 < s < math.inf:
        return s
    scaled /= s
    scaled **= p
    return s * integrate(Field(f.grid, scaled)) ** (1.0 / p)


def sup_norm(f: Field) -> float:
    """Exact maximum of |f| over cells."""
    return float(np.max(np.abs(f.values)))
