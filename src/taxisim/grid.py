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
whole flux of the cell equation in one such pass: per face it is the upwind
flux q+ c_L + q- c_R, with the carrier diffusion added to the coefficient
of the lower cell and taken from that of the upper one, so no face needs a
branch. laplacian and taxis_divergence can scatter into a caller's array
instead of a fresh one (their out argument), so an explicit update
accumulates into its seed; they check that out is a flat float64 array of
one value per cell and none of their inputs' arrays before they write.

Field(grid, values) and Field.from_nd check values that come from outside.
An array taxisim allocates itself (a stencil's result, a checked out, a
copy, a phase's new field) is flat float64 of one value per cell as made,
so _wrap wraps it as a Field without checking it again.

In the flat layout the face normal to axis a joins cells p and p + s_a,
where s_a is the product of the cell counts of the axes before a, so
x[s_a:] - x[:-s_a] yields every face difference of that axis in one
contiguous pass. Where p is the last cell of its row along a, the pair
(p, p + s_a) straddles a boundary and is no face; a per-grid table of face
weights (1/h^2, 1/(2h)) holds 0 there, so those entries scatter nothing.

Each GridSpec sets its scalar constants once, when it is made: spacing,
cell count, cell volume, domain measure, the explicit diffusion limit and
the smallest squared spacing. They are fields that eq, hash and repr
ignore. Its two array constants, the face table and the cosine spectrum of
the Laplacian, are built on first use and kept in the instance; a copied,
deep-copied or pickled grid is rebuilt from its extent and cells, so it
builds its own read-only ones. The spectrum is one plan for both
directions of the transform that _screened_solve applies for the stepper:
per axis, a view of the flat array and the cosine matrix C, whose one
product on that view leaves its result in the flat layout again, and the
eigenvalues summed flat through the same views.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property
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
    volume_element: float = field(init=False, repr=False, compare=False)
    domain_measure: float = field(init=False, repr=False, compare=False)
    # 1 / (2 sum_a h_a^-2): the explicit Euler step limit of u_t = lap u.
    _diffusion_limit: float = field(init=False, repr=False, compare=False)
    _h_min_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Two cells per axis suffice for the mirror-ghost stencils.
        cells = tuple(_as_int(n, "cells entry", 2, math.inf) for n in self.cells)
        if not 1 <= len(self.extent) <= 3:
            raise ValueError("extent must have 1, 2 or 3 entries")
        if len(cells) != len(self.extent):
            raise ValueError("cells must have one entry per axis of extent")
        # The spacing L / n is a length too, so n * _LENGTH_MIN bounds L.
        extent = tuple(
            _as_float(L, "extent entry", n * _LENGTH_MIN, _LENGTH_MAX, "[]")
            for L, n in zip(self.extent, cells)
        )
        spacing = tuple(L / n for L, n in zip(extent, cells))
        h_min = min(spacing)
        for name, value in (
            ("extent", extent),
            ("cells", cells),
            ("spacing", spacing),
            ("num_cells", math.prod(cells)),
            ("volume_element", math.prod(spacing)),
            ("domain_measure", math.prod(extent)),
            ("_diffusion_limit", 1.0 / (2.0 * sum(1.0 / (h * h) for h in spacing))),
            ("_h_min_sq", h_min * h_min),
        ):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.extent)

    def cell_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.cells[axis], dtype=float) + 0.5) * h

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        coords = [self.cell_centers(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*coords, indexing="ij"))

    def __reduce__(self):
        # Copy and pickle by extent and cells: a copy builds its own caches.
        return (GridSpec, (self.extent, self.cells))

    @cached_property
    def _face_table(self) -> tuple[_AxisFaces, ...]:
        """Per-axis face strides and weights (shared, so read-only)."""
        table = []
        stride = 1
        for n, h in zip(self.cells, self.spacing):
            p = np.arange(self.num_cells - stride)
            inside = (p // stride) % n != n - 1
            weights = []
            for w in (1.0 / (h * h), 1.0 / (2.0 * h)):
                arr = np.where(inside, w, 0.0)
                arr.flags.writeable = False
                weights.append(arr)
            table.append(_AxisFaces(stride, *weights))
            stride *= n
        return tuple(table)

    @cached_property
    def _spectrum(self) -> _Spectrum:
        """Cosine transform of the Laplacian (its arrays are shared, so read-only)."""
        axes = []
        lam = np.zeros(self.num_cells)
        for axis, (n, h) in enumerate(zip(self.cells, self.spacing)):
            c, lam_a = _cosine_modes(n, h)
            c.flags.writeable = False
            view = _axis_view(self.cells, axis)
            axes.append((view, c))
            # Summed through the view its axis is transformed in: axis 0 is
            # the last entry of its view, any other axis the middle one.
            lam_view = lam.reshape(view)
            lam_view += lam_a if axis == 0 else lam_a[:, None]
        lam.flags.writeable = False
        return _Spectrum(tuple(axes), lam)


# Bounds of a length (a side, a spacing or a bump width): its square, inverse
# square and cube, so the cell volume and domain measure, are finite and > 0.
_LENGTH_MIN = 1e-100
_LENGTH_MAX = 1e100


def _as_int(value: object, key: str, low: float, high: float) -> int:
    """value as an int in [low, high] where it is a Python or NumPy integer;
    anything else, a bool or a float included, raises as _as_float does."""
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if low <= n <= high:
                return n
            right = ")" if high == math.inf else "]"
            raise ValueError(f"{key} must be in [{low}, {high}{right}, got {n!r}")
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _as_float(
    value: object, key: str, low: float = -math.inf, high: float = math.inf, ends: str = "()"
) -> float:
    """value as a Python float in the interval from low to high, by default
    any finite number; ends ("()", "[)", "(]" or "[]") says which bounds the
    interval holds. These two helpers own the range of every setting.

    A ValueError that starts with key is raised for anything but a real
    number (a Python or NumPy integer or float), a bool, a string or an
    integer too large for a float included, and, as `<key> must be in
    <interval>, got <value>`, for a number outside the interval, NaN
    included."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            pass
        else:
            # An open end moves its bound one float inward, so that one
            # comparison tests the interval; NaN fails it.
            lo = low if ends[0] == "[" else math.nextafter(low, math.inf)
            hi = high if ends[1] == "]" else math.nextafter(high, -math.inf)
            if lo <= x <= hi:
                return x
            raise ValueError(f"{key} must be in {ends[0]}{low}, {high}{ends[1]}, got {x!r}")
    raise ValueError(f"{key} must be a real number, got {value!r}")


_FLOAT64 = np.dtype(np.float64)

# Extrema go through argmin/argmax: each returns the extreme element itself as
# a Python float, and NaN propagates, since both return the index of the
# first NaN. On a 2-CPU Xeon with numpy 2.4, x.item(x.argmax()) takes
# ~0.4 us at 64 cells where float(np.maximum.reduce(x)) takes 1.1-2.0 us,
# 1.4 against 2.2 us at 16^3, about the same at 32^3 (6.3 against 6.7 us)
# and ~10% more at 64^3 (63 against 57 us). Sums stay the ufunc reduction,
# whose fixed order over the flat layout fixes the quadrature.
def _min(x: np.ndarray) -> float:
    """Smallest element of x, or its first NaN."""
    return x.item(x.argmin())


def _max(x: np.ndarray) -> float:
    """Largest element of x, or its first NaN."""
    return x.item(x.argmax())


_sum = np.add.reduce


def _is_flat_float64(values: object) -> bool:
    """values is a flat, contiguous, native float64 ndarray."""
    return type(values) is np.ndarray and values.dtype is _FLOAT64 and values.strides == (8,)


@dataclass(eq=False)
class Field:
    """One scalar value per cell, stored flat with axis 0 fastest; from_nd
    takes an array of shape grid.cells.

    Field(grid, values) checks values that come from outside: it converts
    them to flat float64 and refuses an n-D array or the wrong cell count.
    The arrays taxisim allocates are wrapped as made (see _wrap).
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        values = self.values
        # A flat, contiguous, native float64 array is kept as is: asarray and
        # ravel would not copy it either.
        if not _is_flat_float64(values):
            values = np.asarray(values, dtype=float)
            # Raveling in C order would not give the axis-0-fastest layout.
            if values.ndim != 1:
                raise ValueError(
                    f"field values must be flat, got {values.ndim} dimensions; "
                    "use Field.from_nd for an array of shape grid.cells"
                )
            values = values.ravel()
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
        array = np.asarray(array, dtype=float)
        if array.shape != grid.cells:
            raise ValueError(f"array has shape {array.shape}, grid has cells {grid.cells}")
        return cls(grid, array.ravel(order="F"))

    @classmethod
    def full(cls, grid: GridSpec, value: float) -> Field:
        return _wrap(grid, np.full(grid.num_cells, float(value)))

    @classmethod
    def zeros(cls, grid: GridSpec) -> Field:
        return _wrap(grid, np.zeros(grid.num_cells))

    def copy(self) -> Field:
        return _wrap(self.grid, self.values.copy())

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())


_new = object.__new__


def _wrap(grid: GridSpec, values: np.ndarray) -> Field:
    """Field(grid, values) without its checks, for a flat float64 array of
    grid.num_cells values that taxisim allocated (or an out that _check_out
    passed). On a 2-CPU Xeon with numpy 2.4 a wrap takes about 0.2 us where
    the checks take 0.5-0.9 us at 64 cells, and a 1D step makes about six."""
    f = _new(Field)
    f.grid = grid
    f.values = values
    return f


# A face pass reads its inputs while it scatters into out. The stencils test
# out against their inputs' arrays by identity: np.shares_memory would cost
# more than the wraps that the check lets a step skip.
_OUT_IS_INPUT = "out must not be the array of an input"


def _check_out(out: np.ndarray, grid: GridSpec, x: np.ndarray) -> None:
    """Refuse an out that a stencil cannot scatter into in place: anything
    but a flat float64 array of one value per cell, or its input array x
    (taxis_divergence tests its potentials' arrays in its own loop)."""
    if not (_is_flat_float64(out) and out.size == grid.num_cells):
        raise ValueError(
            f"out must be a flat contiguous float64 array of {grid.num_cells} values"
        )
    if out is x:
        raise ValueError(_OUT_IS_INPUT)


class _AxisFaces(NamedTuple):
    """The faces normal to one axis in the flat layout: face p joins cells p
    and p + stride, for p < num_cells - stride. The weight arrays hold
    1/h^2 and 1/(2h) at real faces and 0 where p ends its row."""

    stride: int
    inv_h2: np.ndarray
    inv_2h: np.ndarray


def _cosine_modes(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II matrix C (n x n) and the eigenvalues of -lap.

    Row k of C is the discrete Neumann eigenvector cos(pi k (j + 1/2) / n),
    whose eigenvalue under the mirror-ghost Laplacian is
    -(2 - 2 cos(pi k / n)) / h^2.
    """
    k = np.arange(n, dtype=float)
    c = np.cos(np.outer(k, k + 0.5) * (math.pi / n)) * math.sqrt(2.0 / n)
    c[0] *= math.sqrt(0.5)
    lam = (2.0 - 2.0 * np.cos(k * (math.pi / n))) / (h * h)
    return c, lam


def _axis_view(cells: tuple[int, ...], axis: int) -> tuple[int, ...]:
    """The view under which one product transforms axis a of the flat layout.

    With n = cells[a], inner the product of the counts before a and outer of
    those after it, the flat array is (outer, n, inner). Axis 0 is
    (outer, n) @ m (a vector product when outer = 1), and any other axis is
    m @ (outer, n, inner), one product when outer = 1. Leading 1s are dropped.
    """
    n = cells[axis]
    inner = math.prod(cells[:axis])
    outer = math.prod(cells[axis + 1 :])
    lead = () if outer == 1 else (outer,)
    if axis == 0:
        return (*lead, n)
    return (*lead, n, inner)


class _Spectrum:
    """The cosine transform of one grid: per axis, the view of the flat
    array its product reads (see _axis_view) and the DCT-II matrix C; and
    the summed eigenvalues lam of -lap, flat, since every product leaves
    its modes in the order of the cells.
    """

    __slots__ = ("axes", "lam", "_last")

    def __init__(
        self, axes: tuple[tuple[tuple[int, ...], np.ndarray], ...], lam: np.ndarray
    ) -> None:
        self.axes = axes
        self.lam = lam
        self._last: tuple[float, np.ndarray] | None = None

    def denominator(self, alpha: float) -> np.ndarray:
        """1 + alpha lam (read-only), kept for the last alpha asked for."""
        last = self._last
        if last is not None and last[0] == alpha:
            return last[1]
        denom = 1.0 + alpha * self.lam
        denom.flags.writeable = False
        self._last = (alpha, denom)
        return denom


def _transform(x: np.ndarray, spec: _Spectrum, inverse: bool = False) -> np.ndarray:
    """The cosine transform of the flat array x (its inverse when inverse),
    flat: axis 0 is x @ C.T and any other axis C @ x (x @ C and C.T @ x for
    the inverse), each on its view of x, with no copy. On one axis the flat
    array is its own view, so the transform is that one product.
    """
    if len(spec.axes) == 1:
        c = spec.axes[0][1]
        return x @ (c if inverse else c.T)
    for axis, (view, c) in enumerate(spec.axes):
        x = x.reshape(view)
        if axis == 0:
            x = x @ (c if inverse else c.T)
        else:
            x = (c.T if inverse else c) @ x
    return x.ravel()


def _screened_solve(grid: GridSpec, b: np.ndarray, alpha: float) -> np.ndarray:
    """Exact solve of (I - alpha lap) x = b with the mirror-ghost Laplacian.

    The DCT-II diagonalises the discrete Neumann Laplacian axis by axis, so
    the solve is a forward transform, a pointwise divide by
    1 + alpha sum_a lam_a and the inverse transform. The grid keeps its
    transform and the divisor of the last alpha.
    """
    spec = grid._spectrum
    x = _transform(b, spec)
    x /= spec.denominator(alpha)
    return _transform(x, spec, inverse=True)


def laplacian(f: Field, *, out: np.ndarray | None = None) -> Field:
    """Second-order Laplacian: divergence of the face fluxes (a_R - a_L) / h^2.

    A mirror ghost equals its boundary cell, so boundary faces carry no flux
    and a boundary cell sees only its interior neighbour. With out, a flat
    contiguous float64 array of one value per cell, the face pass adds
    lap f into out in place and the Field returned wraps out; any other out,
    or f's own array, raises ValueError.
    """
    x = f.values
    if out is None:
        out = np.zeros(x.size)
    else:
        _check_out(out, f.grid, x)
    for faces in f.grid._face_table:
        s = faces.stride
        flux = x[s:] - x[:-s]
        flux *= faces.inv_h2
        out[:-s] += flux
        out[s:] -= flux
    return _wrap(f.grid, out)


def gradient(f: Field) -> tuple[Field, ...]:
    """Central-difference gradient, one Field per axis: each cell sums the
    half-differences (a_R - a_L) / (2h) of its two faces along the axis.

    Boundary faces carry a zero difference (mirror ghosts), so the one-sided
    estimate (neighbor - cell) / (2h) appears at boundary cells.
    """
    x = f.values
    comps = []
    for faces in f.grid._face_table:
        s = faces.stride
        half = x[s:] - x[:-s]
        half *= faces.inv_2h
        g = np.zeros(x.size)
        g[:-s] = half
        g[s:] += half
        comps.append(_wrap(f.grid, g))
    return tuple(comps)


def magnitude(components: tuple[Field, ...]) -> Field:
    """Euclidean norm, per cell, of a vector given by one Field per axis."""
    acc = components[0].values ** 2
    for c in components[1:]:
        acc = acc + c.values**2
    return _wrap(components[0].grid, np.sqrt(acc))


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
    q / h = coeff * (p_R - p_L) / h and transports the carrier value of the
    upstream cell, and the carrier diffusion adds -diffusion (c_R - c_L) / h.
    With q = coeff * dp, up = sum max(q, 0) + diffusion and
    total = sum q - up (the sum of min(q, 0), minus diffusion), the flux is

        (up c_L + total c_R) / h^2,

    the upwind flux q+ c_L + q- c_R summed over the pairs, plus the diffusion
    flux; no face selects its upstream cell by a branch. up >= 0 and
    total <= 0 hold exactly in floating point, so a cell with c = 0 only
    gains: its rate -div is >= 0 bit for bit. Boundary faces carry no flux,
    so the volume-weighted sum of the result telescopes to zero.

    With out, a flat contiguous float64 array of one value per cell, the
    face pass subtracts the divergence from out in place, so out gains the
    rate -div(...) of a transport equation, and the Field returned wraps
    out; any other out, or the array of the carrier or of a potential,
    raises ValueError.
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
        if pot.values is out:
            raise ValueError(_OUT_IS_INPUT)
    if not math.isfinite(diffusion):
        raise ValueError("diffusion must be finite")
    c = carrier.values
    subtract = out is not None
    if subtract:
        _check_out(out, grid, c)
    else:
        out = np.zeros(c.size)
    for faces in grid._face_table:
        s = faces.stride
        total = up = None
        for pot, k in pairs:
            p = pot.values
            q = p[s:] - p[:-s]
            q *= k
            if total is None:
                total, up = q, np.maximum(q, 0.0)
            else:
                total += q
                np.maximum(q, 0.0, out=q)
                up += q
        # The coefficient of c_L is up = sum q+ + D, that of c_R is
        # total = sum q - up = sum q- - D.
        up += diffusion
        total -= up
        total *= c[s:]
        flux = up
        flux *= c[:-s]
        flux += total
        flux *= faces.inv_h2
        # +div adds the flux below the face and takes it above; -div swaps.
        gain, loss = (out[s:], out[:-s]) if subtract else (out[:-s], out[s:])
        gain += flux
        loss -= flux
    return _wrap(grid, out)


def integrate(f: Field) -> float:
    """Volume integral: cell volume times the sum of values in storage order.

    The summation order is fixed by the flat layout, so repeated evaluation
    on the same input is bitwise reproducible.
    """
    return float(f.grid.volume_element * _sum(f.values))


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
    s = _max(scaled)
    if not 0.0 < s < math.inf:
        return s
    scaled /= s
    scaled **= p
    return s * integrate(_wrap(f.grid, scaled)) ** (1.0 / p)


def sup_norm(f: Field) -> float:
    """Exact maximum of |f| over cells."""
    return _max(np.abs(f.values))
