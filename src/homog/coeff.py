"""Y-periodic matrix coefficient fields and a lattice ellipticity screen.

Every field is sampled through the componentwise fractional part, so it is
1-periodic in each coordinate by construction.  Piecewise-constant kinds use
half-open cells ``[k/N, (k+1)/N)``; axis indices are 0-based.  The constant
is the one-cell ``GridTable`` and the checkerboard the 2x2 one, with no
sampler of their own.  No field declares whether it is symmetric: assembly
measures that on the samples it reads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


class EllipticityError(ValueError):
    """A coefficient field fails the uniform ellipticity requirement."""


def fractional_part(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    return y - np.floor(y)


@dataclass(frozen=True)
class CoefficientField:
    """Base class; subclasses implement ``sample_batch``."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def sample_batch(self, y: np.ndarray) -> np.ndarray:
        """Matrices A({y}) for an (P, n) array of points: returns (P, n, n)."""
        raise NotImplementedError

    def transposed(self) -> "CoefficientField":
        return _Transposed(self)


def sample(field: CoefficientField, y) -> np.ndarray:
    """The matrix A({y}) at a single point (any real coordinates)."""
    return field.sample_batch(np.atleast_2d(np.asarray(y, dtype=float)))[0]


def _times_identity(scalars: np.ndarray, n: int) -> np.ndarray:
    """(P,) scalars times the n x n identity: (P, n, n)."""
    out = np.zeros((len(scalars), n, n))
    for d in range(n):
        out[:, d, d] = scalars
    return out


@dataclass(frozen=True)
class Laminate(CoefficientField):
    """Scalar two-phase layering along one axis: alpha then beta times I."""

    axis: int
    alpha: float
    beta: float
    fraction: float
    ndim: int = 2

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("laminate volume fraction must lie in (0, 1)")
        if not 0 <= self.axis < self.ndim:
            raise ValueError("laminate axis out of range")

    @property
    def dim(self) -> int:
        return self.ndim

    def sample_batch(self, y: np.ndarray) -> np.ndarray:
        frac = fractional_part(y[:, self.axis])
        return _times_identity(np.where(frac < self.fraction, self.alpha, self.beta), self.ndim)


@dataclass(frozen=True)
class ScalarCosine(CoefficientField):
    """(a0 + a1 cos(2 pi y_axis)) times the identity."""

    a0: float
    a1: float
    axis: int = 0
    ndim: int = 2

    def __post_init__(self):
        if not 0 <= self.axis < self.ndim:
            raise ValueError("cosine axis out of range")

    @property
    def dim(self) -> int:
        return self.ndim

    def sample_batch(self, y: np.ndarray) -> np.ndarray:
        scal = self.a0 + self.a1 * np.cos(2.0 * np.pi * fractional_part(y[:, self.axis]))
        return _times_identity(scal, self.ndim)


def _tuples(x):
    """A nested list as nested tuples, so that it hashes."""
    return tuple(map(_tuples, x)) if isinstance(x, list) else x


@dataclass(frozen=True)
class GridTable(CoefficientField):
    """k^n per-cell constant n x n matrices on Y, n = 1 or 2; entries may be
    non-symmetric."""

    values: tuple  # (k,)*n + (n, n) nested tuple; [i, j] covers cell (i, j), [i] cell i

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        n = v.shape[-1] if v.ndim else 0
        if n not in (1, 2) or v.shape != (v.shape[0],) * n + (n, n):
            raise ValueError("grid_table expects a (k,)*n + (n, n) array with n = 1 or 2")
        object.__setattr__(self, "values", _tuples(v.tolist()))
        object.__setattr__(self, "_array", v)

    @property
    def dim(self) -> int:
        return self._array.shape[-1]

    @property
    def k(self) -> int:
        return self._array.shape[0]

    def sample_batch(self, y: np.ndarray) -> np.ndarray:
        k = self.k
        idx = np.minimum(np.floor(k * fractional_part(y)).astype(int), k - 1)
        return self._array[tuple(idx.T)]


def Constant(matrix) -> GridTable:
    """The constant field A(y) = matrix, as the one-cell grid table."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    return GridTable(m.reshape((1,) * len(m) + m.shape))


def Checkerboard(alpha: float, beta: float) -> GridTable:
    """2x2 scalar checkerboard: alpha on the even cells, beta on the odd, as
    the grid table [[alpha I, beta I], [beta I, alpha I]]."""
    even, odd = np.diag([float(alpha)] * 2), np.diag([float(beta)] * 2)
    return GridTable(((even, odd), (odd, even)))


@dataclass(frozen=True)
class _Transposed(CoefficientField):
    base: CoefficientField

    @property
    def dim(self) -> int:
        return self.base.dim

    def sample_batch(self, y: np.ndarray) -> np.ndarray:
        return np.swapaxes(self.base.sample_batch(y), 1, 2)


def symmetric_part_eiglimits(a: np.ndarray) -> tuple[float, float]:
    """Min/max eigenvalue of sym(A) over a batch of (P, n, n) matrices."""
    if a.shape[1] == 1:
        vals = a[:, 0, 0]
        return float(vals.min()), float(vals.max())
    mid = 0.5 * (a[:, 0, 0] + a[:, 1, 1])
    rad = np.sqrt((0.5 * (a[:, 0, 0] - a[:, 1, 1])) ** 2 + (0.5 * (a[:, 0, 1] + a[:, 1, 0])) ** 2)
    return float((mid - rad).min()), float((mid + rad).max())


def validate_ellipticity(field: CoefficientField, samples_per_axis: int = 64) -> tuple[float, float]:
    """Min/max eigenvalue of the symmetric part over a sample lattice: the
    screen of a config's coefficient on entry.

    Samples cell midpoints of a uniform lattice; raises EllipticityError when
    a sample is not finite or the minimum eigenvalue is non-positive.  It can
    miss features thinner than the lattice spacing, 1/64 by default; the
    authoritative check is assembly's, of every quadrature sample it reads,
    which also measures whether the samples are symmetric.
    """
    if samples_per_axis < 2:
        raise ValueError("samples_per_axis must be >= 2")
    mids = (np.arange(samples_per_axis) + 0.5) / samples_per_axis
    grids = np.meshgrid(*[mids] * field.dim, indexing="ij")
    a = field.sample_batch(np.stack([g.ravel() for g in grids], axis=1))
    if not np.all(np.isfinite(a)):  # NaN fails every comparison below
        raise EllipticityError("field has a non-finite sample")
    c, big_c = symmetric_part_eiglimits(a)
    if c <= 0.0:
        raise EllipticityError(f"field is not elliptic (min eigenvalue {c:.3e})")
    return c, big_c


def _integer(value) -> int:
    """An integer of a config file; a bool or a float raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def from_config(spec: dict) -> CoefficientField:
    """Build a coefficient field from its config-file description."""
    spec = dict(spec)
    kind = spec.pop("kind")
    dim = _integer(spec.pop("dim", 2))
    if kind == "constant":
        return Constant(spec["matrix"])
    if kind == "laminate":
        return Laminate(_integer(spec["axis"]), float(spec["alpha"]), float(spec["beta"]),
                        float(spec.get("fraction", 0.5)), dim)
    if kind == "checkerboard":
        return Checkerboard(float(spec["alpha"]), float(spec["beta"]))
    if kind == "scalar_cosine":
        return ScalarCosine(float(spec["a0"]), float(spec["a1"]), _integer(spec.get("axis", 0)), dim)
    if kind == "grid_table":
        return GridTable(spec["values"])
    raise ValueError(f"unknown coefficient kind {kind!r}")
