"""Y-periodic matrix coefficient fields and a lattice ellipticity screen.

Every field is sampled through the componentwise fractional part, so it is
1-periodic in each coordinate by construction.  Piecewise-constant kinds use
half-open cells ``[k/N, (k+1)/N)``; axis indices are 0-based.  The
checkerboard is the 2x2 ``GridTable``, with no sampler of its own.
"""

from __future__ import annotations

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

    @property
    def symmetric(self) -> bool:
        return True

    def sample_batch(self, y: np.ndarray) -> np.ndarray:
        """Matrices A({y}) for an (P, n) array of points: returns (P, n, n)."""
        raise NotImplementedError

    def transposed(self) -> "CoefficientField":
        return self if self.symmetric else _Transposed(self)


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
class Constant(CoefficientField):
    matrix: tuple  # (n, n) nested tuple

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "matrix", tuple(map(tuple, m)))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @property
    def symmetric(self) -> bool:
        m = np.asarray(self.matrix)
        return bool(np.array_equal(m, m.T))

    def sample_batch(self, y: np.ndarray) -> np.ndarray:
        m = np.asarray(self.matrix)
        return np.broadcast_to(m, (len(y), *m.shape)).copy()


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


@dataclass(frozen=True)
class GridTable(CoefficientField):
    """k x k per-cell constant matrices on Y; entries may be non-symmetric."""

    values: tuple  # (k, k, n, n) nested tuple; [i, j] covers cell (i, j)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 4 or v.shape[0] != v.shape[1] or v.shape[2:] != (2, 2):
            raise ValueError("grid_table expects a (k, k, 2, 2) array")
        object.__setattr__(self, "values", v.tolist())
        object.__setattr__(self, "_array", v)

    @property
    def dim(self) -> int:
        return 2

    @property
    def k(self) -> int:
        return self._array.shape[0]

    @property
    def symmetric(self) -> bool:
        v = self._array
        return bool(np.array_equal(v, np.swapaxes(v, 2, 3)))

    def sample_batch(self, y: np.ndarray) -> np.ndarray:
        k = self.k
        idx = np.minimum(np.floor(k * fractional_part(y)).astype(int), k - 1)
        return self._array[idx[:, 0], idx[:, 1]]


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

    @property
    def symmetric(self) -> bool:
        return self.base.symmetric

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
    a sample is not finite, when the minimum eigenvalue is non-positive, and
    when a field declared symmetric produces asymmetric samples.  It can miss
    features thinner than the lattice spacing, 1/64 by default; the
    authoritative check is assembly's, of every quadrature sample it reads.
    """
    if samples_per_axis < 2:
        raise ValueError("samples_per_axis must be >= 2")
    mids = (np.arange(samples_per_axis) + 0.5) / samples_per_axis
    grids = np.meshgrid(*[mids] * field.dim, indexing="ij")
    a = field.sample_batch(np.stack([g.ravel() for g in grids], axis=1))
    if not np.all(np.isfinite(a)):  # NaN fails every comparison below
        raise EllipticityError("field has a non-finite sample")
    if field.symmetric:
        dev = np.abs(a - np.swapaxes(a, 1, 2)).max()
        if dev > 1e-12 * max(1.0, np.abs(a).max()):
            raise EllipticityError(f"field declared symmetric but deviates by {dev:.3e}")
    c, big_c = symmetric_part_eiglimits(a)
    if c <= 0.0:
        raise EllipticityError(f"field is not elliptic (min eigenvalue {c:.3e})")
    return c, big_c


def from_config(spec: dict) -> CoefficientField:
    """Build a coefficient field from its config-file description."""
    spec = dict(spec)
    kind = spec.pop("kind")
    dim = int(spec.pop("dim", 2))
    if kind == "constant":
        return Constant(tuple(map(tuple, np.atleast_2d(spec["matrix"]))))
    if kind == "laminate":
        return Laminate(int(spec["axis"]), float(spec["alpha"]), float(spec["beta"]),
                        float(spec.get("fraction", 0.5)), dim)
    if kind == "checkerboard":
        return Checkerboard(float(spec["alpha"]), float(spec["beta"]))
    if kind == "scalar_cosine":
        return ScalarCosine(float(spec["a0"]), float(spec["a1"]), int(spec.get("axis", 0)), dim)
    if kind == "grid_table":
        return GridTable(tuple(spec["values"]))
    raise ValueError(f"unknown coefficient kind {kind!r}")
