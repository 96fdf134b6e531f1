"""Geometry and measure on the unit spheres.

Points live on S^d = {x in R^(d+1) : |x| = 1}.  The full simulation
pipeline supports d in {1, 2}; measure-level quantities (surface area,
multiplicities, coefficient transforms) work for any d >= 1.

Coordinate conventions:
  d=1: a single angle theta in [0, 2*pi), x = (cos theta, sin theta).
  d=2: colatitude theta in [0, pi] measured from the north pole and
       longitude phi in [0, 2*pi),
       x = (sin theta cos phi, sin theta sin phi, cos theta).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi


def surface_measure(dim: int) -> float:
    """Total surface measure sigma_d = 2 pi^((d+1)/2) / Gamma((d+1)/2)."""
    if dim < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {dim}")
    try:
        return 2.0 * math.pi ** ((dim + 1) / 2.0) / math.gamma((dim + 1) / 2.0)
    except OverflowError:
        raise ValueError(f"sphere dimension {dim} is too large") from None


@dataclass(frozen=True)
class SpherePoint:
    """A point on S^1 or S^2, stored by its angles.

    ``angles`` is ``(theta,)`` for d=1 and ``(colat, lon)`` for d=2.
    Unit vectors are derived on demand.
    """

    dim: int
    angles: tuple

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"SpherePoint supports d in {{1, 2}}, got d={self.dim}")
        if len(self.angles) != self.dim:
            raise ValueError(
                f"d={self.dim} needs {self.dim} angle(s), got {len(self.angles)}"
            )
        names = ("theta",) if self.dim == 1 else ("colatitude", "longitude")
        for name, value in zip(names, self.angles):
            if not math.isfinite(float(value)):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.dim == 1:
            object.__setattr__(self, "angles", (float(self.angles[0]) % TWO_PI,))
        else:
            colat, lon = float(self.angles[0]), float(self.angles[1])
            if not 0.0 <= colat <= math.pi:
                raise ValueError(f"colatitude must lie in [0, pi], got {colat}")
            object.__setattr__(self, "angles", (colat, lon % TWO_PI))

    @classmethod
    def circle(cls, theta: float) -> "SpherePoint":
        return cls(1, (theta,))

    @classmethod
    def s2(cls, colat: float, lon: float) -> "SpherePoint":
        return cls(2, (colat, lon))

    @property
    def theta(self) -> float:
        """Circle angle (d=1 only)."""
        if self.dim != 1:
            raise ValueError("theta is the d=1 coordinate; use colat/lon for d=2")
        return self.angles[0]

    @property
    def colat(self) -> float:
        if self.dim != 2:
            raise ValueError("colat is a d=2 coordinate")
        return self.angles[0]

    @property
    def lon(self) -> float:
        if self.dim != 2:
            raise ValueError("lon is a d=2 coordinate")
        return self.angles[1]

    @property
    def vector(self) -> np.ndarray:
        """Unit vector in R^(d+1)."""
        return _unit_vectors(self.dim, np.array([self.angles]))[0]


def _unit_vectors(dim: int, angles: np.ndarray) -> np.ndarray:
    """Unit vectors of shape (n, dim + 1) for an angle array of shape (n, dim)."""
    if dim == 1:
        return np.column_stack([np.cos(angles[:, 0]), np.sin(angles[:, 0])])
    colat, lon = angles[:, 0], angles[:, 1]
    st = np.sin(colat)
    return np.column_stack([st * np.cos(lon), st * np.sin(lon), np.cos(colat)])


def geodesic_distance(x: SpherePoint, y: SpherePoint) -> float:
    """Great-circle distance in [0, pi]."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return float(pairwise_geodesic([x, y])[0, 1])


def pairwise_geodesic(points) -> np.ndarray:
    """Matrix of geodesic distances between all pairs of points.

    Accepts a PointPattern or any sequence of SpherePoint (the latter
    may contain duplicates, e.g. when probing joint intensities).
    2 atan2(|u-v|, |u+v|), unlike arccos(u.v), keeps full relative precision
    for nearly equal and nearly antipodal pairs; summing the squared norms
    one coordinate at a time forms no (n, n, d+1) array.
    """
    if isinstance(points, PointPattern):
        vecs = points.vectors
    else:
        vecs = np.array([p.vector for p in points])
    if len(vecs) == 0:
        return np.zeros((0, 0))
    diff_sq = sum_sq = 0.0
    for coord in vecs.T:
        diff_sq = diff_sq + (coord[:, None] - coord) ** 2
        sum_sq = sum_sq + (coord[:, None] + coord) ** 2
    return 2.0 * np.arctan2(np.sqrt(diff_sq), np.sqrt(sum_sq))


def sample_uniform_angles(dim: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of uniform points as an angle array of shape (size, dim)."""
    if dim == 1:
        return rng.uniform(0.0, TWO_PI, size=(size, 1))
    if dim == 2:
        lon = rng.uniform(0.0, TWO_PI, size=size)
        z = rng.uniform(-1.0, 1.0, size=size)
        return np.column_stack([np.arccos(z), lon])
    raise ValueError(f"uniform sampling implemented for d in {{1, 2}}, got d={dim}")


def equal_area_project(point: SpherePoint, hemisphere: str = "north"):
    """Lambert azimuthal equal-area projection of a point on S^2.

    Centered at the selected pole: planar radius 2*sin(colat'/2) with
    colat' the colatitude from that pole, azimuth = longitude.  The
    projection maps a cap of surface measure a to a disc of planar
    area a.
    """
    if point.dim != 2:
        raise ValueError("equal-area projection is defined on S^2")
    if hemisphere not in ("north", "south"):
        raise ValueError(f"hemisphere must be 'north' or 'south', got {hemisphere!r}")
    colat = point.colat if hemisphere == "north" else math.pi - point.colat
    r = 2.0 * math.sin(colat / 2.0)
    return r * math.cos(point.lon), r * math.sin(point.lon)


@dataclass(frozen=True)
class PointPattern:
    """A finite point configuration on S^d (set semantics, stored order),
    also held as read-only arrays: (n, d) angles and (n, d+1) ``vectors``."""

    dim: int
    points: tuple = field(default_factory=tuple)
    vectors: np.ndarray = field(init=False, repr=False, compare=False)
    _angles: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple(self.points)
        for p in pts:
            if p.dim != self.dim:
                raise ValueError("all points must share the pattern dimension")
        if len({p.angles for p in pts}) != len(pts):
            raise ValueError("duplicate points are not allowed")
        angles = np.array([p.angles for p in pts], dtype=float).reshape(len(pts), self.dim)
        vectors = _unit_vectors(self.dim, angles)
        angles.flags.writeable = vectors.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_angles", angles)
        object.__setattr__(self, "vectors", vectors)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def angles(self) -> np.ndarray:
        """Angle array of shape (n, dim), read-only."""
        return self._angles

    @cached_property
    def upper_distances(self) -> np.ndarray:
        """Geodesic distances of the pairs i <= j in ``np.triu_indices`` order,
        read-only; computed on first use and kept with the pattern."""
        dist = pairwise_geodesic(self)[self.upper_mask]
        dist.flags.writeable = False
        return dist

    @cached_property
    def upper_mask(self) -> np.ndarray:
        """n x n boolean mask of the entries i <= j, read-only; it visits them
        in ``np.triu_indices`` order, so a pair-value array assigned through it
        fills the upper triangle of a C-order matrix.  Computed on first use
        and kept with the pattern."""
        index = np.arange(len(self))
        mask = index[:, None] <= index
        mask.flags.writeable = False
        return mask

    def to_csv(self, path_or_file) -> None:
        """Write the spec'd CSV: d=1 column ``theta``; d=2 columns
        ``theta,phi,x,y,z`` (colatitude, longitude, unit vector)."""
        if hasattr(path_or_file, "write"):
            self._write_csv(path_or_file)
        else:
            with open(path_or_file, "w", newline="") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh) -> None:
        if self.dim == 1:
            header, table = "theta", self._angles
        else:
            header, table = "theta,phi,x,y,z", np.hstack([self._angles, self.vectors])
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", header=header, comments="")

    @classmethod
    def from_csv(cls, path_or_file) -> "PointPattern":
        if hasattr(path_or_file, "read"):
            return cls._read_csv(path_or_file)
        with open(path_or_file, newline="") as fh:
            return cls._read_csv(fh)

    @classmethod
    def _read_csv(cls, fh) -> "PointPattern":
        """Every row needs as many numeric fields as the header; blank
        lines are skipped.  A malformed row raises ValueError naming its
        line."""
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError("empty CSV")
            header = [h.strip() for h in header]
            if header == ["theta"]:
                dim = 1
            elif header[:2] == ["theta", "phi"]:
                dim = 2
            else:
                raise ValueError(f"unrecognized point CSV header: {header}")
            pts = [_parse_row(dim, header, row, reader.line_num) for row in reader if row]
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
        return cls(dim, tuple(pts))


def _parse_row(dim: int, header: list, row: list, line: int) -> SpherePoint:
    if len(row) != len(header):
        raise ValueError(
            f"line {line}: field count {len(row)} does not match the header {','.join(header)}"
        )
    values = []
    for name, cell in zip(header, row):
        try:
            values.append(float(cell))
        except ValueError:
            raise ValueError(f"line {line}, column {name!r}: not a number: {cell!r}") from None
    try:
        return SpherePoint(dim, tuple(values[:dim]))
    except ValueError as exc:
        raise ValueError(f"line {line}: {exc}") from None
