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
import io
import math
from dataclasses import dataclass, field

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

    @classmethod
    def from_vector(cls, vec) -> "SpherePoint":
        vec = np.asarray(vec, dtype=float)
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"not a unit vector (norm {norm})")
        if vec.shape == (2,):
            return cls.circle(math.atan2(vec[1], vec[0]))
        if vec.shape == (3,):
            colat = math.acos(min(1.0, max(-1.0, float(vec[2]))))
            lon = math.atan2(vec[1], vec[0])
            return cls.s2(colat, lon)
        raise ValueError(f"expected a 2- or 3-vector, got shape {vec.shape}")

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
        if self.dim == 1:
            t = self.angles[0]
            return np.array([math.cos(t), math.sin(t)])
        colat, lon = self.angles
        st = math.sin(colat)
        return np.array([st * math.cos(lon), st * math.sin(lon), math.cos(colat)])


def _angle_between(u, v) -> np.ndarray:
    """Angle between unit vectors along the last axis, 2 atan2(|u-v|, |u+v|).

    Unlike arccos of the dot product, this keeps full relative precision
    for nearly equal and nearly antipodal pairs.
    """
    return 2.0 * np.arctan2(np.linalg.norm(u - v, axis=-1), np.linalg.norm(u + v, axis=-1))


def geodesic_distance(x: SpherePoint, y: SpherePoint) -> float:
    """Great-circle distance in [0, pi]."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return float(_angle_between(x.vector, y.vector))


def pairwise_geodesic(points) -> np.ndarray:
    """Matrix of geodesic distances between all pairs of points.

    Accepts a PointPattern or any sequence of SpherePoint (the latter
    may contain duplicates, e.g. when probing joint intensities).
    """
    pts = list(points)
    n = len(pts)
    if n == 0:
        return np.zeros((0, 0))
    vecs = np.array([p.vector for p in pts])
    return _angle_between(vecs[:, None, :], vecs[None, :, :])


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
    """A finite point configuration on S^d (set semantics, stored order)."""

    dim: int
    points: tuple = field(default_factory=tuple)

    def __post_init__(self):
        pts = tuple(self.points)
        for p in pts:
            if p.dim != self.dim:
                raise ValueError("all points must share the pattern dimension")
        if len({p.angles for p in pts}) != len(pts):
            raise ValueError("duplicate points are not allowed")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def angles(self) -> np.ndarray:
        """Angle array of shape (n, dim)."""
        if not self.points:
            return np.zeros((0, self.dim))
        return np.array([p.angles for p in self.points])

    def to_csv(self, path_or_file) -> None:
        """Write the spec'd CSV: d=1 column ``theta``; d=2 columns
        ``theta,phi,x,y,z`` (colatitude, longitude, unit vector)."""
        if hasattr(path_or_file, "write"):
            self._write_csv(path_or_file)
        else:
            with open(path_or_file, "w", newline="") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh) -> None:
        w = csv.writer(fh, lineterminator="\n")
        if self.dim == 1:
            w.writerow(["theta"])
            for p in self.points:
                w.writerow([f"{p.theta:.17g}"])
        else:
            w.writerow(["theta", "phi", "x", "y", "z"])
            for p in self.points:
                x, y, z = p.vector
                w.writerow(
                    [f"{p.colat:.17g}", f"{p.lon:.17g}", f"{x:.17g}", f"{y:.17g}", f"{z:.17g}"]
                )

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        self._write_csv(buf)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, path_or_file) -> "PointPattern":
        if hasattr(path_or_file, "read"):
            return cls._read_csv(path_or_file)
        with open(path_or_file, newline="") as fh:
            return cls._read_csv(fh)

    @classmethod
    def _read_csv(cls, fh) -> "PointPattern":
        rows = list(csv.reader(fh))
        if not rows:
            raise ValueError("empty CSV")
        header = [h.strip() for h in rows[0]]
        if header == ["theta"]:
            pts = [SpherePoint.circle(float(r[0])) for r in rows[1:] if r]
            return cls(1, tuple(pts))
        if header[:2] == ["theta", "phi"]:
            pts = [SpherePoint.s2(float(r[0]), float(r[1])) for r in rows[1:] if r]
            return cls(2, tuple(pts))
        raise ValueError(f"unrecognized point CSV header: {header}")
