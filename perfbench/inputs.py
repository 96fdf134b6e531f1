"""Benchmark inputs: the named figure-regime models and the fit patterns.

Everything here uses the standard library and numpy only, so the inputs
depend on the workload seed and not on the version of the package under
test.  A change to the package's sampler cannot move the fit patterns.
"""

from __future__ import annotations

import math

import numpy as np

SIGMA_S2 = 4.0 * math.pi
# the package's documented default truncation tolerance (README, TruncationPolicy)
TAIL_TOL = 1e-6

# The paper's figure regimes on S^2; delta is solved so that eta_max = 400.
MODELS = {
    "mq1-400": {
        "family": "multiquadric",
        "params": {"tau": 1.0, "delta": 0.9654362879120054},
        "dim": 2,
        "mode": "kernel",
        "eta": 400.0,
    },
    "mq10-400": {
        "family": "multiquadric",
        "params": {"tau": 10.0, "delta": 0.7416437737576226},
        "dim": 2,
        "mode": "kernel",
        "eta": 400.0,
    },
    "mr-400": {"family": "most_repulsive", "params": {"eta": 400.0}, "dim": 2},
    "sp-8-1-2": {"family": "spectral", "params": {"alpha": 8.0, "beta": 1.0, "kappa": 2.0}, "dim": 2},
}

# expected count each model asks for (None: the family fixes no eta)
REQUESTED_ETA = {"mq1-400": 400.0, "mq10-400": 400.0, "mr-400": 400.0, "sp-8-1-2": None}

# fit workload: multiquadric tau = 10 in density mode over this delta grid
FIT_TAU = 10.0
FIT_DELTAS = (0.66, 0.70, 0.74, 0.78, 0.82)
FIT_N = 300
# hard-core distance (radians) of the fit patterns; well below the RSA
# jamming distance (about 0.16 for 300 points on S^2), so generation is fast
FIT_HARD_CORE = 0.1


def fit_model(delta: float) -> dict:
    """Density-mode multiquadric spec of one profile step (chi is refit)."""
    return {
        "family": "multiquadric",
        "params": {"tau": FIT_TAU, "delta": float(delta)},
        "dim": 2,
        "mode": "density",
        "chi": 1.0,
    }


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one replicate of the workload seed."""
    return np.random.default_rng([int(seed), *[int(p) for p in path]])


def hard_core_pattern(rng: np.random.Generator, n: int = FIT_N, r: float = FIT_HARD_CORE) -> np.ndarray:
    """n uniform points on S^2, sequentially thinned so that no two lie
    closer than geodesic distance r.  Returns angles (colat, lon), shape (n, 2)."""
    cos_r = math.cos(r)
    vecs = np.empty((n, 3))
    count = 0
    while count < n:
        z = rng.uniform(-1.0, 1.0, size=64)
        lon = rng.uniform(0.0, 2.0 * math.pi, size=64)
        s = np.sqrt(1.0 - z * z)
        cand = np.column_stack([s * np.cos(lon), s * np.sin(lon), z])
        for v in cand:
            if count == n:
                break
            if count == 0 or np.max(vecs[:count] @ v) < cos_r:
                vecs[count] = v
                count += 1
    colat = np.arccos(np.clip(vecs[:, 2], -1.0, 1.0))
    lon = np.mod(np.arctan2(vecs[:, 1], vecs[:, 0]), 2.0 * math.pi)
    return np.column_stack([colat, lon])


def write_pattern_csv(path, angles: np.ndarray) -> None:
    """Pattern CSV in the package's documented format: theta,phi,x,y,z."""
    lines = ["theta,phi,x,y,z"]
    for colat, lon in angles:
        st = math.sin(colat)
        row = (colat, lon, st * math.cos(lon), st * math.sin(lon), math.cos(colat))
        lines.append(",".join(f"{v:.17g}" for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pattern_csv(path) -> np.ndarray:
    """Angles (colat, lon) of a pattern CSV written by the package."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["theta", "phi"]:
            raise ValueError(f"unexpected pattern header {header}")
        rows = [line.split(",")[:2] for line in fh if line.strip()]
    return np.array(rows, dtype=float).reshape(-1, 2)

