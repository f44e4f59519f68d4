"""Exact construction of the mean-reverting jump factor Y.

Between jumps each component decays as y * exp(-lambda * dt); a jump
adds its size to one component.  Both the path and its running time
integral are therefore available in closed form, with no discretization
error in Y itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levy import ConfigurationError, JumpPath


@dataclass(frozen=True)
class OUParams:
    """Mean-reversion speeds and strictly positive initial state."""

    mean_reversion: np.ndarray
    y0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean_reversion", np.atleast_1d(np.asarray(self.mean_reversion, dtype=float)))
        object.__setattr__(self, "y0", np.atleast_1d(np.asarray(self.y0, dtype=float)))
        if self.mean_reversion.shape != self.y0.shape:
            raise ConfigurationError("mean_reversion and y0 must have equal length")
        if (self.mean_reversion <= 0).any():
            raise ConfigurationError("mean-reversion speeds must be positive")
        if (self.y0 <= 0).any():
            raise ConfigurationError("initial factor values must be positive")

    @property
    def dim(self) -> int:
        return self.y0.size


@dataclass(frozen=True)
class FactorPath:
    """Factor values and left limits on a grid containing all jump times."""

    times: np.ndarray
    values: np.ndarray       # (K+1, h), right-continuous
    left_values: np.ndarray  # (K+1, h), value just before each grid time
    jumps: JumpPath
    params: OUParams


def merge_grid(uniform: np.ndarray, jump_times: np.ndarray) -> np.ndarray:
    return np.union1d(np.asarray(uniform, dtype=float), np.asarray(jump_times, dtype=float))


def evolve(params: OUParams, jumps: JumpPath, grid: np.ndarray) -> FactorPath:
    """Exact factor path on ``grid``; every jump time must be a grid point."""
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0:
        raise ValueError("grid must start at 0")
    pos = np.searchsorted(grid, jumps.times)
    if jumps.times.size and not np.all(grid[np.minimum(pos, grid.size - 1)] == jumps.times):
        raise ValueError("jump time missing from grid; build grids with merge_grid")
    h = params.dim
    lam = params.mean_reversion
    k_count = grid.size
    values = np.empty((k_count, h))
    left = np.empty((k_count, h))
    jump_add = np.zeros((k_count, h))
    np.add.at(jump_add, (pos, jumps.components), jumps.sizes)
    y = params.y0.copy()
    values[0] = y
    left[0] = y
    for k in range(1, k_count):
        dt = grid[k] - grid[k - 1]
        y = y * np.exp(-lam * dt)
        left[k] = y
        y = y + jump_add[k]
        values[k] = y
    return FactorPath(grid, values, left, jumps, params)


def integrated_factor(path: FactorPath, t: float, t_hat: float) -> np.ndarray:
    """Closed-form integral of Y over [t, t_hat], per component.

    Uses the exponential primitive on every inter-jump segment; no
    quadrature is involved.
    """
    if not (0.0 <= t <= t_hat <= path.times[-1] + 1e-12):
        raise ValueError("need 0 <= t <= t_hat <= horizon")
    lam = path.params.mean_reversion
    grid = path.times
    total = np.zeros(path.params.dim)
    if t_hat <= t:
        return total
    inner = grid[(grid > t) & (grid < t_hat)]
    breaks = np.concatenate([[t], inner, [t_hat]])
    for a, b in zip(breaks[:-1], breaks[1:]):
        k = int(np.searchsorted(grid, a, side="right")) - 1
        y_a = path.values[k] * np.exp(-lam * (a - grid[k]))
        total += y_a * (1.0 - np.exp(-lam * (b - a))) / lam
    return total
