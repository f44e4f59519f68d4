"""Hot numeric loops, vectorized across paths with numpy.

Four loops carry the pipeline's work: the one-asset path simulation
(``simulate_d1h1``), the hedge gains sweep (``hedge_sweep``, one
``gains_step`` per time step), the pathwise exponent of the surface's
inner Monte Carlo (``opportunity_mc_exponent``) and bilinear table
lookups along paths (``bilinear_steps``).  Each runs a Python loop over
time steps or jump ordinals and numpy over paths.  All random numbers
are drawn by the callers.

Per-step arrays are stored step-major (``step_major``): the public
shape is (n_paths, n_steps, ...), but the memory runs step by step, so
the slice ``[:, k]`` a step loop reads or writes is contiguous.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

# Model codes of the one-asset, one-factor models ``simulate_d1h1`` runs.
MODEL_CONSTANT = 0  # drift alpha, volatility beta, both flat in y
MODEL_BNS = 1  # drift alpha + beta*y, volatility sqrt(y)


def numba_enabled() -> bool:
    """Always False: the kernels have one numpy backend.

    Kept because every benchmark record stores this value in its run
    environment, so records from before and after the jitted backend was
    removed stay comparable.
    """
    return False


def gauss_legendre_01(n: int):
    """Nodes/weights for integration over [0, 1]."""
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# Fixed 4-node rule used for all time-quadrature of the squared market
# price of risk along exact factor decay segments.
SEG_NODES, SEG_WEIGHTS = gauss_legendre_01(4)


def step_major(n_steps, n_paths, *tail):
    """Uninitialized (n_paths, n_steps, *tail) array stored step by step.

    The memory is a C-ordered (n_steps, n_paths, *tail) block and the
    result is its view with the first two axes swapped: ``out[:, k]`` is
    contiguous, ``out[i]`` is strided.
    """
    return np.empty((n_steps, n_paths, *tail)).swapaxes(0, 1)


def simulate_d1h1(code, alpha, beta, rate, y0, lam, delta, s0, dw, events, sizes):
    """Forward sweep of factor, log-price and quadrature accumulators.

    ``events`` groups the jump events by grid step (``rows(k)``, owning
    ``path`` and within-step ``offset``); ``sizes`` are the event sizes
    in storage order.  Returns (y, log_s, sharpe_int, mpr_dw,
    factor_int): per-step integrals of the squared market price of risk
    (jump-inclusive quadrature), the variance-matched loading against
    the Brownian increments, and lambda * Y (exact).
    """
    n, nk = dw.shape
    edel = math.exp(-lam * delta)

    def sharpe2(y):
        if code == MODEL_CONSTANT:
            return np.full_like(y, (alpha - rate) ** 2 / beta**2)
        e = alpha + beta * y - rate
        return e * e / y

    def mpr(y):
        if code == MODEL_CONSTANT:
            return np.full_like(y, (alpha - rate) / beta)
        return (alpha + beta * y - rate) / np.sqrt(y)

    y_out = step_major(nk + 1, n)
    logs_out = step_major(nk + 1, n)
    sharpe_int = step_major(nk, n)
    mpr_dw = step_major(nk, n)
    factor_int = step_major(nk, n)
    y = np.full(n, float(y0))
    ls = np.full(n, math.log(s0))
    y_out[:, 0] = y
    logs_out[:, 0] = ls
    for k in range(nk):
        ev = events.rows(k)
        pths = events.path[ev]
        u = events.offset[ev]
        sz = sizes[ev]
        acc = np.zeros(n)
        for q in range(len(SEG_NODES)):
            xi = SEG_NODES[q] * delta
            yq = y * math.exp(-lam * xi)
            if ev.size:
                mask = u < xi
                contrib = np.zeros(n)
                np.add.at(contrib, pths[mask], sz[mask] * np.exp(-lam * (xi - u[mask])))
                yq = yq + contrib
            acc += SEG_WEIGHTS[q] * sharpe2(yq)
        r_step = acc * delta
        sharpe_int[:, k] = r_step
        # scale the frozen loading so its conditional variance matches
        # the same integral; keeps the density mean exact given jumps
        rho_left = sharpe2(y)
        scale = np.where(rho_left * delta > 1e-300, np.sqrt(r_step / np.maximum(rho_left * delta, 1e-300)), 1.0)
        mpr_dw[:, k] = mpr(y) * dw[:, k] * scale
        if code == MODEL_CONSTANT:
            b = np.full(n, alpha)
            v = np.full(n, beta**2)
        else:
            b = alpha + beta * y
            v = y.copy()
        ls = ls + (b - 0.5 * v) * delta + np.sqrt(v) * dw[:, k]
        jend = np.zeros(n)
        jint = np.zeros(n)
        if ev.size:
            e = np.exp(-lam * (delta - u))
            np.add.at(jend, pths, sz * e)
            np.add.at(jint, pths, sz * (1.0 - e))
        factor_int[:, k] = y * (1.0 - edel) + jint
        y = y * edel + jend
        y_out[:, k + 1] = y
        logs_out[:, k + 1] = ls
    return y_out, logs_out, sharpe_int, mpr_dw, factor_int


def gains_step(gains_left, xi, adj, v, value_left, d_increment):
    """One Euler update of cumulative strategy gains, any number of assets.

    Positions are rows of ``xi``/``adj``/``d_increment`` (n, d).  The
    feedback term is summed as (gains * adj) * dD per asset.
    """
    gains_left = np.atleast_1d(gains_left)
    adj = np.atleast_2d(adj)
    dd = np.atleast_2d(d_increment)
    base = np.sum((np.atleast_2d(xi) - (v - np.atleast_1d(value_left))[:, None] * adj) * dd, axis=-1)
    feedback = np.sum(gains_left[:, None] * adj * dd, axis=-1)
    return gains_left + base - feedback


def hedge_sweep(d_path, value, xi, adj, v):
    """Terminal cumulative gains of the feedback strategy.

    ``d_path`` holds discounted prices (n, K+1, d); ``value`` (n, K) and
    the pure hedge ``xi`` and adjustment ``adj`` (n, K, d) are taken at
    the left end of each step.
    """
    gains = np.zeros(d_path.shape[0])
    for k in range(d_path.shape[1] - 1):
        gains = gains_step(gains, xi[:, k], adj[:, k], v, value[:, k], d_path[:, k + 1] - d_path[:, k])
    return gains


def opportunity_mc_exponent(sharpe2, lam, y_start, horizon, offsets, times, components, sizes):
    """Pathwise integral of the squared market price of risk on [0, horizon].

    Every path starts at ``y_start`` (h,) and decays exactly at rates
    ``lam`` (h,) between its jump events, given as flat arrays with
    per-path ``offsets`` and sorted by time within a path.  Each
    inter-jump segment is integrated by the fixed 4-node rule;
    ``sharpe2`` maps states (..., h) to the squared market price of
    risk (...).  The loop runs over the jump ordinal: pass j integrates
    every path's j-th segment at once.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    counts = np.diff(offsets)
    n = counts.size
    y = np.tile(np.asarray(y_start, dtype=float), (n, 1))
    t = np.zeros(n)
    acc = np.zeros(n)
    decay_rate = -lam[None, None, :] * SEG_NODES[:, None, None]
    for j in range(int(counts.max(initial=0)) + 1):
        live = np.flatnonzero(counts >= j)
        jumps = counts[live] > j
        t_next = np.full(live.size, float(horizon))
        ev = offsets[live[jumps]] + j
        t_next[jumps] = times[ev]
        seg = t_next - t[live]
        yl = y[live]
        nodes = yl[None, :, :] * np.exp(decay_rate * seg[None, :, None])
        acc[live] += (SEG_WEIGHTS @ sharpe2(nodes)) * seg
        yl = yl * np.exp(-lam[None, :] * seg[:, None])
        yl[np.flatnonzero(jumps), components[ev]] += sizes[ev]
        y[live] = yl
        t[live] = t_next
    return acc


def bilinear_steps(table, t_idx, wt, eta, eta0, inv_deta):
    """Evaluate a (time slice, log-state) table at per-step state arrays.

    ``t_idx``/``wt`` give the bracketing slice index and weight for each
    column of ``eta``.  Clamps outside the state range.
    """
    ny = table.shape[1]
    x = (eta - eta0) * inv_deta
    x = np.clip(x, 0.0, ny - 1 - 1e-12)
    j = x.astype(np.int64)
    wy = x - j
    w = wt[None, :]
    # flat gather: row t_idx, column j of the table is element t_idx*ny + j
    flat = table.ravel()
    lo_at = t_idx[None, :] * ny + j
    hi_at = lo_at + ny
    lo = flat.take(lo_at) * (1.0 - wy) + flat.take(lo_at + 1) * wy
    hi = flat.take(hi_at) * (1.0 - wy) + flat.take(hi_at + 1) * wy
    return lo * (1.0 - w) + hi * w
