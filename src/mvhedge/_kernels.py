"""Hot numeric loops, vectorized across paths with numpy.

Four loops carry the pipeline's work: the path simulation for every
model (``simulate_d1h1``), the hedge gains sweep (``hedge_sweep``, one
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


def simulate_d1h1(model, y0, lam, delta, s0, dw, events, components, sizes):
    """Forward sweep of factor, price and quadrature accumulators, any model.

    The one simulation engine; the name is kept because benchmark
    records report it.  ``dw`` (n, K, d) holds the Brownian increments,
    ``events`` groups the jump events by grid step (``rows(k)``, owning
    ``path`` and within-step ``offset``), and ``components``/``sizes``
    are the events' factor and size in storage order.  The model is
    read only through ``drift``, ``vol``, ``sharpe_squared`` and
    ``market_price_of_risk`` at states (..., h).  Returns (y, s,
    sharpe_int, mpr_dw, factor_int): per-step integrals of the squared
    market price of risk (jump-inclusive quadrature), the
    variance-matched loading against the Brownian increments, and
    lambda * Y (exact).
    """
    n, nk, d = dw.shape
    h = lam.size
    nq = SEG_NODES.size
    # decay factors per component, as scalars: a step's factor decays by
    # edel, and from its left node to quadrature node q by node_decay[q]
    edel = np.array([math.exp(-lam_i * delta) for lam_i in lam])
    node_times = SEG_NODES * delta
    node_decay = np.array([[math.exp(-lam_i * xi) for lam_i in lam] for xi in node_times])

    y_out = step_major(nk + 1, n, h)
    logs = step_major(nk + 1, n, d)
    sharpe_int = step_major(nk, n)
    mpr_dw = step_major(nk, n)
    factor_int = step_major(nk, n, h)
    # row 0: the step-left state y, updated in place at the end of each
    # step; row 1 + q: the state at quadrature node q
    states = np.empty((1 + nq, n, h))
    y = states[0]
    y[:] = y0
    ls = np.tile([math.log(s0_m) for s0_m in s0], (n, 1))
    y_out[:, 0] = y
    logs[:, 0] = ls
    for k in range(nk):
        ev = events.rows(k)
        comps = components[ev]
        # flat index of each event's (path, factor) entry in an (n, h) array
        at = events.path[ev] * h + comps
        lam_ev = lam[comps]
        u = events.offset[ev]
        sz = sizes[ev]
        np.multiply(y, node_decay[:, None, :], out=states[1:])
        if ev.size:
            # events before each node, node by node, in storage order
            node, j = np.nonzero(u < node_times[:, None])
            w = sz[j] * np.exp(-lam_ev[j] * (node_times[node] - u[j]))
            states[1:] += np.bincount(node * (n * h) + at[j], w, minlength=nq * n * h).reshape(nq, n, h)
        rho = model.sharpe_squared(states)
        acc = np.zeros(n)
        for q in range(nq):
            acc += SEG_WEIGHTS[q] * rho[1 + q]
        r_step = acc * delta
        sharpe_int[:, k] = r_step
        # scale the frozen loading so its conditional variance matches
        # the same integral; keeps the density mean exact given jumps
        r_left = rho[0] * delta
        scale = np.where(r_left > 1e-300, np.sqrt(r_step / np.maximum(r_left, 1e-300)), 1.0)
        mpr_dw[:, k] = np.einsum("ni,ni->n", model.market_price_of_risk(y), dw[:, k]) * scale
        vol = model.vol(y)
        diag_cov = np.einsum("nij,nij->ni", vol, vol)
        ls = ls + (model.drift(y) - 0.5 * diag_cov) * delta + np.einsum("nij,nj->ni", vol, dw[:, k])
        factor_int[:, k] = y * (1.0 - edel)
        y *= edel
        if ev.size:
            e = np.exp(-lam_ev * (delta - u))
            factor_int[:, k] += np.bincount(at, sz * (1.0 - e), minlength=n * h).reshape(n, h)
            y += np.bincount(at, sz * e, minlength=n * h).reshape(n, h)
        y_out[:, k + 1] = y
        logs[:, k + 1] = ls
    # in place, so log prices and prices never take memory at once
    return y_out, np.exp(logs, out=logs), sharpe_int, mpr_dw, factor_int


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
