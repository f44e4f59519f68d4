"""Hot numeric loops, vectorized across paths with numpy.

Three recursions advance a path by one grid step, and each exists once:
the exact factor update (``factor_step``: decay, then the step's jumps),
the log-price update with coefficients frozen at the step-left factor
(``log_price_step``) and the density's two quadratures over the step
(``density_step``).  Every loop over steps calls them: the engine's
pass (``engine_steps``, summed by ``simulate_d1h1``, which records the
whole-path factor and prices too when given the initial prices, and
read node by node by the density walk) and the replays of
``market.PathBundle``'s walks, which feed the backward solve and the
hedge sweep (``hedge_sweep``: per time step it asks the caller for
the strategy's pieces, forms every path's position once with
``strategy_position``, records the leading paths and adds the position
dotted with the step's price move to the gains).  A step's jumps are
slices of the chunk's jump record (``market.JumpRecord.step``).  The
other loops are the pathwise exponent of the surface's inner Monte
Carlo (``opportunity_mc_exponent``) and the reads of the backward
solver's jump-channel table, one (3, n_y) block per step
(``bilinear_steps``).  Each runs a Python loop over time
steps or jump ordinals and numpy over paths.  All random numbers are
drawn by the callers.

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


def step_decay(lam, delta):
    """Each factor component's decay over one step, exp(-lam_i delta) (h,)."""
    return np.array([math.exp(-lam_i * delta) for lam_i in lam])


def factor_step(y, edel, delta, jumps):
    """Advance the factor (n, h) over one step, in place, exactly.

    Every component decays by ``edel`` (h,), then each of the step's
    ``jumps`` (``market.JumpRecord.step``) adds its size decayed from its
    time to the step's right node.  Returns those decays (one per event).
    """
    at, sz, lam_ev, u = jumps
    y *= edel
    e = np.exp(-lam_ev * (delta - u))
    if at.size:
        y += np.bincount(at, sz * e, minlength=y.size).reshape(y.shape)
    return e


def log_price_start(s0, n):
    """Log prices (n, d) of every path at time zero."""
    return np.tile([math.log(s0_m) for s0_m in s0], (n, 1))


def log_price_step(model, ls, y, dw_k, delta):
    """Log prices (n, d) one step on from ``ls``, coefficients frozen at
    the step-left factor ``y`` (n, h): log S gains
    (b(y) - diag(sigma sigma')/2) delta + sigma dW.  The model is read
    only through ``drift`` and ``vol``."""
    vol = model.vol(y)
    diag_cov = np.einsum("nij,nij->ni", vol, vol)
    return ls + (model.drift(y) - 0.5 * diag_cov) * delta + np.einsum("nij,nj->ni", vol, dw_k)


def density_step(model, states, rule, delta, dw_k, jumps):
    """The density's two quadratures over one step, each (n,), any model:
    the integral of the squared market price of risk by the 4-node rule
    (``rule``: node times, each component's decay to them) with the
    step's ``jumps`` (``market.JumpRecord.step``), and the market price
    of risk at the step-left factor ``states[0]`` dotted with ``dw_k``,
    scaled so its conditional variance matches the integral (this keeps
    the density mean exact given the jumps).  Rows 1.. of ``states`` take the factor
    at the nodes."""
    node_times, node_decay = rule
    y = states[0]
    n, h = y.shape
    nq = node_times.size
    at, sz, lam_ev, u = jumps
    np.multiply(y, node_decay[:, None, :], out=states[1:])
    if at.size:
        # events before each node, node by node, in step order
        node, j = np.nonzero(u < node_times[:, None])
        w = sz[j] * np.exp(-lam_ev[j] * (node_times[node] - u[j]))
        states[1:] += np.bincount(node * (n * h) + at[j], w, minlength=nq * n * h).reshape(nq, n, h)
    rho = model.sharpe_squared(states)
    acc = np.zeros(n)
    for q in range(nq):
        acc += SEG_WEIGHTS[q] * rho[1 + q]
    r_step = acc * delta
    r_left = rho[0] * delta
    scale = np.where(r_left > 1e-300, np.sqrt(r_step / np.maximum(r_left, 1e-300)), 1.0)
    return r_step, np.einsum("ni,ni->n", model.market_price_of_risk(y), dw_k) * scale


def engine_steps(model, y0, lam, delta, dw, events):
    """The simulation engine's pass over increments ``dw`` (n, K, d) and
    the jump record ``events`` (``market.JumpRecord``), any model.

    Yields per step k the two density quadratures (``density_step``),
    the exact term of lambda * integral of Y (n, h), and the factor at
    node k+1 (n, h), one buffer advanced in place.
    """
    n, nk = dw.shape[:2]
    h = lam.size
    edel = step_decay(lam, delta)
    node_times = SEG_NODES * delta
    rule = node_times, np.array([[math.exp(-lam_i * xi) for lam_i in lam] for xi in node_times])
    # row 0: the step-left factor; rows 1..: its values at the quadrature nodes
    states = np.empty((1 + SEG_NODES.size, n, h))
    y = states[0]
    y[:] = y0
    for k in range(nk):
        jumps = events.step(k, lam)
        r_step, m_step = density_step(model, states, rule, delta, dw[:, k], jumps)
        # the step's whole term first, then the caller's total, so the
        # total is the in-order sum of the per-step terms
        at, sz = jumps[:2]
        term = y * (1.0 - edel)
        e = factor_step(y, edel, delta, jumps)
        if at.size:
            term += np.bincount(at, sz * (1.0 - e), minlength=n * h).reshape(n, h)
        yield r_step, m_step, term, y


def simulate_d1h1(model, y0, lam, delta, dw, events, s0=None):
    """(y_end, sharpe_int, mpr_dw, factor_int): the terminal factor and
    the in-order sums of ``engine_steps``' terms from zero.  Given the
    initial prices ``s0`` (d,), the factor (n, K+1, h) and the prices
    (n, K+1, d) at every node follow, both step-major, for
    ``market.PathBundle.y`` and ``.s``: each step's prices come from
    ``log_price_step`` on the step-left factor just recorded.  The name
    is kept because benchmark records report it."""
    n, nk, d = dw.shape
    sharpe_int, mpr_dw = np.zeros(n), np.zeros(n)
    factor_int = np.zeros((n, lam.size))
    record = s0 is not None
    if record:
        y_out = step_major(nk + 1, n, lam.size)
        y_out[:, 0] = y0
        logs = step_major(nk + 1, n, d)
        logs[:, 0] = log_price_start(s0, n)
    for k, (r_step, m_step, term, y) in enumerate(engine_steps(model, y0, lam, delta, dw, events)):
        sharpe_int += r_step
        mpr_dw += m_step
        factor_int += term
        if record:
            logs[:, k + 1] = log_price_step(model, logs[:, k], y_out[:, k], dw[:, k], delta)
            y_out[:, k + 1] = y
    out = y.copy(), sharpe_int, mpr_dw, factor_int
    # in place, so log prices and prices never take memory at once
    return out + (y_out, np.exp(logs, out=logs)) if record else out


def strategy_position(xi, adj, v, gains_left, value_left):
    """Position (n, d): the pure hedge ``xi`` minus the tracking gap
    v + G - V (n,) times the adjustment ``adj`` (n, d)."""
    gap = v + gains_left - value_left
    return xi - gap[:, None] * adj


def hedge_sweep(nodes, discount, strategy, v, n_record=0):
    """Cumulative gains of the feedback strategy, in one pass over the steps.

    ``nodes`` yields the factor, its left limit and the prices (n, d) at
    grid nodes 0..K (``PathBundle.walk``); the prices are discounted
    step by step by ``discount`` (K+1,).  ``strategy(k, d_k, y_k,
    y_left_k)`` returns the claim's value (n,), the pure hedge and the
    adjustment (n, d) at the discounted prices ``d_k`` of step k, from
    which ``strategy_position`` gives the position; the gains advance by
    the position dotted with the step's price move, and only the running
    gains (n,) are kept between steps.  Returns (terminal gains,
    recorded): recorded holds the gains, positions, wealth and
    discounted prices of the leading ``n_record`` paths, or is empty.
    """
    nodes = iter(nodes)
    nk = discount.size - 1
    y, y_left, s = next(nodes)
    n, d = s.shape
    m = min(n_record, n)
    gains = np.zeros(n)
    rec_gains = np.zeros((m, nk + 1))
    position = np.zeros((m, nk, d))
    discounted = np.empty((m, nk + 1, d))
    d_k = s * discount[0]
    discounted[:, 0] = d_k[:m]
    for k in range(nk):
        value, xi, adj = strategy(k, d_k, y, y_left)
        phi = strategy_position(xi, adj, v, gains, value)
        position[:, k] = phi[:m]
        y, y_left, s = next(nodes)
        d_next = s * discount[k + 1]
        gains = gains + np.sum(phi * (d_next - d_k), axis=-1)
        rec_gains[:, k + 1] = gains[:m]
        discounted[:, k + 1] = d_next[:m]
        d_k = d_next
    if not m:
        return gains, {}
    return gains, {"gains": rec_gains, "position": position, "wealth": v + rec_gains,
                   "discounted": discounted}


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


def bilinear_steps(table, eta, eta0, inv_deta):
    """Read every row of a (rows, log-state) table at the states ``eta``
    (n,), linearly in log-state: (n, rows).  Clamps outside the state
    range.  The name is kept because benchmark records report it."""
    x = np.clip((eta - eta0) * inv_deta, 0.0, table.shape[1] - 1 - 1e-12)
    j = x.astype(np.int64)
    wy = x - j
    return (table[:, j] * (1.0 - wy) + table[:, j + 1] * wy).T
