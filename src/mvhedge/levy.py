"""Driving subordinators: specification, exact event sampling, moments.

Each factor component i is driven by an independent subordinator
L_i(lambda_i t).  Two specifications are supported: a compound Poisson
process with exponential jump sizes, and a finite table of (size,
intensity) atoms.  Sampling is event-driven (exact jump times), never
grid thinning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss


class MomentConditionError(ValueError):
    """The Levy measure has no exponential moment at the requested order."""


class ConfigurationError(ValueError):
    """Invalid subordinator or model configuration."""


@dataclass(frozen=True)
class CompoundPoissonExp:
    """Compound Poisson subordinator with Exp(jump_rate) jump sizes.

    Parameters
    ----------
    event_rate : float
        Events per unit of subordinator time (mu).
    jump_rate : float
        Inverse mean jump size (mu1); jumps are Exp(jump_rate).
    time_scale : float
        Calendar speed-up lambda: the driving process is L(time_scale*t).
    """

    event_rate: float
    jump_rate: float
    time_scale: float = 1.0

    def __post_init__(self):
        if self.event_rate <= 0:
            raise ConfigurationError("event_rate must be positive")
        if self.jump_rate <= 0:
            raise ConfigurationError("jump_rate must be positive")
        if self.time_scale <= 0:
            raise ConfigurationError("time_scale must be positive")

    @property
    def total_intensity(self) -> float:
        return self.event_rate

    @property
    def critical_exponent(self) -> float:
        return self.jump_rate


@dataclass(frozen=True)
class TableMeasure:
    """Finite atomic Levy measure: jumps of size z_k at intensity nu_k.

    An empty atom table is a valid 'no jumps' specification.
    """

    atoms: tuple[tuple[float, float], ...] = field(default_factory=tuple)
    time_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple((float(z), float(nu)) for z, nu in self.atoms))
        for z, nu in self.atoms:
            if z <= 0:
                raise ConfigurationError("atom sizes must be strictly positive")
            if nu < 0:
                raise ConfigurationError("atom intensities must be nonnegative")
        if self.time_scale <= 0:
            raise ConfigurationError("time_scale must be positive")

    @property
    def total_intensity(self) -> float:
        return sum(nu for _, nu in self.atoms)

    @property
    def critical_exponent(self) -> float:
        return math.inf


SubordinatorSpec = CompoundPoissonExp | TableMeasure


def exp_moment_rate(spec: SubordinatorSpec, c: float) -> float:
    """Integral of (exp(c z) - 1) against the Levy measure.

    With psi = exp_moment_rate(spec, c), the scaled subordinator
    satisfies E[exp(c L(lambda t))] = exp(lambda t psi).  Raises
    MomentConditionError where the moment is infinite, so the CLI checks
    a configuration's exponential-moment condition with it.
    """
    if isinstance(spec, CompoundPoissonExp):
        if c >= spec.jump_rate:
            raise MomentConditionError(
                f"exponential moment diverges: order {c} >= critical exponent {spec.jump_rate}"
            )
        return spec.event_rate * c / (spec.jump_rate - c)
    return sum(nu * math.expm1(c * z) for z, nu in spec.atoms)


def chernoff_quantile_bound(spec: SubordinatorSpec, horizon: float, eps: float = 1e-4) -> float:
    """Upper bound x with P(L(lambda*horizon) > x) <= eps, from the moment rate.

    Optimizes exp(lambda t psi(c) - c x) over the admissible order c.
    """
    if spec.total_intensity == 0 or horizon <= 0:
        return 0.0
    c_hi = spec.critical_exponent
    if math.isinf(c_hi):
        c_hi = max(1.0, 50.0 / max(z for z, _ in spec.atoms))
    cs = np.linspace(c_hi * 1e-4, c_hi * (1 - 1e-6), 2000)
    lam_t = spec.time_scale * horizon
    psi = np.array([exp_moment_rate(spec, c) for c in cs])
    bounds = (lam_t * psi + math.log(1.0 / eps)) / cs
    return float(bounds.min())


def jump_quadrature(spec: SubordinatorSpec, tail_eps: float = 1e-8, n_nodes: int = 24):
    """Nodes and weights approximating integrals against the Levy measure.

    For the exponential-jump family the upper limit is truncated where
    the remaining nu-mass falls below ``tail_eps`` of the total; atomic
    measures are summed exactly.
    """
    if isinstance(spec, TableMeasure):
        if not spec.atoms:
            return np.empty(0), np.empty(0)
        z = np.array([a[0] for a in spec.atoms])
        w = np.array([a[1] for a in spec.atoms])
        return z, w
    z_max = math.log(1.0 / tail_eps) / spec.jump_rate
    x, w = leggauss(n_nodes)
    z = 0.5 * z_max * (x + 1.0)
    dens = spec.event_rate * spec.jump_rate * np.exp(-spec.jump_rate * z)
    return z, 0.5 * z_max * w * dens


@dataclass(frozen=True, eq=False)
class JumpEvents:
    """The jump events of n paths in flat arrays, grouped by path.

    Path p owns the slice ``offsets[p]:offsets[p + 1]`` of ``times``,
    ``components`` and ``sizes``, in its (time, component) order.  The
    arrays are taken as given; ``check`` validates them.  ``len()`` is
    the number of events.
    """

    offsets: np.ndarray
    times: np.ndarray
    components: np.ndarray
    sizes: np.ndarray
    horizon: float
    n_components: int

    def __len__(self):
        return self.times.size

    @property
    def n_paths(self) -> int:
        return self.offsets.size - 1

    def owners(self) -> np.ndarray:
        """The path of every event."""
        return np.repeat(np.arange(self.n_paths), np.diff(self.offsets))

    def check(self):
        """Raise ValueError unless every event time lies in (0, horizon],
        every size is positive, every component lies in [0, n_components)
        and the times of each component of each path are strictly
        increasing."""
        times, components, n_components = self.times, self.components, self.n_components
        if not times.size:
            return
        if times.min() <= 0 or times.max() > self.horizon:
            raise ValueError("event times must lie in (0, horizon]")
        if (self.sizes <= 0).any():
            raise ValueError("jump sizes must be positive")
        if components.min() < 0 or components.max() >= n_components:
            raise ValueError("event components must lie in [0, n_components)")
        key = self.owners()
        if n_components > 1:
            # group the events by (path, component), storage order kept within
            key = key * n_components + components
            order = np.argsort(key, kind="stable")
            key, times = key[order], times[order]
        if ((key[1:] == key[:-1]) & ~(times[1:] > times[:-1])).any():
            raise ValueError("event times must be strictly increasing per component")

    def rows(self, lo: int, hi: int) -> JumpEvents:
        """The events of paths lo..hi-1."""
        a, b = self.offsets[lo], self.offsets[hi]
        return JumpEvents(self.offsets[lo:hi + 1] - a, self.times[a:b], self.components[a:b],
                          self.sizes[a:b], self.horizon, self.n_components)

    def totals(self) -> np.ndarray:
        """Total jump mass (n_paths, n_components) per path and component."""
        out = np.zeros((self.n_paths, self.n_components))
        np.add.at(out, (self.owners(), self.components), self.sizes)
        return out


@dataclass(frozen=True)
class JumpPath:
    """Realized jump events of all components on (0, horizon].

    times are calendar event times of L_i(lambda_i *), strictly
    increasing within each component.
    """

    times: np.ndarray
    components: np.ndarray
    sizes: np.ndarray
    horizon: float
    n_components: int

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "components", np.asarray(self.components, dtype=np.int64))
        object.__setattr__(self, "sizes", np.asarray(self.sizes, dtype=float))
        JumpEvents(np.array([0, self.times.size]), self.times, self.components, self.sizes, self.horizon,
                   self.n_components).check()

    def __len__(self):
        return self.times.size


def sample_jump_path(specs, horizon: float, n_paths: int, seed) -> JumpEvents:
    """Draw the exact jump events of ``n_paths`` paths from one stream.

    Parameters
    ----------
    specs : sequence of SubordinatorSpec
        One per component.
    horizon : float
        Calendar horizon T (>= 0); zero yields no events.
    n_paths : int
        Paths drawn.
    seed : int, SeedSequence or Generator
        Identical (specs, horizon, n_paths, seed) gives bit-identical events.

    The sources of events are the specs in order, a compound Poisson
    spec being one source and a table one source per atom.  The stream
    gives, in this order: each source's counts for every path
    (``poisson``), then each source's event times (``uniform``), then
    each compound Poisson source's sizes (``exponential``), every source
    in turn and path by path within it; one call per kind draws what one
    call per source would.  The events are then sorted by time (stably
    where there are several components, so that ties keep the component
    order), then stably by path.  They are not validated here
    (``JumpEvents.check``).
    """
    if horizon < 0:
        raise ConfigurationError("horizon must be nonnegative")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    horizon = float(horizon)
    sources = []  # (component, expected count, mean size of an exponential source, atom size)
    for i, spec in enumerate(specs):
        if isinstance(spec, CompoundPoissonExp):
            sources.append((i, spec.time_scale * spec.event_rate * horizon, 1.0 / spec.jump_rate, 0.0))
        else:
            sources += [(i, spec.time_scale * nu * horizon, 0.0, z) for z, nu in spec.atoms]
    comp, rate, scale, atom = np.array(sources, dtype=float).reshape(-1, 4).T
    counts = rng.poisson(rate[:, None], size=(rate.size, n_paths))
    src = np.repeat(np.arange(rate.size), counts.sum(axis=1))
    owner = np.repeat(np.tile(np.arange(n_paths, dtype=np.min_scalar_type(n_paths)), rate.size), counts.ravel())
    times = rng.uniform(0.0, horizon, size=src.size)
    sizes = atom[src]
    drawn = np.flatnonzero(scale[src])
    sizes[drawn] = rng.exponential(scale[src[drawn]])
    order = np.argsort(times, kind="stable" if len(specs) > 1 else "quicksort")
    order = order[np.argsort(owner[order], kind="stable")]
    offsets = np.zeros(n_paths + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=0), out=offsets[1:])
    return JumpEvents(offsets, times[order], comp.astype(np.int64)[src[order]], sizes[order], horizon, len(specs))
