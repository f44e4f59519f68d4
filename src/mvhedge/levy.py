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


def check_events(offsets, times, components, sizes, horizon: float, n_components: int):
    """Validate the jump events of many paths in flat arrays.

    Path p owns ``times[offsets[p]:offsets[p + 1]]`` (and the same slice
    of ``components`` and ``sizes``).  Raises ValueError unless every
    event time lies in (0, horizon], every size is positive, every
    component lies in [0, n_components) and the times of each
    component of each path are strictly increasing.
    """
    if not times.size:
        return
    if times.min() <= 0 or times.max() > horizon:
        raise ValueError("event times must lie in (0, horizon]")
    if (sizes <= 0).any():
        raise ValueError("jump sizes must be positive")
    if components.min() < 0 or components.max() >= n_components:
        raise ValueError("event components must lie in [0, n_components)")
    key = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    if n_components > 1:
        # group the events by (path, component), storage order kept within
        key = key * n_components + components
        order = np.argsort(key, kind="stable")
        key, times = key[order], times[order]
    if ((key[1:] == key[:-1]) & ~(times[1:] > times[:-1])).any():
        raise ValueError("event times must be strictly increasing per component")


def pack_events(paths, n_paths: int, horizon: float, n_components: int):
    """Flat ``(offsets, times, components, sizes)`` of ``paths``, validated once.

    Path p owns the slice ``offsets[p]:offsets[p + 1]`` of the flat
    arrays; an empty ``paths`` stands for ``n_paths`` paths without events.
    """
    offsets = np.zeros(n_paths + 1, dtype=np.int64)
    if not paths:
        return offsets, np.empty(0), np.empty(0, dtype=np.int64), np.empty(0)
    offsets[1:] = np.cumsum([len(p) for p in paths])
    times = np.concatenate([p.times for p in paths])
    components = np.concatenate([p.components for p in paths])
    sizes = np.concatenate([p.sizes for p in paths])
    check_events(offsets, times, components, sizes, horizon, n_components)
    return offsets, times, components, sizes


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
        check_events(np.array([0, self.times.size]), self.times, self.components, self.sizes,
                     self.horizon, self.n_components)

    @classmethod
    def _unchecked(cls, times, components, sizes, horizon, n_components):
        """Build from arrays of the field dtypes without validating them.

        For the sampler only: its events are checked by ``pack_events``
        once per packed chunk, where they reach a simulation.
        """
        path = object.__new__(cls)
        object.__setattr__(path, "times", times)
        object.__setattr__(path, "components", components)
        object.__setattr__(path, "sizes", sizes)
        object.__setattr__(path, "horizon", horizon)
        object.__setattr__(path, "n_components", n_components)
        return path

    def __len__(self):
        return self.times.size

    def totals(self) -> np.ndarray:
        """Total jump mass per component, L_i(lambda_i * horizon)."""
        out = np.zeros(self.n_components)
        np.add.at(out, self.components, self.sizes)
        return out


# numpy's SeedSequence hash (a pool of four 32-bit words) and PCG64's
# seeding (O'Neill 2014, HMC-CS-2014-0905), both fixed by numpy's
# stream-compatibility policy (NEP 19).
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _hash_consts(init, mult, n):
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


# the hash constants do not depend on the data: 16 hashmix calls fill
# and mix the pool, 8 draw the four uint64 state words
_CONST_A = _hash_consts(INIT_A, MULT_A, 16)
_CONST_B = _hash_consts(INIT_B, MULT_B, 8)


def _hash(value, consts, call):
    value = (value ^ consts[call]) * consts[call + 1] & _MASK32
    return value ^ value >> XSHIFT


def _mix(x, y):
    value = (MIX_MULT_L * x - MIX_MULT_R * y) & _MASK32
    return value ^ value >> XSHIFT


def _seed_words(master_seed: int, first: int, count: int) -> np.ndarray:
    """``SeedSequence((master_seed, i)).generate_state(4, np.uint64)`` for
    the ``count`` path indices from ``first``, as a (count, 4) array.

    Below 2**64 both values are at most two 32-bit words, so the entropy
    is the master's words, then the index's low and high word, padded
    with zeros to the pool size: numpy's own coercion of the tuple.  The
    hash runs once on uint64 columns masked to 32 bits (on Python ints
    for a single path, where array calls would cost more than the hash).
    Other seeds take numpy's SeedSequence path by path.
    """
    master_seed, first = int(master_seed), int(first)
    if not (0 <= master_seed < 2**64 and 0 <= first and first + count <= 2**64):
        return np.array([np.random.SeedSequence((master_seed, i)).generate_state(4, np.uint64)
                         for i in range(first, first + count)])
    idx = first if count == 1 else np.arange(count, dtype=np.uint64) + np.uint64(first)
    entropy = [master_seed & _MASK32] + ([master_seed >> 32] if master_seed >> 32 else [])
    entropy += [idx & _MASK32, idx >> 32, 0][:4 - len(entropy)]
    pool = [_hash(word, _CONST_A, call) for call, word in enumerate(entropy)]
    call = len(pool)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], _CONST_A, call))
                call += 1
    half = [_hash(pool[w % 4], _CONST_B, w) for w in range(8)]
    words = np.empty((count, 4), dtype=np.uint64)
    for j in range(4):
        words[:, j] = half[2 * j] | half[2 * j + 1] << 32
    return words


def path_states(master_seed: int, first: int, count: int) -> list[dict]:
    """PCG64 states of the streams ``default_rng(SeedSequence((master_seed, i)))``
    for the ``count`` path indices from ``first``.

    Seed s = w0·2**64 + w1 and increment i = w2·2**64 + w3 from the seed
    words give inc = 2i + 1 and state = (inc + s)·M + inc mod 2**128,
    M being PCG's default multiplier.  Assigning a state to a PCG64
    gives the stream a fresh generator of that seed would draw.
    """
    out = []
    for w0, w1, w2, w3 in _seed_words(master_seed, first, count).tolist():
        inc = (w2 << 65 | w3 << 1 | 1) & _MASK128
        state = ((inc + (w0 << 64 | w1)) * PCG64_MULT + inc) & _MASK128
        out.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0})
    return out


def rng_for_path(master_seed: int, path_index: int) -> np.random.Generator:
    """Independent per-path stream: master seed hashed with the path index.

    A fresh Generator drawing what ``default_rng(SeedSequence((master_seed,
    path_index)))`` draws, seeded through ``path_states``, the derivation
    a simulated block of paths uses for all its streams at once; the
    tests pin both to numpy's own ``SeedSequence``.
    """
    bitgen = np.random.PCG64()
    bitgen.state = path_states(master_seed, path_index, 1)[0]
    return np.random.Generator(bitgen)


def sample_jump_path(specs, horizon: float, seed) -> JumpPath:
    """Draw one exact jump path for all components.

    Parameters
    ----------
    specs : sequence of SubordinatorSpec
        One per component.
    horizon : float
        Calendar horizon T (>= 0); zero yields an empty path.
    seed : int, SeedSequence or Generator
        Identical (specs, horizon, seed) gives a bit-identical path.

    The path is not validated here: ``pack_events`` checks the events
    of a whole chunk at once where they are used.
    """
    if horizon < 0:
        raise ConfigurationError("horizon must be nonnegative")
    specs = list(specs)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    horizon = float(horizon)
    if len(specs) == 1 and isinstance(specs[0], CompoundPoissonExp):
        # sorted times of one component are already in (time, component) order
        spec = specs[0]
        n = rng.poisson(spec.time_scale * spec.event_rate * horizon)
        t = rng.uniform(0.0, horizon, size=n)
        t.sort()
        s = rng.exponential(1.0 / spec.jump_rate, size=n)
        return JumpPath._unchecked(t, np.zeros(n, dtype=np.int64), s, horizon, 1)
    times, comps, sizes = [], [], []
    for i, spec in enumerate(specs):
        if isinstance(spec, CompoundPoissonExp):
            rate = spec.time_scale * spec.event_rate * horizon
            n = rng.poisson(rate)
            t = np.sort(rng.uniform(0.0, horizon, size=n))
            s = rng.exponential(1.0 / spec.jump_rate, size=n)
            times.append(t)
            comps.append(np.full(n, i, dtype=np.int64))
            sizes.append(s)
        else:
            for z, nu in spec.atoms:
                n = rng.poisson(spec.time_scale * nu * horizon)
                t = rng.uniform(0.0, horizon, size=n)
                times.append(t)
                comps.append(np.full(n, i, dtype=np.int64))
                sizes.append(np.full(n, z))
    t = np.concatenate(times) if times else np.empty(0)
    c = np.concatenate(comps) if comps else np.empty(0, dtype=np.int64)
    s = np.concatenate(sizes) if sizes else np.empty(0)
    order = np.lexsort((c, t))
    return JumpPath._unchecked(t[order], c[order], s[order], horizon, len(specs))
