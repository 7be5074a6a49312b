"""Target amplitude vectors: the benchmark function/distribution catalog,
special entangled states, and Schmidt-rank (bond dimension) estimation.

``resolve`` is the one code path from a ``--target`` value to a state
(``load_amplitude_file``, which it calls, also reads a file for several
sizes at once). The value is ``random`` (seeded draws), an amplitude file
(a ``.amps`` suffix or a slash), or a kind: a function of x in ``KINDS``,
with its default domain and parameters, or an entangled state in ``STATES``.

Function targets are sampled at 2^n uniformly spaced points including both
endpoints, normalized directly as amplitudes (no square-root density
encoding). Default domains: f1-f3 on [0, 1], the Gaussian on [-5, 5], the
log-normal on [0.01, 8], the Cauchy on [-8, 8]; they are recorded in every
report since plotted infidelities depend on them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import statevec
from .statevec import StateVector

RANK_TOL = 1e-10


def _f1(x):
    return x * (np.exp(0.68 * x) + np.exp(-2.0 * x) - 0.7) * np.sin(24.0 * x)


def _f2(x):
    return (x**2 - 0.8 * x + 0.04) * np.exp(-1.3 * x) * np.cos(7.2 * x - 1.6)


def _f3(x):
    return (x + np.sin(13.0 * x) + np.exp(-6.4 * x)) * np.sin(2.8 * x + 14.3)


def _gauss(x):
    return np.exp(-(x**2) / 2.0) / math.sqrt(2.0 * math.pi)


def _lognormal(x):
    return np.exp(-(np.log(x) ** 2) / 2.0) / (x * math.sqrt(2.0 * math.pi))


def _cauchy(x):
    return 1.0 / (math.pi * (x**2 + 1.0))


# Every function kind: (f(x, *params), default domain, default params).
KINDS = {
    "f1": (_f1, (0.0, 1.0), ()),
    "f2": (_f2, (0.0, 1.0), ()),
    "f3": (_f3, (0.0, 1.0), ()),
    "g1": (_gauss, (-5.0, 5.0), ()),
    "g2": (_lognormal, (0.01, 8.0), ()),
    "g3": (_cauchy, (-8.0, 8.0), ()),
    "exp": (lambda x, a, b: a * np.exp(b * x), (0.0, 1.0), (1.0, 1.0)),
    # a nonzero offset c raises the Schmidt rank of a*cos(b x) + c to 3,
    # losing single-layer exactness; the rank-2 default keeps c = 0
    "cos": (lambda x, a, b, c: a * np.cos(b * x) + c, (0.0, 1.0), (1.0, 6.0, 0.0)),
    "linear": (lambda x, a, b: a * x + b, (0.0, 1.0), (1.0, 0.1)),
}


@dataclass(frozen=True)
class TargetSpec:
    """What to prepare: a named function on a domain, or a special state."""

    kind: str
    n: int
    domain: tuple[float, float] | None = (0.0, 1.0)
    params: tuple[float, ...] = ()

    def label(self) -> str:
        if self.params:
            return f"{self.kind}({','.join(f'{p:g}' for p in self.params)})"
        return self.kind


def make_spec(kind: str, n: int, domain=None) -> TargetSpec:
    """The spec of ``kind`` with its default parameters: a function kind on
    ``domain`` (default: its own), a state kind with no domain."""
    kind = kind.lower()
    if kind not in KINDS and kind not in STATES:
        raise ValueError(f"unknown target kind {kind!r}; known: {', '.join([*KINDS, *STATES])}")
    if kind in STATES:
        return TargetSpec(kind=kind, n=n, domain=None)
    _, default_domain, params = KINDS[kind]
    dom = tuple(domain) if domain is not None else default_domain
    if dom[0] >= dom[1]:
        raise ValueError(f"empty domain {dom}")
    return TargetSpec(kind=kind, n=n, domain=dom, params=params)


def grid_points(spec: TargetSpec) -> np.ndarray:
    statevec._check_qubit_count(spec.n)
    lo, hi = spec.domain
    return np.linspace(lo, hi, 1 << spec.n)


def raw_samples(spec: TargetSpec) -> np.ndarray:
    """Unnormalized function values on the grid (function kinds only)."""
    if spec.kind not in KINDS:
        raise ValueError(f"{spec.kind} is not a function target")
    x = grid_points(spec)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = KINDS[spec.kind][0](x, *spec.params)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{spec.label()} is non-finite on {spec.domain}")
    return vals.astype(complex)


def ghz_state(n: int) -> StateVector:
    statevec._check_qubit_count(n)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = 1.0
    return statevec.from_amplitudes(amps)


def w_state(n: int) -> StateVector:
    statevec._check_qubit_count(n)
    amps = np.zeros(1 << n, dtype=complex)
    for i in range(n):
        amps[1 << i] = 1.0
    return statevec.from_amplitudes(amps)


STATES = {"ghz": ghz_state, "w": w_state}

# What ``--target`` accepts, in the words of its help and its error message.
TARGET_VALUES = f"{', '.join([*KINDS, *STATES])}, random, or an amplitude file (*.amps or a path with /)"


def discretize(spec: TargetSpec) -> StateVector:
    """Evaluate the spec into a unit-norm StateVector (deterministic)."""
    if spec.kind in STATES:
        return STATES[spec.kind](spec.n)
    vals = raw_samples(spec)
    if np.abs(vals).max() == 0.0:
        raise ValueError(f"{spec.label()} is identically zero on {spec.domain}")
    return statevec.from_amplitudes(vals)


def is_amplitude_file(name: str) -> bool:
    """Whether a ``--target`` value names an amplitude file: it ends in
    ``.amps`` or holds a slash."""
    return name.strip().endswith(".amps") or "/" in name


def load_amplitude_file(name: str, sizes, flag: str = "--n") -> tuple[str, StateVector, None]:
    """(label, state, None) of the amplitude file ``name``, read once; it
    must hold each of ``sizes`` qubits, or a ValueError names ``flag``."""
    name = name.strip()
    state = statevec.load_amplitudes(name)
    for n in sizes:
        if state.n != n:
            raise ValueError(f"{name} holds {state.n} qubits, {flag} was {n}")
    return f"rawfile:{name}", state, None


def resolve(name: str, n: int, seed: int, samples: int = 1) -> list[tuple[str, StateVector, tuple | None]]:
    """The (label, unit-norm state, domain) entries of one ``--target`` value.

    ``random``, in any case, is ``samples`` states drawn in order from one
    ``np.random.default_rng(seed)``, each labelled ``random``; this is the
    only code that loads ``numpy.random``. Any other value is one entry: an
    amplitude file (``is_amplitude_file``) must hold ``n`` qubits, and any
    other name is a kind of ``make_spec``. Only function kinds have a domain.
    """
    name = name.strip()
    if is_amplitude_file(name):
        return [load_amplitude_file(name, [n])]
    kind = name.lower()
    if kind == "random":
        rng = np.random.default_rng(seed)
        return [("random", statevec.random_state(n, rng), None) for _ in range(samples)]
    if kind not in KINDS and kind not in STATES:
        raise ValueError(f"unknown target {name!r}; known: {TARGET_VALUES}")
    spec = make_spec(kind, n)
    return [(spec.label(), discretize(spec), spec.domain)]


@dataclass(frozen=True)
class RankProfile:
    """Schmidt ranks across the n-1 bipartitions and their maximum."""

    bond_dims: tuple[int, ...]
    chi: int
    tol: float


def mps_rank(state: StateVector, tol: float = RANK_TOL) -> RankProfile:
    """Bond dimensions by counting singular values above tol * (largest)."""
    if not 0.0 < tol < math.inf:  # also rejects nan
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    dims = []
    for cut in range(state.n - 1):
        mat = state.amps.reshape(1 << (cut + 1), -1)
        sv = np.linalg.svd(mat, compute_uv=False)
        dims.append(int(np.sum(sv > tol * sv[0])))
    return RankProfile(bond_dims=tuple(dims), chi=max(dims) if dims else 1, tol=tol)


def _rank_of_samples(vals: np.ndarray, tol: float) -> int:
    """chi of unnormalized samples; all-zero samples raise ValueError."""
    return mps_rank(statevec.from_amplitudes(vals), tol).chi


@dataclass(frozen=True)
class RingBoundReport:
    chi_f: int
    chi_g: int
    chi_sum: int
    chi_diff: int | None
    chi_prod: int
    additive_ok: bool
    multiplicative_ok: bool
    details: dict = field(default_factory=dict)


def verify_ring_bounds(f: TargetSpec, g: TargetSpec, tol: float = RANK_TOL) -> RingBoundReport:
    """Check rank subadditivity / submultiplicativity of f and g on a shared
    grid, working on unnormalized samples. A difference that cancels to zero
    is reported as None rather than a bound violation."""
    if f.n != g.n or f.domain != g.domain:
        raise ValueError("ring bounds need matching n and domain")
    fs, gs = raw_samples(f), raw_samples(g)
    chi_f = _rank_of_samples(fs, tol)
    chi_g = _rank_of_samples(gs, tol)
    chi_sum = _rank_of_samples(fs + gs, tol)
    diff = fs - gs
    chi_diff = None if np.abs(diff).max() < 1e-14 else _rank_of_samples(diff, tol)
    chi_prod = _rank_of_samples(fs * gs, tol)
    additive = chi_sum <= chi_f + chi_g and (chi_diff is None or chi_diff <= chi_f + chi_g)
    multiplicative = chi_prod <= chi_f * chi_g
    return RingBoundReport(
        chi_f=chi_f,
        chi_g=chi_g,
        chi_sum=chi_sum,
        chi_diff=chi_diff,
        chi_prod=chi_prod,
        additive_ok=bool(additive),
        multiplicative_ok=bool(multiplicative),
        details={"f": f.label(), "g": g.label(), "n": f.n, "tol": tol},
    )

