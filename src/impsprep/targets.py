"""Target amplitude vectors: the benchmark function/distribution catalog,
special entangled states, and Schmidt-rank (bond dimension) estimation.

Function targets are sampled at 2^n uniformly spaced points including both
endpoints, normalized directly as amplitudes (no square-root density
encoding). Default domains: f1-f3 on [0, 1], the Gaussian on [-5, 5], the
log-normal on [0.01, 8], the Cauchy on [-8, 8]; they are recorded in every
report since plotted infidelities depend on them.
"""
from __future__ import annotations

import json
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


_FUNCTIONS = {
    "f1": (_f1, (0.0, 1.0)),
    "f2": (_f2, (0.0, 1.0)),
    "f3": (_f3, (0.0, 1.0)),
    "g1": (_gauss, (-5.0, 5.0)),
    "g2": (_lognormal, (0.01, 8.0)),
    "g3": (_cauchy, (-8.0, 8.0)),
}

_DEFAULT_PARAMS = {
    "exp": (1.0, 1.0),
    # a nonzero offset c raises the Schmidt rank of a*cos(b x) + c to 3,
    # losing single-layer exactness; the rank-2 default keeps c = 0
    "cos": (1.0, 6.0, 0.0),
    "linear": (1.0, 0.1),
}

FUNCTION_KINDS = tuple(_FUNCTIONS) + ("exp", "cos", "linear")
STATE_KINDS = ("ghz", "w")
ALL_KINDS = FUNCTION_KINDS + STATE_KINDS + ("rawfile",)


@dataclass(frozen=True)
class TargetSpec:
    """What to prepare: a named function on a domain, a special state, or a
    raw amplitude file."""

    kind: str
    n: int
    domain: tuple[float, float] = (0.0, 1.0)
    params: tuple[float, ...] = ()
    path: str | None = None

    def label(self) -> str:
        if self.params:
            return f"{self.kind}({','.join(f'{p:g}' for p in self.params)})"
        return self.kind


def make_spec(kind: str, n: int, domain=None, params=None, path=None) -> TargetSpec:
    kind = kind.lower()
    if kind not in ALL_KINDS:
        raise ValueError(f"unknown target kind {kind!r}; known: {', '.join(ALL_KINDS)}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind in _FUNCTIONS:
        dom = tuple(domain) if domain is not None else _FUNCTIONS[kind][1]
    elif kind in _DEFAULT_PARAMS:
        dom = tuple(domain) if domain is not None else (0.0, 1.0)
    else:
        dom = (0.0, 1.0)
    if kind in ("exp", "cos", "linear"):
        pars = tuple(params) if params is not None else _DEFAULT_PARAMS[kind]
    else:
        pars = ()
    if dom[0] >= dom[1] and kind in FUNCTION_KINDS:
        raise ValueError(f"empty domain {dom}")
    if kind == "rawfile" and path is None:
        raise ValueError("rawfile target needs a path")
    return TargetSpec(kind=kind, n=n, domain=dom, params=pars, path=path)


def grid_points(spec: TargetSpec) -> np.ndarray:
    statevec._check_qubit_count(spec.n)
    lo, hi = spec.domain
    return np.linspace(lo, hi, 1 << spec.n)


def raw_samples(spec: TargetSpec) -> np.ndarray:
    """Unnormalized function values on the grid (function kinds only)."""
    x = grid_points(spec)
    if spec.kind in _FUNCTIONS:
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = _FUNCTIONS[spec.kind][0](x)
    elif spec.kind == "exp":
        a, b = spec.params
        vals = a * np.exp(b * x)
    elif spec.kind == "cos":
        a, b, c = spec.params
        vals = a * np.cos(b * x) + c
    elif spec.kind == "linear":
        a, b = spec.params
        vals = a * x + b
    else:
        raise ValueError(f"{spec.kind} is not a function target")
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


def discretize(spec: TargetSpec) -> StateVector:
    """Evaluate the spec into a unit-norm StateVector (deterministic)."""
    if spec.kind == "ghz":
        return ghz_state(spec.n)
    if spec.kind == "w":
        return w_state(spec.n)
    if spec.kind == "rawfile":
        state = statevec.load_amplitudes(spec.path)
        if state.n != spec.n:
            raise ValueError(f"{spec.path} holds {state.n} qubits, spec wants {spec.n}")
        return state
    vals = raw_samples(spec)
    if np.abs(vals).max() == 0.0:
        raise ValueError(f"{spec.label()} is identically zero on {spec.domain}")
    return statevec.from_amplitudes(vals)


@dataclass(frozen=True)
class RankProfile:
    """Schmidt ranks across the n-1 bipartitions and their maximum."""

    bond_dims: tuple[int, ...]
    chi: int
    tol: float


def mps_rank(state: StateVector, tol: float = RANK_TOL) -> RankProfile:
    """Bond dimensions by counting singular values above tol * (largest)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    dims = []
    for cut in range(state.n - 1):
        mat = state.amps.reshape(1 << (cut + 1), -1)
        sv = np.linalg.svd(mat, compute_uv=False)
        dims.append(int(np.sum(sv > tol * sv[0])))
    return RankProfile(bond_dims=tuple(dims), chi=max(dims) if dims else 1, tol=tol)


def _rank_of_samples(vals: np.ndarray, n: int, tol: float) -> int:
    norm = np.linalg.norm(vals)
    if norm == 0.0:
        raise ValueError("zero samples have no rank")
    state = statevec.from_amplitudes(vals)
    assert state.n == n
    return mps_rank(state, tol).chi


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
    chi_f = _rank_of_samples(fs, f.n, tol)
    chi_g = _rank_of_samples(gs, g.n, tol)
    chi_sum = _rank_of_samples(fs + gs, f.n, tol)
    diff = fs - gs
    chi_diff = None if np.abs(diff).max() < 1e-14 else _rank_of_samples(diff, f.n, tol)
    chi_prod = _rank_of_samples(fs * gs, f.n, tol)
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


def catalog(n: int) -> list[TargetSpec]:
    """The six benchmark functions plus the GHZ and W states at size n."""
    specs = [make_spec(kind, n) for kind in _FUNCTIONS]
    specs.append(make_spec("ghz", n))
    specs.append(make_spec("w", n))
    return specs


def catalog_json(n: int) -> str:
    return json.dumps(
        [
            {
                "kind": s.kind,
                "n": s.n,
                "domain": list(s.domain),
                "params": list(s.params),
            }
            for s in catalog(n)
        ],
        indent=2,
    )
