"""Disentangling schedules: chain, tree, hypercube, slot-filled chain, grid,
the fixed 12-qubit grid scheme, and a generic graph-contraction scheduler.

A schedule is an ordered list of rounds; each round is a tuple of directed
pairs ``(a, b)`` meaning "qubit a is disentangled, weight flows to b".
Pairs within a round are disjoint, so one round costs one U-depth.
``topology_from_json`` reads the coupling graph of the graph scheme.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

Pair = tuple[int, int]
Round = tuple[Pair, ...]


@dataclass(frozen=True)
class Schedule:
    n: int
    rounds: tuple[Round, ...]
    scheme: str

    @property
    def u_depth(self) -> int:
        return len(self.rounds)

    def step_count(self) -> int:
        return sum(len(r) for r in self.rounds)

    def sources(self) -> list[int]:
        return [a for rnd in self.rounds for a, _ in rnd]

    def survivor(self) -> int:
        """The unique qubit that is never disentangled."""
        alive = set(range(self.n)) - set(self.sources())
        if len(alive) != 1:
            raise ValueError(f"schedule does not single out one survivor: {sorted(alive)}")
        return alive.pop()

    def validate(self) -> None:
        for i, rnd in enumerate(self.rounds):
            if not rnd:
                raise ValueError(f"round {i} is empty")
            seen: set[int] = set()
            for a, b in rnd:
                if a == b:
                    raise ValueError(f"round {i}: degenerate pair ({a}, {b})")
                for q in (a, b):
                    if not 0 <= q < self.n:
                        raise ValueError(f"round {i}: qubit {q} out of range")
                    if q in seen:
                        raise ValueError(f"round {i}: qubit {q} used twice (pairs overlap)")
                    seen.add(q)
        self.survivor()


@dataclass(frozen=True)
class TopologyGraph:
    """Simple connected graph of hardware couplings."""

    n: int
    edges: frozenset[frozenset[int]] = field(repr=False)

    @staticmethod
    def from_edge_list(n: int, edges) -> "TopologyGraph":
        if not _is_int(n):
            raise ValueError(f"n must be an integer, got {n!r}")
        if not isinstance(edges, (list, tuple)):
            raise ValueError(f"edges must be a list of [u, v] pairs, got {edges!r}")
        es = set()
        for edge in edges:
            if not (isinstance(edge, (list, tuple)) and len(edge) == 2 and all(map(_is_int, edge))):
                raise ValueError(f"edge {edge!r} is not a pair of integers")
            u, v = edge
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n = {n}")
            es.add(frozenset((u, v)))
        g = TopologyGraph(n=n, edges=frozenset(es))
        g.require_connected()
        return g

    def neighbors(self, v: int) -> set[int]:
        return {w for e in self.edges for w in e if v in e} - {v}

    def require_connected(self) -> None:
        if self.n == 0:
            raise ValueError("empty graph")
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) != self.n:
            raise ValueError("graph is not connected")


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _require_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"need at least 2 qubits, got {n}")


def chain_schedule(n: int) -> Schedule:
    """Sequential nearest-neighbour sweep: rounds (0->1), (1->2), ..., U-depth n-1."""
    _require_n(n)
    rounds = tuple((((i, i + 1),)) for i in range(n - 1))
    return Schedule(n=n, rounds=rounds, scheme="chain")


def ttn_schedule(n: int) -> Schedule:
    """Binary-tree merge: adjacent live qubits pair up each round, the higher
    index survives, an odd qubit waits for the next round. U-depth ceil(log2 n)."""
    _require_n(n)
    rounds: list[Round] = []
    live = list(range(n))
    while len(live) > 1:
        rnd = tuple((live[i], live[i + 1]) for i in range(0, len(live) - 1, 2))
        rounds.append(rnd)
        survivors = [live[i + 1] for i in range(0, len(live) - 1, 2)]
        if len(live) % 2 == 1:
            survivors.append(live[-1])
        live = sorted(survivors)
    return Schedule(n=n, rounds=tuple(rounds), scheme="ttn")


def htn_schedule(n: int) -> Schedule:
    """Hypercube scheme: round k clears binary digit k on *every* index that
    has it set, lowest digit first; pairs with an endpoint >= n are omitted.

    Denser than the tree (indices with several set bits are re-disentangled
    each time a digit clears) at the same U-depth ceil(log2 n); after each
    round the survivors are the even multiples of 2^(k+1), a contiguous
    sub-hypercube under reindexing.
    """
    _require_n(n)
    bits = (n - 1).bit_length()
    rounds: list[Round] = []
    for k in range(bits):
        rnd = tuple(
            (x, x ^ (1 << k))
            for x in range(n)
            if x & (1 << k) and (x ^ (1 << k)) < n
        )
        if rnd:
            rounds.append(rnd)
    return Schedule(n=n, rounds=tuple(rounds), scheme="htn")


def hen_schedule(n: int) -> Schedule:
    """Chain schedule with idle slots filled: round t carries the chain gate
    (t -> t+1) plus every disjoint nearest-neighbour pair above it at the same
    parity. U-depth stays n-1; the extra gates re-squeeze residual weight."""
    _require_n(n)
    rounds: list[Round] = []
    for t in range(n - 1):
        rnd = tuple((i, i + 1) for i in range(t, n - 1, 2))
        rounds.append(rnd)
    return Schedule(n=n, rounds=tuple(rounds), scheme="hen")


# The schemes fixed by n alone, by name.
SCHEMES = {"chain": chain_schedule, "ttn": ttn_schedule, "htn": htn_schedule, "hen": hen_schedule}


def grid_schedule(rows: int, cols: int) -> Schedule:
    """Bidirectional contraction of a rows x cols grid (qubit = r*cols + c).

    Outer lines contract pairwise into their inner neighbours until one line
    remains, then that line contracts from both ends. All pairs are
    grid-adjacent; U-depth is about (rows + cols) / 2.
    """
    n = rows * cols
    if rows < 1 or cols < 1 or n < 2:
        raise ValueError(f"degenerate grid {rows} x {cols}")

    def qubit(r: int, c: int) -> int:
        return r * cols + c

    rounds: list[Round] = []
    # Phase 1: contract whichever dimension has fewer lines (ties: columns),
    # outer lines moving inward; with three live lines the lower one goes first.
    if rows < cols:
        line_of = lambda idx, pos: qubit(idx, pos)  # noqa: E731 - tiny adapters
        n_lines, line_len = rows, cols
    else:
        line_of = lambda idx, pos: qubit(pos, idx)  # noqa: E731
        n_lines, line_len = cols, rows
    lo, hi = 0, n_lines - 1
    while hi > lo:
        if hi - lo == 1:
            rounds.append(tuple((line_of(lo, p), line_of(hi, p)) for p in range(line_len)))
            lo = hi
        elif hi - lo == 2:
            rounds.append(tuple((line_of(lo, p), line_of(lo + 1, p)) for p in range(line_len)))
            lo += 1
        else:
            rnd = [(line_of(lo, p), line_of(lo + 1, p)) for p in range(line_len)]
            rnd += [(line_of(hi, p), line_of(hi - 1, p)) for p in range(line_len)]
            rounds.append(tuple(rnd))
            lo += 1
            hi -= 1
    # Phase 2: the surviving line contracts from both ends toward the middle;
    # when the ends would collide the lower end moves first.
    line = [line_of(lo, p) for p in range(line_len)]
    a, b = 0, len(line) - 1
    while b > a:
        if b - a >= 3:
            rounds.append(((line[a], line[a + 1]), (line[b], line[b - 1])))
            a += 1
            b -= 1
        else:
            rounds.append(((line[a], line[a + 1]),))
            a += 1
    return Schedule(n=n, rounds=tuple(rounds), scheme=f"grid{rows}x{cols}")


def fig6_schedule() -> Schedule:
    """The fixed 5-round scheme for a 3 x 4 grid chip; sources repeat across
    rounds (the scheme is cyclic over layers), so U-depth is 5 per layer."""
    r1: Round = ((0, 1), (2, 3), (4, 8), (5, 9), (6, 10), (7, 11))
    r2: Round = ((0, 4), (1, 5), (2, 6), (3, 7), (8, 9), (10, 11))
    r3: Round = ((0, 1), (2, 3), (4, 8), (5, 6), (9, 10), (7, 11))
    r4: Round = ((0, 4), (1, 5), (8, 9), (2, 3), (6, 7), (10, 11))
    return Schedule(n=12, rounds=(r1, r2, r3, r4, r1), scheme="fig6")


def graph_contraction_schedule(g: TopologyGraph) -> Schedule:
    """Contract a connected coupling graph to a single vertex.

    Each round is a greedy maximal matching of the current contracted graph;
    a matched edge disentangles its lower-degree endpoint into the other
    (degree ties: the lower index survives). Contracting merges the dead
    vertex's edges into the survivor.
    """
    g.require_connected()
    if g.n < 2:
        raise ValueError("need at least 2 vertices")
    adj: dict[int, set[int]] = {v: g.neighbors(v) for v in range(g.n)}
    rounds: list[Round] = []
    while len(adj) > 1:
        matched: set[int] = set()
        rnd: list[Pair] = []
        for u in sorted(adj):
            if u in matched:
                continue
            cands = [v for v in sorted(adj[u]) if v not in matched]
            if not cands:
                continue
            v = cands[0]
            matched.update((u, v))
            du, dv = len(adj[u]), len(adj[v])
            if du < dv:
                src, dst = u, v
            elif dv < du:
                src, dst = v, u
            else:
                src, dst = max(u, v), min(u, v)
            rnd.append((src, dst))
        if not rnd:
            raise ValueError("no matching found in a connected graph (bug)")
        rounds.append(tuple(rnd))
        for src, dst in rnd:
            for w in adj.pop(src):
                adj[w].discard(src)
                if w != dst:
                    adj[w].add(dst)
                    adj[dst].add(w)
    return Schedule(n=g.n, rounds=tuple(rounds), scheme="graph")


def topology_from_json(text: str) -> TopologyGraph:
    payload = json.loads(text)
    for key in ("n", "edges"):
        if not isinstance(payload, dict) or key not in payload:
            raise ValueError(f"topology JSON has no {key!r} key")
    return TopologyGraph.from_edge_list(payload["n"], payload["edges"])
