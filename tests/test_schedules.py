import math

import pytest

from impsprep import schedules
from impsprep.schedules import (
    Schedule,
    TopologyGraph,
    chain_schedule,
    fig6_schedule,
    graph_contraction_schedule,
    grid_schedule,
    hen_schedule,
    htn_schedule,
    topology_from_json,
    ttn_schedule,
)


def all_generators(n):
    return [chain_schedule(n), ttn_schedule(n), htn_schedule(n), hen_schedule(n)]


class TestChain:
    def test_six_qubits(self):
        s = chain_schedule(6)
        assert s.rounds == (((0, 1),), ((1, 2),), ((2, 3),), ((3, 4),), ((4, 5),))

    def test_two_qubits(self):
        assert chain_schedule(2).rounds == (((0, 1),),)

    def test_depth_eleven_at_twelve(self):
        assert chain_schedule(12).u_depth == 11

    def test_too_small(self):
        with pytest.raises(ValueError):
            chain_schedule(1)


class TestTtn:
    def test_eight_qubits(self):
        s = ttn_schedule(8)
        assert s.rounds == (
            ((0, 1), (2, 3), (4, 5), (6, 7)),
            ((1, 3), (5, 7)),
            ((3, 7),),
        )

    def test_two_qubits(self):
        assert ttn_schedule(2).rounds == (((0, 1),),)

    def test_five_qubits_stride_rule_with_gaps(self):
        s = ttn_schedule(5)
        assert s.rounds == (((0, 1), (2, 3)), ((1, 3),), ((3, 4),))

    def test_higher_index_survives(self):
        for n in range(2, 20):
            s = ttn_schedule(n)
            for rnd in s.rounds:
                for a, b in rnd:
                    assert b > a
            assert s.survivor() == n - 1


class TestHtn:
    def test_eight_qubits_three_rounds_of_four(self):
        s = htn_schedule(8)
        assert len(s.rounds) == 3
        assert all(len(r) == 4 for r in s.rounds)
        assert s.step_count() == 12
        assert ttn_schedule(8).step_count() == 7
        # lowest binary digit clears first, highest last
        assert s.rounds[0] == ((1, 0), (3, 2), (5, 4), (7, 6))
        assert s.rounds[2] == ((4, 0), (5, 1), (6, 2), (7, 3))

    def test_every_pair_clears_one_bit(self):
        for n in (3, 5, 8, 13, 16):
            for rnd in htn_schedule(n).rounds:
                for a, b in rnd:
                    diff = a ^ b
                    assert diff & (diff - 1) == 0  # power of two
                    assert b == a - diff  # weight flows to the cleared index

    def test_six_qubits_omits_out_of_range_vertices(self):
        s = htn_schedule(6)
        for rnd in s.rounds:
            for a, b in rnd:
                assert a < 6 and b < 6
        assert s.step_count() == 7

    def test_two_qubits_single_pair(self):
        assert htn_schedule(2).rounds == (((1, 0),),)

    def test_survivor_is_zero(self):
        for n in range(2, 33):
            assert htn_schedule(n).survivor() == 0


class TestHen:
    def test_two_qubits_identical_to_chain(self):
        assert hen_schedule(2).rounds == chain_schedule(2).rounds

    def test_six_qubits_depth_and_density(self):
        s = hen_schedule(6)
        assert s.u_depth == 5
        assert s.step_count() > chain_schedule(6).step_count()

    def test_depth_matches_chain_at_twelve(self):
        assert hen_schedule(12).u_depth == 11

    def test_contains_the_chain_gate_each_round(self):
        for n in (3, 6, 9):
            s = hen_schedule(n)
            for t, rnd in enumerate(s.rounds):
                assert (t, t + 1) in rnd

    def test_pairs_are_nearest_neighbour(self):
        for rnd in hen_schedule(9).rounds:
            for a, b in rnd:
                assert b == a + 1


class TestGrid:
    @staticmethod
    def assert_grid_adjacent(sched, rows, cols):
        for rnd in sched.rounds:
            for a, b in rnd:
                ra, ca = divmod(a, cols)
                rb, cb = divmod(b, cols)
                assert abs(ra - rb) + abs(ca - cb) == 1

    def test_three_by_four(self):
        s = grid_schedule(3, 4)
        assert s.u_depth <= 7
        self.assert_grid_adjacent(s, 3, 4)

    def test_line_grid_reduces_to_bidirectional_chain(self):
        for n in (2, 5, 8, 12):
            s = grid_schedule(1, n)
            self.assert_grid_adjacent(s, 1, n)
            assert s.u_depth <= math.ceil((n - 1) / 2) + 1

    @pytest.mark.parametrize("rows,cols,rounds", [
        (2, 2, (((0, 1), (2, 3)), ((1, 3),))),
        # rows contract (fewer rows), then the middle row from both ends
        (3, 4, (((0, 4), (1, 5), (2, 6), (3, 7)), ((4, 8), (5, 9), (6, 10), (7, 11)),
                ((8, 9), (11, 10)), ((9, 10),))),
        # columns contract (fewer columns), then the last column
        (4, 3, (((0, 1), (3, 4), (6, 7), (9, 10)), ((1, 2), (4, 5), (7, 8), (10, 11)),
                ((2, 5), (11, 8)), ((5, 8),))),
        (1, 7, (((0, 1), (6, 5)), ((1, 2), (5, 4)), ((2, 3),), ((3, 4),))),
        (7, 1, (((0, 1), (6, 5)), ((1, 2), (5, 4)), ((2, 3),), ((3, 4),))),
        # an odd line count: both outer columns move in, then the lower one alone
        (5, 5, (((0, 1), (5, 6), (10, 11), (15, 16), (20, 21), (4, 3), (9, 8), (14, 13), (19, 18), (24, 23)),
                ((1, 2), (6, 7), (11, 12), (16, 17), (21, 22)), ((2, 3), (7, 8), (12, 13), (17, 18), (22, 23)),
                ((3, 8), (23, 18)), ((8, 13),), ((13, 18),))),
        (2, 6, (((0, 6), (1, 7), (2, 8), (3, 9), (4, 10), (5, 11)), ((6, 7), (11, 10)), ((7, 8), (10, 9)),
                ((8, 9),))),
    ], ids=["2x2", "3x4", "4x3", "1x7", "7x1", "5x5", "2x6"])
    def test_exact_rounds(self, rows, cols, rounds):
        s = grid_schedule(rows, cols)
        assert s.rounds == rounds
        assert s.scheme == f"grid{rows}x{cols}"

    @pytest.mark.parametrize("rows,cols", [(1, 1), (0, 4), (4, 0), (-1, 4), (-2, -3)])
    def test_degenerate_rejected(self, rows, cols):
        with pytest.raises(ValueError, match="degenerate grid"):
            grid_schedule(rows, cols)

    @pytest.mark.parametrize("rows,cols", [(2, 3), (3, 3), (4, 5), (5, 2), (1, 7), (1, 8), (2, 2), (3, 4),
                                           (4, 4), (5, 3)])
    def test_depth_bound(self, rows, cols):
        s = grid_schedule(rows, cols)
        self.assert_grid_adjacent(s, rows, cols)
        assert s.u_depth <= math.ceil(rows / 2) + math.ceil(cols / 2) + 2


class TestFig6:
    def test_first_round_transcription(self):
        s = fig6_schedule()
        assert s.rounds[0] == ((0, 1), (2, 3), (4, 8), (5, 9), (6, 10), (7, 11))

    def test_depth_five_per_layer(self):
        assert fig6_schedule().u_depth == 5

    def test_disjoint_and_grid_adjacent(self):
        s = fig6_schedule()
        TestGrid.assert_grid_adjacent(s, 3, 4)

    def test_sources_repeat_but_survivor_unique(self):
        s = fig6_schedule()
        assert len(s.sources()) > len(set(s.sources()))
        assert s.survivor() == 11


class TestGraphContraction:
    def test_path_graph_two_rounds(self):
        g = TopologyGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        s = graph_contraction_schedule(g)
        assert s.u_depth == 2

    def test_complete_graph_two_rounds(self):
        g = TopologyGraph.from_edge_list(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert graph_contraction_schedule(g).u_depth == 2

    def test_star_graph_one_edge_per_round(self):
        g = TopologyGraph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        s = graph_contraction_schedule(g)
        assert s.u_depth == 3
        assert all(len(r) == 1 for r in s.rounds)
        # leaves die into the lower-degree rule's higher-degree center
        assert s.survivor() == 0

    def test_pairs_live_in_contracted_graph(self):
        g = TopologyGraph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        s = graph_contraction_schedule(g)
        # replay the contraction: every pair must be an edge of the current graph
        adj = {v: set(g.neighbors(v)) for v in range(5)}
        for rnd in s.rounds:
            for src, dst in rnd:
                assert dst in adj[src]
            for src, dst in rnd:
                for w in adj.pop(src):
                    adj[w].discard(src)
                    if w != dst:
                        adj[w].add(dst)
                        adj[dst].add(w)
        assert len(adj) == 1

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            TopologyGraph.from_edge_list(4, [(0, 1), (2, 3)])


class TestScheduleInvariants:
    @pytest.mark.parametrize("n", list(range(2, 65)))
    def test_structure_up_to_sixty_four(self, n):
        log_depth = math.ceil(math.log2(n))
        for s in all_generators(n):
            assert len(set(s.sources())) == n - 1
        assert ttn_schedule(n).u_depth == log_depth
        assert htn_schedule(n).u_depth == log_depth
        assert chain_schedule(n).u_depth == n - 1
        assert hen_schedule(n).u_depth == n - 1
        assert hen_schedule(n).step_count() >= chain_schedule(n).step_count()

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 33])
    def test_chain_and_ttn_sources_unique(self, n):
        for s in (chain_schedule(n), ttn_schedule(n)):
            src = s.sources()
            assert len(src) == len(set(src)) == n - 1

    def test_survivor_shrinks_by_live_pair_count(self):
        # chain/ttn: each round kills exactly its pair count of fresh qubits
        for n in (5, 8, 12):
            for s in (chain_schedule(n), ttn_schedule(n)):
                alive = set(range(n))
                for rnd in s.rounds:
                    before = len(alive)
                    alive -= {a for a, _ in rnd}
                    assert before - len(alive) == len(rnd)

    def test_overlapping_round_rejected(self):
        with pytest.raises(ValueError, match=r"^round 0: qubit 1 used twice \(pairs overlap\)$"):
            Schedule(n=3, rounds=(((0, 1), (1, 2)),), scheme="bad")

    @pytest.mark.parametrize("rounds,message", [
        ((((1, 1),),), "round 0: degenerate pair (1, 1)"),
        ((((0, 1),), ((2, 3),)), "round 1: qubit 3 out of range"),
        ((((-1, 1),),), "round 0: qubit -1 out of range"),
    ])
    def test_bad_pair_named(self, rounds, message):
        with pytest.raises(ValueError) as exc:
            Schedule(n=3, rounds=rounds, scheme="bad")
        assert str(exc.value) == message

    def test_empty_round_rejected(self):
        with pytest.raises(ValueError, match="^round 0 is empty$"):
            Schedule(n=3, rounds=((), ((0, 1),)), scheme="bad")


class TestSerialization:
    def test_topology_json(self):
        g = topology_from_json('{"n": 3, "edges": [[0, 1], [1, 2]]}')
        assert g.n == 3
        assert graph_contraction_schedule(g).step_count() == 2
