"""Directed-graph layer: constructors, queries, sinks, design condition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import limoctrl as lc
from limoctrl.verify import _design_condition_oracle as _condition_oracle


def test_from_adjacency_orientation():
    # adj[i][j] = 1 encodes the edge j+1 -> i+1.
    g = lc.from_adjacency([[1, 0], [1, 1]])
    assert g.n == 2
    assert g.has_edge(1, 1)
    assert g.has_edge(1, 2)
    assert g.has_edge(2, 2)
    assert not g.has_edge(2, 1)
    assert g.edges() == [(1, 1), (1, 2), (2, 2)]


def test_from_adjacency_rejects_non_square():
    with pytest.raises(lc.NonSquareError):
        lc.from_adjacency([[1, 0, 0], [0, 1, 0]])


def test_from_adjacency_rejects_empty():
    with pytest.raises(lc.NonSquareError, match="square and nonempty"):
        lc.from_adjacency(np.zeros((0, 0)))


def test_from_adjacency_rejects_non_binary():
    with pytest.raises(lc.NonBinaryEntryError) as exc:
        lc.from_adjacency([[1, 0.5], [0, 1]])
    assert "(1,2)" in str(exc.value)


def test_from_adjacency_copies_and_freezes():
    mask = np.eye(2, dtype=np.int8)
    g = lc.from_adjacency(mask)
    mask[0, 1] = 1
    assert not g.has_edge(2, 1)
    with pytest.raises(ValueError):
        g.adj[0, 1] = 1


def test_from_edge_list_round_trip():
    g = lc.from_edge_list(3, [(1, 2), (2, 3), (3, 3), (1, 1)])
    assert set(g.edges()) == {(1, 2), (2, 3), (3, 3), (1, 1)}
    again = lc.graph_from_dict(lc.graph_to_dict(g))
    assert again.n == g.n
    assert again.edges() == g.edges()


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(lc.DimensionMismatchError):
        lc.from_edge_list(2, [(1, 3)])
    with pytest.raises(lc.DimensionMismatchError):
        lc.from_edge_list(2, [(0, 1)])


# True compares and indexes as 1, so it passes the range check; a string
# or null vertex does not compare with an integer at all
@pytest.mark.parametrize("edge", [(1.5, 2), (2.0, 1), (1, np.float64(2.0)),
                                  (True, True), (2, True), ("1", 2),
                                  (None, 1)])
def test_from_edge_list_rejects_non_integer_vertex(edge):
    with pytest.raises(lc.DimensionMismatchError, match="must be integers"):
        lc.from_edge_list(2, [edge])
    with pytest.raises(lc.DimensionMismatchError):
        lc.graph_from_dict({"n": 2, "edges": [[1, 1], list(edge)]})


@pytest.mark.parametrize("n", [2.7, 2.0, True, "2", None])
def test_graph_from_dict_rejects_non_integer_size(n):
    with pytest.raises(lc.DimensionMismatchError, match='"n" must be an integer'):
        lc.graph_from_dict({"n": n, "edges": [[1, 2]]})
    assert lc.graph_from_dict({"n": np.int64(2), "edges": [[1, 2]]}).n == 2


def test_canned_graphs():
    assert lc.self_loops_only(3).edges() == [(1, 1), (2, 2), (3, 3)]
    assert len(lc.complete_graph(3).edges()) == 9
    assert lc.complete_graph(2).has_all_self_loops()
    assert not lc.from_edge_list(2, [(1, 1), (1, 2)]).has_all_self_loops()


def test_sinks_ignore_self_loops():
    g = lc.from_edge_list(3, [(1, 1), (2, 2), (3, 3), (1, 2)])
    # 1 reaches 2, so only 2 and 3 lack outgoing cross edges.
    assert lc.sinks(g) == {2, 3}
    assert lc.sinks(lc.complete_graph(3)) == set()
    assert lc.sinks(lc.self_loops_only(2)) == {1, 2}


def test_isolated_nodes():
    g = lc.from_edge_list(3, [(1, 2), (3, 3)])
    assert lc.isolated_nodes(g) == {3}
    assert lc.isolated_nodes(lc.complete_graph(3)) == set()
    assert lc.isolated_nodes(lc.self_loops_only(2)) == {1, 2}


def test_sinks_and_isolated_nodes_match_edge_list_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        g = lc.from_adjacency((rng.random((n, n)) < rng.uniform(0.0, 0.4)).astype(int))
        cross = [(frm, to) for frm, to in g.edges() if frm != to]
        tails = {frm for frm, _ in cross}
        touched = tails | {to for _, to in cross}
        assert lc.sinks(g) == set(range(1, n + 1)) - tails
        assert lc.isolated_nodes(g) == set(range(1, n + 1)) - touched


def test_design_condition_witness():
    chain = lc.from_edge_list(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)])
    found, witness = lc.design_condition_applies(chain, lc.self_loops_only(3))
    assert found
    assert witness == (1, 2, 3)


def test_design_condition_negative_cases():
    chain = lc.from_edge_list(3, [(1, 2), (2, 3)])
    found, witness = lc.design_condition_applies(chain, lc.complete_graph(3))
    assert not found and witness is None
    found, witness = lc.design_condition_applies(
        lc.self_loops_only(3), lc.self_loops_only(3))
    assert not found and witness is None


def test_design_condition_requires_self_loops():
    chain = lc.from_edge_list(3, [(1, 2), (2, 3)])
    partial = lc.from_edge_list(3, [(1, 1), (2, 2)])
    with pytest.raises(lc.MissingSelfLoopError, match="vertex 3"):
        lc.design_condition_applies(chain, partial)


def test_design_condition_dimension_mismatch():
    with pytest.raises(lc.DimensionMismatchError):
        lc.design_condition_applies(lc.complete_graph(2), lc.complete_graph(3))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1))
def test_design_condition_matches_oracle(bits_p, bits_c):
    n = 4
    mask_p = np.array(
        [[(bits_p >> (i * n + j)) & 1 for j in range(n)] for i in range(n)],
        dtype=bool)
    mask_c = np.array(
        [[(bits_c >> (i * n + j)) & 1 for j in range(n)] for i in range(n)],
        dtype=bool)
    np.fill_diagonal(mask_c, True)
    g_p = lc.from_adjacency(mask_p.astype(int))
    g_c = lc.from_adjacency(mask_c.astype(int))
    assert lc.design_condition_applies(g_p, g_c) == _condition_oracle(g_p, g_c)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 25 - 1))
def test_supergraph_and_round_trip_properties(n, bits):
    mask = np.array(
        [[(bits >> (i * n + j)) & 1 for j in range(n)] for i in range(n)])
    g = lc.from_adjacency(mask)
    assert lc.graph_from_dict(lc.graph_to_dict(g)).edges() == g.edges()


def test_design_condition_skips_pair_whose_only_completion_is_i():
    # (1, 2) comes first, but 2 -> 1 only closes the 2-cycle back to 1;
    # the first real witness starts at 3.
    g_p = lc.from_edge_list(3, [(1, 2), (2, 1), (3, 2)])
    assert lc.design_condition_applies(g_p, lc.self_loops_only(3)) == (True, (3, 2, 1))
    # Here l = i = 1 precedes the completion l = 3 of the same pair.
    g_p = lc.from_edge_list(3, [(1, 2), (2, 1), (2, 3)])
    assert lc.design_condition_applies(g_p, lc.self_loops_only(3)) == (True, (1, 2, 3))


def test_design_condition_two_cycle_has_no_witness():
    g_p = lc.from_edge_list(2, [(1, 2), (2, 1)])
    assert lc.design_condition_applies(g_p, lc.self_loops_only(2)) == (False, None)


def test_design_condition_witness_is_python_ints():
    chain = lc.from_edge_list(3, [(1, 2), (2, 3)])
    found, witness = lc.design_condition_applies(chain, lc.self_loops_only(3))
    assert found is True
    assert all(type(v) is int for v in witness)


def _random_pair(rng, n, density_p, density_c):
    mask_p = (rng.random((n, n)) < density_p).astype(np.int8)
    mask_c = (rng.random((n, n)) < density_c).astype(np.int8)
    np.fill_diagonal(mask_c, 1)
    return lc.from_adjacency(mask_p), lc.from_adjacency(mask_c)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7),
       st.sampled_from([0.1, 0.3, 0.5, 0.8, 1.0]),
       st.sampled_from([0.0, 0.2, 0.5, 0.9]),
       st.integers(0, 2 ** 32 - 1))
def test_design_condition_matches_oracle_across_sizes(n, density_p, density_c, seed):
    g_p, g_c = _random_pair(np.random.default_rng(seed), n, density_p, density_c)
    assert lc.design_condition_applies(g_p, g_c) == _condition_oracle(g_p, g_c)


def test_design_condition_matches_oracle_dense_n40():
    g_p, g_c = _random_pair(np.random.default_rng(40), 40, 0.6, 0.9)
    expected = _condition_oracle(g_p, g_c)
    assert expected[0]
    assert lc.design_condition_applies(g_p, g_c) == expected


def test_design_condition_symmetric_closure_n200_has_no_witness():
    # A sink-graph plant mask (self-loops, 20% cross edges, one fed sink)
    # against its symmetric closure: every l -> j is in g_c, so the scan
    # runs in full and finds nothing.
    rng = np.random.default_rng(200)
    n = 200
    mask = (rng.random((n, n)) < 0.2).astype(np.int8)
    np.fill_diagonal(mask, 1)
    v = int(rng.integers(n))
    mask[:, v] = 0
    mask[v, v] = 1
    mask[v, (v + 1) % n] = 1
    g_p = lc.from_adjacency(mask)
    g_c = lc.from_adjacency(mask | mask.T)
    assert lc.design_condition_applies(g_p, g_c) == (False, None)
