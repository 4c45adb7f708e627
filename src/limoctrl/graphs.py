"""Directed graphs on vertices 1..n and the structural predicates used by
controller synthesis and the ratio experiments.

Orientation convention, fixed once: adj[i][j] = 1 means there is an edge
from vertex j+1 to vertex i+1 (row = head, column = tail). All public
indices are 1-based; the 0-based adjacency array is an internal detail.
"""
from dataclasses import dataclass
import numbers

import numpy as np

from .errors import (
    DimensionMismatchError,
    MissingSelfLoopError,
    NonBinaryEntryError,
    NonSquareError,
)


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    n: int
    adj: np.ndarray

    def has_edge(self, frm, to):
        """True iff the edge frm -> to is present (1-based indices)."""
        return bool(self.adj[to - 1, frm - 1])

    def edges(self):
        """Sorted list of (frm, to) pairs, 1-based, self-loops included."""
        heads, tails = np.nonzero(self.adj)
        return sorted((int(j) + 1, int(i) + 1) for i, j in zip(heads, tails))

    def has_all_self_loops(self):
        return bool(np.all(np.diag(self.adj) == 1))


def from_adjacency(mask):
    """Build a graph from a 0/1 adjacency mask (adj[i][j]=1 iff edge j+1 -> i+1)."""
    m = np.asarray(mask)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise NonSquareError(f"adjacency mask must be square and nonempty, got shape {m.shape}")
    bad = (m != 0) & (m != 1)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonBinaryEntryError(
            f"adjacency entry ({i + 1},{j + 1}) is {m[i, j]!r}, expected 0 or 1")
    a = m.astype(np.int8)
    a.setflags(write=False)
    return DirectedGraph(n=int(a.shape[0]), adj=a)


def _non_integer_edge(frm, to):
    return DimensionMismatchError(
        f"edge ({frm!r},{to!r}): vertex indices must be integers")


def from_edge_list(n, edge_pairs):
    """Build a graph on n vertices from (frm, to) pairs of integers, 1-based."""
    mask = np.zeros((n, n), dtype=np.int8)
    for frm, to in edge_pairs:
        try:
            if not (1 <= frm <= n and 1 <= to <= n):
                raise DimensionMismatchError(
                    f"edge ({frm},{to}) outside vertex range 1..{n}")
            if frm is True or to is True:
                # True compares and indexes as 1; False fails the range check
                raise _non_integer_edge(frm, to)
            mask[to - 1, frm - 1] = 1
        except (TypeError, IndexError):
            # TypeError: a string or null vertex does not compare with n.
            # IndexError: in range, so one index is not an integer (1.5, or
            # even 2.0)
            raise _non_integer_edge(frm, to) from None
    return from_adjacency(mask)


def self_loops_only(n):
    return from_adjacency(np.eye(n, dtype=np.int8))


def complete_graph(n):
    return from_adjacency(np.ones((n, n), dtype=np.int8))


def graph_to_dict(g):
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}


def size_from_dict(d):
    """d["n"], which must be an integer: a float (2.7, or even 2.0), a
    boolean or a string is a DimensionMismatchError."""
    n = d["n"]
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DimensionMismatchError(f'"n" must be an integer, got {n!r}')
    return int(n)


def graph_from_dict(d):
    return from_edge_list(size_from_dict(d), d["edges"])


def _cross_edges(g):
    """The adjacency as a bool mask with its self-loops cleared."""
    cross = g.adj.astype(bool)
    np.fill_diagonal(cross, False)
    return cross


def sinks(g):
    """Vertices with no outgoing edge to a different vertex.

    A self-loop does not disqualify a vertex from being a sink.
    """
    has_out = _cross_edges(g).any(axis=0)
    return {int(v) + 1 for v in np.flatnonzero(~has_out)}


def isolated_nodes(g):
    """Vertices with no cross edge in either direction (self-loops ignored)."""
    cross = _cross_edges(g)
    touched = cross.any(axis=0) | cross.any(axis=1)
    return {int(v) + 1 for v in np.flatnonzero(~touched)}


def is_supergraph(g_big, g_small):
    """True iff every edge of g_small is also an edge of g_big."""
    if g_big.n != g_small.n:
        raise DimensionMismatchError(
            f"vertex counts differ: {g_big.n} vs {g_small.n}")
    return bool(np.all(g_big.adj >= g_small.adj))


@dataclass(frozen=True, eq=False)
class SinkPartition:
    """Adjacency mask permuted so that sinks come last.

    permutation lists the original 1-based vertices in their new order,
    non-sinks first, relative order preserved on both sides. c is the sink
    count. nonsink_block holds couplings among non-sinks, cross_block the
    couplings from non-sinks into sinks, sink_block the sink self-loops
    (always diagonal: sinks have no edges to other vertices).
    """
    permutation: tuple
    c: int
    nonsink_block: np.ndarray
    cross_block: np.ndarray
    sink_block: np.ndarray


def sink_partition(g):
    sink_set = sinks(g)
    order = [v for v in range(1, g.n + 1) if v not in sink_set]
    order += [v for v in range(1, g.n + 1) if v in sink_set]
    idx = np.array(order, dtype=int) - 1
    permuted = g.adj[np.ix_(idx, idx)]
    c = len(sink_set)
    k = g.n - c
    blocks = (permuted[:k, :k], permuted[k:, :k], permuted[k:, k:])
    for b in blocks:
        b.setflags(write=False)
    return SinkPartition(permutation=tuple(order), c=c,
                         nonsink_block=blocks[0],
                         cross_block=blocks[1],
                         sink_block=blocks[2])


def design_condition_applies(g_p, g_c):
    """Look for distinct vertices i, j, l with i -> j and j -> l in g_p while
    g_c lacks the edge l -> j.

    Returns (found, witness) where witness is the lexicographically first
    (i, j, l) triple as Python ints, or None. g_c must contain every
    self-loop; the first vertex without one is named in the error.

    The search is O(n^2) array work, not a scan of n^3 triples. Let
    into[i, j] be the cross edge i -> j of g_p (self-loops cleared) and
    out[j, l] = into[j, l] and not l -> j in g_c. The pair (i, j) has a
    witness iff into[i, j] holds and out[j] has an entry other than l = i;
    l = j cannot occur because g_c has every self-loop. The row-major first
    such pair and the smallest l != i in out[j] give the lexicographically
    first triple.
    """
    if g_p.n != g_c.n:
        raise DimensionMismatchError(
            f"vertex counts differ: {g_p.n} vs {g_c.n}")
    loops = g_c.adj.diagonal()
    if not loops.all():
        raise MissingSelfLoopError(
            f"design graph lacks the self-loop at vertex {int(np.argmin(loops)) + 1}")
    # Both masks are 0/1, so a > b means a = 1 and b = 0. edge[i, j] is
    # the edge i+1 -> j+1 of g_p.
    edge = g_p.adj.T
    out = edge > g_c.adj
    into = edge.astype(bool)
    np.fill_diagonal(into, False)
    hits = np.flatnonzero(into & (out.sum(axis=1) > out.T))
    if not hits.size:
        return False, None
    i, j = divmod(int(hits[0]), g_p.n)
    out[j, i] = False
    l = int(np.argmax(out[j]))
    return True, (i + 1, j + 1, l + 1)
