"""Directed graphs on vertices 1..n and the structural predicates used by
controller synthesis and the ratio experiments.

Orientation convention, fixed once: adj[i][j] = 1 means there is an edge
from vertex j+1 to vertex i+1 (row = head, column = tail). All public
indices are 1-based; the 0-based adjacency array is an internal detail.

design_conditions is the stacked form of design_condition_applies: it
searches the pairs whose plant graph has one size n as (m, n, n) masks and
yields the results in input order; the lone search is it on a stack of one.
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
from .stacks import alone, in_stacks, stack


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
    # a bool mask is 0/1 by its type
    if m.dtype != np.bool_:
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


def sink_masks(graphs):
    """An (m, n) bool array whose row k marks the sinks of graphs[k], graphs
    of one size n: column v of a sink's adjacency, its edges v -> i, holds
    no edge but the self-loop."""
    edge = stack([g.adj for g in graphs]) != 0
    return edge.sum(axis=1) == edge.diagonal(axis1=1, axis2=2)


def sinks(g):
    """Vertices with no outgoing edge to a different vertex.

    A self-loop does not disqualify a vertex from being a sink.
    """
    return {int(v) + 1 for v in np.flatnonzero(sink_masks([g])[0])}


def isolated_nodes(g):
    """Vertices with no cross edge in either direction (self-loops ignored)."""
    cross = g.adj.astype(bool)
    np.fill_diagonal(cross, False)
    touched = cross.any(axis=0) | cross.any(axis=1)
    return {int(v) + 1 for v in np.flatnonzero(~touched)}


def _size_error(n_p, n_c):
    """The DimensionMismatchError of a design graph on n_c vertices against
    a plant graph on n_p, or None when the counts agree."""
    if n_p != n_c:
        return DimensionMismatchError(f"vertex counts differ: {n_p} vs {n_c}")
    return None


def _condition_group(pairs):
    """design_condition_applies of each (g_p, g_c) pair of one size n that
    has passed the size gate, or the MissingSelfLoopError it raises alone,
    searched as (m, n, n) stacks. Every member is searched, and then the
    self-loops of the whole stack are tested at once: a member whose g_c
    lacks one gets its error in place of its result."""
    n = pairs[0][0].n
    m = len(pairs)
    design = stack([g_c.adj for _, g_c in pairs])
    # Both masks are 0/1, so a > b means a = 1 and b = 0. edge[k, i, j] is
    # the edge i+1 -> j+1 of member k's g_p.
    edge = stack([g_p.adj for g_p, _ in pairs]).transpose(0, 2, 1)
    out = edge > design
    into = edge.astype(bool)
    vertices = np.arange(n)
    into[:, vertices, vertices] = False
    hits = (into & (out.sum(axis=2)[:, None, :] > out.transpose(0, 2, 1))).reshape(m, -1)
    # the first hit of each member, or 0 for none: entry 0 is on the
    # diagonal, which into has cleared
    first = hits.argmax(axis=1)
    results = [(False, None)] * m
    found = np.flatnonzero(first)
    if found.size:
        i, j = np.divmod(first[found], n)
        out[found, j, i] = False
        l = out[found, j].argmax(axis=1)
        for k, wi, wj, wl in zip(found.tolist(), i.tolist(), j.tolist(), l.tolist()):
            results[k] = (True, (wi + 1, wj + 1, wl + 1))
    loops = design.diagonal(axis1=1, axis2=2)
    for k, looped in enumerate(loops.all(axis=1).tolist()):
        if not looped:
            results[k] = MissingSelfLoopError(
                f"design graph lacks the self-loop at vertex {int(np.argmin(loops[k])) + 1}")
    return results


def design_conditions(pairs):
    """design_condition_applies of each (g_p, g_c) pair, yielded in input
    order. Pairs whose g_p has one size are searched as one stack
    (stacks.in_stacks); a pair's DimensionMismatchError or
    MissingSelfLoopError is raised at its turn."""
    return in_stacks(pairs, lambda pair: pair[0].n,
                     lambda pair: _size_error(pair[0].n, pair[1].n),
                     _condition_group, lambda pair: design_condition_applies(*pair))


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
    return alone((g_p, g_c), lambda pair: _size_error(pair[0].n, pair[1].n),
                 _condition_group)
