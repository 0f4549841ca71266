"""Network-routing linear programs (networkx-based).

The paper motivates LP solving with "routing, scheduling, and various
optimization problems".  This module builds routing LPs in the
package's standard form (max c'x, Ax <= b, x >= 0):

- :func:`max_flow_lp` — single-commodity maximum flow;
- :func:`multicommodity_routing_lp` — maximize concurrently routed
  demand for several commodities sharing edge capacities.

Flow conservation (an equality) is expressed as two opposing
inequalities, which matches how the PDIP solvers ingest problems.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.problem import LinearProgram

if TYPE_CHECKING:
    import networkx as nx


def _edge_index(graph: nx.DiGraph) -> dict[tuple, int]:
    return {edge: i for i, edge in enumerate(graph.edges())}


def max_flow_lp(
    graph: nx.DiGraph,
    source,
    sink,
    *,
    capacity: str = "capacity",
    conservation_slack: float = 0.05,
) -> tuple[LinearProgram, dict[tuple, int]]:
    """Maximum s-t flow as an LP.

    Variables are edge flows ``f_e >= 0``; the objective maximizes net
    flow leaving ``source``; constraints are edge capacities plus flow
    conservation (two inequalities per internal node).

    Parameters
    ----------
    graph:
        Directed graph; each edge needs a ``capacity`` attribute.
    source, sink:
        Terminal nodes.
    capacity:
        Edge-attribute name holding capacities.
    conservation_slack:
        Epsilon on each conservation inequality (``|in - out| <=
        slack`` instead of ``= 0``).  A strict equality pair leaves the
        feasible region without an interior point, which interior-point
        methods (and the analog solvers especially) cannot traverse;
        the epsilon restores a strict interior at the cost of a
        bounded conservation error per node.

    Returns
    -------
    (problem, edge_index)
        The LP and the mapping from edge to variable index, for
        recovering per-edge flows from a solution vector.
    """
    if source not in graph or sink not in graph:
        raise ValueError("source and sink must be nodes of the graph")
    if source == sink:
        raise ValueError("source and sink must differ")
    edges = _edge_index(graph)
    n = len(edges)
    if n == 0:
        raise ValueError("graph has no edges")

    internal = [v for v in graph.nodes() if v not in (source, sink)]
    m = n + 2 * len(internal)
    A = np.zeros((m, n))
    b = np.zeros(m)
    for edge, j in edges.items():
        cap = graph.edges[edge].get(capacity)
        if cap is None or cap < 0:
            raise ValueError(f"edge {edge} lacks a non-negative capacity")
        A[j, j] = 1.0
        b[j] = float(cap)
    for i, v in enumerate(internal):
        row_out = n + 2 * i
        row_in = n + 2 * i + 1
        for u_, v_ in graph.in_edges(v):
            A[row_out, edges[(u_, v_)]] += 1.0   # inflow
            A[row_in, edges[(u_, v_)]] -= 1.0
        for u_, v_ in graph.out_edges(v):
            A[row_out, edges[(u_, v_)]] -= 1.0   # outflow
            A[row_in, edges[(u_, v_)]] += 1.0
        b[row_out] = conservation_slack
        b[row_in] = conservation_slack
        # |inflow - outflow| <= slack.
    c = np.zeros(n)
    for u_, v_ in graph.out_edges(source):
        c[edges[(u_, v_)]] += 1.0
    for u_, v_ in graph.in_edges(source):
        c[edges[(u_, v_)]] -= 1.0
    problem = LinearProgram(
        c=c, A=A, b=b, name=f"maxflow-{source}-{sink}"
    )
    return problem, edges


def flow_value(
    solution: np.ndarray,
    edge_index: dict[tuple, int],
    graph: nx.DiGraph,
    source,
) -> float:
    """Net flow out of ``source`` for a solution vector."""
    value = 0.0
    for u_, v_ in graph.out_edges(source):
        value += solution[edge_index[(u_, v_)]]
    for u_, v_ in graph.in_edges(source):
        value -= solution[edge_index[(u_, v_)]]
    return float(value)


def multicommodity_routing_lp(
    graph: nx.DiGraph,
    demands: list[tuple],
    *,
    capacity: str = "capacity",
    conservation_slack: float = 0.05,
) -> tuple[LinearProgram, dict[tuple, int]]:
    """Maximum concurrent multicommodity flow as an LP.

    Each demand is ``(source, sink, weight)``; variables are per-
    commodity edge flows.  The objective maximizes the weighted sum of
    delivered flow; shared edge capacities couple the commodities.

    Returns
    -------
    (problem, variable_index)
        ``variable_index[(k, edge)]`` is the column of commodity k's
        flow on ``edge``.
    """
    if not demands:
        raise ValueError("need at least one demand")
    edges = _edge_index(graph)
    n_edges = len(edges)
    if n_edges == 0:
        raise ValueError("graph has no edges")
    n_k = len(demands)
    n = n_k * n_edges

    var = {
        (k, edge): k * n_edges + j
        for k in range(n_k)
        for edge, j in edges.items()
    }
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    # Shared capacities.
    for edge, j in edges.items():
        cap = graph.edges[edge].get(capacity)
        if cap is None or cap < 0:
            raise ValueError(f"edge {edge} lacks a non-negative capacity")
        row = np.zeros(n)
        for k in range(n_k):
            row[var[(k, edge)]] = 1.0
        rows.append(row)
        rhs.append(float(cap))
    # Per-commodity conservation at internal nodes.
    for k, (src, dst, _weight) in enumerate(demands):
        if src not in graph or dst not in graph:
            raise ValueError(f"demand {k} references unknown nodes")
        for v in graph.nodes():
            if v in (src, dst):
                continue
            balance = np.zeros(n)
            for u_, v_ in graph.in_edges(v):
                balance[var[(k, (u_, v_))]] += 1.0
            for u_, v_ in graph.out_edges(v):
                balance[var[(k, (u_, v_))]] -= 1.0
            if not np.any(balance):
                continue
            rows.append(balance)
            rhs.append(conservation_slack)
            rows.append(-balance)
            rhs.append(conservation_slack)
    c = np.zeros(n)
    for k, (src, _dst, weight) in enumerate(demands):
        for u_, v_ in graph.out_edges(src):
            c[var[(k, (u_, v_))]] += float(weight)
        for u_, v_ in graph.in_edges(src):
            c[var[(k, (u_, v_))]] -= float(weight)
    problem = LinearProgram(
        c=c,
        A=np.vstack(rows),
        b=np.asarray(rhs),
        name=f"multicommodity-{n_k}",
    )
    return problem, var


def random_routing_network(
    n_nodes: int,
    *,
    rng: np.random.Generator,
    edge_probability: float = 0.35,
    capacity_range: tuple[float, float] = (1.0, 10.0),
) -> nx.DiGraph:
    """A random connected-ish directed network with capacities."""
    # Imported here: the package re-exports this module, and no solve or
    # serve path needs networkx.
    import networkx as nx

    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n_nodes))
    lo, hi = capacity_range
    # A backbone path guarantees s-t connectivity.
    for v in range(n_nodes - 1):
        graph.add_edge(v, v + 1, capacity=float(rng.uniform(lo, hi)))
    for u in range(n_nodes):
        for v in range(n_nodes):
            if u != v and not graph.has_edge(u, v):
                if rng.random() < edge_probability:
                    graph.add_edge(
                        u, v, capacity=float(rng.uniform(lo, hi))
                    )
    return graph
