"""Bipartite BS-user topology graph built from correlation traces.

A cross link (k, n) exists when the serving-link path gain is within a
factor theta of the cross-link gain: trace(C[k, serving]) < theta *
trace(C[k, n]). Such users must be protected from BS n's transmissions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class TopologyGraph:
    num_bs: int
    num_users: int
    serving: dict  # user -> serving bs
    edges: frozenset  # (user, bs) pairs
    assoc_users: dict  # bs -> tuple of associated users
    neighbor_users: dict  # bs -> tuple of non-associated users with an edge
    neighbor_bs: dict  # user -> tuple of non-serving BSs with an edge
    theta: float


def build_topology(corr_set, theta):
    """Build the graph at linear threshold theta > 1; serving edges always present."""
    if theta <= 1:
        raise ParameterError(f"theta must exceed 1 (linear scale), got {theta}")
    serving = dict(corr_set.serving)
    edges = set()
    for k in range(corr_set.num_users):
        bk = serving[k]
        edges.add((k, bk))
        serve_trace = corr_set.matrix(k, bk).trace()
        for n in range(corr_set.num_bs):
            if n == bk:
                continue
            if serve_trace < theta * corr_set.matrix(k, n).trace():
                edges.add((k, n))
    assoc = {
        n: tuple(sorted(k for k in range(corr_set.num_users) if serving[k] == n))
        for n in range(corr_set.num_bs)
    }
    neigh_users = {
        n: tuple(sorted(k for (k, b) in edges if b == n and serving[k] != n))
        for n in range(corr_set.num_bs)
    }
    neigh_bs = {
        k: tuple(sorted(n for (u, n) in edges if u == k and serving[k] != n))
        for k in range(corr_set.num_users)
    }
    return TopologyGraph(
        num_bs=corr_set.num_bs,
        num_users=corr_set.num_users,
        serving=serving,
        edges=frozenset(edges),
        assoc_users=assoc,
        neighbor_users=neigh_users,
        neighbor_bs=neigh_bs,
        theta=float(theta),
    )


def scheduled_neighbors(graph, selected):
    """Per BS, the selected users that are neighbors (the nulling targets)."""
    selected = set(selected)
    for k in selected:
        if not (0 <= k < graph.num_users):
            raise ParameterError(f"unknown user index {k}")
    return {
        n: tuple(sorted(selected.intersection(graph.neighbor_users[n])))
        for n in range(graph.num_bs)
    }


def served_and_blocked(graph, selected):
    """Every BS n's (S_n, B_n), indexed by n: the selected users it serves,
    in index order, and the selected users that neighbor it (its nulling
    targets)."""
    selected = set(selected)
    blocked = scheduled_neighbors(graph, selected)
    return [(tuple(k for k in graph.assoc_users[n] if k in selected), blocked[n])
            for n in range(graph.num_bs)]


def theta_from_db(theta_db):
    return float(10.0 ** (theta_db / 10.0))
