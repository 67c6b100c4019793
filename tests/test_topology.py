import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermimo.errors import ParameterError
from hiermimo.topology import (
    build_topology,
    served_and_blocked,
    theta_from_db,
)

from conftest import diag_corr, link_set, trace_table_set

# Two cells, five users, traces arranged so the cross links are exactly
# users 1,2,3 (0-indexed): the classic two-cell example graph.
FIG_TRACES = [
    [10.0, 0.5],  # user 0 served by BS 0, weak cross link
    [10.0, 2.0],  # user 1 served by BS 0, cross edge to BS 1
    [5.0, 10.0],  # user 2 served by BS 1, cross edge to BS 0
    [1.5, 10.0],  # user 3 served by BS 1, cross edge to BS 0
    [0.9, 10.0],  # user 4 served by BS 1, no cross edge at theta=10
]
FIG_SERVING = [0, 0, 1, 1, 1]


@pytest.fixture()
def fig_graph():
    cs = trace_table_set(4, FIG_TRACES, FIG_SERVING)
    return build_topology(cs, 10.0)


def test_two_cell_example_edge_set(fig_graph):
    expected = {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 1)}
    assert set(fig_graph.edges) == expected
    assert fig_graph.assoc_users == {0: (0, 1), 1: (2, 3, 4)}
    assert fig_graph.neighbor_users == {0: (2, 3), 1: (1,)}
    assert fig_graph.neighbor_bs[1] == (1,)
    assert fig_graph.neighbor_bs[2] == (0,)


def test_two_cell_example_served_and_blocked(fig_graph):
    # each BS's selected users S_n, in index order, beside its blocked set
    assert served_and_blocked(fig_graph, (4, 1, 2, 0)) == [((0, 1), (2,)), ((2, 4), (1,))]
    assert served_and_blocked(fig_graph, [3]) == [((), (3,)), ((3,), ())]


def test_two_cell_example_scheduled_neighbors(fig_graph):
    sbar = [blocked for _, blocked in served_and_blocked(fig_graph, {0, 1, 2, 4})]
    assert sbar[0] == (2,)
    assert sbar[1] == (1,)


def test_scheduled_neighbors_edge_cases(fig_graph):
    empty = served_and_blocked(fig_graph, set())
    assert empty == [((), ()), ((), ())]
    full = served_and_blocked(fig_graph, set(range(5)))
    assert full == [(fig_graph.assoc_users[n], fig_graph.neighbor_users[n]) for n in range(2)]
    with pytest.raises(ParameterError):
        served_and_blocked(fig_graph, {99})


@st.composite
def selections(draw):
    """A random topology from random traces and theta, and a selection drawn
    as a list: unordered, with repeats, and sometimes one unknown index."""
    num_bs = draw(st.integers(1, 4))
    num_users = draw(st.integers(1, 9))
    traces = draw(st.lists(st.lists(st.floats(0.1, 10.0), min_size=num_bs, max_size=num_bs),
                           min_size=num_users, max_size=num_users))
    serving = [int(np.argmax(row)) for row in traces]
    graph = build_topology(trace_table_set(2, traces, serving), draw(st.sampled_from([2.0, 10.0, 1e3])))
    selected = draw(st.lists(st.integers(0, num_users - 1), max_size=2 * num_users))
    unknown = draw(st.none() | st.sampled_from([-1, num_users, num_users + 7]))
    if unknown is not None:
        selected.insert(draw(st.integers(0, len(selected))), unknown)
    return graph, selected, unknown


@settings(max_examples=200, deadline=None)
@given(selections())
def test_served_and_blocked_is_the_per_bs_split(case):
    graph, selected, unknown = case
    if unknown is not None:
        with pytest.raises(ParameterError, match=f"unknown user index {unknown}$"):
            served_and_blocked(graph, selected)
        return
    chosen = set(selected)
    split = served_and_blocked(graph, selected)
    assert split == [(tuple(k for k in graph.assoc_users[n] if k in chosen),
                      tuple(k for k in graph.neighbor_users[n] if k in chosen))
                     for n in range(graph.num_bs)]
    assert split == served_and_blocked(graph, sorted(chosen))


def test_single_bs_has_no_neighbors():
    cs = trace_table_set(4, [[3.0], [1.0], [0.2]], [0, 0, 0])
    g = build_topology(cs, 10.0)
    assert set(g.edges) == {(0, 0), (1, 0), (2, 0)}
    assert g.neighbor_users == {0: ()}


def test_threshold_inequality_direct():
    cs = trace_table_set(4, [[10.0, 2.0]], [0])
    assert (0, 1) in build_topology(cs, 10.0).edges  # 10 < 10*2
    cs2 = trace_table_set(4, [[10.0, 0.5]], [0])
    assert (0, 1) not in build_topology(cs2, 10.0).edges  # 10 >= 10*0.5


def test_theta_must_exceed_one():
    cs = trace_table_set(4, [[1.0, 1.0]], [0])
    with pytest.raises(ParameterError):
        build_topology(cs, 1.0)


def test_monotone_in_theta():
    rng = np.random.default_rng(0)
    for _ in range(20):
        traces = rng.uniform(0.1, 10.0, size=(6, 3))
        serving = np.argmax(traces, axis=1)
        cs = trace_table_set(4, traces.tolist(), serving.tolist())
        small = build_topology(cs, 2.0)
        large = build_topology(cs, 8.0)
        assert set(small.edges) <= set(large.edges)


def test_neighbor_lists_reconstruct_from_edges(fig_graph):
    g = fig_graph
    for n in range(g.num_bs):
        rebuilt = tuple(sorted(k for (k, b) in g.edges if b == n and g.serving[k] != n))
        assert rebuilt == g.neighbor_users[n]
    for k in range(g.num_users):
        rebuilt = tuple(sorted(n for (u, n) in g.edges if u == k and g.serving[k] != n))
        assert rebuilt == g.neighbor_bs[k]


def test_build_is_deterministic():
    cs = trace_table_set(4, FIG_TRACES, FIG_SERVING)
    a = build_topology(cs, 10.0)
    b = build_topology(cs, 10.0)
    assert a == b


def test_default_serving_is_strongest_link_with_low_index_ties():
    traces = [[2.0, 2.0], [1.0, 3.0]]
    links = {(k, n): diag_corr(4, traces[k][n]) for k in range(2) for n in range(2)}
    assert link_set(links, None).serving == {0: 0, 1: 1}


def test_theta_from_db():
    assert np.isclose(theta_from_db(10.0), 10.0)
    assert np.isclose(theta_from_db(3.0), 10 ** 0.3)
