import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermimo.corrmat import RANK_TOL, CorrelationMatrix, CorrelationSet, random_clustered_correlation
from hiermimo.errors import ParameterError, ValidationError
from hiermimo.precoder import (
    CompositeControl,
    cross_interference_power,
    inner_precoders,
    instantaneous_rate,
    interference_nullspace_basis,
    outer_precoder,
    transmit_power,
    zero_forcing,
)
from hiermimo.topology import build_topology, theta_from_db

from conftest import full_inner_precoders, single_cell_set


def projector(basis):
    return basis @ basis.conj().T


def test_nullspace_basis_empty_blocked():
    cs = single_cell_set(8, 2, 2)
    basis = interference_nullspace_basis(cs, (), 0)
    assert basis.shape == (8, 0)


def test_nullspace_basis_single_rank2_user():
    cs = single_cell_set(8, 2, 2)
    basis = interference_nullspace_basis(cs, (0,), 0)
    assert basis.shape == (8, 2)
    ref = cs.matrix(0, 0).basis()
    assert np.linalg.norm(projector(basis) - projector(ref)) <= 1e-9


def test_nullspace_basis_duplicate_matrices_share_span():
    mat = random_clustered_correlation(8, 2, 1.0, seed=4)
    twin = CorrelationMatrix.from_dense(2.0 * mat.dense(), 2, 2.0)  # scaled copy, same range
    mats = {(0, 0): mat, (1, 0): twin}
    cs = CorrelationSet(1, 2, mats, {0: 0, 1: 0}, {0: 0, 1: 1})
    one = interference_nullspace_basis(cs, (0,), 0)
    both = interference_nullspace_basis(cs, (0, 1), 0)
    assert both.shape[1] == one.shape[1]
    assert np.linalg.norm(projector(both) - projector(one)) <= 1e-9


def test_outer_precoder_unblocked_spans_selected_range():
    cs = single_cell_set(16, 1, 5)
    f = outer_precoder(cs, (0,), (), 0)
    assert f.shape == (16, 5)
    ref = cs.matrix(0, 0).basis()
    assert np.linalg.norm(projector(f) - projector(ref)) <= 1e-9


def test_outer_precoder_blocked_subspace_inside_selected_span():
    # selected span is 4-dimensional, blocked users occupy a 2-dimensional
    # subspace of it; the outer precoder must be the 2-dimensional remainder
    m = 32
    basis = np.linalg.qr(np.random.default_rng(0).standard_normal((m, 4))
                         + 1j * np.random.default_rng(1).standard_normal((m, 4)))[0]
    selected_mat = CorrelationMatrix.from_dense(basis @ basis.conj().T, 4, 4.0 / m)
    blocked_basis = basis[:, :2]
    blocked_mat = CorrelationMatrix.from_dense(blocked_basis @ blocked_basis.conj().T, 2, 2.0 / m)
    mats = {(0, 0): selected_mat, (1, 0): blocked_mat}
    cs = CorrelationSet(1, 2, mats, {0: 0, 1: 0}, {0: 0, 1: 1})
    f = outer_precoder(cs, (0,), (1,), 0)
    assert f.shape == (m, 2)
    assert np.linalg.norm(blocked_basis.conj().T @ f) <= 1e-9
    assert np.linalg.norm(f - projector(basis) @ f) <= 1e-9  # stays inside the span


def test_outer_precoder_fully_blocked_is_empty():
    mat = random_clustered_correlation(8, 3, 1.0, seed=2)
    twin = CorrelationMatrix.from_dense(mat.dense(), 3, 1.0)
    mats = {(0, 0): mat, (1, 0): twin}
    cs = CorrelationSet(1, 2, mats, {0: 0, 1: 0}, {0: 0, 1: 1})
    f = outer_precoder(cs, (0,), (1,), 0)
    assert f.shape == (8, 0)


# The dense construction of the outer precoder, kept as the oracle: the
# eigenbasis of the projected M x M sum of the selected correlations. It is
# built in long double (numpy's extended precision). In float64, forming the
# sum and solving its eigenproblem each err by about eps times the largest
# eigenvalue, which tilts the basis by that over the smallest kept one: on a
# sum with eigenvalues 750 and 1.0e-3 the float64 projector was 1.19e-10 off
# the extended-precision (mpmath) projector of the stacked factors' range,
# while ``outer_precoder`` was 1.3e-15 off it.


def orthonormal_columns(z):
    """z's columns orthonormalized by Gram-Schmidt, each projection applied
    twice, in z's own precision (numpy.linalg has no long double)."""
    q = z.copy()
    for j in range(q.shape[1]):
        for _ in range(2):
            q[:, j] -= q[:, :j] @ (q[:, :j].conj().T @ q[:, j])
        q[:, j] /= np.sqrt(np.sum(np.abs(q[:, j]) ** 2))
    return q


def dense_outer_precoder(corr_set, selected, blocked, bs):
    m = corr_set.dim
    if not selected:
        return np.zeros((m, 0), dtype=complex)
    null_basis = interference_nullspace_basis(corr_set, blocked, bs).astype(np.clongdouble)
    factors = np.concatenate([corr_set.matrix(k, bs).factor() for k in selected], axis=1)
    factors = factors.astype(np.clongdouble)
    total = factors @ factors.conj().T  # the sum of the selected dense matrices
    proj = np.eye(m) - null_basis @ null_basis.conj().T
    projected = proj @ total @ proj
    # a float64 eigensolve sets the rank and a basis accurate to ~1e-10; one
    # subspace-iteration step in long double takes it to ~1e-14, since it
    # scales the error by the dropped over the smallest kept eigenvalue
    w, v = np.linalg.eigh(projected.astype(complex))
    if w[-1] <= RANK_TOL * max(float(np.linalg.eigvalsh(total.astype(complex))[-1]), 1e-300):
        return np.zeros((m, 0), dtype=complex)
    return orthonormal_columns(projected @ v[:, w > RANK_TOL * w[-1]]).astype(complex)


@st.composite
def blocking_cases(draw):
    """One BS with selected, blocked and idle users. Blocking is empty,
    partial (a blocked user may share a selected user's matrix, so part of
    the selected range is nulled) or full (a blocked full-rank user)."""
    m = draw(st.integers(2, 24))
    num_users = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    blocking = draw(st.sampled_from(["empty", "partial", "full"]))
    roles = ["selected", "idle"] + (["blocked"] if blocking == "partial" else [])
    role = ["selected"] + [draw(st.sampled_from(roles)) for _ in range(num_users - 1)]
    ranks = [draw(st.integers(1, m)) for _ in range(num_users)]
    gains = [draw(st.sampled_from([1.0, 1e-2, 50.0, 0.0])) for _ in range(num_users)]
    mats = {(k, 0): random_clustered_correlation(m, ranks[k], gains[k], seed=[seed, k])
            for k in range(num_users)}
    if blocking == "partial" and draw(st.booleans()):
        twin = draw(st.integers(1, num_users - 1))
        role[twin] = "blocked"
        mats[(twin, 0)] = CorrelationMatrix(mats[(0, 0)].factor(), ranks[0], gains[0])
    if blocking == "full":
        role.append("blocked")
        mats[(num_users, 0)] = random_clustered_correlation(m, m, 1.0, seed=[seed, num_users])
    cs = CorrelationSet(1, len(role), mats, dict.fromkeys(range(len(role)), 0),
                        {k: k for k in range(len(role))})

    def users(name):
        return tuple(k for k, r in enumerate(role) if r == name)
    return cs, users("selected"), users("blocked")


@settings(max_examples=150, deadline=None)
@given(blocking_cases())
def test_outer_precoder_matches_dense_construction(case):
    cs, selected, blocked = case
    f = outer_precoder(cs, selected, blocked, 0)
    oracle = dense_outer_precoder(cs, selected, blocked, 0)
    assert f.shape == oracle.shape
    assert np.linalg.norm(projector(f) - projector(oracle)) <= 1e-10


@pytest.mark.parametrize("weak, blocked, dims", [
    (1e-7, (), 4),  # the rank threshold is relative to the projected top ...
    (1e-11, (), 2),
    (1e-7, (2,), 2),  # ... and annihilation relative to the unprojected one
    (1e-11, (2,), 0),
])
def test_outer_precoder_thresholds(weak, blocked, dims):
    m = 8
    eye = np.eye(m, dtype=complex)
    strong = CorrelationMatrix(eye[:, :2], 2, 2.0 / m)
    mats = {
        (0, 0): strong,
        (1, 0): CorrelationMatrix(np.sqrt(weak) * eye[:, 2:4], 2, 2.0 * weak / m),
        (2, 0): CorrelationMatrix(strong.factor(), 2, 2.0 / m),  # blocks user 0's range
    }
    cs = CorrelationSet(1, 3, mats, dict.fromkeys(range(3), 0), {k: k for k in range(3)})
    f = outer_precoder(cs, (0, 1), blocked, 0)
    assert f.shape == (m, dims)
    oracle = dense_outer_precoder(cs, (0, 1), blocked, 0)
    assert np.linalg.norm(projector(f) - projector(oracle)) <= 1e-10


def test_outer_precoder_rejects_overlap():
    cs = single_cell_set(8, 2, 2)
    with pytest.raises(ParameterError):
        outer_precoder(cs, (0,), (0,), 0)


def rand_channel(rng, m):
    return (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)


def test_rzf_single_user_closed_form():
    rng = np.random.default_rng(5)
    m, nu = 8, 0.1
    h = rand_channel(rng, m)
    g = zero_forcing(h.conj()[None, :], m * nu)
    expect = h / (np.linalg.norm(h) ** 2 + m * nu)
    assert np.linalg.norm(g[:, 0] - expect) <= 1e-12


def test_rzf_large_regularizer_limit():
    rng = np.random.default_rng(6)
    m, nu = 8, 1e6
    rows = np.stack([rand_channel(rng, m).conj() for _ in range(4)])
    g = zero_forcing(rows, m * nu)
    ref = rows.conj().T / (m * nu)
    assert np.linalg.norm(g - ref) <= 1e-4 * np.linalg.norm(ref)


def test_rzf_matches_explicit_inverse():
    rng = np.random.default_rng(7)
    m, nu = 16, 0.03
    rows = np.stack([rand_channel(rng, m).conj() for _ in range(4)])
    f = np.linalg.qr(rng.standard_normal((m, 6)) + 1j * rng.standard_normal((m, 6)))[0]
    heff = rows @ f
    g = zero_forcing(heff, m * nu)
    explicit = np.linalg.inv(heff.conj().T @ heff + m * nu * np.eye(6)) @ heff.conj().T
    assert np.linalg.norm(g - explicit) <= 1e-10


def test_rzf_rejects_bad_nu():
    with pytest.raises(ParameterError):
        zero_forcing(np.zeros((1, 4), dtype=complex), 0.0)


@st.composite
def zero_forcing_cases(draw):
    """|S| x D channels with |S| <= D <= 24, an empty D = 0 (a BS whose outer
    precoder is annihilated), or rows copied from one another."""
    kind = draw(st.sampled_from(["random", "empty", "duplicated"]))
    d = 0 if kind == "empty" else draw(st.integers(1, 24))
    num_rows = draw(st.integers(1, 6 if kind == "empty" else d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((num_rows, d)) + 1j * rng.standard_normal((num_rows, d))
    if kind == "duplicated":
        source = [draw(st.integers(0, num_rows - 1)) for _ in range(num_rows)]
        rows = rows[source] * rng.uniform(0.5, 2.0, (num_rows, 1))
    return rows, draw(st.sampled_from([1e-2, 0.3, 1.0, 16.0]))


@settings(max_examples=150, deadline=None)
@given(zero_forcing_cases())
def test_zero_forcing_matches_direct_form(case):
    rows, reg = case
    d = rows.shape[1]
    g = zero_forcing(rows, reg)
    direct = np.linalg.solve(rows.conj().T @ rows + reg * np.eye(d), rows.conj().T)
    assert g.shape == (d, rows.shape[0])
    assert np.linalg.norm(g - direct) <= 1e-10 * np.linalg.norm(direct)


def _simple_control(cs, selected, blocked, powers):
    f = outer_precoder(cs, selected, blocked, 0)
    return CompositeControl(outer={0: f}, selected={0: selected}, power=powers)


def layout(control, inner, num_users):
    """(N, M, L) beams, L powers, the K x L own-beam mask and the BS of each
    beam of ``control``, its selected users in BS order."""
    served = [(n, k) for n, users in control.selected.items() for k in users]
    m = next(iter(control.outer.values())).shape[0]
    beams = np.zeros((len(control.outer), m, len(served)), dtype=complex)
    own = np.zeros((num_users, len(served)), dtype=bool)
    for col, (n, k) in enumerate(served):
        beams[n, :, col] = control.outer[n] @ inner[n][:, control.selected[n].index(k)]
        own[k, col] = True
    power = np.array([control.power[k] for _, k in served])
    return beams, power, own, np.array([n for n, _ in served], dtype=int)


def proposed_rates(control, channels, nu, inner=None):
    """Per-user rates with the serving BS's other beams as interference."""
    if inner is None:
        inner = full_inner_precoders(control, channels, nu)
    beams, power, own, beam_bs = layout(control, inner, channels.shape[0])
    received = cross_interference_power(channels, beams, power)
    same_bs = own @ (beam_bs[:, None] == beam_bs)
    return instantaneous_rate(np.sum(received, axis=-1, where=own),
                              np.sum(received, axis=-1, where=same_bs & ~own))


def bs_powers(control, channels, nu, inner=None):
    if inner is None:
        inner = full_inner_precoders(control, channels, nu)
    beams, power, _, _ = layout(control, inner, channels.shape[0])
    return transmit_power(beams, power)


def rand_channels(rng, num_users, m):
    """(K, 1, M) realization for a one-BS network."""
    return np.stack([rand_channel(rng, m) for _ in range(num_users)])[:, None, :]


def test_inner_precoders_regularize_with_the_full_antenna_count():
    # a lone user's RZF beam on its effective channel e = h^H F_n (M_n
    # entries) is e^H / (||e||^2 + M nu), with the full M, not M_n
    rng = np.random.default_rng(12)
    m, m_n, nu = 16, 3, 0.05
    e = rand_channel(rng, m_n)[None, :]
    g = inner_precoders(e, m, nu)
    assert g.shape == (m_n, 1)
    np.testing.assert_allclose(g[:, 0], e[0].conj() / (np.vdot(e, e).real + m * nu),
                               rtol=1e-12, atol=0)
    stacked = np.stack([e, 2.0 * e])
    assert np.array_equal(inner_precoders(stacked, m, nu)[0], g)


def test_rate_zero_for_unselected_user():
    cs = single_cell_set(8, 2, 2)
    control = _simple_control(cs, (0,), (), {0: 1.0})
    channels = np.stack([rand_channel(np.random.default_rng(k), 8) for k in range(2)])[:, None]
    assert proposed_rates(control, channels, nu=0.01)[1] == 0.0


def test_rate_matched_filter_single_user():
    m = 8
    h = np.zeros(m, dtype=complex)
    h[0] = np.sqrt(2.0)  # ||h||^2 = 2
    v = (h / np.linalg.norm(h)).reshape(m, 1)
    control = CompositeControl(outer={0: v}, selected={0: (0,)}, power={0: 3.0})
    inner = {0: np.array([[1.0 + 0j]])}
    rate = proposed_rates(control, h[None, None, :], nu=0.01, inner=inner)[0]
    assert np.isclose(rate, np.log(1 + 6.0), rtol=1e-12)


def test_rate_matches_scalar_formula_oracle():
    rng = np.random.default_rng(8)
    m, nu = 8, 0.05
    cs = single_cell_set(m, 2, 3, seed0=20)
    control = _simple_control(cs, (0, 1), (), {0: 2.0, 1: 1.5})
    channels = rand_channels(rng, 2, m)
    inner = full_inner_precoders(control, channels, nu)
    beams = control.outer[0] @ inner[0]
    rates = proposed_rates(control, channels, nu, inner=inner)
    for idx, k in enumerate((0, 1)):
        h = channels[k, 0]
        sig = control.power[k] * abs(h.conj() @ beams[:, idx]) ** 2
        other = 1 - idx
        intra = control.power[other] * abs(h.conj() @ beams[:, other]) ** 2
        oracle = np.log(1 + sig / (intra + 1.0))
        assert np.isclose(rates[k], oracle, rtol=1e-12)


def test_transmit_power_empty_and_single_user():
    empty = CompositeControl(outer={0: np.zeros((8, 0), dtype=complex)},
                             selected={0: ()}, power={})
    assert bs_powers(empty, np.zeros((1, 1, 8), dtype=complex), nu=0.01)[0] == 0.0
    m, nu, p = 8, 0.1, 2.5
    h = rand_channel(np.random.default_rng(9), m)
    control = CompositeControl(outer={0: np.eye(m, dtype=complex)},
                               selected={0: (0,)}, power={0: p})
    got = bs_powers(control, h[None, None, :], nu)[0]
    expect = p * np.linalg.norm(h) ** 2 / (np.linalg.norm(h) ** 2 + m * nu) ** 2
    assert np.isclose(got, expect, rtol=1e-10)


def test_transmit_power_identities():
    rng = np.random.default_rng(10)
    m, nu = 16, 0.02
    cs = single_cell_set(m, 3, 4, seed0=40)
    control = _simple_control(cs, (0, 1, 2), (), {0: 1.0, 1: 2.0, 2: 0.5})
    channels = rand_channels(rng, 3, m)
    inner = full_inner_precoders(control, channels, nu)
    got = bs_powers(control, channels, nu, inner=inner)[0]
    # alternative form: sum of per-user inner-precoder powers, the outer
    # basis being semi-unitary
    alt = sum(control.power[k] * np.linalg.norm(inner[0][:, i]) ** 2
              for i, k in enumerate((0, 1, 2)))
    assert np.isclose(got, alt, rtol=1e-10)
    # trace form with an explicit inverse
    f = control.outer[0]
    rows = channels[:, 0].conj()
    heff = rows @ f
    inv2 = np.linalg.inv(heff.conj().T @ heff + m * nu * np.eye(f.shape[1]))
    inv2 = inv2 @ inv2
    pmat = np.diag([control.power[k] for k in (0, 1, 2)])
    trace_form = np.real(np.trace(pmat @ heff @ inv2 @ heff.conj().T))
    assert np.isclose(got, trace_form, rtol=1e-10)


def test_unitary_rotation_of_outer_is_invisible():
    rng = np.random.default_rng(11)
    m, nu = 16, 0.02
    cs = single_cell_set(m, 2, 4, seed0=60)
    control = _simple_control(cs, (0, 1), (), {0: 1.0, 1: 2.0})
    k_dim = control.outer[0].shape[1]
    q, _ = np.linalg.qr(rng.standard_normal((k_dim, k_dim))
                        + 1j * rng.standard_normal((k_dim, k_dim)))
    rotated = CompositeControl(outer={0: control.outer[0] @ q},
                               selected=control.selected, power=control.power)
    channels = rand_channels(rng, 2, m)
    assert np.allclose(proposed_rates(control, channels, nu),
                       proposed_rates(rotated, channels, nu), rtol=1e-10, atol=0)
    assert np.isclose(bs_powers(control, channels, nu)[0],
                      bs_powers(rotated, channels, nu)[0], rtol=1e-10)


def test_zero_ici_end_to_end(desk):
    from hiermimo.corrmat import sample_channel
    from hiermimo.scheduler import assemble_control, weighted_sum_rate

    cs, graph = desk
    nu = 0.01
    selected = tuple(range(6))
    res = weighted_sum_rate(selected, np.ones(6), cs, graph, nu, 10.0)
    control = assemble_control(selected, cs, graph, res.powers)
    control.validate(cs, graph)
    assert any(graph.neighbor_users[n] for n in range(2)), "need cross edges"
    for i in range(50):
        channels = sample_channel(cs, np.random.default_rng(500 + i))
        inner = full_inner_precoders(control, channels, nu)
        beams, power, own, beam_bs = layout(control, inner, 6)
        received = cross_interference_power(channels, beams, power)
        for n in range(2):
            for k in graph.neighbor_users[n]:
                leak = float(np.sum(received[k, beam_bs == n]))
                sig = float(np.sum(received[k, own[k]]))
                assert leak <= 1e-16 * (sig + 1.0)


def test_control_validation_failures(desk):
    cs, graph = desk
    from hiermimo.scheduler import assemble_control, weighted_sum_rate

    res = weighted_sum_rate((0, 1), np.ones(6), cs, graph, 0.01, 10.0)
    control = assemble_control((0, 1), cs, graph, res.powers)
    bad_power = CompositeControl(outer=control.outer, selected=control.selected,
                                 power={k: -1.0 for k in control.power})
    with pytest.raises(ValidationError):
        bad_power.validate(cs, graph)
    n0 = next(n for n, users in control.selected.items() if users)
    skewed = dict(control.outer)
    skewed[n0] = 1.7 * skewed[n0]
    with pytest.raises(ValidationError):
        CompositeControl(outer=skewed, selected=control.selected,
                         power=control.power).validate(cs, graph)


def test_control_validation_rejects_leakage(desk):
    from hiermimo.scheduler import assemble_control, weighted_sum_rate

    cs, graph = desk
    selected = tuple(range(6))
    res = weighted_sum_rate(selected, np.ones(6), cs, graph, 0.01, 10.0)
    control = assemble_control(selected, cs, graph, res.powers)
    n, k = next((n, users[0]) for n, users in graph.neighbor_users.items() if users)
    aimed = dict(control.outer)
    aimed[n] = cs.matrix(k, n).basis()[:, :1]  # straight at a protected neighbor
    with pytest.raises(ValidationError, match="leaks onto protected user"):
        CompositeControl(outer=aimed, selected=control.selected,
                         power=control.power).validate(cs, graph)


# Per-user reference loop: each user's rate, each BS's power and each
# (user, BS) leakage computed one at a time from per-BS beams.


def reference_realization(control, channels, inner):
    num_users, num_bs, _ = channels.shape
    rates = np.zeros(num_users)
    powers = np.zeros(num_bs)
    leak = np.zeros((num_users, num_bs))
    for n, users in control.selected.items():
        beams = control.outer[n] @ inner[n]
        for i, l in enumerate(users):
            powers[n] += control.power[l] * np.linalg.norm(inner[n][:, i]) ** 2
        for k in range(num_users):
            cross = np.abs(channels[k, n].conj() @ beams) ** 2
            leak[k, n] = sum(control.power[l] * cross[i] for i, l in enumerate(users))
            if k in users:
                signal = control.power[k] * cross[users.index(k)]
                intra = sum(control.power[l] * cross[i] for i, l in enumerate(users) if l != k)
                rates[k] = np.log1p(signal / (intra + 1.0))
    return rates, powers, leak


@st.composite
def realizations(draw):
    num_bs = draw(st.integers(1, 3))
    num_users = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    serving = [draw(st.integers(0, num_bs - 1)) for _ in range(num_users)]
    selected, outer = {}, {}
    for n in range(num_bs):
        # a BS may select none of its users, and its outer precoder may be empty
        mine = [k for k in range(num_users) if serving[k] == n]
        selected[n] = tuple(k for k in mine if draw(st.booleans()))
        width = draw(st.integers(0, m))
        raw = rng.standard_normal((m, width)) + 1j * rng.standard_normal((m, width))
        outer[n] = np.linalg.qr(raw)[0] if width else np.zeros((m, 0), dtype=complex)
    power = {k: float(rng.uniform(0.0, 10.0)) for users in selected.values() for k in users}
    channels = rng.standard_normal((num_users, num_bs, m)) + 1j * rng.standard_normal(
        (num_users, num_bs, m))
    nu = float(rng.uniform(0.01, 1.0))
    return CompositeControl(outer=outer, selected=selected, power=power), channels, nu


@settings(max_examples=150, deadline=None)
@given(realizations())
def test_one_evaluation_matches_the_per_user_loop(case):
    control, channels, nu = case
    inner = full_inner_precoders(control, channels, nu)
    ref_rates, ref_powers, ref_leak = reference_realization(control, channels, inner)
    beams, power, own, beam_bs = layout(control, inner, channels.shape[0])
    received = cross_interference_power(channels, beams, power)
    per_bs = received @ (beam_bs[:, None] == np.arange(channels.shape[1]))
    np.testing.assert_allclose(per_bs, ref_leak, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(transmit_power(beams, power), ref_powers, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(proposed_rates(control, channels, nu, inner=inner), ref_rates,
                               rtol=1e-12, atol=1e-12)
