"""Monte Carlo validation and baseline schemes.

Validates the deterministic equivalents against sampled channels and runs
two reference schemes: per-cell zero forcing under fractional frequency
reuse, and clustered cooperative zero forcing with an optional AR(1) CSI
delay. Every scheme reads its draws in order from one stream derived from
(seed, scheme), so a run is deterministic per seed, and evaluates them in
chunks of a fixed memory budget, each with one sampling call and one stacked
evaluation; a chunk's normals continue the stream where the previous chunk
stopped, so results do not depend on the chunk size. A draw is 2 K N R
normals, one rank-R coefficient vector w per link
(``corrmat.sample_coefficients``), and no scheme forms the M-dimensional
channels h = F w.

All three schemes are one list of groups (``_Group``): a BS with its
selection (the proposed scheme), an FFR cell or a CoMP cluster. A group
zero-forces its served users' rows h^H B_n = conj(w) F^H B_n in one basis
B_n per BS: the outer precoder F_n of the proposed scheme, or the thin QR
basis Q_n of the served users' factors for the baselines. One map builder,
one booking of received powers, one chunk-size rule and one BS-power helper
serve every scheme; a scheme only chooses its bases, its beams (inner RZF,
or the zero-forcing limit) and its powers, and which rows other than its
served users it books: as interference (``others``: FFR's co-band users,
CoMP's other users) or only as a recorded leak (``recorded``: the users
that the proposed scheme's outer precoders protect).
"""

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .corrmat import sample_channel, sample_coefficients
from .det_equiv import GainCache, de_rate_power
from .errors import ParameterError, ValidationError
from .precoder import (  # noqa: F401 (cross_interference_power: see draw_channels)
    cross_interference_power,
    inner_precoders,
    instantaneous_rate,
    transmit_power,
    zero_forcing,
)
from .rng import COMP_MC, FFR_MC, POLICY_MC, derive_rng
from .topology import scheduled_neighbors


@dataclass
class MonteCarloReport:
    user_rate_mean: np.ndarray
    user_rate_stderr: np.ndarray
    bs_power_mean: np.ndarray
    bs_power_stderr: np.ndarray
    draws: int
    seed: int
    de_rates: np.ndarray = None
    de_powers: np.ndarray = None
    rate_rel_err: np.ndarray = None
    power_rel_err: np.ndarray = None
    max_interference_ratio: float = None
    mean_cross_interference: float = None

    def sum_rate(self):
        return float(np.sum(self.user_rate_mean))

    def worst_decile_rate(self):
        return float(np.quantile(self.user_rate_mean, 0.1))


def _stderr(samples):
    if samples.shape[0] < 2:
        return np.zeros(samples.shape[1:])
    return np.std(samples, axis=0, ddof=1) / np.sqrt(samples.shape[0])


def draw_channels(corr_set, rng, count=None):
    """Realizations of every link channel: one (K, N, M) array, or the next
    ``count`` draws of ``rng`` as one (count, K, N, M) array. No scheme draws
    them; this name, ``sample_channel`` and ``cross_interference_power``
    stay in this module as patch points of the benchmark's tracer
    (perfbench/spans.py)."""
    return sample_channel(corr_set, rng, count)


# ---------------------------------------------------------------------------
# groups: what every scheme evaluates, in rank-R coordinates
# ---------------------------------------------------------------------------

# A BS with its selection, an FFR cell or a CoMP cluster: its consecutive
# BSs, the users it serves (one beam each), the rows whose received power is
# interference (``others``) or only recorded (``recorded``), and the
# ``_effective_map`` of its rows users + others + recorded.
_Group = namedtuple("_Group", "bss users others recorded gram")


def _group(factor, bss, users, others, recorded, bases):
    """The group of ``users`` served from ``bss`` in ``bases``, one basis per
    BS, with its ``others`` and ``recorded`` rows."""
    users, others, recorded = list(users), list(others), list(recorded)
    gram = _effective_map(factor, bss, users + others + recorded, bases)
    return _Group(tuple(bss), users, others, recorded, gram)


def _effective_map(factor, bss, rows, bases):
    """The channel rows of ``rows`` at the consecutive BSs ``bss`` in
    ``bases`` (one semi-unitary M x q basis B_n per BS, all of one width q),
    as a map of the coefficients: the (U, |bss| R, |bss| q) block-diagonal
    array whose block of BS n holds F_jn^H B_n for each of the U ``rows``
    j, so that j's coefficients at ``bss`` side by side, conjugated, times
    it give its rows h_jn^H B_n side by side. It depends on the scheme's
    bases only, so it is built once per run."""
    width, q = factor.shape[-1], bases[0].shape[1]
    gram = np.zeros((len(rows), len(bss) * width, len(bss) * q), dtype=complex)
    for i, (n, basis) in enumerate(zip(bss, bases)):
        block = factor[rows, n].conj().swapaxes(-1, -2) @ basis
        gram[:, i * width : (i + 1) * width, i * q : (i + 1) * q] = block
    return gram


def _effective_rows(coefficients, bss, rows, gram):
    """The (D, U, W) effective channel rows of ``rows`` at the consecutive
    BSs ``bss``, for the (D, K, N, 1, R) coefficients of D draws: row j's
    coefficients at ``bss`` side by side, conjugated, times its map
    ``gram[j]`` (|bss| R x W), one product per draw and row."""
    picked = coefficients[:, rows, bss[0] : bss[-1] + 1]
    return (picked.reshape(len(coefficients), len(rows), 1, -1).conj() @ gram)[..., 0, :]


def _group_rows(coefficients, groups):
    """Every group's (D, U, W) effective rows of a chunk."""
    return [_effective_rows(coefficients, g.bss, g.users + g.others + g.recorded, g.gram)
            for g in groups]


@functools.cache
def _off_diagonal(s):
    """The s x s mask of the off-diagonal entries, made once per size and
    shared, so never written to."""
    return ~np.eye(s, dtype=bool)


def _book(lead, num_users, groups, rows, beams, powers):
    """Rates, signals, recorded leaks and cross interference of a chunk of
    ``lead`` draws. Group g's (D, W, |S|) ``beams[g]`` at the powers
    ``powers[g]`` (one per beam, or (D, 1, 1) per draw) deliver p |e b|^2
    to each of its (D, U, W) ``rows[g]`` e. The diagonal of its served rows
    is its users' signal, the rest of them and what its ``others`` receive
    is interference, and what its ``recorded`` rows receive is their (D,
    sum |recorded|) leak, in group order. Cross interference is what the
    ``others`` and ``recorded`` rows receive, summed per group in group
    order."""
    signal, interference = np.zeros((2, lead, num_users))
    cross = np.zeros(lead)
    leaks = [np.zeros((lead, 0))]
    for group, e, b, p in zip(groups, rows, beams, powers):
        s, o = len(group.users), len(group.others)
        received = p * np.abs(e @ b) ** 2  # (D, U, |S|)
        served = received[:, :s]
        signal[:, group.users] = np.diagonal(served, axis1=-2, axis2=-1)
        interference[:, group.users] += served.sum(axis=-1, where=_off_diagonal(s))
        leaked = received[:, s:].sum(axis=-1)
        interference[:, group.others] += leaked[:, :o]
        cross += leaked.sum(axis=-1)
        leaks.append(leaked[:, o:])
    return instantaneous_rate(signal, interference), signal, np.concatenate(leaks, axis=-1), cross


def _bs_powers(lead, num_bs, groups, beams, powers):
    """The (D, N) power sum_l p_l ||b_l||^2 of every BS over its block of its
    group's (D, |bss| q, |S|) beams; 0 at a BS without a group. The bases
    are semi-unitary, so the beams' norms are those of the M-dimensional
    beams."""
    out = np.zeros((lead, num_bs))
    for group, b, p in zip(groups, beams, powers):
        first, count = group.bss[0], len(group.bss)
        blocks = b.reshape(lead, count, b.shape[1] // count, b.shape[2])
        out[:, first : first + count] = transmit_power(blocks, p)
    return out


# Draws per chunk: as many as keep the largest array that a scheme builds
# for one chunk within this many complex entries, and at least one. Larger
# chunks save per-call overhead but grow every per-chunk array with them.
CHUNK_ENTRIES = 2**13


def _monte_carlo(draw, groups, corr_set, graph, draws, seed, tag):
    """Report of ``draws`` realizations of one scheme, read in order from the
    stream (seed, tag, 0). Their coefficients go to ``draw`` as (D, K, N, 1,
    R) ``sample_coefficients`` rows; it maps them to the (D, K) user rates,
    (D, N) BS powers, (D,) worst interference ratios (None if untracked) and
    (D,) cross interference of those draws. D is at most CHUNK_ENTRIES over
    the largest per-draw array: the K N R coefficients, or a group's rows
    times the widest of its |bss| R coefficients, its basis and its |S|
    beams."""
    if draws < 1:
        raise ParameterError("draws must be at least 1")
    largest = max([graph.num_users * graph.num_bs * corr_set.factor().shape[-1], 1]
                  + [g.gram.shape[0] * max(*g.gram.shape[1:], len(g.users)) for g in groups])
    size = max(1, CHUNK_ENTRIES // largest)
    rng = derive_rng(seed, tag, 0)
    rate_samples = np.zeros((draws, graph.num_users))
    power_samples = np.zeros((draws, graph.num_bs))
    cross_samples = np.zeros(draws)
    ratios = []
    for start in range(0, draws, size):
        chunk = slice(start, start + size)
        coefficients = sample_coefficients(corr_set, rng, min(size, draws - start))
        rates, powers, ratio, cross_samples[chunk] = draw(coefficients)
        rate_samples[chunk], power_samples[chunk] = rates, powers
        ratios.append(ratio)
    return MonteCarloReport(
        user_rate_mean=rate_samples.mean(axis=0),
        user_rate_stderr=_stderr(rate_samples),
        bs_power_mean=power_samples.mean(axis=0),
        bs_power_stderr=_stderr(power_samples),
        draws=draws,
        seed=int(seed),
        max_interference_ratio=None if ratio is None else float(max(map(np.max, ratios))),
        # a running sum adds the draws in order: np.sum would pair them and
        # so move the last digit of a round-off-level mean
        mean_cross_interference=float(np.cumsum(cross_samples)[-1]) / draws,
    )


# ---------------------------------------------------------------------------
# the proposed scheme: inner RZF on the effective channels h^H F_n
# ---------------------------------------------------------------------------

def _control_evaluator(control, corr_set, graph, nu):
    """Evaluation of ``control`` on (D, K, N, 1, R) channel coefficients
    (``sample_coefficients``), and its groups. It maps a chunk to the rates,
    BS powers, worst interference-to-signal ratio and total power leaked
    onto protected users of each draw.

    Each BS n with a selection S_n is a group in the basis F_n: its served
    rows are the effective channels h_kn^H F_n that its inner RZF precoder
    sees (the outer precoders null every other BS, so only the serving BS
    interferes), and its recorded rows are the users blocked at n, which
    give what n leaks onto them. A BS spends sum_l p_l ||g_l||^2 over its
    inner beams g, F_n being semi-unitary."""
    m = corr_set.dim
    factor = corr_set.factor()
    blocked = scheduled_neighbors(graph, control.selected_union)
    groups = [_group(factor, (n,), users, (), blocked[n], [control.outer[n]])
              for n, users in control.selected.items() if users]
    powers = [np.array([control.power[k] for k in group.users]) for group in groups]
    protected = [k for group in groups for k in group.recorded]

    def evaluate(coefficients):
        lead = len(coefficients)
        rows = _group_rows(coefficients, groups)
        beams = [inner_precoders(e[:, : len(g.users)], m, nu) for g, e in zip(groups, rows)]
        rates, signal, leak, cross = _book(lead, graph.num_users, groups, rows, beams, powers)
        worst = np.max(leak / (signal[:, protected] + 1.0), axis=-1, initial=0.0)
        return rates, _bs_powers(lead, graph.num_bs, groups, beams, powers), worst, cross

    return evaluate, groups


def monte_carlo_policy(policy, corr_set, graph, nu, draws, seed, gain_cache=None):
    """Empirical rates and powers of a time-sharing policy.

    Every control is evaluated on every draw and mixed by the probabilities
    (the exact conditional average).
    """
    probs = np.asarray(policy.probs, dtype=float)
    evaluators = [_control_evaluator(control, corr_set, graph, nu) for control in policy.controls]

    def draw(coefficients):
        rates = np.zeros((len(coefficients), graph.num_users))
        powers = np.zeros((len(coefficients), graph.num_bs))
        worst, cross = np.zeros(len(coefficients)), np.zeros(len(coefficients))
        for q, (evaluate, _) in zip(probs, evaluators):
            r, p, ratio, c = evaluate(coefficients)
            rates += q * r
            powers += q * p
            worst = np.maximum(worst, ratio)
            cross += q * c
        return rates, powers, worst, cross

    groups = [group for _, control_groups in evaluators for group in control_groups]
    report = _monte_carlo(draw, groups, corr_set, graph, draws, seed, POLICY_MC)
    cache = gain_cache or GainCache(corr_set, graph, nu)
    de_rates = np.zeros(graph.num_users)
    de_powers = np.zeros(graph.num_bs)
    for q, control in zip(probs, policy.controls):
        de = de_rate_power(control, corr_set, graph, nu, cache)
        de_rates += q * de.rates
        de_powers += q * de.powers
    rate_mean, power_mean = report.user_rate_mean, report.bs_power_mean
    with np.errstate(divide="ignore", invalid="ignore"):
        rate_err = np.where(de_rates > 0, np.abs(rate_mean - de_rates) / de_rates, np.nan)
        power_err = np.where(de_powers > 0, np.abs(power_mean - de_powers) / de_powers, np.nan)
    report.de_rates, report.de_powers = de_rates, de_powers
    report.rate_rel_err, report.power_rel_err = rate_err, power_err
    return report


# ---------------------------------------------------------------------------
# the baselines: zero forcing per cell or cluster in the bases of its users
# ---------------------------------------------------------------------------

ZF_NU = 1e-8  # RZF regularizer, relative to the mean squared channel row norm


def _zero_forcing_limit(rows):
    """Zero-forcing beams of every draw's channel rows H, one |S|-row matrix
    per draw of the stack ``rows``, regularized by ZF_NU tr(H H^H) / |S| so
    that the beams stay near the exact zero-forcing limit whatever the
    channel's scale. A zero row gets a zero beam; where every row is zero,
    any positive regularizer gives zero beams, so 1 stands in for it."""
    # tr(H H^H) as the inner product of H's flattened rows with themselves
    flat = rows.reshape(rows.shape[0], 1, -1)
    traces = (flat.conj() @ flat.swapaxes(-1, -2))[:, 0, 0].real
    reg = ZF_NU * traces / rows.shape[-2]
    return zero_forcing(rows, np.where(reg > 0, reg, 1.0))


def _user_bases(factor, bss, users):
    """The thin QR basis Q_n (M x min(M, |users| R)) of the served users'
    factors [F_kn] at each BS n of ``bss``, taken without a rank threshold:
    it spans every served channel (and every outdated one), so zero-forcing
    the rows E = H Q gives the beams Q y of zero-forcing H, with tr(E E^H) =
    tr(H H^H), ||Q y|| = ||y|| and h^H Q y = e y for any row."""
    m = factor.shape[-2]
    return [np.linalg.qr(factor[users, n].transpose(1, 0, 2).reshape(m, -1))[0] for n in bss]


# ---------------------------------------------------------------------------
# baseline 1: per-cell zero forcing under fractional frequency reuse
# ---------------------------------------------------------------------------

def _bs_partition(graph, reuse_partitions):
    """Fixed greedy coloring of the BS adjacency induced by shared users,
    folded onto the requested number of partitions: one partition per BS."""
    touches = {k: set() for k in range(graph.num_users)}
    for (k, n) in graph.edges:
        touches[k].add(n)
    adjacent = {n: set() for n in range(graph.num_bs)}
    for bss in touches.values():
        for a in bss:
            for b in bss:
                if a != b:
                    adjacent[a].add(b)
    color = {}
    for n in range(graph.num_bs):
        used = {color[m] for m in adjacent[n] if m in color}
        c = 0
        while c in used:
            c += 1
        color[n] = c
    return np.array([color[n] % reuse_partitions for n in range(graph.num_bs)])


def ffr_cells(graph, m):
    """The users of every cell, one list per BS; a ValidationError names a
    cell that serves more users than its ``m`` antennas can zero-force."""
    cells = [list(graph.assoc_users[n]) for n in range(graph.num_bs)]
    for n, users in enumerate(cells):
        if len(users) > m:
            raise ValidationError(
                f"ffr_baseline: cell {n} serves {len(users)} users with {m} antennas"
            )
    return cells


def ffr_baseline(corr_set, graph, p_c, reuse_partitions, draws, seed):
    """Per-cell ZF with the band split across reuse partitions.

    Each cell serves all its associated users on its partition with equal
    power and unit-norm ZF beams (a zero beam for a user without channel);
    co-partition cells interfere, the rest are silent. Rates carry the
    1/partitions bandwidth share.
    """
    if reuse_partitions < 1:
        raise ParameterError("reuse_partitions must be at least 1")
    partition = _bs_partition(graph, reuse_partitions)
    band = partition[[graph.serving[k] for k in range(graph.num_users)]]
    factor = corr_set.factor()
    groups = []
    for n, users in enumerate(ffr_cells(graph, corr_set.dim)):
        if users:
            # the users of the other cells of n's partition share its band
            others = [k for k in range(graph.num_users)
                      if band[k] == partition[n] and graph.serving[k] != n]
            groups.append(_group(factor, (n,), users, others, (), _user_bases(factor, (n,), users)))
    powers = [np.full(len(group.users), p_c / len(group.users)) for group in groups]

    def draw(coefficients):
        lead = len(coefficients)
        rows = _group_rows(coefficients, groups)
        zf = [_zero_forcing_limit(e[:, : len(group.users)]) for group, e in zip(groups, rows)]
        norms = [np.linalg.norm(g, axis=-2, keepdims=True) for g in zf]
        # a user without channel keeps its zero beam
        beams = [g / np.where(norm > 0, norm, 1.0) for g, norm in zip(zf, norms)]
        rates, _, _, cross = _book(lead, graph.num_users, groups, rows, beams, powers)
        return (rates / reuse_partitions, _bs_powers(lead, graph.num_bs, groups, beams, powers),
                None, cross)

    return _monte_carlo(draw, groups, corr_set, graph, draws, seed, FFR_MC)


# ---------------------------------------------------------------------------
# baseline 2: clustered cooperative zero forcing with CSI delay
# ---------------------------------------------------------------------------

def comp_clusters(graph, m, cluster_size):
    """The users of every cluster of ``cluster_size`` consecutive BSs, one
    list per cluster; a ValidationError names a ``cluster_size`` that does
    not divide the BSs or a cluster that serves more users than its
    antennas can zero-force."""
    if graph.num_bs % cluster_size != 0:
        raise ValidationError(
            f"comp_baseline: cluster_size {cluster_size} does not divide {graph.num_bs} BSs"
        )
    clusters = [
        [k for n in range(c * cluster_size, (c + 1) * cluster_size) for k in graph.assoc_users[n]]
        for c in range(graph.num_bs // cluster_size)
    ]
    for c, users in enumerate(clusters):
        if len(users) > cluster_size * m:
            raise ValidationError(
                f"comp_baseline: cluster {c} serves {len(users)} users "
                f"with {cluster_size * m} antennas"
            )
    return clusters


def comp_baseline(corr_set, graph, p_c, cluster_size, draws, seed, delay_rho=1.0):
    """Cooperative ZF across fixed clusters of consecutive BSs.

    Precoders come from the (possibly outdated) channel F (rho w +
    sqrt(1 - rho^2) w'), mixed in the rank-R coordinates of h = F w with an
    independent w', while rates use the true h. Every user in a
    cluster gets the same power coefficient, scaled so the most loaded BS
    transmits exactly p_c (the others stay below the budget).
    """
    if cluster_size < 1:
        raise ParameterError("cluster_size must be at least 1")
    if not (0.0 <= delay_rho <= 1.0):
        raise ParameterError("delay_rho must lie in [0, 1]")
    factor = corr_set.factor()
    groups = []
    for c, users in enumerate(comp_clusters(graph, corr_set.dim, cluster_size)):
        if users:
            bss = range(c * cluster_size, (c + 1) * cluster_size)
            others = sorted(set(range(graph.num_users)) - set(users))
            groups.append(_group(factor, bss, users, others, (), _user_bases(factor, bss, users)))
    unit = [np.ones(len(group.users)) for group in groups]
    # the AR(1) innovation has a stream of its own, so every delay_rho sees
    # the same true channels and delay_rho = 1 never reads it
    innovation = derive_rng(seed, COMP_MC, 1)

    def draw(coefficients):
        lead = len(coefficients)
        outdated = coefficients
        if delay_rho < 1.0:
            stale = sample_coefficients(corr_set, innovation, lead)
            outdated = delay_rho * coefficients + np.sqrt(1.0 - delay_rho**2) * stale
        # each cluster zero-forces its users' outdated rows; a BS only
        # carries its cluster's beams, so its unit load is the squared norm
        # of its block of them
        rows = _group_rows(coefficients, groups)
        served = rows if outdated is coefficients else [
            _effective_rows(outdated, g.bss, g.users, g.gram[: len(g.users)]) for g in groups]
        beams = [_zero_forcing_limit(e[:, : len(g.users)]) for g, e in zip(groups, served)]
        unit_load = _bs_powers(lead, graph.num_bs, groups, beams, unit)
        # one power per cluster, scaled so that its most loaded BS spends p_c
        # (0 for a cluster without users or without channels)
        most_loaded = np.max(unit_load.reshape(lead, -1, cluster_size), axis=-1)
        scale = np.divide(p_c, most_loaded, out=np.zeros_like(most_loaded), where=most_loaded > 0)
        powers = [scale[:, group.bss[0] // cluster_size, None, None] for group in groups]
        rates, _, _, cross = _book(lead, graph.num_users, groups, rows, beams, powers)
        return rates, unit_load * np.repeat(scale, cluster_size, axis=-1), None, cross

    return _monte_carlo(draw, groups, corr_set, graph, draws, seed, COMP_MC)
