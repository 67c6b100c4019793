"""Monte Carlo evaluation of a policy and of the baseline schemes.

Measures a policy's rates and powers on sampled channels, and runs two
reference schemes: per-cell zero forcing under fractional frequency reuse,
and clustered cooperative zero forcing with an optional AR(1) CSI delay.
It only measures: the pipeline compares the policy's report with its
deterministic equivalents. Every scheme reads its draws in order from one
stream derived from (seed, scheme), so a run is deterministic per seed, and
evaluates them in chunks of at most ``CHUNK_DRAWS`` draws within a fixed
memory budget, ``CHUNK_ENTRIES``, each with one sampling call and one
stacked evaluation; a chunk's normals continue the stream where the previous
chunk stopped, so results do not depend on the chunk size. A
draw is 2 K N R normals, one rank-R coefficient vector w per link
(``corrmat.sample_coefficients``), and no scheme forms the M-dimensional
channels h = F w.

All three schemes are one list of groups (``_Group``): a BS with its
selection (the proposed scheme), an FFR cell or a CoMP cluster. A group
zero-forces its served users' rows, and zero forcing depends on the rows
only through their Gram matrices (Wiesel, Eldar & Shamai, IEEE TSP 56(9),
2008): with G the Gram matrix of the served rows, the beams H^H A, A = (G +
reg I)^-1, deliver the amplitudes G' A to rows whose Gram matrix with the
served rows is G', and BS n's block of them has the squared norms diag(A
G_n A). So a group keeps, per BS n, one R x R map T_n[j, l] per row j and
served user l (``_gram_map``), built once per run: (F_jn^H F_n)(F_n^H F_ln)
through the outer precoder F_n of the proposed scheme, F_jn^H F_ln for the
baselines. A draw's Gram entry at n is conj(w_jn) T_n[j, l] w_ln^T, summed
over a cluster's BSs; no basis, beam or row with M or M_n entries is ever
formed. One map builder, one Gram, one booking of received powers and one
chunk-size rule serve every scheme; a scheme only chooses its regularizer
(M nu, or ``ZF_NU`` relative to the served Gram's trace), its powers, and
which rows other than its served users it books: as interference
(``others``: FFR's co-band users, CoMP's other users) or only as a recorded
leak (``recorded``: the users that the proposed scheme's outer precoders
protect).
"""

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .corrmat import sample_channel, sample_coefficients
from .det_equiv import de_rate_power  # noqa: F401 (see draw_channels)
from .errors import ParameterError, ValidationError
from .precoder import (  # noqa: F401 (all but instantaneous_rate: see draw_channels)
    cross_interference_power,
    inner_precoders,
    instantaneous_rate,
    transmit_power,
)
from .rng import COMP_MC, FFR_MC, POLICY_MC, derive_rng
from .topology import served_and_blocked


@dataclass
class MonteCarloReport:
    user_rate_mean: np.ndarray
    user_rate_stderr: np.ndarray
    bs_power_mean: np.ndarray
    bs_power_stderr: np.ndarray
    draws: int
    seed: int
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
    them; this name, ``sample_channel``, ``de_rate_power``,
    ``cross_interference_power``, ``inner_precoders`` and ``transmit_power``
    stay in this module only as patch points of the benchmark's tracer
    (perfbench/spans.py): every scheme evaluates Gram matrices of rank-R
    coefficients instead."""
    return sample_channel(corr_set, rng, count)


# ---------------------------------------------------------------------------
# groups: what every scheme evaluates, as Gram matrices of rank-R coefficients
# ---------------------------------------------------------------------------

# A BS with its selection, an FFR cell or a CoMP cluster: its consecutive
# BSs, the users it serves (one beam each), the rows whose received power is
# interference (``others``) or only recorded (``recorded``), and one
# ``_gram_map`` per BS of its rows users + others + recorded.
_Group = namedtuple("_Group", "bss users others recorded maps")


def _group(factor, bss, users, others, recorded, outer=None):
    """The group of ``users`` served from the consecutive BSs ``bss``, with
    its ``others`` and ``recorded`` rows: its maps go through the outer
    precoders ``outer`` (one per BS), or without them for a baseline."""
    users, others, recorded = list(users), list(others), list(recorded)
    rows = users + others + recorded
    maps = [_gram_map(factor[rows, n], len(users), None if outer is None else outer[i])
            for i, n in enumerate(bss)]
    return _Group(tuple(bss), users, others, recorded, maps)


def _gram_map(rows, served, outer):
    """The (U, R, |S| R) map T of one BS for the (U, M, R) factors ``rows``,
    of which the first ``served`` are its served users': its block [j, :,
    l] is T[j, l] = (F_j^H F_n)(F_n^H F_l) for the outer precoder F_n
    ``outer``, or F_j^H F_l where ``outer`` is None, so that the Gram entry
    of the rows h_j^H F_n and h_l^H F_n (or h_j^H and h_l^H) is conj(w_j)
    T[j, l] w_l^T. A baseline's beams lie in the span of its served users'
    factors, which their basis' projector leaves as they are, so no basis
    is needed. The map depends on the scheme only and is built once per
    run."""
    left = rows.conj().swapaxes(-1, -2)  # F_j^H
    if outer is not None:
        left = left @ outer
    u, r, q = left.shape
    flat = left.reshape(u * r, q)
    return (flat @ flat[: served * r].conj().T).reshape(u, r, served * r)


def _gram(left, right, maps):
    """The (D, U, |S|) Gram matrices conj(left_j) T[j, l] right_l^T of one BS
    for the (D, U, R) coefficients ``left`` of its rows, the (D, |S|, R)
    coefficients ``right`` of its served users and its ``maps`` T, one
    product per draw and row. Its largest arrays hold D U |S| R entries."""
    lead, u, r = left.shape
    half = (left.conj()[:, :, None] @ maps).reshape(lead, u, right.shape[1], r)
    # einsum sums a short last axis several times faster than np.sum; the
    # product stays out of place, as an in-place complex product of a lone
    # draw rounds otherwise than one of a stack
    return np.einsum("...r->...", half * right[:, None])


def _grams(group, true, served, users_only=False):
    """The Gram matrices of ``group`` at each of its BSs, as (D, U, |S|)
    arrays: its rows (users, others, recorded; only its users if
    ``users_only``) with the (D, K, N, 1, R) coefficients ``true`` against
    its users with the coefficients ``served`` (the true ones, or CoMP's
    outdated ones)."""
    rows = group.users if users_only else group.users + group.others + group.recorded
    return [_gram(true[:, rows, n, 0], served[:, group.users, n, 0], maps[: len(rows)])
            for n, maps in zip(group.bss, group.maps)]


# Gram eigenvalues below GRAM_RANK_TOL times the largest are round-off
GRAM_RANK_TOL = 1e-12


def _inverse(gram, reg):
    """A = (G + reg I)^-1 for a stack of (D, |S|, |S|) Gram matrices G = H H^H
    of served rows H, with one ``reg`` per matrix or one for all: the beams
    H^H A then deliver the amplitudes G' A to rows whose Gram matrix with H
    is G'.

    Dependent rows (hotspot clones beyond their rank) make G singular, but a
    Gram matrix formed from rank-R maps knows its zero eigenvalues only to
    round-off, about 1e-16 of the largest, and a beam's squared norm diag(A
    G A) weighs such an eigenvalue e with e / reg^2: as much as a true one
    where reg is small against the largest eigenvalue. So a draw with an
    eigenvalue near reg or below (reg^2 ||A||_F^2 >= 1/2 over the rows with
    channel) takes A from the eigenpairs of G instead, without the
    eigenvalues below GRAM_RANK_TOL of the largest: the limit that the
    exact rows would give. A row without channel keeps its zero beam."""
    inverse = np.linalg.inv(gram + np.reshape(reg, (-1, 1, 1)) * np.eye(gram.shape[-1]))
    diagonal = np.diagonal(gram, axis1=-2, axis2=-1).real
    # reg^2 ||A||_F^2 = sum_e (reg / (e + reg))^2: about 1 for each
    # eigenvalue e near 0, below 1e-4 for each e > 100 reg, and 1 for each
    # row without channel, whose row and column of A are 1 / reg on the
    # diagonal and 0 elsewhere
    entries = inverse.reshape(len(inverse), -1).view(np.float64)
    frobenius = np.einsum("ij,ij->i", entries, entries)
    near_singular = np.square(reg) * frobenius - np.count_nonzero(diagonal == 0, axis=-1) >= 0.5
    if np.any(near_singular):
        values, vectors = np.linalg.eigh(gram[near_singular])
        kept = values > GRAM_RANK_TOL * values[:, -1:]
        reg = np.broadcast_to(reg, near_singular.shape)[near_singular, None]
        weights = np.divide(1.0, values + reg, out=np.zeros_like(values), where=kept)
        rank_limited = (vectors * weights[:, None]) @ vectors.conj().swapaxes(-1, -2)
        served = diagonal[near_singular] > 0
        inverse[near_singular] = rank_limited * served[:, :, None] * served[:, None, :]
    return inverse


def _norms(inverse, delivered):
    """The (D, |S|) squared norms diag(A G A) of the beams H^H A (A from
    ``_inverse``) over the rows whose (D, |S|, |S|) Gram matrices G give the
    amplitudes ``delivered`` = G A: the norms of the beams when G = H H^H,
    those of a BS's block of them when G is that BS's Gram matrix."""
    return np.einsum("...j->...", inverse * delivered.swapaxes(-1, -2)).real


@functools.cache
def _off_diagonal(s):
    """The s x s mask of the off-diagonal entries, made once per size and
    shared, so never written to."""
    return ~np.eye(s, dtype=bool)


def _book(lead, num_users, groups, received):
    """Rates, signals, recorded leaks and cross interference of a chunk of
    ``lead`` draws, from group g's (D, U, |S|) powers ``received[g]`` that
    its |S| beams deliver to its U rows. The diagonal of its served rows is
    its users' signal, the rest of them and what its ``others`` receive is
    interference, and what its ``recorded`` rows receive is their (D, sum
    |recorded|) leak, in group order. Cross interference is what the
    ``others`` and ``recorded`` rows receive, summed per group in group
    order."""
    signal, interference = np.zeros((2, lead, num_users))
    cross = np.zeros(lead)
    leaks = [np.zeros((lead, 0))]
    for group, power in zip(groups, received):
        s, o = len(group.users), len(group.others)
        served = power[:, :s]
        signal[:, group.users] = np.diagonal(served, axis1=-2, axis2=-1)
        interference[:, group.users] += served.sum(axis=-1, where=_off_diagonal(s))
        leaked = power[:, s:].sum(axis=-1)
        interference[:, group.others] += leaked[:, :o]
        cross += leaked.sum(axis=-1)
        leaks.append(leaked[:, o:])
    return instantaneous_rate(signal, interference), signal, np.concatenate(leaks, axis=-1), cross


# Draws per chunk: at most CHUNK_DRAWS, and no more than keep the largest
# array that a scheme builds for one chunk within CHUNK_ENTRIES complex
# entries (512 KiB); at least one. A chunk pays one sampling call and, per
# group, one call each of ``_grams``, ``_inverse``, ``_norms`` and ``_book``,
# so larger chunks save that fixed cost, but every per-chunk array grows with
# them; past 64 draws the saving no longer shows while the memory still grows.
CHUNK_DRAWS = 64
CHUNK_ENTRIES = 2**15


def _monte_carlo(draw, groups, corr_set, graph, draws, seed, tag):
    """Report of ``draws`` realizations of one scheme, read in order from the
    stream (seed, tag, 0). Their coefficients go to ``draw`` as (D, K, N, 1,
    R) ``sample_coefficients`` rows; it maps them to the (D, K) user rates,
    (D, N) BS powers, (D,) worst interference ratios (None if untracked) and
    (D,) cross interference of those draws. D is at most CHUNK_DRAWS and at
    most CHUNK_ENTRIES over the largest per-draw array, the K N R
    coefficients or a group's rows times its |S| R served coefficients
    (``_gram``), and at least one."""
    if draws < 1:
        raise ParameterError("draws must be at least 1")
    width = corr_set.factor.shape[-1]
    largest = max([graph.num_users * graph.num_bs * width, 1]
                  + [len(g.users + g.others + g.recorded) * len(g.users) * width for g in groups])
    size = max(1, min(CHUNK_DRAWS, CHUNK_ENTRIES // largest))
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

def _control_evaluator(power, outer, corr_set, graph, nu):
    """Evaluation of the power map ``power`` with the outer precoders
    ``outer`` ({bs: F}) on (D, K, N, 1, R) channel coefficients
    (``sample_coefficients``), and its groups. It maps a chunk to the rates,
    BS powers, worst interference-to-signal ratio and total power leaked
    onto protected users of each draw.

    Each BS n with a selection S_n is a group mapped through F_n: its served
    rows are the effective channels h_kn^H F_n that its inner RZF precoder
    (regularizer M nu) zero-forces (the outer precoders null every other
    BS, so only the serving BS interferes), and its recorded rows are the
    users blocked at n, which give what n leaks onto them. A BS spends
    sum_l p_l ||g_l||^2 over its inner beams g, F_n being semi-unitary."""
    reg = corr_set.dim * nu
    factor = corr_set.factor
    split = served_and_blocked(graph, power)
    groups = [_group(factor, (n,), users, (), blocked, [outer[n]])
              for n, (users, blocked) in enumerate(split) if users]
    powers = [np.array([power[k] for k in group.users]) for group in groups]
    protected = [k for group in groups for k in group.recorded]

    def evaluate(coefficients):
        lead = len(coefficients)
        received, bs_powers = [], np.zeros((lead, graph.num_bs))
        for group, p in zip(groups, powers):
            s = len(group.users)
            (gram,) = _grams(group, coefficients, coefficients)
            inverse = _inverse(gram[:, :s], reg)
            delivered = gram @ inverse
            received.append(p * np.abs(delivered) ** 2)
            bs_powers[:, group.bss[0]] = np.sum(p * _norms(inverse, delivered[:, :s]), axis=-1)
        rates, signal, leak, cross = _book(lead, graph.num_users, groups, received)
        worst = np.max(leak / (signal[:, protected] + 1.0), axis=-1, initial=0.0)
        return rates, bs_powers, worst, cross

    return evaluate, groups


def monte_carlo_policy(policy, outers, corr_set, graph, nu, draws, seed):
    """Empirical rates and powers of a time-sharing policy whose controls
    have the outer precoders ``outers`` (one {bs: F} per control).

    Every control is evaluated on every draw and mixed by the probabilities
    (the exact conditional average).
    """
    probs = np.asarray(policy.probs, dtype=float)
    evaluators = [_control_evaluator(power, outer, corr_set, graph, nu)
                  for power, outer in zip(policy.controls, outers, strict=True)]

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
    return _monte_carlo(draw, groups, corr_set, graph, draws, seed, POLICY_MC)


# ---------------------------------------------------------------------------
# the baselines: zero forcing per cell or cluster, near its exact limit
# ---------------------------------------------------------------------------

ZF_NU = 1e-8  # RZF regularizer, relative to the mean squared channel row norm


def _zero_forcing_limit(gram):
    """The inverse A = (G + reg I)^-1 (``_inverse``) of the beams H^H A that
    zero-force served rows H with the (D, |S|, |S|) Gram matrices G = H H^H,
    regularized by reg = ZF_NU tr(G) / |S| so that the beams stay near the
    exact zero-forcing limit whatever the channel's scale; on dependent rows
    ``_inverse`` gives the pseudo-inverse limit. A zero row gets a zero
    beam; where every row is zero, any positive regularizer gives zero
    beams, so 1 stands in for it."""
    s = gram.shape[-1]
    reg = ZF_NU * np.sum(np.diagonal(gram, axis1=-2, axis2=-1).real, axis=-1) / s
    return _inverse(gram, np.where(reg > 0, reg, 1.0))


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
    factor = corr_set.factor
    groups = []
    for n, users in enumerate(ffr_cells(graph, corr_set.dim)):
        if users:
            # the users of the other cells of n's partition share its band
            others = [k for k in range(graph.num_users)
                      if band[k] == partition[n] and graph.serving[k] != n]
            groups.append(_group(factor, (n,), users, others, ()))
    powers = [np.full(len(group.users), p_c / len(group.users)) for group in groups]

    def draw(coefficients):
        lead = len(coefficients)
        received, bs_powers = [], np.zeros((lead, graph.num_bs))
        for group, p in zip(groups, powers):
            s = len(group.users)
            (gram,) = _grams(group, coefficients, coefficients)
            inverse = _zero_forcing_limit(gram[:, :s])
            delivered = gram @ inverse
            norms = _norms(inverse, delivered[:, :s])
            # unit-norm beams; a user without channel keeps its zero beam
            unit = p * np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
            received.append(unit[:, None] * np.abs(delivered) ** 2)
            bs_powers[:, group.bss[0]] = np.sum(p * (norms > 0), axis=-1)
        rates, _, _, cross = _book(lead, graph.num_users, groups, received)
        return rates / reuse_partitions, bs_powers, None, cross

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
    factor = corr_set.factor
    groups = []
    for c, users in enumerate(comp_clusters(graph, corr_set.dim, cluster_size)):
        if users:
            bss = range(c * cluster_size, (c + 1) * cluster_size)
            others = sorted(set(range(graph.num_users)) - set(users))
            groups.append(_group(factor, bss, users, others, ()))
    # the AR(1) innovation has a stream of its own, so every delay_rho sees
    # the same true channels and delay_rho = 1 never reads it
    innovation = derive_rng(seed, COMP_MC, 1)

    def draw(coefficients):
        lead = len(coefficients)
        outdated = coefficients
        if delay_rho < 1.0:
            stale = sample_coefficients(corr_set, innovation, lead)
            outdated = delay_rho * coefficients + np.sqrt(1.0 - delay_rho**2) * stale
        # each cluster zero-forces its users' outdated rows, and a BS only
        # carries its cluster's beams, so its unit load is the squared norm
        # of its block of them
        unit_received, unit_load = [], np.zeros((lead, graph.num_bs))
        for group in groups:
            s = len(group.users)
            grams = _grams(group, coefficients, outdated)
            served = [g[:, :s] for g in grams] if outdated is coefficients else \
                _grams(group, outdated, outdated, users_only=True)
            inverse = _zero_forcing_limit(sum(served))
            unit_received.append(np.abs(sum(grams) @ inverse) ** 2)
            for n, g in zip(group.bss, served):
                unit_load[:, n] = np.sum(_norms(inverse, g @ inverse), axis=-1)
        # one power per cluster, scaled so that its most loaded BS spends p_c
        # (0 for a cluster without users or without channels)
        most_loaded = np.max(unit_load.reshape(lead, -1, cluster_size), axis=-1)
        scale = np.divide(p_c, most_loaded, out=np.zeros_like(most_loaded), where=most_loaded > 0)
        received = [scale[:, group.bss[0] // cluster_size, None, None] * u
                    for group, u in zip(groups, unit_received)]
        rates, _, _, cross = _book(lead, graph.num_users, groups, received)
        return rates, unit_load * np.repeat(scale, cluster_size, axis=-1), None, cross

    return _monte_carlo(draw, groups, corr_set, graph, draws, seed, COMP_MC)
