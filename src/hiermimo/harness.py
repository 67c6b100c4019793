"""Monte Carlo validation and baseline schemes.

Validates the deterministic equivalents against sampled channels and runs
two reference schemes: per-cell zero forcing under fractional frequency
reuse, and clustered cooperative zero forcing with an optional AR(1) CSI
delay. Draws use per-index derived seeds, so results do not depend on the
order in which draws are evaluated.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .corrmat import sample_channel
from .det_equiv import GainCache, de_rate_power
from .errors import ParameterError, ValidationError
from .precoder import (
    cross_interference_power,
    inner_precoders,
    instantaneous_rate,
    transmit_power,
    zero_forcing,
)
from .rng import COMP_MC, FFR_MC, POLICY_MC, derive_seed_sequence
from .topology import scheduled_neighbors

log = logging.getLogger(__name__)


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


def draw_channels(corr_set, rng):
    """One realization of every link channel: a (K, N, M) array."""
    return sample_channel(corr_set, rng)


def _layout(blocks, num_users, num_bs, m):
    """Beams of ``blocks`` as one (N, M, L) array.

    Each block is (bss, users, v): v holds the beams of ``users``, one
    column each, over the stacked antennas of the BSs ``bss``; the rows of
    every other BS stay zero. Also returns the K x L mask of each user's own
    beam and the first BS of ``bss`` for every beam.
    """
    beam_user = np.array([k for _, users, _ in blocks for k in users], dtype=int)
    beam_bs = np.array([bss[0] for bss, users, _ in blocks for _ in users], dtype=int)
    beams = np.zeros((num_bs, m, beam_user.size), dtype=complex)
    start = 0
    for bss, users, v in blocks:
        beams[list(bss), :, start : start + len(users)] = v.reshape(len(bss), m, len(users))
        start += len(users)
    return beams, np.arange(num_users)[:, None] == beam_user, beam_bs


def _evaluate_control(control, channels, graph, nu):
    """Rates, powers, worst interference-to-signal ratio and total power
    leaked onto protected users for one realization."""
    inner = inner_precoders(control, channels, nu)
    blocks = [((n,), users, control.outer[n] @ inner[n]) for n, users in control.selected.items()]
    beams, own, beam_bs = _layout(blocks, graph.num_users, graph.num_bs, channels.shape[2])
    power = np.array([control.power[k] for _, users, _ in blocks for k in users])
    received = cross_interference_power(channels, beams, power)
    serving = np.array([graph.serving[k] for k in range(graph.num_users)])
    # the outer precoders null every other BS, so only the serving BS interferes
    rates = instantaneous_rate(received, own, (serving[:, None] == beam_bs) & ~own)
    protected = np.zeros((graph.num_users, graph.num_bs), dtype=bool)
    for n, blocked in scheduled_neighbors(graph, control.selected_union).items():
        protected[list(blocked), n] = True
    per_bs = received @ (beam_bs[:, None] == np.arange(graph.num_bs))  # K x N
    signal = np.sum(received, axis=1, where=own)
    ratio = (per_bs / (signal[:, None] + 1.0))[protected]
    worst = float(np.max(ratio, initial=0.0))
    return rates, transmit_power(beams, power), worst, float(np.sum(per_bs[protected]))


def _monte_carlo(draw, graph, draws, seed, tag):
    """Report of ``draws`` realizations of one scheme: ``draw`` maps each
    draw's seed sequence, spawned from (seed, tag), to its user rates, BS powers,
    worst interference ratio (None if untracked) and cross interference."""
    if draws < 1:
        raise ParameterError("draws must be at least 1")
    rate_samples = np.zeros((draws, graph.num_users))
    power_samples = np.zeros((draws, graph.num_bs))
    ratios = []
    cross_sum = 0.0
    for i, child in enumerate(derive_seed_sequence(seed, tag).spawn(draws)):
        rate_samples[i], power_samples[i], ratio, cross = draw(child)
        ratios.append(ratio)
        cross_sum += cross
    return MonteCarloReport(
        user_rate_mean=rate_samples.mean(axis=0),
        user_rate_stderr=_stderr(rate_samples),
        bs_power_mean=power_samples.mean(axis=0),
        bs_power_stderr=_stderr(power_samples),
        draws=draws,
        seed=int(seed),
        max_interference_ratio=None if ratios[0] is None else max(ratios),
        mean_cross_interference=cross_sum / draws,
    )


def monte_carlo_policy(policy, corr_set, graph, nu, draws, seed, gain_cache=None):
    """Empirical rates and powers of a time-sharing policy.

    Every control is evaluated on every draw and mixed by the probabilities
    (the exact conditional average).
    """
    probs = np.asarray(policy.probs, dtype=float)

    def draw(child):
        # the channels come from the first of two child streams: drawing
        # them from the child itself would move every Monte Carlo result
        chan_ss, _ = child.spawn(2)
        channels = draw_channels(corr_set, np.random.default_rng(chan_ss))
        rates, powers = np.zeros(graph.num_users), np.zeros(graph.num_bs)
        worst = cross = 0.0
        for q, control in zip(probs, policy.controls):
            r, p, ratio, c = _evaluate_control(control, channels, graph, nu)
            rates += q * r
            powers += q * p
            worst = max(worst, ratio)
            cross += q * c
        return rates, powers, worst, cross

    report = _monte_carlo(draw, graph, draws, seed, POLICY_MC)
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
# baseline 1: per-cell zero forcing under fractional frequency reuse
# ---------------------------------------------------------------------------

ZF_NU = 1e-8  # RZF regularizer, relative to the mean squared channel row norm


def _zero_forcing_limit(rows):
    """Zero-forcing beams of the channel ``rows``, regularized by ZF_NU
    tr(H H^H) / |S| so that the beams stay near the exact zero-forcing limit
    whatever the channel's scale."""
    return zero_forcing(rows, ZF_NU * np.vdot(rows, rows).real / rows.shape[0])


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


def ffr_baseline(corr_set, graph, p_c, reuse_partitions, draws, seed):
    """Per-cell ZF with the band split across reuse partitions.

    Each cell serves all its associated users on its partition with equal
    power and unit-norm ZF beams; co-partition cells interfere, the rest are
    silent. Rates carry the 1/partitions bandwidth share.
    """
    if reuse_partitions < 1:
        raise ParameterError("reuse_partitions must be at least 1")
    m = corr_set.dim
    for n in range(graph.num_bs):
        if len(graph.assoc_users[n]) > m:
            raise ValidationError(
                f"ffr_baseline: cell {n} serves {len(graph.assoc_users[n])} users with {m} antennas"
            )
    partition = _bs_partition(graph, reuse_partitions)
    load = np.array([len(graph.assoc_users[n]) for n in range(graph.num_bs)])
    serving = np.array([graph.serving[k] for k in range(graph.num_users)])

    def draw(child):
        channels = draw_channels(corr_set, np.random.default_rng(child))
        blocks = []
        for n, users in graph.assoc_users.items():
            if users:
                g = _zero_forcing_limit(channels[list(users), n].conj())
                blocks.append(((n,), users, g / np.linalg.norm(g, axis=0, keepdims=True)))
        beams, own, beam_bs = _layout(blocks, graph.num_users, graph.num_bs, m)
        power = p_c / load[beam_bs]
        received = cross_interference_power(channels, beams, power)
        # the user's own cell and the other cells of its partition share its band
        band = partition[serving][:, None] == partition[beam_bs]
        rates = instantaneous_rate(received, own, band & ~own) / reuse_partitions
        cross = float(np.sum(received, where=band & (serving[:, None] != beam_bs)))
        return rates, transmit_power(beams, power), None, cross

    return _monte_carlo(draw, graph, draws, seed, FFR_MC)


# ---------------------------------------------------------------------------
# baseline 2: clustered cooperative zero forcing with CSI delay
# ---------------------------------------------------------------------------

def comp_baseline(corr_set, graph, p_c, cluster_size, draws, seed, delay_rho=1.0):
    """Cooperative ZF across fixed clusters of consecutive BSs.

    Precoders come from the (possibly outdated) channel rho * h +
    sqrt(1 - rho^2) * h_indep while rates use the true h. Every user in a
    cluster gets the same power coefficient, scaled so the most loaded BS
    transmits exactly p_c (the others stay below the budget).
    """
    if cluster_size < 1:
        raise ParameterError("cluster_size must be at least 1")
    if graph.num_bs % cluster_size != 0:
        raise ValidationError(
            f"comp_baseline: cluster_size {cluster_size} does not divide {graph.num_bs} BSs"
        )
    if not (0.0 <= delay_rho <= 1.0):
        raise ParameterError("delay_rho must lie in [0, 1]")
    m = corr_set.dim
    clusters = [
        tuple(range(c * cluster_size, (c + 1) * cluster_size))
        for c in range(graph.num_bs // cluster_size)
    ]
    members = [[k for n in bss for k in graph.assoc_users[n]] for bss in clusters]
    for c, users in enumerate(members):
        if len(users) > cluster_size * m:
            raise ValidationError(
                f"comp_baseline: cluster {c} serves {len(users)} users "
                f"with {cluster_size * m} antennas"
            )
    serving = np.array([graph.serving[k] for k in range(graph.num_users)])

    def draw(child):
        rng = np.random.default_rng(child)
        channels = draw_channels(corr_set, rng)
        outdated = channels
        if delay_rho < 1.0:
            # independent AR(1) innovation; it is the stream's last draw, so
            # skipping it where it is weighted 0 moves no other draw
            stale = draw_channels(corr_set, rng)
            outdated = delay_rho * channels + np.sqrt(1.0 - delay_rho**2) * stale
        # each cluster zero-forces its users' outdated channels, stacked over its BSs
        blocks = []
        for bss, users in zip(clusters, members):
            if users:
                rows = outdated[np.ix_(users, bss)].reshape(len(users), -1).conj()
                blocks.append((bss, users, _zero_forcing_limit(rows)))
        beams, own, beam_bs = _layout(blocks, graph.num_users, graph.num_bs, m)
        # one power per cluster, scaled so that its most loaded BS spends p_c
        unit_load = transmit_power(beams, np.ones(beams.shape[2]))
        power = p_c / np.max(unit_load.reshape(-1, cluster_size), axis=1)[beam_bs // cluster_size]
        received = cross_interference_power(channels, beams, power)
        other_cluster = (serving // cluster_size)[:, None] != beam_bs // cluster_size
        cross = float(np.sum(received, where=other_cluster))
        return instantaneous_rate(received, own, ~own), transmit_power(beams, power), None, cross

    return _monte_carlo(draw, graph, draws, seed, COMP_MC)
