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
)
from .rng import COMP_MC, FFR_MC, POLICY_MC, derive_seed_sequence
from .scheduler import de_rate_vector

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
    """One realization of every link channel, fixed (user, bs) order."""
    return {
        (k, n): sample_channel(corr_set.matrix(k, n), rng)
        for k in range(corr_set.num_users)
        for n in range(corr_set.num_bs)
    }


def _evaluate_control(control, channels, graph, nu):
    """Rates, powers, worst interference-to-signal ratio for one realization."""
    num_users, num_bs = graph.num_users, graph.num_bs
    inner = inner_precoders(control, channels, nu)
    rates = np.zeros(num_users)
    powers = np.zeros(num_bs)
    sel = set(control.selected_union)
    signal = {}
    for n, users in control.selected.items():
        powers[n] = transmit_power(control, channels, n, nu, inner=inner)
        if not users:
            continue
        beams = control.outer[n] @ inner[n]
        for idx, k in enumerate(users):
            rates[k] = instantaneous_rate(k, control, channels, nu, inner=inner)
            h = channels[(k, n)]
            signal[k] = control.power[k] * float(np.abs(h.conj() @ beams[:, idx]) ** 2)
    worst_ratio = 0.0
    cross_total = 0.0
    for n in range(num_bs):
        for k in graph.neighbor_users[n]:
            if k not in sel:
                continue
            leak = cross_interference_power(control, channels, k, n, inner=inner)
            cross_total += leak
            worst_ratio = max(worst_ratio, leak / (signal.get(k, 0.0) + 1.0))
    return rates, powers, worst_ratio, cross_total


def monte_carlo_policy(
    policy, corr_set, graph, nu, draws, seed, mode="mixture", gain_cache=None
):
    """Empirical rates and powers of a time-sharing policy.

    mode="mixture" evaluates every control on every draw and mixes by the
    probabilities (exact conditional average); mode="sample" draws the
    active control per time slot from q.
    """
    if draws < 1:
        raise ParameterError("draws must be at least 1")
    if mode not in ("mixture", "sample"):
        raise ParameterError(f"unknown mode {mode!r}")
    children = derive_seed_sequence(seed, POLICY_MC).spawn(draws)
    num_users, num_bs = graph.num_users, graph.num_bs
    rate_samples = np.zeros((draws, num_users))
    power_samples = np.zeros((draws, num_bs))
    worst_ratio = 0.0
    cross_sum = 0.0
    probs = np.asarray(policy.probs, dtype=float)
    for i in range(draws):
        # separate streams for the channel draw and the control pick so both
        # modes see identical channels under one seed
        chan_ss, pick_ss = children[i].spawn(2)
        rng = np.random.default_rng(chan_ss)
        if mode == "sample":
            j = int(np.random.default_rng(pick_ss).choice(len(policy.controls), p=probs))
        channels = draw_channels(corr_set, rng)
        if mode == "mixture":
            for q, control in zip(probs, policy.controls):
                rates, powers, ratio, cross = _evaluate_control(control, channels, graph, nu)
                rate_samples[i] += q * rates
                power_samples[i] += q * powers
                worst_ratio = max(worst_ratio, ratio)
                cross_sum += q * cross
        else:
            rates, powers, ratio, cross = _evaluate_control(
                policy.controls[j], channels, graph, nu
            )
            rate_samples[i] = rates
            power_samples[i] = powers
            worst_ratio = max(worst_ratio, ratio)
            cross_sum += cross

    cache = gain_cache or GainCache(corr_set, graph, nu)
    de_rates = np.zeros(num_users)
    de_powers = np.zeros(num_bs)
    for q, control in zip(probs, policy.controls):
        de = de_rate_power(control, corr_set, graph, nu, cache)
        de_rates += q * de_rate_vector(control, num_users)
        de_powers += q * de.powers

    rate_mean = rate_samples.mean(axis=0)
    power_mean = power_samples.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate_err = np.where(de_rates > 0, np.abs(rate_mean - de_rates) / de_rates, np.nan)
        power_err = np.where(de_powers > 0, np.abs(power_mean - de_powers) / de_powers, np.nan)
    return MonteCarloReport(
        user_rate_mean=rate_mean,
        user_rate_stderr=_stderr(rate_samples),
        bs_power_mean=power_mean,
        bs_power_stderr=_stderr(power_samples),
        draws=draws,
        seed=int(seed),
        de_rates=de_rates,
        de_powers=de_powers,
        rate_rel_err=rate_err,
        power_rel_err=power_err,
        max_interference_ratio=worst_ratio,
        mean_cross_interference=cross_sum / draws,
    )


# ---------------------------------------------------------------------------
# baseline 1: per-cell zero forcing under fractional frequency reuse
# ---------------------------------------------------------------------------

ZF_NU = 1e-8  # RZF regularizer standing in for the exact zero-forcing limit


def _bs_partition(graph, reuse_partitions):
    """Fixed greedy coloring of the BS adjacency induced by shared users,
    folded onto the requested number of partitions."""
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
    return {n: color[n] % reuse_partitions for n in range(graph.num_bs)}


def ffr_baseline(corr_set, graph, nu, p_c, reuse_partitions, draws, seed):
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
                f"cell {n} serves {len(graph.assoc_users[n])} users with {m} antennas"
            )
    partition = _bs_partition(graph, reuse_partitions)
    children = derive_seed_sequence(seed, FFR_MC).spawn(draws)
    num_users, num_bs = graph.num_users, graph.num_bs
    rate_samples = np.zeros((draws, num_users))
    power_samples = np.zeros((draws, num_bs))
    cross_sum = 0.0
    for i in range(draws):
        rng = np.random.default_rng(children[i])
        channels = draw_channels(corr_set, rng)
        beams = {}
        power = {}
        for n in range(num_bs):
            users = graph.assoc_users[n]
            if not users:
                continue
            h = np.stack([channels[(k, n)].conj() for k in users], axis=0)
            g = np.linalg.solve(h.conj().T @ h + m * ZF_NU * np.eye(m), h.conj().T)
            g = g / np.linalg.norm(g, axis=0, keepdims=True)
            beams[n] = g
            power[n] = p_c / len(users)
            power_samples[i, n] = p_c
        for n in range(num_bs):
            users = graph.assoc_users[n]
            for idx, k in enumerate(users):
                h = channels[(k, n)]
                gains = np.abs(h.conj() @ beams[n]) ** 2
                sig = power[n] * gains[idx]
                intra = power[n] * (np.sum(gains) - gains[idx])
                inter = 0.0
                for other in range(num_bs):
                    if other == n or partition[other] != partition[n]:
                        continue
                    if other not in beams:
                        continue
                    hh = channels[(k, other)]
                    inter += power[other] * float(np.sum(np.abs(hh.conj() @ beams[other]) ** 2))
                cross_sum += inter
                rate_samples[i, k] = np.log1p(sig / (intra + inter + 1.0)) / reuse_partitions
    return MonteCarloReport(
        user_rate_mean=rate_samples.mean(axis=0),
        user_rate_stderr=_stderr(rate_samples),
        bs_power_mean=power_samples.mean(axis=0),
        bs_power_stderr=_stderr(power_samples),
        draws=draws,
        seed=int(seed),
        mean_cross_interference=cross_sum / draws,
    )


# ---------------------------------------------------------------------------
# baseline 2: clustered cooperative zero forcing with CSI delay
# ---------------------------------------------------------------------------

def comp_baseline(corr_set, graph, nu, p_c, cluster_size, draws, seed, delay_rho=1.0):
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
            f"cluster_size {cluster_size} does not divide {graph.num_bs} BSs"
        )
    if not (0.0 <= delay_rho <= 1.0):
        raise ParameterError("delay_rho must lie in [0, 1]")
    m = corr_set.dim
    clusters = [
        tuple(range(c * cluster_size, (c + 1) * cluster_size))
        for c in range(graph.num_bs // cluster_size)
    ]
    members = {c: [k for n in bss for k in graph.assoc_users[n]] for c, bss in enumerate(clusters)}
    for c, bss in enumerate(clusters):
        if len(members[c]) > cluster_size * m:
            raise ValidationError(
                f"cluster {c} serves {len(members[c])} users with {cluster_size * m} antennas"
            )
    children = derive_seed_sequence(seed, COMP_MC).spawn(draws)
    num_users, num_bs = graph.num_users, graph.num_bs
    rate_samples = np.zeros((draws, num_users))
    power_samples = np.zeros((draws, num_bs))
    cross_sum = 0.0
    for i in range(draws):
        rng = np.random.default_rng(children[i])
        channels = draw_channels(corr_set, rng)
        stale = draw_channels(corr_set, rng)  # independent AR(1) innovation

        def stacked(k, bss, source):
            return np.concatenate([source[(k, n)] for n in bss])

        beams = {}
        upower = {}
        for c, bss in enumerate(clusters):
            users = members[c]
            if not users:
                continue
            rows = []
            for k in users:
                true_h = stacked(k, bss, channels)
                indep = stacked(k, bss, stale)
                outdated = delay_rho * true_h + np.sqrt(1.0 - delay_rho**2) * indep
                rows.append(outdated.conj())
            h_csi = np.stack(rows, axis=0)
            v = np.linalg.pinv(h_csi)  # (cluster_size*m) x |users|
            per_bs = np.stack(
                [
                    np.sum(np.abs(v[j * m : (j + 1) * m, :]) ** 2, axis=0)
                    for j in range(len(bss))
                ],
                axis=0,
            )
            scale = p_c / float(np.max(np.sum(per_bs, axis=1)))
            p = np.full(len(users), scale)
            beams[c] = v
            upower[c] = p
            for j, n in enumerate(bss):
                power_samples[i, n] = float(per_bs[j] @ p)
        for c, bss in enumerate(clusters):
            users = members[c]
            if not users:
                continue
            v, p = beams[c], upower[c]
            for idx, k in enumerate(users):
                h_true = stacked(k, bss, channels)
                gains = np.abs(h_true.conj() @ v) ** 2
                sig = p[idx] * gains[idx]
                intra = float(np.sum(p * gains)) - p[idx] * gains[idx]
                inter = 0.0
                for c2, bss2 in enumerate(clusters):
                    if c2 == c or not members[c2]:
                        continue
                    h2 = stacked(k, bss2, channels)
                    inter += float(np.sum(upower[c2] * np.abs(h2.conj() @ beams[c2]) ** 2))
                cross_sum += inter
                rate_samples[i, k] = np.log1p(sig / (intra + inter + 1.0))
    return MonteCarloReport(
        user_rate_mean=rate_samples.mean(axis=0),
        user_rate_stderr=_stderr(rate_samples),
        bs_power_mean=power_samples.mean(axis=0),
        bs_power_stderr=_stderr(power_samples),
        draws=draws,
        seed=int(seed),
        mean_cross_interference=cross_sum / draws,
    )
