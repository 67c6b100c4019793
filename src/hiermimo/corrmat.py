"""Spatial correlation matrices and channel sampling.

A link between a base station and a user is described by an M x M Hermitian
PSD correlation matrix whose trace equals M times the link path gain. It is
stored as its M x r factor F, C = F F^H, whose columns sqrt(lambda) v are the
eigenpairs above the numerical-rank threshold, and a network's factors as one
zero-padded array (``CorrelationSet``); the dense matrix is formed only to
write a network to a file and to read one back (``from_dense``).
Instantaneous channels are drawn in the factor's coordinates, h = F w with w
i.i.d. CN(0, 1) of length r (the Karhunen-Loeve form), so E[h h^H] = C and a
draw reads 2r normals, not 2M.
"""

import numpy as np

from .errors import ParameterError, ValidationError
from .rng import CORRELATION, as_rng, derive_rng

# eigenvalues below RANK_TOL * lambda_max count as numerically zero
RANK_TOL = 1e-9
HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
# users of one cluster share their normalized correlations to this relative gap
CLUSTER_TOL = 1e-12
# users and hotspots keep at least this distance from their cell's BS
MIN_DIST_M = 35.0


def from_dense(entries):
    """The M x r factor F of a dense M x M correlation matrix read from
    outside the program: its eigenpairs above the numerical-rank threshold,
    as columns sqrt(lambda) v. ValidationError unless the entries are finite
    and the matrix is Hermitian and PSD."""
    a = np.asarray(entries, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValidationError("entries are not all finite")
    w, v = np.linalg.eigh(a)
    scale = max(float(w[-1]), abs(float(w[0])))
    herm_err = float(np.max(np.abs(a - a.conj().T)))
    if scale > 0 and herm_err > HERMITIAN_TOL * scale:
        raise ValidationError(f"not Hermitian: deviation {herm_err:.3e}")
    if scale > 0 and float(w[0]) < -PSD_TOL * scale:
        raise ValidationError(f"not PSD: min eigenvalue {w[0]:.3e}")
    keep = w > RANK_TOL * max(float(w[-1]), 0.0)
    return v[:, keep] * np.sqrt(w[keep])


def _gaussian(m, rank, seed):
    """M x rank i.i.d. unit complex Gaussian entries, from M rank real
    normals, then M rank imaginary ones."""
    rng = as_rng(seed)
    return (rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))) / np.sqrt(2.0)


def _trace_scaled_factors(a, path_gain):
    """F = U S scaled to trace(F F^H) = M path_gain, for the thin SVD A = U S
    W^H of each M x r matrix of the stack ``a``: the eigenpairs of A A^H are
    (s^2, u). (The r x r eigenproblem of A^H A would be cheaper but squares
    A's condition number: at rank = M its basis lost orthonormality to
    1.2e-12.) A stacked SVD gives every matrix bitwise the factor of its own
    call."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    u *= s[..., None, :]
    u *= np.sqrt(path_gain * a.shape[-2] / np.sum(s**2, axis=-1))[..., None, None]
    return u


def path_gain_log_distance(distance_m, exponent=3.76, ref_gain_db=0.0):
    """Linear path gain 10^((ref_gain_db - 10 exponent log10(d)) / 10).

    ref_gain_db is the noise-referenced gain at 1 m, i.e. it folds the
    transmit-power / noise-floor normalization into the link budget.
    """
    if distance_m <= 0:
        raise ParameterError("distance_m must be positive")
    return 10.0 ** ((ref_gain_db - 10.0 * exponent * np.log10(distance_m)) / 10.0)


def sample_coefficients(corr_set, seed, count=None):
    """The coefficients of ``sample_channel``: w i.i.d. CN(0, 1), the (K, N,
    1, R) rows of every link, R the width of ``corr_set.factor``, from one
    (K, N, 2, R) block of normals, R real then R imaginary per link, w = (x
    + i y) / sqrt(2). Deterministic per seed.

    A ``count`` gives that many draws along a leading axis from one fill of
    the generator: the same array as ``count`` consecutive lone calls on it.
    """
    factor = corr_set.factor
    lead = () if count is None else (count,)
    normals = as_rng(seed).standard_normal(lead + factor.shape[:-2] + (2, factor.shape[-1]))
    scale = 1.0 / np.sqrt(2.0)
    w = np.empty(normals.shape[:-2] + (1, factor.shape[-1]), dtype=complex)
    np.multiply(normals[..., 0, None, :], scale, out=w.real)
    np.multiply(normals[..., 1, None, :], scale, out=w.imag)
    return w


def link_channels(corr_set, coefficients):
    """Channels h = F w of ``sample_coefficients`` rows, (..., K, N, M): the
    zero-padded factor gives a link of rank r < R only its first r
    coefficients and a rank-0 link exactly 0."""
    return (coefficients @ corr_set.factor.swapaxes(-1, -2))[..., 0, :]


def sample_channel(corr_set, seed, count=None):
    """Draw h = F w for every link, w the ``sample_coefficients`` of
    ``seed``, so E[h h^H] = F F^H = C: the (K, N, M) channels, with a
    leading axis of ``count`` draws when given."""
    return link_channels(corr_set, sample_coefficients(corr_set, seed, count))


class CorrelationSet:
    """Every link's correlation in one array, with each user's serving BS
    and sub-area cluster.

    ``factor`` is (K, N, M, R): link (k, n) has C = F F^H for its factor F =
    ``link(k, n)``, the view factor[k, n, :, :rank[k, n]] of orthogonal
    columns sqrt(lambda) v, one per eigenpair of C, zero-padded to the widest
    rank R. The constructor drops the columns below the numerical-rank
    threshold of their link (not just zero ones: sub-rank junk of order
    eps*lambda_max would otherwise enter the square root at sqrt(eps)
    amplitude and push sampled channels measurably outside the rank's span),
    keeping the others in their order; where it drops none, the set holds
    the given array itself, not a copy. It derives three (K, N) arrays once:
    ``rank``; ``trace``, tr C = M times the path gain; and ``label``, the
    lowest user whose link to the BS has bitwise the same factor, so that the
    members of a hotspot share one label. ``serving`` maps each user to its
    BS; None serves each by its strongest link (the argmax of ``trace``,
    ties to the lowest BS). ``cluster_ids`` maps each user to its cluster.
    """

    def __init__(self, factor, serving, cluster_ids):
        factor = np.asarray(factor, dtype=complex)
        power = np.sum(np.abs(factor) ** 2, axis=-2)  # the eigenvalues lambda
        keep = power > RANK_TOL * np.max(power, axis=-1, keepdims=True, initial=0.0)
        self.rank = np.count_nonzero(keep, axis=-1)
        if not keep.all():
            # each link's kept columns first, in their order, then zeroed
            # ones, up to the widest rank
            order = np.argsort(~keep, axis=-1, kind="stable")[..., : self.rank.max(initial=0)]
            kept = np.where(keep[..., None, :], factor, 0.0)
            factor = np.take_along_axis(kept, order[..., None, :], axis=-1)
        self.factor = factor
        self.trace = np.sum(np.abs(factor) ** 2, axis=(-2, -1))
        self.label = np.empty(self.trace.shape, dtype=int)
        for n in range(self.num_bs):
            first = {}
            for k in range(self.num_users):
                self.label[k, n] = first.setdefault(self.factor[k, n].tobytes(), k)
        if serving is None:
            serving = dict(enumerate(np.argmax(self.trace, axis=1).tolist()))
        self.serving = serving
        self.cluster_ids = cluster_ids

    @property
    def num_users(self):
        return self.factor.shape[0]

    @property
    def num_bs(self):
        return self.factor.shape[1]

    @property
    def dim(self):
        return self.factor.shape[2]

    def link(self, user, bs):
        """The M x r factor of one link, a view of ``factor``."""
        return self.factor[user, bs, :, : self.rank[user, bs]]

    def validate(self):
        """ValidationError unless every link's factor has orthogonal columns
        and every user a serving BS of the network; the set otherwise."""
        # C = F F^H is PSD by construction; its eigenpairs are F's columns
        # only when those are orthogonal
        gram = np.abs(self.factor.conj().swapaxes(-1, -2) @ self.factor)
        width = gram.shape[-1]
        scale = np.max(np.diagonal(gram, axis1=-2, axis2=-1), axis=-1, initial=0.0)
        skew = np.max(gram * ~np.eye(width, dtype=bool), axis=(-2, -1), initial=0.0)
        bad = np.argwhere(skew > PSD_TOL * scale)
        if len(bad):
            k, n = bad[0]
            raise ValidationError(
                f"factor columns of link ({k}, {n}) are not orthogonal: deviation {skew[k, n]:.3e}"
            )
        for k in range(self.num_users):
            if not (0 <= self.serving.get(k, -1) < self.num_bs):
                raise ValidationError(f"user {k} has no valid serving BS")
        return self


def _check_clusters(corr_set):
    """ValidationError unless users sharing a cluster share the normalized
    correlation C / g, g = tr C / M, at every BS."""
    def normalized(k, n):
        gain = corr_set.trace[k, n] / corr_set.dim
        return corr_set.link(k, n) / np.sqrt(gain) if gain > 0 else corr_set.link(k, n)

    first = {}
    for k in range(corr_set.num_users):
        ref = first.setdefault(corr_set.cluster_ids[k], k)
        if ref == k:
            continue
        for n in range(corr_set.num_bs):
            if not _same_normalized(normalized(ref, n), normalized(k, n)):
                raise ValidationError(
                    f"users {ref} and {k} share cluster but not matrices at BS {n}"
                )


def _same_normalized(fa, fb):
    """Whether the normalized F_a F_a^H and F_b F_b^H agree to CLUSTER_TOL
    relative.

    With the factors side by side, [F_a F_b] = Q [R_a R_b], the gap F_a F_a^H
    - F_b F_b^H equals Q (R_a R_a^H - R_b R_b^H) Q^H, so its Frobenius norm
    is that of a (r_a + r_b)-square matrix.
    """
    r = np.linalg.qr(np.concatenate([fa, fb], axis=1), mode="r")
    ra, rb = r[:, : fa.shape[1]], r[:, fa.shape[1]:]
    na = ra @ ra.conj().T
    gap = float(np.linalg.norm(na - rb @ rb.conj().T))
    return gap <= CLUSTER_TOL * max(float(np.linalg.norm(na)), 1.0)


def _cluster_factors(seed, clusters, num_bs, m, rank):
    """The (C, N, M, rank) normalized factors of the ``clusters`` at every
    BS, each drawn from its own stream (seed, CORRELATION, 1, cluster, bs)
    and factored in one stacked SVD."""
    draws = np.empty((len(clusters), num_bs, m, rank), dtype=complex)
    for i, cluster in enumerate(clusters):
        for n in range(num_bs):
            draws[i, n] = _gaussian(m, rank, derive_rng(seed, CORRELATION, 1, cluster, n))
    return _trace_scaled_factors(draws, 1.0)


def build_hotspot_network(
    num_bs,
    num_users,
    m,
    rank,
    seed,
    inter_site_m=500.0,
    hotspots_per_cell=2,
    hotspot_fraction=2.0 / 3.0,
    pathloss_exponent=3.76,
    ref_gain_db=90.0,
):
    """Generate a line-of-cells network with clustered user hotspots.

    Base stations sit on a line, inter_site_m apart. Each cell owns
    hotspots_per_cell hotspots placed uniformly inside the cell disc; a
    hotspot_fraction share of the cell's users sit at hotspot centers and
    share one correlation matrix per BS (the local-clustering assumption),
    the rest get independent matrices at their own positions. Normalized
    matrices are random rank-limited Gram matrices, stored as factors and
    scaled by sqrt(gain); gains follow the log-distance model. Users and
    hotspots keep MIN_DIST_M from their cell's BS.
    """
    if num_bs < 1 or num_users < 1:
        raise ParameterError("need at least one BS and one user")
    if not inter_site_m > 2.0 * MIN_DIST_M:
        # the cell disc (radius inter_site_m / 2) must reach past MIN_DIST_M,
        # or the rejection sampler below never returns
        raise ParameterError(
            f"inter_site_m must exceed 2 * MIN_DIST_M = {2.0 * MIN_DIST_M!r}, "
            f"got {inter_site_m!r}"
        )
    rng = derive_rng(seed, CORRELATION, 0)
    bs_pos = np.stack([np.arange(num_bs) * inter_site_m, np.zeros(num_bs)], axis=1)
    cell_radius = inter_site_m / 2.0

    def random_point_near(center, radius, min_dist=0.0):
        while True:
            r = radius * np.sqrt(rng.uniform())
            phi = rng.uniform(0.0, 2.0 * np.pi)
            p = center + r * np.array([np.cos(phi), np.sin(phi)])
            if np.linalg.norm(p - center) >= min_dist:
                return p

    hotspot_centers = {}
    for n in range(num_bs):
        for h in range(hotspots_per_cell):
            hotspot_centers[(n, h)] = random_point_near(bs_pos[n], cell_radius, MIN_DIST_M)

    # round-robin user-to-cell assignment, hotspot users first within each cell
    cell_of = {k: k % num_bs for k in range(num_users)}
    per_cell = {n: [k for k in range(num_users) if cell_of[k] == n] for n in range(num_bs)}
    positions = {}
    cluster_of = {}
    next_free_cluster = num_bs * hotspots_per_cell
    for n in range(num_bs):
        users = per_cell[n]
        num_hot = int(round(hotspot_fraction * len(users))) if hotspots_per_cell > 0 else 0
        for i, k in enumerate(users):
            if i < num_hot:
                h = i % hotspots_per_cell
                positions[k] = hotspot_centers[(n, h)]
                cluster_of[k] = n * hotspots_per_cell + h
            else:
                positions[k] = random_point_near(bs_pos[n], cell_radius, MIN_DIST_M)
                cluster_of[k] = next_free_cluster
                next_free_cluster += 1

    # one normalized factor per (cluster, bs), each from its own stream; all
    # members share it
    clusters = sorted(set(cluster_of.values()))
    index = {cluster: i for i, cluster in enumerate(clusters)}
    factor = _cluster_factors(seed, clusters, num_bs, m, rank)
    factor = factor[[index[cluster_of[k]] for k in range(num_users)]]

    gains = np.empty((num_users, num_bs, 1, 1))
    for k in range(num_users):
        for n in range(num_bs):
            dist = max(float(np.linalg.norm(positions[k] - bs_pos[n])), 1.0)
            gains[k, n] = path_gain_log_distance(dist, pathloss_exponent, ref_gain_db)
    factor *= np.sqrt(gains)
    # each user is served by its strongest link, which is the intended cell
    # except for users near a cell border
    return CorrelationSet(factor, None, cluster_of).validate()


def dump_correlation_set(corr_set, path):
    """Plain-text dump: header "M N K", serving row, cluster row, then one
    row-major line of "re,im" tokens per (user, bs) matrix in (k, n) order."""
    lines = [f"{corr_set.dim} {corr_set.num_bs} {corr_set.num_users}"]
    lines.append(" ".join(str(corr_set.serving[k]) for k in range(corr_set.num_users)))
    lines.append(" ".join(str(corr_set.cluster_ids[k]) for k in range(corr_set.num_users)))
    for k in range(corr_set.num_users):
        for n in range(corr_set.num_bs):
            f = corr_set.link(k, n)
            flat = (f @ f.conj().T).reshape(-1)
            lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in flat))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_correlation_set(path):
    """Read a ``dump_correlation_set`` file; ValidationError, naming the
    link where one is at fault, when it is truncated or malformed, a matrix
    is not finite, Hermitian and PSD, or users of one cluster do not share
    their normalized matrices."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 3:
        raise ValidationError("header must hold M, the BS count and the user count")
    m, num_bs, num_users = (int(tok) for tok in header)
    if len(lines) != 3 + num_users * num_bs:
        raise ValidationError(
            f"{len(lines)} lines, want 3 + {num_users} users x {num_bs} BSs"
        )
    serving = {k: int(tok) for k, tok in enumerate(lines[1].split())}
    clusters = {k: int(tok) for k, tok in enumerate(lines[2].split())}
    if len(serving) != num_users or len(clusters) != num_users:
        raise ValidationError(f"serving and cluster rows must list {num_users} users")
    factors = {}
    row = 3
    for k in range(num_users):
        for n in range(num_bs):
            toks = lines[row].split()
            row += 1
            if len(toks) != m * m:
                raise ValidationError(f"matrix ({k},{n}) has {len(toks)} entries, want {m * m}")
            pairs = (tok.split(",") for tok in toks)
            vals = np.array([complex(float(re), float(im)) for re, im in pairs]).reshape(m, m)
            try:
                factors[(k, n)] = from_dense(vals)
            except ValidationError as exc:
                raise ValidationError(f"matrix ({k},{n}): {exc}") from None
    factor = np.zeros((num_users, num_bs, m, max(f.shape[1] for f in factors.values())),
                      dtype=complex)
    for (k, n), f in factors.items():
        factor[k, n, :, : f.shape[1]] = f
    corr_set = CorrelationSet(factor, serving, clusters).validate()
    _check_clusters(corr_set)
    return corr_set
