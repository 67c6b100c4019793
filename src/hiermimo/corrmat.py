"""Spatial correlation matrices and channel sampling.

A link between a base station and a user is described by an M x M Hermitian
PSD correlation matrix whose trace equals M times the link path gain. It is
stored as its M x r factor F, C = F F^H, whose columns sqrt(lambda) v are the
eigenpairs above the numerical-rank threshold; the dense matrix is formed
only to write a network to a file (``dense()``) and to read one back
(``CorrelationMatrix.from_dense``).
Instantaneous channels are drawn in the factor's coordinates, h = F w with w
i.i.d. CN(0, 1) of length r (the Karhunen-Loeve form), so E[h h^H] = C and a
draw reads 2r normals, not 2M.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ValidationError
from .rng import CORRELATION, as_rng, derive_rng

# eigenvalues below RANK_TOL * lambda_max count as numerically zero
RANK_TOL = 1e-9
HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
# users of one cluster share their normalized correlations to this relative gap
CLUSTER_TOL = 1e-12
# users and hotspots keep at least this distance from their cell's BS
MIN_DIST_M = 35.0


@dataclass
class CorrelationMatrix:
    """One link's spatial correlation C = F F^H with its declared rank and gain.

    ``columns`` is the factor F: orthogonal columns sqrt(lambda) v, one per
    eigenpair of C. Columns below the numerical-rank threshold are dropped on
    construction (not just zero ones): sub-rank junk of order eps*lambda_max
    would otherwise enter the square root at sqrt(eps) amplitude and push
    sampled channels measurably outside the declared rank's span.
    """

    columns: np.ndarray
    rank_hint: int
    path_gain: float
    _basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        columns = np.asarray(self.columns, dtype=complex)
        power = np.sum(np.abs(columns) ** 2, axis=0)  # the eigenvalues lambda
        keep = power > RANK_TOL * np.max(power, initial=0.0)
        self.columns = np.ascontiguousarray(columns[:, keep])
        self._basis = self.columns / np.sqrt(power[keep])

    @classmethod
    def from_dense(cls, entries, rank_hint, path_gain):
        """Factor of a dense M x M matrix read from outside the program.

        Checks that it is Hermitian and PSD, that its numerical rank is at
        most ``rank_hint`` (None takes the numerical rank, at least 1) and
        that its trace is M * path_gain; ValidationError otherwise. The
        stored gain is the trace of the stored, rank-clamped factor over M,
        which differs from ``path_gain`` by the clamped eigenvalues.
        """
        a = np.asarray(entries, dtype=complex)
        m = a.shape[0]
        if a.shape != (m, m):
            raise ValidationError("correlation matrix must be square")
        w, v = np.linalg.eigh(a)
        scale = max(float(w[-1]), abs(float(w[0])))
        herm_err = float(np.max(np.abs(a - a.conj().T)))
        if scale > 0 and herm_err > HERMITIAN_TOL * scale:
            raise ValidationError(f"not Hermitian: deviation {herm_err:.3e}")
        if scale > 0 and float(w[0]) < -PSD_TOL * scale:
            raise ValidationError(f"not PSD: min eigenvalue {w[0]:.3e}")
        keep = w > RANK_TOL * max(float(w[-1]), 0.0)
        rank = int(np.count_nonzero(keep))
        if rank_hint is None:
            rank_hint = max(rank, 1)
        if rank > rank_hint:
            raise ValidationError(f"numerical rank {rank} exceeds declared rank {rank_hint}")
        _check_trace(float(np.real(np.trace(a))), m, path_gain)
        factor = v[:, keep] * np.sqrt(w[keep])
        return cls(factor, rank_hint, float(np.sum(w[keep])) / m)

    @property
    def dim(self):
        return self.columns.shape[0]

    def trace(self):
        return float(np.sum(np.abs(self.columns) ** 2))

    def factor(self):
        """Factor F (M x r) with C = F F^H, so that C^(1/2) = F B^H."""
        return self.columns

    def basis(self):
        """Orthonormal basis B (M x r) of the column space: F with unit columns."""
        return self._basis

    def numerical_rank(self):
        return self.columns.shape[1]

    def dense(self):
        """The M x M matrix F F^H."""
        return self.columns @ self.columns.conj().T

    def validate(self):
        # C = F F^H is PSD by construction; its eigenpairs are F's columns
        # only when those are orthogonal
        gram = self.columns.conj().T @ self.columns
        scale = float(np.max(np.real(np.diagonal(gram)), initial=0.0))
        skew = float(np.max(np.abs(gram - np.diag(np.diagonal(gram))), initial=0.0))
        if skew > PSD_TOL * scale:
            raise ValidationError(f"factor columns are not orthogonal: deviation {skew:.3e}")
        if self.numerical_rank() > self.rank_hint:
            raise ValidationError(
                f"numerical rank {self.numerical_rank()} exceeds declared rank {self.rank_hint}"
            )
        _check_trace(self.trace(), self.dim, self.path_gain)
        return self


def _check_trace(tr, m, path_gain):
    target = m * path_gain
    if abs(tr - target) > TRACE_TOL * max(target, 1e-300):
        raise ValidationError(f"trace {tr!r} != M * path_gain {target!r}")


def random_clustered_correlation(m, rank, path_gain, seed):
    """Random rank-limited correlation: C = path_gain * normalize(A A^H).

    A is M x rank with i.i.d. unit complex Gaussian entries; the Gram matrix
    is rescaled so its trace equals M before applying the path gain. The
    factor comes from the thin SVD A = U S W^H: the eigenpairs of A A^H are
    (s^2, u), so F = U S scaled. (The r x r eigenproblem of A^H A would be
    cheaper but squares A's condition number: at rank = M its basis lost
    orthonormality to 1.2e-12.)
    """
    if not (1 <= rank <= m):
        raise ParameterError(f"rank must satisfy 1 <= rank <= {m}, got {rank}")
    if path_gain < 0:
        raise ParameterError("path_gain must be non-negative")
    rng = as_rng(seed)
    a = (rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))) / np.sqrt(2.0)
    if path_gain == 0.0:
        return CorrelationMatrix(np.zeros((m, 0), dtype=complex), rank, 0.0)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    scale = np.sqrt(path_gain * m / np.sum(s**2))
    return CorrelationMatrix((u * s) * scale, rank, float(path_gain))


def path_gain_log_distance(distance_m, exponent=3.76, ref_gain_db=0.0):
    """Linear path gain 10^((ref_gain_db - 10 exponent log10(d)) / 10).

    ref_gain_db is the noise-referenced gain at 1 m, i.e. it folds the
    transmit-power / noise-floor normalization into the link budget.
    """
    if distance_m <= 0:
        raise ParameterError("distance_m must be positive")
    return 10.0 ** ((ref_gain_db - 10.0 * exponent * np.log10(distance_m)) / 10.0)


def sample_coefficients(corr, seed, count=None):
    """The coefficients of ``sample_channel``: w i.i.d. CN(0, 1), one 1 x R
    row per link, R the width of ``corr.factor()`` (a CorrelationSet's
    widest rank), from R real then R imaginary normals, w = (x + i y) /
    sqrt(2). Deterministic per seed.

    A CorrelationMatrix gives one (1, r) row, a CorrelationSet the (K, N, 1,
    R) rows of every link from one (K, N, 2, R) block of normals. A
    ``count`` gives that many draws along a leading axis from one fill of
    the generator: the same array as ``count`` consecutive lone calls on it.
    """
    factor = corr.factor()
    lead = () if count is None else (count,)
    normals = as_rng(seed).standard_normal(lead + factor.shape[:-2] + (2, factor.shape[-1]))
    scale = 1.0 / np.sqrt(2.0)
    w = np.empty(normals.shape[:-2] + (1, factor.shape[-1]), dtype=complex)
    np.multiply(normals[..., 0, None, :], scale, out=w.real)
    np.multiply(normals[..., 1, None, :], scale, out=w.imag)
    return w


def link_channels(corr, coefficients):
    """Channels h = F w of ``sample_coefficients`` rows: (..., M) for a
    CorrelationMatrix, (..., K, N, M) for a CorrelationSet, whose zero-padded
    factor gives a link of rank r < R only its first r coefficients and a
    rank-0 link exactly 0."""
    return (coefficients @ corr.factor().swapaxes(-1, -2))[..., 0, :]


def sample_channel(corr, seed, count=None):
    """Draw h = F w with F from ``corr.factor()`` and w the
    ``sample_coefficients`` of ``seed``, so E[h h^H] = F F^H = C: one
    length-M channel for a CorrelationMatrix, the (K, N, M) channels of every
    link for a CorrelationSet, with a leading axis of ``count`` draws when
    given."""
    return link_channels(corr, sample_coefficients(corr, seed, count))


@dataclass
class CorrelationSet:
    """All link correlation matrices of a network plus serving assignments."""

    num_bs: int
    num_users: int
    matrices: dict  # (user, bs) -> CorrelationMatrix
    serving: dict  # user -> serving bs
    cluster_ids: dict  # user -> sub-area cluster id
    _factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # each link's factor becomes its view [k, n, :, :r] of the padded
        # array, so the set holds every factor entry once, not twice
        width = max(mat.numerical_rank() for mat in self.matrices.values())
        self._factor = np.zeros((self.num_users, self.num_bs, self.dim, width), dtype=complex)
        for (k, n), mat in self.matrices.items():
            view = self._factor[k, n, :, : mat.numerical_rank()]
            view[...] = mat.columns
            mat.columns = view

    @property
    def dim(self):
        return next(iter(self.matrices.values())).dim

    def matrix(self, user, bs):
        return self.matrices[(user, bs)]

    def factor(self):
        """Every link's ``factor()`` as one (K, N, M, R) array, zero-padded
        to the widest rank R."""
        return self._factor

    def validate(self):
        dims = set()
        for k in range(self.num_users):
            for n in range(self.num_bs):
                if (k, n) not in self.matrices:
                    raise ValidationError(f"missing correlation matrix for link ({k}, {n})")
                mat = self.matrices[(k, n)]
                mat.validate()
                dims.add(mat.dim)
        if len(dims) != 1:
            raise ValidationError(f"inconsistent antenna counts {sorted(dims)}")
        for k in range(self.num_users):
            if not (0 <= self.serving.get(k, -1) < self.num_bs):
                raise ValidationError(f"user {k} has no valid serving BS")
        # users sharing a cluster under any BS must share the normalized matrix
        by_cluster = {}
        for k in range(self.num_users):
            by_cluster.setdefault(self.cluster_ids[k], []).append(k)
        for members in by_cluster.values():
            ref = members[0]
            for k in members[1:]:
                for n in range(self.num_bs):
                    if not _same_normalized(self.matrices[(ref, n)], self.matrices[(k, n)]):
                        raise ValidationError(
                            f"users {ref} and {k} share cluster but not matrices at BS {n}"
                        )
        return self


def _same_normalized(a, b):
    """Whether C_a / g_a and C_b / g_b agree to CLUSTER_TOL relative.

    With the normalized factors side by side, [F_a F_b] = Q [R_a R_b], the
    gap F_a F_a^H - F_b F_b^H equals Q (R_a R_a^H - R_b R_b^H) Q^H, so its
    Frobenius norm is that of a (r_a + r_b)-square matrix.
    """
    fa, fb = (mat.factor() / np.sqrt(mat.path_gain) if mat.path_gain > 0 else mat.factor()
              for mat in (a, b))
    r = np.linalg.qr(np.concatenate([fa, fb], axis=1), mode="r")
    ra, rb = r[:, : fa.shape[1]], r[:, fa.shape[1]:]
    na = ra @ ra.conj().T
    gap = float(np.linalg.norm(na - rb @ rb.conj().T))
    return gap <= CLUSTER_TOL * max(float(np.linalg.norm(na)), 1.0)


def serving_from_traces(matrices, num_users, num_bs):
    """Strongest-link assignment: argmax of trace, ties to the lowest BS index."""
    serving = {}
    for k in range(num_users):
        traces = [matrices[(k, n)].trace() for n in range(num_bs)]
        serving[k] = int(np.argmax(traces))
    return serving


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
    min_dist_m=MIN_DIST_M,
):
    """Generate a line-of-cells network with clustered user hotspots.

    Base stations sit on a line, inter_site_m apart. Each cell owns
    hotspots_per_cell hotspots placed uniformly inside the cell disc; a
    hotspot_fraction share of the cell's users sit at hotspot centers and
    share one correlation matrix per BS (the local-clustering assumption),
    the rest get independent matrices at their own positions. Normalized
    matrices are random rank-limited Gram matrices, stored as factors and
    scaled by sqrt(gain); gains follow the log-distance model.
    """
    if num_bs < 1 or num_users < 1:
        raise ParameterError("need at least one BS and one user")
    if not inter_site_m > 2.0 * min_dist_m:
        # the cell disc (radius inter_site_m / 2) must reach past min_dist_m,
        # or the rejection sampler below never returns
        raise ParameterError(
            f"inter_site_m must exceed 2 * min_dist_m = {2.0 * min_dist_m!r}, "
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
            hotspot_centers[(n, h)] = random_point_near(bs_pos[n], cell_radius, min_dist_m)

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
                positions[k] = random_point_near(bs_pos[n], cell_radius, min_dist_m)
                cluster_of[k] = next_free_cluster
                next_free_cluster += 1

    # one normalized factor per (cluster, bs); all members share it
    normalized = {}
    for cluster in sorted(set(cluster_of.values())):
        for n in range(num_bs):
            normalized[(cluster, n)] = random_clustered_correlation(
                m, rank, 1.0, derive_rng(seed, CORRELATION, 1, cluster, n)
            ).factor()

    matrices = {}
    for k in range(num_users):
        for n in range(num_bs):
            dist = max(float(np.linalg.norm(positions[k] - bs_pos[n])), 1.0)
            gain = path_gain_log_distance(dist, pathloss_exponent, ref_gain_db)
            base = normalized[(cluster_of[k], n)]
            matrices[(k, n)] = CorrelationMatrix(np.sqrt(gain) * base, rank, gain)

    serving = serving_from_traces(matrices, num_users, num_bs)
    # keep the intended cell assignment when it is also the strongest link;
    # otherwise strongest link wins (users near a cell border)
    cs = CorrelationSet(num_bs, num_users, matrices, serving, cluster_of)
    return cs.validate()


def dump_correlation_set(corr_set, path):
    """Plain-text dump: header "M N K", serving row, cluster row, then one
    row-major line of "re,im" tokens per (user, bs) matrix in (k, n) order."""
    lines = [f"{corr_set.dim} {corr_set.num_bs} {corr_set.num_users}"]
    lines.append(" ".join(str(corr_set.serving[k]) for k in range(corr_set.num_users)))
    lines.append(" ".join(str(corr_set.cluster_ids[k]) for k in range(corr_set.num_users)))
    for k in range(corr_set.num_users):
        for n in range(corr_set.num_bs):
            flat = corr_set.matrix(k, n).dense().reshape(-1)
            lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in flat))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_correlation_set(path):
    """Read a ``dump_correlation_set`` file; ValidationError when it is
    truncated or malformed."""
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
    matrices = {}
    row = 3
    for k in range(num_users):
        for n in range(num_bs):
            toks = lines[row].split()
            row += 1
            if len(toks) != m * m:
                raise ValidationError(f"matrix ({k},{n}) has {len(toks)} entries, want {m * m}")
            pairs = (tok.split(",") for tok in toks)
            vals = np.array([complex(float(re), float(im)) for re, im in pairs]).reshape(m, m)
            gain = float(np.real(np.trace(vals))) / m
            matrices[(k, n)] = CorrelationMatrix.from_dense(vals, None, gain)
    return CorrelationSet(num_bs, num_users, matrices, serving, clusters).validate()
