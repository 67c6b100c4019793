"""Outer/inner precoder construction and instantaneous rate/power evaluation.

The outer precoder of BS n is a semi-unitary basis confined to the
orthogonal complement of the blocked users' correlation ranges, so the BS
radiates zero statistical power toward every protected neighbor. The inner
precoder is regularized zero forcing on the effective (outer-projected)
channels.
"""

from dataclasses import dataclass

import numpy as np

from .corrmat import RANK_TOL
from .errors import ParameterError, ValidationError
from .topology import scheduled_neighbors

SEMI_UNITARY_TOL = 1e-9
ZERO_ICI_TOL = 1e-8


def interference_nullspace_basis(corr_set, blocked, bs):
    """Orthonormal basis of the combined column space of the blocked users'
    correlation matrices at BS ``bs`` (equivalently, of their PSD sum).

    Built by stacking each matrix's own eigenbasis and re-orthonormalizing,
    which pins every individual range down to machine precision relative to
    that matrix's scale; an eigendecomposition of the summed matrix would
    only resolve weak users' ranges relative to the strongest one.
    """
    m = corr_set.dim
    pieces = [corr_set.matrix(k, bs).basis() for k in sorted(set(blocked))]
    pieces = [p for p in pieces if p.shape[1] > 0]
    if not pieces:
        return np.zeros((m, 0), dtype=complex)
    stack = np.concatenate(pieces, axis=1)
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    keep = s > RANK_TOL * s[0]
    return np.ascontiguousarray(u[:, keep])


def outer_precoder(corr_set, selected, blocked, bs):
    """Semi-unitary basis spanning the blocked-complement projection of the
    selected users' summed correlation range; empty (M x 0) when annihilated."""
    selected = tuple(sorted(set(selected)))
    blocked = tuple(sorted(set(blocked)))
    if set(selected) & set(blocked):
        raise ParameterError("selected and blocked user sets must be disjoint")
    m = corr_set.dim
    if not selected:
        return np.zeros((m, 0), dtype=complex)
    null_basis = interference_nullspace_basis(corr_set, blocked, bs)
    total = np.zeros((m, m), dtype=complex)
    for k in selected:
        total = total + corr_set.matrix(k, bs).entries
    if null_basis.shape[1] == 0:
        projected = total
    else:
        proj = np.eye(m) - null_basis @ null_basis.conj().T
        projected = proj @ total @ proj
    projected = 0.5 * (projected + projected.conj().T)
    w, v = np.linalg.eigh(projected)
    top_raw = float(np.linalg.eigvalsh(total)[-1])
    if w[-1] <= RANK_TOL * max(top_raw, 1e-300):
        return np.zeros((m, 0), dtype=complex)
    basis = v[:, w > RANK_TOL * w[-1]]
    if null_basis.shape[1] > 0:
        # one explicit re-orthogonalization pass pushes residual alignment
        # with the blocked subspace down to machine precision squared
        basis = basis - null_basis @ (null_basis.conj().T @ basis)
        basis, _ = np.linalg.qr(basis)
    return np.ascontiguousarray(basis)


def rzf_inner_precoder(channels, outer, nu):
    """Regularized zero-forcing inner precoder on the effective channels.

    channels: the |S| x M composite channel whose rows are the conjugated
    user channels h^H (so row @ beam is the received amplitude); outer:
    M x M_n semi-unitary. Returns the M_n x |S| matrix solving
    (Heff^H Heff + M nu I) G = Heff^H with Heff = channels @ outer. The
    regularizer is scaled by the full antenna count M, not M_n.
    """
    if nu <= 0:
        raise ParameterError("nu must be positive")
    num_sel = channels.shape[0]
    m = channels.shape[1]
    m_n = outer.shape[1]
    if outer.shape[0] != m:
        raise ParameterError("outer precoder row count must match antenna count")
    if m_n == 0:
        return np.zeros((0, num_sel), dtype=complex)
    heff = channels @ outer
    gram = heff.conj().T @ heff + m * nu * np.eye(m_n)
    return np.linalg.solve(gram, heff.conj().T)


@dataclass
class CompositeControl:
    """One joint choice of outer precoders, selected users, and powers."""

    outer: dict  # bs -> M x M_n ndarray
    selected: dict  # bs -> tuple of selected users, sorted
    power: dict  # user -> allocated power (selected users only)

    @property
    def selected_union(self):
        out = []
        for users in self.selected.values():
            out.extend(users)
        return tuple(sorted(out))

    def serving_bs(self, user):
        for n, users in self.selected.items():
            if user in users:
                return n
        return None

    def validate(self, corr_set, graph):
        sel = self.selected_union
        if len(sel) != len(set(sel)):
            raise ValidationError("a user is selected at more than one BS")
        for n, users in self.selected.items():
            for k in users:
                if graph.serving[k] != n:
                    raise ValidationError(f"user {k} selected at non-serving BS {n}")
        for k in sel:
            p = self.power.get(k)
            if p is None or not np.isfinite(p) or p < 0:
                raise ValidationError(f"user {k} has invalid power {p!r}")
        blocked = scheduled_neighbors(graph, sel)
        for n in range(graph.num_bs):
            f = self.outer.get(n)
            if f is None:
                raise ValidationError(f"missing outer precoder for BS {n}")
            m_n = f.shape[1]
            if m_n > 0:
                gram_err = float(
                    np.linalg.norm(f.conj().T @ f - np.eye(m_n), ord="fro")
                )
                if gram_err > SEMI_UNITARY_TOL:
                    raise ValidationError(
                        f"outer precoder at BS {n} not semi-unitary ({gram_err:.3e})"
                    )
            for k in blocked[n]:
                theta = corr_set.matrix(k, n).entries
                denom = float(np.linalg.norm(theta, ord="fro"))
                if denom == 0.0 or m_n == 0:
                    continue
                leak = float(np.linalg.norm(f.conj().T @ theta, ord="fro"))
                if leak > ZERO_ICI_TOL * denom:
                    raise ValidationError(
                        f"BS {n} leaks onto protected user {k}: {leak / denom:.3e}"
                    )
        return self


def inner_precoders(control, channels, nu):
    """RZF inner precoder per BS for one channel realization.

    channels: dict (user, bs) -> length-M vector.
    """
    inner = {}
    for n, users in control.selected.items():
        if not users:
            inner[n] = np.zeros((control.outer[n].shape[1], 0), dtype=complex)
            continue
        h = np.stack([channels[(k, n)].conj() for k in users], axis=0)
        inner[n] = rzf_inner_precoder(h, control.outer[n], nu)
    return inner


def instantaneous_rate(user, control, channels, nu, inner=None):
    """log(1 + SINR) of one user under one realization; 0 when not selected.

    The denominator holds intra-cell interference plus unit noise; cross-BS
    terms are removed by construction of the outer precoders.
    """
    bs = control.serving_bs(user)
    if bs is None:
        return 0.0
    if inner is None:
        inner = inner_precoders(control, channels, nu)
    users = control.selected[bs]
    g = inner[bs]
    if g.shape[0] == 0:
        return 0.0
    beams = control.outer[bs] @ g  # M x |S_n|, columns are unscaled beams
    h = channels[(user, bs)]
    idx = users.index(user)
    cross = np.abs(h.conj() @ beams) ** 2
    signal = control.power[user] * cross[idx]
    interference = sum(
        control.power[l] * cross[i] for i, l in enumerate(users) if l != user
    )
    return float(np.log1p(signal / (interference + 1.0)))


def transmit_power(control, channels, bs, nu, inner=None):
    """Instantaneous transmit power of one BS: sum_l p_l ||g_l||^2.

    Equals the trace form tr(P Heff (Heff^H Heff + M nu I)^(-2) Heff^H)
    because the outer precoder is semi-unitary.
    """
    users = control.selected.get(bs, ())
    if not users:
        return 0.0
    if inner is None:
        inner = inner_precoders(control, channels, nu)
    g = inner[bs]
    if g.shape[0] == 0:
        return 0.0
    norms = np.sum(np.abs(g) ** 2, axis=0)
    return float(sum(control.power[l] * norms[i] for i, l in enumerate(users)))


def cross_interference_power(control, channels, user, bs, inner=None, nu=None):
    """Power received by ``user`` from BS ``bs`` it is not served by."""
    users = control.selected.get(bs, ())
    if not users:
        return 0.0
    if inner is None:
        inner = inner_precoders(control, channels, nu)
    g = inner[bs]
    if g.shape[0] == 0:
        return 0.0
    beams = control.outer[bs] @ g
    h = channels[(user, bs)]
    cross = np.abs(h.conj() @ beams) ** 2
    return float(sum(control.power[l] * cross[i] for i, l in enumerate(users)))
