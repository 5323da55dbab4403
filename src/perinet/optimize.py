"""Numerical minimization of the length quotient L^n/V.

For a fixed shift-labeled quotient graph the objective is descended in
log form, f = n log L - log|det B|, over vertex positions and the basis
B jointly; the log form makes the scale gauge exact and keeps large
dimensions away from overflow.  With vertex 0 pinned at the origin
(translation gauge) an instance's state is one array Z = (X[1:]; B^T), and
edge e's vector is c_e^T Z, c_e a row of its fixed edge map C
(``_edge_map``).  The basis is rescaled to unit volume after every
accepted step (scale gauge).  Each instance keeps the shifts it was
handed; a degenerating lattice stops its run at a condition-number bailout,
and edge collapse stops a run instead of being traversed.

Steps follow the negative gradient with Barzilai-Borwein step sizes until
an instance's gradient max-norm falls below ``_NEWTON_ENTRY``; from there
its direction is the damped-Newton step -(H + |g| I)^-1 g on the analytic
Hessian, which converges quadratically near a nondegenerate minimizer.  A
row whose damped system gives no descent direction, or a step that moves
an edge vector by its length or more, takes the gradient step.  One Armijo
line search guards both: it halves a failed step a block of halvings at a
time, and each instance takes its first that passes, as one at a time would.

Instances are vectorized: a batch holds many instances of one skeleton
(possibly with different shift assignments), all stepping at once, each
with its own step size.  There is one multistart.  The problem is convex
for a fixed assignment, so it descends one start of each assignment it is
given, once, in its reduced frame: the standard realization (the least
energy sum_e |v_e|^2 at unit volume, the minimizer itself on an
edge-transitive net), or a random draw where that placement fails a start
check, so random numbers are drawn, and their stream made, only for those
rows; the traces hold one row per assignment.  The best instance is read
off its Z and mapped back exactly onto its assignment.  A topology search
hands it one representative per orbit of equivalent assignments
(``shift_orbits``), which share one landscape; a fixed graph is the case of
one assignment.  Results are deterministic in (seed, config); the seed
reaches only the random starts.

Over more than one assignment the search is a branch and bound: every
step retires, as bounded, the instances whose assignment's stress lower
bound (``_stress_bounds``) already exceeds a value the search reached.  A
bounded instance's final value is where it stopped, above its orbit's
least value.  The best instance is never bounded and steps as it would
alone, so the answer is the one without bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .intlinalg import greedy_reduce, int_solve
from .netcore import (Lattice, PeriodicNetwork, QuotientGraph, _count, _length_quotient,
                      _measured, _stress_bounds, edge_norms, lifted_edges, parallel_ends,
                      vertex_forces)
from .topology import TopologyClass, build_abstract, min_vertex_count, shift_orbits, tree_gauge

# a bounded run stopped where its orbit's stress bound passed a value the
# search had reached: its final value is where it stopped, above its orbit's least
_STATUS_LABELS = {0: "max_iter", 1: "converged", 2: "collapsed_edge",
                  3: "degenerate_lattice", 4: "bounded", 5: "stalled", 6: "line_search_failed"}
_START_CHECKS = ("basis determinant at most 0.1", "zero edge length", "parallel edge ends")

_CHUNK = 1 << 16             # most instances descended in one batch
_MAX_ITER = 50_000           # accepted steps at most per instance
_G_TOL = 1e-9                # gradient and force max-norm at convergence
_EPS_EDGE = 1e-4             # edge length below which a run stops as collapsed
_STEP0 = 0.5                 # first trial step size
_BACKTRACK = 0.5             # step factor after a failed Armijo test
_ARMIJO = 1e-4               # sufficient-decrease constant of the Armijo test
_SERVICE_EVERY = 8           # iterations between stall and condition checks
_STALL_PATIENCE = 128        # services without progress before a plateau stop
_COND_LIMIT = 1e6
_NEWTON_ENTRY = 3e-2         # gradient max-norm below which a step is damped Newton
_HESSIAN_BLOCK = 1 << 19     # Hessian entries assembled at once in the Newton tail
_TIE = 1e-9                  # values this close to the least tie, the earlier descended winning
# per-instance state that a descent step writes, and reads with the fixed edge map C
_LIVE = ("Z", "u", "f", "ell", "t", "iters", "tail_steps", "_gZo", "_gsqo", "_tacc", "_stall",
         "_f_snap")


@dataclass(frozen=True)
class OptimizeConfig:
    """Search budget of the descent engine: ``seed`` seeds the random
    starts, drawn only where a standard realization fails a start check
    (see ``_multistart``), and ``s_max`` bounds a topology search's shifts.
    Nothing reads ``restarts``: every assignment is descended once.  Each
    field is an integer (``_count``), ``restarts`` and ``s_max`` at least 1."""

    restarts: int = 50
    seed: int = 0
    s_max: int = 1

    def __post_init__(self):
        for name, least in (("restarts", 1), ("s_max", 1), ("seed", 0)):
            object.__setattr__(self, name, _count(getattr(self, name), name, least))


@dataclass(frozen=True)
class TraceTable:
    """Per-assignment outcomes, stored columnwise, one row per assignment.

    ``assignment_index`` is the position of the descended assignment in
    the list handed to the multistart: the orbit representative from
    ``shift_orbits`` in a topology search, and 0 for a fixed graph.
    ``final_value`` is where its descent stopped: its assignment's least
    value where it converged, and above it where it was bounded.
    """

    assignment_index: np.ndarray
    final_value: np.ndarray
    iterations: np.ndarray       # accepted steps, Newton steps included
    termination: np.ndarray      # status codes, see _STATUS_LABELS
    tail_steps: np.ndarray       # accepted damped-Newton steps

    def __len__(self) -> int:
        return len(self.final_value)

    def record(self, i: int) -> dict:
        return {
            "assignment": int(self.assignment_index[i]),
            "final_value": float(self.final_value[i]),
            "iterations": int(self.iterations[i]),
            "termination": _STATUS_LABELS[int(self.termination[i])],
            "tail_steps": int(self.tail_steps[i]),
        }

    def to_json_records(self) -> list[dict]:
        return [self.record(i) for i in range(len(self))]


@dataclass(frozen=True)
class OptimizeResult:
    """Best network found, its quotient value, and the traces of all descents."""

    network: PeriodicNetwork
    value: float
    termination: str
    shifts: np.ndarray           # shift assignment that seeded the best
    traces: TraceTable
    assignment_index: int = 0    # its position among the descended assignments
    restart_index: int = 0       # always 0: no assignment is descended twice


def _in_frame_of(g: QuotientGraph, S: np.ndarray, U: np.ndarray, Z: np.ndarray) -> PeriodicNetwork:
    """The network of state Z = (X[1:]; B^T) (``_state``) on shifts ``S``
    over the skeleton of ``g``, in another frame, as the same periodic
    network on ``g`` itself.

    The unimodular U with C_g U = C_S (the cycle-shift matrices), the one
    ``_reduced_frame`` applied, gives the basis B U^T, which carries every
    cycle to the same translation.  Then D = S_g U - S has no cycle shift,
    so it is the coboundary of an integer vertex potential k with k_0 = 0,
    walked along the spanning tree, and x_v - B k_v keeps every edge
    vector.  The walk checks D exactly, and with it C_g U = C_S.
    """
    tails, heads = g.tails, g.heads
    D = g.shifts @ U - S
    k, placed = np.zeros((g.vertex_count, g.dim), dtype=np.int64), {0}
    for e in g.skeleton().tree:     # walk order: one end of each edge is placed
        old, new, s = (tails[e], heads[e], 1) if tails[e] in placed else (heads[e], tails[e], -1)
        k[new] = k[old] + s * D[e]
        placed.add(new)
    if not (k[heads] - k[tails] == D).all():
        raise RuntimeError("map back failed: the shifts differ by no vertex potential")
    m = g.vertex_count - 1
    X = np.concatenate([np.zeros((1, g.dim)), Z[:m] - k[1:] @ Z[m:]])
    return PeriodicNetwork(g, Lattice(Z[m:].T @ U.T), X)


class _Batch:
    """A batch of descent instances over the skeleton of graph ``g``: each the
    state Z = (X[1:]; B^T) (``_state``) of one network, with its edge map C."""

    def __init__(self, g: QuotientGraph, C: np.ndarray, Z: np.ndarray):
        n = self.n = g.dim
        m = self.m = g.vertex_count - 1
        self.skeleton = g.skeleton()
        N, E = C.shape[:2]
        self.C = C
        self.Z = np.empty((N, m + n, n))
        self.t = np.full(N, _STEP0)
        self.status = np.zeros(N, dtype=np.uint8)
        self.iters = np.zeros(N, dtype=np.int32)
        self.tail_steps = np.zeros(N, dtype=np.int32)
        self.f, self._f_snap, self.det = np.empty(N), np.empty(N), np.empty(N)
        self.ell, self.u = np.empty((N, E)), np.empty((N, E, n))
        self.place(slice(None), Z)
        self._stall = np.zeros(N, dtype=np.int16)
        # previous-step memory for the Barzilai-Borwein step estimate; a
        # stored step size of 0 stands for no previous step
        self._gZo = np.zeros(self.Z.shape)
        self._gsqo = np.zeros(N)
        self._tacc = np.zeros(N)

    def place(self, rows, Z):
        """Start the instances ``rows`` at the states ``Z``, scaled to unit
        volume where they can be, and evaluated once: ``det`` keeps their
        basis determinants from before the scaling, ``u`` and ``ell`` their
        unit edge vectors and lengths after it (``_start_faults``)."""
        n = self.n
        Z = np.array(Z, dtype=np.float64, order='C')  # as gathers are: matmul rounds by layout
        with np.errstate(divide='ignore', invalid='ignore'):
            det = np.linalg.det(Z[:, self.m:])
            c = np.abs(det) ** (-1.0 / n)     # scale gauge, where it is finite
            ok = np.isfinite(c)
            Z *= np.where(ok, c, 1.0)[:, None, None]
            f, vec, ell, _ = _eval(n, self.C[rows], Z)
            self.u[rows] = vec / ell[..., None]
        status = np.where(ok & np.isfinite(f), 2 * (ell.min(axis=1) < _EPS_EDGE), 3)
        self.Z[rows], self.det[rows], self.f[rows], self._f_snap[rows] = Z, det, f, f
        self.ell[rows], self.status[rows] = ell, status

    def _service(self, w, check_cond: bool) -> np.ndarray:
        """The code each instance of the working state ``w`` leaves with, its
        stall count updated: 3 degenerate lattice, 5 plateau, 0 stays."""
        code = np.zeros(len(w.f), dtype=np.uint8)
        if check_cond:
            sv = np.linalg.svd(w.Z[:, self.m:], compute_uv=False)
            code[sv[:, 0] / sv[:, -1] > _COND_LIMIT] = 3
        # plateau cutoff: instances that stopped improving burn no more budget
        drop = np.abs(w.f - w._f_snap) <= 1e-14 * np.maximum(1.0, np.abs(w.f))
        w._stall = np.where(drop, w._stall + 1, 0)
        code[(w._stall >= _STALL_PATIENCE) & (code == 0)] = 5
        w._f_snap = w.f
        return code

    def run(self, ub=None):
        """Advance every active instance by up to ``_MAX_ITER`` accepted steps.

        The live instances' state is gathered once into working arrays (the
        batch's own when every instance is live: no step writes into them in
        place), and an instance's state is written back when it leaves the
        live set, by one path whatever its code.  The bookkeeping changes
        no instance's arithmetic, and no instance's steps depend on the others.
        Each step evaluates its trials as C Z, and the accepted trial's edge
        vectors give the next step's units ``u``.

        ``ub`` is None in a search of one assignment.  Otherwise it is the
        least value the search reached before this batch (inf if none), and
        each step retires as bounded (code 4) every live instance whose
        stress bound (``_stress_bounds``) exceeds the least value reached by
        more than ``_TIE``: no realization of its assignment gets that low, so
        it cannot be, or tie with, the best.  A NaN bound retires nothing.
        """
        n, m, P = self.n, self.m, self.skeleton.incidence
        idx = (self.status == 0).nonzero()[0]
        every = len(idx) == len(self.status)
        w = SimpleNamespace(**{k: getattr(self, k) if every else getattr(self, k)[idx]
                               for k in ("C", *_LIVE)})
        if ub is not None:
            proj = self.skeleton.projector()
        with np.errstate(divide='ignore', invalid='ignore', over='ignore'):
            for step in range(_MAX_ITER):
                if len(idx) == 0:
                    return
                if ub is not None:
                    ub = min(ub, np.exp(w.f.min()))
                    out = _stress_bounds(proj, w.u, w.C[..., m:]) > ub + _TIE
                    if out.any():
                        idx, w = self._retire(idx, w, out, 4)
                        if len(idx) == 0:
                            continue
                Binv = np.linalg.inv(w.Z[:, m:]).transpose(0, 2, 1)
                g = _gradient(n, w.C, Binv, w.u, w.ell.sum(1))
                gsq, ginf = np.einsum('arj,arj->a', g, g), np.abs(g).max((1, 2))
                done = ginf <= _G_TOL
                if done.any():      # the forces are measured only where the gradient is small
                    done[done] = edge_norms(vertex_forces(P, w.u[done])).max(1) <= _G_TOL
                if done.any():
                    idx, w = self._retire(idx, w, done, 1)
                    if len(idx) == 0:
                        continue
                    Binv, g, gsq, ginf = (a[~done] for a in (Binv, g, gsq, ginf))
                # a trial state is Z - t q with slope q.g: the gradient itself,
                # or a damped-Newton step at t = 1 in the tail.  The Taylor
                # series of |v| converges only for |dv| < |v|, so a Newton step
                # that moves an edge vector by its length or more is outside
                # its model, and the row takes the gradient step
                q, slope = g, gsq
                newton = ginf < _NEWTON_ENTRY
                if newton.any():
                    rows = slice(None) if newton.all() else np.flatnonzero(newton)
                    C, ell = w.C[rows], w.ell[rows]
                    p, gp = _newton_steps(n, C, Binv[rows], w.u[rows], ell, g[rows], gsq[rows])
                    ok = np.isfinite(gp) & (edge_norms(C @ p) < ell).all(1)
                    newton[rows] = ok
                    q, slope = g.copy(), gsq.copy()
                    q[newton], slope[newton] = -p[ok], -gp[ok]
                t = np.ones(len(idx))
                if not newton.all():
                    # a gradient step's size is the Barzilai-Borwein estimate
                    # from the last accepted step, with doubling of the previous
                    # step as the fallback; the line search safeguards both
                    cross = np.einsum('arj,arj->a', g, w._gZo)
                    t_bb = -w._tacc * (cross - w._gsqo) / (gsq - 2.0 * cross + w._gsqo)
                    t = np.where(np.isfinite(t_bb) & (t_bb > 0), np.clip(t_bb, 1e-12, 1e3),
                                 np.minimum(w.t * 2.0, 1e3))
                    t[newton] = 1.0
                # Armijo backtracking: a first trial on every live instance, then up to 79
                # halvings of t on the rows still failing, one evaluation each; each row
                # takes its first trial to pass
                tol = 1e-15 * np.maximum(1.0, np.abs(w.f))
                Zt = w.Z - t[:, None, None] * q
                ft, vt, ellt, dett = _eval(n, w.C, Zt)
                need = (~((ft <= w.f - _ARMIJO * t * slope + tol) & np.isfinite(ft))).nonzero()[0]
                for _ in range(79):
                    if not len(need):
                        break
                    t[need] *= _BACKTRACK
                    tk = t[need]
                    Zk = w.Z[need] - tk[:, None, None] * q[need]
                    fk, vk, ellk, detk = _eval(n, w.C[need], Zk)
                    hit = (fk <= w.f[need] - _ARMIJO * tk * slope[need] + tol[need]) & np.isfinite(fk)
                    a = need[hit]
                    Zt[a], ft[a], vt[a], ellt[a], dett[a] = Zk[hit], fk[hit], vk[hit], ellk[hit], detk[hit]
                    need = need[~hit]
                if len(need):
                    # the line search exhausted its budget without a usable step
                    failed = np.isin(np.arange(len(idx)), need)
                    idx, w = self._retire(idx, w, failed, 6)
                    if len(idx) == 0:
                        continue
                    t, Zt, ft, vt, ellt, dett, g, gsq, newton = (
                        a[~failed] for a in (t, Zt, ft, vt, ellt, dett, g, gsq, newton))
                if not (ft <= w.f + 1e-12 * np.abs(w.f) + 1e-12).all():
                    raise RuntimeError("objective increased on an accepted step")
                # scale gauge: renormalize to unit cell volume; f and the unit
                # edge vectors are invariant, and the stored step memory
                # transforms as g -> g/c, t -> c^2 t; a Newton step stores step
                # size 0, so no Barzilai-Borwein estimate is taken across it
                c = np.abs(dett) ** (-1.0 / n)
                c2, c3 = c ** 2, c[:, None, None]
                w.t, w.iters, w.tail_steps = t, w.iters + 1, w.tail_steps + newton
                w._gZo, w._gsqo = g / c3, gsq / c2
                w._tacc = np.where(newton, 0.0, t * c2)
                w.Z, w.u, w.ell = Zt * c3, vt / ellt[..., None], ellt * c[:, None]
                w.f = n * np.log(w.ell.sum(1))
                if not (np.abs(w.f - ft) <= 1e-11 * np.maximum(1.0, np.abs(w.f))).all():
                    raise RuntimeError("scale gauge changed the objective")
                collapsed = w.ell.min(1) < _EPS_EDGE
                if collapsed.any():
                    idx, w = self._retire(idx, w, collapsed, 2)
                if (step + 1) % _SERVICE_EVERY == 0 and len(idx):
                    code = self._service(w, check_cond=(step + 1) % (2 * _SERVICE_EVERY) == 0)
                    if code.any():
                        idx, w = self._retire(idx, w, code > 0, code[code > 0])
        if len(idx):        # the iteration cap
            self._retire(idx, w, np.ones(len(idx), dtype=bool), 0)

    def _retire(self, idx, w, out, code):
        """Write back the state of the instances ``out`` with status ``code``
        (one or one each) and return the indices and working state of the others."""
        whole = out.all()       # then the working state is written back as it stands
        rows = (slice(None) if len(idx) == len(self.status) else idx) if whole else idx[out]
        for k in _LIVE:
            a = getattr(w, k)
            if a is not getattr(self, k):       # else it is the batch's own: no step replaced it
                getattr(self, k)[rows] = a if whole else a[out]
        self.status[rows] = code
        return (idx[:0], w) if whole else \
            (idx[~out], SimpleNamespace(**{k: getattr(w, k)[~out] for k in ("C", *_LIVE)}))


def _start_faults(g: QuotientGraph, u: np.ndarray, ell: np.ndarray, det: np.ndarray):
    """The (N,) flags of each ``_START_CHECKS`` check that stacked starts over
    the skeleton of ``g``, with unit edge vectors ``u`` = vec / ell, lengths
    ``ell`` and basis determinants ``det``, fail: |det B| <= 0.1, an edge of
    length 1e-9 or less, and two edge ends that leave a vertex in one
    direction (``parallel_ends`` of vec and ell, whose directions are ``u``)."""
    ends = parallel_ends(u, np.where(np.isfinite(ell), 1.0, ell), g.skeleton().end_pairs)
    return np.abs(det) <= 0.1, (ell <= 1e-9).any(axis=1), ends.any(axis=1)


def _sample_starts(rng, count: int, g: QuotientGraph, S_int):
    """Random valid starting states (B, X) over the skeleton of ``g``,
    matching :func:`random_network`.

    Basis: identity plus uniform(-0.3, 0.3) entries; positions uniform in
    the unit cell.  The first round is drawn straight into the outputs; the
    instances that fail a ``_START_CHECKS`` check (``_start_faults``) are
    redrawn, those alone, up to 100 rounds in all, and the error then names
    the checks the last draws failed.
    """
    n, V = g.dim, g.vertex_count
    ST = np.asarray(S_int, dtype=np.float64).transpose(0, 2, 1)
    todo = None                 # the rows of a redraw round; all rows in the first
    for _ in range(100):
        m = count if todo is None else len(todo)
        Bc = np.eye(n) + rng.uniform(-0.3, 0.3, (m, n, n))
        Xc = np.einsum('aij,avj->avi', Bc, rng.uniform(0.0, 1.0, (m, V, n)))
        vec = lifted_edges(Xc, Bc, ST if todo is None else ST[todo], g.tails, g.heads)
        ell = edge_norms(vec)
        with np.errstate(divide='ignore', invalid='ignore'):
            faults = _start_faults(g, vec / ell[..., None], ell, np.linalg.det(Bc))
        bad = faults[0] | faults[1] | faults[2]
        if todo is None:
            B, X, todo = Bc, Xc, bad.nonzero()[0]
        else:
            B[todo], X[todo], todo = Bc, Xc, todo[bad]
        if not len(todo):
            return B, X
    failed = ", ".join(c for c, hit in zip(_START_CHECKS, faults) if hit.any())
    raise RuntimeError(f"failed to draw a valid starting network in 100 rounds: {failed}")


def _state(B: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The descent state Z = (X[1:] - x_0; B^T) (N, V - 1 + n, n) of stacked
    networks (B, X): vertex 0 moved to the origin, the translation gauge."""
    return np.concatenate([X[:, 1:] - X[:, :1], B.transpose(0, 2, 1)], axis=1)


def _standard_realization(C: np.ndarray, n: int) -> np.ndarray:
    """Kotani and Sunada's standard realization, as the state Z (``_state``),
    of every network of the stack of edge maps ``C`` (``_edge_map``) in
    R^n: the least energy sum_e |v_e|^2 = tr(Z^T G Z) at |det B| = 1, G =
    C^T C.  Eliminating the free positions, X[1:] = -G_xx^-1 G_xb B^T,
    leaves tr(B Q B^T) with Q the Schur complement of G_xx, least at B =
    Q^(-1/2) scaled to unit volume.  It does not depend on how the
    assignment is written down, and on an edge-transitive net it minimizes
    L^n/V."""
    m = C.shape[2] - n
    G = C.transpose(0, 2, 1) @ C
    W = np.linalg.solve(G[:, :m, :m], G[:, :m, m:]) if m else G[:, :m, m:]   # a bouquet has none
    lam, U = np.linalg.eigh(G[:, m:, m:] - G[:, m:, :m] @ W)
    # Q^(-1/2) times the root of the geometric mean of Q's eigenvalues: |det B| = 1
    root = np.sqrt(np.exp(np.log(lam).sum(axis=1) / n)[:, None] / lam)
    BT = ((U * root[:, None, :]) @ U.transpose(0, 2, 1)).transpose(0, 2, 1)
    return np.concatenate([-W @ BT, BT], axis=1)


def _eval(n: int, C: np.ndarray, Z: np.ndarray):
    """Objective n log L - log|det B|, edge vectors C Z, edge lengths and
    basis determinants of stacked states ``Z`` in R^n with edge maps ``C``."""
    vec = C @ Z
    ell, det = edge_norms(vec), np.linalg.det(Z[:, -n:])
    return n * np.log(ell.sum(1)) - np.log(np.abs(det)), vec, ell, det


def _gradient(n: int, C: np.ndarray, Binv: np.ndarray, u: np.ndarray, L: np.ndarray):
    """Gradient (N, R, n) of n log L - log|det B| over states Z with edge maps
    ``C``, at unit edge vectors ``u``, total lengths ``L`` and inverse bases
    ``Binv``: (n/L) C^T u - (0; B^-1), n/L times the forces on vertices 1 on."""
    g = (n / L)[:, None, None] * (C.transpose(0, 2, 1) @ u)
    g[:, -n:] -= Binv
    return g


def _edge_map(P: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Edge map C (N, E, V - 1 + n) of stacked shifts ``S`` (N, E, n) over
    incidence ``P``: edge e's vector is c_e^T Z with c_e = (P_e without
    vertex 0, s_e) and Z = (X[1:]; B^T), vertex 0 pinned at the origin."""
    return np.concatenate([P[None, :, 1:].repeat(len(S), axis=0), S], axis=2)


def _hessian(n: int, C: np.ndarray, Binv: np.ndarray, u: np.ndarray,
             ell: np.ndarray) -> np.ndarray:
    """Hessian (N, D, D) of n log L - log|det B| at unit edge vectors ``u``,
    edge lengths ``ell`` and inverse bases ``Binv`` over states Z with edge
    maps ``C``, flattened row-major: free vertex positions, then B's columns.

    Edge e's vector is c_e^T Z, so the Hessian of L is sum_e c_e c_e^T (x)
    M_e with M_e = (I - u_e u_e^T) / ell_e; that of -log|det B| is
    (B^-1)_jk (B^-1)_li at the entries (B_ij, B_kl).
    """
    N, E, R = C.shape
    M = (np.eye(n) - u[..., :, None] * u[..., None, :]) / ell[..., None, None]
    CC = (C[..., :, None] * C[..., None, :]).reshape(N, E, R * R)
    H = (CC.transpose(0, 2, 1) @ M.reshape(N, E, n * n)).reshape(N, R, R, n, n)
    H = H.transpose(0, 1, 3, 2, 4).reshape(N, R * n, R * n)
    gL = (C.transpose(0, 2, 1) @ u).reshape(N, R * n)      # gradient of L
    L = ell.sum(1)[:, None, None]
    H = (n / L) * (H - gL[:, :, None] * gL[:, None, :] / L)
    m = (R - n) * n
    H[:, m:, m:] += (Binv[:, :, None, None, :] * Binv.transpose(0, 2, 1)[:, None, :, :, None]
                     ).reshape(N, n * n, n * n)
    return H


def _newton_steps(n: int, C: np.ndarray, Binv: np.ndarray, u: np.ndarray, ell: np.ndarray,
                  g: np.ndarray, gsq: np.ndarray):
    """Damped-Newton steps p = -(H + |g| I)^-1 g of stacked instances, with
    their gradients ``g`` (N, R, n) over Z.

    Returns p, shaped as ``g``, and the slope g.p, which is NaN on rows
    whose damped system is singular, or whose p is not finite or no descent
    direction.  The Hessians are assembled a block of rows at a time, so
    their memory stays bounded on wide batches.
    """
    N, D = len(g), g[0].size
    g = g.reshape(N, D)
    p = np.full(g.shape, np.nan)
    per = max(1, _HESSIAN_BLOCK // (D * D))
    for lo in range(0, N, per):
        hi = min(lo + per, N)
        A = _hessian(n, C[lo:hi], Binv[lo:hi], u[lo:hi], ell[lo:hi])
        A.reshape(hi - lo, -1)[:, ::D + 1] += np.sqrt(gsq[lo:hi])[:, None]
        try:
            p[lo:hi] = np.linalg.solve(A, -g[lo:hi, :, None])[..., 0]
        except np.linalg.LinAlgError:
            # one singular system fails the whole stack: solve row by row
            for k in range(hi - lo):
                try:
                    p[lo + k] = np.linalg.solve(A[k], -g[lo + k])
                except np.linalg.LinAlgError:
                    pass
    gp = np.einsum('ad,ad->a', g, p)
    gp[~(np.isfinite(p).all(1) & (gp < 0))] = np.nan
    return p.reshape(N, -1, n), gp


def objective_and_gradient(net: PeriodicNetwork):
    """Descent objective n log L - log|det B| with its analytic gradient.

    Returns (f, position gradient, basis gradient), read off the gradient
    over Z that the descent takes (``_gradient``); the gradient of the
    pinned vertex 0 is zeroed, matching the translation gauge of the
    descent.  The position gradient of L itself is the vertex force.
    Raises ``ValueError`` where ``length_quotient`` does: on a zero-length
    or non-finite edge, or a singular or non-finite basis.
    """
    g, n, m = net.graph, net.dim, net.graph.vertex_count - 1
    slot = _measured(net)
    _length_quotient(net, slot.ell)
    vec, ell, B = slot.vecs[None], slot.ell[None], net.lattice.basis[None]
    C = _edge_map(g.skeleton().incidence, g.shifts[None].astype(np.float64))
    gZ = _gradient(n, C, np.linalg.inv(B), vec / ell[..., None], ell.sum(1))[0]
    gX = np.vstack([np.zeros(n), gZ[:m]])
    return float(n * np.log(ell.sum()) - np.log(abs(np.linalg.det(B[0])))), gX, gZ[m:].T


def _refuse_invalid(g: QuotientGraph) -> None:
    """Refuse a graph that fails a check of ``facts()``, with its first
    violation: no realization of it is a valid network."""
    faults = sum(g.facts().violations, ())
    if faults:
        raise ValueError(f"no valid realization: {faults[0]}")


def random_network(g: QuotientGraph, seed: int = 0) -> PeriodicNetwork:
    """One random valid network on the given quotient graph (deterministic in
    seed).  A graph that fails a check of ``facts()`` has none and is refused
    (``_refuse_invalid``); one with a cut edge is accepted, its networks
    being valid though never balanced.  A seed that is no integer, or is
    negative, is refused as ``OptimizeConfig`` refuses it."""
    seed = _count(seed, "seed", 0)
    _refuse_invalid(g)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA5)))
    B, X = _sample_starts(rng, 1, g, g.shifts[None, :, :])
    return PeriodicNetwork(g, Lattice(B[0]), X[0])


def minimize_fixed_shifts(g: QuotientGraph, cfg: OptimizeConfig | None = None) -> OptimizeResult:
    """Minimize L^n/V over positions and lattice for one shift assignment.

    Descends one start, the standard realization of ``g`` (a random draw
    where that placement fails a start check, ``_multistart``);
    ``cfg.seed`` reaches only the random start.  The start is built, and
    descended, in the graph's reduced frame, and the network is mapped
    back exactly onto ``g`` itself, whose shifts the result keeps.  At
    circuit rank r = n every basis has the same reduced frame, so the
    traces do not depend on it at all.  Before any descent it refuses a
    graph that fails a check of ``facts()`` (``_refuse_invalid``), and a
    graph with a cut edge, which has no balanced realization (see
    ``min_vertex_count``).
    """
    cfg = cfg or OptimizeConfig()
    _refuse_invalid(g)
    cut = g.skeleton().cut_edges
    if cut:
        raise ValueError(f"no balanced realization: cut edge {cut[0]}")
    return _multistart(g, g.shifts[None], cfg)


def minimize_topology(tag: TopologyClass | str, n: int,
                      cfg: OptimizeConfig | None = None) -> OptimizeResult:
    """Global search over the shift assignments of a topology.

    Assignments related by a lattice basis change or a skeleton
    automorphism share one landscape, so only one representative per
    orbit (``shift_orbits``) is descended once, in its reduced frame, from
    its standard realization (a random draw where that placement fails a
    start check, ``_multistart``); the best network is mapped back onto its
    representative.  Trace records and ``shifts`` name the representative
    by its position in ``shift_orbits``.  The returned best is
    deterministic in (seed, config), and ``cfg.seed`` reaches only the
    random starts.
    """
    cfg = cfg or OptimizeConfig()
    top = TopologyClass.from_tag(tag) if isinstance(tag, str) else tag
    _, admissible = min_vertex_count(n, top.degree)
    if not any(t == top for t in admissible):
        raise ValueError(f"topology {top.tag} is not admissible for "
                         f"(n={n}, d={top.degree})")
    skeleton = build_abstract(top, n)
    reps = shift_orbits(skeleton, n, cfg.s_max)
    if not len(reps):
        raise ValueError("no valid shift assignment exists for this topology")
    return _multistart(skeleton, reps, cfg)


def _reduced_frame(g: QuotientGraph, reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every assignment of ``reps`` as the tree gauge of C U, C its cycle-shift
    matrix, and the unimodular U: C U = I at circuit rank r = n (U = C^-1, I
    for a ``shift_orbits`` representative), greedily reduced at r > n."""
    Z, n = g.skeleton().cycles, g.dim
    C = Z @ reps
    if len(Z) == n:
        eye = np.eye(n, dtype=np.int64)[None].repeat(len(C), axis=0)
        return tree_gauge(g, eye), int_solve(C, eye)
    CU, U = greedy_reduce(C)
    return tree_gauge(g, CU), U


def _multistart(g: QuotientGraph, reps: np.ndarray, cfg: OptimizeConfig) -> OptimizeResult:
    """Descend one start of every assignment in ``reps``, once.

    For one assignment L^n/V is convex in the gauge B = Q R: edge vectors
    are linear in (X, R), L is a sum of norms, and sum log R_ii >= 0 is a
    convex set.  So a converged instance has reached the one minimum value,
    and a collapsed one a face where an edge has length 0.  A bounded one
    cannot reach the best (``_Batch.run``), to which every batch is handed
    the best value before it.  An instance that ends otherwise keeps its
    label.  The assignments run in batches of at most ``_CHUNK``, each built
    in its assignments' reduced frames in one pass (``_reduced_frame``),
    with one edge map per row that the start and the descent share.  Each
    row starts at the standard realization (``_standard_realization``);
    random starts near B = I, from one ``SeedSequence((seed, 0))`` stream
    made at its first draw, are drawn only for rows where it fails a
    ``_START_CHECKS`` check.  The best, the lowest value with ties within
    ``_TIE`` going to the instance descended first, is read off its state
    and mapped back exactly (``_in_frame_of``) onto its assignment, ``g``
    if ``g``'s.
    """
    rng, rows, best = None, [], None
    for lo in range(0, len(reps), _CHUNK):
        S, U = _reduced_frame(g, reps[lo:lo + _CHUNK])
        C = _edge_map(g.skeleton().incidence, S)
        # the standard realization, checked on its batch's one evaluation,
        # where it is a valid start; a random draw in every other row,
        # evaluated again alone; the stream is made at its first draw
        batch = _Batch(g, C, _standard_realization(C, g.dim))
        rand = np.logical_or.reduce(_start_faults(g, batch.u, batch.ell, batch.det))
        if rand.any():
            rng = rng or np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))
            batch.place(rand, _state(*_sample_starts(rng, int(rand.sum()), g, S[rand])))
        batch.run(None if len(reps) == 1 else np.inf if best is None else best[0])
        with np.errstate(over='ignore'):
            v = np.exp(batch.f)
        rows.append((v, batch.iters, batch.status, batch.tail_steps))
        i = int(_near_best(v)[0])
        if best is None or _near_best([best[0], v[i]])[0]:     # ties stay with the earlier
            best = (v[i], *(np.array(c[i]) for c in (S, U, batch.Z)), lo + i, int(batch.status[i]))
    cols = rows[0] if len(rows) == 1 else [np.concatenate(c) for c in zip(*rows)]
    value, S, U, Z, k, code = best
    shifts = np.array(reps[k])
    home = g if np.array_equal(g.shifts, shifts) else \
        QuotientGraph(g.dim, g.vertex_count, g.tails, g.heads, shifts)
    return OptimizeResult(network=_in_frame_of(home, S, U, Z), value=float(value),
                          termination=_STATUS_LABELS[code], shifts=shifts, assignment_index=k,
                          traces=TraceTable(np.arange(len(reps)), *cols))


def _near_best(values: np.ndarray) -> np.ndarray:
    """Indices within ``_TIE`` of the least finite value (all, if none is finite)."""
    v = np.where(np.isfinite(values), values, np.inf)
    return (v <= v.min() + _TIE).nonzero()[0]
