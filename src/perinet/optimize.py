"""Numerical minimization of the length quotient L^n/V.

For a fixed shift-labeled quotient graph the objective is descended in
log form, f = n log L - log|det B|, over vertex positions and the basis
B jointly; the log form makes the scale gauge exact and keeps large
dimensions away from overflow.  One vertex is pinned at the origin
(translation gauge) and the basis is rescaled to unit volume after every
accepted step (scale gauge).  Lattice non-compactness is handled by a
greedy reduction safeguard plus a condition-number bailout, and edge
collapse stops a run instead of being traversed.

Restarts are vectorized: a batch holds many instances of the same
skeleton (possibly with different shift assignments) and all of them
take descent steps simultaneously, each with its own backtracking step
size.  There is one multistart: every shift assignment it is given is
descended from ``restarts`` random starts to convergence, and traces
record where every restart stopped.  A topology search hands it one
representative per orbit of equivalent assignments (``shift_orbits``),
since the assignments of an orbit share one landscape; a fixed graph is
the case of a single assignment.  Results are deterministic functions of
(seed, config).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netcore import Lattice, PeriodicNetwork, QuotientGraph, validate
from .reduction import greedy_reduce
from .topology import TopologyClass, build_abstract, min_vertex_count, shift_orbits

TERM_CONVERGED = "converged"
TERM_COLLAPSED = "collapsed_edge"
TERM_DEGENERATE = "degenerate_lattice"
TERM_MAXITER = "max_iter"

_STATUS_LABELS = {0: TERM_MAXITER, 1: TERM_CONVERGED, 2: TERM_COLLAPSED,
                  3: TERM_DEGENERATE, 4: TERM_MAXITER}

_CHUNK = 1 << 16             # most instances descended in one batch
_SERVICE_EVERY = 8           # iterations between basis-safeguard services
_STALL_PATIENCE = 128        # services without progress before a plateau stop
_COND_LIMIT = 1e6
_RATIO_LIMIT = 3.0


@dataclass(frozen=True)
class OptimizeConfig:
    """Step control and search budget for the descent engine."""

    g_tol: float = 1e-9
    eps_edge: float = 1e-4
    restarts: int = 50
    seed: int = 0
    max_iter: int = 50_000
    s_max: int = 1
    step0: float = 0.5
    backtrack: float = 0.5
    armijo: float = 1e-4

    def __post_init__(self):
        for name in ("g_tol", "eps_edge", "step0", "backtrack", "armijo"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("restarts", "max_iter", "s_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.eps_edge >= 0.5:
            raise ValueError("eps_edge must be below 0.5")
        if not 0 < self.backtrack < 1:
            raise ValueError("backtrack factor must lie in (0, 1)")


@dataclass(frozen=True)
class TraceTable:
    """Per-restart outcomes, stored columnwise."""

    assignment_index: np.ndarray
    restart_index: np.ndarray
    final_value: np.ndarray
    iterations: np.ndarray
    termination: np.ndarray      # status codes, see _STATUS_LABELS

    def __len__(self) -> int:
        return len(self.final_value)

    def record(self, i: int) -> dict:
        return {
            "assignment": int(self.assignment_index[i]),
            "restart": int(self.restart_index[i]),
            "final_value": float(self.final_value[i]),
            "iterations": int(self.iterations[i]),
            "termination": _STATUS_LABELS[int(self.termination[i])],
        }

    def to_json_records(self, limit: int | None = None) -> list[dict]:
        m = len(self) if limit is None else min(limit, len(self))
        return [self.record(i) for i in range(m)]


@dataclass(frozen=True)
class OptimizeResult:
    """Best network found, its quotient value, and all restart traces."""

    network: PeriodicNetwork
    value: float
    termination: str
    shifts: np.ndarray           # enumerated shift assignment that seeded the best
    traces: TraceTable
    assignment_index: int = 0
    restart_index: int = 0


def _det_batch(B: np.ndarray) -> np.ndarray:
    n = B.shape[-1]
    if n == 2:
        return B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
    if n == 3:
        a, b, c = B[:, 0, 0], B[:, 0, 1], B[:, 0, 2]
        d, e, f = B[:, 1, 0], B[:, 1, 1], B[:, 1, 2]
        g, h, i = B[:, 2, 0], B[:, 2, 1], B[:, 2, 2]
        return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
    return np.linalg.det(B)


def _invT_batch(B: np.ndarray, det: np.ndarray) -> np.ndarray:
    n = B.shape[-1]
    if n == 2:
        out = np.empty_like(B)
        out[:, 0, 0] = B[:, 1, 1]
        out[:, 0, 1] = -B[:, 1, 0]
        out[:, 1, 0] = -B[:, 0, 1]
        out[:, 1, 1] = B[:, 0, 0]
        return out / det[:, None, None]
    if n == 3:
        a, b, c = B[:, 0, 0], B[:, 0, 1], B[:, 0, 2]
        d, e, f = B[:, 1, 0], B[:, 1, 1], B[:, 1, 2]
        g, h, i = B[:, 2, 0], B[:, 2, 1], B[:, 2, 2]
        out = np.empty_like(B)
        out[:, 0, 0] = e * i - f * h
        out[:, 0, 1] = f * g - d * i
        out[:, 0, 2] = d * h - e * g
        out[:, 1, 0] = c * h - b * i
        out[:, 1, 1] = a * i - c * g
        out[:, 1, 2] = b * g - a * h
        out[:, 2, 0] = b * f - c * e
        out[:, 2, 1] = c * d - a * f
        out[:, 2, 2] = a * e - b * d
        return out / det[:, None, None]
    return np.transpose(np.linalg.inv(B), (0, 2, 1))


def _int_inverse(U: np.ndarray) -> np.ndarray:
    inv = np.rint(np.linalg.inv(U)).astype(np.int64)
    if not np.array_equal(U @ inv, np.eye(len(U), dtype=np.int64)):
        raise RuntimeError("unimodular inverse failed")
    return inv


class _Batch:
    """A batch of descent instances over one graph skeleton."""

    def __init__(self, n: int, tails: np.ndarray, heads: np.ndarray,
                 S_int: np.ndarray, B: np.ndarray, X: np.ndarray,
                 cfg: OptimizeConfig):
        self.n = n
        self.tails = np.asarray(tails)
        self.heads = np.asarray(heads)
        self.V = int(max(self.tails.max(), self.heads.max())) + 1 if len(tails) else 1
        self.E = len(tails)
        self.cfg = cfg
        N = len(B)
        self.S_int = np.array(S_int, dtype=np.int64)
        self.B = np.array(B, dtype=np.float64)
        self.X = np.array(X, dtype=np.float64)
        self.X -= self.X[:, :1, :]          # translation gauge
        self.t = np.full(N, cfg.step0)
        self.status = np.zeros(N, dtype=np.uint8)
        self.iters = np.zeros(N, dtype=np.int32)
        P = np.zeros((self.E, self.V))
        for e in range(self.E):
            P[e, self.heads[e]] += 1.0
            P[e, self.tails[e]] -= 1.0
        self.P = P
        self._refresh_shift_floats()
        self._gauge(np.arange(N))
        self.f, self.ell = self._eval(self.X, self.B, self.ST)
        bad = ~np.isfinite(self.f)
        self.status[bad] = 3
        collapsed = (self.ell.min(axis=1) < cfg.eps_edge) & (self.status == 0)
        self.status[collapsed] = 2
        self._f_snap = self.f.copy()
        self._stall = np.zeros(N, dtype=np.int16)
        # previous-step memory for the Barzilai-Borwein step estimate
        self._gXo = np.zeros_like(self.X)
        self._gBo = np.zeros_like(self.B)
        self._gsqo = np.zeros(N)
        self._tacc = np.zeros(N)
        self._has_prev = np.zeros(N, dtype=bool)

    # -- low-level evaluation ------------------------------------------------

    def _refresh_shift_floats(self):
        self.S = self.S_int.astype(np.float64)
        self.ST = np.ascontiguousarray(self.S.transpose(0, 2, 1))

    def _eval(self, X, B, ST):
        vec = (B @ ST).transpose(0, 2, 1) + X[:, self.heads] - X[:, self.tails]
        ell = np.sqrt(np.einsum('aei,aei->ae', vec, vec))
        with np.errstate(divide='ignore', invalid='ignore'):
            f = self.n * np.log(ell.sum(1)) - np.log(np.abs(_det_batch(B)))
        return f, ell

    def _gauge(self, idx):
        det = _det_batch(self.B[idx])
        with np.errstate(divide='ignore', invalid='ignore'):
            c = np.abs(det) ** (-1.0 / self.n)
        ok = np.isfinite(c)
        self.status[idx[~ok]] = 3
        idxok = idx[ok]
        self.B[idxok] *= c[ok, None, None]
        self.X[idxok] *= c[ok, None, None]

    # -- safeguard services --------------------------------------------------

    def _service(self, idx, check_cond: bool):
        B = self.B[idx]
        norms = np.sqrt(np.einsum('aij,aij->aj', B, B))
        ratio = norms.max(1) / norms.min(1)
        changed = False
        for k in np.flatnonzero(ratio > _RATIO_LIMIT):
            i = idx[k]
            reduced, U = greedy_reduce(self.B[i])
            if np.array_equal(U, np.eye(self.n, dtype=np.int64)):
                continue
            self.B[i] = reduced
            self.S_int[i] = self.S_int[i] @ _int_inverse(U).T
            self._has_prev[i] = False       # old gradient lives in old coordinates
            changed = True
        if changed:
            self._refresh_shift_floats()
        if check_cond:
            sv = np.linalg.svd(self.B[idx], compute_uv=False)
            degen = sv[:, 0] / sv[:, -1] > _COND_LIMIT
            self.status[idx[degen]] = 3
        # plateau cutoff: instances that stopped improving burn no more budget
        drop = np.abs(self.f[idx] - self._f_snap[idx]) \
            <= 1e-14 * np.maximum(1.0, np.abs(self.f[idx]))
        self._stall[idx[drop]] += 1
        self._stall[idx[~drop]] = 0
        self.status[idx[(self._stall[idx] >= _STALL_PATIENCE) & (self.status[idx] == 0)]] = 4
        self._f_snap[idx] = self.f[idx]

    # -- descent -------------------------------------------------------------

    def run(self):
        """Advance every active instance by up to ``cfg.max_iter`` accepted steps."""
        cfg = self.cfg
        n = self.n
        for step in range(cfg.max_iter):
            idx = np.flatnonzero(self.status == 0)
            if len(idx) == 0:
                return
            X, B, ST = self.X[idx], self.B[idx], self.ST[idx]
            f, ell = self.f[idx], self.ell[idx]
            vec = (B @ ST).transpose(0, 2, 1) + X[:, self.heads] - X[:, self.tails]
            u = vec / ell[..., None]
            L = ell.sum(1)
            F = np.einsum('ev,aei->avi', self.P, u)
            force_max = np.sqrt(np.einsum('avi,avi->av', F, F)).max(1)
            gX = (n / L)[:, None, None] * F
            gX[:, 0, :] = 0.0
            det = _det_batch(B)
            gB = (n / L)[:, None, None] * (u.transpose(0, 2, 1) @ self.S[idx]) \
                - _invT_batch(B, det)
            gsq = np.einsum('avi,avi->a', gX, gX) + np.einsum('aij,aij->a', gB, gB)
            ginf = np.maximum(np.abs(gX).reshape(len(idx), -1).max(1),
                              np.abs(gB).reshape(len(idx), -1).max(1))

            done = (ginf <= cfg.g_tol) & (force_max <= cfg.g_tol)
            self.status[idx[done]] = 1
            live = ~done
            if not live.any():
                continue
            sub = idx[live]
            X, B, gX, gB, gsq, f = X[live], B[live], gX[live], gB[live], gsq[live], f[live]
            ST = ST[live]

            # Barzilai-Borwein step estimate from the last accepted step,
            # with doubling of the previous step as the fallback; the line
            # search below safeguards both
            cross = (np.einsum('avi,avi->a', gX, self._gXo[sub])
                     + np.einsum('aij,aij->a', gB, self._gBo[sub]))
            dxdg = -self._tacc[sub] * (cross - self._gsqo[sub])
            dgdg = gsq - 2.0 * cross + self._gsqo[sub]
            with np.errstate(divide='ignore', invalid='ignore'):
                t_bb = dxdg / dgdg
            fallback = np.minimum(self.t[sub] * 2.0, 1e3)
            use_bb = self._has_prev[sub] & np.isfinite(t_bb) & (t_bb > 0)
            t = np.where(use_bb, np.clip(t_bb, 1e-12, 1e3), fallback)
            need = np.arange(len(sub))
            ft = np.empty_like(f)
            Xt = np.empty_like(X)
            Bt = np.empty_like(B)
            ellt = np.empty_like(self.ell[sub])
            for _ in range(80):
                Xt[need] = X[need] - t[need, None, None] * gX[need]
                Bt[need] = B[need] - t[need, None, None] * gB[need]
                ft_need, ell_need = self._eval(Xt[need], Bt[need], ST[need])
                ft[need] = ft_need
                ellt[need] = ell_need
                with np.errstate(invalid='ignore'):
                    ok = ft[need] <= (f[need] - cfg.armijo * t[need] * gsq[need]
                                      + 1e-15 * np.maximum(1.0, np.abs(f[need])))
                ok &= np.isfinite(ft[need])
                if ok.all():
                    need = need[:0]
                    break
                need = need[~ok]
                t[need] *= cfg.backtrack
            stalled = np.zeros(len(sub), dtype=bool)
            if len(need):
                # the line search exhausted its budget without a usable step
                stalled[need] = True
                self.status[sub[need]] = 4
            moved = ~stalled
            acc = sub[moved]
            if len(acc) == 0:
                continue
            if not (ft[moved] <= f[moved] + 1e-12 * np.abs(f[moved]) + 1e-12).all():
                raise RuntimeError("objective increased on an accepted step")
            self.t[acc] = t[moved]
            self.X[acc] = Xt[moved]
            self.B[acc] = Bt[moved]
            self.iters[acc] += 1
            # scale gauge: renormalize to unit cell volume; f is invariant,
            # and the stored step memory transforms as g -> g/c, t -> c^2 t
            detn = _det_batch(Bt[moved])
            c = np.abs(detn) ** (-1.0 / n)
            self._gXo[acc] = gX[moved] / c[:, None, None]
            self._gBo[acc] = gB[moved] / c[:, None, None]
            self._gsqo[acc] = gsq[moved] / c ** 2
            self._tacc[acc] = t[moved] * c ** 2
            self._has_prev[acc] = True
            self.B[acc] *= c[:, None, None]
            self.X[acc] *= c[:, None, None]
            ell_new = ellt[moved] * c[:, None]
            f_new = n * np.log(ell_new.sum(1))
            if not (np.abs(f_new - ft[moved]) <= 1e-11 * np.maximum(1.0, np.abs(f_new))).all():
                raise RuntimeError("scale gauge changed the objective")
            self.f[acc] = f_new
            self.ell[acc] = ell_new
            collapsed = ell_new.min(1) < cfg.eps_edge
            self.status[acc[collapsed]] = 2
            if (step + 1) % _SERVICE_EVERY == 0:
                alive = np.flatnonzero(self.status == 0)
                if len(alive):
                    self._service(alive,
                                  check_cond=(step + 1) % (2 * _SERVICE_EVERY) == 0)

    def network_at(self, i: int) -> PeriodicNetwork:
        g = QuotientGraph(self.n, self.V, self.tails, self.heads, self.S_int[i])
        return PeriodicNetwork(g, Lattice(self.B[i]), self.X[i])


def _sample_starts(rng, count: int, n: int, V: int, tails, heads, S_int):
    """Random valid starting states, matching :func:`random_network`.

    Basis: identity plus uniform(-0.3, 0.3) entries, redrawn until
    |det| > 0.1; positions uniform in the unit cell; instances with a
    collapsed or non-immersed star are redrawn, up to 100 rounds.
    """
    B = np.empty((count, n, n))
    X = np.empty((count, V, n))
    todo = np.arange(count)
    for _ in range(100):
        if len(todo) == 0:
            break
        m = len(todo)
        Bc = np.eye(n) + rng.uniform(-0.3, 0.3, (m, n, n))
        for _ in range(100):
            bad = np.abs(_det_batch(Bc)) <= 0.1
            if not bad.any():
                break
            Bc[bad] = np.eye(n) + rng.uniform(-0.3, 0.3, (int(bad.sum()), n, n))
        frac = rng.uniform(0.0, 1.0, (m, V, n))
        Xc = np.einsum('aij,avj->avi', Bc, frac)
        B[todo], X[todo] = Bc, Xc
        ok = _starts_valid(Bc, Xc, tails, heads, S_int[todo])
        todo = todo[~ok]
    if len(todo):
        raise RuntimeError("failed to draw a valid starting network in 100 rounds")
    return B, X


def _starts_valid(B, X, tails, heads, S_int) -> np.ndarray:
    ST = np.asarray(S_int, dtype=np.float64).transpose(0, 2, 1)
    vec = (B @ ST).transpose(0, 2, 1) + X[:, heads] - X[:, tails]
    ell = np.sqrt(np.einsum('aei,aei->ae', vec, vec))
    ok = (ell > 1e-9).all(axis=1)
    u = vec / np.maximum(ell, 1e-300)[..., None]
    V = X.shape[1]
    for v in range(V):
        dirs = []
        for e in range(len(tails)):
            if tails[e] == v:
                dirs.append(u[:, e])
            if heads[e] == v:
                dirs.append(-u[:, e])
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                ok &= np.abs(dirs[i] - dirs[j]).max(axis=1) >= 1e-9
    return ok


def objective_and_gradient(net: PeriodicNetwork):
    """Descent objective n log L - log|det B| with its analytic gradient.

    Returns (f, position gradient, basis gradient); the gradient of the
    pinned vertex 0 is zeroed, matching the translation gauge of the
    descent.  The position gradient of L itself is the vertex force.
    """
    g = net.graph
    n = g.dim
    S = g.shifts.astype(np.float64)[None, :, :]
    ST = np.ascontiguousarray(S.transpose(0, 2, 1))
    B = net.lattice.basis[None, :, :]
    X = net.positions[None, :, :]
    vec = (B @ ST).transpose(0, 2, 1) + X[:, g.heads] - X[:, g.tails]
    ell = np.sqrt(np.einsum('aei,aei->ae', vec, vec))
    if np.any(ell == 0.0):
        raise ValueError("zero-length edge")
    L = ell.sum(1)
    det = _det_batch(B)
    f = n * np.log(L) - np.log(np.abs(det))
    u = vec / ell[..., None]
    P = np.zeros((g.edge_count, g.vertex_count))
    for e in range(g.edge_count):
        P[e, g.heads[e]] += 1.0
        P[e, g.tails[e]] -= 1.0
    gX = (n / L)[:, None, None] * np.einsum('ev,aei->avi', P, u)
    gX[:, 0, :] = 0.0
    gB = (n / L)[:, None, None] * (u.transpose(0, 2, 1) @ S) - _invT_batch(B, det)
    return float(f[0]), gX[0], gB[0]


def random_network(g: QuotientGraph, seed: int = 0) -> PeriodicNetwork:
    """One random valid network on the given quotient graph (deterministic in seed)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA5)))
    B, X = _sample_starts(rng, 1, g.dim, g.vertex_count, g.tails, g.heads,
                          g.shifts[None, :, :])
    return PeriodicNetwork(g, Lattice(B[0]), X[0])


def _require_valid_graph(g: QuotientGraph):
    probe = PeriodicNetwork(g, Lattice(np.eye(g.dim)),
                            np.zeros((g.vertex_count, g.dim)))
    rep = validate(probe)
    if not rep.rank_full or not rep.lift_connected:
        raise ValueError(
            f"graph is not a valid n-periodic quotient: rank {rep.cycle_rank} of "
            f"{g.dim}, invariant factors {rep.invariant_factors}")


def minimize_fixed_shifts(g: QuotientGraph, cfg: OptimizeConfig | None = None) -> OptimizeResult:
    """Minimize L^n/V over positions and lattice for one shift assignment.

    Runs ``cfg.restarts`` random initializations to convergence and keeps
    the best; ties go to the lowest restart index.
    """
    cfg = cfg or OptimizeConfig()
    _require_valid_graph(g)
    return _multistart(g, np.array(g.shifts)[None], np.zeros(1, dtype=np.int64), cfg)


def minimize_topology(tag: TopologyClass | str, n: int,
                      cfg: OptimizeConfig | None = None) -> OptimizeResult:
    """Global search over the shift assignments of a topology.

    Assignments related by a lattice basis change or a skeleton
    automorphism share one landscape, so only one representative per
    orbit (``shift_orbits``) is descended, from ``cfg.restarts`` starts
    each.  Trace records name the representative by its index in
    ``enumerate_shift_arrays``.  The returned best is deterministic in
    (seed, config); ties go to the lowest (assignment, restart) pair.
    """
    cfg = cfg or OptimizeConfig()
    top = TopologyClass.from_tag(tag) if isinstance(tag, str) else tag
    _, admissible = min_vertex_count(n, top.degree)
    if not any(t == top for t in admissible):
        raise ValueError(f"topology {top.tag} is not admissible for "
                         f"(n={n}, d={top.degree})")
    skeleton = build_abstract(top, n)
    orbits = shift_orbits(skeleton, n, cfg.s_max)
    if not orbits:
        raise ValueError("no valid shift assignment exists for this topology")
    reps = np.stack([o.shifts for o in orbits])
    return _multistart(skeleton, reps, np.array([o.index for o in orbits]), cfg)


def _multistart(g: QuotientGraph, reps: np.ndarray, rep_index: np.ndarray,
                cfg: OptimizeConfig) -> OptimizeResult:
    """Descend ``cfg.restarts`` random starts of every assignment in ``reps``.

    Instances are ordered (assignment, restart) and descended to
    convergence in batches of at most ``_CHUNK``; their starts come from
    one ``SeedSequence((seed, 0))`` stream, drawn batch by batch.  The
    best is the lowest value, ties within 1e-9 going to the first
    instance, first within each batch and then across batches;
    ``rep_index`` labels the assignments in the traces.
    """
    n, V, R = g.dim, g.vertex_count, cfg.restarts
    S_all = np.repeat(reps, R, axis=0)
    N = len(S_all)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))
    values = np.empty(N)
    iters = np.empty(N, dtype=np.int32)
    status = np.empty(N, dtype=np.uint8)
    leaders, networks = [], []      # best instance of each batch
    for lo in range(0, N, _CHUNK):
        hi = min(lo + _CHUNK, N)
        B, X = _sample_starts(rng, hi - lo, n, V, g.tails, g.heads, S_all[lo:hi])
        batch = _Batch(n, g.tails, g.heads, S_all[lo:hi], B, X, cfg)
        batch.run()
        batch.status[batch.status == 0] = 4         # ran out of iterations
        with np.errstate(over='ignore'):
            values[lo:hi] = np.exp(batch.f)
        iters[lo:hi] = batch.iters
        status[lo:hi] = batch.status
        i = int(_near_best(values[lo:hi])[0])
        leaders.append(lo + i)
        networks.append(batch.network_at(i))
    lead = int(_near_best(values[leaders])[0])
    best = leaders[lead]
    assignment = np.repeat(np.arange(len(reps)), R)
    restart = np.tile(np.arange(R, dtype=np.int64), len(reps))
    traces = TraceTable(rep_index[assignment], restart, values, iters, status)
    return OptimizeResult(network=networks[lead], value=float(values[best]),
                          termination=_STATUS_LABELS[int(status[best])],
                          shifts=np.array(reps[assignment[best]]), traces=traces,
                          assignment_index=int(rep_index[assignment[best]]),
                          restart_index=int(restart[best]))


def _near_best(values: np.ndarray) -> np.ndarray:
    """Indices within 1e-9 of the least finite value (all, if none is finite)."""
    v = np.where(np.isfinite(values), values, np.inf)
    return np.flatnonzero(v <= v.min() + 1e-9)
