"""Dense LP (primal + dual), branch-and-bound and a k-best subset DP for set
partitioning.

The simplex is a two-phase dense tableau used to locate an optimal basis;
the reported solution is then recomputed from that basis against the
original data with a fresh linear solve, which keeps primal/dual residuals
near machine precision at the sizes this library needs (column-generation
masters and branch-and-bound nodes of a few hundred columns and a few dozen
rows). A warm basis is re-entered through the primal simplex when it is
primal feasible and through the dual simplex when it is only dual feasible.

The MILP solvers are intentionally narrow: binary set-partitioning problems
with a cardinality row. bnb_solve finds one optimum best-first on the LP
relaxation, each node re-solved from its parent's basis;
enumerate_top_solutions ranks the n best partitions by a dynamic program
over the uncovered items.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceeded, Infeasible, NumericalFailure, PartitionMismatch
from .model import BundleOption

LE, EQ, GE = "<=", "=", ">="

_PIVOT_TOL = 1e-10
_BLAND_AFTER = 1000


@dataclass
class LinearProgram:
    """max objective . x subject to rows (coeffs, relation, rhs) and
    per-variable bounds [lo, hi] with finite lo (hi may be None)."""

    objective: np.ndarray
    constraints: list[tuple[np.ndarray, str, float]]
    bounds: Optional[list[tuple[float, Optional[float]]]] = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.constraints = [
            (np.asarray(a, dtype=float), rel, float(b)) for a, rel, b in self.constraints
        ]
        n = self.objective.size
        if self.bounds is None:
            self.bounds = [(0.0, None)] * n
        if len(self.bounds) != n:
            raise ValueError("bounds length must match variable count")
        for lo, hi in self.bounds:
            if not math.isfinite(lo):
                raise ValueError("lower bounds must be finite")
            if hi is not None and hi < lo:
                raise ValueError("need lo <= hi")
        for a, rel, _ in self.constraints:
            if a.shape != (n,):
                raise ValueError("constraint row length mismatch")
            if rel not in (LE, EQ, GE):
                raise ValueError(f"unknown relation {rel!r}")

    def to_debug_json(self) -> str:
        return json.dumps(
            {
                "objective": self.objective.tolist(),
                "constraints": [
                    {"coeffs": a.tolist(), "rel": rel, "rhs": b}
                    for a, rel, b in self.constraints
                ],
                "bounds": [[lo, hi] for lo, hi in self.bounds],
            }
        )


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    primal: Optional[np.ndarray] = None
    duals: Optional[np.ndarray] = None
    objective: Optional[float] = None
    reduced_costs: Optional[np.ndarray] = None
    basis: Optional[tuple] = None  # opaque warm-start token
    residuals: dict = field(default_factory=dict)


def _canonical_form(lp: LinearProgram):
    """Rewrite as max c.y with A y (<= | =) b, y >= 0: lower bounds shifted
    out, finite upper bounds appended as rows, >= rows negated."""
    n = lp.objective.size
    lo = np.array([bd[0] for bd in lp.bounds])
    rows, rels, rhs, tags = [], [], [], []
    for k, (a, rel, b) in enumerate(lp.constraints):
        shifted = b - float(a @ lo)
        if rel == GE:
            rows.append(-a)
            rels.append(LE)
            rhs.append(-shifted)
            tags.append(("row", k, -1.0))
        else:
            rows.append(a)
            rels.append(rel)
            rhs.append(shifted)
            tags.append(("row", k, 1.0))
    for j, (l, h) in enumerate(lp.bounds):
        if h is not None:
            e = np.zeros(n)
            e[j] = 1.0
            rows.append(e)
            rels.append(LE)
            rhs.append(h - l)
            tags.append(("ub", j, 1.0))
    A = np.array(rows) if rows else np.zeros((0, n))
    return A, rels, np.array(rhs, dtype=float), tags, lo


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int):
    tab[row] /= tab[row, col]
    piv_row = tab[row]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, piv_row)
    basis[row] = col


def _run_simplex(tab, basis, cost, allowed, max_iter=50_000):
    """Maximize the cost row in place. Dantzig pricing, switching to Bland's
    rule after a long degenerate run. Returns 'optimal' or 'unbounded'."""
    m = tab.shape[0]
    degenerate = 0
    bland = False
    for _ in range(max_iter):
        red = cost[:-1]
        if bland:
            col = -1
            for j in np.flatnonzero(red > _PIVOT_TOL):
                if allowed[j]:
                    col = int(j)
                    break
            if col < 0:
                return "optimal"
        else:
            masked = np.where(allowed, red, -np.inf)
            col = int(np.argmax(masked))
            if masked[col] <= _PIVOT_TOL:
                return "optimal"
        colvals = tab[:, col]
        pos = colvals > _PIVOT_TOL
        if not np.any(pos):
            return "unbounded"
        ratios = np.full(m, np.inf)
        ratios[pos] = tab[:, -1][pos] / colvals[pos]
        best = float(np.min(ratios))
        if bland:
            tied = np.flatnonzero(ratios <= best + 1e-12)
            row = int(min(tied, key=lambda r: basis[r]))
        else:
            row = int(np.argmin(ratios))
        if best < 1e-12:
            degenerate += 1
            if degenerate >= _BLAND_AFTER:
                bland = True
        else:
            degenerate = 0
        _pivot(tab, basis, row, col)
        cost -= cost[col] * tab[row]
    raise NumericalFailure("simplex iteration limit reached")


def _run_dual_simplex(tab, basis, cost, allowed, max_iter=50_000):
    """Restore primal feasibility of a dual-feasible tableau in place. The
    leaving row has the most negative rhs; the entering column wins the
    dual ratio test over allowed columns. Switches to Bland's rule after a
    long degenerate run. Returns 'feasible' or 'infeasible' (a row whose
    rhs is negative while no allowed entry is)."""
    degenerate = 0
    bland = False
    for _ in range(max_iter):
        rhs = tab[:, -1]
        if bland:
            short = np.flatnonzero(rhs < -1e-9)
            if not short.size:
                return "feasible"
            row = int(min(short, key=lambda r: basis[r]))
        else:
            row = int(np.argmin(rhs))
            if rhs[row] >= -1e-9:
                return "feasible"
        rowvals = tab[row, :-1]
        neg = allowed & (rowvals < -_PIVOT_TOL)
        if not np.any(neg):
            return "infeasible"
        ratios = np.full(rowvals.size, np.inf)
        ratios[neg] = cost[:-1][neg] / rowvals[neg]
        best = float(np.min(ratios))
        if bland:
            col = int(np.flatnonzero(ratios <= best + 1e-12)[0])
        else:
            col = int(np.argmin(ratios))
        if best < 1e-12:
            degenerate += 1
            if degenerate >= _BLAND_AFTER:
                bland = True
        else:
            degenerate = 0
        _pivot(tab, basis, row, col)
        cost -= cost[col] * tab[row]
    raise NumericalFailure("dual simplex iteration limit reached")


def _encode_basis(basis, n, slack_rows):
    token = []
    for j in basis:
        if j < n:
            token.append(("x", int(j)))
        elif j < n + len(slack_rows):
            token.append(("s", int(slack_rows[j - n])))
        else:
            token.append(("a", int(j - n - len(slack_rows))))
    return tuple(token)


def _decode_basis(token, n, slack_rows):
    pos_of_row = {r: k for k, r in enumerate(slack_rows)}
    out = []
    for kind, v in token:
        if kind == "x":
            if v >= n:
                return None
            out.append(v)
        elif kind == "s":
            if v not in pos_of_row:
                return None
            out.append(n + pos_of_row[v])
        else:
            return None  # artificial in a warm basis: recompute cold
    return out


def _phase2_cost(tab, basis, c, n, n_slack):
    """The objective row priced out against the tableau's basis, and the
    columns phase 2 may enter (structurals and slacks, not artificials)."""
    cost = np.zeros(tab.shape[1])
    cost[:n] = c
    for r, j in enumerate(basis):
        if abs(cost[j]) > 0:
            cost -= cost[j] * tab[r]
    allowed = np.zeros(tab.shape[1] - 1, dtype=bool)
    allowed[: n + n_slack] = True
    return cost, allowed


def _solve_warm(M, b, c, n, n_slack, basis):
    """Re-enter the simplex from a decoded warm basis over the columns of M:
    the primal simplex if the basis is primal feasible, the dual simplex
    first if it is only dual feasible. None means solve cold."""
    m = M.shape[0]
    if basis is None or len(basis) != m or len(set(basis)) != m:
        return None
    try:
        binv = np.linalg.inv(M[:, basis])
    except np.linalg.LinAlgError:
        return None
    tab = np.hstack([binv @ M, (binv @ b)[:, None]])
    basis = list(basis)
    cost, allowed = _phase2_cost(tab, basis, c, n, n_slack)
    if not np.all(tab[:, -1] >= -1e-9):
        if not np.all(cost[:-1][allowed] <= 1e-9):
            return None
        if _run_dual_simplex(tab, basis, cost, allowed) == "infeasible":
            return "infeasible", None
    np.maximum(tab[:, -1], 0.0, out=tab[:, -1])
    status = _run_simplex(tab, basis, cost, allowed)
    return status, (basis if status == "optimal" else None)


def _solve_canonical(A, rels, b, c, warm_token=None):
    """Two-phase tableau simplex, or a warm re-entry (_solve_warm). Returns
    (status, basis) with basis indices into the columns of
    [A | slacks | artificials]."""
    m, n = A.shape
    slack_rows = [i for i, r in enumerate(rels) if r == LE]
    n_slack = len(slack_rows)
    M = np.zeros((m, n + n_slack + m))
    M[:, :n] = A
    for k, i in enumerate(slack_rows):
        M[i, n + k] = 1.0
    for i in range(m):
        M[i, n + n_slack + i] = 1.0

    if warm_token is not None and m > 0:
        warm = _solve_warm(M, b, c, n, n_slack, _decode_basis(warm_token, n, slack_rows))
        if warm is not None:
            return warm

    # phase 1: artificial basis over rows with nonnegative rhs
    sign = np.where(b < 0, -1.0, 1.0)
    tab = np.hstack([M * sign[:, None], (b * sign)[:, None]])
    basis = [n + n_slack + i for i in range(m)]
    cost = np.zeros(tab.shape[1])
    cost[n + n_slack : n + n_slack + m] = -1.0
    for r, j in enumerate(basis):
        cost -= cost[j] * tab[r]
    allowed = np.ones(n + n_slack + m, dtype=bool)
    status = _run_simplex(tab, basis, cost, allowed)
    if status != "optimal" or cost[-1] > 1e-7:
        return "infeasible", None
    for r in range(m):  # drive artificials out where the row is not redundant
        if basis[r] >= n + n_slack:
            nz = np.flatnonzero(np.abs(tab[r, : n + n_slack]) > 1e-9)
            if nz.size:
                _pivot(tab, basis, r, int(nz[0]))

    cost, allowed = _phase2_cost(tab, basis, c, n, n_slack)
    status = _run_simplex(tab, basis, cost, allowed)
    if status != "optimal":
        return status, None
    return "optimal", basis


def _recompute_from_basis(A, rels, b, c, basis):
    """Exact primal/dual for a basis, solved against the original data."""
    m, n = A.shape
    slack_rows = [i for i, r in enumerate(rels) if r == LE]
    n_slack = len(slack_rows)
    M = np.zeros((m, n + n_slack + m))
    M[:, :n] = A
    for k, i in enumerate(slack_rows):
        M[i, n + k] = 1.0
    for i in range(m):
        M[i, n + n_slack + i] = 1.0
    cost = np.zeros(n + n_slack + m)
    cost[:n] = c
    B = M[:, basis]
    xb = np.linalg.solve(B, b)
    y = np.linalg.solve(B.T, cost[basis])
    x_full = np.zeros(n + n_slack + m)
    x_full[basis] = xb
    return x_full[:n], y, slack_rows


def simplex_solve(lp: LinearProgram, warm_basis=None) -> LpSolution:
    """Solve a dense LP. The returned primal/dual pair satisfies feasibility,
    complementary slackness, and strong duality to tight tolerances
    (NumericalFailure beyond 1e-7).

    warm_basis is the `basis` token of an earlier solution, possibly
    extended for constraints appended since: ("s", k) makes the slack of
    constraint k basic. (Rows for finite variable upper bounds follow the
    constraints, so appending shifts them; extend only bound-free LPs.) A
    basis that is primal feasible for this LP continues with the primal
    simplex (e.g. after adding columns); one that is primal infeasible but
    dual feasible (e.g. after adding a row the old optimum violates) runs
    the dual simplex first; any other token, or one that no longer fits
    the LP, is ignored and the LP is solved cold. The certificate check is
    the same on every path.
    """
    n = lp.objective.size
    if n > 5000 or len(lp.constraints) > 2000:
        raise CapExceeded(
            f"LP with {n} variables and {len(lp.constraints)} constraints exceeds "
            "the dense-solver size cap (5000 and 2000)"
        )
    A, rels, b, tags, lo = _canonical_form(lp)
    c = lp.objective.copy()

    if A.shape[0] == 0:  # only bounds; unbounded unless objective <= 0
        if np.any(c > 0):
            return LpSolution(status="unbounded")
        x = lo.copy()
        return LpSolution(
            status="optimal", primal=x, duals=np.zeros(0), objective=float(c @ x),
            reduced_costs=c.copy(), basis=(),
        )

    status, basis = _solve_canonical(A, rels, b, c, warm_token=warm_basis)
    if status != "optimal":
        return LpSolution(status=status)

    x_canon, y_canon, slack_rows = _recompute_from_basis(A, rels, b, c, basis)
    x_canon = np.where(np.abs(x_canon) < 1e-11, 0.0, x_canon)

    x = x_canon + lo
    duals = np.zeros(len(lp.constraints))
    ub_duals = np.zeros(n)
    for i, (kind, k, s) in enumerate(tags):
        if kind == "row":
            duals[k] = s * y_canon[i]
        else:
            ub_duals[k] = y_canon[i]
    if lp.constraints:
        rowmat = np.array([a for a, _, _ in lp.constraints])
        reduced = c - rowmat.T @ duals
    else:
        reduced = c.copy()

    sol = LpSolution(
        status="optimal",
        primal=x,
        duals=duals,
        objective=float(c @ x),
        reduced_costs=reduced,
        basis=_encode_basis(basis, n, slack_rows),
    )
    sol.residuals = lp_residuals(lp, sol, ub_duals)
    worst = max(sol.residuals.values())
    if worst > 1e-7:
        raise NumericalFailure(
            f"LP certificate residual {worst:.2e} exceeds 1e-7; dump: {lp.to_debug_json()[:400]}"
        )
    return sol


def lp_residuals(lp: LinearProgram, sol: LpSolution, ub_duals=None) -> dict:
    """Violation magnitudes of the LP optimality system (all should be ~0).

    Builds the bound multipliers (u at upper bounds, w at lower bounds) from
    the reduced costs and measures primal feasibility, dual feasibility and
    sign conditions, complementary slackness, and the primal-dual gap.
    """
    x, y = sol.primal, sol.duals
    n = lp.objective.size
    lo = np.array([bd[0] for bd in lp.bounds])
    hi = np.array([np.inf if bd[1] is None else bd[1] for bd in lp.bounds])
    d = sol.reduced_costs

    if ub_duals is None:
        ub_duals = np.where((np.isfinite(hi)) & (x >= hi - 1e-9) & (d > 0), d, 0.0)
    u = ub_duals
    rc = d - u  # canonical reduced cost; w = max(-rc, 0) completes stationarity
    w = np.maximum(-rc, 0.0)

    primal = 0.0
    slack_comp = 0.0
    dual_sign = 0.0
    dual_obj = 0.0
    for (a, rel, rhs), yi in zip(lp.constraints, y):
        ax = float(a @ x)
        if rel == LE:
            primal = max(primal, ax - rhs)
            dual_sign = max(dual_sign, -yi)
            slack_comp = max(slack_comp, abs(yi * (rhs - ax)))
        elif rel == GE:
            primal = max(primal, rhs - ax)
            dual_sign = max(dual_sign, yi)
            slack_comp = max(slack_comp, abs(yi * (rhs - ax)))
        else:
            primal = max(primal, abs(ax - rhs))
        dual_obj += yi * rhs
    primal = max(primal, float(np.max(lo - x, initial=0.0)))
    finite_hi = np.isfinite(hi)
    if np.any(finite_hi):
        primal = max(primal, float(np.max((x - hi)[finite_hi], initial=0.0)))

    dual_sign = max(dual_sign, float(np.max(-u, initial=0.0)))
    dual_feas = float(np.max(rc, initial=0.0))  # need c - A'y - u <= 0 up to w
    var_comp = float(np.max(np.abs(u * np.where(finite_hi, hi - x, 0.0)), initial=0.0))
    var_comp = max(var_comp, float(np.max(np.abs(w * (x - lo)), initial=0.0)))

    dual_obj += float(np.sum(u[finite_hi] * hi[finite_hi])) - float(np.sum(w * lo))
    gap = abs(sol.objective - dual_obj)
    return {
        "primal": float(primal),
        "dual_sign": float(dual_sign),
        "dual_feasibility": float(dual_feas),
        "slack_complementarity": float(slack_comp),
        "variable_complementarity": float(var_comp),
        "duality_gap": float(gap),
    }


# ---------------------------------------------------------------------------
# set-partitioning MILP
# ---------------------------------------------------------------------------


@dataclass
class SetPartitionMilp:
    """Pick a reward-maximizing subset of options that partitions the items,
    with at most max_bundles options of size > 1."""

    options: list[BundleOption]
    rewards: np.ndarray
    item_ids: Sequence[int]
    max_bundles: int

    def __post_init__(self):
        self.rewards = np.asarray(self.rewards, dtype=float)
        self.item_ids = list(self.item_ids)
        if self.rewards.shape != (len(self.options),):
            raise ValueError("one reward per option required")
        covered = set()
        for o in self.options:
            covered.update(o.items)
        missing = [l for l in self.item_ids if l not in covered]
        if missing:
            raise Infeasible(f"items {missing} not covered by any option")
        extra = sorted(covered.difference(self.item_ids))
        if extra:
            raise PartitionMismatch(f"options hold items {extra} outside item_ids")

    def base_lp(self) -> LinearProgram:
        rows = []
        for l in self.item_ids:
            a = np.array([1.0 if l in o.items else 0.0 for o in self.options])
            rows.append((a, EQ, 1.0))
        bundle_row = np.array([1.0 if o.cardinality > 1 else 0.0 for o in self.options])
        rows.append((bundle_row, LE, float(self.max_bundles)))
        return LinearProgram(objective=self.rewards.copy(), constraints=rows)

    def singleton_assignment(self) -> Optional[np.ndarray]:
        """The all-singletons partition as an assignment, if representable."""
        z = np.zeros(len(self.options))
        index = {o.items: k for k, o in enumerate(self.options)}
        for l in self.item_ids:
            k = index.get((l,))
            if k is None:
                return None
            z[k] = 1.0
        return z


def _branch_row(n: int, j: int, v: int):
    """x_j <= 0 for the 0-branch, x_j >= 1 for the 1-branch."""
    e = np.zeros(n)
    e[j] = 1.0
    return (e, LE, 0.0) if v == 0 else (e, GE, 1.0)


def bnb_solve(
    milp: SetPartitionMilp, integrality_tol: float = 1e-6
) -> tuple[np.ndarray, float]:
    """One optimal binary partition by best-first branch and bound (Z*,
    min_empty_miles); enumerate_top_solutions ranks the n best.

    Nodes are ordered by LP relaxation bound (ties by creation index);
    branching fixes the most fractional variable (ties by lowest option
    index). A fixing is a row appended to the root LP, x_j <= 0 or
    x_j >= 1, so a child differs from its parent by one row and is
    re-solved by the dual simplex from the parent's optimal basis; the
    root is solved cold. The incumbent is seeded with the all-singletons
    partition when available so ties resolve toward not bundling.
    """
    n = len(milp.options)
    incumbent = None
    incumbent_obj = -np.inf
    z0 = milp.singleton_assignment()
    if z0 is not None and milp.max_bundles >= 0:
        incumbent = z0
        incumbent_obj = float(milp.rewards @ z0)

    base = milp.base_lp()
    heap: list = []
    counter = 0
    heapq.heappush(heap, (-np.inf, counter, (), None))
    while heap:
        neg_bound, _, fixings, warm = heapq.heappop(heap)
        if -neg_bound <= incumbent_obj + 1e-9 and math.isfinite(neg_bound):
            continue
        lp = LinearProgram(
            base.objective, base.constraints + [_branch_row(n, j, v) for j, v in fixings]
        )
        sol = simplex_solve(lp, warm_basis=warm)
        if sol.status != "optimal":
            continue
        bound = sol.objective
        if bound <= incumbent_obj + 1e-9:
            continue
        z = sol.primal
        frac = np.abs(z - np.round(z))
        j_star = int(np.argmax(frac))
        if frac[j_star] <= integrality_tol:
            zi = np.round(z)
            obj = float(milp.rewards @ zi)
            if obj > incumbent_obj + 1e-9:
                incumbent, incumbent_obj = zi, obj
            continue
        # most fractional, ties by lowest option index
        best_frac = frac[j_star]
        j_star = int(np.flatnonzero(frac >= best_frac - 1e-12)[0])
        child_basis = sol.basis + (("s", len(lp.constraints)),)
        for v in (0, 1):
            counter += 1
            heapq.heappush(heap, (-bound, counter, fixings + ((j_star, v),), child_basis))
    if incumbent is None:
        raise Infeasible("no feasible partition exists")
    return incumbent, incumbent_obj


# Most (uncovered items, bundles allowed) states enumerate_top_solutions
# fills before it raises CapExceeded; column-generation masters at L <= 20
# with n_eval = 10 need under two thousand.
_TOP_STATE_CAP = 100_000


def enumerate_top_solutions(
    milp: SetPartitionMilp, n: int
) -> list[tuple[np.ndarray, float]]:
    """Up to n distinct feasible partitions in non-increasing objective
    order, with their objectives rewards @ z.

    A k-best dynamic program over subsets (Yeh 1986; Lawler 1972). A state
    is (uncovered items, bundles still allowed), and its next column must
    cover the lowest uncovered item, so every partition has exactly one
    path. Each state keeps its n best completions ordered by value
    (descending), then bundle count, then the column-index path
    (lexicographic). That order is additive along a path, so cutting every
    state to n entries keeps the global top n, and ties prefer fewer
    bundles. Raises CapExceeded beyond _TOP_STATE_CAP states.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if milp.max_bundles < 0:
        return []
    pos = {l: k for k, l in enumerate(milp.item_ids)}
    rewards = milp.rewards.tolist()
    by_lowest: list[list[tuple[int, int, int]]] = [[] for _ in pos]
    for j, o in enumerate(milp.options):
        mask = sum(1 << pos[l] for l in o.items)
        by_lowest[(mask & -mask).bit_length() - 1].append((j, mask, int(o.cardinality > 1)))

    # completions per state as (-value, bundle count, path), best first
    memo: dict[tuple[int, int], list] = {(0, 0): [(-0.0, 0, ())]}

    def best(mask: int, left: int) -> list:
        left = min(left, mask.bit_count() // 2)
        key = (mask, left)
        if key in memo:
            return memo[key]
        if len(memo) >= _TOP_STATE_CAP:
            raise CapExceeded(f"partition ranking exceeds {_TOP_STATE_CAP} DP states")
        cands = []
        for j, cmask, bundle in by_lowest[(mask & -mask).bit_length() - 1]:
            if cmask & ~mask or bundle > left:
                continue
            r = rewards[j]
            for neg, count, path in best(mask ^ cmask, left - bundle):
                cands.append((neg - r, count + bundle, (j,) + path))
        cands.sort()
        memo[key] = cands[:n]
        return memo[key]

    out = []
    for _, _, path in best((1 << len(pos)) - 1, milp.max_bundles):
        z = np.zeros(len(milp.options))
        z[list(path)] = 1.0
        out.append((z, float(milp.rewards @ z)))
    # rewards @ z adds in another order than the path; the stable sort keeps
    # the DP's order wherever the two sums agree
    out.sort(key=lambda t: -t[1])
    return out


def assignment_options(milp: SetPartitionMilp, z: np.ndarray) -> list[BundleOption]:
    return [milp.options[j] for j in np.flatnonzero(z > 0.5)]
