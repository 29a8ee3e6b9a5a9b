"""Dense LP (primal + dual), branch-and-bound and a k-best subset DP for set
partitioning.

An LP is max c.x subject to A x (<= | = | >=) b and x >= 0, with A one
dense matrix. The simplex is a two-phase dense tableau over
[A | slacks | artificials], built once per solve with the >= rows negated,
and used to locate an optimal basis; the reported solution is then
recomputed from that basis against the original data with a fresh linear
solve, which keeps primal/dual residuals near machine precision at the
sizes this library needs (column-generation masters and branch-and-bound
nodes of a few hundred columns and a few dozen rows). A warm basis is
re-entered through the primal simplex when it is primal feasible and
through the dual simplex when it is only dual feasible.

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

from .errors import (
    CapExceeded,
    DimensionMismatch,
    DomainError,
    Infeasible,
    NumericalFailure,
    PartitionMismatch,
)
from .model import BundleOption

LE, EQ, GE = "<=", "=", ">="

_PIVOT_TOL = 1e-10
_BLAND_AFTER = 1000
# pivots either simplex makes before NumericalFailure, and the distance from
# the nearest integer below which bnb_solve takes an LP solution as integral
_MAX_ITER = 50_000
_INTEGRALITY_TOL = 1e-6


@dataclass
class LinearProgram:
    """max objective . x subject to A x (rels) b and x >= 0, where rels
    holds one of LE, EQ, GE per row of A. All data must be finite."""

    objective: np.ndarray
    A: np.ndarray
    rels: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.rels = np.asarray(self.rels, dtype=str)
        self.b = np.asarray(self.b, dtype=float)
        n, m = self.objective.size, self.b.size
        shapes = (self.objective.shape, self.A.shape, self.rels.shape, self.b.shape)
        if shapes != ((n,), (m, n), (m,), (m,)):
            raise DimensionMismatch(
                f"LP needs objective (n,), A (m, n), rels (m,), b (m,); got {shapes}"
            )
        if not set(self.rels.tolist()) <= {LE, EQ, GE}:
            raise DomainError(f"unknown relation in {sorted(set(self.rels.tolist()))}")
        for name in ("objective", "A", "b"):
            if not np.isfinite(getattr(self, name)).all():
                raise DomainError(f"LP {name} has a non-finite entry")

    def to_debug_json(self) -> str:
        return json.dumps(
            {
                "objective": self.objective.tolist(),
                "A": self.A.tolist(),
                "rels": self.rels.tolist(),
                "b": self.b.tolist(),
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


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int):
    tab[row] /= tab[row, col]
    piv_row = tab[row]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, piv_row)
    basis[row] = col


def _run_simplex(tab, basis, cost, allowed):
    """Maximize the cost row in place. Dantzig pricing, switching to Bland's
    rule after a long degenerate run. Returns 'optimal' or 'unbounded'."""
    m = tab.shape[0]
    degenerate = 0
    bland = False
    for _ in range(_MAX_ITER):
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


def _run_dual_simplex(tab, basis, cost, allowed):
    """Restore primal feasibility of a dual-feasible tableau in place. The
    leaving row has the most negative rhs; the entering column wins the
    dual ratio test over allowed columns. Switches to Bland's rule after a
    long degenerate run. Returns 'feasible' or 'infeasible' (a row whose
    rhs is negative while no allowed entry is)."""
    degenerate = 0
    bland = False
    for _ in range(_MAX_ITER):
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


def _solve_canonical(M, b, c, slack_rows, warm_token=None):
    """Two-phase tableau simplex over the columns of M = [A | slacks |
    artificials] (rows with a slack are <=, the others =), or a warm
    re-entry (_solve_warm). Returns (status, basis) with basis indices into
    the columns of M."""
    m = M.shape[0]
    n = c.size
    n_slack = len(slack_rows)

    if warm_token is not None:
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


def _recompute_from_basis(M, b, c, basis):
    """Exact primal x and canonical duals for a basis, solved against M."""
    cost = np.zeros(M.shape[1])
    cost[: c.size] = c
    B = M[:, basis]
    x_full = np.zeros(M.shape[1])
    x_full[basis] = np.linalg.solve(B, b)
    return x_full[: c.size], np.linalg.solve(B.T, cost[basis])


def simplex_solve(lp: LinearProgram, warm_basis=None) -> LpSolution:
    """Solve max c.x subject to A x (rels) b, x >= 0. The returned
    primal/dual pair satisfies feasibility, complementary slackness, and
    strong duality to tight tolerances (NumericalFailure beyond 1e-7 or on
    a non-finite residual). duals[i] is the multiplier of row i: >= 0 on a
    <= row, <= 0 on a >= row.

    warm_basis is the `basis` token of an earlier solution, possibly
    extended for rows appended since: ("s", k) makes the slack of row k
    basic. A basis that is primal feasible for this LP continues with the
    primal simplex (e.g. after adding columns); one that is primal
    infeasible but dual feasible (e.g. after adding a row the old optimum
    violates) runs the dual simplex first; any other token, or one that no
    longer fits the LP, is ignored and the LP is solved cold. The
    certificate check is the same on every path.
    """
    m, n = lp.A.shape
    if n > 5000 or m > 2000:
        raise CapExceeded(
            f"LP with {n} variables and {m} constraints exceeds "
            "the dense-solver size cap (5000 and 2000)"
        )
    c = lp.objective
    if m == 0:  # only x >= 0; unbounded unless objective <= 0
        if np.any(c > 0):
            return LpSolution(status="unbounded")
        x = np.zeros(n)
        return LpSolution(
            status="optimal", primal=x, duals=np.zeros(0), objective=float(c @ x),
            reduced_costs=c.copy(), basis=(),
        )

    # canonical form: >= rows negated into <= rows, then [A | slacks | artificials]
    sign = np.where(lp.rels == GE, -1.0, 1.0)
    b = sign * lp.b
    slack_rows = np.flatnonzero(lp.rels != EQ).tolist()
    n_slack = len(slack_rows)
    M = np.zeros((m, n + n_slack + m))
    M[:, :n] = sign[:, None] * lp.A
    M[slack_rows, n + np.arange(n_slack)] = 1.0
    M[np.arange(m), n + n_slack + np.arange(m)] = 1.0

    status, basis = _solve_canonical(M, b, c, slack_rows, warm_token=warm_basis)
    if status != "optimal":
        return LpSolution(status=status)

    x, y = _recompute_from_basis(M, b, c, basis)
    x = np.where(np.abs(x) < 1e-11, 0.0, x)
    duals = sign * y
    sol = LpSolution(
        status="optimal",
        primal=x,
        duals=duals,
        objective=float(c @ x),
        reduced_costs=c - lp.A.T @ duals,
        basis=_encode_basis(basis, n, slack_rows),
    )
    sol.residuals = _lp_residuals(lp, sol)
    worst = float(np.max(list(sol.residuals.values())))
    if not worst <= 1e-7:
        raise NumericalFailure(
            f"LP certificate residual {worst:.2e} exceeds 1e-7; dump: {lp.to_debug_json()[:400]}"
        )
    return sol


def _lp_residuals(lp: LinearProgram, sol: LpSolution) -> dict:
    """Violation magnitudes of the LP optimality system (all should be ~0):
    primal feasibility (rows and x >= 0), the sign conditions of the row
    duals, dual feasibility c - A'y <= 0, complementary slackness of the
    inequality rows and of x >= 0 (multiplier max(A'y - c, 0)), and the
    primal-dual gap. A NaN anywhere propagates to its entry."""
    x, y, d = sol.primal, sol.duals, sol.reduced_costs
    slack = lp.b - lp.A @ x
    le, ge = lp.rels == LE, lp.rels == GE
    row_violation = np.where(le, -slack, np.where(ge, slack, np.abs(slack)))

    def worst(v):
        return float(np.max(v, initial=0.0))

    return {
        "primal": worst(np.append(row_violation, -x)),
        "dual_sign": worst(np.where(le, -y, np.where(ge, y, 0.0))),
        "dual_feasibility": worst(d),
        "slack_complementarity": worst(np.abs(y * slack)[le | ge]),
        "variable_complementarity": worst(np.abs(np.maximum(-d, 0.0) * x)),
        "duality_gap": abs(sol.objective - float(y @ lp.b)),
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
            raise DimensionMismatch("one reward per option required")
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
        """One = row per item (in item_ids order), then the <= row
        counting bundles."""
        pos = {l: k for k, l in enumerate(self.item_ids)}
        m = len(self.item_ids)
        A = np.zeros((m + 1, len(self.options)))
        A[
            [pos[l] for o in self.options for l in o.items],
            [j for j, o in enumerate(self.options) for _ in o.items],
        ] = 1.0
        A[m] = [o.cardinality > 1 for o in self.options]
        return LinearProgram(
            self.rewards, A, [EQ] * m + [LE], np.append(np.ones(m), self.max_bundles)
        )

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


def _branch_lp(base: LinearProgram, fixings) -> LinearProgram:
    """The root LP with one unit row per fixing (j, v) stacked below it:
    x_j <= 0 for the 0-branch, x_j >= 1 for the 1-branch."""
    rows = np.zeros((len(fixings), base.objective.size))
    rows[np.arange(len(fixings)), [j for j, _ in fixings]] = 1.0
    return LinearProgram(
        base.objective,
        np.vstack([base.A, rows]),
        base.rels.tolist() + [GE if v else LE for _, v in fixings],
        np.append(base.b, [float(v) for _, v in fixings]),
    )


def bnb_solve(milp: SetPartitionMilp) -> tuple[np.ndarray, float]:
    """One optimal binary partition by best-first branch and bound (Z*,
    min_empty_miles); enumerate_top_solutions ranks the n best.

    Nodes are ordered by LP relaxation bound (ties by creation index);
    branching fixes the most fractional variable (ties by lowest option
    index). A fixing is a unit row stacked onto the root LP's matrix,
    x_j <= 0 or x_j >= 1, so a child differs from its parent by one row and is
    re-solved by the dual simplex from the parent's optimal basis; the
    root is solved cold. The incumbent is seeded with the all-singletons
    partition when available so ties resolve toward not bundling.
    """
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
        lp = _branch_lp(base, fixings)
        sol = simplex_solve(lp, warm_basis=warm)
        if sol.status != "optimal":
            continue
        bound = sol.objective
        if bound <= incumbent_obj + 1e-9:
            continue
        z = sol.primal
        frac = np.abs(z - np.round(z))
        j_star = int(np.argmax(frac))
        if frac[j_star] <= _INTEGRALITY_TOL:
            zi = np.round(z)
            obj = float(milp.rewards @ zi)
            if obj > incumbent_obj + 1e-9:
                incumbent, incumbent_obj = zi, obj
            continue
        # most fractional, ties by lowest option index
        best_frac = frac[j_star]
        j_star = int(np.flatnonzero(frac >= best_frac - 1e-12)[0])
        child_basis = sol.basis + (("s", lp.b.size),)
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
        raise DomainError("n must be >= 1")
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
