"""Planar multi-object tracking from sparse blinks.

State per track is [x, z, vx, vz] in the user frame with a constant
velocity model; the measurement is the pixel-space observation triple
of geometry.pose_model, linearized on the fly (EKF).  step() binds the
pose model once per blink that holds a track or a detection, and hands
that one bind to association, the update and the spawns.  Blink to
blink association maximises the total IoU between detections and the
tracks' predicted boxes; it projects each track once through the bound
observe, and the update reuses that predicted triple for its residual.
Among the assignments whose math.fsum total is optimal it returns the
lexicographically smallest sorted pair list.

Association works on Python lists, since a blink holds a few tracks
and detections and numpy's fixed cost per call would exceed the work.
match walks the tracks once.  For each it projects the track, then
builds its gated IoU row against the detections' extents (x, y, x + w,
y + h and w * h, computed once per blink), its list of gated columns
and its row best: the largest weight, the smallest index on a tie, and
the largest weight left of it.  Rows are taken in increasing track id;
step's tracks always are, so only other input is reordered.  The
row-best rule settles over half of a dense scene's blinks: when the
rows' best columns are distinct, every best weight is positive, and
every gated column left of a row's best falls short of it by more than
4 ulp(s), s the float sum of the bests, the row bests are the answer.
They reach each component's exact maximum T, and a row that took an
earlier column would leave a best completion more than 2 ulp(T) below
T, so its total rounds below the optimum (see _row_bests).  Where it
declines, most often because a component has more tracks than
detections, the column-best rule, its dual, settles most of the rest:
when the columns' best rows are distinct, every best weight is
positive, and every other gated weight in a column falls short of its
best by more than 4 ulp(s), s now the float sum of the column bests,
any matching that leaves a column best rounds below the optimum, and
any other is a subset of them, later in row order (see _column_bests).
Its column bests are gathered from the gated lists only then.
Otherwise the connected components of the graph of gated (track,
detection) pairs are formed from those lists.  A component with one
row or one column is its best pair, the largest weight with the
smallest index on a tie: a single pair's total is its weight, so this
is exact.  A component with two rows and two columns or more is
settled by the row-best or the column-best rule on its own rows or
columns where either holds, and is otherwise
solved, on its submatrix, extracted once.  Its weights become exact
integers over one power-of-two denominator, and Kuhn-Munkres on the
shorter side gives the exact optimal total, so the optimal fsum total
is that integer divided once.  The row-by-row tie-break then compares
exact totals, rounded once, against it.  max_weight_assignment takes
numpy matrices and runs the same split.

Each object is one Track, an immutable NamedTuple: the filter state,
its confidence and what association needs.  The mean is four floats,
x, z, vx and vz, taken by one tolist() from each predicted or updated
stack, so risk, the samplers, association, retirement and scoring read
plain floats; the vec property builds the same float64 array.  There is
no separate per-tick view.  A new track is placed by the blink's
pose-model locate and starts from the cached, read-only P0 of its
config.

The filter algebra works on stacks: advance() predicts every live
track, and step() linearizes and updates every matched pair, with one
set of calls; there is no separate one-track form, since a lone track
is a stack of one.  Every stacked operation gives each member the same
bytes as the 2-D algebra on that member alone.  The update drops a
member whose innovation covariance S is ill-conditioned; a closed-form
proof on S's floats clears the well-conditioned 3x3 members, and only
the members it cannot clear take LAPACK's eigvalsh.  Transition,
process-noise and measurement-noise matrices are cached and read-only.
A blink with no track and no detection returns at once.

The rest of a blink is one pass each: advance() gathers the means,
covariances and process noises in one loop over the tracks; step()
gathers each matched pair's residual, Jacobian rows, mean and
covariance in one loop over the pairs, which run in track id order as
the tracks do, so the loop finds each pair's track by walking forward;
and retirement walks the tracks once more, rebuilding a missed track
positionally and reading its range as math.hypot(x, z).

The tracker is a value (TrackerState, a NamedTuple like Track and
Assignment); step() and advance() return new states and never mutate
their inputs, which keeps replays and comparisons trivially
reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .geometry import BoundingBox2D, CameraIntrinsics, require, require_finite

COND_LIMIT = 1e12  # innovation covariance above this is treated as singular
_TRACE_RANGE = (1e-90, 1e90)   # keeps tr^3 and det's rounding clear of under- and overflow
_CUBE_LIMIT = COND_LIMIT / 2   # tr^3 / (4 det) <= COND_LIMIT / 8
_BEST_SUM_LIMIT = 2.0 ** 1023  # keeps each component's optimum finite when it is rounded

# Physical upper bounds on the filter's noise terms (see TrackerConfig)
MAX_Q = 1.0e4                                     # m^2/s^3
MAX_R_DIAG = ((geometry.MAX_PIXELS ** 2, "px^2"),) * 3
MAX_P0_DIAG = ((1.0e6, "m^2"),) * 2 + ((1.0e4, "(m/s)^2"),) * 2
MAX_D = 1.0e3                                     # m, the range the scene keeps its vehicles in
MAX_GAMMA = 1.0                                   # m^2, the confidence offset


@dataclass(frozen=True)
class TrackerConfig:
    """The EKF's noise terms, the association gate and the track rules.

    The noise terms have physical upper bounds.  q_car and q_cycle are
    at most MAX_Q: a track's velocity variance grows by q per second, and
    1e4 m^2/s^3 is a 100 m/s velocity spread after one second, the
    scene's top speed (scenario.MAX_SPEED) gained or lost within a
    second, which no road vehicle does.  An r_diag entry is at most
    MAX_PIXELS^2 px^2: a pixel error wider than any image measures
    nothing.  p0_diag's positions are at most 1e6 m^2, a 1 km spread
    (the scene keeps vehicles within 1 km of the user), and its
    velocities at most 1e4 (m/s)^2, the scene's top speed.  d_max, the
    tracking range, is at most MAX_D, 1 km, for the same reason.  gamma,
    the offset that keeps confidence finite, is at most MAX_GAMMA, 1 m^2:
    a larger one outweighs the covariance of every measured track (the
    standard suite's tightest trace is 0.12 m^2), so confidence would
    stop reading the filter.
    """

    q_car: float = 2.0          # process noise spectral density, m^2/s^3
    q_cycle: float = 1.0
    r_diag: tuple = (16.0, 9.0, 9.0)        # px^2: u_offset, height, horizon dev
    p0_diag: tuple = (4.0, 4.0, 16.0, 16.0)  # m^2, m^2, (m/s)^2, (m/s)^2
    iou_gate: float = 0.1
    miss_max: int = 3
    gamma: float = 1e-6
    d_max: float = 30.0

    def __post_init__(self):
        require_finite(self, "q_car", "q_cycle", "gamma", "d_max", "iou_gate")
        for name in ("q_car", "q_cycle"):
            q = getattr(self, name)
            require(q >= 0, name, "must be non-negative")
            require(q <= MAX_Q, name, f"must be at most {MAX_Q:g} m^2/s^3, got {q!r}")
        require(self.gamma > 0, "gamma", "must be positive")
        require(self.gamma <= MAX_GAMMA, "gamma",
                f"must be at most {MAX_GAMMA:g} m^2, got {self.gamma!r}")
        require(self.d_max > 0, "d_max", "must be positive")
        require(self.d_max <= MAX_D, "d_max", f"must be at most {MAX_D:g} m, got {self.d_max!r}")
        require(0 <= self.iou_gate <= 1, "iou_gate", "must be in [0, 1]")
        miss_max = self.miss_max
        require(isinstance(miss_max, int) and not isinstance(miss_max, bool) and miss_max >= 0,
                "miss_max", f"must be a non-negative integer, got {miss_max!r}")
        for name, bounds in (("r_diag", MAX_R_DIAG), ("p0_diag", MAX_P0_DIAG)):
            diag, n = getattr(self, name), len(bounds)
            require(len(diag) == n and all(geometry.is_finite_number(v) and v > 0 for v in diag),
                    name, f"must hold {n} positive finite numbers, got {list(diag)!r}")
            for i, (v, (hi, unit)) in enumerate(zip(diag, bounds)):
                require(v <= hi, f"{name}[{i}]", f"must be at most {hi:g} {unit}, got {v!r}")

    def q_for(self, cls: str) -> float:
        return self.q_cycle if cls == "cycle" else self.q_car

    def r_matrix(self) -> np.ndarray:
        """diag(r_diag), cached and read-only."""
        return _diagonal(tuple(self.r_diag))

    def p0_matrix(self) -> np.ndarray:
        """diag(p0_diag), cached and read-only."""
        return _diagonal(tuple(self.p0_diag))

    def p0_confidence(self) -> float:
        """confidence() of p0_matrix(), cached."""
        return _initial_confidence(tuple(self.p0_diag), self.gamma)


class Track(NamedTuple):
    """One tracked object: the filter state and what association needs.

    The mean is four floats, x, z, vx, vz, taken from the stacked
    algebra's rows by one tolist(), so its readers take plain floats.
    """

    id: int
    cls: str
    x: float
    z: float
    vx: float
    vz: float
    P: np.ndarray     # shape (4, 4)
    obj_height: float
    confidence: float
    miss_count: int = 0
    last_box: BoundingBox2D | None = None

    @property
    def vec(self) -> np.ndarray:
        """The mean [x, z, vx, vz] as a float64 array, with the bytes it
        had in the stack it came from."""
        return np.array(self[_MEAN], dtype=float)

    @property
    def range(self) -> float:
        return math.hypot(self.x, self.z)


_MEAN = slice(2, 6)   # a Track's x, z, vx, vz


class Assignment(NamedTuple):
    pairs: tuple            # ((track_id, det_index), ...)
    unmatched_detections: tuple
    predicted: dict         # track_id -> predicted observation triple (floats), per projected track


class TrackerState(NamedTuple):
    """The tracker: its live tracks, in strictly increasing id (step
    appends spawns with fresh ids, and nothing reorders them), the next
    id, and the times of the last predict and the last blink."""

    tracks: tuple = ()
    next_id: int = 1
    last_t: float | None = None
    last_frame_t: float | None = None


# ----------------------------------------------------------------- filter

def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=256)
def _diagonal(diag: tuple) -> np.ndarray:
    return _read_only(np.diag(diag).astype(float))


@functools.lru_cache(maxsize=256)
def transition_matrix(dt: float) -> np.ndarray:
    """Constant-velocity transition over dt, cached and read-only."""
    F = np.eye(4)
    F[0, 2] = dt
    F[1, 3] = dt
    return _read_only(F)


@functools.lru_cache(maxsize=256)
def process_noise(dt: float, q: float) -> np.ndarray:
    """White-noise-acceleration discretization, independent per axis.

    Additive over interval splits: Q(a) + F(a) Q(b) F(a)^T ... reduces to
    Q(a+b), so predicting tick by tick equals one long predict.  Cached
    and read-only.
    """
    dt2 = dt * dt
    Q = np.zeros((4, 4))
    Q[0, 0] = Q[1, 1] = q * dt * dt2 / 3.0
    Q[0, 2] = Q[2, 0] = Q[1, 3] = Q[3, 1] = q * dt2 / 2.0
    Q[2, 2] = Q[3, 3] = q * dt
    return _read_only(Q)


def confidence(P: np.ndarray, gamma: float = 1e-6) -> float:
    """Reciprocal of the covariance trace, offset by a small constant."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return 1.0 / (float(P.trace()) + gamma)


@functools.lru_cache(maxsize=256)
def _initial_confidence(p0_diag: tuple, gamma: float) -> float:
    return confidence(_diagonal(p0_diag), gamma)


def _condition(S: np.ndarray) -> list:
    """2-norm condition numbers of a stack of symmetric matrices, from
    their eigenvalues, as a list of floats.

    Singular values of a symmetric matrix are its absolute eigenvalues,
    so each is np.linalg.cond(S[i]) without the SVD.  Like
    np.linalg.cond it is inf for a singular member or one with an
    infinite entry, and a NaN entry raises LinAlgError.  The tracker's
    3x3 member whose ascending eigenvalues lo, mid, hi are all positive
    is hi / lo; any other member folds its magnitudes as Python floats,
    which give the same quotients as numpy's reductions at a fraction of
    their fixed cost.
    """
    try:
        eigs = np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError:
        if len(S) > 1:  # find the member that failed, and keep the others
            return [c for i in range(len(S)) for c in _condition(S[i:i + 1])]
        eigs = np.zeros(S.shape[:-1])
    conds = []
    for i, row in enumerate(eigs.tolist()):
        if len(row) == 3:
            lo, mid, hi = row
            if 0.0 < lo <= mid <= hi:  # false for any NaN
                conds.append(hi / lo)
                continue
        mags = [abs(v) for v in row]
        if all(m > 0.0 for m in mags):  # false for a zero or a NaN
            conds.append(max(mags) / min(mags))
        elif np.isnan(S[i]).any():
            raise np.linalg.LinAlgError("innovation covariance has a NaN entry")
        else:
            conds.append(math.inf)
    return conds


def _cleared(S: np.ndarray) -> list:
    """Whether a closed-form proof clears each member of a stack of
    symmetric matrices, as a list of bools.  A cleared member's
    _condition is within COND_LIMIT; False proves nothing.  Only 3x3
    members are ever cleared.

    It reads the lower triangle, as eigvalsh does: a, b, d, c, e, f of
    [[a, b, c], [b, d, e], [c, e, f]].  A member is cleared when its
    trace tr lies inside _TRACE_RANGE (false for an infinite or NaN
    diagonal entry); a > 0 and the minors ad - b^2, af - c^2, df - e^2
    and det are positive (false for an infinite or NaN off-diagonal
    entry); and tr^3 / (4 det) <= COND_LIMIT / 8.

    Why this is a proof: with these minors every entry is at most tr in
    magnitude, so det's rounding is a few ulps of tr^3, under 1% of the
    det the last test asks for, and S is positive definite (Sylvester's
    criterion; with two negative eigenvalues and a positive trace, det
    would be near 0).  For a positive-definite S with eigenvalues
    lo <= mid <= hi, hi <= tr and mid * hi <= (tr / 2)^2, so
    hi / lo <= tr^3 / (4 det).  S's condition number is then below
    COND_LIMIT / 7.9, and eigvalsh, exact to a few ulps of hi, gives a
    quotient within COND_LIMIT.  The proof rests on S alone, not on how
    it was formed.
    """
    if S.shape[-1] != 3:
        return [False] * len(S)
    lo, hi = _TRACE_RANGE
    cleared = []
    for (a, _, _), (b, d, _), (c, e, f) in S.tolist():
        tr = a + d + f
        minor = d * f - e * e
        det = a * minor - b * (b * f - c * e) + c * (b * e - c * d)
        cleared.append(lo < tr < hi and a > 0.0 and a * d > b * b and a * f > c * c
                       and minor > 0.0 and det > 0.0 and tr * tr * tr <= _CUBE_LIMIT * det)
    return cleared


_IDENTITY = _read_only(np.eye(4))


def _kalman_stack(vec, P, residual, H, R):
    """Measurement update of a stack of members, one shared R.

    vec, P, residual and H carry the member on their first axis.
    Returns (keep, vec_post, P_post): the list of whether each member's
    innovation condition number is within COND_LIMIT, and the posterior
    of the members kept, in order; the others are left out unupdated.
    _cleared decides keep where its proof holds, and _condition decides
    the other members, so a NaN among them still raises LinAlgError.
    """
    Ht = H.swapaxes(-1, -2)
    S = H @ P @ Ht + R
    keep = _cleared(S)
    if not all(keep):
        rest = [i for i, k in enumerate(keep) if not k]
        for i, c in zip(rest, _condition(S[rest])):
            keep[i] = c <= COND_LIMIT
        if not all(keep):
            mask = np.array(keep, dtype=bool)
            vec, P, residual, H, Ht, S = (a[mask] for a in (vec, P, residual, H, Ht, S))
    K = P @ Ht @ np.linalg.inv(S)
    vec_post = vec + (K @ residual[..., None])[..., 0]
    I_KH = _IDENTITY - K @ H
    P_post = I_KH @ P @ I_KH.swapaxes(-1, -2) + K @ R @ K.swapaxes(-1, -2)
    P_post = 0.5 * (P_post + P_post.swapaxes(-1, -2))
    return keep, vec_post, P_post


def _refiltered(tracks, vec, P, gamma, detections=None) -> list:
    """The tracks with new filter states (stacked on the first axis) and
    their confidence().  Tracks measured by detections also clear their
    misses and take their detection's box."""
    traces = P.trace(axis1=-2, axis2=-1).tolist()
    new = tuple.__new__   # skips the NamedTuple constructor, a Python call per track
    if detections is None:
        return [new(Track, (tid, cls, x, z, vx, vz, cov, h, 1.0 / (trace + gamma), misses, box))
                for (tid, cls, _, _, _, _, _, h, _, misses, box), (x, z, vx, vz), cov, trace
                in zip(tracks, vec.tolist(), P, traces)]
    return [new(Track, (tid, cls, x, z, vx, vz, cov, h, 1.0 / (trace + gamma), 0, box))
            for (tid, cls, _, _, _, _, _, h, _, _, _), (x, z, vx, vz), cov, trace, box
            in zip(tracks, vec.tolist(), P, traces, detections)]


def _predict_stack(tracks, dt: float, config: TrackerConfig) -> list:
    """Each track advanced by dt under the constant-velocity model, with
    its class's process noise density; one loop over the tracks gathers
    the means, covariances and process noises."""
    means, covs, noises = [], [], []
    for track in tracks:
        means += track[_MEAN]
        covs.append(track[6])
        noises.append(process_noise(dt, config.q_for(track[1])))
    F = transition_matrix(dt)
    Q = np.array(noises)
    vec = (F @ np.array(means).reshape(-1, 4)[..., None])[..., 0]
    P = F @ np.array(covs) @ F.T + Q
    P = 0.5 * (P + P.swapaxes(-1, -2))
    return _refiltered(tracks, vec, P, config.gamma)


# ------------------------------------------------------------ association

def _exact_integers(rows):
    """The float weights in rows as exact integers over one denominator.

    Returns (integer rows, D), each weight exactly its integer over D, a
    power of two.  A sum of the integers over D, as int / int true
    division, is correctly rounded, so it equals the math.fsum of those
    weights.  Scaling by 2**shift is exact for every normal weight when
    no product overflows; subnormal weights, or weights more than about
    970 binary orders apart, bring their integer ratios to D instead.
    """
    nonzero = [v for row in rows for v in row if v]
    if not nonzero:
        return [[0] * len(row) for row in rows], 1
    lo, hi = math.frexp(min(nonzero))[1], math.frexp(max(nonzero))[1]
    shift = max(0, 53 - lo)
    if shift <= 1023 and hi + shift <= 1024:
        scale = 2.0 ** shift
        return [[int(v * scale) for v in row] for row in rows], 1 << shift
    ratios = [[v.as_integer_ratio() for v in row] for row in rows]
    D = max(d for row in ratios for _, d in row)
    return [[n * (D // d) for n, d in row] for row in ratios], D


def _kuhn_munkres(w) -> list:
    """The column of each row in one maximum-total assignment of the
    integer rows w to distinct columns, with at least as many columns as
    rows; every row is assigned.

    Each row starts at its best column when no earlier row holds it;
    the others are placed by the Hungarian method's shortest augmenting
    path, with row and column potentials (O(n^2 m)).  Column m is the
    root of each search.
    """
    n, m = len(w), len(w[0])
    u, v = list(map(max, w)), [0] * (m + 1)   # u[r] + v[c] >= w[r][c]
    owner, way, pending = [-1] * (m + 1), [m] * m, []
    for i, row in enumerate(w):
        j = row.index(u[i])
        if owner[j] < 0:
            owner[j] = i
        else:
            pending.append(i)
    for i in pending:
        owner[m], j0 = i, m
        slack = [math.inf] * m
        free, seen = list(range(m)), [m]
        while True:
            i0 = owner[j0]
            row, ui = w[i0], u[i0]
            delta = math.inf
            for j in free:
                cur = ui + v[j] - row[j]
                if cur < slack[j]:
                    slack[j], way[j] = cur, j0
                if slack[j] < delta:
                    delta, j1 = slack[j], j
            if delta:
                for j in seen:
                    u[owner[j]] -= delta
                    v[j] += delta
                for j in free:
                    slack[j] -= delta
            free.remove(j1)
            seen.append(j1)
            j0 = j1
            if owner[j0] < 0:
                break
        while j0 != m:  # flip the path back to the root
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    cols = [0] * n
    for j in range(m):
        if owner[j] >= 0:
            cols[owner[j]] = j
    return cols


def _solve(w) -> list:
    """One maximum-total assignment of the integer matrix w, as (row, col)
    pairs; Kuhn-Munkres runs on the shorter side, so every row or every
    column is used."""
    if not w or not w[0]:
        return []
    if len(w) <= len(w[0]):
        return list(enumerate(_kuhn_munkres(w)))
    return [(r, c) for c, r in enumerate(_kuhn_munkres([list(col) for col in zip(*w)]))]


def _components(gated):
    """Connected components of the bipartite graph in which row r has the
    eligible columns gated[r], as (rows, cols) pairs of sorted index
    lists."""
    groups: list[tuple[list, set]] = []
    for r, line in enumerate(gated):
        if not line:
            continue
        rows, cols, rest = [r], set(line), []
        for group in groups:
            if cols.isdisjoint(group[1]):  # column sets of groups are disjoint
                rest.append(group)
            else:
                rows += group[0]
                cols |= group[1]
        groups = rest + [(rows, cols)]
    return [(sorted(rows), sorted(cols)) for rows, cols in groups]


def _tie_break(weights, eligible):
    """Lexicographically smallest optimal assignment, row by row.

    Each row takes the smallest eligible column that still allows the
    optimal math.fsum total t_star; a row no column allows stays
    unmatched.  Totals are exact integers over one denominator (see
    _exact_integers), and t_star is the exact optimum rounded once.  A
    current optimal witness (the base solve, then each accepted
    completion) settles its own column without another solve.  Any other
    column is passed over when even the best weight of each later row,
    over every column and then over the still-free ones, gives a total
    that rounds below t_star: rounding is monotone.  Only a column that
    survives both bounds costs a solve of the rows after it.
    """
    w, D = _exact_integers(weights)
    n, m = len(w), len(w[0])
    witness, total = [None] * n, 0
    for r, c in _solve(w):
        if eligible[r][c]:
            witness[r] = c
            total += w[r][c]
    t_star = total / D
    later_best = [0] * (n + 1)   # the best weights of rows r + 1 on, summed
    for r in range(n - 1, 0, -1):
        later_best[r - 1] = later_best[r] + max(w[r])
    fixed, total = [], 0
    free_cols = list(range(m))
    for row in range(n):
        for col in free_cols:
            if col != witness[row]:
                if not eligible[row][col]:
                    continue
                head = total + w[row][col]
                if (head + later_best[row]) / D < t_star:
                    continue
                rest = [c for c in free_cols if c != col]
                sub = [[w[r][c] for c in rest] for r in range(row + 1, n)]
                if (head + sum(max(line, default=0) for line in sub)) / D < t_star:
                    continue
                completion = [(row + 1 + r, rest[c]) for r, c in _solve(sub)
                              if eligible[row + 1 + r][rest[c]]]
                if (head + sum(w[r][c] for r, c in completion)) / D != t_star:
                    continue
                witness[row + 1:] = [None] * (n - row - 1)
                for r, c in completion:
                    witness[r] = c
            fixed.append((row, col))
            total += w[row][col]
            free_cols.remove(col)
            break
    return fixed


def _row_best(row, cols):
    """A row's best over its gated columns cols, as (column, weight,
    left): the largest weight, the smallest column on a tie, and the
    largest weight of a column left of it (None when there is none).
    match finds the same triple in its IoU pass."""
    col = cols[0]
    best, left = row[col], None
    for c in cols:
        v = row[c]
        if v > best:
            left, best, col = best, v, c
    return col, best, left


def _row_bests(bests):
    """Each gated row's best pair, from the _row_best triples in bests
    (None for a row with no gated column), as sorted pairs, when they
    settle the assignment of those rows; None when they may not.  bests
    may hold every row of a blink or the rows of one component.

    They settle it when the best columns are distinct, every best weight
    is positive, and in each row every gated column left of the best
    falls short of it by more than 4 ulp(s), s the float sum of the best
    weights (below _BEST_SUM_LIMIT).  Why that is _tie_break's answer:
    the row bests give each component its exact maximum T, the sum of
    its rows' best weights, and T is at most about s, so 4 ulp(s) >=
    2 ulp(T).  A row that took a column left of its best would leave a
    best completion more than 2 ulp(T) below T, and a total that far
    below T rounds below T's rounding, the optimal fsum total.  So no
    row takes an earlier column than its best, and the best is taken,
    since its completion reaches T.
    """
    pairs, taken, s, shortfall = [], set(), 0.0, math.inf
    for r, triple in enumerate(bests):
        if triple is None:
            continue
        col, best, left = triple
        if not best > 0.0 or col in taken:
            return None
        if left is not None and best - left < shortfall:
            shortfall = best - left
        taken.add(col)
        s += best
        pairs.append((r, col))
    # best - left rounds monotonically, so exceeding the power of two 4 ulp(s) is exact
    if s < _BEST_SUM_LIMIT and shortfall > 4.0 * math.ulp(s):
        return pairs
    return None


def _column_tops(weights, gated) -> dict:
    """Each gated column's best, as column -> [row, weight, other]: the
    largest weight, the smallest row on a tie, and the largest weight of
    any other gated row in that column (None when there is none).  A tied
    column's other equals its best."""
    tops = {}
    for r, cols in enumerate(gated):
        row = weights[r]
        for c in cols:
            v = row[c]
            top = tops.get(c)
            if top is None:
                tops[c] = [r, v, None]
            elif v > top[1]:
                tops[c] = [r, v, top[1]]
            elif top[2] is None or v > top[2]:
                top[2] = v
    return tops


def _column_bests(tops):
    """Each gated column's best pair, from the (column, _column_tops
    entry) items in tops, as sorted pairs, when they settle the
    assignment of those columns; None when they may not.  tops may hold
    every gated column of a blink or the columns of one component.  It
    is _row_bests' dual, for components with more rows than columns,
    which the row rule cannot settle.

    They settle it when the best rows are distinct and in each column
    every other gated weight falls short of the best by more than 4
    ulp(s), s the float sum of the best weights (below _BEST_SUM_LIMIT).
    Why that is _tie_break's answer: a matching's total is at most the
    sum of its columns' bests, so the column bests, which are a matching,
    give each component its exact maximum T, and 4 ulp(s) >= 2 ulp(T) as
    in _row_bests.  A matching that uses any other gated cell, a gated
    zero weight included, falls more than 4 ulp(s) below T in that
    column alone, so its total rounds below the optimal fsum total.  A
    matching that uses column bests alone is a subset of them, and a
    proper one leaves a row unmatched that they match, with every
    earlier row the same, so it comes later in the row-by-row order.
    So the column bests are the smallest optimal pair list.  That holds
    for a best of weight 0 too, which needs no check of its own: it can
    only be its column's lone gated cell (a second gated zero would tie
    and leave no shortfall), so the matching without that pair is
    optimal as well, but it is a proper subset, and its row, which no
    other column's best pair holds, takes the zero pair in _tie_break
    rather than stay unmatched.
    """
    pairs, taken, s, shortfall = [], set(), 0.0, math.inf
    for c, (r, best, other) in tops:
        if r in taken:
            return None
        if other is not None and best - other < shortfall:
            shortfall = best - other
        taken.add(r)
        s += best
        pairs.append((r, c))
    # as in _row_bests, exceeding the power of two 4 ulp(s) after rounding is exact
    if s < _BEST_SUM_LIMIT and shortfall > 4.0 * math.ulp(s):
        pairs.sort()
        return pairs
    return None


def _assign(weights, gated, eligible=None, bests=None) -> list:
    """max_weight_assignment's sorted pairs, on weights given as lists of
    rows and each row's sorted eligible columns in gated.  eligible gives
    the eligibility as rows of truth values, or is None where a cell is
    eligible exactly when its weight is positive, as match's gated
    weights are.  bests holds each row's _row_best triple, or None for a
    row with no gated column; it is found from the rows when not given.

    The row bests are the answer where _row_bests proves it, and the
    column bests, gathered from gated only when the row rule declines,
    where _column_bests proves them.  Otherwise a component with one row
    or one column is its best pair: the largest weight, the smallest
    index on a tie, since a single pair's total is its weight; a lone
    row's is its row best and a lone column's its column best.  Each
    other component is settled by _row_bests on its own rows or
    _column_bests on its own columns where either proves them, the
    proofs being per component, and by the tie-break on its submatrix
    where neither does.
    """
    if bests is None:
        bests = [_row_best(weights[r], cols) if cols else None for r, cols in enumerate(gated)]
    settled = _row_bests(bests)
    if settled is not None:
        return settled
    tops = _column_tops(weights, gated)
    settled = _column_bests(tops.items())
    if settled is not None:
        return settled
    pairs: list[tuple[int, int]] = []
    for rows, cols in _components(gated):
        if len(rows) == 1:
            pairs.append((rows[0], bests[rows[0]][0]))
        elif len(cols) == 1:
            pairs.append((tops[cols[0]][0], cols[0]))
        else:
            settled = _row_bests([bests[r] for r in rows])
            if settled is not None:
                pairs.extend((rows[r], c) for r, c in settled)
                continue
            settled = _column_bests([(c, tops[c]) for c in cols])
            if settled is not None:
                pairs.extend(settled)
                continue
            sub = [[weights[r][c] for c in cols] for r in rows]
            ok = sub if eligible is None else [[eligible[r][c] for c in cols] for r in rows]
            pairs.extend((rows[r], cols[c]) for r, c in _tie_break(sub, ok))
    pairs.sort()
    return pairs


def max_weight_assignment(weights: np.ndarray, eligible: np.ndarray):
    """Maximum-total assignment with a deterministic tie-break.

    Among all assignments over the eligible cells achieving the optimal
    total, returns the one whose sorted (row, col) pair list is
    lexicographically smallest, and its total.  Totals are compared as
    math.fsum of the pair weights, which is order-independent, so
    equal-total ties resolve identically no matter how the optimum was
    found.  The contract holds per connected component of the
    eligibility graph, the optimum and the tie-break both: each
    component is settled on its own fsum total, as components cannot
    affect each other.  So W = [[1.0, 0.0], [0.0, 1e-20], [0.0, 2e-20]]
    with W > 0 gives [(0, 0), (2, 1)], the second component's optimum,
    although [(0, 0), (1, 1)] also totals 1.0 over the whole matrix.
    Distinct row bests that the row-best rule proves optimal are the
    answer at once, and so are distinct column bests that the
    column-best rule proves, whose proof covers eligible cells of weight
    0 (see _column_bests); otherwise a component with a single row or
    column is its best pair, and each other component is settled by
    either rule on its own rows or columns or by the tie-break on its
    submatrix.  Weights must be
    non-negative (not NaN), and cells outside eligible must weigh zero, as
    match makes them; the first cell in row order that breaks either rule
    raises ValueError.

    An eligible pair of weight 0 is taken when its row has no better
    column.  Rows are filled in order, each with the smallest eligible
    column that keeps the total optimal, and a row stays unmatched only
    when no column does.  So W = [[0.0, 0.0]] with only (0, 0) eligible
    gives [(0, 0)], 0.0, and where an optimal pair list extends another
    by such pairs, the longer one is returned, not its prefix.  match
    never makes such a pair: its eligible cells are its positive ones.
    """
    w, ok = weights.tolist(), eligible.tolist()
    for r, (line, flags) in enumerate(zip(w, ok)):
        for c, (v, flag) in enumerate(zip(line, flags)):
            if not v >= 0.0:   # a NaN is not non-negative either
                raise ValueError(f"weights[{r}][{c}]: must be non-negative, got {v!r}")
            if v and not flag:
                raise ValueError(f"weights[{r}][{c}]: outside eligible, so must be 0, got {v!r}")
    gated = [[c for c, flag in enumerate(flags) if flag] for flags in ok]
    pairs = _assign(w, gated, ok)
    return pairs, math.fsum(weights[r, c] for r, c in pairs)


def match(tracks, detections, observe, y_h: float, c_x: float, iou_gate: float) -> Assignment:
    """Associate detections to tracks by maximum total IoU.

    observe and y_h are the blink's bound geometry.pose_model members and
    c_x the principal column.  observe projects each track with a last
    box once; the triples come back in the Assignment's `predicted`, for
    the update to reuse.  The predicted box takes its bottom centre from
    the triple and its size from the last box.  Pairs below the gate (or
    with zero overlap) are never matched.  Tracks whose predicted state is
    behind the camera this blink are unmatched by construction.

    One pass over the tracks builds, for each, its gated IoU row (the
    floats of the reference iou in tests/test_tracking.py, with the same
    operations in the same order, against each detection's extents,
    computed once per blink),
    its gated columns and its _row_best triple.  Rows are taken in
    increasing track id, as the tie-break needs; step's tracks already
    are, and other input is put in that order after the pass.
    """
    extents = [(b.x, b.y, b.x + b.w, b.y + b.h, b.w * b.h) for b in detections]
    nd = len(extents)
    ids, predicted, rows, gated, bests = [], {}, [], [], []
    increasing, last_id = True, -math.inf
    for track in tracks:
        tid = track[0]
        if tid <= last_id:
            increasing = False
        last_id = tid
        ids.append(tid)
        row, cols, triple = None, [], None
        last = track[10]
        if last is not None:
            obs = observe(track[2], track[3], track[7])
            if obs is not None:
                _, _, u_offset, _, deviation = obs
                predicted[tid] = obs[2:]
                w, h = last.w, last.h
                x, y = c_x + u_offset - w / 2.0, y_h + deviation - h
                x2, y2, area = x + w, y + h, w * h
                best = None
                for c, (bx, by, bx2, by2, b_area) in enumerate(extents):
                    # the reference iou's floats; where its intersection is 0.0, so is the weight
                    ix = (bx2 if bx2 < x2 else x2) - (bx if bx > x else x)
                    if not ix > 0.0:
                        continue
                    iy = (by2 if by2 < y2 else y2) - (by if by > y else y)
                    if not iy > 0.0:
                        continue
                    inter = ix * iy
                    if inter == 0.0:
                        continue
                    v = inter / (area + b_area - inter)
                    if v > 0.0 and v >= iou_gate:
                        if best is None:   # the row's first gated column
                            row = [0.0] * nd
                            best, col, left = v, c, None
                        elif v > best:
                            left, best, col = best, v, c
                        row[c] = v
                        cols.append(c)
                if best is not None:
                    triple = (col, best, left)
        rows.append(row)
        gated.append(cols)
        bests.append(triple)
    if not increasing:
        order = sorted(range(len(ids)), key=ids.__getitem__)
        row_ids, rows, gated, bests = ([seq[i] for i in order] for seq in (ids, rows, gated, bests))
    else:
        row_ids = ids
    # a gated weight is positive exactly when its cell is eligible
    pairs = tuple([(row_ids[r], c) for r, c in _assign(rows, gated, None, bests)])
    matched_dets = {c for _, c in pairs}
    return Assignment(
        pairs=pairs,
        unmatched_detections=tuple([j for j in range(nd) if j not in matched_dets]),
        predicted=predicted,
    )


# -------------------------------------------------------------- lifecycle

def snapshots(tracker: TrackerState):
    """The live tracks, as risk and the samplers read them."""
    return tracker.tracks


def advance(tracker: TrackerState, t: float, config: TrackerConfig) -> TrackerState:
    """Predict every track forward to time t (no measurement)."""
    if tracker.last_t is None:
        return TrackerState(tracker.tracks, tracker.next_id, t, tracker.last_frame_t)
    dt = t - tracker.last_t
    if dt < 0:
        raise ValueError("time went backwards")
    if dt == 0:
        return tracker
    if not tracker.tracks:
        return TrackerState((), tracker.next_id, t, tracker.last_frame_t)
    moved = _predict_stack(tracker.tracks, dt, config)
    return TrackerState(tuple(moved), tracker.next_id, t, tracker.last_frame_t)


def _spawn(box: BoundingBox2D, track_id: int, locate, config: TrackerConfig) -> Track | None:
    """A new track at the box, placed by the blink's bound pose-model
    locate; None above the horizon or beyond d_max."""
    located = locate(box)
    if located is None:
        return None
    x, z, obj_height, _ = located
    if math.hypot(x, z) > config.d_max:
        return None  # out of tracking range; do not burn an id on it
    return Track(track_id, box.cls, x, z, 0.0, 0.0, config.p0_matrix(), obj_height,
                 config.p0_confidence(), 0, box)


def step(
    tracker: TrackerState,
    frame,
    config: TrackerConfig,
    intr: CameraIntrinsics,
    camera_height: float,
):
    """Ingest one blink: predict, associate, update, spawn, retire.

    Returns (new TrackerState, its surviving tracks).
    Detections whose ground contact sits above the horizon are ignored;
    an update with a singular innovation counts as a miss.
    """
    if tracker.last_frame_t is not None and frame.t <= tracker.last_frame_t:
        raise ValueError("frame timestamps must be strictly increasing")
    tracker = advance(tracker, frame.t, config)
    detections = frame.detections
    if not tracker.tracks and not detections:
        # nothing to associate, update or spawn: the full path's state
        out = TrackerState((), tracker.next_id, frame.t, frame.t)
        return out, out.tracks

    tracks = tracker.tracks
    observe, jacobian, locate, y_h = geometry.pose_model(frame.pose, intr, camera_height)
    assignment = match(tracks, detections, observe, y_h, intr.c_x, config.iou_gate)

    measured = [None] * len(tracks)   # each track's updated state, by position
    if assignment.pairs:
        predicted, c_x = assignment.predicted, intr.c_x
        slots, matched, dets, residual, rows, means, covs = [], [], [], [], [], [], []
        pos, n = 0, len(tracks)
        for tid, j in assignment.pairs:
            # pairs run in increasing track id, as step's tracks do, so this walk
            # passes each track once; it wraps around for tracks in any other order
            while tracks[pos][0] != tid:
                pos = (pos + 1) % n
            track, det = tracks[pos], detections[j]
            # measurement triple straight from the detection box (its bottom_center
            # and height), less the prediction
            h = det.h
            p_u, p_h, p_dev = predicted[tid]
            residual += (det.x + det.w / 2.0 - c_x - p_u, h - p_h, det.y + h - y_h - p_dev)
            rows += jacobian(track[2], track[3], track[7])   # x, z, obj_height
            means += track[_MEAN]
            covs.append(track[6])
            slots.append(pos)
            matched.append(track)
            dets.append(det)
        # the means, residuals and Jacobian rows are flat lists of floats, shaped here
        keep, vec, P = _kalman_stack(np.array(means).reshape(-1, 4), np.array(covs),
                                     np.array(residual).reshape(-1, 3),
                                     np.array(rows, dtype=float).reshape(-1, 3, 4),
                                     config.r_matrix())
        if not all(keep):   # a singular innovation drops its pair, as a miss
            slots, matched, dets = ([v for v, k in zip(seq, keep) if k]
                                    for seq in (slots, matched, dets))
        for pos, track in zip(slots, _refiltered(matched, vec, P, config.gamma, dets)):
            measured[pos] = track

    survivors, new = [], tuple.__new__
    miss_max, d_max = config.miss_max, config.d_max
    for track, updated in zip(tracks, measured):
        if updated is None:
            # unmatched, or the update failed; either way a miss
            misses = track[9] + 1
            if misses > miss_max or math.hypot(track[2], track[3]) > d_max:
                continue
            # every field through the confidence, one more miss, the last box
            updated = new(Track, track[:9] + (misses, track[10]))
        elif math.hypot(updated[2], updated[3]) > d_max:   # Track.range
            continue
        survivors.append(updated)

    next_id = tracker.next_id
    for j in assignment.unmatched_detections:
        spawned = _spawn(detections[j], next_id, locate, config)
        if spawned is None:
            continue
        survivors.append(spawned)
        next_id += 1

    out = TrackerState(
        tracks=tuple(survivors),
        next_id=next_id,
        last_t=frame.t,
        last_frame_t=frame.t,
    )
    return out, out.tracks
