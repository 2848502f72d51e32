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
and detections and numpy's fixed cost per call would exceed the work:
each track's gated IoU row is a list, computed from its predicted box
geometry (bottom centre from the triple, size from the already-checked
last box, one horizon row per blink), and so is the list of its gated
columns, built once.  The connected components of the graph of gated
(track, detection) pairs are formed from those lists.  A component with
one row or one column is its best pair, the largest weight with the
smallest index on a tie: a single pair's total is its weight, so this
is exact.  Only a component with two rows and two columns or more is
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

The tracker is a value (TrackerState, a NamedTuple like Track and
Assignment); step() and advance() return new states and never mutate
their inputs, which keeps replays and comparisons trivially
reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .geometry import BoundingBox2D, CameraIntrinsics, require, require_finite

COND_LIMIT = 1e12  # innovation covariance above this is treated as singular
_TRACE_RANGE = (1e-90, 1e90)   # keeps tr^3 and det's rounding clear of under- and overflow
_CUBE_LIMIT = COND_LIMIT / 2   # tr^3 / (4 det) <= COND_LIMIT / 8

# Physical upper bounds on the filter's noise terms (see TrackerConfig)
MAX_Q = 1.0e4                                     # m^2/s^3
MAX_R_DIAG = ((geometry.MAX_PIXELS ** 2, "px^2"),) * 3
MAX_P0_DIAG = ((1.0e6, "m^2"),) * 2 + ((1.0e4, "(m/s)^2"),) * 2
MAX_D = 1.0e3                                     # m, the range the scene keeps its vehicles in


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
    tracking range, is at most MAX_D, 1 km, for the same reason.
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
    unmatched_tracks: tuple
    unmatched_detections: tuple
    predicted: dict         # track_id -> predicted observation triple (floats), per projected track


class TrackerState(NamedTuple):
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


def _jacobian_stack(points, jacobian) -> np.ndarray:
    """Stacked 3x4 Jacobians of the observation w.r.t. [x, z, vx, vz], one
    per (x, z, obj_height) in points, from one bound geometry.pose_model
    jacobian."""
    flat = []
    for x, z, obj_height in points:
        flat += jacobian(x, z, obj_height)
    return np.array(flat, dtype=float).reshape(-1, 3, 4)


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
    return [
        Track(tr.id, tr.cls, x, z, vx, vz, cov, tr.obj_height, 1.0 / (trace + gamma),
              tr.miss_count if detections is None else 0,
              tr.last_box if detections is None else detections[i])
        for i, (tr, (x, z, vx, vz), cov, trace)
        in enumerate(zip(tracks, vec.tolist(), P, traces))
    ]


def _predict_stack(tracks, dt: float, qs, gamma: float) -> list:
    """Each track advanced by dt under the constant-velocity model, with
    the process noise density in qs."""
    F = transition_matrix(dt)
    Q = np.array([process_noise(dt, q) for q in qs])
    vec = (F @ np.array([tr[_MEAN] for tr in tracks])[..., None])[..., 0]
    P = F @ np.array([tr.P for tr in tracks]) @ F.T + Q
    P = 0.5 * (P + P.swapaxes(-1, -2))
    return _refiltered(tracks, vec, P, gamma)


# ------------------------------------------------------------ association

def _iou_row(x: float, y: float, w: float, h: float, boxes) -> list:
    """IoU of the box with top-left (x, y) and size (w, h) against each of
    boxes, as a list of floats."""
    x2, y2, area = x + w, y + h, w * h
    row = []
    for b in boxes:
        # max(0.0, min(right edges) - max(left edges)) per axis, as conditionals
        bx, by = b.x, b.y
        bx2, by2 = bx + b.w, by + b.h
        ix = (bx2 if bx2 < x2 else x2) - (bx if bx > x else x)
        iy = (by2 if by2 < y2 else y2) - (by if by > y else y)
        inter = (ix if ix > 0.0 else 0.0) * (iy if iy > 0.0 else 0.0)
        row.append(0.0 if inter == 0.0 else inter / (area + b.w * b.h - inter))
    return row


def iou(a: BoundingBox2D, b: BoundingBox2D) -> float:
    return _iou_row(a.x, a.y, a.w, a.h, (b,))[0]


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


def _assign(weights, gated, eligible=None) -> list:
    """max_weight_assignment's sorted pairs, on weights given as lists of
    rows and each row's sorted eligible columns in gated.  eligible gives
    the eligibility as rows of truth values, or is None where a cell is
    eligible exactly when its weight is positive, as match's gated
    weights are.

    A component with one row or one column is its best pair: the largest
    weight, the smallest index on a tie, since a single pair's total is
    its weight.  The tie-break runs on each other component's submatrix.
    """
    pairs: list[tuple[int, int]] = []
    for rows, cols in _components(gated):
        if len(rows) == 1:
            pairs.append((rows[0], max(cols, key=weights[rows[0]].__getitem__)))
        elif len(cols) == 1:
            col = cols[0]
            pairs.append((max(rows, key=lambda r: weights[r][col]), col))
        else:
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
    found.  Components of the eligibility graph are independent: one
    with a single row or column is its best pair, and the tie-break runs
    on each other component's submatrix.  Weights must be non-negative,
    and cells outside eligible must weigh zero, as match makes them; the
    first cell in row order that breaks either rule raises ValueError.

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
            if v < 0.0:
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
    """
    ordered = sorted(tracks, key=lambda t: t.id)
    nd = len(detections)
    predicted, rows, gated = {}, [], []
    for track in ordered:
        row, cols = None, []
        last = track.last_box
        if last is not None:
            obs = observe(track.x, track.z, track.obj_height)
            if obs is not None:
                _, _, u_offset, _, deviation = obs
                predicted[track.id] = obs[2:]
                w, h = last.w, last.h
                ious = _iou_row(c_x + u_offset - w / 2.0, y_h + deviation - h, w, h, detections)
                row = [v if v > 0.0 and v >= iou_gate else 0.0 for v in ious]
                cols = [c for c, v in enumerate(row) if v]
        rows.append(row)
        gated.append(cols)
    # a gated weight is positive exactly when its cell is eligible
    pairs = tuple((ordered[r].id, c) for r, c in _assign(rows, gated))
    matched_tracks = {tid for tid, _ in pairs}
    matched_dets = {c for _, c in pairs}
    return Assignment(
        pairs=pairs,
        unmatched_tracks=tuple(t.id for t in tracks if t.id not in matched_tracks),
        unmatched_detections=tuple(j for j in range(nd) if j not in matched_dets),
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
    tracks = tracker.tracks
    moved = _predict_stack(tracks, dt, [config.q_for(tr.cls) for tr in tracks], config.gamma)
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

    observe, jacobian, locate, y_h = geometry.pose_model(frame.pose, intr, camera_height)
    assignment = match(tracker.tracks, detections, observe, y_h, intr.c_x, config.iou_gate)

    updated: dict[int, Track] = {}
    if assignment.pairs:
        by_id = {t.id: t for t in tracker.tracks}
        matched, residual = [], []
        c_x = intr.c_x
        for tid, j in assignment.pairs:
            det = detections[j]
            # measurement triple straight from the detection box, less the prediction
            u, v_bottom = det.bottom_center
            p_u, p_h, p_dev = assignment.predicted[tid]
            residual.append((u - c_x - p_u, det.h - p_h, v_bottom - y_h - p_dev))
            matched.append((by_id[tid], det))
        H = _jacobian_stack([(tr.x, tr.z, tr.obj_height) for tr, _ in matched], jacobian)
        keep, vec, P = _kalman_stack(np.array([tr[_MEAN] for tr, _ in matched]),
                                     np.array([tr.P for tr, _ in matched]),
                                     np.array(residual), H, config.r_matrix())
        # a singular innovation drops its pair, as a miss
        kept = list(itertools.compress(matched, keep))
        for tr in _refiltered([tr for tr, _ in kept], vec, P, config.gamma,
                              [det for _, det in kept]):
            updated[tr.id] = tr

    survivors = []
    for track in tracker.tracks:
        if track.id in updated:
            track = updated[track.id]
        else:
            # unmatched, or the update failed; either way a miss
            # every field through the confidence, and one more miss
            track = Track(*track[:-2], track.miss_count + 1, track.last_box)
        if track.miss_count > config.miss_max:
            continue
        if track.range > config.d_max:
            continue
        survivors.append(track)

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
