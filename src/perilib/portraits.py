"""Equilibria and level sets of the rescaled first integral on the (g, G)
cylinder.

The integral e_hat(eps, Lambda, G, g) drives the pericenter dynamics; its
critical points, which find_equilibria gives in closed form, and its
contour topology, which phase_portrait traces with two kernels,
reproduce the three regimes 0 < eps < 1/2, 1/2 < eps < 1 and eps > 1 (two
centers / extra saddle and G-axis pair / rotational motions).
marching_squares finds every level's edge crossings in one pass over the
grid, and chain_segments joins one level's crossings into polylines, each
an (n, 2) float array.
"""

import math
from dataclasses import dataclass

import numpy as np

from .potentials import e_hat


@dataclass(frozen=True)
class EquilibriumReport:
    """One critical point of the pericenter flow.

    location is (g, G); kind is "center" (pure-imaginary linearization
    eigenvalues) or "saddle" (real pair); eigenvalues holds the pair of the
    linearized Hamiltonian vector field.
    """

    location: tuple
    kind: str
    eigenvalues: tuple


def _check_eps_lambda(eps, Lambda):
    """ValueError unless eps is finite and Lambda finite and positive."""
    if not math.isfinite(eps):
        raise ValueError("eps must be finite, not %r" % (eps,))
    if not (math.isfinite(Lambda) and Lambda > 0):
        raise ValueError("Lambda must be finite and positive, not %r" % (Lambda,))


def _report(g, G, kind, lam):
    """The EquilibriumReport at (g, G) of a center, eigenvalues +-i lam, or
    of a saddle, eigenvalues +-lam."""
    if kind == "center":
        return EquilibriumReport((g, G), kind, (complex(0.0, lam), complex(0.0, -lam)))
    return EquilibriumReport((g, G), kind, (complex(lam, 0.0), complex(-lam, 0.0)))


def find_equilibria(eps, Lambda=1.0):
    """Critical points of e_hat on the cylinder (g, G), in closed form.

    With u = G / Lambda, d e_hat/dg = -sqrt(1 - u^2) sin g vanishes on
    g = 0 and g = pi only, and there d e_hat/du = u (2 eps - cos g /
    sqrt(1 - u^2)) vanishes at u = 0 and, on g = 0 when eps > 1/2, where
    sqrt(1 - u^2) = 1/(2 eps).  Each eigenvalue pair below is +-sqrt(-det),
    det the determinant of the Hessian of e_hat at its point:
    - (0, 0) is a center, +-i sqrt(1 - 2 eps)/Lambda, below eps = 1/2 and a
      saddle, +-sqrt(2 eps - 1)/Lambda, above it;
    - (pi, 0) is a center, +-i sqrt(1 + 2 eps)/Lambda;
    - above eps = 1/2, (0, +-G*) with G* = Lambda sqrt(4 eps^2 - 1)/(2 eps)
      are centers, +-i sqrt(4 eps^2 - 1)/Lambda.

    Returns EquilibriumReport entries sorted by (g, G): two below
    eps = 1/2, four above.  ValueError for eps <= 0 and for eps within 1e-9
    of the transition values 1/2 and 1, where equilibria are degenerate,
    and, naming eps and Lambda, when G* rounds onto Lambda or an eigenvalue
    leaves the float range.
    """
    _check_eps_lambda(eps, Lambda)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if abs(eps - 0.5) < 1e-9 or abs(eps - 1.0) < 1e-9:
        raise ValueError("eps at a transition value (1/2 or 1)")
    # 2 eps - 1 is exact next to eps = 1/2, so no root there cancels
    if eps < 0.5:
        found = [_report(0.0, 0.0, "center", math.sqrt(1 - 2 * eps) / Lambda)]
    else:
        root = math.sqrt((2 * eps - 1) * (2 * eps + 1))
        G = Lambda * (root / (2 * eps))
        found = [
            _report(0.0, -G, "center", root / Lambda),
            _report(0.0, 0.0, "saddle", math.sqrt(2 * eps - 1) / Lambda),
            _report(0.0, G, "center", root / Lambda),
        ]
    found.append(_report(math.pi, 0.0, "center", math.sqrt(1 + 2 * eps) / Lambda))
    # negated, so that a NaN fails too
    if not all(abs(e.location[1]) < Lambda and abs(e.eigenvalues[0]) < math.inf
               for e in found):
        raise ValueError("eps=%r and Lambda=%r put a G-axis center on |G| = Lambda or "
                         "an eigenvalue past the float range" % (eps, Lambda))
    return found


# ------------------------ marching squares ------------------------

# Edges of cell (i, j): 0 is x = xg[i], 1 is y = yg[j+1], 2 is x = xg[i+1],
# 3 is y = yg[j].  Each row holds up to two (edge_a, edge_b) segments.  Rows
# 0-15 are the case indices; rows 16-19 resolve the ambiguous saddle cases
# 5 and 10 by the cell-center value.
_PAD = (-1, -1)
_SEGMENTS = np.array((
    (_PAD, _PAD),  # 0
    ((3, 0), _PAD),  # 1
    ((0, 1), _PAD),  # 2
    ((3, 1), _PAD),  # 3
    ((1, 2), _PAD),  # 4
    (_PAD, _PAD),  # 5: see rows 16 and 17
    ((0, 2), _PAD),  # 6
    ((3, 2), _PAD),  # 7
    ((2, 3), _PAD),  # 8
    ((2, 0), _PAD),  # 9
    (_PAD, _PAD),  # 10: see rows 18 and 19
    ((2, 1), _PAD),  # 11
    ((1, 3), _PAD),  # 12
    ((1, 0), _PAD),  # 13
    ((0, 3), _PAD),  # 14
    (_PAD, _PAD),  # 15
    ((0, 1), (2, 3)),  # 16: case 5, center >= level
    ((3, 0), (1, 2)),  # 17: case 5, center < level
    ((3, 0), (1, 2)),  # 18: case 10, center >= level
    ((0, 1), (2, 3)),  # 19: case 10, center < level
), dtype=np.int8)


def marching_squares(xg, yg, Z, levels):
    """Crossings of Z(x, y) = L with the edges of the rectilinear grid, for
    every L of the ascending sequence levels in one pass over the grid.

    Z is indexed Z[i, j] = Z(xg[i], yg[j]).  Returns int and float arrays
    (lev, edge, x, y), one entry per segment end, grouped by level: lev is
    the index into levels, and within a level entries 2m and 2m + 1 are the
    two ends of segment m.  edge = 2 (i ny + j) + 1 names the grid edge
    x = xg[i], yg[j] <= y <= yg[j+1], and edge = 2 (i ny + j) the edge
    y = yg[j], xg[i] <= x <= xg[i+1], with ny = len(yg), so neighboring
    cells agree on it exactly; (x, y) is the linear interpolation along that
    edge.  A node is above a level when Z >= level; a NaN node is above
    none.

    Segment order is part of the contract: within a level, cells come in
    row-major (i, j) order and a saddle cell gives its two segments in table
    order.  chain_segments starts its polylines in this order, so the order
    fixes the polylines and the bytes of the portrait CSV.
    """
    xg, yg = np.asarray(xg), np.asarray(yg)
    levels = np.asarray(levels, dtype=float)
    # count[i, j] levels lie at or below Z[i, j], so the node is above
    # level l exactly when l < count[i, j]
    count = np.searchsorted(levels, Z, side="right").astype(np.int32)
    count[np.isnan(Z)] = 0
    corners = (count[:-1, :-1], count[:-1, 1:], count[1:, 1:], count[1:, :-1])
    lo = np.minimum(np.minimum(corners[0], corners[1]), np.minimum(corners[2], corners[3]))
    hi = np.maximum(np.maximum(corners[0], corners[1]), np.maximum(corners[2], corners[3]))
    # a cell is crossed by the levels lo <= l < hi: its (cell, level) pairs,
    # stable-sorted by level so that cells stay row-major within a level
    cell = np.flatnonzero(hi > lo).astype(np.int32)
    lo, n = lo.ravel()[cell], hi.ravel()[cell] - lo.ravel()[cell]
    del hi, corners
    # the k-th pair of a cell is level lo + k
    lev = np.arange(n.sum(), dtype=np.int32) - np.repeat(np.cumsum(n, dtype=np.int32) - n - lo, n)
    cell = np.repeat(cell, n)
    order = np.argsort(lev, kind="stable")
    lev, cell = lev[order], cell[order]
    del lo, n, order
    ci, cj = np.divmod(cell, np.int32(yg.size - 1))
    del cell
    row = (
        1 * (lev < count[ci, cj])
        + 2 * (lev < count[ci, cj + 1])
        + 4 * (lev < count[ci + 1, cj + 1])
        + 8 * (lev < count[ci + 1, cj])
    )
    del count
    # nudge node values lying exactly on the level: keeps every crossing in
    # the open interior of its edge (an O(1e-13) perturbation of the set)
    ptp = float(np.ptp(Z))
    nudged = np.array([lv + 1e-13 * max(abs(lv), ptp, 1.0) for lv in levels.tolist()])

    def node(i, j, at):
        """Z[i, j] at the pairs' levels levels[at], nudged off them."""
        z, level = Z[i, j], levels[at]
        return np.where(z == level, nudged[at], z)

    saddle = np.flatnonzero((row == 5) | (row == 10))
    si, sj, sl = ci[saddle], cj[saddle], lev[saddle]
    center = 0.25 * (
        node(si, sj, sl) + node(si, sj + 1, sl) + node(si + 1, sj, sl) + node(si + 1, sj + 1, sl)
    )
    row[saddle] = np.where(row[saddle] == 5, 16, 18) + (center < levels[sl])
    pairs = _SEGMENTS[row]
    present = pairs[:, :, 0] >= 0
    # one entry per segment end: segments in order, ends a and b adjacent
    side = pairs[present].ravel()
    ends = 2 * present.sum(axis=1)
    del pairs, present, row
    i, j, lev = np.repeat(ci, ends), np.repeat(cj, ends), np.repeat(lev, ends)
    del ci, cj, ends
    vert = side % 2 == 0
    ki, kj = i + (side == 2), j + (side == 1)  # first node of the edge
    li, lj = ki + ~vert, kj + vert  # second node
    del i, j, side
    a = node(ki, kj, lev)
    w = (levels[lev] - a) / (node(li, lj, lev) - a)
    x0, y0 = xg[ki], yg[kj]
    x = np.where(vert, x0, x0 + w * (xg[li] - x0))
    y = np.where(vert, y0 + w * (yg[lj] - y0), y0)
    return lev, 2 * (ki * yg.size + kj) + vert, x, y


def chain_segments(edge, x, y):
    """Polylines, each an (n, 2) float array of (x, y) rows, of the segments
    whose ends are given as by one level of marching_squares: segment m
    runs from end 2m to end 2m + 1, and two ends with the same edge id are
    joined.

    An id may be shared by at most two ends (ValueError otherwise), which
    holds for the edges of one level of marching_squares: a grid edge
    borders two cells and a cell, saddles included, uses each of its edges
    once.  Chains start from the unused segments in index order and grow at
    the tail, then at the head.  A chain whose first and last ends share an
    id is a closed loop, and its last row is set to its first.
    """
    n = edge.size
    order = np.argsort(edge, kind="stable")
    ranked = edge[order]
    if (ranked[2:] == ranked[:-2]).any():
        raise ValueError("an edge id is shared by more than two segment ends")
    k = np.flatnonzero(ranked[1:] == ranked[:-1])
    partner = np.full(n, -1)
    partner[order[k]] = order[k + 1]
    partner[order[k + 1]] = order[k]
    partner, ids = partner.tolist(), edge.tolist()
    xy = np.column_stack([x, y])
    used = [False] * (n // 2)
    polylines = []
    for start in range(n // 2):
        if used[start]:
            continue
        used[start] = True
        grown = []
        for tip in (2 * start + 1, 2 * start):
            ends = []
            other = partner[tip]
            while other >= 0 and not used[other >> 1]:
                used[other >> 1] = True
                tip = other ^ 1  # the far end of the joined segment
                ends.append(tip)
                other = partner[tip]
            grown.append(ends)
        tail, head = grown
        seq = head[::-1] + [2 * start, 2 * start + 1] + tail
        line = xy[seq]
        if len(seq) > 2 and ids[seq[0]] == ids[seq[-1]]:
            line[-1] = line[0]
        polylines.append(line)
    return polylines


def is_closed(polyline):
    """True if the polyline's ends agree to within 1e-6 in each coordinate."""
    a, b = polyline[0], polyline[-1]
    return abs(a[0] - b[0]) < 1e-6 and abs(a[1] - b[1]) < 1e-6


def phase_portrait(eps, Lambda=1.0, grid=(128, 128), levels=12):
    """Contour polylines of e_hat on (g, G) in [-pi, pi] x [-Lambda, Lambda].

    Returns a list of (level, polyline), level a float and polyline an
    (n, 2) float array of (g, G) rows, levels ascending and each level's
    polylines in chain_segments' order.  Level selection spans the value
    range and includes the separatrix level e_hat(0, 0) = 1 whenever
    eps > 1/2.  The contours come from one marching_squares call over all
    levels and one chain_segments call per level.
    """
    _check_eps_lambda(eps, Lambda)
    ng, nG = grid
    if ng < 64 or nG < 64:
        raise ValueError("grid resolution must be at least 64 x 64")
    gg = np.linspace(-np.pi, np.pi, ng)
    GG = np.linspace(-Lambda, Lambda, nG)
    Z = e_hat(eps, Lambda, GG[None, :], gg[:, None])
    lo, hi = Z.min(), Z.max()
    vals = list(np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), levels))
    if eps > 0.5:
        sep = e_hat(eps, Lambda, 0.0, 0.0)
        if lo < sep < hi:
            vals.append(float(sep))
    vals = sorted(vals)
    lev, edge, x, y = marching_squares(gg, GG, Z, vals)
    # level l's entries are lev's run [cut[l], cut[l + 1])
    cut = np.searchsorted(lev, np.arange(len(vals) + 1)).tolist()
    out = []
    for lv, a, b in zip(vals, cut, cut[1:]):
        out += [(float(lv), line) for line in chain_segments(edge[a:b], x[a:b], y[a:b])]
    return out


def spans_full_angle(polyline):
    """True if the polyline's g-extent reaches within 0.05 of both cylinder
    seams."""
    gs = np.asarray(polyline, dtype=float)[:, 0]
    return gs.min() < -np.pi + 0.05 and gs.max() > np.pi - 0.05


def has_rotational_orbits(eps, Lambda=1.0, grid=(128, 128), levels=40):
    """Level-line sweep: does any contour wind around the cylinder?"""
    return any(
        spans_full_angle(line) for _, line in phase_portrait(eps, Lambda, grid, levels)
    )
