"""Equilibria and level sets of the rescaled first integral on the (g, G)
cylinder.

The integral e_hat(eps, Lambda, G, g) drives the pericenter dynamics; its
critical points and contour topology reproduce the three regimes
0 < eps < 1/2, 1/2 < eps < 1 and eps > 1 (two centers / extra saddle and
G-axis pair / rotational motions).
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


def _grad_e(eps, Lambda, G, g):
    """(d/dG, d/dg) of e_hat; G and g may be arrays of equal shape."""
    u = G / Lambda
    root = np.sqrt(np.maximum(1e-14, 1.0 - u * u))
    dG = -u * np.cos(g) / (Lambda * root) + 2 * eps * u / Lambda
    dg = -root * np.sin(g)
    return dG, dg


def _hess_e(eps, Lambda, G, g):
    """Hessian entries (GG, Gg, gg) of e_hat; G and g may be arrays."""
    u = G / Lambda
    om = np.maximum(1e-14, 1.0 - u * u)
    root = np.sqrt(om)
    dGG = (-np.cos(g) / root - u * u * np.cos(g) / om**1.5 + 2 * eps) / Lambda**2
    dGg = u * np.sin(g) / (Lambda * root)
    dgg = -root * np.cos(g)
    return dGG, dGg, dgg


def _classify(eps, Lambda, G, g):
    hGG, hGg, hgg = _hess_e(eps, Lambda, G, g)
    det = float(hGG * hgg - hGg * hGg)
    if det > 0:
        lam = np.sqrt(det)
        return "center", (complex(0.0, lam), complex(0.0, -lam))
    lam = np.sqrt(-det)
    return "saddle", (complex(lam, 0.0), complex(-lam, 0.0))


def _newton_sweep(eps, Lambda, G, g):
    """Newton's method for grad e_hat = 0 from every start (G[k], g[k]) at once.

    Each start follows its own scalar Newton run: it converges when the
    gradient norm drops below 1e-12 within 60 iterations, and it is
    dropped when its Hessian is exactly singular or an iterate leaves
    |G| <= Lambda (1 - 1e-9).  Steps longer than Lambda / 2 are shortened to
    that length and g is wrapped into (-pi, pi] after each step.  The sweep
    ends after 60 iterations or once no start is live.  Returns
    (converged mask, G, g), the last two holding the converged points.
    """
    Gmax = Lambda * (1 - 1e-9)
    ok = np.zeros(G.shape, dtype=bool)
    G_out, g_out = G.copy(), g.copy()
    live = np.arange(G.size)
    for _ in range(60):
        if not live.size:
            break
        dG, dg = _grad_e(eps, Lambda, G, g)
        done = np.sqrt(dG * dG + dg * dg) < 1e-12
        ok[live[done]] = True
        G_out[live[done]] = G[done]
        g_out[live[done]] = g[done]
        hGG, hGg, hgg = _hess_e(eps, Lambda, G, g)
        det = hGG * hgg - hGg * hGg
        keep = ~done & (det != 0)
        live, G, g, dG, dg = live[keep], G[keep], g[keep], dG[keep], dg[keep]
        hGG, hGg, hgg, det = hGG[keep], hGg[keep], hgg[keep], det[keep]
        # closed-form solve of the 2 x 2 system H step = grad
        sG = (hgg * dG - hGg * dg) / det
        sg = (hGG * dg - hGg * dG) / det
        norm = np.sqrt(sG * sG + sg * sg)
        cap = norm > 0.5 * Lambda
        sG = np.where(cap, sG * (0.5 * Lambda / norm), sG)
        sg = np.where(cap, sg * (0.5 * Lambda / norm), sg)
        G, g = G - sG, g - sg
        inside = np.abs(G) <= Gmax
        live, G, g = live[inside], G[inside], np.angle(np.exp(1j * g[inside]))
    return ok, G_out, g_out


def find_equilibria(eps, Lambda=1.0, grid_n=48):
    """Critical points of e_hat with |G| <= 0.999 Lambda on the cylinder
    (g, G), by Newton from a grid and from two starts next to the edges.

    eps must avoid the transition values 1/2 and 1 where equilibria are
    degenerate.  Returns EquilibriumReport entries sorted by (g, G): two
    below eps = 1/2, four above.  Another count raises ValueError, as past
    eps = 11.18, where the G-axis centers pass 0.999 Lambda.
    """
    _check_eps_lambda(eps, Lambda)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if abs(eps - 0.5) < 1e-9 or abs(eps - 1.0) < 1e-9:
        raise ValueError("eps at a transition value (1/2 or 1)")
    # starts in (g0, G0) order: the first start reaching an equilibrium
    # supplies its reported location.  No grid start reaches the G-axis
    # centers at some eps (4.5, 7).  On g = 0, d e_hat/dG is concave in G
    # from a center to the edge, so Newton from Lambda (1 - 1e-4) runs
    # monotonically into every center below 0.999 Lambda
    g0 = np.linspace(-np.pi, np.pi, grid_n, endpoint=False)
    G0 = np.linspace(-0.98 * Lambda, 0.98 * Lambda, grid_n)
    g0, G0 = (a.ravel() for a in np.meshgrid(g0, G0, indexing="ij"))
    edge = Lambda * (1 - 1e-4)
    g0, G0 = np.append(g0, [0.0, 0.0]), np.append(G0, [edge, -edge])
    ok, G, g = _newton_sweep(eps, Lambda, G0, g0)
    G, g = G[ok], np.angle(np.exp(1j * g[ok]))
    keep = np.abs(G) <= 0.999 * Lambda
    G, g = G[keep], g[keep]
    found = []
    while G.size:
        Gk, gk = float(G[0]), float(g[0])
        kind, eig = _classify(eps, Lambda, Gk, gk)
        # canonicalize tiny numerical offsets at the symmetric points
        if abs(Gk) < 1e-9:
            Gk = 0.0
        if abs(gk) < 1e-9:
            gk = 0.0
        if abs(abs(gk) - np.pi) < 1e-9:
            gk = np.pi
        found.append(EquilibriumReport((gk, Gk), kind, eig))
        # drop the later starts that reached the same point
        same = (np.abs(G - Gk) < 1e-6) & (
            np.abs(np.angle(np.exp(1j * (g - gk)))) < 1e-6
        )
        G, g = G[~same], g[~same]
    expected = 4 if eps > 0.5 else 2
    if len(found) != expected:
        raise ValueError("eps=%r: found %d of the %d equilibria"
                         % (eps, len(found), expected))
    found.sort(key=lambda e: (round(e.location[0], 9), round(e.location[1], 9)))
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


def _level_crossings(xg, yg, Z, levels):
    """Crossings of Z(x, y) = L with the edges of the rectilinear grid, for
    every L of the ascending sequence levels in one pass over the grid.

    Z is indexed Z[i, j] = Z(xg[i], yg[j]).  Returns int and float arrays
    (lev, edge, x, y), one entry per segment end, grouped by level: lev is
    the index into levels, and within a level entries 2m and 2m + 1 are the
    two ends of segment m.  edge = 2 (i ny + j) + 1 names the grid edge
    x = xg[i], yg[j] <= y <= yg[j+1], and edge = 2 (i ny + j) the edge
    y = yg[j], xg[i] <= x <= xg[i+1], with ny = len(yg), so neighboring
    cells agree on it exactly; (x, y) is the linear interpolation along that
    edge.  Within a level, cells come in row-major (i, j) order and a saddle
    cell gives its two segments in table order.  A node is above a level
    when Z >= level; a NaN node is above none.
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


def _chain(edge, x, y):
    """Polylines (lists of (x, y) points) of the segments whose ends are
    given as by one level of _level_crossings: segment m runs from end 2m
    to end 2m + 1, and two ends with the same edge id are joined.

    An id may be shared by at most two ends (ValueError otherwise), which
    holds for the edges of one level of _level_crossings: a grid edge
    borders two cells and a cell, saddles included, uses each of its edges
    once.  Chains start from
    the unused segments in index order and grow at the tail, then at the
    head.  A chain whose first and last ends share an id is a closed loop,
    and its last point is set to its first.
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
    points = list(zip(x.tolist(), y.tolist()))
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
        line = [points[e] for e in seq]
        if len(seq) > 2 and ids[seq[0]] == ids[seq[-1]]:
            line[-1] = line[0]
        polylines.append(line)
    return polylines


def marching_squares(xg, yg, Z, level):
    """Contour segments of Z(x, y) = level on the rectilinear grid.

    Z is indexed Z[i, j] = Z(xg[i], yg[j]).  Returns a list of segments
    ((key_a, point_a), (key_b, point_b)) with linear interpolation along
    cell edges; the keys identify grid edges for exact chaining.  A key is
    ('v', i, j) for the edge x = xg[i], yg[j] <= y <= yg[j+1], or
    ('h', i, j) for the edge y = yg[j], xg[i] <= x <= xg[i+1], so
    neighboring cells agree on it exactly.

    Segment order is part of the contract: cells come in row-major (i, j)
    order and a saddle cell gives its two segments in table order.
    chain_segments starts its polylines in this order, so the order fixes
    the polylines and the bytes of the portrait CSV.
    """
    _, edge, x, y = _level_crossings(xg, yg, Z, [level])
    node, vert = np.divmod(edge, 2)
    ki, kj = np.divmod(node, len(yg))
    keys = zip(np.where(vert, "v", "h").tolist(), ki.tolist(), kj.tolist())
    ends = list(zip(keys, zip(x.tolist(), y.tolist())))
    return list(zip(ends[0::2], ends[1::2]))


def chain_segments(segs):
    """Join segments sharing grid edges into polylines (lists of points).

    segs is a list of ((key_a, point_a), (key_b, point_b)) as marching_squares
    returns; a key may be shared by at most two segment ends.
    """
    ends = [end for seg in segs for end in seg]
    ids = {}
    edge = np.array([ids.setdefault(key, len(ids)) for key, _ in ends], dtype=int)
    xy = np.array([p for _, p in ends], dtype=float).reshape(-1, 2)
    return _chain(edge, xy[:, 0], xy[:, 1])


def is_closed(polyline):
    """True if the polyline's ends agree to within 1e-6 in each coordinate."""
    a, b = polyline[0], polyline[-1]
    return abs(a[0] - b[0]) < 1e-6 and abs(a[1] - b[1]) < 1e-6


def phase_portrait(eps, Lambda=1.0, grid=(128, 128), levels=12):
    """Contour polylines of e_hat on (g, G) in [-pi, pi] x [-Lambda, Lambda].

    Returns a list of (level, polyline) with polylines in (g, G) points.
    Level selection spans the value range and includes the separatrix level
    e_hat(0, 0) = 1 whenever eps > 1/2.
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
    lev, edge, x, y = _level_crossings(gg, GG, Z, vals)
    # level l's entries are lev's run [cut[l], cut[l + 1])
    cut = np.searchsorted(lev, np.arange(len(vals) + 1)).tolist()
    out = []
    for lv, a, b in zip(vals, cut, cut[1:]):
        out += [(float(lv), line) for line in _chain(edge[a:b], x[a:b], y[a:b])]
    return out


def spans_full_angle(polyline):
    """True if the polyline's g-extent reaches within 0.05 of both cylinder
    seams."""
    gs = [p[0] for p in polyline]
    return min(gs) < -np.pi + 0.05 and max(gs) > np.pi - 0.05


def has_rotational_orbits(eps, Lambda=1.0, grid=(128, 128), levels=40):
    """Level-line sweep: does any contour wind around the cylinder?"""
    return any(
        spans_full_angle(line) for _, line in phase_portrait(eps, Lambda, grid, levels)
    )
