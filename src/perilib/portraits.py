"""Equilibria and level sets of the rescaled first integral on the (g, G)
cylinder.

The integral e_hat(eps, Lambda, G, g) drives the pericenter dynamics; its
critical points and contour topology reproduce the three regimes
0 < eps < 1/2, 1/2 < eps < 1 and eps > 1 (two centers / extra saddle and
G-axis pair / rotational motions).
"""

from collections import deque
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


def _newton_sweep(eps, Lambda, G, g, newton_steps, tol):
    """Newton's method for grad e_hat = 0 from every start (G[k], g[k]) at once.

    Each start follows its own scalar Newton run: it converges when the
    gradient norm drops below tol within newton_steps iterations, and it is
    dropped when its Hessian is exactly singular or an iterate leaves
    |G| <= Lambda (1 - 1e-9).  Steps longer than Lambda / 2 are shortened to
    that length and g is wrapped into (-pi, pi] after each step.  Returns
    (converged mask, G, g), the last two holding the converged points.
    """
    Gmax = Lambda * (1 - 1e-9)
    ok = np.zeros(G.shape, dtype=bool)
    G_out, g_out = G.copy(), g.copy()
    live = np.arange(G.size)
    for _ in range(newton_steps):
        dG, dg = _grad_e(eps, Lambda, G, g)
        done = np.sqrt(dG * dG + dg * dg) < tol
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


def find_equilibria(eps, Lambda=1.0, grid_n=48, newton_steps=60, tol=1e-12):
    """Critical points of e_hat on the cylinder (g, G) by Newton from a grid.

    eps must avoid the transition values 1/2 and 1 where equilibria are
    degenerate.  Returns EquilibriumReport entries sorted by (g, G).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if abs(eps - 0.5) < 1e-9 or abs(eps - 1.0) < 1e-9:
        raise ValueError("eps at a transition value (1/2 or 1)")
    # starts in (g0, G0) order: the first start reaching an equilibrium
    # supplies its reported location
    g0 = np.linspace(-np.pi, np.pi, grid_n, endpoint=False)
    G0 = np.linspace(-0.98 * Lambda, 0.98 * Lambda, grid_n)
    g0, G0 = (a.ravel() for a in np.meshgrid(g0, G0, indexing="ij"))
    ok, G, g = _newton_sweep(eps, Lambda, G0, g0, newton_steps, tol)
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
    found.sort(key=lambda e: (round(e.location[0], 9), round(e.location[1], 9)))
    return found


# ------------------------ marching squares ------------------------

# Edges of cell (i, j): 0 is x = xg[i], 1 is y = yg[j+1], 2 is x = xg[i+1],
# 3 is y = yg[j].  Each row holds up to two (edge_a, edge_b) segments.  Rows
# 0-15 are the case indices; rows 16-19 resolve the ambiguous saddle cases
# 5 and 10 by the cell-center value.
_PAD = (-1, -1)
_SEGMENTS = (
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
)


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
    xg, yg = np.asarray(xg), np.asarray(yg)
    # nudge node values lying exactly on the level: keeps every crossing in
    # the open interior of its edge (an O(1e-13) perturbation of the set)
    scale = max(abs(level), float(np.ptp(Z)), 1.0)
    Z = np.where(Z == level, level + 1e-13 * scale, Z)
    above = Z >= level
    case = (
        1 * above[:-1, :-1]
        + 2 * above[:-1, 1:]
        + 4 * above[1:, 1:]
        + 8 * above[1:, :-1]
    )
    ci, cj = np.nonzero((case != 0) & (case != 15))
    row = case[ci, cj]
    saddle = (row == 5) | (row == 10)
    si, sj = ci[saddle], cj[saddle]
    center = 0.25 * (Z[si, sj] + Z[si, sj + 1] + Z[si + 1, sj] + Z[si + 1, sj + 1])
    row[saddle] = np.where(row[saddle] == 5, 16, 18) + (center < level)
    pairs = np.array(_SEGMENTS)[row]
    present = pairs[:, :, 0] >= 0
    # one entry per segment end: segments in order, ends a and b adjacent
    edge = pairs[present].ravel()
    i = np.repeat(ci, 2 * present.sum(axis=1))
    j = np.repeat(cj, 2 * present.sum(axis=1))
    vert = edge % 2 == 0
    ki, kj = i + (edge == 2), j + (edge == 1)  # first node of the edge
    li, lj = ki + ~vert, kj + vert  # second node
    a = Z[ki, kj]
    w = (level - a) / (Z[li, lj] - a)
    x0, y0 = xg[ki], yg[kj]
    x = np.where(vert, x0, x0 + w * (xg[li] - x0))
    y = np.where(vert, y0 + w * (yg[lj] - y0), y0)
    keys = zip(np.where(vert, "v", "h").tolist(), ki.tolist(), kj.tolist())
    ends = list(zip(keys, zip(x.tolist(), y.tolist())))
    return list(zip(ends[0::2], ends[1::2]))


def chain_segments(segs):
    """Join segments sharing grid edges into polylines (lists of points)."""
    by_end = {}
    for idx, ((ka, _), (kb, _)) in enumerate(segs):
        by_end.setdefault(ka, []).append(idx)
        by_end.setdefault(kb, []).append(idx)
    used = [False] * len(segs)
    polylines = []
    for start in range(len(segs)):
        if used[start]:
            continue
        used[start] = True
        (ka, pa), (kb, pb) = segs[start]
        keys = deque([ka, kb])
        line = deque([pa, pb])
        for tip_pos in (1, 0):
            while True:
                tip = keys[-1] if tip_pos else keys[0]
                cands = [c for c in by_end.get(tip, []) if not used[c]]
                if not cands:
                    break
                c = cands[0]
                used[c] = True
                (na, qa), (nb, qb) = segs[c]
                nk, nq = (nb, qb) if na == tip else (na, qa)
                if tip_pos:
                    keys.append(nk)
                    line.append(nq)
                else:
                    keys.appendleft(nk)
                    line.appendleft(nq)
        line = list(line)
        # closed loop: the two tips sit on the same grid edge
        if len(keys) > 2 and keys[0] == keys[-1]:
            line[-1] = line[0]
        polylines.append(line)
    return polylines


def is_closed(polyline, tol=1e-6):
    a, b = polyline[0], polyline[-1]
    return abs(a[0] - b[0]) < tol and abs(a[1] - b[1]) < tol


def phase_portrait(eps, Lambda=1.0, grid=(128, 128), levels=12):
    """Contour polylines of e_hat on (g, G) in [-pi, pi] x [-Lambda, Lambda].

    Returns a list of (level, polyline) with polylines in (g, G) points.
    Level selection spans the value range and includes the separatrix level
    e_hat(0, 0) = 1 whenever eps > 1/2.
    """
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
    out = []
    for lv in sorted(vals):
        for line in chain_segments(marching_squares(gg, GG, Z, lv)):
            out.append((float(lv), line))
    return out


def spans_full_angle(polyline, margin=0.05):
    """True if the polyline's g-extent reaches both cylinder seams."""
    gs = [p[0] for p in polyline]
    return min(gs) < -np.pi + margin and max(gs) > np.pi - margin


def has_rotational_orbits(eps, Lambda=1.0, grid=(128, 128), levels=40):
    """Level-line sweep: does any contour wind around the cylinder?"""
    return any(
        spans_full_angle(line) for _, line in phase_portrait(eps, Lambda, grid, levels)
    )
