from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from perilib import portraits
from perilib.potentials import e_hat
from perilib.portraits import (
    _chain,
    _level_crossings,
    chain_segments,
    find_equilibria,
    has_rotational_orbits,
    is_closed,
    marching_squares,
    phase_portrait,
    spans_full_angle,
)


# a non-finite eps, and a Lambda that is not finite and positive
BAD_EPS_LAMBDA = [
    (np.nan, 1.0), (np.inf, 1.0), (0.3, 0.0), (0.3, -1.0), (0.3, np.nan), (0.3, np.inf),
]
BAD_EPS_LAMBDA_IDS = ["eps-nan", "eps-inf", "Lambda-0", "Lambda-neg", "Lambda-nan", "Lambda-inf"]


class TestEquilibria:
    def test_two_centers_below_half(self):
        eqs = find_equilibria(0.3, 1.0)
        assert len(eqs) == 2
        locs = {(round(e.location[0], 6), round(e.location[1], 6)) for e in eqs}
        assert locs == {(0.0, 0.0), (round(np.pi, 6), 0.0)}
        assert all(e.kind == "center" for e in eqs)
        for e in eqs:
            assert all(abs(ev.real) < 1e-8 for ev in e.eigenvalues)

    def test_saddle_and_axis_pair_above_half(self):
        eqs = find_equilibria(0.7, 1.0)
        assert len(eqs) == 4
        by_loc = {
            (round(e.location[0], 4), round(e.location[1], 4)): e for e in eqs
        }
        origin = by_loc[(0.0, 0.0)]
        assert origin.kind == "saddle"
        assert by_loc[(round(np.pi, 4), 0.0)].kind == "center"
        G0 = np.sqrt(1 - 1 / (4 * 0.7**2))
        assert (0.0, round(G0, 4)) in by_loc
        assert (0.0, round(-G0, 4)) in by_loc
        assert by_loc[(0.0, round(G0, 4))].kind == "center"

    def test_above_one_saddle_persists(self):
        eqs = find_equilibria(1.5, 1.0)
        by_loc = {
            (round(e.location[0], 4), round(e.location[1], 4)): e for e in eqs
        }
        assert by_loc[(0.0, 0.0)].kind == "saddle"

    def test_rejects_transition_eps(self):
        with pytest.raises(ValueError):
            find_equilibria(0.5)
        with pytest.raises(ValueError):
            find_equilibria(1.0)

    @pytest.mark.parametrize("eps, Lambda", BAD_EPS_LAMBDA, ids=BAD_EPS_LAMBDA_IDS)
    def test_rejects_bad_eps_or_lambda(self, eps, Lambda):
        with pytest.raises(ValueError):
            find_equilibria(eps, Lambda)

    @staticmethod
    def check_closed_form(eps, Lambda):
        # with u = G / Lambda, d e_hat/dg = -sqrt(1 - u^2) sin g vanishes at
        # g = 0 and pi only; there d e_hat/du = u (2 eps - cos g / sqrt(1 -
        # u^2)) vanishes at u = 0, and at g = 0 also where sqrt(1 - u^2) =
        # 1/(2 eps)
        want = [((0.0, 0.0), "center" if eps < 0.5 else "saddle"), ((np.pi, 0.0), "center")]
        if eps > 0.5:
            G = Lambda * np.sqrt(1 - 1 / (4 * eps**2))
            want += [((0.0, -G), "center"), ((0.0, G), "center")]
        got = find_equilibria(eps, Lambda)
        assert len(got) == len(want)
        for e, (loc, kind) in zip(got, sorted(want)):
            assert abs(e.location[0] - loc[0]) < 1e-9
            assert abs(e.location[1] - loc[1]) < 1e-9 * Lambda
            assert e.kind == kind

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(eps=st.one_of(st.floats(1e-6, 0.49), st.floats(0.51, 11.18)))
    def test_matches_the_closed_form(self, eps):
        # the grid missed the last pair at eps = 4.5 and in [6.25, 7.75)
        self.check_closed_form(eps, 1.0)

    @pytest.mark.parametrize("Lambda", [0.01, 0.1, 1000.0])
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(eps=st.one_of(st.floats(1e-6, 0.49), st.floats(0.51, 11.18)))
    def test_matches_the_closed_form_off_unit_lambda(self, Lambda, eps):
        # the convergence test, the dedup distance and the canonicalization
        # of G were absolute: off Lambda = 1 the sweep miscounted, at eps
        # near 9 for Lambda = 0.01 and below 1/2 for Lambda = 1000
        self.check_closed_form(eps, Lambda)

    @pytest.mark.parametrize("eps", [0.49999999, 0.50000001, 11.25, 50.0])
    def test_a_sweep_that_miscounts_is_refused(self, eps):
        # next to eps = 1/2 the flat gradient let dozens of starts pass as
        # equilibria; past eps = 11.18 the G-axis centers lie beyond the
        # 0.999 Lambda filter, and two of the four used to be returned
        with pytest.raises(ValueError, match="eps=%r: found" % eps):
            find_equilibria(eps, 1.0)


class TestMarchingSquares:
    def test_circle_contour(self):
        xg = np.linspace(-2, 2, 101)
        yg = np.linspace(-2, 2, 101)
        Z = xg[:, None] ** 2 + yg[None, :] ** 2
        lines = chain_segments(marching_squares(xg, yg, Z, 1.0))
        assert len(lines) == 1
        line = lines[0]
        assert is_closed(line)
        radii = [np.hypot(x, y) for x, y in line]
        assert max(abs(r - 1.0) for r in radii) < 2e-3

    def test_two_components(self):
        xg = np.linspace(-3, 3, 121)
        yg = np.linspace(-2, 2, 81)
        Z = (np.abs(xg[:, None]) - 1.5) ** 2 + yg[None, :] ** 2
        lines = chain_segments(marching_squares(xg, yg, Z, 0.25))
        assert len(lines) == 2


class TestPortrait:
    def test_librational_contours_closed_below_half(self):
        lines = phase_portrait(0.3, 1.0, grid=(129, 129), levels=10)
        near_origin = [
            ln
            for _, ln in lines
            if all(abs(g) < 2.0 and abs(G) < 0.9 for g, G in ln) and len(ln) > 8
        ]
        assert near_origin
        assert all(is_closed(ln) for ln in near_origin)

    def test_contours_track_their_level(self):
        from perilib.potentials import e_hat

        for eps in (1e-6, 0.3):
            lines = phase_portrait(eps, 1.0, grid=(129, 129), levels=8)
            worst = 0.0
            for lv, ln in lines:
                for g, G in ln:
                    if abs(G) > 0.95:
                        continue  # sqrt edge at |G| = Lambda: infinite slope
                    worst = max(worst, abs(e_hat(eps, 1.0, G, g) - lv))
            # linear edge interpolation on a 129^2 grid
            assert worst < 5e-3

    def test_tiny_eps_contours_mirror_symmetric(self):
        # evenness in g: mirrored points lie on the same level set
        from perilib.potentials import e_hat

        lines = phase_portrait(1e-6, 1.0, grid=(129, 129), levels=8)
        for lv, ln in lines[:6]:
            for g, G in ln[:: max(1, len(ln) // 7)]:
                assert abs(e_hat(1e-6, 1.0, G, -g) - lv) < 5e-3

    def test_separatrix_level_present_above_half(self):
        lines = phase_portrait(0.7, 1.0, grid=(129, 129), levels=6)
        levels = {round(lv, 12) for lv, _ in lines}
        assert round(1.0, 12) in levels  # e_hat(0,0) = 1

    def test_rotation_only_above_one(self):
        assert has_rotational_orbits(1.5)
        assert not has_rotational_orbits(0.3)
        assert not has_rotational_orbits(0.7)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            phase_portrait(0.3, 1.0, grid=(32, 128))

    @pytest.mark.parametrize("eps, Lambda", BAD_EPS_LAMBDA, ids=BAD_EPS_LAMBDA_IDS)
    def test_rejects_bad_eps_or_lambda(self, eps, Lambda):
        with pytest.raises(ValueError):
            phase_portrait(eps, Lambda)


def test_spans_full_angle():
    line = [(-np.pi, 0.1), (0.0, 0.2), (np.pi, 0.1)]
    assert spans_full_angle(line)
    assert not spans_full_angle([(-1.0, 0.1), (1.0, 0.2)])


# ---------------- scalar references for the vectorized code ----------------

_REF_EDGES = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)],
    11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
}
_REF_AMBIG = {
    5: (((0, 1), (2, 3)), ((3, 0), (1, 2))),
    10: (((3, 0), (1, 2)), ((0, 1), (2, 3))),
}


def _ref_edge_key_point(edge, i, j, xg, yg, Z, level):
    if edge == 0:
        a, b = Z[i, j], Z[i, j + 1]
        w = (level - a) / (b - a)
        return ("v", i, j), (xg[i], yg[j] + w * (yg[j + 1] - yg[j]))
    if edge == 2:
        a, b = Z[i + 1, j], Z[i + 1, j + 1]
        w = (level - a) / (b - a)
        return ("v", i + 1, j), (xg[i + 1], yg[j] + w * (yg[j + 1] - yg[j]))
    if edge == 3:
        a, b = Z[i, j], Z[i + 1, j]
        w = (level - a) / (b - a)
        return ("h", i, j), (xg[i] + w * (xg[i + 1] - xg[i]), yg[j])
    a, b = Z[i, j + 1], Z[i + 1, j + 1]
    w = (level - a) / (b - a)
    return ("h", i, j + 1), (xg[i] + w * (xg[i + 1] - xg[i]), yg[j + 1])


def ref_marching_squares(xg, yg, Z, level):
    """Per-cell marching squares, one Python iteration per cell."""
    segs = []
    scale = max(abs(level), float(np.ptp(Z)), 1.0)
    Z = np.where(Z == level, level + 1e-13 * scale, Z)
    above = Z >= level
    for i in range(len(xg) - 1):
        for j in range(len(yg) - 1):
            case = (
                1 * above[i, j]
                + 2 * above[i, j + 1]
                + 4 * above[i + 1, j + 1]
                + 8 * above[i + 1, j]
            )
            if case in (0, 15):
                continue
            if case in _REF_AMBIG:
                center = 0.25 * (
                    Z[i, j] + Z[i, j + 1] + Z[i + 1, j] + Z[i + 1, j + 1]
                )
                edges = _REF_AMBIG[case][0 if center >= level else 1]
            else:
                edges = _REF_EDGES[case]
            for ea, eb in edges:
                segs.append(
                    (
                        _ref_edge_key_point(ea, i, j, xg, yg, Z, level),
                        _ref_edge_key_point(eb, i, j, xg, yg, Z, level),
                    )
                )
    return segs


def ref_chain_segments(segs):
    """Chaining by a dict of keys and deques, one Python step per end."""
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


def ref_phase_portrait(eps, Lambda, grid, levels):
    """phase_portrait's levels, contoured by the cell loop and chained by
    the deque reference."""
    gg = np.linspace(-np.pi, np.pi, grid[0])
    GG = np.linspace(-Lambda, Lambda, grid[1])
    Z = e_hat(eps, Lambda, GG[None, :], gg[:, None])
    lo, hi = Z.min(), Z.max()
    vals = list(np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), levels))
    if eps > 0.5:
        sep = e_hat(eps, Lambda, 0.0, 0.0)
        if lo < sep < hi:
            vals.append(float(sep))
    return [(float(lv), line) for lv in sorted(vals)
            for line in ref_chain_segments(ref_marching_squares(gg, GG, Z, lv))]


def _ref_grad(eps, Lambda, G, g):
    u = G / Lambda
    root = np.sqrt(max(1e-14, 1.0 - u * u))
    dG = -u * np.cos(g) / (Lambda * root) + 2 * eps * u / Lambda
    dg = -root * np.sin(g)
    return np.array([dG, dg])


def _ref_hess(eps, Lambda, G, g):
    u = G / Lambda
    om = max(1e-14, 1.0 - u * u)
    root = np.sqrt(om)
    dGG = (-np.cos(g) / root - u * u * np.cos(g) / om**1.5 + 2 * eps) / Lambda**2
    dGg = u * np.sin(g) / (Lambda * root)
    dgg = -root * np.cos(g)
    return np.array([[dGG, dGg], [dGg, dgg]])


def ref_find_equilibria(eps, Lambda=1.0, grid_n=48):
    """One scalar Newton run per start, deduplicated in (g0, G0) order: the
    grid's starts, then the two next to the edges."""
    found = []
    Gmax = Lambda * (1 - 1e-9)
    starts = [(g0, G0) for g0 in np.linspace(-np.pi, np.pi, grid_n, endpoint=False)
              for G0 in np.linspace(-0.98 * Lambda, 0.98 * Lambda, grid_n)]
    starts += [(0.0, Lambda * (1 - 1e-4)), (0.0, -Lambda * (1 - 1e-4))]
    for g0, G0 in starts:
        z = np.array([G0, g0])
        ok = False
        for _ in range(60):
            grad = _ref_grad(eps, Lambda, z[0], z[1])
            if np.linalg.norm(grad * [Lambda, 1.0]) < 1e-12:
                ok = True
                break
            H = _ref_hess(eps, Lambda, z[0], z[1])
            try:
                step = np.linalg.solve(H, grad)
            except np.linalg.LinAlgError:
                break
            if np.linalg.norm(step) > 0.5 * Lambda:
                step *= 0.5 * Lambda / np.linalg.norm(step)
            z = z - step
            if abs(z[0]) > Gmax:
                break
            z[1] = np.angle(np.exp(1j * z[1]))
        if not ok:
            continue
        G, g = float(z[0]), float(np.angle(np.exp(1j * z[1])))
        if abs(G) > 0.999 * Lambda:
            continue
        if any(
            abs(G - loc[1]) < 1e-6 * Lambda
            and abs(np.angle(np.exp(1j * (g - loc[0])))) < 1e-6
            for loc, _, _ in found
        ):
            continue
        det = float(np.linalg.det(_ref_hess(eps, Lambda, G, g)))
        lam = np.sqrt(abs(det))
        kind = "center" if det > 0 else "saddle"
        eig = (0.0, lam) if det > 0 else (lam, 0.0)
        if abs(G) < 1e-9 * Lambda:
            G = 0.0
        if abs(g) < 1e-9:
            g = 0.0
        if abs(abs(g) - np.pi) < 1e-9:
            g = np.pi
        found.append(((g, G), kind, eig))
    found.sort(key=lambda e: (round(e[0][0], 9), round(e[0][1], 9)))
    return found


def _bits(segs):
    """Segments with every coordinate as its exact hex form (keeps -0.0)."""
    return [
        tuple((key, float(p[0]).hex(), float(p[1]).hex()) for key, p in seg)
        for seg in segs
    ]


@st.composite
def contour_fields(draw):
    """Grid, field and level with nodes exactly on the level and one forced
    saddle cell for each of case 5 and case 10 on each side of the
    cell-center test."""
    nx = draw(st.integers(8, 14))
    ny = draw(st.integers(3, 12))
    steps = st.floats(0.01, 2.0)
    xs = draw(st.lists(steps, min_size=nx, max_size=nx))
    ys = draw(st.lists(steps, min_size=ny, max_size=ny))
    xg = draw(st.floats(-5, 5)) + np.cumsum(xs)
    yg = draw(st.floats(-5, 5)) + np.cumsum(ys)
    level = draw(st.floats(-10, 10))
    h = draw(st.floats(1e-3, 10))
    k = draw(hnp.arrays(np.int8, (nx, ny), elements=st.integers(-3, 3)))
    Z = level + h * k.astype(float)  # k == 0: exactly on the level
    for cell, (case, center_above) in enumerate(
        [(5, True), (5, False), (10, True), (10, False)]
    ):
        i, j = 2 * cell, draw(st.integers(0, ny - 2))
        m = h * draw(st.floats(0.1, 5))
        if center_above:  # the center value is level + m / 2
            hi, lo = level + 2 * m, level - m
        else:
            hi, lo = level + m, level - 2 * m
        diag, anti = (hi, lo) if case == 5 else (lo, hi)
        Z[i, j] = Z[i + 1, j + 1] = diag
        Z[i, j + 1] = Z[i + 1, j] = anti
    return xg, yg, Z, level


@st.composite
def contour_levels(draw):
    """contour_fields' grid and field with an ascending list of levels: its
    level, node values, levels inside and outside the field's range, and
    repeats of these."""
    xg, yg, Z, level = draw(contour_fields())
    lo, hi = float(Z.min()), float(Z.max())
    some = st.one_of(
        st.sampled_from(Z.ravel().tolist()),
        st.floats(lo, hi),
        st.floats(lo - 10, lo, exclude_max=True),
        st.floats(hi, hi + 10, exclude_min=True),
    )
    levels = [level] + draw(st.lists(some, max_size=8))
    levels += draw(st.lists(st.sampled_from(levels), max_size=3))
    return xg, yg, Z, sorted(levels)


def _keyed_segments(edge, x, y, ny):
    """Segment ends (edge, x, y) as the keyed segments of the reference."""
    ends = []
    for e, px, py in zip(edge.tolist(), x.tolist(), y.tolist()):
        node, vert = divmod(e, 2)
        ends.append((("v" if vert else "h", *divmod(node, ny)), (px, py)))
    return list(zip(ends[0::2], ends[1::2]))


class TestVectorizedAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(contour_fields())
    def test_marching_squares_matches_cell_loop(self, field):
        xg, yg, Z, level = field
        assert _bits(marching_squares(xg, yg, Z, level)) == _bits(
            ref_marching_squares(xg, yg, Z, level)
        )

    @settings(max_examples=200, deadline=None)
    @given(contour_levels())
    def test_every_level_matches_reference(self, field):
        xg, yg, Z, levels = field
        lev, edge, x, y = _level_crossings(xg, yg, Z, levels)
        assert (np.diff(lev) >= 0).all()  # grouped by level
        for at, level in enumerate(levels):
            one = lev == at
            ref = ref_marching_squares(xg, yg, Z, level)
            assert _bits(_keyed_segments(edge[one], x[one], y[one], len(yg))) == _bits(ref)
            assert _line_bits(_chain(edge[one], x[one], y[one])) == _line_bits(
                ref_chain_segments(ref)
            )

    def test_nan_node_is_above_no_level(self):
        # as in the reference, where NaN >= level is false: at level 4 the
        # corner cell is case 11, whose two crossings on the NaN node's
        # edges interpolate to NaN
        xg = yg = np.linspace(-2.0, 2.0, 9)
        Z = xg[:, None] ** 2 + yg[None, :] ** 2
        Z[8, 8] = np.nan
        levels = [1.5, 4.0, 7.5]
        lev, edge, x, y = _level_crossings(xg, yg, Z, levels)
        for at, level in enumerate(levels):
            one = lev == at
            ref = ref_marching_squares(xg, yg, Z, level)
            assert _bits(_keyed_segments(edge[one], x[one], y[one], len(yg))) == _bits(ref)
        assert np.isnan(x[lev == 1]).any()

    def test_forced_saddles_take_both_branches(self):
        xg = np.array([-1.0, -0.0, 1.0])  # the sign of zero must survive
        yg = np.arange(2.0)
        # cell (0, 0) is case 5 with its center above the level, cell (1, 0)
        # case 10 with its center below
        Z = np.array([[2.0, -1.0], [-1.0, 2.0], [1.0, -3.0]])
        segs = marching_squares(xg, yg, Z, 0.0)
        assert [(a[0], b[0]) for a, b in segs] == [
            (("v", 0, 0), ("h", 0, 1)),
            (("v", 1, 0), ("h", 0, 0)),
            (("v", 1, 0), ("h", 1, 1)),
            (("v", 2, 0), ("h", 1, 0)),
        ]
        assert _bits(segs) == _bits(ref_marching_squares(xg, yg, Z, 0.0))

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        regime=st.sampled_from([(0.02, 0.48), (0.52, 0.98), (1.02, 2.5)]),
        frac=st.floats(0.0, 1.0),
        grid_n=st.sampled_from([15, 16, 23, 24]),
    )
    def test_find_equilibria_matches_scalar_newton(self, regime, frac, grid_n):
        eps = regime[0] + frac * (regime[1] - regime[0])
        got = find_equilibria(eps, 1.0, grid_n=grid_n)
        want = ref_find_equilibria(eps, 1.0, grid_n=grid_n)
        assert [e.kind for e in got] == [kind for _, kind, _ in want]
        for e, (loc, _, (re, im)) in zip(got, want):
            assert np.allclose(e.location, loc, rtol=0, atol=1e-12)
            assert abs(e.eigenvalues[0] - complex(re, im)) < 1e-12
            assert abs(e.eigenvalues[1] + complex(re, im)) < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_hessian_drops_only_that_start(self, monkeypatch):
        G0 = np.array([0.3, 0.1, -0.3])
        g0 = np.array([0.2, 2.0, -0.2])
        free_ok, free_G, free_g = portraits._newton_sweep(0.3, 1.0, G0, g0)
        assert free_ok.all()
        hess = portraits._hess_e

        def singular_at_second_start(eps, Lambda, G, g):
            hGG, hGg, hgg = hess(eps, Lambda, G, g)
            at = (G == G0[1]) & (g == g0[1])
            return np.where(at, 0.0, hGG), np.where(at, 0.0, hGg), hgg

        monkeypatch.setattr(portraits, "_hess_e", singular_at_second_start)
        ok, G, g = portraits._newton_sweep(0.3, 1.0, G0, g0)
        assert ok.tolist() == [True, False, True]
        assert G[ok].tolist() == free_G[ok].tolist()
        assert g[ok].tolist() == free_g[ok].tolist()


def _line_bits(lines):
    """Polylines with every coordinate as its exact hex form."""
    return [[(float(x).hex(), float(y).hex()) for x, y in line] for line in lines]


def _three_routes(xg, yg, Z, level):
    """Polylines by the array core, by the public keyed functions and by
    the cell-loop and deque references, as exact hex forms."""
    return (
        _line_bits(_chain(*_level_crossings(xg, yg, Z, [level])[1:])),
        _line_bits(chain_segments(marching_squares(xg, yg, Z, level))),
        _line_bits(ref_chain_segments(ref_marching_squares(xg, yg, Z, level))),
    )


class TestChainAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(contour_fields())
    def test_three_routes_agree(self, field):
        core, public, ref = _three_routes(*field)
        assert core == public == ref

    def test_closed_loop(self):
        xg = yg = np.linspace(-2.0, 2.0, 9)
        Z = xg[:, None] ** 2 + yg[None, :] ** 2
        core, public, ref = _three_routes(xg, yg, Z, 1.5)
        assert core == public == ref
        assert len(core) == 1 and len(core[0]) > 4
        assert core[0][0] == core[0][-1]
        (line,) = _chain(*_level_crossings(xg, yg, Z, [1.5])[1:])
        assert line[-1] is line[0]

    def test_line_touching_the_boundary(self):
        xg = np.linspace(0.0, 1.0, 7)
        yg = np.linspace(-1.0, 2.0, 5)
        Z = xg[:, None] + 0.1 * yg[None, :] ** 2
        core, public, ref = _three_routes(xg, yg, Z, 0.45)
        assert core == public == ref
        assert len(core) == 1
        ((x0, y0), (x1, y1)) = (core[0][0], core[0][-1])
        assert {float.fromhex(y0), float.fromhex(y1)} == {-1.0, 2.0}

    def test_empty_level(self):
        xg = yg = np.linspace(-1.0, 1.0, 6)
        Z = xg[:, None] * yg[None, :]
        lev, edge, x, y = _level_crossings(xg, yg, Z, [3.0])
        assert lev.size == edge.size == x.size == y.size == 0
        assert _three_routes(xg, yg, Z, 3.0) == ([], [], [])

    def test_key_on_three_ends_rejected(self):
        p = (0.0, 0.0)
        segs = [((("v", 0, 0), p), (("h", j, 0), p)) for j in range(3)]
        with pytest.raises(ValueError):
            chain_segments(segs)

    @pytest.mark.parametrize("eps", [0.3, 0.7, 1.5])
    @pytest.mark.parametrize("grid", [(64, 64), (65, 65)])
    def test_phase_portrait_matches_reference(self, eps, grid):
        got = phase_portrait(eps, 1.0, grid=grid, levels=5)
        want = ref_phase_portrait(eps, 1.0, grid, 5)
        assert [lv.hex() for lv, _ in got] == [lv.hex() for lv, _ in want]
        assert _line_bits(ln for _, ln in got) == _line_bits(ln for _, ln in want)
        if eps > 0.5:
            assert e_hat(eps, 1.0, 0.0, 0.0) in {lv for lv, _ in got}
