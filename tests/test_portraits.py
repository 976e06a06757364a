import re
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from perilib.potentials import e_hat
import perilib.portraits as portraits
from perilib.portraits import (
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
# G* = Lambda sqrt(1 - 1/(4 eps^2)) first rounds onto Lambda just above
# eps = 2^25 (at 1.0000005 2^25), where 1/(8 eps^2) = 2^-53, and past
# eps = 2^26 it always does
EPS_AXIS_EDGE = 2.0**25
# eps in (0, 1/2) and in (1/2, EPS_AXIS_EDGE], clear of the transition values,
# with the eps below 11.18 drawn apart as well
EPS_BELOW_HALF = st.floats(1e-6, 0.49)
EPS_ABOVE_HALF = st.one_of(st.floats(0.51, 11.18), st.floats(0.51, EPS_AXIS_EDGE)).filter(
    lambda eps: abs(eps - 1.0) >= 1e-9)


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
        # an oracle sharing no code with the formula: on g = 0, d e_hat/dG by
        # central differences of e_hat falls through zero across each G-axis
        # center, e_hat's maximum along G there.  Past eps ~ 1.5e7 the
        # center lies within 1e-15 Lambda of the edge, where rounding in
        # e_hat swamps the differences
        if 0.5 < eps <= 1e7:
            for e in (got[0], got[2]):  # (0, -G*) and (0, G*)
                Gc = e.location[1]
                h = 0.5 * min(abs(Gc), Lambda - abs(Gc))

                def slope(G):
                    return e_hat(eps, Lambda, G + h, 0.0) - e_hat(eps, Lambda, G - h, 0.0)

                assert slope(Gc - h) > 0 > slope(Gc + h)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(eps=st.one_of(EPS_BELOW_HALF, EPS_ABOVE_HALF))
    @example(eps=EPS_AXIS_EDGE)
    def test_matches_the_closed_form(self, eps):
        self.check_closed_form(eps, 1.0)

    @pytest.mark.parametrize("eps", [0.49999999, 0.50000001, 11.25, 50.0])
    def test_a_sweep_that_miscounts_is_refused(self, eps):
        # the Newton sweep this replaced miscounted here and refused these
        # eps with a ValueError: next to eps = 1/2 the flat gradient let
        # dozens of starts pass as equilibria, and past eps = 11.18 its
        # 0.999 Lambda filter dropped the G-axis centers.  The closed form
        # runs no sweep, so it must count and place all of them
        self.check_closed_form(eps, 1.0)
        assert len(find_equilibria(eps, 1.0)) == (2 if eps < 0.5 else 4)

    @pytest.mark.parametrize("Lambda", [0.01, 0.1, 1000.0])
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(eps=st.one_of(EPS_BELOW_HALF, EPS_ABOVE_HALF))
    def test_matches_the_closed_form_off_unit_lambda(self, Lambda, eps):
        self.check_closed_form(eps, Lambda)

    @pytest.mark.parametrize("eps, Lambda", [
        (2 * EPS_AXIS_EDGE, 1.0), (1e300, 1.0), (1.7e308, 1.0), (0.3, 1e-320),
    ], ids=["G-rounds-onto-Lambda", "eps-1e300", "eps-1.7e308", "eigenvalue-overflows"])
    def test_refuses_an_axis_center_on_the_edge_or_an_infinite_eigenvalue(self, eps, Lambda):
        # these used to reach the Newton sweep, which overflowed with a
        # RuntimeWarning or divided by zero
        with pytest.raises(ValueError, match=re.escape("eps=%r and Lambda=%r" % (eps, Lambda))):
            find_equilibria(eps, Lambda)


def _lines(xg, yg, Z, level):
    """The polylines of one level, by the two kernels."""
    return chain_segments(*marching_squares(xg, yg, Z, [level])[1:])


class TestMarchingSquares:
    def test_circle_contour(self):
        xg = np.linspace(-2, 2, 101)
        yg = np.linspace(-2, 2, 101)
        Z = xg[:, None] ** 2 + yg[None, :] ** 2
        lines = _lines(xg, yg, Z, 1.0)
        assert len(lines) == 1
        line = lines[0]
        assert is_closed(line)
        radii = [np.hypot(x, y) for x, y in line]
        assert max(abs(r - 1.0) for r in radii) < 2e-3

    def test_two_components(self):
        xg = np.linspace(-3, 3, 121)
        yg = np.linspace(-2, 2, 81)
        Z = (np.abs(xg[:, None]) - 1.5) ** 2 + yg[None, :] ** 2
        lines = _lines(xg, yg, Z, 0.25)
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

    def test_runs_its_named_kernels(self, monkeypatch):
        # one marching_squares call, the two grids its first positional
        # arguments, and one chain_segments call per level, both looked up
        # on the module: the names a tracer rebinds to count them
        calls = []
        for name in ("marching_squares", "chain_segments"):
            def spy(*args, _name=name, _real=getattr(portraits, name), **kwargs):
                calls.append((_name, args, kwargs))
                return _real(*args, **kwargs)

            monkeypatch.setattr(portraits, name, spy)
        lines = phase_portrait(0.7, 1.0, grid=(64, 65), levels=5)
        (name, args, kwargs), *rest = calls
        assert name == "marching_squares" and len(args) == 4 and not kwargs
        gg, GG, _, levels = args
        assert np.array_equal(gg, np.linspace(-np.pi, np.pi, 64))
        assert np.array_equal(GG, np.linspace(-1.0, 1.0, 65))
        assert len(levels) == 6  # the separatrix level too
        assert [name for name, _, _ in rest] == ["chain_segments"] * len(levels)
        assert sorted({lv for lv, _ in lines}) == [float(lv) for lv in levels]
        assert all(ln.dtype == np.float64 and ln.ndim == 2 and ln.shape[1] == 2
                   for _, ln in lines)

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
    """Equilibria by an independent algorithm: one scalar Newton run per
    start, deduplicated in (g0, G0) order, the grid's starts, then the two
    next to the edges.  Points are kept with |G| <= 0.999 Lambda."""
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


def _edge_id(key, ny):
    """marching_squares' edge id of the reference's key ('v' | 'h', i, j)."""
    kind, i, j = key
    return 2 * (i * ny + j) + (kind == "v")


def _ref_ends(segs, ny):
    """The reference's keyed segments as marching_squares' ends, hex forms:
    [(edge, x, y), ...], ends a and b of each segment adjacent."""
    return [(_edge_id(key, ny), float(p[0]).hex(), float(p[1]).hex())
            for seg in segs for key, p in seg]


def _end_bits(edge, x, y):
    """Segment ends (edge, x, y) with every coordinate as its exact hex
    form (keeps -0.0)."""
    return [(e, px.hex(), py.hex()) for e, px, py in zip(edge.tolist(), x.tolist(), y.tolist())]


class TestVectorizedAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(contour_fields())
    def test_marching_squares_matches_cell_loop(self, field):
        xg, yg, Z, level = field
        lev, edge, x, y = marching_squares(xg, yg, Z, [level])
        assert (lev == 0).all()
        assert _end_bits(edge, x, y) == _ref_ends(ref_marching_squares(xg, yg, Z, level), len(yg))

    @settings(max_examples=200, deadline=None)
    @given(contour_levels())
    def test_every_level_matches_reference(self, field):
        xg, yg, Z, levels = field
        lev, edge, x, y = marching_squares(xg, yg, Z, levels)
        assert (np.diff(lev) >= 0).all()  # grouped by level
        for at, level in enumerate(levels):
            one = lev == at
            ref = ref_marching_squares(xg, yg, Z, level)
            assert _end_bits(edge[one], x[one], y[one]) == _ref_ends(ref, len(yg))
            assert _line_bits(chain_segments(edge[one], x[one], y[one])) == _line_bits(
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
        lev, edge, x, y = marching_squares(xg, yg, Z, levels)
        for at, level in enumerate(levels):
            one = lev == at
            ref = ref_marching_squares(xg, yg, Z, level)
            assert _end_bits(edge[one], x[one], y[one]) == _ref_ends(ref, len(yg))
        assert np.isnan(x[lev == 1]).any()

    def test_forced_saddles_take_both_branches(self):
        xg = np.array([-1.0, -0.0, 1.0])  # the sign of zero must survive
        yg = np.arange(2.0)
        # cell (0, 0) is case 5 with its center above the level, cell (1, 0)
        # case 10 with its center below
        Z = np.array([[2.0, -1.0], [-1.0, 2.0], [1.0, -3.0]])
        _, edge, x, y = marching_squares(xg, yg, Z, [0.0])
        assert edge.tolist() == [_edge_id(key, 2) for key in [
            ("v", 0, 0), ("h", 0, 1),
            ("v", 1, 0), ("h", 0, 0),
            ("v", 1, 0), ("h", 1, 1),
            ("v", 2, 0), ("h", 1, 0),
        ]]
        assert _end_bits(edge, x, y) == _ref_ends(ref_marching_squares(xg, yg, Z, 0.0), 2)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        regime=st.sampled_from([(0.02, 0.48), (0.52, 0.98), (1.02, 2.5)]),
        frac=st.floats(0.0, 1.0),
        grid_n=st.sampled_from([15, 16, 23, 24]),
    )
    def test_find_equilibria_matches_scalar_newton(self, regime, frac, grid_n):
        # the scalar Newton stops once |grad e_hat| < 1e-12, so where the
        # Hessian is flat, next to eps = 1/2, its G-axis centers sit off the
        # closed form: measured up to 8.1e-12 in G and 1.4e-11 in the
        # eigenvalues over these regimes, both at eps ~ 0.52
        eps = regime[0] + frac * (regime[1] - regime[0])
        got = find_equilibria(eps, 1.0)
        want = ref_find_equilibria(eps, 1.0, grid_n=grid_n)
        assert [e.kind for e in got] == [kind for _, kind, _ in want]
        for e, (loc, _, pair) in zip(got, want):
            assert e.location[0] == loc[0]
            assert abs(e.location[1] - loc[1]) < 2e-11
            assert abs(e.eigenvalues[0] - complex(*pair)) < 3e-11
            assert abs(e.eigenvalues[1] + complex(*pair)) < 3e-11


def _line_bits(lines):
    """Polylines with every coordinate as its exact hex form."""
    return [[(float(x).hex(), float(y).hex()) for x, y in line] for line in lines]


def _two_routes(xg, yg, Z, level):
    """Polylines by the two kernels and by the cell-loop and deque
    references, as exact hex forms."""
    return (
        _line_bits(_lines(xg, yg, Z, level)),
        _line_bits(ref_chain_segments(ref_marching_squares(xg, yg, Z, level))),
    )


class TestChainAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(contour_fields())
    def test_two_routes_agree(self, field):
        core, ref = _two_routes(*field)
        assert core == ref

    def test_closed_loop(self):
        xg = yg = np.linspace(-2.0, 2.0, 9)
        Z = xg[:, None] ** 2 + yg[None, :] ** 2
        core, ref = _two_routes(xg, yg, Z, 1.5)
        assert core == ref
        assert len(core) == 1 and len(core[0]) > 4
        assert core[0][0] == core[0][-1]
        (line,) = _lines(xg, yg, Z, 1.5)
        assert line.dtype == np.float64 and line.shape == (len(core[0]), 2)
        assert line[-1].tobytes() == line[0].tobytes()

    def test_line_touching_the_boundary(self):
        xg = np.linspace(0.0, 1.0, 7)
        yg = np.linspace(-1.0, 2.0, 5)
        Z = xg[:, None] + 0.1 * yg[None, :] ** 2
        core, ref = _two_routes(xg, yg, Z, 0.45)
        assert core == ref
        assert len(core) == 1
        ((x0, y0), (x1, y1)) = (core[0][0], core[0][-1])
        assert {float.fromhex(y0), float.fromhex(y1)} == {-1.0, 2.0}

    def test_empty_level(self):
        xg = yg = np.linspace(-1.0, 1.0, 6)
        Z = xg[:, None] * yg[None, :]
        lev, edge, x, y = marching_squares(xg, yg, Z, [3.0])
        assert lev.size == edge.size == x.size == y.size == 0
        assert _two_routes(xg, yg, Z, 3.0) == ([], [])

    def test_key_on_three_ends_rejected(self):
        # end a of each of three segments on edge 1
        edge = np.array([1, 0, 1, 2, 1, 4])
        with pytest.raises(ValueError):
            chain_segments(edge, np.zeros(6), np.zeros(6))

    @pytest.mark.parametrize("eps", [0.3, 0.7, 1.5])
    @pytest.mark.parametrize("grid", [(64, 64), (65, 65)])
    def test_phase_portrait_matches_reference(self, eps, grid):
        got = phase_portrait(eps, 1.0, grid=grid, levels=5)
        want = ref_phase_portrait(eps, 1.0, grid, 5)
        assert [lv.hex() for lv, _ in got] == [lv.hex() for lv, _ in want]
        assert _line_bits(ln for _, ln in got) == _line_bits(ln for _, ln in want)
        if eps > 0.5:
            assert e_hat(eps, 1.0, 0.0, 0.0) in {lv for lv, _ in got}
