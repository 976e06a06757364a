"""Span tracing of perilib's public functions, installed from outside.

The tracer rebinds every module attribute of the ``perilib`` package that
refers to a traced function, so calls made through ``from .x import f``
copies are caught as well as calls through the defining module.  Each call
becomes one span (name, start, end, parent span, job id) kept in flat arrays
in memory; ``save`` writes them out once the run is over.  Self time is a
span's duration minus the durations of its child spans.

Count hooks read arguments and return values only, so the traced program
computes exactly what it computes untraced.
"""

import functools
import sys
import time
from array import array

import numpy as np


# ---------------- count hooks: (tracer, args, kwargs, result) ----------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _write_bytes(tr, args, kwargs, result):
    tr.count("cli.write.bytes", len(_arg(args, kwargs, 1, "text").encode()))


def _kepler_iterations(tr, args, kwargs, result):
    tr.count("kepler.solve_kepler_zero_ecc_form.iterations", result.iterations)


def _xi_prime_points(tr, args, kwargs, result):
    tr.count("kepler.xi_prime_array.points", np.size(result))


def _grid_points(tr, args, kwargs, result):
    tr.count("potentials.f_eps_minus_one_grid.points", np.size(result))


def _renorm_samples(tr, args, kwargs, result):
    tr.count("potentials.check_renorm_identity.samples",
             _arg(args, kwargs, 2, "sample_n"))
    tr.count("potentials.check_renorm_identity.rejected", result[1])


def _rhs_eval(tr, args, kwargs, result):
    # the flow right-hand side is the gradient called inside an integrate span
    if tr.is_open("dynamics.integrate"):
        tr.count("dynamics.rhs_evals", 1)


def _integrate_samples(tr, args, kwargs, result):
    tr.count("dynamics.samples", len(result.times))


def _marching_cells(tr, args, kwargs, result):
    xg, yg = args[0], args[1]
    tr.count("portraits.marching_squares.cells", (len(xg) - 1) * (len(yg) - 1))
    tr.count("portraits.marching_squares.segments", len(result))


def _tf_pairs(tr, args, kwargs, result):
    f, g = args[0], args[1]
    tr.count("normalform.tf_product.pairs", len(f.coeffs) * len(g.coeffs))


def _lie_orders(tr, args, kwargs, result):
    tr.count("normalform.lie_transform.orders", result[1].orders)


def _dct_bytes(tr, args, kwargs, result):
    # computed, not measured: bytes read plus bytes written by one transform
    tr.count("chebyshev.dct.bytes", np.asarray(args[0]).nbytes + result.nbytes)


# (module, function, reported name, count hook).  cli.main is traced too, so
# argument parsing and output formatting land in the cli layer rather than
# in the benchmark's own time.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "_atomic_write", "cli.write", _write_bytes),
    ("kepler", "solve_kepler_zero_ecc_form", None, _kepler_iterations),
    ("kepler", "xi_prime_array", None, _xi_prime_points),
    ("kepler", "xi_prime_real", None, None),
    ("kepler", "estimate_c0", None, None),
    ("coords", "rr_forward_with_jacobian", None, None),
    ("potentials", "f_eps", None, None),
    ("potentials", "f_eps_bundle", None, None),
    ("potentials", "f_eps_minus_one", None, None),
    ("potentials", "f_eps_minus_one_grid", None, _grid_points),
    ("potentials", "u_hat", None, None),
    ("potentials", "check_renorm_identity", None, _renorm_samples),
    ("hamiltonians", "gradient", None, _rhs_eval),
    ("hamiltonians", "h_secular", None, None),
    ("hamiltonians", "h_action_angle", None, None),
    ("dynamics", "integrate", None, _integrate_samples),
    ("portraits", "phase_portrait", None, None),
    ("portraits", "marching_squares", None, _marching_cells),
    ("portraits", "chain_segments", None, None),
    ("portraits", "find_equilibria", None, None),
    ("theorem", "check_libration_theorem", None, None),
    ("theorem", "run_libration_experiment", None, None),
    ("normalform", "build_secular_perturbation", None, None),
    ("normalform", "normal_form_steps", None, None),
    ("normalform", "poisson_bracket", None, None),
    ("normalform", "tf_product", None, _tf_pairs),
    ("normalform", "nqp_primitive", None, None),
    ("normalform", "homological_residual", None, None),
    ("normalform", "lie_transform", None, _lie_orders),
    ("normalform", "series_to_dict", None, None),
    ("chebyshev", "refine", None, None),
    ("chebyshev", "coarsen", None, None),
    ("chebyshev", "vals_to_coeffs", "chebyshev.dct", _dct_bytes),
    ("chebyshev", "coeffs_to_vals", "chebyshev.dct", _dct_bytes),
    ("chebyshev", "clenshaw", None, None),
    ("chebyshev", "clenshaw_curtis", None, None),
    ("chebyshev", "differentiate", None, None),
)

COUNT_NAMES = (
    "cli.write.bytes",
    "kepler.solve_kepler_zero_ecc_form.iterations",
    "kepler.xi_prime_array.points",
    "potentials.f_eps_minus_one_grid.points",
    "potentials.check_renorm_identity.samples",
    "potentials.check_renorm_identity.rejected",
    "dynamics.rhs_evals",
    "dynamics.samples",
    "portraits.marching_squares.cells",
    "portraits.marching_squares.segments",
    "normalform.tf_product.pairs",
    "normalform.lie_transform.orders",
    "chebyshev.dct.bytes",
)

MODULES = tuple(dict.fromkeys(module for module, _, _, _ in TARGETS))


def span_names():
    """Reported span names, in TARGETS order, without repeats."""
    return tuple(dict.fromkeys(
        reported or "%s.%s" % (module, fn) for module, fn, reported, _ in TARGETS
    ))


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        self.names = list(span_names())
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.job_id = -1
        self._stack = []
        self._open = [0] * len(self.names)
        self._restore = []

    # -------- recording --------

    def count(self, name, value):
        self.counts[name] += value

    def is_open(self, name):
        return self._open[self._ids[name]] > 0

    def wrap(self, name, fn, hook):
        nid = self._ids[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.job.append(self.job_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self._open[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._open[nid] -= 1
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -------- installation --------

    def install(self):
        """Rebind every name under which a traced function is reachable."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "perilib" or key.startswith("perilib."))]
        for module, fn_name, reported, hook in TARGETS:
            original = getattr(sys.modules["perilib." + module], fn_name)
            wrapper = self.wrap(reported or "%s.%s" % (module, fn_name), original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore = []

    # -------- results --------

    def __len__(self):
        return len(self.start)

    def self_times(self):
        """Total self time per span name (seconds), over every span kept."""
        dur = _col(self.end) - _col(self.start)
        parent = _col(self.parent)
        name_id = _col(self.name_id)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        totals = np.bincount(name_id, weights=own, minlength=len(self.names))
        calls = np.bincount(name_id, minlength=len(self.names))
        return {n: (float(totals[i]), int(calls[i])) for i, n in enumerate(self.names)}

    def root_time(self, lo=0, hi=None):
        """Summed duration of the top-level spans among spans lo..hi-1."""
        dur = _col(self.end)[lo:hi] - _col(self.start)[lo:hi]
        return float(np.sum(dur[_col(self.parent)[lo:hi] < 0]))

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=_col(self.name_id),
            start=_col(self.start),
            end=_col(self.end),
            parent=_col(self.parent),
            job=_col(self.job),
        )


def _col(arr):
    """A numpy copy of one span column (a view would pin the array's size)."""
    return np.array(arr, dtype=float if arr.typecode == "d" else np.int32)
