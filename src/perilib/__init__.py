"""perilib: numerics for perihelion librations in the planar secular
three-body problem.

Subpackages by topic: kepler (the two Kepler equations and the domain
constant), coords (charts and mass parameters), potentials (averaged
potentials and the renormalizing profile), hamiltonians (the two reduced
energies and gradients), dynamics/portraits/theorem (flows, equilibria,
hypothesis checking, libration runs), normalform (the small-divisor-free
normal form on truncated Fourier series), cli (the perilib command).
"""

from .coords import (
    ActionAngleState,
    MassParams,
    SecularState,
    derive_mass_params,
    gg_forward,
    rr_forward,
)
from .dynamics import StepControl, Trajectory, integrate
from .hamiltonians import HamiltonianSpec, gradient, h_action_angle, h_secular, v_radial
from .kepler import (
    KeplerSolution,
    estimate_c0,
    solve_kepler,
    solve_kepler_zero_ecc_form,
)
from .normalform import (
    FrequencyData,
    TFSeries,
    build_secular_perturbation,
    lie_transform,
    normal_form_steps,
    nqp_primitive,
    poisson_bracket,
    tf_average_split,
    tf_build,
    tf_norm,
)
from .portraits import EquilibriumReport, find_equilibria, phase_portrait
from .potentials import (
    QuadratureSpec,
    check_renorm_commutation,
    check_renorm_identity,
    e_hat,
    e_hat_aa,
    f_eps,
    f_eps_at_one,
    singularity_t,
    u_hat,
)
from .theorem import TheoremReport, check_libration_theorem, run_libration_experiment

__version__ = "0.1.0"
