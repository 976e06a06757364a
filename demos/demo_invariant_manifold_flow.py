"""The squeezed-orbit manifolds G = 0, g in {0, pi} are invariant.

On them the reduced flow is purely radial, governed by R^2/2m0 + V(r) with
V increasing from -inf to 0 above a branch radius: the outer body has no
inner turning point, so every inward leg ends in a finite-time plunge (the
very reason quasi-periodic tools fail here).  The script integrates one
rise-and-fall leg and confirms that the pericenter variables never move.
"""

import numpy as np

from perilib import HamiltonianSpec, SecularState, derive_mass_params, integrate, v_radial
from perilib.dynamics import StepControl

spec = HamiltonianSpec(1, 1.0, 1.0, derive_mass_params(1.0, 1.0, "jacobi"))
print(f"radial potential branch radius: {spec.branch_radius:.4f}")
for r in (5.0, 20.0, 100.0, 1000.0):
    print(f"  V1({r:7.1f}) = {v_radial(spec, r):+.6f}   (Coulomb tail {-1/r:+.6f})")

state0 = SecularState(0.1, 0.0, 100.0, 0.0)
traj = integrate(spec, state0, 1000.0,
                 step_ctrl=StepControl(rtol=1e-12, atol=1e-12, method="DOP853"))
G_max = np.max(np.abs(traj.states[:, 1]))
g_max = np.max(np.abs(traj.states[:, 3]))
print(f"\n1000 time units from (R, G, r, g) = (0.1, 0, 100, 0):")
print(f"  max |G(t)| = {G_max:.2e},  max |g(t)| = {g_max:.2e}")
print(f"  r range: {traj.states[:, 2].min():.2f} .. {traj.states[:, 2].max():.2f}")
print(f"  relative energy drift: {traj.energy_drift:.2e}")
print(f"  events: {traj.events or 'none'}")
