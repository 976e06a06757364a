"""The averaged potential is a function of the simpler quadratic integral.

u_hat(eps, .) averages the reciprocal distance between the outer body and a
body sweeping a Keplerian ellipse; e_hat is an explicit quadratic in the
same variables.  Numerically their level sets coincide: u_hat = F(e_hat)
with a single renormalizing profile F = f_eps, which even has a closed form
at the squeezed-orbit value t = 1.  This script measures the identity, the
Poisson commutation it implies, and the blow-up locus of the profile.
"""

import numpy as np

from perilib import (
    QuadratureSpec,
    check_renorm_commutation,
    check_renorm_identity,
    f_eps,
    f_eps_at_one,
    singularity_t,
)
from perilib.potentials import SingularLocusError

quad = QuadratureSpec(256)
rng = np.random.default_rng(2024)

print("identity  max |u_hat - f_eps(e_hat)| over 100 random (G, g):")
for eps in (0.1, -0.1, 0.25, -0.25, 0.4, -0.4):
    worst, rejected = check_renorm_identity(eps, 1.0, 100, quad, rng=rng)
    print(f"  eps={eps:+.2f}: {worst:.3e}   (rejected samples: {rejected})")

print("\nclosed form at t = 1:")
for eps in (0.1, 0.2, 0.3, 0.4):
    q = f_eps(eps, 1.0, quad)
    c = f_eps_at_one(eps)
    print(f"  eps={eps}: quadrature {q:.12f}  closed {c:.12f}  diff {q - c:.1e}")

print("\ncommutation |{u_hat, e_hat}| by finite differences (50 points):")
print(f"  max = {check_renorm_commutation(0.3, 1.0, 50, quad, rng):.3e}")

print("\napproaching the holomorphy-loss locus t* = eps + 1/(4 eps):")
t_star = singularity_t(0.25)
for k in range(2, 7):
    t = t_star * (1 - 10.0**-k)
    try:
        # f_eps's own rule: a pinned one would drift off the true value here
        print(f"  t = t*(1 - 1e-{k}): f_eps = {f_eps(0.25, t):9.4f}")
    except SingularLocusError as exc:
        print(f"  t = t*(1 - 1e-{k}): refused: {exc}")
print(f"  (t* = {t_star})")
