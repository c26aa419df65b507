"""Corrected effective solution on the unit cube.

Solves the effective equation with pinned boundary data, attaches windowed
local tilts and per-cell correctors through a partition of unity, and
prints, for one replica at each mesh, the L2 gap in gradient between the
noisy dynamic and the corrected effective solution: the
`gradient_two_scale` error that `gradphi hydro` reports.
"""

import numpy as np

from gradphi.dynamics import run_dirichlet, stable_dt
from gradphi.harness import gradient_two_scale_error
from gradphi.lattice import DirichletDomain
from gradphi.noise import NoiseSource
from gradphi.parabolic import EffectiveGradient, solve_homogenized
from gradphi.potential import quadratic


def datum(pts):
    """exp(t) sin(pi x) sin(pi y), with the spatial factors bound once."""
    s0, s1 = np.sin(np.pi * pts[..., 0]), np.sin(np.pi * pts[..., 1])
    return lambda t: np.exp(t) * s0 * s1


V = quadratic()
for N in (8, 16):
    eps = 1.0 / N
    dom = DirichletDomain(2, N)
    kappa = round(np.sqrt(eps) / eps) * eps  # mesoscale commensurate with the mesh
    ubar = solve_homogenized(EffectiveGradient.identity(), dom, datum,
                             dt_unit=stable_dt(V, 2), record_stride=16)
    # one replica of the noisy dynamic, recorded at the slices of ubar
    n_steps = int(round(1.0 / (eps * eps) / stable_dt(V, 2)))
    src = NoiseSource(seed=42)
    traj = run_dirichlet(dom, datum, V, src, np.arange(1), None,
                         record=(n_steps // (ubar.nslices - 1), 1), threads=None)
    err = gradient_two_scale_error(traj[:, 0], ubar, kappa, V, src)
    print(f"mesh 1/{N}: mesoscale {kappa:.3f}, gradient two-scale error {err:.4f}")
