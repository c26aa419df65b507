"""The Gaussian backbone: spectral sampler and exact mode formulas.

The quadratic potential makes the dynamics an independent family of
Ornstein-Uhlenbeck modes, which supplies exact oracles for everything
else: stationary covariances, relaxation variances, and heat kernels.
"""

import numpy as np

from gradphi import spectral
from gradphi.dynamics import run_gff_dynamic, sample_gff, stable_dt
from gradphi.lattice import make_torus
from gradphi.noise import NoiseSource
from gradphi.parabolic import heat_kernel
from gradphi.potential import quadratic

grid = make_torus(2, 4)
src = NoiseSource(seed=7)

# spectral synthesis of the free field vs the exact covariance
samples = sample_gff(grid, src, np.arange(4000))
emp = float((samples[:, 4, 4] * samples[:, 4, 5]).mean())
exact = spectral.gff_covariance(grid, (0, 1))
print(f"nearest-neighbor covariance: sampled {emp:+.4f} vs exact {exact:+.4f}")

# the explicit scheme started from the free field drifts away from it, to
# the mode sum of the scheme's own covariance recursion
final, _ = run_gff_dynamic(grid, horizon=8.0, src=src, replicas=np.arange(4000))
var_emp = final[:, 4, 4].var()
var_scheme = spectral.gff_dynamic_covariance(grid, (0, 0), 8.0, stable_dt(quadratic(), 2))
print(f"variance after half a relaxation window: {var_emp:.4f} "
      f"vs the scheme's exact {var_scheme:.4f} "
      f"(continuous free field {spectral.gff_variance(grid):.4f})")

# the explicit-scheme heat kernel agrees with its mode sum to roundoff
dt = stable_dt(quadratic(), 2)
tab = heat_kernel(1.0, grid, 0.0, (0, 0), 4.0, dt=dt)
exact_slab = spectral.heat_kernel_exact(grid, (0, 0), 4.0, dt)
print(f"kernel vs mode sum, sup distance: {np.abs(tab.at(4.0) - exact_slab).max():.2e}")
