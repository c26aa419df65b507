"""The headline experiment: noisy microscopic dynamics vs effective PDE.

Runs the mesh-eps interface dynamic against the effective solver for a
sequence of meshes and fits the decay rate of the space-time L2 error
(after dividing out the planar logarithmic correction).
"""

from gradphi.harness import hydro_limit_experiment

cfg = {
    "potential": {"kind": "quadratic"},
    "d": 2,
    "epsilons": [0.25, 0.125, 0.0625],
    "replicas": 8,
    "f": {"name": "sine_product"},
}
res = hydro_limit_experiment(seed=5, threads=2, **cfg)
for eps, err in zip(res.summary["epsilons"], res.summary["mean_error"]):
    print(f"mesh {eps:.5f}: mean L2 error {err:.5f}")
print(f"fitted exponent (log-corrected): {res.summary['fitted_exponent']:.3f}")
print("criteria:", res.criteria)
