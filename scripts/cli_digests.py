"""SHA-256 digests of every CLI experiment's output on small configs.

    PYTHONPATH=src python3 scripts/cli_digests.py [OUT.json] [--check BASELINE.json]

Runs all ten experiments through `harness.run_experiment` on a few small
configs each (flux-decay, excess, hydro/q and linearize/k at 1, 2 and 3
threads, flux-decay/tiles at 1 and 2, linearize/k6 at 2, every other config
without a thread count) and
prints, per config, the digest of the CSV and of the `results` block of
summary.json.  Two source trees give byte-identical outputs exactly when
their digests agree; with OUT.json the digests are also written there.
With --check the digests are compared with a file written by an earlier
run: every config whose CSV or `results` digest differs (or is missing on
one side) is named, and the exit code is 1.
`scripts/cli_digests_baseline.json` holds the digests under Python 3.11.7,
numpy 2.4.6 and scipy 1.17.1; other numpy or scipy versions may round
differently and give other digests.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

from gradphi import harness

Q = {"kind": "quadratic"}
SQ = {"kind": "soft_quartic", "a": 0.5}
K = {"kind": "kinked", "b": 0.5}
CASES = [
    ("corrector", "q", {"potential": Q, "sizes": [2, 3, 4], "replicas": 10, "seed": 3}),
    ("corrector", "sq", {"potential": SQ, "sizes": [2, 3, 4], "replicas": 6, "seed": 4}),
    ("flux-decay", "t1", {"potential": SQ, "L": 8, "windows": [2, 3, 4], "replicas": 12, "horizon": 4, "seed": 5}, 1),
    ("flux-decay", "t2", {"potential": SQ, "L": 8, "windows": [2, 3, 4], "replicas": 12, "horizon": 4, "seed": 5}, 2),
    ("flux-decay", "t3", {"potential": SQ, "L": 8, "windows": [2, 3, 4], "replicas": 12, "horizon": 4, "seed": 5}, 3),
    # 130 replicas of 33^2 sites span two tiles of at most noise.BUDGET sites
    ("flux-decay", "tiles-t1", {"potential": SQ, "L": 16, "windows": [2, 4, 8], "replicas": 130, "horizon": 2,
                                "seed": 23}, 1),
    ("flux-decay", "tiles-t2", {"potential": SQ, "L": 16, "windows": [2, 4, 8], "replicas": 130, "horizon": 2,
                                "seed": 23}, 2),
    ("surface-tension", "q", {"potential": Q, "L": 4, "replicas": 4, "seed": 6,
                              "slopes": [[0.1, 0.0], [{"t": -40, "q": [0.2, 0.0]}, {"t": -4, "q": [0.1, 0.0]}]]}),
    ("surface-tension", "sq", {"potential": SQ, "L": 4, "replicas": 3, "seed": 6, "slopes": [[0.3, 0.1]]}),
    ("hessian", "sq", {"potential": SQ, "L": 4, "replicas": 3, "slope": [0.2, 0.0], "seed": 7}),
    ("hessian", "q", {"potential": Q, "L": 3, "replicas": 3, "seed": 7}),
    ("linearize", "k", {"potential": K, "L": 4, "base_slope": [0.3, 0.0], "replicas": 4, "seed": 8}, 2),
    ("linearize", "k-t1", {"potential": K, "L": 4, "base_slope": [0.3, 0.0], "replicas": 4, "seed": 8}, 1),
    ("linearize", "k-t3", {"potential": K, "L": 4, "base_slope": [0.3, 0.0], "replicas": 4, "seed": 8}, 3),
    ("linearize", "k3", {"potential": K, "d": 3, "L": 2, "base_slope": [0.3, 0.0, -0.1], "replicas": 3, "seed": 19}),
    ("linearize", "k6", {"potential": K, "L": 6, "base_slope": [0.3, 0.0], "replicas": 2, "seed": 22}, 2),
    ("hydro", "q", {"potential": Q, "epsilons": [0.25, 0.125, 0.0625], "replicas": 3, "f": {"name": "sine_product"},
                    "gradient_diagnostic": {"epsilons": [0.25, 0.125], "replicas": 2}, "seed": 9}, 2),
    ("hydro", "q-t1", {"potential": Q, "epsilons": [0.25, 0.125, 0.0625], "replicas": 3, "f": {"name": "sine_product"},
                       "gradient_diagnostic": {"epsilons": [0.25, 0.125], "replicas": 2}, "seed": 9}, 1),
    ("hydro", "q-t3", {"potential": Q, "epsilons": [0.25, 0.125, 0.0625], "replicas": 3, "f": {"name": "sine_product"},
                       "gradient_diagnostic": {"epsilons": [0.25, 0.125], "replicas": 2}, "seed": 9}, 3),
    ("hydro", "zero", {"potential": Q, "epsilons": [0.25, 0.125], "replicas": 2, "f": {"name": "affine"},
                       "zero_noise": True, "seed": 9}),
    ("hydro", "zero-datum", {"potential": Q, "epsilons": [0.25, 0.125], "replicas": 2, "f": {"name": "zero"},
                             "seed": 16}),
    ("hydro", "affine", {"potential": Q, "epsilons": [0.25, 0.125], "replicas": 2,
                         "f": {"name": "affine", "coefficients": [0.5, 0.25]},
                         "gradient_diagnostic": {"epsilons": [0.25], "replicas": 1}, "seed": 17}),
    ("hydro", "table", {"potential": SQ, "epsilons": [0.25, 0.125, 0.0625], "replicas": 2, "f": {"name": "sine_product"},
                        "effective_table": {"knots": [0.0, 0.5, 1.0, 1.5], "values": [0.0, 0.6, 1.3, 2.2]},
                        "gradient_diagnostic": {"epsilons": [0.25], "replicas": 1}, "seed": 10}),
    ("hydro", "d3", {"potential": Q, "d": 3, "epsilons": [0.5, 0.25], "replicas": 2, "f": {"name": "sine_product"},
                     "gradient_diagnostic": {"epsilons": [0.25], "replicas": 1}, "seed": 20}),
    ("hydro", "table3", {"potential": SQ, "d": 3, "epsilons": [0.5, 0.25], "replicas": 2,
                         "f": {"name": "affine", "coefficients": [0.5, 0.25, -0.5]},
                         "effective_table": {"knots": [0.0, 0.5, 1.0], "values": [0.0, 0.6, 1.3]}, "seed": 21}),
    ("occupation", "b", {"thresholds": [0.05, 0.1, 0.2], "replicas": 50, "dt": 0.01, "seed": 11}),
    ("occupation", "e", {"process": "edge_gradient", "L": 3, "potential": SQ, "thresholds": [0.05, 0.1, 0.2],
                         "replicas": 6, "seed": 12}),
    ("excess", "t1", {"L": 8, "scales": [4, 8], "replicas": 3, "seed": 13}, 1),
    ("excess", "t2", {"L": 8, "scales": [4, 8], "replicas": 3, "seed": 13}, 2),
    ("excess", "t3", {"L": 8, "scales": [4, 8], "replicas": 3, "seed": 13}, 3),
    ("heatkernel", "a", {"L": 4, "environments": 2, "contrast": 2.0, "seed": 14}),
    ("heatkernel", "d3", {"d": 3, "L": 2, "environments": 1, "contrast": 2.0, "seed": 18}),
    ("gff", "a", {"L": 3, "replicas": 50, "seed": 15}),
]


def sha(b):
    return hashlib.sha256(b).hexdigest()


def main(out_path=None, baseline_path=None):
    res = {}
    for case in CASES:
        name, tag, cfg = case[:3]
        threads = case[3] if len(case) > 3 else None
        with tempfile.TemporaryDirectory() as d:
            harness.run_experiment(name, dict(cfg), d, threads=threads)
            csvs = [f for f in os.listdir(d) if f.endswith(".csv")]
            with open(os.path.join(d, csvs[0]), "rb") as fh:
                csv_d = sha(fh.read())
            with open(os.path.join(d, "summary.json")) as fh:
                summ = json.load(fh)
            res_d = sha(json.dumps(summ["results"], sort_keys=True).encode())
        res[f"{name}/{tag}"] = {"csv": csv_d, "results": res_d}
        print(f"{name}/{tag}", csv_d, res_d, flush=True)
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(res, fh, indent=1, sort_keys=True)
    if baseline_path:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        differ = [key for key in sorted(set(res) | set(baseline))
                  if res.get(key) != baseline.get(key)]
        for key in differ:
            print(f"DIFFERS: {key}", file=sys.stderr)
        print(f"{len(res) - len(differ)} of {len(res)} configs equal to {baseline_path}")
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="write the digests to this JSON file")
    parser.add_argument("--check", metavar="BASELINE.json",
                        help="compare with digests written by an earlier run")
    args = parser.parse_args()
    sys.exit(main(args.out, args.check))
