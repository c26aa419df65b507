"""gradphi benchmark: CLI-experiment workloads timed end to end, with a traced
per-layer split.

    python3 bench/run.py --workload flux-quartic --seed 3 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, untraced
    python3 bench/run.py --self-check         # show the digest check can fail
    python3 bench/run.py --record-golden      # record digests for this numpy/scipy

Each run of a workload is a fresh process (bench/child.py) that imports
gradphi from ./src, loads a generated config and calls
`gradphi.harness.run_experiment`, the call behind `gradphi <exp> --config`.
Runs repeat until `--seconds` is used up (at least three untraced runs, or
one untraced/traced pair with `--trace 1`).  The first run of a workload
uses the config's own seed and its output must match the golden SHA-256s
in golden.json (of the CSV, and of the `results` block of summary.json, which
holds what the CSV leaves out, such as hydro's gradient diagnostic); the
other runs use `--seed` and must agree with each other.

`--trace 0` reports the end-to-end metrics (medians over runs): wall_s and
cpu_s of the run_experiment call, setup_s from process start to that call,
and peak_rss_mb.  `--trace 1` alternates untraced and traced runs and
reports the per-layer metrics of BENCHMARK.json plus the tracing overhead.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
DEFAULT_THREADS = 2
HARD_LIMIT_S = 150.0  # stop starting runs here; every invocation ends within 180 s
CHILD_TIMEOUT_S = 120.0

# BLAS/OpenMP pools are pinned to one thread: --threads is the only parallelism
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_workload(name: str) -> dict:
    with open(BENCH / "workloads" / f"{name}.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# increments the experiment needs, worked out from its config alone
# ---------------------------------------------------------------------------

def _c_plus(potential: dict) -> float:
    kind = potential["kind"]
    if kind == "quadratic":
        return 1.0
    if kind == "soft_quartic":
        return 1.0 + float(potential["a"])
    if kind == "kinked":
        return 1.0 + float(potential["b"])
    raise ValueError(f"unknown potential kind {kind!r}")


def needed_increments(experiment: str, cfg: dict) -> int:
    """Distinct (replica, step, site) Brownian increments the experiment uses.

    Torus experiments need every site of every replica at every step.  The
    Dirichlet dynamic needs interior sites only (boundary sites are pinned).
    The gradient diagnostic's corrector windows add the sites of their union
    that the interior does not cover; its own Dirichlet run reuses the
    increments of the main run, which addresses them identically.
    """
    d = int(cfg.get("d", 2))
    dt = 1.0 / (8.0 * d * _c_plus(cfg["potential"]))
    if experiment in ("flux-decay", "linearize"):
        L = int(cfg["L"])
        if experiment == "flux-decay":
            horizon = cfg.get("horizon")
            if horizon is None:
                horizon = max(int(w) for w in cfg["windows"]) ** 2 + 64
            replicas = int(cfg.get("replicas", 300))
        else:
            horizon = L * L
            replicas = int(cfg.get("replicas", 200))
        return replicas * int(round(float(horizon) / dt)) * (2 * L + 1) ** d
    if experiment == "hydro":
        if cfg.get("zero_noise", False):
            return 0
        replicas = int(cfg.get("replicas", 20))
        diag = cfg.get("gradient_diagnostic", {})
        diag_eps = {float(e) for e in diag.get("epsilons", [])}
        diag_reps = int(diag.get("replicas", 0))
        total = 0
        for eps in (float(e) for e in cfg["epsilons"]):
            N = int(round(1.0 / eps))
            n_steps = int(round(1.0 / (eps * eps) / dt))
            interior = set(range(1, N))
            sites = replicas * len(interior) ** d
            if eps in diag_eps and diag_reps:
                kappa = round(math.sqrt(eps) / eps) * eps
                L_micro = int(round(kappa / eps))
                per_axis = int(math.floor(1.0 / kappa + 1e-9)) + 1
                window = set()
                for k in range(per_axis):
                    o = int(round(k * kappa / eps))
                    window.update(range(o - 2 * L_micro, o + 2 * L_micro + 1))
                shared = len(window & interior) ** d
                for rep in range(diag_reps):
                    sites += len(window) ** d - (shared if rep < replicas else 0)
            total += n_steps * sites
        return total
    raise ValueError(f"no increment count for experiment {experiment!r}")


# ---------------------------------------------------------------------------
# golden digests
# ---------------------------------------------------------------------------

def golden_digests(versions: dict) -> dict | None:
    """Digests recorded for these numpy and scipy versions, or None."""
    if not GOLDEN.exists():
        return None
    with open(GOLDEN) as fh:
        doc = json.load(fh)
    for entry in doc["entries"]:
        if entry["numpy"] == versions["numpy"] and entry["scipy"] == versions["scipy"]:
            return entry["digests"]
    return None


class DigestCheck:
    """Golden digest at the config's own seed; agreement between runs elsewhere."""

    def __init__(self, workload: str, golden_seed: int):
        self.workload = workload
        self.golden_seed = golden_seed
        self.seen: dict[int, str] = {}

    def __call__(self, seed: int, digest: dict, versions: dict) -> str | None:
        """None when the digests are right, else the reason they are not."""
        if seed == self.golden_seed:
            table = golden_digests(versions)
            if table is None or self.workload not in table:
                return (f"no golden digest for {self.workload} at numpy "
                        f"{versions['numpy']}, scipy {versions['scipy']}")
            expected = dict(table[self.workload])
            if expected.pop("seed") != seed:
                return f"golden digest was recorded at another seed than {seed}"
            what = "golden"
        else:
            expected = self.seen.setdefault(seed, digest)
            what = f"an earlier run at seed {seed}"
        wrong = [k for k in expected if digest.get(k) != expected[k]]
        return f"{' and '.join(wrong)} digest differs from {what}" if wrong else None


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in PINNED:
        env[var] = "1"
    return env


def run_child(experiment: str, config: Path, out_dir: Path, threads: int,
              spans: Path | None, timeout: float) -> dict:
    """One fresh-process run; returns its measurements, output digests or error."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "child.py"), experiment, str(config),
           str(out_dir / "result"), str(threads)]
    spawned = time.monotonic()
    cmd.append(repr(spawned))
    if spans is not None:
        cmd.append(str(spans))
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"exit code {proc.returncode}: {' | '.join(tail)}"}
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "no result line from the run"}
    csvs = sorted((out_dir / "result").glob("*.csv"))
    if len(csvs) != 1:
        res["error"] = f"expected one CSV, found {len(csvs)}"
        return res
    with open(out_dir / "result" / "summary.json") as fh:
        results = json.load(fh)["results"]
    res["digest"] = {
        "csv": sha256_file(csvs[0]),
        "results": hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest(),
    }
    return res


class Workload:
    """Runs of one workload, with their digest checks and outcomes."""

    def __init__(self, workload: str, seed: int | None):
        self.name = workload
        self.base = load_workload(workload)
        self.experiment = self.base["experiment"]
        self.golden_seed = int(self.base["seed"])
        self.seed = self.golden_seed if seed is None else int(seed)
        self.dir = OUT / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.check = DigestCheck(workload, self.golden_seed)
        self.configs: dict[int, Path] = {}
        self.runs: list[dict] = []

    def config(self, seed: int) -> Path:
        """The generated config: the workload's config with `seed` written in."""
        if seed not in self.configs:
            path = self.dir / f"config-seed{seed}.json"
            path.write_text(json.dumps({**self.base, "seed": seed}, indent=2) + "\n")
            self.configs[seed] = path
        return self.configs[seed]

    def run(self, seed: int, traced: bool = False, threads: int = DEFAULT_THREADS,
            timeout: float = CHILD_TIMEOUT_S) -> dict:
        i = len(self.runs)
        spans = self.dir / f"spans-{i}.jsonl" if traced else None
        res = run_child(self.experiment, self.config(seed), self.dir / f"run-{i}",
                        threads, spans, timeout)
        res.update(seed=seed, traced=traced)
        if "error" not in res:
            res["error"] = self.check(seed, res["digest"], res["versions"])
        res["ok"] = res["error"] is None
        self.runs.append(res)
        return res

    def seed_for(self, i: int) -> int:
        """Run 0 checks the golden digest; later runs use the requested seed."""
        return self.golden_seed if i == 0 else self.seed


def timed_loop(seconds: float, min_units: int, unit, started: float) -> None:
    """Call unit(i) until the next unit would overrun `seconds`."""
    i, last = 0, 0.0
    while i < min_units or (time.monotonic() - started) + last <= seconds:
        if time.monotonic() - started > HARD_LIMIT_S:
            break
        t = time.monotonic()
        unit(i)
        last = time.monotonic() - t
        i += 1


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(runs: list[dict]) -> dict | None:
    measured = [r for r in runs if "wall_s" in r]
    if not measured:
        return None
    return {key: statistics.median(r[key] for r in measured)
            for key in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}


def per_layer(trace: dict, needed: int) -> dict:
    names = trace["names"]
    layer_self = trace["layer_self_s"]

    def get(name, key="total_s"):
        return names.get(name, {}).get(key, 0)

    def per(seconds, count):
        return seconds * 1e9 / count if count else 0.0

    normals = get("noise.ndtri", "count")
    vp_elems = get("potential.vp", "count")
    site_updates = get("dynamics.evolve_torus", "count")
    torus_self = get("dynamics.evolve_torus", "self_s")
    m = {
        "noise.self_s": layer_self["noise"],
        "noise.ndtri_s": get("noise.ndtri"),
        "noise.hash_s": layer_self["noise"] - get("noise.ndtri"),
        "noise.normals": normals,
        "noise.ns_per_normal": per(layer_self["noise"], normals),
        "noise.draws_per_increment": normals / needed if needed else 0.0,
        "potential.vp_s": get("potential.vp"),
        "potential.vp_elems": vp_elems,
        "potential.ns_per_vp_elem": per(get("potential.vp"), vp_elems),
        "potential.vpp_s": get("potential.vpp"),
        "dynamics.evolve_torus.self_s": torus_self,
        "dynamics.site_updates": site_updates,
        "dynamics.ns_per_site_update": per(torus_self, site_updates),
        "dynamics.run_dirichlet.self_s": get("dynamics.run_dirichlet", "self_s"),
        "dynamics.boundary_datum_s": get("dynamics.boundary_datum"),
        "dynamics.boundary_datum_calls": get("dynamics.boundary_datum", "calls"),
        "homogenize.window_acc_s": get("homogenize.window_acc", "self_s"),
        "homogenize.make_correctors_s": get("homogenize.make_correctors"),
        "homogenize.build_two_scale_s": get("homogenize.build_two_scale"),
        "parabolic.linearized_corrector.self_s":
            get("parabolic.solve_linearized_corrector", "self_s"),
        "parabolic.linearized_corrector_site_updates":
            get("parabolic.solve_linearized_corrector", "count"),
        "parabolic.solve_homogenized.self_s": get("parabolic.solve_homogenized", "self_s"),
        "harness.io_s": get("harness.write_csv") + get("harness.write_summary"),
    }
    for layer in ("potential", "dynamics", "parabolic", "homogenize", "harness"):
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def measure(work: Workload, seconds: float, trace: bool) -> dict | None:
    """Run the timed loop; return the metrics (None when nothing was measured)."""
    started = time.monotonic()

    def timeout():
        return max(10.0, min(CHILD_TIMEOUT_S, 165.0 - (time.monotonic() - started)))

    if not trace:
        timed_loop(seconds, 3, lambda i: work.run(work.seed_for(i),
                                                     timeout=timeout()), started)
        return end_to_end(work.runs)

    pairs = []

    def pair(i):
        seed = work.seed_for(i)
        plain = work.run(seed, timeout=timeout())
        traced = work.run(seed, traced=True, timeout=timeout())
        pairs.append((plain, traced))

    timed_loop(seconds, 1, pair, started)
    good = [(p, t) for p, t in pairs if "wall_s" in p and "trace" in t]
    if not good:
        return None
    needed = needed_increments(work.experiment, work.base)
    layers = [per_layer(t["trace"], needed) for _, t in good]
    # median_low: each value is one traced run's, so counts stay whole
    metrics = {key: statistics.median_low(m[key] for m in layers) for key in layers[0]}
    metrics["harness.cpu_per_wall"] = statistics.median_low(p["cpu_s"] / p["wall_s"]
                                                            for p, _ in good)
    metrics["trace.overhead_s"] = statistics.median_low(t["wall_s"] - p["wall_s"]
                                                        for p, t in good)
    return metrics


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model or "unknown", "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def source_identity() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gradphi").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": git_sha, "src_sha256": h.hexdigest()}


def record(work: Workload, seconds: float, trace: bool, metrics: dict | None) -> dict:
    versions = next((r["versions"] for r in work.runs if "versions" in r), None)
    overhead = metrics.get("trace.overhead_s") if (trace and metrics) else None
    return {
        "workload": work.name,
        "experiment": work.experiment,
        "seed": work.seed,
        "golden_seed": work.golden_seed,
        "seconds": seconds,
        "trace": trace,
        "threads": DEFAULT_THREADS,
        "machine": machine(),
        "versions": versions,
        **source_identity(),
        "configs": {str(s): {"path": str(p.relative_to(ROOT)), "sha256": sha256_file(p)}
                    for s, p in work.configs.items()},
        "trace_overhead_s": overhead,
        "metrics": metrics,
        "runs": [{k: v for k, v in r.items() if k != "trace"} for r in work.runs],
    }


def run_workload(name: str, seed: int | None, seconds: float, trace: bool,
                 units: dict) -> tuple[dict | None, Workload]:
    work = Workload(name, seed)
    metrics = measure(work, seconds, trace)
    rec = record(work, seconds, trace, metrics)
    path = OUT / f"{name}-seed{work.seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(rec, indent=1) + "\n")

    failed = [r for r in work.runs if not r["ok"]]
    print(f"== {name}: {work.experiment}, seed {work.seed} "
          f"(golden seed {work.golden_seed}), threads {DEFAULT_THREADS}, "
          f"{'traced' if trace else 'untraced'}")
    print(f"   runs {len(work.runs)}, failed {len(failed)}; "
          f"{rec['machine']['cpu_model']}, nproc {rec['machine']['nproc']}; "
          f"versions {rec['versions']}; git {rec['git_sha']}; src {rec['src_sha256'][:12]}")
    for s, c in rec["configs"].items():
        print(f"   config seed {s}: {c['path']} sha256 {c['sha256'][:16]}")
    for r in failed:
        print(f"   FAILED run (seed {r['seed']}, traced {r['traced']}): {r['error']}")
    if metrics is not None:
        n = sum(1 for r in work.runs if "wall_s" in r)
        for key, value in metrics.items():
            print(f"   {key:45s} {value:14.6f} {units.get(key, '')}")
        print(f"   ({n} measured runs; medians)  record: {path.relative_to(ROOT)}")
    return metrics, work


# ---------------------------------------------------------------------------
# self-check and golden recording
# ---------------------------------------------------------------------------

def self_check(names: list[str]) -> int:
    """Golden seed passes, another seed fails the golden check, and
    flux-quartic's CSV does not depend on the thread count."""
    ok = True
    for name in names:
        s = Workload(name, None)
        right = s.run(s.golden_seed)
        wrong = s.run(s.golden_seed + 1)
        # the other seed's CSV, judged as the golden-seed output, must fail
        reason = (s.check(s.golden_seed, wrong["digest"], wrong["versions"])
                  if "digest" in wrong else None)
        passed = right["ok"] and reason is not None
        ok &= passed
        print(f"{name}: golden seed {s.golden_seed} -> {'pass' if right['ok'] else 'FAIL'}"
              f" ({right['error']}); seed {s.golden_seed + 1} judged as golden -> "
              f"{'reported failed' if reason else 'NOT reported'} ({reason}): "
              f"{'ok' if passed else 'SELF-CHECK FAILED'}")
        if s.experiment == "flux-decay":
            one = s.run(s.golden_seed, threads=1)
            same = one["ok"] and one.get("digest") == right.get("digest")
            ok &= same
            print(f"{name}: threads 1 vs {DEFAULT_THREADS} digests "
                  f"{'identical' if same else 'DIFFER'}")
    print("self-check:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def record_golden(names: list[str]) -> int:
    """Record each workload's output digests at its golden seed for the numpy
    and scipy versions the runs used."""
    digests, versions = {}, None
    for name in names:
        s = Workload(name, None)
        res = run_child(s.experiment, s.config(s.golden_seed), s.dir / "golden",
                        DEFAULT_THREADS, None, CHILD_TIMEOUT_S)
        if "digest" not in res or res.get("error"):
            print(f"{name}: run failed: {res.get('error')}", file=sys.stderr)
            return 1
        versions = res["versions"]
        digests[name] = {"seed": s.golden_seed, **res["digest"]}
        print(f"{name}: seed {s.golden_seed} csv {res['digest']['csv']} "
              f"results {res['digest']['results']}")
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"entries": []}
    entry = next((e for e in doc["entries"] if (e["numpy"], e["scipy"])
                  == (versions["numpy"], versions["scipy"])), None)
    if entry is None:
        entry = {"numpy": versions["numpy"], "scipy": versions["scipy"], "digests": {}}
        doc["entries"].append(entry)
    entry["python"] = versions["python"]
    entry["digests"].update(digests)
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each config's golden seed)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gradphi" / "__init__.py").is_file():
        print(f"error: no gradphi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    selected = names if args.workload == "all" else [args.workload]
    if args.self_check:
        return self_check(selected)
    if args.record_golden:
        return record_golden(selected)

    trace = bool(args.trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    attempted = failed = 0
    out = {}
    for name in selected:
        metrics, work = run_workload(name, args.seed, args.seconds, trace, units)
        attempted += len(work.runs)
        failed += sum(1 for r in work.runs if not r["ok"])
        if metrics is None:
            print(f"error: no run of {name} produced measurements", file=sys.stderr)
            return 1
        missing = set(units) - set(metrics)
        if missing:
            print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
            return 1
        prefix = "" if len(selected) == 1 else f"{name}/"
        out.update({prefix + key: {"value": metrics[key], "unit": units[key]}
                    for key in units})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
