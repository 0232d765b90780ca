"""The three workloads: seeded inputs, CLI job lists and what each job must satisfy.

Every input comes from numpy's PCG64 stream seeded with (seed, workload
number), so one seed gives one set of inputs.  Random graphs are redrawn
until their clique counts fall in a narrow window around the expected
counts; a job's cost then varies little from seed to seed, which keeps the
timing medians of different seeds comparable.  Graphs with closed-form
answers get their vertex labels permuted by the seed instead.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle

# desk-scale cap on every chain group a dense rank or spectrum handles
MAX_DENSE_DIM = 4096

# the modules whose import each workload's subcommands pay for
MODULES = {
    "betti": ["bettiforge.cli", "bettiforge.graphs", "bettiforge.homology"],
    "pimc": ["bettiforge.cli", "bettiforge.graphs", "bettiforge.dequant.estimator"],
    "desk": [
        "bettiforge.cli",
        "bettiforge.resources",
        "bettiforge.qsim.kaiser",
        "bettiforge.qsim.dicke",
        "bettiforge.qsim.walkenc",
        "bettiforge.qsim.filters",
        "bettiforge.qsim.pipeline",
    ],
}

# betti: (n, p, k) of the seeded G(n, p) slots, with the relative window on
# their clique counts; the last two are the heavy jobs, about 0.5 s each
BETTI_ER = (
    (40, 0.3, 2, 0.03),
    (32, 0.3, 2, 0.03),
    (30, 0.4, 2, 0.03),
    (22, 0.7, 2, 0.03),
    (36, 0.3, 3, 0.03),
    (24, 0.4, 3, 0.03),
    (25, 0.5, 3, 0.03),
    (28, 0.45, 3, 0.03),
    (20, 0.6, 3, 0.03),
    (20, 0.6, 4, 0.03),
    (30, 0.3, 3, 0.03),
    (26, 0.35, 2, 0.03),
    (34, 0.35, 3, 0.03),
    (21, 0.55, 3, 0.03),
    (24, 0.6, 3, 0.03),
    (24, 0.6, 3, 0.03),
)
# betti: K(m, k) at k and two-column Rips graphs of m points per column at k = 2
BETTI_KPARTITE = ((3, 3), (4, 2), (3, 4))
BETTI_RIPS = (10, 14)

# pimc: (graph, k, t, slices, samples, sampler); "er:n,p" slots are seeded.
# Costs are arranged so that both timing percentiles land on fixed inputs:
# the seeded graphs are the cheapest jobs, the middle of the round is a
# cluster of K(2,2) and K(2,3) jobs of about equal cost (three of them
# Metropolis, about a quarter of the round), and the two K(2,4) jobs are the
# slowest, where the tail percentile falls.
PIMC_JOBS = (
    ("er:5,0.7", 2, 3.0, 1, 200, "exact"),
    ("er:6,0.6", 2, 1.0, 1, 200, "exact"),
    ("er:7,0.6", 2, 1.0, 1, 200, "exact"),
    ("er:8,0.55", 3, 1.0, 1, 150, "exact"),
    ("kpartite:2,2", 2, 3.0, 1, 400, "exact"),
    ("kpartite:2,2", 2, 1.0, 2, 400, "exact"),
    ("kpartite:2,3", 2, 1.0, 1, 400, "exact"),
    ("kpartite:2,3", 3, 3.0, 1, 400, "exact"),
    ("kpartite:2,3", 3, 1.0, 1, 400, "exact"),
    ("kpartite:2,2", 2, 3.0, 1, 800, "mh"),
    ("kpartite:2,3", 2, 1.0, 1, 450, "mh"),
    ("kpartite:2,3", 3, 1.0, 1, 450, "mh"),
    ("kpartite:2,4", 3, 1.0, 1, 500, "exact"),
    ("kpartite:2,4", 3, 3.0, 1, 500, "exact"),
)
# shorter chains than the CLI defaults, so a Metropolis job costs about as
# much as an exact one
MH_ARGS = {"burn_in": 250, "chains": 2, "thin": 4}
EXACT_CHAINS = 4
# the 4-cycle 0-1-3-2 at k = 1 has a single reflection term; it fails at
# every seed until the exact sampler reads the closing adjacency untransposed
CYCLE4_EDGES = ((0, 1), (0, 2), (1, 3), (2, 3))
CYCLE4_FAILURE = "dead end during exact sampling"

# amplitude-estimation jobs run at this confidence so a correct program
# misses its stated precision on no job of any run
DESK_DELTA = 1e-6


def graph_text(n: int, edges) -> str:
    return json.dumps({"n": n, "edges": [list(e) for e in sorted(edges)]})


def er_edges(rng: np.random.Generator, n: int, p: float) -> list[tuple[int, int]]:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = rng.random(len(pairs)) < p
    return [pair for pair, bit in zip(pairs, keep) if bit]


def expected_cliques(n: int, p: float, s: int) -> float:
    return math.comb(n, s) * p ** math.comb(s, 2)


def windowed_er(rng, n: int, p: float, k: int, tol: float) -> list[tuple[int, int]]:
    """G(n, p) redrawn until |Cl_k| and |Cl_{k+1}| lie within tol of their means."""
    want = [expected_cliques(n, p, s) for s in (k, k + 1)]
    for _ in range(20000):
        edges = er_edges(rng, n, p)
        levels = oracle.clique_levels(n, edges, k + 1)
        counts = [len(levels[s]) for s in (k - 1, k, k + 1) if s >= 1]
        if counts[-2] == 0 or max(counts) > MAX_DENSE_DIM:
            continue
        if all(abs(len(levels[s]) - w) <= max(tol * w, 1.0) for s, w in zip((k, k + 1), want)):
            return edges
    raise RuntimeError(f"no G({n}, {p}) graph in the clique window at k={k}")


def permuted(rng, n: int, edges) -> list[tuple[int, int]]:
    perm = rng.permutation(n)
    return sorted(tuple(sorted((int(perm[i]), int(perm[j])))) for i, j in edges)


def kpartite_edges(m: int, k: int) -> list[tuple[int, int]]:
    n = m * k
    return [(i, j) for i in range(n) for j in range(i + 1, n) if i // m != j // m]


def rips_edges(m: int) -> list[tuple[int, int]]:
    """Distance-1 graph of two columns of m points, unit distance apart.

    Points within a column are closer than 1; across the columns only the
    pairs at equal height are at distance exactly 1.  This is the graph of
    ``gen_rips_points(2m, 1)`` at threshold 1, and beta_1 = m - 1.
    """
    col = [(i, j) for i in range(m) for j in range(i + 1, m)]
    return col + [(i + m, j + m) for i, j in col] + [(i, i + m) for i in range(m)]


class Spec:
    """Inputs and jobs of one run; written to JSON for the worker."""

    def __init__(self, workload: str, run_dir: Path):
        self.workload = workload
        self.dir = run_dir
        self.inputs: dict[str, str] = {}
        self.graphs: dict[str, dict] = {}
        self.jobs: list[dict] = []
        self.warmup: list[str] = []

    def graph(self, name: str, n: int, edges) -> str:
        path = str(self.dir / f"{name}.json")
        self.inputs[path] = graph_text(n, edges)
        self.graphs[name] = {"n": n, "edges": [list(e) for e in edges]}
        return path

    def job(self, argv: list[str], **check) -> None:
        self.jobs.append({"id": f"{len(self.jobs)}:{argv[0]}", "argv": argv, "check": check})

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "modules": MODULES[self.workload],
            "inputs": self.inputs,
            "graphs": self.graphs,
            "warmup": self.warmup,
            "jobs": self.jobs,
        }


def build_betti(spec: Spec, rng) -> None:
    for idx, (n, p, k, tol) in enumerate(BETTI_ER):
        path = spec.graph(f"er{idx}", n, windowed_er(rng, n, p, k, tol))
        spec.job(["betti", "--graph", path, "--k", str(k)], kind="betti", graph=f"er{idx}", k=k)
    for m, k in BETTI_KPARTITE:
        name = f"kpartite{m}x{k}"
        path = spec.graph(name, m * k, permuted(rng, m * k, kpartite_edges(m, k)))
        closed = {"betti": (m - 1) ** k, "cl_k": m**k, "gap": float(m)}
        spec.job(["betti", "--graph", path, "--k", str(k)], kind="betti", graph=name, k=k, closed=closed)
    for m in BETTI_RIPS:
        name = f"rips{m}"
        path = spec.graph(name, 2 * m, permuted(rng, 2 * m, rips_edges(m)))
        spec.job(["betti", "--graph", path, "--k", "2"], kind="betti", graph=name, k=2, closed={"betti": m - 1})
    warm = spec.graph("warmup", 6, kpartite_edges(2, 3))
    spec.warmup = ["betti", "--graph", warm, "--k", "2"]


def pimc_graph(rng, spec: Spec, label: str, k: int, name: str) -> str:
    family, _, params = label.partition(":")
    if family == "kpartite":
        # labelled as the program's generator labels them: K(2,2) has a single
        # reflection term, and which labellings of it the exact sampler
        # handles depends on the closing-adjacency fault
        m, parts = (int(x) for x in params.split(","))
        return spec.graph(name, m * parts, kpartite_edges(m, parts))
    n, p = int(params.split(",")[0]), float(params.split(",")[1])
    target = p * math.comb(n, 2)
    for _ in range(20000):
        edges = er_edges(rng, n, p)
        if abs(len(edges) - target) > 1.0:
            continue
        if not oracle.clique_levels(n, edges, k)[k]:
            continue
        if oracle.single_reflection(n, edges, k):
            continue
        return spec.graph(name, n, edges)
    raise RuntimeError(f"no usable {label} graph at k={k}")


def build_pimc(spec: Spec, rng) -> None:
    for idx, (label, k, t, slices, samples, sampler) in enumerate(PIMC_JOBS):
        name = f"g{idx}"
        path = pimc_graph(rng, spec, label, k, name)
        chains = MH_ARGS["chains"] if sampler == "mh" else EXACT_CHAINS
        argv = [
            "dequantize", "--graph", path, "--k", str(k), "--t", str(t), "--slices", str(slices),
            "--samples", str(samples), "--chains", str(chains), "--sampler", sampler,
            "--seed", str(int(rng.integers(2**31))),
        ]
        thin = 1
        if sampler == "mh":
            argv += ["--burn-in", str(MH_ARGS["burn_in"]), "--thin", str(MH_ARGS["thin"])]
            thin = MH_ARGS["thin"]
        spec.job(argv, kind="pimc", graph=name, k=k, t=t, slices=slices, samples=samples,
                 chains=chains, sampler=sampler, thin=thin)
    path = spec.graph("cycle4", 4, CYCLE4_EDGES)
    spec.job(
        ["dequantize", "--graph", path, "--k", "1", "--t", "1", "--slices", "1", "--samples", "200",
         "--chains", str(EXACT_CHAINS), "--seed", "0"],
        kind="pimc", graph="cycle4", k=1, t=1.0, slices=1, samples=200, chains=EXACT_CHAINS,
        sampler="exact", thin=1, expect_fail=CYCLE4_FAILURE,
    )
    warm = spec.graph("warmup", 6, kpartite_edges(3, 2))
    spec.warmup = ["dequantize", "--graph", warm, "--k", "2", "--t", "1", "--slices", "1",
                   "--samples", "40", "--seed", "1"]


def desk_graph(rng, spec: Spec, name: str, n: int, p: float, k: int, positive_betti: bool) -> str:
    for _ in range(20000):
        edges = er_edges(rng, n, p)
        summary = oracle.homology_summary(n, edges, k)
        if summary["cl_k"] == 0 or (positive_betti and summary["betti"] == 0):
            continue
        return spec.graph(name, n, edges)
    raise RuntimeError(f"no G({n}, {p}) graph for {name}")


def build_desk(spec: Spec, rng) -> None:
    for m, k in ((16, 16), (15, 12)):
        spec.job(["estimate", "--gen", f"kpartite:{m},{k}", "--r", "0.05", "--delta", "0.05", "--refined-kaiser"],
                 kind="estimate", delta=0.05, refined=True, headline=f"kpartite:{m},{k}")
    m, k = int(rng.integers(3, 11)), int(rng.integers(3, 9))
    delta = float(rng.uniform(0.01, 0.1))
    spec.job(["estimate", "--gen", f"kpartite:{m},{k}", "--r", repr(float(rng.uniform(0.02, 0.1))),
              "--delta", repr(delta), "--refined-kaiser"], kind="estimate", delta=delta, refined=True)
    m, k = int(rng.integers(3, 17)), int(rng.integers(3, 17))
    delta = float(rng.uniform(0.01, 0.1))
    spec.job(["estimate", "--gen", f"kpartite:{m},{k}", "--r", repr(float(rng.uniform(0.02, 0.1))),
              "--delta", repr(delta)], kind="estimate", delta=delta, refined=False)
    # explicit mode: counts of a seeded graph, from the benchmark's own homology
    for _ in range(20000):
        edges = er_edges(rng, 10, 0.5)
        hs = oracle.homology_summary(10, edges, 2)
        if hs["betti"] > 0 and 0 < hs["gap"] < 10:
            break
    else:
        raise RuntimeError("no G(10, 0.5) graph with beta_1 > 0")
    spec.job(["estimate", "--n", "10", "--k", "2", "--edges", str(len(edges)), "--cliques", str(hs["cl_k"]),
              "--betti", str(hs["betti"]), "--gap", repr(hs["gap"]), "--r", "0.05", "--delta", "0.05"],
             kind="estimate", delta=0.05, refined=False)
    k = int(rng.integers(4, 9))
    spec.job(["sweep", "--k", str(k), "--n", f"{2 * k}:{32 * k}:{k}"], kind="sweep", k=k, n=[2 * k, 32 * k, k])
    for n in (8, 32):
        k = int(rng.integers(2, 6 if n == 8 else 9))
        spec.job(["simulate", "dicke", "--n", str(n), "--k", str(k), "--c", "8", "--trials", "200000",
                  "--seed", str(int(rng.integers(2**31)))], kind="dicke", n=n, k=k, c=8, trials=200000)
    path = desk_graph(rng, spec, "walk", 7, 0.6, 2, False)
    spec.job(["simulate", "walk", "--graph", path, "--k", "2"], kind="walk", graph="walk", k=2)
    path = desk_graph(rng, spec, "filter", 8, 0.5, 2, True)
    eps = float(rng.uniform(0.02, 0.1))
    spec.job(["simulate", "filter", "--graph", path, "--k", "2", "--epsilon", repr(eps)],
             kind="filter", graph="filter", k=2, epsilon=eps)
    amp, eps = float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.005, 0.02))
    spec.job(["simulate", "qae", "--amplitude", repr(amp), "--epsilon", repr(eps), "--delta", repr(DESK_DELTA),
              "--seed", str(int(rng.integers(2**31)))], kind="qae", amplitude=amp, epsilon=eps)
    path = desk_graph(rng, spec, "pipeline", 8, 0.5, 2, True)
    spec.job(["simulate", "pipeline", "--graph", path, "--k", "2", "--r", "0.1", "--delta", repr(DESK_DELTA),
              "--seed", str(int(rng.integers(2**31)))], kind="pipeline", graph="pipeline", k=2, r=0.1)
    spec.job(["verify", "--props"], kind="verify")
    spec.warmup = ["estimate", "--gen", "kpartite:3,3", "--r", "0.1", "--delta", "0.1"]


BUILDERS = {"betti": (1, build_betti), "pimc": (2, build_pimc), "desk": (3, build_desk)}


def build(workload: str, seed: int, run_dir: Path) -> dict:
    stream, builder = BUILDERS[workload]
    spec = Spec(workload, run_dir)
    builder(spec, np.random.default_rng([seed, stream]))
    return spec.to_json()
