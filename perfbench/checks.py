"""Checks of each job's output against the reference computations in oracle.py.

Each check returns None when the output is right, or a one-line reason.
The bands and tolerances are fixed here, before any run, and never fitted to
what the program printed.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracle

# float spectra of integer matrices: eigenvalues agree to this relative error
SPECTRUM_RTOL = 1e-7
# Kaiser tails are integrated independently of the program; the refined alpha
# must keep the tail within delta up to this relative quadrature error
TAIL_RTOL = 1e-4
# the threshold-preparation rate must lie this many binomial sigmas from the law
DICKE_SIGMAS = 4.0
HEADLINES = {"kpartite:16,16": "9.9e+10", "kpartite:15,12": "9.0e+09"}


class References:
    """Reference values computed once per graph and reused across jobs."""

    def __init__(self, spec: dict):
        self.graphs = spec["graphs"]
        self._homology: dict = {}

    def homology(self, name: str, k: int) -> dict:
        key = (name, k)
        if key not in self._homology:
            g = self.graphs[name]
            self._homology[key] = oracle.homology_summary(g["n"], [tuple(e) for e in g["edges"]], k)
        return self._homology[key]


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= SPECTRUM_RTOL * max(1.0, abs(scale))


def check_betti(job: dict, payload: dict, refs: References) -> str | None:
    c = job["check"]
    ref = refs.homology(c["graph"], c["k"])
    if payload["cl_k"] != ref["cl_k"] or payload["betti"] != ref["betti"]:
        return f"cl_k/betti {payload['cl_k']}/{payload['betti']}, reference {ref['cl_k']}/{ref['betti']}"
    if ref["nullity"] != ref["betti"]:
        return f"reference Laplacian nullity {ref['nullity']} differs from the float-rank Betti {ref['betti']}"
    if not _close(payload["gap"], ref["gap"], ref["gamma_max"]):
        return f"gap {payload['gap']}, reference {ref['gap']}"
    if not _close(payload["gamma_max"], ref["gamma_max"], ref["gamma_max"]):
        return f"gamma_max {payload['gamma_max']}, reference {ref['gamma_max']}"
    for key, want in c.get("closed", {}).items():
        if not _close(float(payload[key]), float(want)):
            return f"{key} {payload[key]}, closed form {want}"
    return None


def check_pimc(job: dict, payload: dict, refs: References) -> str | None:
    from bettiforge import graphs
    from bettiforge.dequant import operators

    c = job["check"]
    g = refs.graphs[c["graph"]]
    graph = graphs.Graph.from_edges(g["n"], [tuple(e) for e in g["edges"]])
    op = operators.penalized_operator(graph, c["k"])
    decomp = operators.one_sparse_decompose(op.matrix)
    betti = refs.homology(c["graph"], c["k"])["betti"]
    if op.d_k != math.comb(g["n"], c["k"]):
        return f"normalization {op.d_k} is not C(n, k)"
    ref = oracle.pimc_reference(op, decomp, c["t"], c["slices"], betti)
    band = oracle.pimc_band(ref, c["sampler"], c["samples"], c["chains"], c["thin"])
    if abs(payload["estimate"] - ref["mean"]) > band:
        return f"estimate {payload['estimate']:.6g} outside {ref['mean']:.6g} +- {band:.3g}"
    return None


def check_estimate(job: dict, payload: dict, refs: References) -> str | None:
    c = job["check"]
    parts = payload["breakdown"]
    total = parts["state_prep_toffoli"] + parts["filter_toffoli"] + parts["initial_estimation_toffoli"]
    if payload["total_toffoli"] != total:
        return f"total {payload['total_toffoli']} != prep + filter + initial {total}"
    headline = HEADLINES.get(c.get("headline"))
    if headline and f"{payload['total_toffoli']:.1e}" != headline:
        return f"{c['headline']} total {payload['total_toffoli']:.3e}, paper {headline}"
    if c["refined"]:
        delta1 = c["delta"] / 20.0
        for alpha_key, delta in (("kaiser_alpha_initial", delta1), ("kaiser_alpha_final", c["delta"] - delta1)):
            tail = oracle.kaiser_tail(parts[alpha_key])
            if tail > delta * (1.0 + TAIL_RTOL):
                return f"{alpha_key} {parts[alpha_key]} leaves tail {tail:.6g} > delta {delta:.6g}"
    return None


def check_sweep(job: dict, text: str, refs: References) -> str | None:
    c = job["check"]
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, map(int, line.split(",")))) for line in lines[1:]]
    k = c["k"]
    start, stop, step = c["n"]
    want = [n for n in range(start, stop + 1, step) if n % k == 0 and n // k >= 2]
    if [row["n"] for row in rows] != want:
        return f"rows for n = {[row['n'] for row in rows]}, expected {want}"
    for row in rows:
        m = row["n"] // k
        if row["k"] != k or row["m"] != m or row["binom"] != math.comb(row["n"], k) or row["cliques"] != m**k:
            return f"row n={row['n']}: k, m, binom or cliques wrong"
        if row["toffoli_total"] != row["toffoli_prep"] + row["toffoli_filter"]:
            return f"row n={row['n']}: total != prep + filter"
    return None


def check_dicke(job: dict, payload: dict, refs: References) -> str | None:
    c = job["check"]
    p = oracle.tie_failure_prob(c["n"], c["k"], c["c"])
    sigma = math.sqrt(p * (1.0 - p) / c["trials"])
    if abs(payload["failure_rate"] - p) > DICKE_SIGMAS * sigma:
        return f"rate {payload['failure_rate']} vs tie law {p:.6f} +- {DICKE_SIGMAS * sigma:.2g}"
    if payload["exact_failure"] is not None and abs(payload["exact_failure"] - p) > 1e-12:
        return f"exact_failure {payload['exact_failure']} differs from the tie law {p}"
    return None


def check_walk(job: dict, payload: dict, refs: References) -> str | None:
    c = job["check"]
    g = refs.graphs[c["graph"]]
    energies = np.abs(oracle.dirac_eigs(g["n"], [tuple(e) for e in g["edges"]], c["k"]))
    want = np.sort(np.repeat(energies, 2))
    got = np.sort(np.asarray(payload["abs_sin_scaled"], dtype=float))
    if got.shape != want.shape or np.abs(got - want).max(initial=0.0) > 1e-7 * g["n"]:
        return "sorted |sin phi| * lambda does not list each |E| twice"
    return None


def check_filter(job: dict, payload: dict, refs: References) -> str | None:
    c = job["check"]
    ref = refs.homology(c["graph"], c["k"])
    target = ref["betti"] / ref["cl_k"]
    if abs(payload["amplitude_sq"] - target) > c["epsilon"] ** 2:
        return f"amplitude {payload['amplitude_sq']:.6g} vs beta/|Cl_k| {target:.6g} +- eps^2"
    return None


def check_qae(job: dict, payload: dict, refs: References) -> str | None:
    c = job["check"]
    if abs(payload["estimate"] - c["amplitude"]) > c["epsilon"]:
        return f"estimate {payload['estimate']} vs amplitude {c['amplitude']} +- {c['epsilon']}"
    return None


def check_pipeline(job: dict, payload: dict, refs: References) -> str | None:
    c = job["check"]
    ref = refs.homology(c["graph"], c["k"])
    target = ref["betti"] / ref["cl_k"]
    if abs(payload["target"] - target) > 1e-12:
        return f"target {payload['target']} differs from beta/|Cl_k| {target}"
    if abs(payload["estimate"] - target) > c["r"] * target:
        return f"estimate {payload['estimate']:.6g} vs {target:.6g} at relative error {c['r']}"
    return None


def check_verify(job: dict, text: str, refs: References) -> str | None:
    lines = [line for line in text.split("\n") if line]
    if not lines or any(not line.startswith("PASS") for line in lines):
        return "verify --props printed a line that is not PASS"
    return None


CHECKS = {
    "betti": check_betti,
    "pimc": check_pimc,
    "estimate": check_estimate,
    "dicke": check_dicke,
    "walk": check_walk,
    "filter": check_filter,
    "qae": check_qae,
    "pipeline": check_pipeline,
}
TEXT_CHECKS = {"sweep": check_sweep, "verify": check_verify}


def check_job(job: dict, rc: int, out: str, err: str, refs: References) -> str | None:
    """The problem with one job's result; a failure is expected only where the job names it."""
    if rc != 0:
        expect = job["check"].get("expect_fail")
        return None if expect and expect in err else f"exit {rc}: {err.strip()[-200:]}"
    kind = job["check"]["kind"]
    try:
        if kind in TEXT_CHECKS:
            return TEXT_CHECKS[kind](job, out, refs)
        return CHECKS[kind](job, json.loads(out), refs)
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable or inconsistent output: {exc!r}"
