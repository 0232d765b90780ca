"""Command-line entry point.

Subcommands: generate, betti, estimate, sweep, simulate, dequantize, verify.
Outputs are canonical JSON (sorted keys) or RFC-4180 CSV with LF endings and
17-significant-digit floats; every artifact embeds the resolved configuration
and seed, so identical config + seed means byte-identical files.

Exit status: 0 success, 1 verification failure, 2 invalid input, 3 desk-scale
limit exceeded.

The BLAS and OpenMP thread pools are pinned to one thread before numerics are
imported, overriding inherited settings: threaded LAPACK eigensolves are not
bitwise reproducible, and the outputs must not depend on the host.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys


def _pin_threads() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _write(text: str, path: str | None) -> None:
    """Write text to the file ``path`` (LF newlines), or to stdout when no path is given."""
    if path:
        try:
            with open(path, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _json_dump(payload: dict, path: str | None) -> None:
    # NaN and Infinity are not JSON: refused (exit 2), never printed
    _write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n", path)


# per generator family: its fields as the grammar names them, their types,
# and how many must be given
_GENERATORS = {
    "kpartite": ("m,k", (int, int), 2),
    "er": ("n,p", (int, float), 2),
    "rips": ("n,k[,threshold]", (int, int, float), 2),
}


def _split_generator_spec(spec: str) -> tuple[str, list]:
    """A family:field,field spec as its family and typed fields, checked against the grammar."""
    family, _, rest = spec.partition(":")
    if family not in _GENERATORS:
        raise ValueError(f"unknown generator family {family!r}")
    usage, types, required = _GENERATORS[family]
    args = [a for a in rest.split(",") if a]
    if not required <= len(args) <= len(types):
        raise ValueError(f"{family} spec needs {usage}")
    fields = []
    for kind, arg in zip(types, args):
        try:
            fields.append(kind(arg))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"{family} spec field {arg!r} is not {what}") from None
    return family, fields


def parse_generator_spec(spec: str, seed: int):
    """family:param,param mini-grammar: kpartite:m,k | er:n,p | rips:n,k[,threshold]."""
    from . import graphs

    family, fields = _split_generator_spec(spec)
    if family == "kpartite":
        return graphs.gen_kpartite(*fields)
    if family == "er":
        return graphs.gen_erdos_renyi(*fields, seed)
    pts = graphs.gen_rips_points(*fields[:2])
    return graphs.rips_graph(pts, fields[2] if len(fields) == 3 else 1.0)


def _load_graph(args):
    from . import graphs

    if getattr(args, "gen", None) and getattr(args, "graph", None):
        raise ValueError("give exactly one of --gen and --graph")
    if getattr(args, "gen", None):
        return parse_generator_spec(args.gen, getattr(args, "seed", 0))
    if getattr(args, "graph", None):
        try:
            with open(args.graph) as fh:
                return graphs.graph_from_json(fh.read())
        except OSError as exc:
            raise ValueError(f"cannot read graph file: {exc}") from exc
    raise ValueError("a graph source is required (--gen or --graph)")


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    from . import graphs

    _write(graphs.graph_to_json(_load_graph(args)) + "\n", args.out)
    return 0


def cmd_betti(args) -> int:
    from . import graphs, homology

    g = _load_graph(args)
    beta = homology.betti_exact(g, args.k)
    cl_k = graphs.build_clique_complex(g, args.k).count(args.k)
    # with no k-cliques the chain group is empty and so is the spectrum
    gap = gamma_max = kappa = None
    if cl_k:
        summary = homology.spectrum(g, args.k)
        gap, gamma_max = summary.gap, summary.top
        kappa = summary.kappa if math.isfinite(summary.kappa) else None
    payload = {
        "n": g.n,
        "k": args.k,
        "cl_k": cl_k,
        "betti": beta,
        "gap": gap,
        "gamma_max": gamma_max,
        "kappa": kappa,
        "config": {"gen": args.gen, "graph": args.graph, "k": args.k, "seed": args.seed},
    }
    _json_dump(payload, args.out)
    return 0


# estimate's count flags and the ResourceParams fields they set
_COUNT_FIELDS = {
    "n": "n", "k": "k", "edges": "edge_count", "cliques": "clique_count", "betti": "betti", "gap": "lambda_min"
}


def _params_from_args(args):
    from . import resources

    given = {name: getattr(args, name) for name in _COUNT_FIELDS}
    if args.gen:
        family, fields = _split_generator_spec(args.gen)
        if family != "kpartite":
            raise ValueError("estimate --gen supports only the kpartite family")
        m, k = fields
        if args.k is not None and args.k != k:
            raise ValueError("--k disagrees with the kpartite spec")
        params = resources.kpartite_params(m, k, args.r, args.delta, c=args.c)
        for name, val in given.items():
            if val is not None and val != getattr(params, _COUNT_FIELDS[name]):
                raise ValueError(f"--{name} disagrees with the kpartite spec")
        return params
    missing = [name for name, val in given.items() if val is None]
    if missing:
        raise ValueError(f"explicit estimate needs --{' --'.join(missing)}")
    counts = {field: given[name] for name, field in _COUNT_FIELDS.items()}
    return resources.ResourceParams(**counts, r=args.r, delta=args.delta, c=args.c)


def cmd_estimate(args) -> int:
    from . import resources

    params = _params_from_args(args)
    est = resources.total_toffoli(params, refined_kaiser=args.refined_kaiser)
    payload = {
        "total_toffoli": est.total_toffoli,
        "dicke_toffoli": est.dicke_toffoli,
        "clique_reflect_toffoli": est.clique_reflect_toffoli,
        "block_encode_toffoli": est.block_encode_toffoli,
        "chebyshev_degree": est.chebyshev_degree,
        "amp_est_steps": est.amp_est_steps,
        "amp_amp_steps": est.amp_amp_steps,
        "breakdown": est.breakdown,
        "config": {
            **{name: getattr(params, field) for name, field in _COUNT_FIELDS.items()},
            "r": params.r,
            "delta": params.delta,
            "c": params.c,
            "refined_kaiser": args.refined_kaiser,
        },
    }
    _json_dump(payload, args.out)
    return 0


def _parse_range(spec: str) -> list[int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("range spec is start:stop:step")
    start, stop, step = (int(p) for p in parts)
    if step <= 0 or stop < start:
        raise ValueError("range needs stop >= start and step > 0")
    return list(range(start, stop + 1, step))


def cmd_sweep(args) -> int:
    from . import resources

    rows = resources.sweep(
        args.k,
        _parse_range(args.n),
        args.r,
        args.delta,
        refined_kaiser=args.refined_kaiser,
        warn=lambda msg: print(f"warning: {msg}", file=sys.stderr),
    )
    _write(resources.sweep_to_csv(rows), args.out)
    return 0


def cmd_simulate(args) -> int:
    import numpy as np

    if args.what in ("dicke", "walk", "filter", "pipeline") and args.k is None:
        raise ValueError(f"simulate {args.what} needs --k")
    if args.what == "dicke":
        from .qsim import dicke

        res = dicke.dicke_success_prob(args.n, args.k, args.c, args.trials, args.seed)
        payload = {
            "failure_rate": res.failure_rate,
            "exact_failure": float(res.exact_failure) if res.exact_failure is not None else None,
            "config": {"what": "dicke", "n": args.n, "k": args.k, "c": args.c, "trials": args.trials, "seed": args.seed},
        }
    elif args.what == "walk":
        from .qsim import walkenc

        g = _load_graph(args)
        spec = walkenc.walk_spectrum(g, args.k)
        matched = np.sort(np.abs(np.sin(spec.walk_eigenphases)) * spec.lam)
        payload = {
            "hamiltonian_eigs": sorted(float(e) for e in spec.hamiltonian_eigs),
            "walk_eigenphases": [float(p) for p in spec.walk_eigenphases],
            "abs_sin_scaled": [float(v) for v in matched],
            "config": {"what": "walk", "gen": args.gen, "graph": args.graph, "k": args.k, "seed": args.seed},
        }
    elif args.what == "filter":
        from .qsim import filters
        from . import homology, resources

        g = _load_graph(args)
        eps = args.epsilon
        summary = homology.spectrum(g, args.k)
        ell = args.ell
        if ell is None:
            ell = resources.chebyshev_degree(eps, filters.dirac_gap(summary), float(g.n))
        res = filters.apply_filter_to_state(summary, float(g.n), ell, eps)
        payload = {
            "amplitude_sq": res.amplitude_sq,
            "ell": ell,
            "epsilon": eps,
            "config": {"what": "filter", "gen": args.gen, "graph": args.graph, "k": args.k, "epsilon": eps, "ell": ell, "seed": args.seed},
        }
    elif args.what == "qae":
        from .qsim import kaiser

        est = kaiser.amplitude_estimate_sim(args.amplitude, args.epsilon, args.delta, args.seed)
        alpha, n_win = kaiser.window_size(args.epsilon, args.delta)
        payload = {
            "estimate": est,
            "alpha": alpha,
            "N": n_win,
            "config": {"what": "qae", "amplitude": args.amplitude, "epsilon": args.epsilon, "delta": args.delta, "seed": args.seed},
        }
    else:  # pipeline
        from .qsim import pipeline

        g = _load_graph(args)
        res = pipeline.end_to_end_normalized_betti(g, args.k, args.r, args.delta, args.seed)
        payload = {
            "estimate": res.estimate,
            "target": res.target,
            "amplification_rounds": res.amplification_rounds,
            "filter_degree": res.filter_degree,
            "config": {"what": "pipeline", "gen": args.gen, "graph": args.graph, "k": args.k, "r": args.r, "delta": args.delta, "seed": args.seed},
        }
    _json_dump(payload, args.out)
    return 0


def cmd_dequantize(args) -> int:
    from .dequant import estimator

    g = _load_graph(args)
    cfg = estimator.PIMCConfig(
        t=args.t,
        r_t=args.slices,
        n_samp=args.samples,
        burn_in=args.burn_in,
        chain_thin=args.thin,
        seed=args.seed,
        chains=args.chains,
        sampler=args.sampler,
    )
    res = estimator.estimate_normalized_betti(g, args.k, cfg)
    payload = {
        "estimate": res.estimate,
        "stderr": res.stderr,
        "acceptance_rate": res.acceptance_rate,
        "clique_acceptance": res.clique_acceptance,
        "autocorr_time": res.autocorr_time,
        "D": res.D,
        "r_T": res.r_t,
        "n_samples": res.n_samples,
        "d_k": res.d_k,
        **{key: res.diagnostics[key] for key in ("exact_trotter_mean", "average_sign", "z_score")
           if key in res.diagnostics},
        "config": {
            "gen": args.gen,
            "graph": args.graph,
            "k": args.k,
            "t": args.t,
            "slices": args.slices,
            "samples": args.samples,
            "burn_in": args.burn_in,
            "thin": args.thin,
            "chains": args.chains,
            "sampler": args.sampler,
            "seed": args.seed,
        },
    }
    _json_dump(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_props() -> list[tuple[str, bool, str]]:
    import numpy as np

    from . import graphs, homology

    out = []
    for m in (2, 3, 4):
        for k in (2, 3, 4):
            g = graphs.gen_kpartite(m, k)
            cl = graphs.build_clique_complex(g, k).count(k)
            beta = homology.betti_exact(g, k)
            summary = homology.spectrum(g, k)
            lattice = bool(
                np.all(np.abs(summary.eigenvalues / m - np.round(summary.eigenvalues / m)) < 1e-8)
            )
            ok = (
                cl == m**k
                and beta == (m - 1) ** k
                and abs(summary.gap - m) < 1e-8
                and lattice
            )
            out.append(
                (
                    f"kpartite m={m} k={k}",
                    ok,
                    f"cliques {cl}, betti {beta}, gap {summary.gap:.6f}",
                )
            )
    for m in (2, 3, 4):
        pts = graphs.gen_rips_points(2 * m, 1)
        g = graphs.rips_graph(pts, 1.0)
        beta = homology.betti_exact(g, 2)
        out.append((f"rips m={m}", beta == m - 1, f"betti_1 {beta} want {m - 1}"))
    return out


def _verify_dicke() -> list[tuple[str, bool, str]]:
    from fractions import Fraction

    from .qsim import dicke

    run1 = dicke.dicke_threshold_run([0b0110, 0b1110, 0b0111, 0b0010], 2, n_seed=4)
    ok1 = run1.success and run1.bits == (0, 1, 1, 1) and run1.selected == 0b0110
    run2 = dicke.dicke_threshold_run([0b0110, 0b1110, 0b0110, 0b0010], 2, n_seed=4)
    ok2 = not run2.success
    # f = c*n = 512 here, so the tie law expands as 1/(2c) - 1/(6c^2) + ...
    n, k, c, trials = 64, 8, 8, 10**6
    exact = dicke.exact_failure_prob(n, k, c)
    p = float(exact)
    res = dicke.dicke_success_prob(n, k, c, trials, seed=2026)
    sig = math.sqrt(p * (1 - p) / trials)
    lo, hi = Fraction(1, 2 * c) - Fraction(1, 6 * c * c), Fraction(1, 2 * c)
    return [
        ("worked example (success trace)", ok1, f"bits {run1.bits}, selected {run1.selected:04b}"),
        ("worked example (duplicate fails)", ok2, f"success {run2.success}"),
        (
            "failure rate vs exact tie law",
            abs(res.failure_rate - p) <= 3 * sig,
            f"rate {res.failure_rate:.6f} vs exact {p:.6f} +- {3 * sig:.6f}",
        ),
        (
            "exact tie law vs 1/(2c) bracket",
            lo <= exact <= hi,
            f"exact {p:.6f} in [{float(lo):.6f}, {float(hi):.6f}]",
        ),
    ]


def _verify_dequant_toy() -> list[tuple[str, bool, str]]:
    from . import graphs
    from .dequant import estimator

    g = graphs.gen_kpartite(2, 2)
    cfg = estimator.PIMCConfig(t=3.0, r_t=1, n_samp=20000, seed=7, chains=4)
    res = estimator.estimate_normalized_betti(g, 2, cfg)
    # the estimator is unbiased for the Trotterized mean, which lies just
    # above the normalized Betti number 1/6 at this t
    mean = res.diagnostics["exact_trotter_mean"]
    band = 3 * res.stderr
    return [
        (
            "toy Trotterized mean vs normalized Betti (1/6)",
            1 / 6 <= mean <= 1.01 / 6,
            f"mean {mean:.5f} in [{1 / 6:.5f}, {1.01 / 6:.5f}]",
        ),
        (
            "toy estimate vs Trotterized mean",
            abs(res.estimate - mean) <= band,
            f"estimate {res.estimate:.5f} vs mean {mean:.5f} +- {band:.5f}"
            f" (normalized Betti {1 / 6:.5f}, z {(res.estimate - 1 / 6) / res.stderr:+.2f})",
        ),
    ]


def cmd_verify(args) -> int:
    checks: list[tuple[str, bool, str]] = []
    if args.props or args.all:
        checks += _verify_props()
    if args.dicke or args.all:
        checks += _verify_dicke()
    if args.dequant_toy or args.all:
        checks += _verify_dequant_toy()
    if not checks:
        raise ValueError("nothing selected: use --props, --dicke, --dequant-toy or --all")
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failed += 0 if ok else 1
    if args.out:
        _json_dump(
            {"checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks]},
            args.out,
        )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


def _seed(text: str) -> int:
    """The type of ``--seed``: a non-negative integer, as numpy's generators need."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: a parse leaves no state in it."""
    parser = argparse.ArgumentParser(prog="bettiforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_source(p):
        p.add_argument("--gen", help="generator spec family:params (kpartite:5,6 | er:60,0.12 | rips:12,2)")
        p.add_argument("--graph", help="path to a graph JSON file")

    p = sub.add_parser("generate", help="emit a graph in canonical JSON form")
    add_graph_source(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("betti", help="exact Betti number and Laplacian spectrum summary")
    add_graph_source(p)
    p.add_argument("--k", type=int, required=True, help="Hamming weight (clique size); reports beta_{k-1}")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("estimate", help="Toffoli cost of one instance")
    p.add_argument("--gen", help="kpartite:m,k for analytic family parameters")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--edges", type=int)
    p.add_argument("--cliques", type=int)
    p.add_argument("--betti", type=int)
    p.add_argument("--gap", type=float)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--c", type=int, default=8)
    p.add_argument("--refined-kaiser", action="store_true", dest="refined_kaiser")
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="CSV cost table over the kpartite family")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", required=True, help="range start:stop:step")
    p.add_argument("--r", type=float, default=1 / 20)
    p.add_argument("--delta", type=float, default=1 / 20)
    p.add_argument("--refined-kaiser", action="store_true", dest="refined_kaiser")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="desk-scale simulation of one subroutine")
    p.add_argument("what", choices=("dicke", "walk", "filter", "qae", "pipeline"))
    add_graph_source(p)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--c", type=int, default=8)
    p.add_argument("--trials", type=int, default=10**5)
    p.add_argument("--amplitude", type=float, default=0.3)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--r", type=float, default=0.1)
    p.add_argument("--ell", type=int)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dequantize", help="path-integral Monte Carlo Betti estimation")
    add_graph_source(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=float, required=True, help="imaginary time")
    p.add_argument("--slices", type=int, required=True, help="Trotter slices r_T")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--burn-in", type=int, default=2000, dest="burn_in")
    p.add_argument("--thin", type=int, default=8)
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--sampler", choices=("exact", "mh"), default="exact")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dequantize)

    p = sub.add_parser("verify", help="run built-in verification suites")
    p.add_argument("--props", action="store_true", help="Betti/gap/clique-count propositions")
    p.add_argument("--dicke", action="store_true", help="threshold-preparation worked examples and failure law")
    p.add_argument("--dequant-toy", action="store_true", dest="dequant_toy")
    p.add_argument("--all", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    _pin_threads()
    args = build_parser().parse_args(argv)
    from .errors import DeskScaleError

    try:
        return args.func(args)
    except DeskScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
