"""Spans and counters recorded around the program's public functions.

The tracer wraps each target function from outside the program: it replaces
the function on its module (and on every bettiforge module that imported it
by name) or the method on its class.  Spans are kept in memory and written
as JSONL when the run ends.  Functions called hundreds of thousands of times
per run (clique tests, path draws, Metropolis steps) are counted and timed
in aggregate instead of getting a span each.  A target that no longer exists
is listed as absent; it never fails the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, kind): "span" records one span per call, "count" only
# adds calls and time to a per-function total
TARGETS = (
    ("bettiforge.graphs", "enumerate_cliques", "span"),
    ("bettiforge.graphs", "is_clique", "count"),
    ("bettiforge.homology", "boundary_matrix", "span"),
    ("bettiforge.homology", "laplacian", "span"),
    ("bettiforge.homology", "spectrum", "span"),
    ("bettiforge.homology", "dirac", "span"),
    ("bettiforge.exactrank", "integer_rank", "span"),
    ("bettiforge.resources", "total_toffoli", "span"),
    ("bettiforge.resources", "sweep", "span"),
    ("bettiforge.qsim.kaiser", "solve_alpha_quadrature", "span"),
    ("bettiforge.qsim.kaiser", "tail_fraction", "count"),
    ("bettiforge.qsim.kaiser", "qae_outcome_distribution", "span"),
    ("bettiforge.qsim.dicke", "dicke_success_prob", "span"),
    ("bettiforge.qsim.dicke", "exact_failure_prob", "span"),
    ("bettiforge.qsim.walkenc", "build_block_encoding", "span"),
    ("bettiforge.qsim.walkenc", "walk_spectrum", "span"),
    ("bettiforge.qsim.filters", "apply_filter_to_state", "span"),
    ("bettiforge.qsim.filters", "dirac_gap", "span"),
    ("bettiforge.qsim.pipeline", "end_to_end_normalized_betti", "span"),
    ("bettiforge.dequant.operators", "penalized_operator", "span"),
    ("bettiforge.dequant.operators", "one_sparse_decompose", "span"),
    ("bettiforge.dequant.paths", "PathSpace.log_partition", "span"),
    ("bettiforge.dequant.paths", "ExactPathSampler._prepare_messages", "span"),
    ("bettiforge.dequant.paths", "ExactPathSampler.draw", "count"),
    ("bettiforge.dequant.paths", "MetropolisPathSampler.step", "count"),
    ("bettiforge.dequant.estimator", "estimate_normalized_betti", "span"),
    ("bettiforge.dequant.estimator", "make_clique_sampler", "span"),
)


def target_name(module: str, attr: str) -> str:
    return module.removeprefix("bettiforge.") + "." + attr


def _size(name: str, args, kwargs, result):
    """The size a layer metric needs from one call, or None."""
    if name == "homology.boundary_matrix":
        rows, cols = result.matrix.shape
        return rows * cols * result.matrix.itemsize
    if name == "exactrank.integer_rank":
        return list((args[0] if args else kwargs["matrix"]).shape)
    if name == "qsim.walkenc.build_block_encoding":
        return int(result.matrix.nbytes)
    if name == "qsim.dicke.dicke_success_prob":
        return int(args[3] if len(args) > 3 else kwargs["trials"])
    if name == "dequant.paths.MetropolisPathSampler.step":
        return 1 if result else 0
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, list] = {}  # name -> [calls, seconds, size sum]
        self.clique_counters: list[dict] = []
        self.absent: list[str] = []
        self.stack: list[list] = []  # [span id or None, start, child seconds]
        self.job = None

    # -- wrapping ---------------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, kind in TARGETS:
            name = target_name(module_name, attr)
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                self.absent.append(name)
                continue
            owner = module
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, kind, original)
            setattr(owner, leaf, wrapped)
            if not path:
                # modules that did `from .graphs import is_clique` hold the original
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("bettiforge") and mod is not None:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)

    def _wrap(self, name: str, kind: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = None
            if kind == "span":
                span_id = len(tracer.spans)
                parent = tracer.stack[-1][0] if tracer.stack else None
                tracer.spans.append([span_id, name, 0.0, 0.0, parent, tracer.job, 0.0, None])
            frame = [span_id, time.perf_counter(), 0.0]
            tracer.stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                elapsed = end - frame[1]
                if tracer.stack:
                    tracer.stack[-1][2] += elapsed
                try:
                    size = _size(name, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    size = None
                if name == "dequant.estimator.make_clique_sampler" and isinstance(result, tuple):
                    if len(result) == 2 and isinstance(result[1], dict):
                        tracer.clique_counters.append(result[1])
                if kind == "span":
                    span = tracer.spans[span_id]
                    span[2], span[3], span[6], span[7] = frame[1], end, elapsed - frame[2], size
                else:
                    total = tracer.counters.setdefault(name, [0, 0.0, 0])
                    total[0] += 1
                    total[1] += elapsed
                    if size is not None:
                        total[2] += size

        return traced

    # -- jobs -----------------------------------------------------------------

    def begin_job(self, job: str) -> None:
        self.job = job
        span_id = len(self.spans)
        self.spans.append([span_id, "cli.job", 0.0, 0.0, None, job, 0.0, None])
        self.stack.append([span_id, time.perf_counter(), 0.0])

    def end_job(self) -> None:
        span_id, start, child = self.stack.pop()
        end = time.perf_counter()
        span = self.spans[span_id]
        span[2], span[3], span[6] = start, end, end - start - child
        self.job = None

    def dump(self, path: str) -> None:
        clique = {"draws": 0, "accepts": 0}
        for counters in self.clique_counters:
            for key in clique:
                clique[key] += int(counters.get(key, 0))
        with open(path, "w") as fh:
            for sid, name, start, end, parent, job, self_s, size in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
                         "job": job, "self_s": self_s, "size": size}
                    )
                    + "\n"
                )
            fh.write(
                json.dumps(
                    {"counters": self.counters, "absent": self.absent,
                     "clique_counters": clique if self.clique_counters else None}
                )
                + "\n"
            )


# --------------------------------------------------------------------------
# per-layer metrics

# the widest boundary matrix ranked within this many seconds per call
RANK_BUDGET_S = 1.0

# name, unit, better, the targets it needs
LAYER_METRICS = (
    ("cli.import_s", "s", "lower", ()),
    ("cli.import_scipy_s", "s", "lower", ()),
    ("cli.self_s", "s/job", "lower", ()),
    ("graphs.enumerate_cliques_calls", "calls/job", "lower", ("graphs.enumerate_cliques",)),
    ("graphs.enumerate_cliques_s", "s/job", "lower", ("graphs.enumerate_cliques",)),
    ("graphs.is_clique_calls", "calls/job", "lower", ("graphs.is_clique",)),
    ("homology.boundary_matrix_s", "s/job", "lower", ("homology.boundary_matrix",)),
    ("homology.boundary_bytes", "B/job", "lower", ("homology.boundary_matrix",)),
    ("homology.laplacian_s", "s/job", "lower", ("homology.laplacian",)),
    ("homology.eigensolve_s", "s/job", "lower", ("homology.spectrum",)),
    ("homology.dirac_s", "s/job", "lower", ("homology.dirac",)),
    ("exactrank.integer_rank_calls", "calls/job", "lower", ("exactrank.integer_rank",)),
    ("exactrank.integer_rank_s", "s/job", "lower", ("exactrank.integer_rank",)),
    ("exactrank.rank_cells", "cells/job", "lower", ("exactrank.integer_rank",)),
    ("exactrank.max_cols_in_budget", "cols", "higher", ("exactrank.integer_rank",)),
    ("resources.total_toffoli_calls", "calls/job", "lower", ("resources.total_toffoli",)),
    ("resources.total_toffoli_s", "s/job", "lower", ("resources.total_toffoli",)),
    ("resources.sweep_s", "s/job", "lower", ("resources.sweep",)),
    ("qsim.kaiser.solve_alpha_quadrature_s", "s/job", "lower", ("qsim.kaiser.solve_alpha_quadrature",)),
    ("qsim.kaiser.tail_fraction_calls", "calls/job", "lower", ("qsim.kaiser.tail_fraction",)),
    ("qsim.kaiser.qae_outcome_distribution_s", "s/job", "lower", ("qsim.kaiser.qae_outcome_distribution",)),
    ("qsim.dicke.dicke_success_prob_s", "s/job", "lower", ("qsim.dicke.dicke_success_prob",)),
    ("qsim.dicke.trials_per_s", "1/s", "higher", ("qsim.dicke.dicke_success_prob",)),
    ("qsim.dicke.exact_failure_prob_s", "s/job", "lower", ("qsim.dicke.exact_failure_prob",)),
    ("qsim.walkenc.build_block_encoding_s", "s/job", "lower", ("qsim.walkenc.build_block_encoding",)),
    ("qsim.walkenc.walk_spectrum_s", "s/job", "lower", ("qsim.walkenc.walk_spectrum",)),
    ("qsim.walkenc.dense_bytes", "B/job", "lower", ("qsim.walkenc.build_block_encoding",)),
    ("qsim.filters.apply_filter_to_state_s", "s/job", "lower", ("qsim.filters.apply_filter_to_state",)),
    ("qsim.filters.dirac_gap_s", "s/job", "lower", ("qsim.filters.dirac_gap",)),
    ("qsim.pipeline.end_to_end_normalized_betti_s", "s/job", "lower", ("qsim.pipeline.end_to_end_normalized_betti",)),
    ("dequant.operators.penalized_operator_s", "s/job", "lower", ("dequant.operators.penalized_operator",)),
    ("dequant.operators.one_sparse_decompose_s", "s/job", "lower", ("dequant.operators.one_sparse_decompose",)),
    ("dequant.paths.log_partition_s", "s/job", "lower", ("dequant.paths.PathSpace.log_partition",)),
    ("dequant.paths.exact_messages_s", "s/job", "lower", ("dequant.paths.ExactPathSampler._prepare_messages",)),
    ("dequant.paths.exact_draws", "draws/job", "lower", ("dequant.paths.ExactPathSampler.draw",)),
    ("dequant.paths.exact_draw_us", "us", "lower", ("dequant.paths.ExactPathSampler.draw",)),
    ("dequant.paths.mh_steps", "steps/job", "lower", ("dequant.paths.MetropolisPathSampler.step",)),
    ("dequant.paths.mh_step_us", "us", "lower", ("dequant.paths.MetropolisPathSampler.step",)),
    ("dequant.paths.mh_accept_ratio", "ratio", "higher", ("dequant.paths.MetropolisPathSampler.step",)),
    ("dequant.estimator.clique_draws", "draws/job", "lower", ("dequant.estimator.make_clique_sampler",)),
    ("dequant.estimator.clique_accept_ratio", "ratio", "higher", ("dequant.estimator.make_clique_sampler",)),
    ("dequant.estimator.self_s", "s/job", "lower", ("dequant.estimator.estimate_normalized_betti",)),
)


def read_spans(paths: list[str]) -> tuple[list[dict], dict, set, dict | None]:
    """Spans, summed counters, absent targets and clique counters of trace files."""
    spans, counters, absent = [], {}, set()
    clique = None
    for path in paths:
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        tail = lines.pop()
        spans.extend(lines)
        for name, (calls, seconds, size) in tail["counters"].items():
            total = counters.setdefault(name, [0, 0.0, 0])
            total[0] += calls
            total[1] += seconds
            total[2] += size
        absent.update(tail["absent"])
        if tail["clique_counters"] is not None:
            clique = clique or {"draws": 0, "accepts": 0}
            for key in clique:
                clique[key] += tail["clique_counters"][key]
    return spans, counters, absent, clique


def layer_metrics(paths: list[str], jobs: int, imports: dict) -> dict:
    """Every per-layer metric from trace files covering ``jobs`` attempted jobs."""
    spans, counters, absent, clique = read_spans(paths)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name: str, field: str = "dur") -> float:
        rows = by_name.get(name, [])
        if field == "dur":
            return sum(s["end"] - s["start"] for s in rows)
        return sum(s[field] or 0 for s in rows)

    def count(name: str) -> float:
        return counters.get(name, [0, 0.0, 0])

    rank_rows = by_name.get("exactrank.integer_rank", [])
    in_budget = [s["size"][1] for s in rank_rows if s["size"] and s["end"] - s["start"] <= RANK_BUDGET_S]
    draw_calls, draw_s, _ = count("dequant.paths.ExactPathSampler.draw")
    steps, step_s, accepted = count("dequant.paths.MetropolisPathSampler.step")
    dicke = by_name.get("qsim.dicke.dicke_success_prob", [])
    dicke_s = total("qsim.dicke.dicke_success_prob")
    per_job = 1.0 / max(jobs, 1)
    values = {
        "cli.import_s": imports["import_s"],
        "cli.import_scipy_s": imports["import_scipy_s"],
        "cli.self_s": total("cli.job", "self_s") * per_job,
        "graphs.enumerate_cliques_calls": len(by_name.get("graphs.enumerate_cliques", [])) * per_job,
        "graphs.enumerate_cliques_s": total("graphs.enumerate_cliques") * per_job,
        "graphs.is_clique_calls": count("graphs.is_clique")[0] * per_job,
        "homology.boundary_matrix_s": total("homology.boundary_matrix") * per_job,
        "homology.boundary_bytes": total("homology.boundary_matrix", "size") * per_job,
        "homology.laplacian_s": total("homology.laplacian") * per_job,
        "homology.eigensolve_s": total("homology.spectrum", "self_s") * per_job,
        "homology.dirac_s": total("homology.dirac") * per_job,
        "exactrank.integer_rank_calls": len(rank_rows) * per_job,
        "exactrank.integer_rank_s": total("exactrank.integer_rank") * per_job,
        "exactrank.rank_cells": sum(s["size"][0] * s["size"][1] for s in rank_rows if s["size"]) * per_job,
        "exactrank.max_cols_in_budget": max(in_budget, default=0),
        "resources.total_toffoli_calls": len(by_name.get("resources.total_toffoli", [])) * per_job,
        "resources.total_toffoli_s": total("resources.total_toffoli") * per_job,
        "resources.sweep_s": total("resources.sweep") * per_job,
        "qsim.kaiser.solve_alpha_quadrature_s": total("qsim.kaiser.solve_alpha_quadrature") * per_job,
        "qsim.kaiser.tail_fraction_calls": count("qsim.kaiser.tail_fraction")[0] * per_job,
        "qsim.kaiser.qae_outcome_distribution_s": total("qsim.kaiser.qae_outcome_distribution") * per_job,
        "qsim.dicke.dicke_success_prob_s": dicke_s * per_job,
        "qsim.dicke.trials_per_s": sum(s["size"] or 0 for s in dicke) / dicke_s if dicke_s > 0 else 0.0,
        "qsim.dicke.exact_failure_prob_s": total("qsim.dicke.exact_failure_prob") * per_job,
        "qsim.walkenc.build_block_encoding_s": total("qsim.walkenc.build_block_encoding") * per_job,
        "qsim.walkenc.walk_spectrum_s": total("qsim.walkenc.walk_spectrum") * per_job,
        "qsim.walkenc.dense_bytes": total("qsim.walkenc.build_block_encoding", "size") * per_job,
        "qsim.filters.apply_filter_to_state_s": total("qsim.filters.apply_filter_to_state") * per_job,
        "qsim.filters.dirac_gap_s": total("qsim.filters.dirac_gap") * per_job,
        "qsim.pipeline.end_to_end_normalized_betti_s": total("qsim.pipeline.end_to_end_normalized_betti") * per_job,
        "dequant.operators.penalized_operator_s": total("dequant.operators.penalized_operator") * per_job,
        "dequant.operators.one_sparse_decompose_s": total("dequant.operators.one_sparse_decompose") * per_job,
        "dequant.paths.log_partition_s": total("dequant.paths.PathSpace.log_partition") * per_job,
        "dequant.paths.exact_messages_s": total("dequant.paths.ExactPathSampler._prepare_messages") * per_job,
        "dequant.paths.exact_draws": draw_calls * per_job,
        "dequant.paths.exact_draw_us": draw_s / draw_calls * 1e6 if draw_calls else 0.0,
        "dequant.paths.mh_steps": steps * per_job,
        "dequant.paths.mh_step_us": step_s / steps * 1e6 if steps else 0.0,
        "dequant.paths.mh_accept_ratio": accepted / steps if steps else 0.0,
        "dequant.estimator.clique_draws": (clique["draws"] if clique else 0) * per_job,
        "dequant.estimator.clique_accept_ratio": clique["accepts"] / clique["draws"] if clique and clique["draws"] else 0.0,
        "dequant.estimator.self_s": total("dequant.estimator.estimate_normalized_betti", "self_s") * per_job,
    }
    out = {}
    for name, unit, _, needs in LAYER_METRICS:
        missing = any(target in absent for target in needs)
        if name.startswith("dequant.estimator.clique_"):
            # the sampler ran but no longer hands back its try counters
            missing = missing or (clique is None and "dequant.estimator.make_clique_sampler" in by_name)
        out[name] = {"value": None, "unit": unit, "absent": True} if missing else {"value": values[name], "unit": unit}
    return out
