"""Job runner started as a fresh interpreter by run.py.

    worker.py setup SPEC          import, write inputs, run the warm-up job, print the ready time
    worker.py run SPEC RESULT     the same set-up, then timed rounds of the spec's jobs in-process
    worker.py job SPANS -- ARGV   one traced CLI job (the desk workload's traced run)
    worker.py imports MODULE...   import the modules and print the wall time (run under -X importtime)

Only the standard library is imported before the program, so that the
import-time probe sees every import the program makes.  The parent sets the
BLAS/OpenMP thread variables and PYTHONPATH before this interpreter starts.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
import traceback


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI call: (exit status, stdout, stderr)."""
    from bettiforge import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash counts as a failed job, with its traceback
            rc = -1
            traceback.print_exc()
    return int(rc), out.getvalue(), err.getvalue()


def import_modules(names: list[str]) -> None:
    for name in names:
        try:
            importlib.import_module(name)
        except ModuleNotFoundError:
            pass  # a module a later version removed or renamed


def set_up(spec: dict) -> None:
    """Everything a workload does before its first timed job."""
    import_modules(spec["modules"])
    for path, text in spec["inputs"].items():
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    rc, _, err = run_cli(spec["warmup"])
    if rc != 0:
        raise SystemExit(f"warm-up job failed ({rc}): {err.strip()}")


def timed_rounds(spec: dict, tracer) -> dict:
    """Whole rounds of the job list until the run length is reached."""
    jobs = spec["jobs"]
    records = []
    outputs: list[dict] = [{} for _ in jobs]
    rounds = 0
    begin = time.perf_counter()
    while True:
        for j, job in enumerate(jobs):
            if tracer is not None:
                tracer.begin_job(f"{rounds}:{j}")
            t0 = time.perf_counter()
            result = run_cli(job["argv"])
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_job()
            records.append([rounds, j, result[0], t1 - t0])
            key = json.dumps(result)
            outputs[j][key] = outputs[j].get(key, 0) + 1
        rounds += 1
        if time.perf_counter() - begin >= spec["seconds"]:
            break
    end = time.perf_counter()
    return {
        "rounds": rounds,
        "elapsed": end - begin,
        "records": records,
        "outputs": [[json.loads(key) for key in seen] for seen in outputs],
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "imports":
        print("bench-import-mark", file=sys.stderr, flush=True)
        t0 = time.perf_counter()
        import_modules(argv[1:])
        elapsed = time.perf_counter() - t0
        print("bench-import-mark", file=sys.stderr, flush=True)
        print(json.dumps({"import_s": elapsed}))
        return 0
    if mode == "job":
        import tracing

        spans_path, cli_argv = argv[1], argv[3:]
        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin_job("0")
        rc, out, err = run_cli(cli_argv)
        tracer.end_job()
        sys.stdout.write(out)
        sys.stderr.write(err)
        tracer.dump(spans_path)
        return rc
    with open(argv[1]) as fh:
        spec = json.load(fh)
    set_up(spec)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    result = timed_rounds(spec, tracer)
    result["ready"] = ready
    if tracer is not None:
        tracer.dump(spec["spans"])
    with open(argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
