"""Benchmark of the bettiforge CLI: three workloads, checked outputs, one JSON result.

    python3 perfbench/run.py --workload betti|pimc|desk --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ./src.  Inputs
are made from the seed.  After set-up, whole rounds of the workload's jobs
run until S seconds have passed; every output is then checked against
computations made apart from the program.  The last line of standard output
is a JSON object with the end-to-end metrics (--trace 0) or the per-layer
metrics of a separate traced run (--trace 1).  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# one BLAS/OpenMP thread, set before numpy loads here and in every child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BETTIFORGE_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

# fresh interpreters started per run to time set-up; the median is reported
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
# a job latency percentile needs this many completed jobs beyond it
TAIL_BEYOND = 10
# a child that runs this long past the run length is killed and the run fails
CHILD_GRACE_S = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def wait_child(cmd: list[str], limit: float, **popen) -> tuple[int, float, float]:
    """Run a child to its end: (exit status, wall seconds, peak RSS in MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, **popen)
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def setup_times(spec_path: Path, workdir: Path, limit: float) -> list[float]:
    """Seconds from starting a fresh interpreter until it is ready for its first job."""
    times = []
    for i in range(SETUP_REPEATS):
        out_path = workdir / f"setup{i}.out"
        with open(out_path, "w") as out:
            start = time.monotonic()
            rc, _, _ = wait_child([sys.executable, str(WORKER), "setup", str(spec_path)], limit, stdout=out)
        if rc != 0:
            raise RuntimeError(f"set-up run exited {rc}")
        times.append(json.loads(out_path.read_text().splitlines()[-1])["ready"] - start)
    return times


def run_in_process(spec_path: Path, workdir: Path, seconds: float) -> dict:
    """betti and pimc: one fresh interpreter runs every job in-process."""
    result_path = workdir / "result.json"
    start = time.monotonic()
    rc, _, rss = wait_child(
        [sys.executable, str(WORKER), "run", str(spec_path), str(result_path)], seconds + CHILD_GRACE_S
    )
    if rc != 0:
        raise RuntimeError(f"job runner exited {rc}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - start
    result["peak_rss_mb"] = rss
    return result


def run_processes(spec: dict, workdir: Path, seconds: float, trace: bool) -> dict:
    """desk: every job is a fresh interpreter, as its users start it."""
    for path, text in spec["inputs"].items():
        Path(path).write_text(text)
    records, peak, spans = [], 0.0, []
    raw: list[dict] = [{} for _ in spec["jobs"]]
    rounds = 0
    begin = time.perf_counter()
    while True:
        for j, job in enumerate(spec["jobs"]):
            stem = workdir / f"job{rounds}_{j}"
            if trace:
                spans.append(str(stem) + ".spans")
                cmd = [sys.executable, str(WORKER), "job", spans[-1], "--", *job["argv"]]
            else:
                cmd = [sys.executable, "-m", "bettiforge.cli", *job["argv"]]
            with open(str(stem) + ".out", "w") as out, open(str(stem) + ".err", "w") as err:
                rc, elapsed, rss = wait_child(cmd, seconds + CHILD_GRACE_S, stdout=out, stderr=err)
            records.append([rounds, j, rc, elapsed])
            peak = max(peak, rss)
        rounds += 1
        if time.perf_counter() - begin >= seconds:
            break
    elapsed = time.perf_counter() - begin
    for r, j, rc, _ in records:
        stem = workdir / f"job{r}_{j}"
        key = json.dumps([rc, Path(str(stem) + ".out").read_text(), Path(str(stem) + ".err").read_text()])
        raw[j][key] = raw[j].get(key, 0) + 1
    outputs = [[json.loads(key) for key in seen] for seen in raw]
    return {"rounds": rounds, "elapsed": elapsed, "records": records, "outputs": outputs,
            "peak_rss_mb": peak, "spans": spans}


def import_profile(modules: list[str], workdir: Path) -> dict:
    """Fresh-interpreter import time of the modules, and the scipy share of it."""
    totals, scipy_shares = [], []
    for i in range(IMPORT_REPEATS):
        out_path, err_path = workdir / f"imports{i}.out", workdir / f"imports{i}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            rc, _, _ = wait_child(
                [sys.executable, "-X", "importtime", str(WORKER), "imports", *modules], 60.0, stdout=out, stderr=err
            )
        if rc != 0:
            raise RuntimeError(f"import probe exited {rc}")
        totals.append(json.loads(out_path.read_text().splitlines()[-1])["import_s"])
        scipy_shares.append(scipy_import_s(err_path.read_text()))
    return {"import_s": statistics.median(totals), "import_scipy_s": statistics.median(scipy_shares)}


def scipy_import_s(log: str) -> float:
    """Cumulative -X importtime seconds of the outermost scipy imports."""
    lines = log.split("bench-import-mark")[1].strip().splitlines()
    rows = []
    for line in lines:
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    total = 0
    stack: list[tuple[int, bool]] = []  # (indent, inside scipy)
    for indent, name, cumulative in reversed(rows):  # parents come first
        while stack and stack[-1][0] >= indent:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total += cumulative
        stack.append((indent, inside or is_scipy))
    return total / 1e6


def check_outputs(spec: dict, result: dict) -> list[str]:
    """Checks every distinct output of every job; returns the problems found."""
    import checks

    refs = checks.References(spec)
    problems = []
    for job, seen in zip(spec["jobs"], result["outputs"]):
        if len(seen) != 1:
            problems.append(f"{job['id']}: {len(seen)} different outputs from one input and seed")
        for rc, out, err in seen:
            problem = checks.check_job(job, rc, out, err, refs)
            if problem:
                problems.append(f"{job['id']} {' '.join(job['argv'][3:6])}: {problem}")
    return problems


def end_to_end(result: dict, setups: list[float], completed: list[float]) -> dict:
    ordered = sorted(completed)
    tail = ordered[-(TAIL_BEYOND + 1)] if len(ordered) > TAIL_BEYOND else ordered[-1]
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(ordered) / result["elapsed"],
        "job_s_p50": statistics.median(ordered),
        "job_s_tail": tail,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("betti", "pimc", "desk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bettiforge" / "cli.py").is_file():
        print(f"error: program source {SRC / 'bettiforge'} not found; run from a checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = OUT / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spec = workloads.build(args.workload, args.seed, workdir)
    spec.update(seconds=args.seconds, trace=args.trace, spans=str(workdir / "spans.jsonl"))
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))

    limit = args.seconds + CHILD_GRACE_S
    setups = setup_times(spec_path, workdir, limit)
    if args.workload == "desk":
        result = run_processes(spec, workdir, args.seconds, bool(args.trace))
    else:
        result = run_in_process(spec_path, workdir, args.seconds)
        setups.append(result["setup_s"])
        result["spans"] = [spec["spans"]]
    problems = check_outputs(spec, result)
    correct = not problems
    for problem in problems:
        print(f"check failed: {problem}")

    records = result["records"]
    completed = [dt for _, _, rc, dt in records if rc == 0]
    failed = len(records) - len(completed)
    if args.trace:
        import tracing

        imports = import_profile(spec["modules"], workdir)
        metrics = tracing.layer_metrics(result["spans"], len(records), imports)
    else:
        metrics = end_to_end(result, setups, completed)
    print(
        f"{args.workload} seed {args.seed}: {result['rounds']} rounds, {len(records)} jobs, "
        f"{failed} failed, {result['elapsed']:.2f} s timed, set-up runs "
        + " ".join(f"{s:.3f}" for s in setups)
    )
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
