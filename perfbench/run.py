"""Time-to-answer benchmark for the zerofree search engine and canonicalizer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload maxbeta_4x4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # table of every workload

One run is one process with one worker.  It builds the workload's inputs
from --seed, repeats the timed public call in whole passes until at least
--seconds have been measured, checks every output outside the timed region,
and prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones:

    solve_s      median wall seconds of one pass of the workload's call(s)
    setup_s      median over fresh interpreters of `import zerofree` plus
                 building the workload's inputs
    peak_rss_mb  peak resident set size of the measuring process

With --trace 1 the run adds one traced pass after the untraced ones and
reports the per-layer metrics of tracing.LAYER_METRICS instead; the spans are
written to .perfbench-run/.  The error rate is failed / attempted output
checks; it is printed on its own line.  Inputs, checkpoint files, spans and
results live under .perfbench-run/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-run"
SETUP_PROBES = 7
WORKLOAD_NAMES = ("maxbeta_4x4", "slice_5x5", "checkpoint_4x4", "canon_stream")

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# One worker: no process pool in the engine, no BLAS thread pool in numpy.
ONE_WORKER_ENV = {"ZEROFREE_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _require_sources() -> None:
    if not (SRC / "zerofree" / "__init__.py").is_file():
        sys.exit(f"perfbench: no zerofree sources under {SRC}; run from a full checkout")
    if not (ROOT / "tests" / "known_values.py").is_file():
        sys.exit("perfbench: tests/known_values.py is missing; run from a full checkout")


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _filesystem(path: Path) -> dict:
    """Mount point and filesystem type holding `path`, from /proc/self/mounts."""
    best = {"mount": None, "type": None}
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount, fstype = fields[1], fields[2]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best["mount"] or ""):
                    best = {"mount": mount, "type": fstype}
    except OSError:
        pass
    return best


def environment() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "workers": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "workdir_fs": _filesystem(WORKDIR),
    }


_PROBE = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import zerofree
from pathlib import Path
from workloads import WORKLOADS
WORKLOADS[{name!r}]({seed!r}, Path({workdir!r}))
"""


def measure_setup(name: str, seed: int) -> float:
    """Median wall seconds, over fresh interpreters, from launch to
    `import zerofree` done and the workload's inputs built."""
    code = _PROBE.format(src=str(SRC), here=str(HERE), name=name, seed=seed, workdir=str(WORKDIR))
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # No timeout: waiting with one polls the child in steps of up to 50 ms.
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_passes(workload, seconds: float):
    """Repeat the timed call, in whole passes, until at least `seconds` of
    passes have run; a pass that raises ends the loop."""
    times, outputs, errors = [], [], []
    began = time.perf_counter()
    while True:
        workload.prepare()
        t0 = time.perf_counter()
        try:
            out = workload.solve()
        except Exception as exc:  # a pass that raises is a failed output
            errors.append(f"{type(exc).__name__}: {exc}")
            break
        dt = time.perf_counter() - t0
        times.append(dt)
        outputs.append(out)
        if time.perf_counter() - began >= seconds:
            break
    return times, outputs, errors


def check_outputs(workload, outputs, errors, checks) -> None:
    for err in errors:
        checks.expect(False, f"pass raised {err}")
    if not outputs:
        return
    first = outputs[0]
    try:
        workload.check(first, checks)
    except Exception as exc:
        checks.expect(False, f"check raised {type(exc).__name__}: {exc}")
    reference = workload.fingerprint(first)
    for k, out in enumerate(outputs[1:], start=2):
        checks.expect(workload.fingerprint(out) == reference, f"pass {k} differs from pass 1")


def run_one(args) -> int:
    _require_sources()
    os.environ.update(ONE_WORKER_ENV)
    sys.path[:0] = [str(SRC)]
    WORKDIR.mkdir(exist_ok=True)
    import tracing
    import workloads

    setup_s = measure_setup(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    times, outputs, errors = run_passes(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = workloads.Checks()
    metrics = {}
    if times and args.trace:
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        workload.prepare()
        try:
            with tracer.instrument(), tracer.span(tracing.ROOT_SPAN):
                traced_out = workload.solve()
        except Exception as exc:
            errors.append(f"traced pass: {type(exc).__name__}: {exc}")
        else:
            outputs.append(traced_out)
            tracer.write(WORKDIR / f"spans-{args.workload}-seed{args.seed}.json.gz")
            exact = workload.exact_counts(traced_out)
            metrics = tracing.layer_metrics(tracer, statistics.median(times), exact)
    elif times:
        values = {"solve_s": statistics.median(times), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}

    check_outputs(workload, outputs, errors, checks)
    for what in checks.failures[:20]:
        print(f"perfbench: check failed: {what}", file=sys.stderr)
    env = environment()
    error_rate = checks.failed / checks.attempted
    passes = " ".join(f"{t:.4f}" for t in times)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload}: {len(times)} untraced passes [{passes}] s; error_rate {error_rate:.6f}")
    result = {
        "correct": checks.failed == 0 and bool(metrics),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, pass_s=times, error_rate=error_rate, env=env)
    out = WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table of metrics with units."""
    _require_sources()
    status = 0
    print(f"{'workload':<16} {'metric':<34} {'value':>14}  unit")
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{name:<16} FAILED (exit {proc.returncode})")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rate = result["failed"] / result["attempted"]
        rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
        rows.append(("error_rate", rate, "ratio"))
        for metric, value, unit in rows:
            print(f"{name:<16} {metric:<34} {value:>14.6g}  {unit}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
