"""Benchmark `hypactions run` then `verify` on one fixed batch of configs.

    python3 bench/run.py --workload delta --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's configs are generated from
the seed and written under `.bench_work/`; then, in this one process and
thread, every config goes through the public entry point
`hypactions.cli.main(["run", ...])` followed by `main(["verify", ...])`.
Passes of the whole batch are timed until `--seconds` have elapsed; the
first pass also pays lazy imports, as a user's first run does.  A config
run fails if `run` exits non-zero, `verify` reports a FAIL, its
summary.json differs in bytes from the previous pass, or one of the
workload's invariant checks does not hold (see workloads.py).

--trace 0 reports the end-to-end metrics: the median time of one pass
(wall_s), the peak RSS of this process, and the median of several set-ups
(setup_s), this process's own and those of fresh interpreters, each
importing the package and writing the configs.  wall_s and setup_s are in
reference seconds (see refclock.py): each config run and each set-up is
rescaled by a fixed probe timed beside it, which divides out the speed
steps of a shared machine.  The unscaled medians are printed and recorded.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracing.py, plus trace.overhead_s (median traced pass minus
median untraced pass, in reference seconds).  Span times are unscaled.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A record with the environment, every pass time and,
for traced runs, every span is written to `.bench_out/`.
"""

import os

# Before numpy is imported: one BLAS thread, so the load stays within the
# cores, and no HYPACTIONS_THREADS, whose value is echoed into every summary.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HYPACTIONS_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7  # this process plus six fresh interpreters

# a fresh interpreter timing the same set-up as this process, then probing
_SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import refclock, workloads; "
    "seconds = workloads.setup(sys.argv[3], int(sys.argv[4]), sys.argv[5])[1]; "
    "print(repr(seconds), repr(refclock.probe()))"
)


def _cli(argv):
    """Call hypactions.cli.main in-process; returns (exit code, its output)."""
    from hypactions.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash in the program fails the config, not the bench
            traceback.print_exc(file=out)
            code = "exception"
    return code, out.getvalue()


class Batch:
    """The workload's configs, with the output of the previous pass of each."""

    def __init__(self, entries):
        self.entries = entries  # (name, config path, checks)
        self.previous = {}
        self.attempted = 0
        self.failures = []  # (pass index, config name, problem)

    def run_pass(self, index):
        """run + verify every config.

        Returns (seconds, reference seconds, bytes written); the refclock
        probe runs before each config, outside the timed section.
        """
        seconds = reference = 0.0
        for name, path, checks in self.entries:
            probe = refclock.probe()
            started = time.perf_counter()
            problems = self._run_one(name, path, checks)
            elapsed = time.perf_counter() - started
            seconds += elapsed
            reference += refclock.rescale(elapsed, probe)
            self.attempted += 1
            self.failures.extend((index, name, problem) for problem in problems)
        written = sum(
            f.stat().st_size
            for _, path, _ in self.entries
            if path.with_suffix(".out").is_dir()
            for f in path.with_suffix(".out").iterdir()
        )
        return seconds, reference, written

    def _run_one(self, name, path, checks):
        outdir = path.with_suffix(".out")
        summary_path = outdir / "summary.json"
        if summary_path.exists():
            summary_path.unlink()
        code, out = _cli(["run", str(path), "-o", str(outdir)])
        if code != 0:
            return [f"run exited {code}: {out.strip()[-500:]}"]
        code, out = _cli(["verify", str(summary_path)])
        problems = []
        if code != 0 or "FAIL" in out or "PASS" not in out:
            problems.append(f"verify exited {code}: {out.strip()[-500:]}")
        try:
            data = summary_path.read_bytes()
            result = json.loads(data)["result"]
        except (OSError, ValueError, KeyError) as exc:
            return problems + [f"summary.json unreadable: {exc!r}"]
        if name in self.previous and self.previous[name] != data:
            problems.append("summary.json differs in bytes from the previous pass")
        self.previous[name] = data
        for label, check in checks:
            try:
                ok = check(result)
            except (KeyError, IndexError, TypeError):
                ok = False
            if not ok:
                problems.append(f"invariant does not hold: {label}")
        return problems


def measure(batch, seconds, tracer=None):
    """Timed passes until `seconds` have elapsed (at least two).

    Returns the (seconds, reference seconds) of each untraced pass and, with
    a tracer, of each traced pass (untraced and traced passes alternate),
    and the per-layer metrics of each traced pass.
    """
    untraced, traced, layers = [], [], []
    started = time.perf_counter()
    index = 0
    while len(untraced) < 2 or time.perf_counter() - started < seconds:
        index += 1
        untraced.append(batch.run_pass(index)[:2])
        if tracer is None:
            continue
        index += 1
        tracer.start_run(index)
        uninstall = tracing.install(tracer)
        try:
            *times, written = batch.run_pass(index)
        finally:
            uninstall()
        traced.append(tuple(times))
        layers.append(tracing.layer_metrics(tracer, index, written))
    return untraced, traced, layers


def setup_samples(workload, seed, workdir):
    """(seconds, reference seconds) of set-ups in fresh interpreters."""
    samples = []
    for k in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH),
             workload, str(seed), str(workdir / f"setup-{k}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, probe = map(float, child.stdout.split())
        samples.append((seconds, refclock.rescale(seconds, probe)))
    return samples


def environment():
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "hypactions").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def run(args):
    load_start = os.getloadavg()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        entries, own_setup = workloads.setup(args.workload, args.seed, workdir / "batch")
        setups = [(own_setup, refclock.rescale(own_setup, refclock.probe()))]
        setups += setup_samples(args.workload, args.seed, workdir)
        batch = Batch(entries)
        tracer = tracing.Tracer() if args.trace else None
        untraced, traced, layers = measure(batch, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def median(samples, column):
        return statistics.median(sample[column] for sample in samples)

    # samples are (seconds, reference seconds); the metrics use the latter
    unscaled = {"wall_s": median(untraced, 0), "setup_s": median(setups, 0)}
    if args.trace:
        metrics = {
            name: {"value": statistics.median_low(layer[name][0] for layer in layers), "unit": unit}
            for name, (_, unit) in layers[0].items()
        }
        metrics["trace.overhead_s"] = {"value": median(traced, 1) - median(untraced, 1), "unit": "s"}
        unscaled["trace.overhead_s"] = median(traced, 0) - median(untraced, 0)
    else:
        metrics = {
            "wall_s": {"value": median(untraced, 1), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": median(setups, 1), "unit": "s"},
        }
    failed = len({(index, name) for index, name, _ in batch.failures})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment() | {"loadavg_start": load_start, "loadavg_end": os.getloadavg()},
        "configs": [name for name, _, _ in batch.entries],
        "attempted": batch.attempted,
        "failed": failed,
        "failures": batch.failures,
        "sample_fields": ["seconds", "reference seconds"],
        "setup_s_samples": setups,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "unscaled_s": unscaled,
        "peak_rss_mb": peak_rss_mb,
        "metrics": metrics,
    }
    if tracer is not None:
        record["span_fields"] = ["name", "start", "end", "parent", "run"]
        record["spans"] = tracer.spans
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    for index, name, problem in batch.failures:
        print(f"FAILED pass {index} {name}: {problem}")
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(batch.entries)} configs")
    print("environment:", json.dumps(record["environment"]))
    print(f"failed_share {failed / batch.attempted!r} ({failed} of {batch.attempted} config runs)")
    for name, value in unscaled.items():
        print(f"{name} (unscaled) {value!r} s")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": batch.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hypactions" / "cli.py").is_file():
        print(f"no hypactions sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
