"""isocurv benchmark: one workload per process, one closed-loop caller.

    python3 benchmarks/run.py --workload fuzz-h44 --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced phase (see ``spans.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath("src")
SCRATCH = os.path.abspath(".bench_run")
WORKLOAD_NAMES = ("fuzz-h44", "diagnose-fresh", "derived-sweep", "doc-roundtrip")
# Fresh processes timed per run for setup_s, spread over the run so that
# their median does not hang on the host's speed in one moment.
SETUP_RUNS = 5
# One BLAS thread (set before numpy is imported): the machine has 2 cores
# shared with other work, and the contractions at m <= 20 are too small to
# gain from a second thread.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 60     # a setup process is killed after this long

# Latencies are reported in multiples of a reference computation timed
# next to each request (see reference.py): the host's speed drifts too much
# for milliseconds to be compared between runs.  Milliseconds and the
# request rate are printed beside them.
END_TO_END = [("setup_s", "s"), ("latency_p50_ref", "ref"), ("latency_tail_ref", "ref"),
              ("peak_rss_mb", "MB")]
THEOREM_KEYS = ("ThmA", "Thm1", "Thm2", "Thm5", "Thm6", "Thm7", "Lemma2",
                "EinsteinFromIsotropicRicci")
MODULES = ("cli", "docio", "diagnostics", "planes", "canonical", "tensors", "model", "request")
PER_LAYER = (
    [("diagnostics.vanishing_report.calls", "calls/req"),
     ("diagnostics.vanishing_report.self_s", "s/req"),
     ("diagnostics.equivalence_check.self_s", "s/req")]
    + [(f"diagnostics.equivalence_check.{t}.busy_s", "s/req") for t in THEOREM_KEYS]
    + [("planes.sample_planes.calls", "calls/req"),
       ("planes.sample_planes.self_s", "s/req"),
       ("planes.sample_planes.planes", "planes/req"),
       ("planes.sample_planes.reuse_ratio", "ratio"),
       ("model.inner.calls", "calls/req"),
       ("canonical.bochner.calls", "calls/req"),
       ("canonical.bochner.self_s", "s/req"),
       ("canonical.conformal.calls", "calls/req"),
       ("canonical.conformal.self_s", "s/req"),
       ("canonical.antiholomorphic_form_residual.calls", "calls/req"),
       ("canonical.antiholomorphic_form_residual.self_s", "s/req"),
       ("canonical.pi1.calls", "calls/req"),
       ("canonical.pi2.calls", "calls/req"),
       ("tensors.ricci.self_s", "s/req"),
       ("tensors.ricci_star.self_s", "s/req"),
       ("tensors.conjugate.self_s", "s/req"),
       ("diagnostics.flatness_norms.self_s", "s/req"),
       ("canonical.theorem6_identities.self_s", "s/req"),
       ("tensors.quad_eval.calls", "calls/req"),
       ("diagnostics.einstein_check.self_s", "s/req"),
       ("docio.save_document.busy_s", "s/req"),
       ("docio.save_document.bytes", "B/req"),
       ("docio.load_document.busy_s", "s/req"),
       ("docio.load_document.bytes", "B/req"),
       ("cli.main.self_s", "s/req")]
    + [(f"{m}.self_share", "ratio") for m in MODULES]
    + [("trace.requests_per_s", "1/s"), ("trace.untraced_requests_per_s", "1/s")]
)


# -- measurement ----------------------------------------------------------------


class Loop:
    """Closed loop with one caller: the next request starts when the last returns.

    Known-answer checks and reference timings run between requests,
    untraced; their time is excluded from the timed wall time.  Whole
    rounds only, at least one per call of ``run``, so every run has the
    same mix.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list[int] = []  # position of each request in its round
        self.refs: list[float] = []  # mean reference timing just before and after each request
        self.failed = 0
        self.errors: list[str] = []
        self.wall_s = 0.0

    def run(self, work, seconds: float, tracer=None, reference=None) -> "Loop":
        check_s = 0.0
        t0 = time.perf_counter()
        while True:
            for kind, req in enumerate(work.round()):
                if reference is not None:
                    c = time.perf_counter()
                    before = reference()
                    check_s += time.perf_counter() - c
                if tracer is not None:
                    tracer.request = len(self.latencies)
                    root = tracer.begin("request")
                t = time.perf_counter()
                try:
                    out, err = work.call(req), None
                except Exception as exc:  # a failed request is counted, never dropped
                    out, err = None, f"{type(exc).__name__}: {exc}"
                self.latencies.append(time.perf_counter() - t)
                self.kinds.append(kind)
                if reference is not None:
                    c = time.perf_counter()
                    self.refs.append((before + reference()) / 2)
                    check_s += time.perf_counter() - c
                if tracer is not None:
                    tracer.end(root)
                c = time.perf_counter()
                if err is None:
                    if tracer is not None:
                        tracer.paused = True
                    try:
                        err = work.check(req, out)
                    except Exception as exc:
                        err = f"check raised {type(exc).__name__}: {exc}"
                    if tracer is not None:
                        tracer.paused = False
                check_s += time.perf_counter() - c
                if err is not None:
                    self.failed += 1
                    if len(self.errors) < 5:
                        self.errors.append(f"{req!r}: {err}")
            if time.perf_counter() - t0 - check_s >= seconds:
                break
        self.wall_s += time.perf_counter() - t0 - check_s
        return self

    @property
    def rate(self) -> float:
        return len(self.latencies) / self.wall_s


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond).  With fewer than 11 samples, the max."""
    xs = sorted(latencies)
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def kind_median(values: list[float], kinds: list[int]) -> float:
    """Mean over the request kinds of a round of each kind's median."""
    by_kind = defaultdict(list)
    for kind, v in zip(kinds, values):
        by_kind[kind].append(v)
    return statistics.mean(statistics.median(vs) for vs in by_kind.values())


def warm_up(work, tracer=None) -> None:
    """One round, which must pass its checks."""
    loop = Loop().run(work, 0.0, tracer)
    if loop.failed:
        raise RuntimeError(f"warm-up round failed: {loop.errors}")


def setup(name: str, seed: int, workdir: str):
    """Import isocurv, generate inputs and documents, run one warm-up round."""
    from workloads import WORKLOADS, isocurv

    if not isocurv.__file__.startswith(SRC + os.sep):
        raise RuntimeError(f"isocurv imported from {isocurv.__file__}, not from {SRC}")
    work = WORKLOADS[name](seed, workdir)
    warm_up(work)
    return work


def fresh_setup_s(name: str, seed: int) -> float:
    """Process start through warm-up, timed in a new process."""
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                           "--setup-only"], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode:
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-2000:]}")
    return float(done.stdout.split()[-1]) - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# -- metadata -------------------------------------------------------------------


def blas_threads():
    """Threads the bundled OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD of the enclosing git checkout, read from .git without running git."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(f".git/{ref}"):
            with open(f".git/{ref}") as fh:
                return fh.read().strip()
        with open(".git/packed-refs") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metadata(name: str, args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for root, _dirs, files in sorted(os.walk(os.path.join(SRC, "isocurv"))):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(root, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    return {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "callers": 1, "loop": "closed",
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(tracer, requests: int, rates: tuple[float, float]):
    from spans import SPANNED, summarize

    summ = summarize(tracer)
    spanned = {f"{m}.{f}" for m, fs in SPANNED.items() for f in fs}
    out = {}
    for name, unit in PER_LAYER:
        head, _, field = name.rpartition(".")
        if field == "self_share":
            value = summ.module_self(head) / summ.traced_s
        elif field == "reuse_ratio":
            calls = summ.calls["planes.sample_planes"]
            value = summ.counters["planes.sample_planes.reused"] / calls if calls else 0.0
        elif field == "self_s":
            value = summ.self_s[head] / requests
        elif field == "busy_s":
            value = summ.busy_s[head] / requests
        elif field == "calls" and head in spanned:
            value = summ.calls[head] / requests
        elif name == "trace.requests_per_s":
            value = rates[1]
        elif name == "trace.untraced_requests_per_s":
            value = rates[0]
        else:
            value = summ.counters[name] / requests
        out[name] = {"value": value, "unit": unit}
    return out, summ


# -- one workload -----------------------------------------------------------------


def run_workload(name: str, args) -> int:
    meta = metadata(name, args)
    workdir = os.path.join(SCRATCH, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        work = setup(name, args.seed, workdir)
        if args.trace:
            metrics, loops, lines, ok = traced_run(work, name, args)
        else:
            metrics, loops, lines, ok = untraced_run(work, name, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(loop.latencies) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    print(f"workload {name}: seed {args.seed}, 1 closed-loop caller, "
          f"tensor bytes/request {work.tensor_bytes}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for k, m in metrics.items():
        print(f"  {k:<52} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<52} {failed / attempted:>14.6g} "
          f"(failed/attempted = {failed}/{attempted})")
    for line in lines + [e for loop in loops for e in loop.errors]:
        print("  " + line)
    correct = failed == 0 and ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def untraced_run(work, name: str, args):
    """The timed loop in SETUP_RUNS - 1 parts, with a set-up process timed
    before, between and after them."""
    from reference import Reference

    reference = Reference()
    for _ in range(3):
        reference()
    setups, loop = [fresh_setup_s(name, args.seed)], Loop()
    for _ in range(SETUP_RUNS - 1):
        loop.run(work, args.seconds / (SETUP_RUNS - 1), reference=reference)
        setups.append(fresh_setup_s(name, args.seed))
    ratios = [t / r for t, r in zip(loop.latencies, loop.refs)]
    ref_tail, pct, beyond = tail(ratios)
    values = [statistics.median(setups), kind_median(ratios, loop.kinds), ref_tail, peak_rss_mb()]
    metrics = {k: {"value": v, "unit": u} for (k, u), v in zip(END_TO_END, values)}
    n, kinds = len(loop.latencies), len(set(loop.kinds))
    ms_tail, _, _ = tail(loop.latencies)
    lines = [f"{n} requests in {loop.wall_s:.3f} s timed wall, {n // kinds} of each of "
             f"{kinds} kinds",
             f"setup_s is the median of {', '.join(f'{s:.4f}' for s in setups)}",
             "latency_p50_ref is the mean over request kinds of each kind's median; "
             f"latency_tail_ref is p{pct:.1f} of {n} samples ({beyond} beyond it)",
             f"reference computation (1 ref): median {1e3 * statistics.median(loop.refs):.4f} ms, "
             f"range {1e3 * min(loop.refs):.4f} to {1e3 * max(loop.refs):.4f} ms",
             "in host time, not reported because the host's speed drifts:",
             f"  requests_per_s {loop.rate:.6g} 1/s",
             f"  latency_p50_ms {1e3 * kind_median(loop.latencies, loop.kinds):.6g} ms",
             f"  latency_tail_ms {1e3 * ms_tail:.6g} ms"]
    return metrics, [loop], lines, True


def traced_run(work, name: str, args):
    """A traced warm-up round (dropped), then traced and untraced rounds in
    turn, so that the overhead estimate sees the same machine conditions on
    both sides.  The per-layer metrics come from the traced rounds."""
    from spans import Instrumented, Tracer, self_times

    tracer = Tracer()
    with Instrumented(tracer):
        warm_up(work, tracer)
    tracer.clear()
    untraced, loop = Loop(), Loop()
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        untraced.run(work, 0.0)
        with Instrumented(tracer):
            loop.run(work, 0.0, tracer)
    requests = len(loop.latencies)
    metrics, summ = layer_metrics(tracer, requests, (untraced.rate, loop.rate))

    os.makedirs(os.path.join(SCRATCH, "trace"), exist_ok=True)
    path = os.path.join(SCRATCH, "trace", f"{name}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for s, self_s in zip(tracer.spans, self_times(tracer.spans)):
            fh.write(json.dumps([s.name, s.tag, s.request, s.parent, s.start, s.end, self_s]) + "\n")

    lines = [f"tracing overhead: requests_per_s untraced {untraced.rate:.4f} "
             f"({len(untraced.latencies)} requests), traced {loop.rate:.4f} "
             f"({requests} requests): {100 * (untraced.rate / loop.rate - 1):+.1f}%",
             f"traced request time {summ.traced_s / requests:.6f} s/req; self times sum to it "
             f"within {summ.worst_gap_s:.2e} s in every request",
             f"spans written to {os.path.relpath(path)}",
             "self-time share by span:"]
    for span, t in sorted(summ.self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {span:<48} {100 * t / summ.traced_s:6.2f}%  "
                     f"{summ.calls[span] / requests:10.2f} calls/req")
    return metrics, [untraced, loop], lines, summ.worst_gap_s < 1e-6


def run_all(args) -> int:
    """Each workload in its own process; relays their reports."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status |= done.returncode
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps({"correct": status == 0, "workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    if not os.path.isfile(os.path.join(SRC, "isocurv", "__init__.py")):
        print(f"error: no isocurv sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        workdir = os.path.join(SCRATCH, f"setup-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            setup(args.workload, args.seed, workdir)
            print(time.monotonic())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    return run_workload(args.workload, args)


if __name__ == "__main__":
    sys.exit(main())
