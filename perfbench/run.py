#!/usr/bin/env python3
"""varcert benchmark: certificate latency, throughput and verdict correctness.

Run from the repository root:

    python3 perfbench/run.py --workload certify_asserted --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The program is driven only through ``varcert.cli.run(argv)``, in this
process, by one client in a closed loop: each call starts when the previous
one returns.  Every certificate-issuing call is followed by ``recheck`` on
the certificate it wrote, and every verdict is checked against the answer
known from how the instance was built (see instances.py).

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs a fixed list of operations untraced and then traced, and prints the
per-layer metrics and the tracing overhead.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

# pinned before numpy loads: the machine this was sized on has two cores,
# and BLAS threads would compete with the single client
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import instances  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A run does a fixed amount of work: round(seconds / cycle_s) whole cycles,
# at least one, where cycle_s is one cycle's wall time on a 2-core x86-64
# Xeon.  Fixed work keeps runs of the same seed comparable across commits: a
# faster program finishes sooner, instead of doing more operations and
# growing caches that peak_rss_mb would then charge to it.  rechecks > 1
# repeats each recheck for more samples where a cycle issues few
# certificates; the repeats are left out of certs_per_s.
WORKLOADS = {
    "certify_asserted": {"cycle_s": 0.5, "rechecks": 1},
    "nlp_estimate": {"cycle_s": 0.9, "rechecks": 3},
    "sip_estimate": {"cycle_s": 47.0, "rechecks": 25},
}
SETUP_LAUNCHES = 11
# seconds between reference samples during one call (see speed.Sampler)
SAMPLE_S = 0.05
EXIT_USAGE, EXIT_NUMERICAL = 3, 4

SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from varcert import cli
build = {"nlp": cli.build_nlp, "sip": cli.build_sip, "sdp": cli.build_sdp}
for path in sys.argv[2:]:
    doc = cli.load_problem(path)
    build[doc["kind"]](doc)
"""


# ---------------------------------------------------------------------------
# machine information

def git_sha():
    """HEAD's commit, read from .git without running git; None outside a clone."""
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


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_info(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": np.__version__,
        "thread_pinning": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# running operations

class Loop:
    """The single closed-loop client and what it measured.

    The timings are each call's wall time rescaled to the reference speed
    sampled around and during it (see speed.py); the raw wall times are
    kept for the report.
    """

    def __init__(self, cli, rechecks, tracer=None):
        self.cli = cli
        self.rechecks = rechecks
        self.tracer = tracer
        self.sampler = speed.Sampler(None if tracer else SAMPLE_S)
        self.wall_s = []  # per call into varcert
        self.factors = []  # per call, REF_S over its mean reference time
        self.issues = []  # (command, index of the issuing call)
        self.certificates = []  # (command, indexes of the certificate's rechecks)
        self.log = []  # (problem file, command, issue wall seconds)
        self.attempted = 0
        self.failures = []

    def _cli(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if self.tracer is None:
                code, dt, factor = self.sampler.time(lambda: self.cli.run(argv))
            else:
                code, dt, factor = self.sampler.time(
                    lambda: self.tracer.operation(self.attempted, lambda: self.cli.run(argv)))
        self.wall_s.append(dt)
        self.factors.append(factor)
        return code, dt

    def operation(self, path, call):
        """One issuing call and its recheck; returns why it failed, or None."""
        out = Path(f"{path[:-5]}.{call.command}.out.json")
        out.unlink(missing_ok=True)
        argv = [call.command, "-p", path, *call.args, "--out", str(out)]
        code, dt = self._cli(argv)
        self.issues.append((call.command, len(self.wall_s) - 1))
        self.log.append((Path(path).name, call.command, dt))
        if code in (EXIT_USAGE, EXIT_NUMERICAL):
            return f"exit code {code}"
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        reason = call.check(code, doc)
        calls = []
        for _ in range(self.rechecks if call.writes_certificate else 0):
            again, _ = self._cli(["recheck", "-p", path, "-c", str(out)])
            calls.append(len(self.wall_s) - 1)
            if again != code:
                reason = reason or f"recheck exit code {again} disagrees with the issued {code}"
        if calls:
            self.certificates.append((call.command, calls))
        return reason

    def run_cycles(self, cycles):
        for cycle in cycles:
            self._run_cycle(cycle)

    def timings(self, normalized=True):
        """Issue times, per-certificate recheck medians and busy time.

        Each as {command: [seconds]}, except busy time.  One recheck sample
        per certificate, the median of its rechecks, so repeats do not
        outweigh the other certificates of the cycle.  Busy time is the
        issuing calls plus each certificate's first recheck.
        """
        scale = self.factors if normalized else [1.0] * len(self.wall_s)
        t = [dt * f for dt, f in zip(self.wall_s, scale)]
        issue, recheck = {}, {}
        for command, i in self.issues:
            issue.setdefault(command, []).append(t[i])
        for command, calls in self.certificates:
            recheck.setdefault(command, []).append(statistics.median(t[i] for i in calls))
        busy = sum(t[i] for _, i in self.issues) + sum(t[calls[0]] for _, calls in self.certificates)
        return issue, recheck, busy

    def _run_cycle(self, cycle):
        for inst, path in cycle:
            for call in inst.calls:
                try:
                    reason = self.operation(path, call)
                except Exception:  # a raising call is a failed operation
                    reason = traceback.format_exc(limit=3)
                if reason:
                    self.failures.append(f"{Path(path).name} {call.command}: {reason}")
                self.attempted += 1


def command_p50(times):
    """The per-command medians, averaged with the commands' call counts as weights.

    A plain median over a mix of commands falls between their clusters
    (nlp_estimate issues kkt and cq half and half) and jumps with them.
    """
    count = sum(len(v) for v in times.values())
    return sum(len(v) * statistics.median(v) for v in times.values()) / count


def pooled(times):
    return [x for v in times.values() for x in v]


def materialize(args, workdir):
    """Write the run's problem files; returns one [(instance, path)] per cycle."""
    count = max(1, round(args.seconds / WORKLOADS[args.workload]["cycle_s"]))
    cycles = []
    for index in range(count):
        cycle = []
        for inst in instances.cycle(args.workload, args.seed, index):
            path = workdir / f"c{index}-{inst.label}.json"
            path.write_text(json.dumps(inst.problem), encoding="utf-8")
            cycle.append((inst, str(path)))
        cycles.append(cycle)
    return cycles


def setup_launch(paths):
    """Wall time of a fresh interpreter importing varcert and building ``paths``.

    Not rescaled by the reference speed (see speed.py): rescaling each
    launch by the reference, timed in the parent after it or in the child
    after its build, did not narrow the spread across runs.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), *paths],
                   check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
    return perf_counter() - t0


def tail(values):
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    xs = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        idx = max(0, math.ceil(p / 100.0 * len(xs)) - 1)
        if len(xs) - idx - 1 >= 10:
            return {"percentile": p, "value_s": xs[idx], "samples": len(xs),
                    "beyond": len(xs) - idx - 1}
    return {"percentile": None, "samples": len(xs)}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(args, cli, workdir):
    cycles = materialize(args, workdir)
    paths = [path for _, path in cycles[0]]
    loop = Loop(cli, WORKLOADS[args.workload]["rechecks"])
    # the set-up launches are spread over the run, between cycles, so that
    # their median sees the host's drifting speed as the whole run does
    setup = []
    for index, cycle in enumerate(cycles):
        while len(setup) * len(cycles) <= index * SETUP_LAUNCHES:
            setup.append(setup_launch(paths))
        loop.run_cycles([cycle])
    while len(setup) < SETUP_LAUNCHES:
        setup.append(setup_launch(paths))
    issue, recheck, busy = loop.timings()
    metrics = {
        "issue_cmd_p50_s": (command_p50(issue), "s"),
        "recheck_cmd_p50_s": (command_p50(recheck), "s"),
        "certs_per_s": (loop.attempted / busy, "1/s"),
        "correct_frac": ((loop.attempted - len(loop.failures)) / loop.attempted, "frac"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    wall_issue, wall_recheck, wall_busy = loop.timings(normalized=False)
    report = {"cycles": len(cycles), "busy_s": busy,
              "issue_calls": {c: len(v) for c, v in issue.items()},
              "issue_p50_s": {c: statistics.median(v) for c, v in issue.items()},
              "recheck_p50_s": {c: statistics.median(v) for c, v in recheck.items()},
              "issue_tail": tail(pooled(issue)), "recheck_tail": tail(pooled(recheck)),
              "speed_p50": statistics.median(loop.factors),
              "wall": {"issue_cmd_p50_s": command_p50(wall_issue),
                       "recheck_cmd_p50_s": command_p50(wall_recheck),
                       "certs_per_s": loop.attempted / wall_busy}}
    return loop, metrics, report


def run_traced(args, cli, workdir):
    """The run's operations untraced, then again traced; per-layer metrics."""
    cycles = materialize(args, workdir)
    rechecks = WORKLOADS[args.workload]["rechecks"]
    plain = Loop(cli, rechecks)
    plain.run_cycles(cycles)
    untraced_s = plain.timings()[2]
    tracer = spans.Tracer()
    loop = Loop(cli, rechecks, tracer)
    with tracer:
        loop.run_cycles(cycles)
    traced_s = loop.timings()[2]
    loop.attempted += plain.attempted
    loop.failures += plain.failures
    metrics = tracer.metrics()
    metrics["bench.trace_overhead_s"] = (traced_s - untraced_s, "s")
    metrics["bench.trace_overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
    layers = {mod: metrics[f"{mod}.layer_self_s"][0] for mod in spans.LAYERS}
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(span_file)
    report = {"cycles": len(cycles), "untraced_s": untraced_s, "traced_s": traced_s,
              "dominant_layer": max(layers, key=layers.get),
              "spans_file": str(span_file.relative_to(ROOT))}
    return loop, metrics, report


# ---------------------------------------------------------------------------
# entry points

def run_one(args):
    if not (SRC / "varcert" / "__init__.py").is_file():
        print(f"error: varcert sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from varcert import cli
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        runner = run_traced if args.trace else run_untraced
        loop, metrics, report = runner(args, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if {k: u for k, (_, u) in metrics.items()} != declared:
        raise RuntimeError("metrics differ from those BENCHMARK.json declares")
    result = {"correct": not loop.failures, "attempted": loop.attempted,
              "failed": len(loop.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    info = {"machine": machine_info(args), "report": report, "failures": loop.failures[:20]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**info, **result, "calls": loop.log, "call_wall_s": loop.wall_s,
                    "call_factor": loop.factors}), encoding="utf-8")
    for reason in loop.failures[:5]:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>16} {name:<48} {value:>14.6g} {unit}")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own interpreter, then one combined result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
