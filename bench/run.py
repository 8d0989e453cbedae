#!/usr/bin/env python3
"""optiform's benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is used from ./src, not
installed).  Set-up generates the workload's documents from the seed, writes
them under .bench_work/ and starts a warm worker process; it is done nine
times and its median reported.  Then, until S seconds have passed, whole
rounds run: each round runs the workload's optiform commands one after
another, once as separate `python3 -m optiform.cli` processes and twice in
the warm worker through `optiform.cli.main(argv)`, and checks every output.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics: setup_s (median of the set-ups), cli_s and api_s (each the sum over
the workload's commands of the command's median wall time over the rounds)
and peak_rss_mib (peak resident memory of the warm worker).  Each time is
scaled to the machine's reference speed by a probe run just before and just
after it (see at_reference_speed).  With --trace 1
each round instead runs the in-process pass twice, once plainly and once in
a second worker with wrappers around every layer (spans.py), and the line
holds the per-layer metrics of the traced passes; the span tree of the last
traced pass is written to .bench_out/.  Load comes from this single client,
one command at a time; the client, the worker and every CLI process are
pinned to one CPU.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPEATS = 9
STARTUP_SAMPLES = 5
#: The probe is a fixed loop of exact arithmetic, the kind of work optiform
#: does; it takes PROBE_REFERENCE_S on this machine at full speed.
PROBE_LOOPS = 2500
PROBE_REFERENCE_S = 0.005


def probe():
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(PROBE_LOOPS):
        acc += Fraction(i % 7, 3)
    return time.perf_counter() - t0


def at_reference_speed(seconds, before, after):
    """A wall time scaled by how much slower than PROBE_REFERENCE_S the
    probes just before and after it ran.

    On a shared host this machine's speed drifts by up to about 2x over
    seconds to minutes, often for all of a run (see README).  The probe
    slows with the command it brackets, so the scaled time repeats where
    the wall time does not."""
    return seconds * 2 * PROBE_REFERENCE_S / (before + after)


def program_env(root):
    """The environment optiform runs in: `src` first on PYTHONPATH, and the
    bytecode cache on (as for an installed package), whatever the caller's
    PYTHONDONTWRITEBYTECODE says."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """The warm process running `optiform.cli.main` on request."""

    def __init__(self, root, traced):
        argv = [sys.executable, os.path.join(HERE, "worker.py"), root]
        if traced:
            argv.append("--trace")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=root, env=program_env(root))
        if not self.ask(None).get("ready"):
            raise RuntimeError("worker did not start")

    def ask(self, request):
        if request is not None:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited with %s" % self.proc.wait())
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


class Run:
    def __init__(self, root, work, plan):
        self.root = root
        self.plan = plan
        self.in_dir = os.path.join(work, "in")
        self.work = work
        self.checker = workloads.Checker(self.in_dir)
        self.env = program_env(root)
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.verified = set()

    def pass_dir(self, name):
        path = os.path.join(self.work, name)
        os.makedirs(path, exist_ok=True)
        return path

    def resolve(self, argv, pass_dir):
        out = []
        for a in argv:
            if a.startswith("@"):
                name = a[1:]
                inp = os.path.join(self.in_dir, name)
                out.append(inp if name in self.plan.docs else os.path.join(pass_dir, name))
            else:
                out.append(a)
        return out

    def out_path(self, step, pass_dir):
        return os.path.join(pass_dir, step.out or step.label + ".stdout")

    def cli_pass(self):
        """Each command as its own process; returns per-step seconds at
        reference speed."""
        pdir = self.pass_dir("cli")
        times = []
        for step in self.plan.steps:
            path = self.out_path(step, pdir)
            argv = [sys.executable, "-m", "optiform.cli"] + self.resolve(step.argv, pdir)
            with open(path, "w") as fh:
                before = probe()
                t0 = time.perf_counter()
                proc = subprocess.run(argv, stdout=fh, stderr=subprocess.PIPE,
                                      env=self.env, cwd=self.root)
                seconds = time.perf_counter() - t0
            times.append(at_reference_speed(seconds, before, probe()))
            self.check(step, pdir, proc.returncode, path, proc.stderr.decode()[-500:])
        return times

    def api_pass(self, worker, name):
        """Each command through the warm worker; returns per-step seconds
        at reference speed."""
        pdir = self.pass_dir(name)
        times = []
        for step in self.plan.steps:
            path = self.out_path(step, pdir)
            before = probe()
            reply = worker.ask({"argv": self.resolve(step.argv, pdir), "out": path,
                                "label": step.label})
            times.append(at_reference_speed(reply["seconds"], before, probe()))
            self.check(step, pdir, reply["code"], path, reply["stderr"])
        return times

    def check(self, step, pdir, code, path, stderr):
        """Check one output.  An output byte-identical to one already
        verified for the same step, exit code and input files passes
        without recomputing; only passing outputs are remembered."""
        self.attempted += 1
        with open(path) as fh:
            text = fh.read()
        key = hashlib.sha256(("%s\0%d\0" % (step.label, code)).encode())
        key.update(text.encode())
        for arg in self.resolve(step.argv, pdir):
            if os.path.isfile(arg):
                with open(arg, "rb") as fh:
                    key.update(fh.read())
        key = key.digest()
        if key in self.verified:
            return
        reason = self.checker.run(step, pdir, code, text)
        if reason is None:
            self.verified.add(key)
        else:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("%s: %s %s" % (step.label, reason, stderr.strip()))


def sum_of_medians(rounds):
    """Sum over steps of each step's median time across rounds."""
    return sum(statistics.median(col) for col in zip(*rounds))


def setup(root, work, name, seed, size):
    """Generate and write the documents and start the warm worker, several
    times; returns (median seconds at reference speed, plan, worker)."""
    times, plan, worker = [], None, None
    for _ in range(SETUP_REPEATS):
        if worker is not None:
            worker.close()
        shutil.rmtree(work, ignore_errors=True)
        before = probe()
        t0 = time.perf_counter()
        plan = workloads.WORKLOADS[name](seed, workloads.SIZES[size])
        in_dir = os.path.join(work, "in")
        os.makedirs(in_dir)
        for fname, doc in plan.docs.items():
            with open(os.path.join(in_dir, fname), "w") as fh:
                json.dump(doc, fh)
        worker = Worker(root, traced=False)
        times.append(at_reference_speed(time.perf_counter() - t0, before, probe()))
    return statistics.median(times), plan, worker


def startup_seconds(run):
    """Fastest wall time of a fresh interpreter that imports optiform.cli."""
    samples = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import optiform.cli"], env=run.env,
                       cwd=run.root, check=True)
        samples.append(time.perf_counter() - t0)
    return min(samples)


def measure(root, work, args, size="full"):
    setup_s, plan, worker = setup(root, work, args.workload, args.seed, size)
    workers = [worker]
    run = Run(root, work, plan)
    try:
        if args.trace:
            traced = Worker(root, traced=True)
            workers.append(traced)
        plain, traced_times, cli_times, layers = [], [], [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < args.seconds:
            if args.trace:
                plain.append(run.api_pass(worker, "api"))
                traced_times.append(run.api_pass(traced, "traced"))
                layers.append(traced.ask({"layers": True})["layers"])
            else:
                # The in-process pass is the cheaper one and the noisier
                # figure, so it is sampled twice per round.
                cli_times.append(run.cli_pass())
                plain.append(run.api_pass(worker, "api"))
                plain.append(run.api_pass(worker, "api"))
        if args.trace:
            out_dir = os.path.join(root, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            traced.ask({"spans": os.path.join(
                out_dir, "spans-%s-%d.json" % (args.workload, args.seed))})
            metrics = {k: (min(r[k] for r in layers), unit_of(k)) for k in layers[0]}
            metrics["cli.startup_s"] = (startup_seconds(run), "s")
            metrics["cli.processes"] = (len(plan.steps), "count")
            metrics["trace.overhead_s"] = (
                sum_of_medians(traced_times) - sum_of_medians(plain), "s")
        else:
            rss = worker.ask({"rss": True})["rss_kib"]
            metrics = {
                "setup_s": (setup_s, "s"),
                "cli_s": (sum_of_medians(cli_times), "s"),
                "api_s": (sum_of_medians(plain), "s"),
                "peak_rss_mib": (rss / 1024.0, "MiB"),
            }
    finally:
        for w in workers:
            w.close()
    for reason in run.reasons:
        print("failed: %s" % reason, file=sys.stderr)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("serialize.bytes"):
        return "bytes"
    if metric.endswith("_per_assignment"):
        return "ratio"
    return "count"


def pin_to_one_cpu():
    """Keep this process and every process it starts on one CPU, so no
    timed command migrates between CPUs or competes with the client."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "optiform", "cli.py")):
        print("error: run from the root of an optiform checkout (no src/optiform here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    pin_to_one_cpu()
    work = os.path.join(root, ".bench_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        result = measure(root, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
