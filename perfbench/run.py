#!/usr/bin/env python3
"""Time-to-verdict benchmark: one seeded workload per call.

    python3 perfbench/run.py --workload pll3-full --seed 1 --seconds 20 --trace 0

Builds perfbench.exe (perfbench/perfbench.ml) from source with dune, runs it
from the repository root, and prints one JSON object as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones (units and names come from BENCHMARK.json). --short runs
the small variant of the workload with the same output checks; it is what
perfbench/selftest.py uses.

Times are normalised to a reference machine speed: the run is pinned to
one vCPU, a speed sampler there times a fixed burst of work every
SAMPLE_PERIOD_S, and each operation's wall and CPU seconds are scaled by
REF_BURST_S over the mean burst time during that operation, to the power
SPEED_EXPONENT (see "Noise" in perfbench/README.md). Raw seconds go to
stderr.
"""

import argparse
import bisect
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["pll3-full", "pll4-p1", "atlas-daemon"]
# A run must end within 180 s; perfbench.exe is killed (with every process it
# started) well before that.
WATCHDOG_S = 170.0
# Set-up is timed from the spawn of perfbench.exe to its first timed
# operation. Besides the measured run's own, this many set-up-only spawns
# are timed and the median is reported.
SETUP_REPEATS = 4
SAMPLE_PERIOD_S = 0.1
# CPU seconds of one sampler burst at the reference speed: the median
# burst on the VM of perfbench/README.md's reference figures, under load.
REF_BURST_S = 1.5e-3
# The workloads' times move as the burst time to this power across the
# VM's speed phases: the slope of log operation time on log burst time
# was 1.29-1.65 in six of seven sets of five to ten runs of the three
# workloads (2.9 in one where the speed hardly varied), and 1.36 in a
# trial of the 3rd-order steps beside the burst.
SPEED_EXPONENT = 1.4
# An operation shorter than this many sample periods is normalised by the
# samples nearest to it.
MIN_SAMPLES = 5


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    done = subprocess.run(
        # No shared dune cache: the build stays inside the checkout.
        ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/perfbench.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def run_exe(args, extra=()):
    """Run perfbench.exe; return its raw JSON and the peak RSS (MB) of
    its whole process tree (wait4 folds in every reaped descendant)."""
    work = os.path.join("perfbench", "_work", args.workload)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work", work, *extra]
    if args.trace:
        cmd.append("--trace")
    if args.short:
        cmd.append("--short")
    cmd += ["--t0", repr(time.time())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)

    def kill_tree():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(WATCHDOG_S, kill_tree)
    watchdog.start()
    try:
        out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Forked workers and the daemon are reaped inside the tree; make sure
    # nothing of the group outlives the run.
    kill_tree()
    if proc.returncode != 0:
        fail(f"perfbench.exe exited with {proc.returncode}")
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("perfbench.exe printed no result")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def pin():
    """Pin this process, and so every process it starts, to one vCPU (the
    last one it may use); return it. The two vCPUs of the reference VM
    change speed largely independently (2-s means correlate at 0.35), so
    the sampler must share the vCPU the work runs on, and so all of a
    workload's processes share one."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Sampler:
    """The speed sampler, on the workload's vCPU, for the length of the
    measured run."""

    def __init__(self):
        self.proc = subprocess.Popen([EXE, "--sampler", repr(SAMPLE_PERIOD_S)], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def kill(self):
        self.proc.kill()
        self.proc.wait()

    def stop(self):
        """Close the sampler's stdin; return its samples as (start, cpu_s)
        pairs in time order."""
        try:
            out, _ = self.proc.communicate(timeout=10)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            fail(f"speed sampler exited with {self.proc.returncode}")
        samples = [tuple(map(float, l.split())) for l in out.decode().splitlines()]
        if not samples:
            fail("speed sampler gave no samples")
        return samples


def bursts_during(samples, t0, t1):
    """CPU seconds of the bursts that started in [t0, t1), or of the
    MIN_SAMPLES nearest to that span if it holds fewer."""
    starts = [t for t, _ in samples]
    lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
    inside = [c for _, c in samples[lo:hi]]
    if len(inside) >= MIN_SAMPLES:
        return inside, inside
    mid = 0.5 * (t0 + t1)
    near = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
    return inside, [c for _, c in near]


def normalise(op, samples):
    """An operation's wall and CPU seconds at the reference speed. The
    sampler's own bursts inside it are taken off its wall time first."""
    inside, used = bursts_during(samples, op["start"], op["start"] + op["wall_s"])
    scale = (REF_BURST_S / statistics.mean(used)) ** SPEED_EXPONENT
    return (op["wall_s"] - sum(inside)) * scale, op["cpu_s"] * scale


def setup_seconds(args, raw):
    samples = [raw["setup_s"]]
    for _ in range(SETUP_REPEATS):
        samples.append(run_exe(args, ["--setup-only"])[0]["setup_s"])
    return statistics.median(samples)


def end_to_end(raw, norm, peak_rss_mb, setup_s):
    ops = raw["ops"]
    walls = [w for w, _ in norm]
    return {
        "verdict_norm_s": statistics.median(walls),
        "verdicts_per_norm_min": statistics.median(
            60.0 * o["verdicts"] / w for o, w in zip(ops, walls)),
        "cpu_norm_s": statistics.median(c for _, c in norm),
        "peak_rss_mb": peak_rss_mb,
        "sdp_solves": statistics.median(o["solves"] for o in ops),
        "ipm_iters": statistics.median(o["iters"] for o in ops),
        "setup_s": setup_s,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--short", action="store_true")
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload}", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    cpu = pin()
    sampler = Sampler()
    try:
        raw, peak_rss_mb = run_exe(args)
    except BaseException:
        sampler.kill()
        raise
    samples = sampler.stop()
    print(f"perfbench: {args.workload} seed {args.seed}: {raw['inputs']}", file=sys.stderr)
    for p in raw["problems"]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    if not raw["ops"]:
        fail("no operation was attempted")
    norm = [normalise(o, samples) for o in raw["ops"]]
    ops = raw["ops"]
    slowdown = statistics.mean(c for _, c in samples) / REF_BURST_S
    print(f"perfbench: vCPU {cpu}; raw wall s {[round(o['wall_s'], 3) for o in ops]}, "
          f"raw CPU s {[round(o['cpu_s'], 3) for o in ops]}; slowdown {slowdown:.3f} "
          f"over {len(samples)} samples", file=sys.stderr)
    if args.trace:
        # A layer the workload does not reach is not recorded and reads 0;
        # a recorded name BENCHMARK.json does not know is a bug in perfbench.ml.
        wanted = spec["per_layer"]
        unknown = set(raw["layers"]) - {m["name"] for m in wanted}
        if unknown:
            fail(f"perfbench.exe reported unknown layers {', '.join(sorted(unknown))}")
        layers = dict(raw["layers"], **{"machine.slowdown": slowdown})
        values = {m["name"]: layers.get(m["name"], 0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(raw, norm, peak_rss_mb, setup_seconds(args, raw))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"perfbench.exe did not report {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = raw["correct"] and all(
        isinstance(v["value"], (int, float)) for v in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
