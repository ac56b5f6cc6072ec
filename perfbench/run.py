#!/usr/bin/env python3
"""Corridor benchmark: drives `serve` from outside.

    python3 perfbench/run.py --workload mc-poisson --seed 1 --seconds 20 --trace 0

Run from the repository root. The script builds the `serve` binary and
the helper package in `perfbench/` (release profile, into
$CARGO_TARGET_DIR, default `.bench_build`), generates the workload's
requests from `--seed`, and measures for `--seconds`.

--trace 0 reports the end-to-end metrics, measured untraced: the ones
BENCHMARK.json bounds (set-up and work per second in CPU time of `serve`
and its workers, scaling efficiency, peak RSS), and beside them the
wall-clock figures with the share of CPU time the hypervisor stole.
--trace 1 is the traced run: the per-layer ledger (see
perfbench/src/ledger.rs) plus client-side serve phase timings, repeated
in fresh processes until `--seconds` have passed; each per-layer value
is the median over those rounds.

Every response is verified: the END sha256 must equal the SHA-256 of
the payload received and the in-process reference digest computed during
set-up; cache-replay trailers must report all misses on a key's first request
and all hits afterwards. The last stdout line is the JSON
result; the full record (host, toolchain, commit, seed, sample counts)
is written to .bench_work/results/.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from client import BenchError, Processes, ServeSession, worker_spawn  # noqa: E402
from workloads import SETUP_BODY, WORKLOADS, mc_bodies, network_bodies  # noqa: E402

WORK_DIR = ".bench_work"
#: Launches per run whose set-up time is measured.
SETUP_LAUNCHES = 40
#: Wall-clock figures the run prints and records beside the declared
#: metrics, with their units. They carry no regression bound: on a
#: shared host they move with the CPU time the hypervisor steals (see
#: README.md, Noise), which `steal_share` reports for the run.
WALL_CLOCK_UNITS = {"setup_wall_s": "s", "throughput_per_s": "1/s", "latency_p50_s": "s",
                    "latency_tail_s": "s", "first_row_p50_s": "s", "steal_share": "ratio"}
#: Worker spawns timed per traced round.
SPAWN_SAMPLES = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(env):
    for cmd in (["cargo", "build", "--release", "--offline", "-q", "-p", "corridor_bench",
                 "--bin", "serve"],
                ["cargo", "build", "--release", "--offline", "-q",
                 "--manifest-path", "perfbench/Cargo.toml"]):
        if subprocess.run(cmd, env=env, stdout=sys.stderr.fileno()).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the measured binaries are built from, so
    results from checkouts without git history still name their code."""
    digest = hashlib.sha256()
    paths = [p for p in ("Cargo.toml", "Cargo.lock") if os.path.isfile(p)]
    for top in ("crates", "shims", "perfbench"):
        for base, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d not in ("__pycache__", "target"))
            paths += [os.path.join(base, f) for f in sorted(files)]
    for path in sorted(paths):
        digest.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


def release_profile():
    settings, inside = [], False
    with open("Cargo.toml") as manifest:
        for line in manifest:
            line = line.strip()
            if line.startswith("["):
                inside = line == "[profile.release]"
            elif inside and "=" in line:
                settings.append(line.replace(" ", ""))
    return "release" + (f" ({', '.join(settings)})" if settings else "")


def reference_digests(helper, bodies, log):
    """In-process stream digests, keyed by request body."""
    bodies = sorted(set(bodies))
    out = subprocess.run([helper, "digest"], input="\n".join(bodies) + "\n",
                         capture_output=True, text=True, timeout=120)
    log.write(out.stderr.encode())
    lines = out.stdout.split("\n")
    if out.returncode != 0 or len(lines) < len(bodies):
        raise BenchError(f"reference digests failed: {out.stderr.strip()}")
    return {body: line.split()[0] for body, line in zip(bodies, lines)}


def clear_caches():
    """Removes the result-cache directories runs create under WORK_DIR."""
    for entry in os.listdir(WORK_DIR):
        if entry.startswith(("cache-", "ledger-cache")):
            shutil.rmtree(os.path.join(WORK_DIR, entry), ignore_errors=True)


def children_cpu_s():
    """User + system CPU seconds of the children reaped so far, with the
    children they reaped: `serve` and its workers. Time the hypervisor
    steals from the guest is not in it."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cpu_counters():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    with open("/proc/stat") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    return fields[7], sum(fields)


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """The highest percentile with at least ten samples beyond it (the
    11th largest sample), with its level in percent."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return (ordered[-1] if ordered else float("nan")), 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def class_medians(samples):
    """Median latency per class of equal-cost operations."""
    by_class = {}
    for op, latency, *_ in samples:
        by_class.setdefault(op.klass, []).append(latency)
    return {klass: statistics.median(v) for klass, v in by_class.items()}


def scaling_eff(samples, nproc):
    """Σ one-shard time / (nproc · Σ nproc-shard time), over the class
    medians of equal-cost operations sent both ways."""
    one = class_medians([s for s in samples if s[0].scaling])
    many = class_medians([s for s in samples if not s[0].scaling])
    common = sorted(set(one) & set(many))
    if not common:
        return float("nan")
    return sum(one[k] for k in common) / (nproc * sum(many[k] for k in common))


class Tally:
    def __init__(self):
        self.attempted, self.failed, self.notes = 0, 0, []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def verify(tally, response, reference, op=None):
    """Digest, trailer and cache checks of one serve response."""
    fields = response.fields
    ok = (response.ok and response.payload_sha == fields.get("sha256")
          and response.payload_sha == reference)
    if ok and op is not None and op.expect:
        cells, hits, misses = fields.get("rows"), fields.get("cache_hits"), fields.get("cache_misses")
        ok = (hits, misses) == (("0", cells) if op.expect == "miss" else (cells, "0"))
    return tally.record(ok, f"{op.serve_line() if op else 'request'}: "
                            f"{response.error or fields}")


def served_work(op, response):
    """Cells (sweep, optimize) or cell-days (mc) of a response, from its
    BEGIN line."""
    return int(response.head.get("cells", 0)) * op.reps()


def start_session(procs, bins, refs, tally, log):
    """Launches `serve` and sends the one-cell warm-up request."""
    session = ServeSession(procs, bins["serve"], log)
    verify(tally, session.request(f"{SETUP_BODY} shards=1"), refs[SETUP_BODY])
    return session


def serve_setup(procs, bins, refs, tally, log):
    """Set-up samples of launches that each serve the warm-up request and
    exit: the CPU time of `serve` and its worker, and the wall time from
    launch to the END trailer."""
    cpu, wall = [], []
    for _ in range(SETUP_LAUNCHES):
        before = children_cpu_s()
        session = start_session(procs, bins, refs, tally, log)
        wall.append(time.perf_counter() - session.launched)
        tally.record(session.close() == 0, "serve exit status")
        cpu.append(children_cpu_s() - before)
    return cpu, wall


def e2e_run(workload, seed, seconds, nproc, bins, refs, procs, tally, log):
    samples = []  # (op, latency, first_row, work)
    setup_cpu, setup_wall = serve_setup(procs, bins, refs, tally, log)
    cpu_before, (steal_before, total_before) = children_cpu_s(), cpu_counters()
    session = start_session(procs, bins, refs, tally, log)
    deadline = time.perf_counter() + seconds
    for op in workload.ops(seed, nproc, WORK_DIR):
        if time.perf_counter() >= deadline:
            break
        response = session.request(op.serve_line())
        verify(tally, response, refs[op.body], op)
        samples.append((op, response.latency, response.first_row, served_work(op, response)))
    peak_rss_mb = session.peak_rss_mib() * 1.048576
    tally.record(session.close() == 0, "serve exit status")
    session_cpu = children_cpu_s() - cpu_before
    steal, total = cpu_counters()

    timed = [s for s in samples if not s[0].scaling]
    latencies = [s[1] for s in timed]
    tail_value, tail_level = tail(latencies)
    n, ones = len(timed), len(samples) - len(timed)
    work_rate = sum(s[3] for s in timed) / sum(latencies) if timed else float("nan")
    return {
        "setup_s": (median(setup_cpu), len(setup_cpu), "CPU time, median of launches"),
        "work_per_cpu_s": (sum(s[3] for s in samples) / session_cpu, len(samples),
                           f"{workload.work} per CPU-second of serve and its workers"),
        "scaling_eff": (scaling_eff(samples, nproc), ones,
                        f"{ones} one-shard requests vs shards={nproc}"),
        "peak_rss_mb": (peak_rss_mb, 1, "coordinator VmHWM"),
        "setup_wall_s": (median(setup_wall), len(setup_wall), "launch to END, median"),
        "throughput_per_s": (work_rate, n, f"{workload.work}_per_s: Σ work / Σ latency"
                                           f" of the shards={nproc} requests"),
        "latency_p50_s": (median(latencies), n, ""),
        "latency_tail_s": (tail_value, n, f"p{tail_level:.1f}: 10 samples beyond it"),
        "first_row_p50_s": (median([s[2] for s in timed]), n, ""),
        "steal_share": ((steal - steal_before) / max(total - total_before, 1), 1,
                        "of all CPU time in the timed session, stolen by the hypervisor"),
    }


def parse_ledger(text):
    metrics, checks, spans, probes = {}, [], [], []
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        words = rest.split()
        if kind == "metric":
            metrics[words[0]] = float(words[1])
        elif kind == "check":
            checks.append((words[0], words[1] == "ok", " ".join(words[2:])))
        elif kind == "span":
            spans.append((words[0], int(words[1]), float(words[2]), float(words[3])))
        elif kind == "probe":
            probes.append((float(words[1]), words[2]))
    return metrics, checks, spans, probes


def traced_round(workload, seed, nproc, bins, refs, procs, tally, log):
    metrics = {}
    bodies = workload.probe_bodies(seed)
    session = ServeSession(procs, bins["serve"], log)
    served = {}  # (body, shards) -> response
    for body in bodies:
        for shards in (nproc, 1):
            response = session.request(f"{body} shards={shards}")
            verify(tally, response, refs[body])
            served[body, shards] = response
    tally.record(session.close() == 0, "serve exit status")
    at_n = [served[body, nproc] for body in bodies]
    metrics["serve.begin_s"] = median([r.begin for r in at_n])
    metrics["serve.first_row_s"] = median([r.first_row - r.begin for r in at_n])
    metrics["serve.drain_s"] = median([r.drain for r in at_n])
    metrics["serve.scaling_eff"] = (sum(served[b, 1].latency for b in bodies)
                                    / (nproc * sum(r.latency for r in at_n)))

    spawns = [worker_spawn(procs, bins["serve"], log) for _ in range(SPAWN_SAMPLES)]
    for spawn in spawns:
        tally.record(spawn is not None, "serve --worker task")
    metrics["serve.worker_spawn_s"] = median([s for s in spawns if s is not None])

    argv = [bins["helper"], "ledger", "--work-dir", WORK_DIR, "--mc", mc_bodies(seed)[0]]
    for body in network_bodies(seed):
        argv += ["--network", body]
    for body in bodies:
        argv += ["--probe", f"{body} shards={nproc}"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=150)
    log.write(out.stderr.encode())
    if out.returncode != 0:
        raise BenchError(f"ledger failed: {out.stderr.strip()}")
    ledger, checks, spans, probes = parse_ledger(out.stdout)
    metrics.update(ledger)
    for name, ok, detail in checks:
        tally.record(ok, f"{name}: {detail}")
    for body, (seconds, sha) in zip(bodies, probes):
        tally.record(sha == refs[body], f"in-process probe digest {body}")
    metrics["serve.overhead_share"] = 1.0 - (sum(p[0] for p in probes)
                                             / sum(r.latency for r in at_n))
    return metrics, checks, spans


def traced_run(workload, seed, seconds, nproc, bins, refs, procs, tally, log):
    rounds, deadline = [], time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        metrics, checks, spans = traced_round(workload, seed, nproc, bins, refs, procs, tally, log)
        rounds.append(metrics)
    values = {name: (median([r[name] for r in rounds if name in r]), len(rounds), "")
              for name in rounds[0]}
    return values, checks, spans


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    if not (os.path.isfile("BENCHMARK.json") and os.path.isfile("Cargo.toml")
            and os.path.isdir("crates")):
        fail("run from the repository root (BENCHMARK.json, Cargo.toml, crates/)")
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    build(env)
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    bins = {"serve": os.path.join(release, "serve")}
    bins["helper"] = os.path.join(release, "corridor_perfbench")
    nproc = int(command_output([bins["helper"], "info"]).split()[1])
    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc,
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "git_commit": command_output(["git", "rev-parse", "HEAD"]) or "unavailable",
        "source_sha256": source_digest(), "build_profile": release_profile(),
        "client": "1 client, closed loop",
    }

    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    clear_caches()
    procs, tally = Processes(), Tally()
    checks, spans = [], []
    with open(os.path.join(WORK_DIR, "stderr.log"), "wb") as log:
        try:
            bodies = workload.bodies(args.seed) + workload.probe_bodies(args.seed)
            refs = reference_digests(bins["helper"], bodies + [SETUP_BODY], log)
            run = traced_run if args.trace else e2e_run
            result = run(workload, args.seed, args.seconds, nproc, bins, refs, procs, tally, log)
            if args.trace:
                values, checks, spans = result
            else:
                values = result
        except BenchError as error:
            fail(f"{workload.name}: {error}")
        finally:
            procs.stop_all()
            clear_caches()

    missing = [m["name"] for m in declared
               if m["name"] not in values or not math.isfinite(values[m["name"]][0])]
    if missing:
        fail(f"metrics not measured: {', '.join(missing)}")
    units = {m["name"]: m["unit"] for m in declared} | WALL_CLOCK_UNITS

    def show(name):
        value, n, note = values[name]
        print(f"  {name:<30} {value:>14.6g} {units[name]:<6} n={n:<5} {note}")

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for m in declared:
        show(m["name"])
    if not args.trace:
        print("  wall clock, no regression bound:")
        for name in WALL_CLOCK_UNITS:
            show(name)
    if args.trace:
        print(f"  scaling: threads sim.mc_inproc_scaling={values['sim.mc_inproc_scaling'][0]:.3f}"
              f" beside processes serve.scaling_eff={values['serve.scaling_eff'][0]:.3f}"
              f" (nproc={nproc}); end-to-end scaling_eff is in the --trace 0 result")
        for name, ok, detail in checks:
            print(f"  check {name}: {'ok' if ok else 'FAIL'} ({detail})")
        print("  spans (last round): name count total_s self_s")
        for name, count, total, own in spans:
            print(f"    {name:<18} {count:>7} {total:>10.6f} {own:>10.6f}")
    error_rate = tally.failed / max(tally.attempted, 1)
    print(f"  error_rate {error_rate:.6g} ({tally.failed} of {tally.attempted} operations failed)")
    for note in tally.notes:
        print(f"  failed: {note}")

    record = {"meta": meta, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": v, "unit": units.get(name, ""), "n": n, "note": note}
                          for name, (v, n, note) in values.items()},
              "checks": [{"name": c[0], "ok": c[1], "detail": c[2]} for c in checks]}
    path = os.path.join(WORK_DIR, "results",
                        f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }))


if __name__ == "__main__":
    main()
