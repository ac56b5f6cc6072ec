"""The benchmark's workloads: seeded request generators.

Each workload turns the workload seed into an endless, deterministic
sequence of `serve` request lines. The seed changes the generated
inputs (MC master seeds, request order, formats) but never the cost mix:
every seed sends the same grids, replication counts and shard pattern,
so runs on different seeds measure the same amount of work.

One request in four (one in five for cache-replay) is sent at one shard
instead of nproc; those feed ``scaling_eff`` only.
"""

import itertools
import random
from dataclasses import dataclass

SCALING_EVERY = 4

#: The warm-up request whose END marks the end of set-up.
SETUP_BODY = "sweep grid=paper format=csv"

NETWORK_REPS = 100
NETWORK_TOPOLOGIES = ("wye3", "star4", "cycle4")


@dataclass(frozen=True)
class Op:
    body: str  # the request without shards/cache: the reference-digest key
    shards: int
    klass: str  # operations of one class cost the same (scaling pairs)
    cache_dir: str = ""  # cache-replay only
    expect: str = ""  # "miss" | "hit" for cache-replay responses
    scaling: bool = False  # the one-shard op of a scaling pair

    def serve_line(self):
        line = f"{self.body} shards={self.shards}"
        if self.cache_dir:
            line += f" cache={self.cache_dir}"
        return line

    def reps(self):
        """Replications per cell (1 for sweep and optimize)."""
        return int(dict(w.split("=", 1) for w in self.body.split()[1:]).get("reps", 1))


def _seed_values(rng, count):
    return [rng.randrange(1, 2**32) for _ in range(count)]


def _formats(rng):
    pair = ["csv", "json"]
    rng.shuffle(pair)
    return pair


def mc_bodies(seed):
    rng = random.Random(f"mc-poisson:{seed}")
    seeds = _seed_values(rng, 2)
    return [f"mc grid=screening-200 reps=10 seed={s} format={f}"
            for s, f in zip(seeds, _formats(rng))]


def sweep_bodies(seed):
    rng = random.Random(f"sweep-pv:{seed}")
    return [f"sweep grid=screening-200 format={f}" for f in _formats(rng)]


def network_bodies(seed):
    """The network days the traced run's ledger simulates: one seed, each
    topology."""
    [day_seed] = _seed_values(random.Random(f"network-day:{seed}"), 1)
    return [f"network topology={t} reps={NETWORK_REPS} seed={day_seed} format=csv"
            for t in NETWORK_TOPOLOGIES]


def cache_keys(seed):
    """The cache-replay keys."""
    rng = random.Random(f"cache-replay:{seed}")
    a, b = _seed_values(rng, 2)
    return ["sweep grid=mixed-8", "optimize grid=mixed-8",
            f"mc grid=mixed-8 reps=5 seed={a}", f"mc grid=mixed-8 reps=5 seed={b}",
            "optimize grid=screening-200"]


def _alternating(bodies, nproc):
    """Bodies in turn at nproc shards, every SCALING_EVERY-th op at one
    shard (taking the bodies in turn as well)."""
    at_n, at_1 = itertools.cycle(bodies), itertools.cycle(bodies)
    for k in itertools.count():
        one = k % SCALING_EVERY == SCALING_EVERY - 1
        body = next(at_1 if one else at_n)
        yield Op(body, 1 if one else nproc, body, scaling=one)


def _cache_replay(seed, nproc, work_dir):
    """Requests against one fresh cache directory: every key once (a miss
    that stores), then rounds of hits, five per key, one of them at one
    shard. Formats alternate per key. Each key is stored once per run:
    storing the keys again every few hundred milliseconds made the disk
    set the pace, and it slowed down from run to run as the writes piled
    up."""
    rng = random.Random(f"cache-replay-order:{seed}")
    keys = cache_keys(seed)
    cache = f"{work_dir}/cache-replay"
    first = {key: rng.choice(["csv", "json"]) for key in keys}
    other = {key: "json" if fmt == "csv" else "csv" for key, fmt in first.items()}
    misses = [Op(f"{k} format={first[k]}", nproc, f"{k}|miss", cache, "miss") for k in keys]
    rng.shuffle(misses)
    yield from misses
    while True:
        hits = []
        for k in keys:
            hits += [Op(f"{k} format={fmt}", nproc, f"{k}|hit", cache, "hit")
                     for fmt in (other[k], first[k], other[k], first[k])]
            hits.append(Op(f"{k} format={other[k]}", 1, f"{k}|hit", cache, "hit",
                           scaling=True))
        rng.shuffle(hits)
        yield from hits


@dataclass(frozen=True)
class Workload:
    name: str
    work: str  # the unit a response's work is counted in

    def ops(self, seed, nproc, work_dir):
        if self.name == "mc-poisson":
            return _alternating(mc_bodies(seed), nproc)
        if self.name == "sweep-pv":
            return _alternating(sweep_bodies(seed), nproc)
        return _cache_replay(seed, nproc, work_dir)

    def bodies(self, seed):
        """Every distinct body the workload sends (for reference digests)."""
        if self.name == "mc-poisson":
            return mc_bodies(seed)
        if self.name == "sweep-pv":
            return sweep_bodies(seed)
        return [f"{k} format={f}" for k in cache_keys(seed) for f in ("csv", "json")]

    def probe_bodies(self, seed):
        """Uncached serve requests the traced run times from the client
        and in-process."""
        if self.name == "cache-replay":
            rng = random.Random(f"cache-replay-probe:{seed}")
            return [f"{k} format={rng.choice(['csv', 'json'])}" for k in cache_keys(seed)]
        return self.bodies(seed)


WORKLOADS = {w.name: w for w in [
    Workload("mc-poisson", "cell_days"),
    Workload("sweep-pv", "cells"),
    Workload("cache-replay", "cells"),
]}
