"""Pure helpers of the repository benchmark: workload definitions,
input generation from a seed, statistics, output checks and metric
formulas. Nothing here starts a process; run.py does that."""

import math
import random
import statistics

# Table I order (workloadRegistry()).
KERNELS = ("SF BT GA BP PF BO ST S2 LU KM DW NW SV CU MQ SG FD MC SD S1 "
           "SQ LB HS HT SN DC WT BF CF DX SC LK BS HW").split()
# allDesigns(), paper order.
DESIGNS = ["Base", "R", "RL", "RLP", "RLPV", "RPV", "RLPVc", "NoVSB",
           "Affine", "Affine+RLPV"]
# Kernels whose cycle count on the detailed memory backend is at least
# 3x their fixed-backend count: a traced run times them on both
# backends.
MEMBOUND = "GA BP PF ST DW SV SD LB HT DC BF DX SC BS HW".split()
# The paper's averages, printed beside the modelled metrics.
PAPER = {"reuse_pct": 18.7, "gpu_energy_saving_pct": 10.7}

# The kernels of each workload; both simulate on the fixed backend.
WORKLOADS = {
    "grid-fixed": KERNELS,
    "serve-mixed": [k for k in KERNELS if k != "LK"],
}

# LK's repeat would add a quarter to every grid pass (two LK runs are
# ~2.3 s of a ~10 s pass) for one more sample of two cells: it runs once
# per pass.
SINGLE_RUN = {"LK"}

# serve-mixed offers requests at this rate, about half the ~275 req/s
# the daemon sustained with this mix (README.md); at least nine in ten
# repeat a cell.
SERVE_RATE = 140.0
SERVE_MISS_SHARE = 0.1
SERVE_CONNECTIONS = 4
SERVE_JOBS = 2

# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
# serve-mixed's p99 is the median of the p99s of this many consecutive
# parts of the run, so one queueing burst sets the tail of one part,
# not of the run. The spread (IQR/median) of a whole-run p99 was 0.26
# over six seeds, of the median of three parts 0.21 over ten (both at
# 100 req/s). Each
# of five parts of a 45 s run at 140 req/s holds 1260 requests, so each
# is a true p99.
SERVE_TAIL_WINDOWS = 5


def grid_cells(kernels, designs=("Base", "RLPV")):
    return [f"{k}/{d}" for k in kernels for d in designs]


def serve_cells():
    """serve-mixed's cells in the order its schedules take first-time
    cells from: design-major, Base and RLPV first, so every kernel's
    Base/RLPV pair is in any run long enough for 66 distinct cells."""
    designs = ["Base", "RLPV"] + [d for d in DESIGNS
                                  if d not in ("Base", "RLPV")]
    kernels = WORKLOADS["serve-mixed"]
    return [f"{k}/{d}" for d in designs for k in kernels]


def probe_cells(cells, count=10):
    """A fixed, spread-out sample of a workload's cells, for the probes
    that cost a fork or a daemon per cell. Leaves out LK (seconds per
    cell)."""
    pool = [c for c in cells if not c.startswith("LK/")]
    step = max(1, len(pool) // count)
    return pool[::step][:count]


def permuted(cells, seed):
    order = list(cells)
    random.Random(seed).shuffle(order)
    return order


def pass_order(cells, seed, pass_, repeats):
    """One timed pass: the cells in an order drawn from the seed and the
    pass number, so a cell's samples fall at different points of the
    run. With `repeats` each cell runs twice in a row (a first run after
    some other cell, then a warm repeat), except the kernels in
    SINGLE_RUN."""
    order = permuted(cells, f"{seed}:{pass_}")
    return [c for c in order for _ in range(
        2 if repeats and c.split("/")[0] not in SINGLE_RUN else 1)]


def make_schedule(seed, seconds, cells, rate=SERVE_RATE,
                  miss_share=SERVE_MISS_SHARE):
    """Open-loop request schedule: a list of (send_time_s, cell, first).

    Poisson arrivals at `rate` over `seconds` (sorted uniform times,
    which is a Poisson process conditioned on its count). A share
    `miss_share` of the requests are the first request of a cell; the
    distinct cells are the first `requests * miss_share` of `cells`, so
    the set does not depend on the seed, only their order does. The
    rest repeat a cell already requested, chosen uniformly. The first
    request is always a first-time cell."""
    rng = random.Random(seed)
    count = max(2, int(round(rate * seconds)))
    distinct = max(1, min(len(cells), int(count * miss_share)))
    fresh = list(cells[:distinct])
    rng.shuffle(fresh)
    firsts = set(rng.sample(range(1, count), distinct - 1)) | {0}
    times = sorted(rng.uniform(0, seconds) for _ in range(count))
    schedule, seen = [], []
    for i, t in enumerate(times):
        if i in firsts:
            cell = fresh.pop()
            seen.append(cell)
            schedule.append((t, cell, True))
        else:
            schedule.append((t, rng.choice(seen), False))
    return schedule


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values, target=99.0, beyond=TAIL_BEYOND):
    """The highest percentile, at most `target`, with at least `beyond`
    samples above its rank. Returns (value, percentile, sample count).
    With too few samples for any such percentile, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("percentile of no samples")
    rank = min(math.ceil(target / 100.0 * n), n - beyond)
    rank = max(rank, 1) if n > beyond else n
    return ordered[rank - 1], 100.0 * rank / n, n


def windowed_tail(values, windows):
    """tail_percentile of each of `windows` consecutive equal parts of
    `values` (in send order), and the median of those: one queueing
    burst then sets the tail of one part, not of the whole run. Returns
    (value, lowest percentile of the parts, sample count)."""
    n = len(values)
    parts = [tail_percentile(values[k * n // windows:(k + 1) * n // windows])
             for k in range(windows)]
    return (statistics.median(p[0] for p in parts),
            min(p[1] for p in parts), n)


def work_weighted(pairs):
    """Aggregate rate of (work, seconds) pairs: total work over total
    time, so long cells weigh by their share of the time."""
    work = sum(w for w, _ in pairs)
    seconds = sum(s for _, s in pairs)
    if seconds <= 0:
        raise ValueError("no time measured")
    return work / seconds


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def best_times(samples, key="ns"):
    """Each cell's fastest sample of a host-time field. The simulator is
    deterministic, so every sample of a cell does the same work and the
    fastest is the one the shared host disturbed least; on a host whose
    slow phases last tens of seconds, medians moved by more than the
    benchmark's bounds between runs, the fastest samples by half as
    much (`wirsim bench` keeps the best of its reps for the same
    reason)."""
    out = {}
    for s in samples:
        out[s["cell"]] = min(out.get(s["cell"], s[key]), s[key])
    return out


def first_stats(samples):
    """The first sample of each cell (counts repeat across samples;
    check_samples proves it)."""
    out = {}
    for s in samples:
        out.setdefault(s["cell"], s)
    return out


def fingerprint(sample):
    """What a cell computed: cycles, committed warp instructions, final
    memory digest, a hash of every SimStats counter, GPU energy (pJ)."""
    return [sample["stats"]["cycles"],
            sample["stats"]["warp_insts_committed"], sample["digest"],
            sample["stats_hash"], sample["gpu_pj"]]


def check_samples(samples, golden):
    """Output check for in-process cell samples. Every sample must
    match its golden fingerprint, which also makes every pass, run and
    seed agree; and each kernel's RLPV memory digest must equal its Base
    digest, because reuse must be architecturally transparent. Returns
    the ids of bad samples and a list of human-readable problems."""
    bad, problems = set(), []
    for s in samples:
        if s.get("failed"):
            bad.add(s["id"])
            problems.append(f"{s['cell']}: failed: {s.get('error')}")
            continue
        want, got = golden.get(s["cell"]), fingerprint(s)
        if want != got:
            bad.add(s["id"])
            problems.append(f"{s['cell']} pass {s['pass']}: "
                            f"got {got}, golden {want}")
    firsts = first_stats([s for s in samples if not s.get("failed")])
    for cell, s in firsts.items():
        kernel, design = cell.split("/")
        base = firsts.get(f"{kernel}/Base")
        if design != "Base" and base and s["digest"] != base["digest"]:
            bad.update(x["id"] for x in samples if x["cell"] == cell)
            problems.append(f"{cell}: memory digest {s['digest']} != "
                            f"Base {base['digest']}")
    return bad, problems


def modelled(firsts, kernels):
    """Modelled results over `kernels`, computed the way the figures
    compute them: reuse_pct as fig12 (mean over kernels of RLPV reused
    / committed), gpu_energy_saving_pct as fig14 (1 - mean RLPV/Base
    GPU energy), rlpv_speedup as the geometric mean of Base/RLPV
    cycles. Kernels without both cells are skipped: a serve-mixed run
    shorter than 7 s does not reach every RLPV cell."""
    reuse, energy, speedup = [], [], []
    for k in kernels:
        base, rlpv = firsts.get(f"{k}/Base"), firsts.get(f"{k}/RLPV")
        if not (base and rlpv):
            continue
        rs = rlpv["stats"]
        reuse.append(100.0 * rs["warp_insts_reused"] /
                     rs["warp_insts_committed"])
        energy.append(rlpv["gpu_pj"] / base["gpu_pj"])
        speedup.append(base["stats"]["cycles"] / rs["cycles"])
    return {
        "reuse_pct": sum(reuse) / len(reuse),
        "gpu_energy_saving_pct": 100.0 * (1 - sum(energy) / len(energy)),
        "rlpv_speedup": geomean(speedup),
    }


def ratio(num, den):
    return num / den if den else 0.0


def counter_metrics(firsts):
    """Per-layer ratios of the simulator's own counters over a
    workload's cells (exact: they repeat bit for bit)."""
    tot = {}
    rlpv = {}
    for cell, s in firsts.items():
        for name, value in s["stats"].items():
            tot[name] = tot.get(name, 0) + value
            if cell.endswith("/RLPV"):
                rlpv[name] = rlpv.get(name, 0) + value
    kwinst = tot["warp_insts_committed"] / 1000.0
    return {
        "timing.rf_retries_per_kwinst": tot["rf_bank_retries"] / kwinst,
        "timing.divergent_pct": 100.0 * tot["divergent_insts"] /
        tot["warp_insts_committed"],
        "timing.executed_pct": 100.0 * tot["warp_insts_executed"] /
        tot["warp_insts_committed"],
        "reuse.buffer_hit_ratio": ratio(tot["reuse_buf_hits"],
                                        tot["reuse_buf_lookups"]),
        "reuse.vsb_share_ratio": ratio(tot["vsb_shares"],
                                       tot["vsb_lookups"]),
        "reuse.verify_cache_hit_ratio": ratio(
            tot["verify_cache_hits"],
            tot["verify_cache_hits"] + tot["verify_cache_misses"]),
        "reuse.load_hit_ratio": ratio(tot["load_reuse_hits"],
                                      tot["load_reuse_lookups"]),
        "reuse.lookups_per_winst": ratio(
            rlpv.get("reuse_buf_lookups", 0),
            rlpv.get("warp_insts_committed", 0)),
        "mem.l1_miss_ratio": ratio(tot["l1_misses"], tot["l1_accesses"]),
        "mem.l2_miss_ratio": ratio(tot["l2_misses"], tot["l2_accesses"]),
        "mem.dram_row_hit_ratio": ratio(tot["dram_row_hits"],
                                        tot["dram_accesses"]),
        "mem.dram_per_kwinst": tot["dram_accesses"] / kwinst,
        "mem.noc_flits_per_kwinst": tot["noc_flits"] / kwinst,
    }


def host_ns_per(samples, field, key="run_ns"):
    """Work-weighted host ns per unit of a counter (each cell's fastest
    `key`)."""
    times = best_times(samples, key)
    firsts = first_stats(samples)
    work = sum(firsts[c]["stats"][field] for c in times)
    return sum(times.values()) / work


def self_times(spans):
    """Self time per span name: each span's duration minus the part of
    it that its child spans (same id, parent == its name) cover."""
    by_id = {}
    for s in spans:
        by_id.setdefault(s["id"], []).append(s)
    out = {}
    for group in by_id.values():
        for s in group:
            covered = sum(c["end_ns"] - c["start_ns"] for c in group
                          if c["parent"] == s["name"])
            own = s["end_ns"] - s["start_ns"] - covered
            out[s["name"]] = out.get(s["name"], 0) + own
    return out
