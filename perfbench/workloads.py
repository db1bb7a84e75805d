"""The benchmark's workloads, its timed loop, answer checks and metrics.

Every workload is a closed loop with one client on one thread
(``scan_workers=1``): the next call starts when the previous one
returns.  The stand-in datasets are the Fig 9/10 ones (the seeds of
``benchmarks/conftest.py``); the workload seed picks the queries, the
order of the parameter sweep and the ingest stream, so the program only
ever sees generated inputs.

See ``workloads.json`` for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import os
import random
import resource
import shutil
import statistics
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

import speed
import tracing

_perf = time.perf_counter

#: bytes of user data per stored point (two float64 coordinates)
POINT_BYTES = 16

TDRIVE_ROWS = 1200
TDRIVE_DATA_SEED = 101
LORRY_ROWS = 100
LORRY_DATA_SEED = 102
#: distinct queries of tdrive_threshold
QUERY_POOL = 400
THRESHOLD_EPS = (0.001, 0.005, 0.01, 0.02)
TOPK_K = (5, 10, 25, 50)
#: queries of the fixed top-k log, each asked at every k
TOPK_LOG = 18
BATCH_SIZE = 32
BATCH_EPS = (0.005, 0.01, 0.02)
INGEST_EPS = 0.005
#: one threshold read after this many ``engine.add`` calls
INGEST_READ_EVERY = 400
#: adds per run: the first compaction (eighth 4 MiB memtable flush of
#: the region) lands at about 50,000 adds, so every run crosses it
INGEST_WRITES = 60_000
INGEST_READS = INGEST_WRITES // INGEST_READ_EVERY
#: distinct new trips the ingest stream jitters copies of
INGEST_STREAM_BASE = 2000
INGEST_JITTER = 0.02


class GuardError(RuntimeError):
    """A workload drifted away from the layer it exists to load."""


def engine_config():
    """``benchmarks/conftest.py``'s engine config plus ``cache_mb=16``."""
    from repro import SpaceBounds, TraSSConfig

    return TraSSConfig(
        bounds=SpaceBounds.whole_earth(),
        max_resolution=16,
        dp_tolerance=0.01,
        shards=8,
        cache_mb=16,
    )


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------
def threshold_errors(query, eps, result) -> List[str]:
    """Invariants every threshold answer must meet."""
    errors = []
    if result.completeness != 1.0:
        errors.append(f"completeness {result.completeness}")
    if result.answers.get(query.tid) != 0.0:
        errors.append(f"self-match {query.tid} missing or not at 0")
    worst = max(result.answers.values(), default=0.0)
    if worst > eps:
        errors.append(f"answer at {worst} beyond eps {eps}")
    return errors


def topk_errors(k, result) -> List[str]:
    errors = []
    if result.completeness != 1.0:
        errors.append(f"completeness {result.completeness}")
    dists = [d for d, _ in result.answers]
    if len(dists) != k:
        errors.append(f"{len(dists)} answers for k={k}")
    if dists != sorted(dists):
        errors.append("answers not ascending")
    if not dists or dists[0] != 0.0:
        errors.append("no self-match at distance 0")
    return errors


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def oracle_threshold_errors(brute, query, eps, answers) -> List[str]:
    truth = brute.threshold_search(query, eps).answers
    if set(truth) != set(answers):
        return [
            f"threshold {query.tid} eps={eps}: {len(answers)} answers, "
            f"brute force finds {len(truth)}"
        ]
    if not all(_close(truth[t], answers[t]) for t in truth):
        return [f"threshold {query.tid} eps={eps}: distances differ"]
    return []


def oracle_topk_errors(brute, query, k, answers) -> List[str]:
    # Sorted distance lists: ties may order tids differently.
    truth = sorted(brute.topk_search(query, k).answers.values())
    mine = [d for d, _ in answers]
    if len(truth) != len(mine) or not all(map(_close, truth, mine)):
        return [f"top-{k} {query.tid}: distances differ from brute force"]
    return []


def answer_key(answers) -> str:
    """Canonical text of one answer set, for the run digest."""
    if isinstance(answers, dict):
        return repr(sorted(answers.items()))
    return repr(list(answers))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(samples: List[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def lsm_totals(engine) -> Dict[str, float]:
    stores = [region.store for region in engine.store.table.regions]
    return {
        "flushes": sum(s.flush_count for s in stores),
        "flush_s": sum(s.flush_seconds for s in stores),
        "flush_bytes": sum(s.flush_bytes for s in stores),
        "compactions": sum(s.compaction_count for s in stores),
        "compaction_s": sum(s.compaction_seconds for s in stores),
        "compaction_bytes": sum(s.compaction_bytes for s in stores),
    }


def _diff(after: Dict[str, float], before: Dict[str, float]):
    return {k: after[k] - before.get(k, 0) for k in after}


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
class Op:
    """One client call: ``kind`` is ``"read"`` or ``"write"``."""

    __slots__ = ("kind", "call", "check", "queries", "key")

    def __init__(self, kind, call, check, queries=1, key=None):
        self.kind = kind
        self.call = call
        #: result -> list of invariant breaches (cheap, every op)
        self.check = check
        #: queries answered by one call (32 for a batch)
        self.queries = queries
        #: identity of the distinct (query, parameter) pair(s)
        self.key = key


class Workload:
    """Base: subclasses build the store and yield operations."""

    name = ""
    #: ``"tdrive"`` or ``"lorry"`` stand-in
    dataset = "tdrive"
    #: ``None`` keeps the store in memory; else ``save(compact=...)``
    compact: Optional[bool] = False
    #: ops per second of ``--seconds`` on a 2-core 2.0 GHz machine: a run
    #: walks exactly ``round(seconds * ops_per_second)`` ops, the same
    #: sequence for the same seed whatever the CPU speed
    ops_per_second = 1.0
    #: ops per run whatever ``--seconds`` says (``None``: scaled)
    fixed_ops: Optional[int] = None
    #: set-ups per run, spread over the loop; ``setup_s`` is their median
    setup_repeats = 5
    #: the loop itself writes; otherwise the set-ups' adds give the
    #: write metrics
    writes_in_loop = False
    read_tail_pct = 99.0
    #: tail of the set-ups' adds; at p99 the few adds a garbage
    #: collection pause lands in set the figure
    write_tail_pct = 95.0
    #: distinct (query, parameter) pairs checked against brute force
    oracle_pairs = 6

    def __init__(self, seed: int, workdir: str):
        from repro.data.generators import lorry_like, tdrive_like

        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        if self.dataset == "lorry":
            self.data = lorry_like(LORRY_ROWS, seed=LORRY_DATA_SEED)
        else:
            self.data = tdrive_like(TDRIVE_ROWS, seed=TDRIVE_DATA_SEED)
        self.user_bytes = POINT_BYTES * sum(len(t) for t in self.data)
        self.engine = None
        self.space_amp = 0.0
        #: (start, seconds) of every ``engine.add`` call the set-ups made
        self.setup_adds: List[Tuple[float, float]] = []

    @classmethod
    def ops_for(cls, seconds: float) -> int:
        if cls.fixed_ops is not None:
            return cls.fixed_ops
        return max(1, round(seconds * cls.ops_per_second))

    def setup_once(
        self, meter: speed.Speedometer
    ) -> Tuple[float, float, float]:
        """Build (and save + load) one store; returns its start and end
        ``perf_counter`` readings and its seconds, which leave out the
        probes (scale them with :meth:`speed.Speedometer.factor` once
        the probes after the set-up are in).

        The build is ``TraSS.build`` spelled out, one timed
        ``engine.add`` per trajectory into a new engine, with the speed
        probes due between the adds (their time is not set-up time).
        The first store set up is the one the run queries; later ones
        only time ``setup_s`` and the adds again and are dropped."""
        from repro import TraSS

        directory = None
        if self.compact is not None:
            directory = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        adds = self.setup_adds
        probing = 0.0
        started = _perf()
        engine = TraSS(engine_config())
        for trajectory in self.data:
            t0 = _perf()
            engine.add(trajectory)
            t1 = _perf()
            adds.append((t0, t1 - t0))
            meter.tick()
            probing += _perf() - t1
        if directory is not None:
            engine.save(directory, compact=self.compact)
            engine = TraSS.load(directory)
        ended = _perf()
        if self.engine is None:
            self.engine = engine
            if directory is not None:
                self.space_amp = _dir_bytes(directory) / self.user_bytes
        elif directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
        return started, ended, ended - started - probing

    def warm(self) -> None:
        """Untimed work that fills caches users keep warm."""

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def oracle_errors(self, executed) -> List[str]:
        """Brute-force comparison on a seeded sample of distinct pairs."""
        raise NotImplementedError

    def final_space_amp(self) -> float:
        return self.space_amp

    @classmethod
    def guard(cls, run) -> None:
        """Raise :class:`GuardError` when coverage drifted."""


def sample_stratified(data, count: int, seed: int) -> list:
    """``count`` queries from the stored set, one drawn uniformly from
    each of ``count`` equal strata of trajectories ordered by MBR extent
    (trajectories of fewer than two points are left out, as
    ``repro.data.workload.sample_queries`` does), shortest first.

    A uniform draw lets the seed move the sample's share of short and
    long trips by a few percent, and on the T-Drive stand-in read cost
    jumps several-fold at the median extent, so the read medians of two
    seeds could differ by 2x.  Strata fix that share."""
    rng = random.Random(seed)
    eligible = sorted(
        (t for t in data if len(t) >= 2),
        key=lambda t: (
            max(t.mbr.max_x - t.mbr.min_x, t.mbr.max_y - t.mbr.min_y),
            t.tid,
        ),
    )
    n = len(eligible)
    return [
        rng.choice(eligible[j * n // count:(j + 1) * n // count])
        for j in range(count)
    ]


def golden_order(items: list) -> list:
    """``items`` reordered so that position ``r`` holds the item at the
    rank of ``frac(r * golden ratio)``: every run of consecutive
    positions spans the whole list evenly, the same way every time."""
    n = len(items)
    ranked = sorted(range(n), key=lambda r: (r * 0.6180339887498949) % 1.0)
    order = [0] * n
    for rank, r in enumerate(ranked):
        order[r] = rank
    return [items[rank] for rank in order]


def _brute(data):
    from repro.baselines.brute import BruteForceBaseline

    brute = BruteForceBaseline()
    brute.build(data)
    return brute


def _sample_pairs(rng, executed, count):
    """``count`` seeded (op key, answers) pairs of distinct op keys."""
    distinct = {}
    for op_key, result in executed:
        distinct.setdefault(op_key, result.answers)
    keys = sorted(distinct, key=repr)
    return [
        (key, distinct[key])
        for key in rng.sample(keys, min(count, len(keys)))
    ]


class TDriveThreshold(Workload):
    """Single threshold queries, eps cycling 0.001..0.02, from .sst."""

    name = "tdrive_threshold"
    params = THRESHOLD_EPS
    #: 1,120 of the 1,600 pairs at 16 s
    ops_per_second = 70.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pairs = self.make_pairs()

    def make_pairs(self):
        pool = sample_stratified(self.data, QUERY_POOL, self.seed)
        pairs = [(q, p) for q in pool for p in self.params]
        self.rng.shuffle(pairs)
        return pairs

    def search(self, query, eps):
        return self.engine.threshold_search(query, eps)

    def invariants(self, query, eps, result):
        return threshold_errors(query, eps, result)

    oracle = staticmethod(oracle_threshold_errors)

    def op(self, i):
        query, param = self.pairs[i % len(self.pairs)]
        return Op(
            "read",
            lambda: self.search(query, param),
            lambda result: self.invariants(query, param, result),
            key=(query.tid, param),
        )

    def oracle_errors(self, executed):
        brute = _brute(self.data)
        by_tid = {t.tid: t for t in self.data}
        errors = []
        for (tid, param), answers in _sample_pairs(
            self.rng, executed, self.oracle_pairs
        ):
            errors += self.oracle(brute, by_tid[tid], param, answers)
        return errors

    @classmethod
    def guard(cls, run):
        if run["sstables_opened"] <= 0:
            raise GuardError(f"{cls.name}: no SSTable run was opened")
        ratio = run["plan_cache_hit_ratio"]
        if ratio > 0.05:
            raise GuardError(
                f"{cls.name}: plan cache hit ratio {ratio:.3f}, expected ~0"
            )


class TDriveTopK(TDriveThreshold):
    """Top-k, k cycling 5..50, on the same .sst store."""

    name = "tdrive_topk"
    params = TOPK_K
    #: the 72-pair log once at 16 s
    ops_per_second = 4.5
    read_tail_pct = 80.0
    #: each brute-force top-k computes every exact distance (0.3-2.5 s)
    oracle_pairs = 2

    def make_pairs(self):
        # A fixed log, the same on every seed; the seed only orders it.
        # About one (query, k=50) pair in twenty costs 5-30 s, 100 times
        # the median, so a seeded sample of 72 pairs holds none, one or
        # two of them and its read_qps moves 2-4x with the seed.
        log = sample_stratified(self.data, TOPK_LOG, TDRIVE_DATA_SEED)
        pairs = [(q, k) for q in log for k in self.params]
        self.rng.shuffle(pairs)
        return pairs

    def search(self, query, k):
        return self.engine.topk_search(query, k)

    def invariants(self, query, k, result):
        return topk_errors(k, result)

    oracle = staticmethod(oracle_topk_errors)

    @classmethod
    def guard(cls, run):
        if run["sstables_opened"] <= 0:
            raise GuardError(f"{cls.name}: no SSTable run was opened")


class LorryBatch32(Workload):
    """32-query batches on the Lorry stand-in loaded from .seg files."""

    name = "lorry_batch32"
    dataset = "lorry"
    compact = True
    #: 8 batches at 16 s
    ops_per_second = 0.5
    #: a 100-row set-up is short; 25 of them give 2,500 adds
    setup_repeats = 25
    #: a run holds only eight batches, so the "tail" is p75 and fewer
    #: than ten samples lie beyond it
    read_tail_pct = 75.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.queries = sample_stratified(self.data, BATCH_SIZE, seed)
        self.phase = self.rng.randrange(len(BATCH_EPS))

    def batch_eps(self, i):
        # Every batch mixes the three thresholds; across three batches
        # each query meets each threshold once (96 plans in all).
        shift = self.phase + i
        return [
            BATCH_EPS[(j + shift) % len(BATCH_EPS)]
            for j in range(len(self.queries))
        ]

    def warm(self):
        # Plan all 96 (query, eps) pairs, so the plans the repeated
        # batch keeps warm are cached.  The block and record tiers are
        # left cold: the first timed batch reads the .seg runs, and the
        # rest are served from those tiers.
        for i in range(len(BATCH_EPS)):
            for query, eps in zip(self.queries, self.batch_eps(i)):
                self.engine.plan(query, eps)

    def op(self, i):
        queries, eps_list = self.queries, self.batch_eps(i)
        engine = self.engine

        def check(results):
            errors = []
            for query, eps, result in zip(queries, eps_list, results):
                errors += threshold_errors(query, eps, result)
            return errors

        return Op(
            "read",
            lambda: engine.threshold_search_many(queries, eps_list),
            check,
            queries=len(queries),
            key=tuple(eps_list),
        )

    def oracle_errors(self, executed):
        brute = _brute(self.data)
        pairs = {}
        for eps_list, results in executed:
            for query, eps, result in zip(self.queries, eps_list, results):
                pairs.setdefault((query.tid, eps), (query, result.answers))
        keys = sorted(pairs, key=repr)
        errors = []
        for key in self.rng.sample(keys, min(self.oracle_pairs, len(keys))):
            query, answers = pairs[key]
            errors += oracle_threshold_errors(brute, query, key[1], answers)
        return errors

    @classmethod
    def guard(cls, run):
        if run["segment_blocks_materialized"] <= 0:
            raise GuardError(f"{cls.name}: the loop read no .seg block")
        ratio = run["plan_cache_hit_ratio"]
        if ratio < 0.95:
            raise GuardError(
                f"{cls.name}: plan cache hit ratio {ratio:.3f}, expected ~1"
            )


class TDriveIngest(Workload):
    """``engine.add`` stream into the in-memory store, reads beside it."""

    name = "tdrive_ingest"
    compact = None
    fixed_ops = INGEST_WRITES + INGEST_READS
    writes_in_loop = True
    #: 15 of the 150 reads lie beyond it
    read_tail_pct = 90.0
    #: 600 of the 60,000 adds lie beyond it; beyond p99.9 lie the few
    #: adds the machine itself stalled, which moved 3x between runs
    write_tail_pct = 99.0
    #: each check scans the stand-in plus the stream written so far
    oracle_pairs = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from repro.data.generators import tdrive_like

        # The reads are a fixed probe of the growing store, the same on
        # every seed (the seed varies the stream).  Reads grow dearer as
        # the store grows and long queries cost several times short
        # ones; a seeded draw moved the p90 read 2.5x between seeds,
        # and here each extent meets the same stretch of the stream.
        self.pool = golden_order(
            sample_stratified(self.data, INGEST_READS, TDRIVE_DATA_SEED)
        )
        # New trips of the stand-in's own city (its generator continued
        # past the stored rows), so the reads meet the same geography on
        # every seed.  Their order is fixed too, so each read meets the
        # same trips in the store whatever the seed; the seed picks the
        # jitter of every copy.
        city = tdrive_like(
            TDRIVE_ROWS + INGEST_STREAM_BASE, seed=TDRIVE_DATA_SEED
        )
        self.base = city[TDRIVE_ROWS:]
        random.Random(TDRIVE_DATA_SEED).shuffle(self.base)
        self.offsets: List[Tuple[float, float]] = []
        self.writes = 0
        self.stream_points = 0

    def stream_item(self, n: int):
        """The ``n``-th streamed trajectory: a jittered base copy."""
        while len(self.offsets) <= n:
            self.offsets.append(
                (
                    self.rng.gauss(0.0, INGEST_JITTER),
                    self.rng.gauss(0.0, INGEST_JITTER),
                )
            )
        dx, dy = self.offsets[n]
        source = self.base[n % len(self.base)]
        return source.translated(dx, dy, f"w{self.seed}-{n}")

    def op(self, i):
        engine = self.engine
        block = INGEST_READ_EVERY + 1
        if i % block == INGEST_READ_EVERY:
            query = self.pool[(i // block) % len(self.pool)]
            written = self.writes
            return Op(
                "read",
                lambda: engine.threshold_search(query, INGEST_EPS),
                lambda r: threshold_errors(query, INGEST_EPS, r),
                key=(query.tid, written),
            )
        item = self.stream_item(self.writes)
        self.writes += 1
        self.stream_points += len(item)
        return Op("write", lambda: engine.add(item), lambda r: [])

    def oracle_errors(self, executed):
        by_tid = {t.tid: t for t in self.data}
        sample = _sample_pairs(self.rng, executed, self.oracle_pairs)
        longest = max((written for (_, written), _ in sample), default=0)
        stream = [self.stream_item(n) for n in range(longest)]
        errors = []
        for (tid, written), answers in sample:
            # The store as that read saw it: stand-in plus the stream
            # prefix written before the read.
            brute = _brute(self.data + stream[:written])
            errors += oracle_threshold_errors(
                brute, by_tid[tid], INGEST_EPS, answers
            )
        return errors

    def final_space_amp(self):
        user = self.user_bytes + POINT_BYTES * self.stream_points
        return self.engine.store.table.approximate_size / user

    @classmethod
    def guard(cls, run):
        if run["compactions"] < 1:
            raise GuardError(f"{cls.name}: the run made no compaction")


WORKLOADS = {
    cls.name: cls
    for cls in (TDriveThreshold, TDriveTopK, LorryBatch32, TDriveIngest)
}


# ----------------------------------------------------------------------
# The timed loop
# ----------------------------------------------------------------------
class Loop:
    """Latencies, failures and answers of one closed loop."""

    def __init__(self):
        self.latency = {"read": [], "write": []}
        #: perf_counter reading at the start of each ``latency`` sample
        self.starts = {"read": [], "write": []}
        self.traced_latency = {"read": [], "write": []}
        self.traced_starts = {"read": [], "write": []}
        self.queries = 0
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digest = hashlib.sha256()
        #: (op key, result) of every successful read
        self.executed: List[tuple] = []
        #: op id -> (kind, IOMetrics delta, LSM delta, result, seconds)
        self.traced_ops: Dict[int, tuple] = {}


def run_ops(
    engine,
    make_op: Callable[[int], Op],
    loop: Loop,
    ops: int,
    recorder: Optional[tracing.Recorder],
    side_work: Callable[[float], None],
    meter: speed.Speedometer,
) -> None:
    """Run ops ``0 .. ops - 1``.

    After each op, ``side_work(progress)`` runs the work that is due by
    that fraction of the loop, and then the speed probe runs if it is
    due; neither is loop time.  With a
    recorder every even op (the first one too) runs under the layer
    wrappers; the others stay untraced, so the run also measures
    tracing overhead.
    """
    for i in range(ops):
        op = make_op(i)
        traced = recorder is not None and i % 2 == 0
        context = contextlib.nullcontext()
        if traced:
            io_before = engine.metrics.snapshot()
            lsm_before = lsm_totals(engine)
            recorder.op_id = i
            context = tracing.traced(engine, recorder)
        with context:
            t0 = _perf()
            try:
                result = op.call()
                failure = None
            except Exception as exc:  # counted as a failed operation
                result = None
                failure = f"{type(exc).__name__}: {exc}"
            elapsed = _perf() - t0
        if traced:
            loop.traced_ops[i] = (
                op.kind,
                engine.metrics.diff(io_before),
                _diff(lsm_totals(engine), lsm_before),
                result,
                elapsed,
            )
            loop.traced_latency[op.kind].append(elapsed)
            loop.traced_starts[op.kind].append(t0)
        else:
            loop.latency[op.kind].append(elapsed)
            loop.starts[op.kind].append(t0)
        loop.busy += elapsed
        loop.attempted += 1
        errors = op.check(result) if failure is None else [failure]
        if errors:
            loop.failed += 1
            loop.errors.extend(errors[:3])
        if op.kind == "read":
            loop.queries += op.queries
            if failure is None:
                loop.executed.append((op.key, result))
                loop.digest.update(answer_key(_answers(result)).encode())
        side_work((i + 1) / ops)
        meter.tick()


def _answers(result):
    if isinstance(result, list):
        return [r.answers for r in result]
    return result.answers


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    max_ops: Optional[int] = None,
) -> dict:
    """Set up, warm, run the loop, check answers, derive metrics.

    The loop runs the workload's op count for ``seconds``, or exactly
    ``max_ops`` ops when that is given (the repeatability checks, which
    leave the coverage guards to the caller).
    """
    kind = WORKLOADS[name]
    ops = max_ops if max_ops is not None else kind.ops_for(seconds)
    workload = kind(seed, workdir)
    meter = speed.Speedometer()
    setups = [workload.setup_once(meter)]
    workload.warm()
    engine = workload.engine
    recorder = tracing.Recorder() if trace else None
    ingest = workload.writes_in_loop

    def side_work(fraction: float) -> None:
        # The extra set-ups are spread over the loop so that they, and
        # the adds the read workloads take their write metrics from,
        # sample the whole run rather than one burst of machine noise.
        # They build other engines; collecting the dropped ones here
        # keeps their garbage out of timed calls.
        while len(setups) < 1 + int((workload.setup_repeats - 1) * fraction):
            setups.append(workload.setup_once(meter))
            gc.collect()

    io_before = engine.metrics.snapshot()
    lsm_before = lsm_totals(engine)
    main = Loop()
    with tracing.run_counters(engine.store.table, trace) as run_counts:
        run_ops(engine, workload.op, main, ops, recorder, side_work, meter)
    meter.probe()
    io = engine.metrics.diff(io_before)
    lsm = _diff(lsm_totals(engine), lsm_before)
    # Before the brute-force check, whose copies of the data are the
    # benchmark's memory, not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = workload.oracle_errors(main.executed)
    attempted = main.attempted
    failed = main.failed + len(errors)

    plan_lookups = io["plan_cache_hits"] + io["plan_cache_misses"]
    run = {
        "sstables_opened": run_counts["sstables_opened"],
        "segment_blocks_materialized": io["segment_blocks_materialized"],
        "plan_cache_hit_ratio": (
            io["plan_cache_hits"] / plan_lookups if plan_lookups else 0.0
        ),
        "compactions": lsm["compactions"],
    }
    if max_ops is None:
        workload.guard(run)

    def scaled(starts, samples):
        return [meter.scale(t, e) for t, e in zip(starts, samples)]

    setup_times = [
        seconds * meter.factor(start, end) for start, end, seconds in setups
    ]

    def loop_scaled(kind):
        """Every op of ``kind`` in the loop, traced or not."""
        return scaled(
            main.starts[kind] + main.traced_starts[kind],
            main.latency[kind] + main.traced_latency[kind],
        )

    if main.latency["read"]:
        reads = scaled(main.starts["read"], main.latency["read"])
    else:
        reads = loop_scaled("read")
    loop_writes = loop_scaled("write")
    busy = sum(loop_scaled("read")) + sum(loop_writes)
    if ingest:
        write_lat, write_busy = loop_writes, busy
    else:
        write_lat = scaled(*zip(*workload.setup_adds))
        write_busy = sum(write_lat)
    read_tail, read_beyond = percentile(reads, workload.read_tail_pct)
    write_tail, write_beyond = percentile(write_lat, workload.write_tail_pct)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "read_p50_ms": statistics.median(reads) * 1e3,
        "read_tail_ms": read_tail * 1e3,
        "read_qps": main.queries / busy,
        "write_p50_ms": statistics.median(write_lat) * 1e3,
        "write_tail_ms": write_tail * 1e3,
        "write_qps": len(write_lat) / write_busy,
        "space_amp": workload.final_space_amp(),
        "peak_rss_mb": peak_rss_mb,
    }
    wall = {
        "read_p50_ms": statistics.median(
            main.latency["read"] or main.traced_latency["read"]
        ) * 1e3,
        "read_qps": main.queries / main.busy,
        "probe_ms": meter.median_probe() * 1e3,
    }
    notes = {
        "ops": ops,
        "setups": len(setups),
        "read_tail_pct": workload.read_tail_pct,
        "read_samples": len(reads),
        "read_samples_beyond_tail": read_beyond,
        "write_tail_pct": workload.write_tail_pct,
        "write_samples": len(write_lat),
        "write_samples_beyond_tail": write_beyond,
        "failed_frac": failed / attempted,
        "errors": (main.errors + errors)[:10],
        "guards": run,
        "wall": wall,
    }
    counts = {
        "rows_scanned": io["rows_scanned"],
        "range_seeks": io["range_seeks"],
        "topk_units": sum(
            getattr(result, "units_scanned", 0) for _, result in main.executed
        ),
        "filter_evaluated": 0,
        "filter_rejected": 0,
        "flushes": lsm["flushes"],
        "compactions": lsm["compactions"],
        "answers_sha256": main.digest.hexdigest(),
    }
    for stats in _filter_stats(result for _, result in main.executed):
        counts["filter_evaluated"] += stats.evaluated
        counts["filter_rejected"] += stats.rejected

    per_layer = None
    if recorder is not None:
        import layers

        per_layer, counts["executor_calls"] = layers.per_layer_metrics(
            recorder, main, lsm, run_counts
        )
        trace_dir = os.path.join(os.path.dirname(workdir), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        op_kinds = {
            op_id: entry[0] for op_id, entry in main.traced_ops.items()
        }
        recorder.write(
            os.path.join(trace_dir, f"{name}-seed{seed}.jsonl"), op_kinds
        )

    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "notes": notes,
        "counts": counts,
    }


def _filter_stats(results):
    for result in results:
        for r in result if isinstance(result, list) else [result]:
            if r.filter_stats is not None:
                yield r.filter_stats
