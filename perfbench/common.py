"""Shared pieces of the three workloads: scales, sampling, failure
accounting, percentiles and the canonical form of a cached CO."""

from __future__ import annotations

import bisect
import gc
import math
import random
import resource
import sqlite3
import statistics
from array import array
from collections import Counter, deque
from operator import itemgetter
from time import perf_counter, perf_counter_ns, thread_time_ns

from repro.errors import ReproError
from repro.storage.catalog import Catalog
from repro.workloads.bom import BOMScale, create_bom_schema, populate_bom
from repro.workloads.oo1 import OO1Scale
from repro.workloads.orgdb import OrgScale

#: Org database at 200 departments: 2000 EMP, 1000 PROJ, 6000 EMPSKILLS,
#: 3000 PROJSKILLS, 50 SKILLS, 40 departments at 'ARC'.
ORG_DEPARTMENTS = 200
#: OO1 parts database: 3000 parts, 9000 connections (fanout 3).
OO1_PARTS = 3000
#: BOM forest: 6 roots, depth 5, fanout 4.  The generator's part count
#: depends on its seed (about 3.6k to 4.3k), so the benchmark derives a
#: generator seed from the run seed that lands in this band: the scale
#: stays fixed while the data still changes with every seed.
BOM_PARTS_BAND = (3800, 4000)


def org_scale(seed: int) -> OrgScale:
    return OrgScale(departments=ORG_DEPARTMENTS, employees_per_dept=10,
                    projects_per_dept=5, skills=50, skills_per_employee=3,
                    skills_per_project=3, arc_fraction=0.2, seed=seed)


def oo1_scale(seed: int) -> OO1Scale:
    return OO1Scale(parts=OO1_PARTS, fanout=3, seed=seed)


def bom_scale(seed: int) -> BOMScale:
    """The first BOM generator seed at or after ``seed * 1009`` whose
    forest has a part count inside :data:`BOM_PARTS_BAND`."""
    low, high = BOM_PARTS_BAND
    candidate = seed * 1009
    while True:
        scale = BOMScale(roots=6, depth=5, fanout=4, seed=candidate)
        catalog = Catalog()
        create_bom_schema(catalog, with_indexes=False)
        parts = populate_bom(catalog, scale)["parts"]
        # A catalog is a reference cycle; free each trial now so the
        # search never shows in peak_rss_mb.
        del catalog
        gc.collect()
        if low <= parts <= high:
            return scale
        candidate += 1


class Zipf:
    """Draws ranks 0..n-1 with probability proportional to 1/(r+1)^s."""

    def __init__(self, n: int, s: float, rng: random.Random):
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        total = sum(weights)
        self._cumulative = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)
        self._rng = rng

    def draw(self) -> int:
        position = bisect.bisect_left(self._cumulative, self._rng.random())
        return min(position, len(self._cumulative) - 1)


# ----------------------------------------------------------------------
# Measured phases
# ----------------------------------------------------------------------
#: Every reported percentile must have at least this many samples
#: beyond it.  A run keeps measuring past ``--seconds`` (up to
#: OVERRUN times as long) until it has them, and flags it otherwise.
MIN_BEYOND = 10
OVERRUN = 1.4


def kind_of(label: str) -> str:
    """An operation label is ``kind`` or ``kind:detail``."""
    return label.split(":", 1)[0]


def in_group(label: str, group: str) -> bool:
    """A group is a kind (``adhoc``) or one full label (``extract:X``)."""
    return label == group or label.startswith(group + ":")


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: On a shared 2-vCPU cloud VM the vCPU ran at one of two speeds about
#: 1.8x apart, switching every few seconds to minutes (neighbours on the
#: same cores): the same DEPS_ARC extraction took 17 ms or 31 ms with
#: identical garbage-collector work, and its thread CPU time equalled
#: its wall time, so the vCPU ran slower rather than being descheduled.
#: Raw medians of two 30 s runs then differed by up to 1.8x.  So every
#: timed figure is reported at a reference speed: a fixed pure-Python
#: probe is timed in thread CPU time (which excludes waiting for the
#: GIL, a latch or the disk) at most every PROBE_EVERY_S, and a
#: measured time is multiplied by REFERENCE_PROBE_NS over the median of
#: the last PROBES probes.  The report prints wall-clock figures beside.
REFERENCE_PROBE_NS = 400_000
PROBE_EVERY_S = 0.025
PROBES = 3


def _probe_work() -> int:
    table = {}
    rows = []
    for i in range(600):
        key = (i * 7919) % 601
        table[key] = row = (key, str(key), key * 0.5)
        rows.append(row)
    rows.sort(key=itemgetter(1))
    return sum(len(row[1]) for row in rows if row[0] in table)


class SpeedProbe:
    """The factor that scales a time measured now to the reference
    speed, from the thread it is called on."""

    def __init__(self):
        self.recent: deque = deque(maxlen=PROBES)
        self.due = -math.inf

    def sample(self) -> None:
        # The collector stays out of the probe: what the measured
        # operations allocated must not decide when it runs.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = thread_time_ns()
            _probe_work()
            self.recent.append(thread_time_ns() - start)
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """Probes when PROBE_EVERY_S has passed since the last probe."""
        now = perf_counter()
        if now >= self.due:
            self.sample()
            self.due = now + PROBE_EVERY_S
        return REFERENCE_PROBE_NS / statistics.median(self.recent)

    def measure(self) -> float:
        """The factor from PROBES fresh probes."""
        for _ in range(PROBES):
            self.sample()
        self.due = perf_counter() + PROBE_EVERY_S
        return REFERENCE_PROBE_NS / statistics.median(self.recent)


class Phase:
    """What one measured phase produced.

    ``samples[label]`` holds per-operation latencies in ns at the
    reference speed (see :class:`SpeedProbe`), ``wall_samples[label]``
    the same on the wall clock; a failed operation is recorded as
    ``inf`` so it misses every percentile.  Failures are counted by
    exception type and never retried.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.probe = SpeedProbe()
        self.samples: dict[str, array] = {}
        self.wall_samples: dict[str, array] = {}
        self.failures: Counter = Counter()
        self.attempted = 0
        self.elapsed_s = 0.0
        #: workload-specific tallies (rows returned, tuples, objects...),
        #: keyed by operation group where the metrics need them per group
        self.counts: Counter = Counter()
        #: busy time per label, ns, at the reference speed
        self.busy_ns: Counter = Counter()
        #: busy time per label, ns, on the wall clock
        self.wall_busy_ns: Counter = Counter()

    def attempt(self, label: str, thunk):
        """Run one operation: time it, trace it, count its failure.
        Returns ``(ok, result)``."""
        tracer = self.tracer
        self.attempted += 1
        factor = self.probe.factor()
        if tracer is not None:
            tracer.begin_op(label)
        start = perf_counter_ns()
        try:
            result = thunk()
        except ReproError as exc:
            elapsed = perf_counter_ns() - start
            if tracer is not None:
                tracer.end_op()
            self.fail(label, exc)
            self.busy_ns[label] += elapsed * factor
            self.wall_busy_ns[label] += elapsed
            return False, None
        elapsed = perf_counter_ns() - start
        if tracer is not None:
            tracer.end_op()
        self._values(self.samples, label).append(elapsed * factor)
        self._values(self.wall_samples, label).append(elapsed)
        self.busy_ns[label] += elapsed * factor
        self.wall_busy_ns[label] += elapsed
        return True, result

    def fail(self, label: str, exc: BaseException) -> None:
        self.failures[type(exc).__name__] += 1
        self._values(self.samples, label).append(math.inf)
        self._values(self.wall_samples, label).append(math.inf)

    @staticmethod
    def _values(samples: dict, label: str) -> array:
        # Unboxed doubles: peak_rss_mb must not grow with the number of
        # operations a run manages, which follows the host's speed.
        values = samples.get(label)
        if values is None:
            values = samples[label] = array("d")
        return values

    def merge(self, other: "Phase") -> None:
        for mine, theirs in ((self.samples, other.samples),
                             (self.wall_samples, other.wall_samples)):
            for label, values in theirs.items():
                self._values(mine, label).extend(values)
        self.failures.update(other.failures)
        self.attempted += other.attempted
        self.elapsed_s += other.elapsed_s
        self.counts.update(other.counts)
        self.busy_ns.update(other.busy_ns)
        self.wall_busy_ns.update(other.wall_busy_ns)

    @property
    def speed_factor(self) -> float:
        """Reference time per wall time over all operations."""
        wall = sum(self.wall_busy_ns.values())
        return sum(self.busy_ns.values()) / wall if wall else 1.0

    def pooled(self, group: str | None = None,
               wall: bool = False) -> list[float]:
        """The samples of every label in ``group`` (default: all)."""
        samples = self.wall_samples if wall else self.samples
        return [value for label, values in samples.items()
                if group is None or in_group(label, group)
                for value in values]

    def busy_s(self, group: str) -> float:
        return sum(ns for label, ns in self.busy_ns.items()
                   if in_group(label, group)) / 1e9

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class Workload:
    """Shared lifecycle and metrics: one engine, a closed loop of
    :meth:`step` calls for a fixed time, the engine counters read around
    a phase, and the end-to-end metrics over the workload's ``groups``.

    Each group (an operation kind, or one full label) gets its own
    median, tail percentile and rates; over several groups a metric is
    their geometric mean.  That invents no traffic shares: the figure
    does not depend on how often each group runs, and a change of x% in
    any one group moves it by the same amount whatever that group's
    magnitude (Fleming & Wallace, "How not to lie with statistics: the
    correct way to summarize benchmark results", CACM 29(3), 1986).
    """

    engine = None
    #: percentile reported as ``op_tail_us``
    tail = 0.99
    #: operation groups the end-to-end metrics cover
    groups: tuple = ()
    #: ``(name, generic metric, unit, divisor)``: the workload's own
    #: names for the generic metrics
    names: tuple = ()

    def step(self, phase: Phase) -> None:
        raise NotImplementedError

    def run(self, seconds: float, tracer=None,
            overrun: float = OVERRUN) -> Phase:
        phase = Phase(tracer)
        start = perf_counter()
        deadline, limit = start + seconds, start + seconds * overrun
        while True:
            now = perf_counter()
            if now >= deadline and (now >= limit
                                    or self.enough([phase])):
                break
            self.step(phase)
        phase.elapsed_s = perf_counter() - start
        return phase

    def enough(self, phases: list[Phase]) -> bool:
        """Whether every group has MIN_BEYOND samples past its tail."""
        for group in self.groups:
            # list(): another client thread may be adding a label.
            count = sum(len(values) for phase in phases
                        for label, values in list(phase.samples.items())
                        if in_group(label, group))
            if count - math.ceil(self.tail * count) < MIN_BEYOND:
                return False
        return True

    def rates(self, phase: Phase) -> tuple[list[float], list[float]]:
        """Per group, completed operations and ``counts[group]`` items
        per second of the time spent on that group (the elapsed time at
        the reference speed, split by busy time)."""
        busy = sum(phase.busy_s(group) for group in self.groups)
        ops, items = [], []
        for group in self.groups:
            seconds = (phase.elapsed_s * phase.speed_factor
                       * phase.busy_s(group) / busy)
            completed = sum(1 for value in phase.pooled(group)
                            if math.isfinite(value))
            ops.append(completed / seconds)
            items.append(phase.counts[group] / seconds)
        return ops, items

    def summarize(self, phase: Phase) -> tuple[dict, list]:
        """The generic end-to-end metrics, and the lines the report
        prints: the workload's names, then every group on its own."""
        p50s, tails, lines, short = [], [], [], []
        ops, items = self.rates(phase)
        for group, rate, item_rate in zip(self.groups, ops, items):
            samples = phase.pooled(group)
            p50, _ = percentile(samples, 0.50)
            tail, beyond = percentile(samples, self.tail)
            wall = phase.pooled(group, wall=True)
            wall_p50, _ = percentile(wall, 0.50)
            wall_tail, _ = percentile(wall, self.tail)
            p50s.append(p50)
            tails.append(tail)
            if beyond < MIN_BEYOND:
                short.append(group)
            lines.append((
                f"  [{group}]", rate, "1/s",
                f"p50 {p50 / 1e3:.1f} us, p{round(self.tail * 100)} "
                f"{tail / 1e3:.1f} us (wall clock {wall_p50 / 1e3:.1f}, "
                f"{wall_tail / 1e3:.1f} us), n={len(samples)} ({beyond} "
                f"beyond the tail"
                f"{', TOO FEW' if beyond < MIN_BEYOND else ''}), "
                f"{item_rate:.1f} items/s"))
        generic = {"op_p50_us": geomean(p50s) / 1e3,
                   "op_tail_us": geomean(tails) / 1e3,
                   "ops_s": geomean(ops), "items_s": geomean(items)}
        how = (f"geometric mean over {', '.join(self.groups)}"
               if len(self.groups) > 1 else self.groups[0])
        named = [(name, generic[metric] / divisor, unit, how)
                 for name, metric, unit, divisor in self.names]
        named.append(("  speed factor", phase.speed_factor, "",
                      "reference time per wall-clock time, over all "
                      "operations"))
        if short:
            named.append(("  WARNING", float(MIN_BEYOND), "",
                          f"fewer samples than this beyond the tail "
                          f"percentile in {', '.join(short)}"))
        return generic, named + lines

    def counters(self) -> dict:
        return {"plan_cache": self.engine.pipeline.plan_cache.stats.as_dict()}

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def cleanup(self) -> None:
        """Release everything the run left behind."""
        self.close()


def percentile(values: list[float], fraction: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    if not values:
        return math.nan, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def sqlite_copy(catalog: Catalog, tables: list[str]) -> sqlite3.Connection:
    """A stdlib sqlite3 database holding the same rows as ``tables``."""
    connection = sqlite3.connect(":memory:")
    for name in tables:
        table = catalog.table(name)
        columns = [column.name for column in table.columns]
        connection.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        connection.executemany(
            f"INSERT INTO {name} VALUES "
            f"({', '.join('?' for _ in columns)})",
            [tuple(row) for row in table.rows()])
    return connection


def cache_canonical(cache) -> dict:
    """Order-insensitive image of an XNF cache: per component the sorted
    object values, per relationship the sorted (parent values, child
    values...) tuples."""
    workspace = cache.workspace
    components = {
        name: sorted(tuple(obj.values) for obj in workspace.extent(name))
        for name in workspace.component_names()}
    relationships = {
        name: sorted((tuple(parent.values),)
                     + tuple(tuple(child.values) for child in children)
                     for parent, children in workspace.connections_of(name))
        for name in workspace.relationship_names()}
    return {"components": components, "relationships": relationships}


def canonical_tuples(canonical: dict) -> int:
    """Component rows plus connections of a canonical CO image."""
    return sum(len(rows) for rows in canonical["components"].values()) \
        + sum(len(rows) for rows in canonical["relationships"].values())


def diff_canonical(expected: dict, actual: dict, what: str) -> list[str]:
    """Human-readable differences between two canonical CO images."""
    problems = []
    for section in ("components", "relationships"):
        names = set(expected[section]) | set(actual[section])
        for name in sorted(names):
            want = expected[section].get(name)
            got = actual[section].get(name)
            if want != got:
                problems.append(
                    f"{what}: {section[:-1]} {name} differs "
                    f"(expected {len(want or ())} tuples, got "
                    f"{len(got or ())})")
    return problems
