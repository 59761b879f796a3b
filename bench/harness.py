"""What every workload shares: the noise model, block bookkeeping, the
benchmark's own spans, probe isolation and answer digests.

Importing this module does not import the program under test.
"""

import hashlib
import json
import math
import os
import resource
import statistics
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: ``generate(seed=...)`` for every workload. The dataset is frozen (the
#: README says why); ``--seed`` drives the op streams and statement order.
DATA_SEED = 42


# -- statistics and the noise model -----------------------------------------


def percentile(values, q):
    """Linear-interpolated ``q`` (0..1) quantile; ``values`` non-empty."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values):
    return percentile(values, 0.5)


def quiet(values, better="lower"):
    """The run's value for a statistic measured once per block.

    Interference on a shared host only ever makes a block slower, so the
    quartile on the fast side is both nearer the true cost and steadier
    than the median: 25th percentile of times, 75th of rates.
    """
    return percentile(values, 0.25 if better == "lower" else 0.75)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spread(values):
    """Quartile distance as a share of the median (the driver's test)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- the host's speed, measured while the work runs ------------------------------


class Reference:
    """A fixed pure-Python loop that says how fast this host runs *now*.

    On a small shared VM the same code runs 10–50 % faster or slower for
    seconds at a time (no steal time is reported; CPU time moves with
    wall time). A burst of this loop next to each piece of timed work
    measures that speed, and the work's time is scaled to what it would
    have taken at nominal speed. Both sides of a comparison are scaled
    by the same loop, which is part of the benchmark and not of the
    program.
    """

    #: seconds one iteration takes on the box the benchmark was written
    #: on, when nothing else runs: times are reported at this speed
    NOMINAL_PER_LOOP = 53e-9

    def __init__(self, loops=50_000):
        self.loops = loops
        self.nominal = self.NOMINAL_PER_LOOP * loops
        self.bursts = []
        self.mark()

    def mark(self):
        """Start a stretch of timed work: the burst before it."""
        self.last = self.burst()

    def burst(self):
        seconds = spin(self.loops)
        self.bursts.append(seconds)
        return seconds

    def factor(self):
        """Scale for the work done since the previous burst: nominal
        over the mean of the bursts on either side of it."""
        before = self.last
        self.last = self.burst()
        return self.nominal * 2.0 / (before + self.last)

    def speed(self):
        """Median host speed over the run (1.0 = nominal)."""
        return self.nominal / median(self.bursts)


def spin(loops):
    """The reference loop itself; returns the seconds it took."""
    start = time.perf_counter()
    x = 0
    for i in range(loops):
        x += i * i % 7
    return time.perf_counter() - start


class Phases:
    """Set-up steps timed one by one, each scaled by the bursts around
    it. ``raw`` keeps the unscaled seconds."""

    def __init__(self, reference):
        self.reference = reference
        self.raw = {}
        self.scaled = {}
        reference.mark()

    def run(self, name, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        self.raw[name] = seconds
        self.scaled[name] = seconds * self.reference.factor()
        return result


class Block:
    """One timed block. ``latency`` holds each op's time at nominal host
    speed, ``raw`` the seconds as they passed; ``wall`` likewise.
    ``failed`` holds the positions of the ops that failed: they are
    counted, and left out of every rate and latency statistic (an op
    that fails fast must not read as a fast op)."""

    __slots__ = ("wall", "raw_wall", "latency", "raw", "kind", "failed",
                 "cached")

    def __init__(self):
        self.wall = 0.0
        self.raw_wall = 0.0
        self.latency = []
        self.raw = []
        self.kind = []
        self.failed = set()
        #: served replies only: whether each came from the result cache
        self.cached = []

    def add(self, kind, seconds):
        """Record an op; its scale is set by :meth:`scale` afterwards."""
        self.kind.append(kind)
        self.raw.append(seconds)

    def scale(self, factor):
        """Scale the ops recorded since the last call."""
        self.latency.extend(
            seconds * factor for seconds in self.raw[len(self.latency):]
        )

    def extend(self, other):
        """Append another connection's ops to this block's."""
        base = len(self.raw)
        self.kind += other.kind
        self.raw += other.raw
        self.latency += other.latency
        self.cached += other.cached
        self.failed.update(base + position for position in other.failed)

    def completed(self):
        """(kind, seconds at nominal speed) of every op that answered,
        and answered right."""
        return [(kind, seconds)
                for position, (kind, seconds)
                in enumerate(zip(self.kind, self.latency))
                if position not in self.failed]

    def by_kind(self):
        grouped = {}
        for kind, seconds in self.completed():
            grouped.setdefault(kind, []).append(seconds)
        return grouped


def end_to_end(blocks, is_read, pick=quiet):
    """The five block-derived end-to-end metrics. Each statistic is
    computed per block and ``pick`` (the quiet quartile) chooses the
    run's value across blocks. ``is_read(kind)`` says which op kinds are
    reads.

    ``pass_s`` and ``stmt_geomean_ms`` pick per op kind before
    combining, so one disturbed statement in one block does not move
    the sum; every kind weighs the same in the geometric mean.
    """
    per_kind = {}
    counts = {}
    done = []
    for block in blocks:
        done.append([seconds for _kind, seconds in block.completed()])
        for kind, seconds in block.by_kind().items():
            per_kind.setdefault(kind, []).append(sum(seconds) / len(seconds))
            counts[kind] = counts.get(kind, 0) + len(seconds)
    kind_time = {kind: pick(means) for kind, means in per_kind.items()}
    reads = [
        median([s for k, s in b.completed() if is_read(k)]) for b in blocks
    ]
    return {
        "pass_s": sum(
            kind_time[kind] * counts[kind] / len(blocks) for kind in kind_time
        ),
        "stmt_geomean_ms": geomean(list(kind_time.values())) * 1e3,
        "ops_per_s": pick(
            [len(d) / b.wall for d, b in zip(done, blocks)], "higher"
        ),
        "op_p95_ms": pick([percentile(d, 0.95) for d in done]) * 1e3,
        "read_p50_ms": pick(reads) * 1e3,
    }


def fastest(values, better="lower"):
    return min(values) if better == "lower" else max(values)


def middle(values, better="lower"):
    return median(values)


def block_table(blocks):
    """Median, both quartiles and the sample count of each per-block
    statistic, for the printed report."""
    done = [[seconds for _kind, seconds in b.completed()] for b in blocks]
    rows = {
        "ops_per_s": [len(d) / b.wall for d, b in zip(done, blocks)],
        "op_p50_ms": [median(d) * 1e3 for d in done],
        "op_p95_ms": [percentile(d, 0.95) * 1e3 for d in done],
        "block_wall_s": [b.wall for b in blocks],
        "block_raw_wall_s": [b.raw_wall for b in blocks],
    }
    return {
        name: {
            "n": len(values),
            "q25": percentile(values, 0.25),
            "median": median(values),
            "q75": percentile(values, 0.75),
        }
        for name, values in rows.items()
    }


def peak_rss_mb():
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_database(dataset, profile):
    """A fresh ``Database`` holding ``dataset``: tables, rows, spatial
    indexes, ``ANALYZE``."""
    from repro.engines import Database

    database = Database(profile)
    dataset.load_into(database)
    database.execute("ANALYZE")
    return database


class Workload:
    """What the four workloads have in common: options, scale, golden
    answers, and the count of ops attempted and failed."""

    def __init__(self, name, options, scale, quick_scale):
        self.name = name
        self.options = options
        self.reference = options.reference
        self.scale = quick_scale if options.quick else scale
        golden = load_expected(name)
        matches = (golden["data_seed"], golden["scale"]) == (
            DATA_SEED, self.scale
        )
        #: committed answers when they apply to this data; otherwise
        #: (``--quick``) the first answer seen becomes the reference
        self.expected = golden["answers"] if matches else {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, what, why, block=None, position=None):
        """Count a failed op; ``position`` is its place in ``block``
        when it was one of the block's timed ops."""
        if block is not None:
            block.failed.add(position)
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{what}: {why}")

    def golden(self):
        return {"data_seed": DATA_SEED, "scale": self.scale,
                "answers": self.expected}

    def peak_rss_mb(self):
        return peak_rss_mb()

    def finish(self):
        return {}


# -- answers ------------------------------------------------------------------


def canonical(value):
    """Rows as comparable plain data: floats to 9 significant digits (a
    sum's last bits may differ between platforms), geometry as WKT."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    wkt = getattr(value, "wkt", None)
    if callable(wkt):
        return wkt()
    return value


def digest(rows, ordered=True):
    """Short stable digest of a result; ``ordered=False`` for results
    whose row order the statement leaves open."""
    plain = canonical(rows)
    if not ordered:
        plain = sorted(plain, key=repr)
    text = json.dumps(plain, separators=(",", ":"), sort_keys=True)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def load_expected(workload):
    path = os.path.join(BENCH_DIR, "expected", f"{workload}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def stream_hash(ops):
    """Digest of a generated op stream (same seed, same hash)."""
    return hashlib.sha1(repr(ops).encode("utf-8")).hexdigest()[:16]


# -- the benchmark's own spans -------------------------------------------------


class Tracer:
    """Spans recorded by the benchmark around calls into the program.

    Kept in memory and written out when the run ends. A span is
    ``[name, start, end, parent, op, scale]`` and its id is its
    position; ``scale`` is the host-speed factor of the moment (see
    :class:`Reference`), applied to every duration read back. A layer's
    self time is its spans' duration minus their child spans' duration.
    """

    def __init__(self):
        self.spans = []

    def begin(self, name, parent=None, op=None):
        self.spans.append([name, time.perf_counter(), None, parent, op, 1.0])
        return len(self.spans) - 1

    def end(self, span_id):
        span = self.spans[span_id]
        span[2] = time.perf_counter()
        return span[2] - span[1]

    def call(self, name, parent, op, fn, *args):
        """Time ``fn(*args)`` as one span; returns (result, id, seconds)."""
        span_id = self.begin(name, parent, op)
        result = fn(*args)
        return result, span_id, self.end(span_id)

    def scale(self, first, factor):
        """Set the host-speed factor of every span from ``first`` on."""
        for span in self.spans[first:]:
            span[5] = factor

    def _durations(self):
        return [(end - start) * scale
                for _n, start, end, _p, _o, scale in self.spans]

    def self_times(self):
        """Seconds of self time per span name."""
        durations = self._durations()
        own = list(durations)
        for span, seconds in zip(self.spans, durations):
            if span[3] is not None:
                own[span[3]] -= seconds
        totals = {}
        for span, seconds in zip(self.spans, own):
            totals[span[0]] = totals.get(span[0], 0.0) + seconds
        return totals

    def durations(self, name):
        return [seconds for span, seconds in zip(self.spans, self._durations())
                if span[0] == name]

    def top_level_seconds(self):
        return sum(seconds
                   for span, seconds in zip(self.spans, self._durations())
                   if span[3] is None)

    def write(self, workload):
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{workload}.spans.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, span in enumerate(self.spans):
                name, start, end, parent, op, scale = span
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "scale": scale,
                }) + "\n")
        return path


def ladder(tracer, untraced_seconds):
    """Per-layer self time of the traced replay, its sum, and what the
    untraced run of the same work leaves unattributed."""
    by_layer = {}
    for name, seconds in tracer.self_times().items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    attributed = sum(by_layer.values())
    return {
        "layers": by_layer,
        "attributed_s": attributed,
        "untraced_s": untraced_seconds,
        "unattributed_share": 1.0 - attributed / untraced_seconds,
        "overhead_ratio": tracer.top_level_seconds() / untraced_seconds,
    }


# -- probe isolation ------------------------------------------------------------


class Probes:
    """Collects per-layer values; a probe that raises reports its names
    as unavailable with the reason and never fails the run."""

    def __init__(self):
        self.values = {}
        self.unavailable = {}

    def attempt(self, names, fn):
        """``fn()``, or ``None`` with ``names`` marked unavailable."""
        try:
            return fn()
        except Exception as exc:  # boundary: the program may have moved
            reason = f"{type(exc).__name__}: {exc}"
            for name in names:
                self.unavailable[name] = reason
            return None

    def run(self, names, fn):
        """A probe whose result is a dict of metric values."""
        self.set(self.attempt(names, fn) or {})

    def set(self, values):
        self.values.update(values)


def time_calls(fn, items, repeat=1):
    """Mean seconds per ``fn(item)`` over ``items`` × ``repeat``."""
    start = time.perf_counter()
    for _ in range(repeat):
        for item in items:
            fn(item)
    return (time.perf_counter() - start) / (len(items) * repeat)
