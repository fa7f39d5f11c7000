"""Seeded inputs and the five chained workloads.

Everything the program under test sees is derived here from ``--seed``:
the corpus rung, the three-way query mix, the spliced "generated" texts,
the Zipf request stream and the live append/query schedule.  The program
receives only the generated arrays.

``--seconds`` sets the *amount of work*: each workload issues a fixed
number of operations per requested second (``WORK_PER_SECOND``,
calibrated on the 2-core reference host so the measured region lasts
about ``--seconds``).  Fixed counts rather than a deadline so that every
counter (cache hits, evictions, seals, memorized fraction, bytes)
repeats exactly for one seed, whatever the host's speed.

Every workload function runs one *pass*: ``ctx.tracer`` is ``None`` for
the untraced pass that yields the end-to-end metrics, and a
:class:`~trace.Tracer` for the traced pass that yields the per-layer
ones.  The code path is the same; tracing only swaps in the delegating
proxies of ``trace.py`` and opens spans around the public calls.
"""

from __future__ import annotations

import heapq
import json
import math
import resource
import shutil
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.compact_windows import generate_compact_windows_kwide
from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.core.theory import expected_window_count
from repro.corpus.corpus import InMemoryCorpus
from repro.corpus.synthetic import synthweb, zipf_corpus
from repro.engine import NearDupEngine
from repro.index.builder import build_memory_index
from repro.index.codec import encode_list
from repro.index.external import ExternalBuildConfig, build_external_index
from repro.index.inverted import POSTING_BYTES
from repro.index.lsm.live import LiveIndex, LiveIndexConfig, LiveSearcher
from repro.index.storage import DiskInvertedIndex
from repro.index.validate import validate_index
from repro.memorization.evaluator import (
    MemorizationReport,
    QueryOutcome,
    sliding_queries,
)
from repro.memorization.report import figure4_series
from repro.query.executor import BatchQueryExecutor
from repro.service.client import ServiceClient
from repro.service.protocol import parse_tokens, result_to_wire
from repro.service.server import ServiceConfig, ServiceRunner

from trace import TimedLive, TimedReader, Tracer, self_times, tree_self_sums

# Paper section 5 defaults.
K, FAMILY_SEED, T, THETA = 32, 5, 25, 0.8
VOCAB, MEAN_LENGTH, WINDOW = 4096, 300, 64
SWEEP_THETAS = (1.0, 0.9, 0.8)
SWEEP_WIDTHS = (32, 64)
SWEEP_BATCH = 256
SWEEP_TEXT_LENGTH = 512
HOT_POOL = 512
SERVE_CLIENTS = 2
LIVE_QUERIES_PER_BATCH = 8
CHECK_SUBSET = 64
LIVE_CHECK_QUERIES = 32


@dataclass(frozen=True)
class Scale:
    """Corpus rung.  A quick run is never comparable to a full one.

    ``synthweb`` draws text lengths, so its token total moves by several
    percent from seed to seed, and list lengths, index bytes and query
    cost move with it.  The rung is therefore cut to ``tokens`` tokens
    (set a few standard deviations under the expected total): every seed
    indexes exactly the same amount of text.
    """

    name: str
    num_texts: int
    tokens: int


FULL = Scale("full", num_texts=600, tokens=150_000)
QUICK = Scale("quick", num_texts=250, tokens=55_000)

#: Operations issued per requested second (see the module docstring):
#: cold queries, sweep batches of 256 windows, served requests (all
#: clients together), live append batches.
WORK_PER_SECOND = {
    "query_cold": 125.0,
    "sweep_batch": 1.375,
    "serve_closed": 100.0,
    "live_ingest_query": 2.25,
}
COLD_WARMUP = 50
SERVE_WARMUP = 100


def family() -> HashFamily:
    return HashFamily(k=K, seed=FAMILY_SEED)


def make_corpus(seed: int, scale: Scale) -> InMemoryCorpus:
    texts = list(
        synthweb(
            num_texts=scale.num_texts,
            mean_length=MEAN_LENGTH,
            vocab_size=VOCAB,
            duplicate_rate=0.15,
            span_length=64,
            mutation_rate=0.05,
            seed=seed,
        ).corpus
    )
    ends = np.cumsum([text.size for text in texts])
    last = int(np.searchsorted(ends, scale.tokens))
    if last < len(texts):  # cut the text that crosses the budget
        texts = texts[: last + 1]
        texts[last] = texts[last][: texts[last].size - int(ends[last] - scale.tokens)]
    return InMemoryCorpus(texts)


def build_index(corpus, directory: Path):
    """The one index build every workload chains on (Fig. 2's call)."""
    return build_external_index(
        corpus, family(), T, directory, config=ExternalBuildConfig(codec="packed")
    )


def directory_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# Seeded input generators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Query:
    tokens: np.ndarray
    kind: str  # "verbatim" | "mutated" | "novel"
    text: int = -1
    start: int = -1


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _mutated(tokens: np.ndarray, rng, rate: float) -> np.ndarray:
    out = np.array(tokens)
    mask = rng.random(out.size) < rate
    out[mask] = rng.integers(0, VOCAB, size=int(mask.sum()), dtype=out.dtype)
    return out


def _corpus_window(texts, rng, limit: int | None = None) -> Query:
    """A verbatim ``WINDOW``-token slice of one of the first ``limit`` texts."""
    limit = len(texts) if limit is None else limit
    while True:
        text = int(rng.integers(0, limit))
        if texts[text].size >= WINDOW:
            start = int(rng.integers(0, texts[text].size - WINDOW + 1))
            return Query(texts[text][start : start + WINDOW], "verbatim", text, start)


def _novel(count: int, length: int, rng) -> list[np.ndarray]:
    """``count`` fresh texts of exactly ``length`` tokens, the corpus's Zipf."""
    return list(
        zipf_corpus(
            count, length, VOCAB, min_length=length, seed=int(rng.integers(1 << 31))
        )
    )


def query_mix(texts, rng, count: int) -> list[Query]:
    """Thirds, interleaved: verbatim windows, 10 %-mutated windows, novel text."""
    novel = iter(_novel(count // 3 + 1, WINDOW, rng))
    out = []
    for position in range(count):
        if position % 3 == 2:
            out.append(Query(next(novel), "novel"))
            continue
        query = _corpus_window(texts, rng)
        if position % 3 == 1:
            query = Query(
                _mutated(query.tokens, rng, 0.10), "mutated", query.text, query.start
            )
        out.append(query)
    return out


def generated_texts(texts, rng, count: int) -> list[np.ndarray]:
    """Stand-ins for LM generations: ``SWEEP_TEXT_LENGTH`` novel tokens with
    a quarter of the 64-token slots (exactly, at random positions) spliced
    from the corpus at 5 % mutation."""
    out = _novel(count, SWEEP_TEXT_LENGTH, rng)
    slots = SWEEP_TEXT_LENGTH // WINDOW
    for text in out:
        for slot in rng.choice(slots, size=slots // 4, replace=False):
            source = _corpus_window(texts, rng)
            text[slot * WINDOW : (slot + 1) * WINDOW] = _mutated(source.tokens, rng, 0.05)
    return out


def request_stream(texts, rng, count: int, pool: list[Query]) -> list[Query]:
    """Zipf(1.1) draws from the hot pool, with 3 requests in every 10
    replaced by fresh mixed queries."""
    weights = 1.0 / np.arange(1, len(pool) + 1) ** 1.1
    ranks = rng.choice(len(pool), size=count, p=weights / weights.sum())
    fresh = iter(query_mix(texts, rng, count))
    return [
        next(fresh) if position % 10 in (2, 5, 8) else pool[int(rank)]
        for position, rank in enumerate(ranks)
    ]


def inputs_query_cold(texts, seed, seconds, scale):
    count = round(WORK_PER_SECOND["query_cold"] * seconds)
    queries = query_mix(texts, _rng(seed, 1), COLD_WARMUP + count)
    return {"warmup": queries[:COLD_WARMUP], "timed": queries[COLD_WARMUP:]}


def inputs_sweep_batch(texts, seed, seconds, scale):
    # One untimed batch fills the cache, then the timed ones.
    batches = 1 + max(2, round(WORK_PER_SECOND["sweep_batch"] * seconds))
    per_text = sum(SWEEP_TEXT_LENGTH // width for width in SWEEP_WIDTHS)
    count = math.ceil(batches * SWEEP_BATCH / per_text)
    return {
        "generated": generated_texts(texts, _rng(seed, 2), count),
        "batches": batches,
    }


def inputs_serve_closed(texts, seed, seconds, scale):
    rng = _rng(seed, 3)
    pool = [_corpus_window(texts, rng) for _ in range(HOT_POOL)]
    per_client = round(WORK_PER_SECOND["serve_closed"] * seconds / SERVE_CLIENTS)
    return {
        "warmup": request_stream(texts, rng, SERVE_WARMUP, pool),
        "streams": [
            request_stream(texts, rng, per_client, pool)
            for _ in range(SERVE_CLIENTS)
        ],
    }


def inputs_live_ingest_query(texts, seed, seconds, scale):
    """Half the rung in append batches of equal *tokens* (about 14 texts
    each), every batch followed by 8 windows of already-appended texts.

    Equal tokens, and a seal threshold half a batch under a third of the
    postings (Theorem 1 gives the count): every seed then seals after
    batches 6, 12 and 18 of 18, so the same share of queries sees 0, 1, 2
    and 3 runs and the median query sits in the middle of the 1-run mode
    instead of hopping between modes.
    """
    rng = _rng(seed, 4)
    batches = max(4, round(WORK_PER_SECOND["live_ingest_query"] * seconds))
    seal_every = max(2, batches // 3)
    ends = np.cumsum([text.size for text in texts])
    budget = scale.tokens // 2
    edges = np.searchsorted(ends, np.arange(batches + 1) * budget / batches, "right")
    steps = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        queries = []
        for position in range(LIVE_QUERIES_PER_BATCH):
            query = _corpus_window(texts, rng, limit=int(hi))
            if position % 2:
                query = Query(
                    _mutated(query.tokens, rng, 0.10), "mutated", query.text, query.start
                )
            queries.append(query)
        steps.append((texts[lo:hi], queries))
    postings = K * sum(
        expected_window_count(int(text.size), T) for text in texts[: edges[-1]]
    )
    return {
        "steps": steps,
        "num_texts": int(edges[-1]),
        "seal_threshold": int(postings * (seal_every - 0.5) / batches),
    }


# ----------------------------------------------------------------------
# Pass context and outcome
# ----------------------------------------------------------------------
@dataclass
class Context:
    seconds: float
    work_dir: Path  #: scratch owned by this child process
    index_dir: Path  #: the chained index (written by build_external, read by the rest)
    tracer: Tracer | None = None

    def span(self, name: str, request_id=None):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, request_id)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set of *this* process.

    ``VmHWM`` rather than ``ru_maxrss``: on Linux ``exec`` folds the
    forking parent's peak into the child's ``ru_maxrss``, so a child of
    the process that just built the index would report the build's memory.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timing_metrics(
    out: Outcome, begin: float, done_at: list[float], seconds: list[float], tail: float
) -> None:
    """Rate and median latency, each the median over ten equal chunks of
    consecutive operations: this is a shared host, and a noisy-neighbour
    episode shorter than half the run then moves neither number."""
    edges = np.linspace(0, len(done_at), 11).astype(int)
    rates, medians = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        started = begin if lo == 0 else done_at[lo - 1]
        rates.append((hi - lo) / (done_at[hi - 1] - started))
        medians.append(percentile(seconds[lo:hi], 50))
    out.metrics["throughput_per_s"] = statistics.median(rates)
    out.metrics["latency_p50_ms"] = 1e3 * statistics.median(medians)
    out.metrics["latency_tail_ms"] = 1e3 * percentile(seconds, tail)


def _wire(result) -> dict:
    return json.loads(json.dumps(result_to_wire(result)))


def _found(result, query: Query) -> bool:
    """Verbatim recall: the source text is matched on an overlapping span."""
    end = query.start + WINDOW - 1
    return any(
        span.text_id == query.text and span.start <= end and span.end >= query.start
        for span in result.merged_spans()
    )


def _open_reader(ctx: Context):
    reader = DiskInvertedIndex(ctx.index_dir)
    return reader if ctx.tracer is None else TimedReader(reader, ctx.tracer)


def _decoded_index_bytes(reader) -> int:
    return int(reader.num_postings) * POSTING_BYTES


def _index_metrics(ctx: Context, corpus, out: Outcome) -> None:
    """Size (and, traced, open cost) of the index a reading workload opened."""
    out.metrics["index_bytes_per_token"] = (
        directory_bytes(ctx.index_dir) / corpus.total_tokens
    )
    if ctx.tracer is not None:
        out.layers.update(storage_layers(ctx.index_dir))


# ----------------------------------------------------------------------
# Per-layer numbers read off the trace
# ----------------------------------------------------------------------
READ_SPANS = (
    "index.storage.lengths",
    "index.storage.load_list",
    "index.storage.point_read",
)


def _reader_layers(tracer: Tracer, queries: int, root_name: str) -> dict[str, float]:
    """Layer metrics of the read path: ``*_ms`` are means per query,
    ``*_share`` are shares of the summed root-span (query) time."""
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    codec_s = 0.0
    io_bytes = decoded = 0
    selfs = self_times(tracer.spans)
    root_self = root_s = 0.0
    for span in tracer.spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.seconds
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.attrs is not None:
            codec_s += span.attrs["codec_s"]
            io_bytes += span.attrs["io_bytes"]
            decoded += span.attrs["decoded_bytes"]
        if span.name == root_name:
            root_self += selfs[span.id]
            root_s += span.seconds
    per_query_ms = 1e3 / max(queries, 1)
    read_s = sum(totals.get(name, 0.0) for name in READ_SPANS)
    return {
        "core.hashing.sketch_ms": per_query_ms * totals.get("core.hashing.sketch", 0.0),
        "index.storage.lengths_ms": per_query_ms * totals.get(READ_SPANS[0], 0.0),
        "index.storage.load_list_ms": per_query_ms * totals.get(READ_SPANS[1], 0.0),
        "index.storage.load_list_calls": calls.get(READ_SPANS[1], 0),
        "index.storage.point_read_ms": per_query_ms * totals.get(READ_SPANS[2], 0.0),
        "index.storage.point_read_calls": calls.get(READ_SPANS[2], 0),
        "index.storage.self_share": (read_s - codec_s) / root_s,
        "index.storage.io_bytes": io_bytes,
        "index.codec.decode_share": codec_s / root_s,
        "index.codec.decode_mpostings_per_s": (
            decoded / POSTING_BYTES / codec_s / 1e6 if codec_s > 0 else 0.0
        ),
        "core.search.self_ms": per_query_ms * root_self,
    }


def _search_counters(stats_list) -> dict[str, float]:
    candidates = sum(s.candidates for s in stats_list)
    matched = sum(s.texts_matched for s in stats_list)
    return {
        "core.search.candidates_per_match": candidates / max(matched, 1),
        "core.search.long_lists_per_query": (
            sum(s.long_lists for s in stats_list) / max(len(stats_list), 1)
        ),
    }


def _check_self_time_sums(tracer: Tracer, root_name: str, out: Outcome) -> None:
    """Per-query self times must sum to the query span."""
    selfs = self_times(tracer.spans)
    sums = tree_self_sums(tracer.spans, selfs)
    for span in tracer.spans:
        if span.name == root_name and abs(sums[span.id] - span.seconds) > 1e-6:
            out.fail(f"self times of {root_name} span {span.id} do not sum to it")
            return


def storage_layers(directory: Path) -> dict[str, float]:
    opens = []
    for _ in range(20):
        begin = time.perf_counter()
        DiskInvertedIndex(directory)
        opens.append(time.perf_counter() - begin)
    payload = (Path(directory) / "index.postings.bin").stat().st_size
    return {
        "index.storage.payload_bytes": payload,
        "index.storage.directory_bytes": directory_bytes(directory) - payload,
        "index.storage.open_ms": 1e3 * statistics.median(opens),
    }


def compact_window_layers(texts) -> dict[str, float]:
    """Window generation alone, on a 200-text sample; count vs Theorem 1."""
    sample = texts[:: max(1, len(texts) // 200)][:200]
    table = family().hash_vocabulary(VOCAB)
    windows = 0
    begin = time.perf_counter()
    for tokens in sample:
        per_func = generate_compact_windows_kwide(table[:, tokens.astype(np.int64)], T)
        windows += sum(int(part.size) for part in per_func)
    elapsed = time.perf_counter() - begin
    tokens = sum(int(text.size) for text in sample)
    expected = K * sum(expected_window_count(int(text.size), T) for text in sample)
    return {
        "core.compact_windows.windows_per_s": windows / elapsed,
        "core.compact_windows.windows_per_token": windows / tokens,
        "core.compact_windows.vs_theorem1": windows / expected,
    }


def encode_layers(directory: Path) -> dict[str, float]:
    """``encode_list`` alone, over the 256 longest lists of the built index."""
    reader = DiskInvertedIndex(directory)
    longest = heapq.nlargest(
        256,
        (
            (int(length), func, int(key))
            for func in range(K)
            for length, key in zip(reader.list_lengths(func), reader.list_keys(func))
        ),
    )
    lists = [np.array(reader.load_list(func, key)) for _, func, key in longest]
    begin = time.perf_counter()
    for postings in lists:
        encode_list(postings)
    elapsed = time.perf_counter() - begin
    return {
        "index.codec.encode_mpostings_per_s": (
            sum(int(p.size) for p in lists) / elapsed / 1e6
        )
    }


# ----------------------------------------------------------------------
# 1. build_external
# ----------------------------------------------------------------------
def run_build_external(ctx: Context, corpus, texts, inputs) -> Outcome:
    out = Outcome()
    tokens = corpus.total_tokens
    walls: list[float] = []
    stats = None
    spent = 0.0
    # At least three builds (a median needs them), more while the next
    # would still fit in --seconds; the last directory stays and is the
    # index every later workload opens.
    while out.attempted < 3 or spent + spent / out.attempted / 2 < ctx.seconds:
        shutil.rmtree(ctx.index_dir, ignore_errors=True)
        out.attempted += 1
        begin = time.perf_counter()
        try:
            with ctx.span("index.external.build"):
                stats = build_index(corpus, ctx.index_dir)
        except Exception as exc:  # noqa: BLE001 - a failed build is a failed operation
            out.fail(f"build raised {exc!r}")
            break
        wall = time.perf_counter() - begin
        spent += wall
        reader = DiskInvertedIndex(ctx.index_dir)
        if int(reader.num_postings) != stats.windows_generated:
            out.fail("num_postings != windows_generated")
        else:
            walls.append(wall)
    if walls:
        # Sampled: a full pass over every list costs more than the build.
        report = validate_index(
            DiskInvertedIndex(ctx.index_dir), corpus, max_lists_per_func=64
        )
        if not report.ok:
            out.fail(f"validate_index: {report.errors[:3]}")
        out.metrics["throughput_per_s"] = tokens / statistics.median(walls)
        out.metrics["latency_p50_ms"] = 1e3 * statistics.median(walls)
        out.metrics["latency_tail_ms"] = 1e3 * max(walls)
        out.metrics["index_bytes_per_token"] = directory_bytes(ctx.index_dir) / tokens
    if ctx.tracer is not None and stats is not None:
        final_bytes = directory_bytes(ctx.index_dir)
        out.layers.update(
            {
                "index.external.generation_share": (
                    stats.generation_seconds / stats.total_seconds
                ),
                "index.external.aggregation_share": (
                    stats.aggregation_seconds / stats.total_seconds
                ),
                "index.external.io_share": stats.io_seconds / stats.total_seconds,
                "index.external.spill_bytes_per_token": (
                    (stats.bytes_written - final_bytes) / tokens
                ),
            }
        )
        out.layers.update(compact_window_layers(texts))
        out.layers.update(encode_layers(ctx.index_dir))
        out.layers.update(storage_layers(ctx.index_dir))
    return out


# ----------------------------------------------------------------------
# 2. query_cold
# ----------------------------------------------------------------------
def run_query_cold(ctx: Context, corpus, texts, inputs) -> Outcome:
    out = Outcome()
    searcher = NearDuplicateSearcher(_open_reader(ctx), corpus=corpus)
    for query in inputs["warmup"]:
        searcher.search(query.tokens, THETA)
    if ctx.tracer is not None:
        ctx.tracer.spans.clear()
    latencies, done_at, answered = [], [], []
    begin = time.perf_counter()
    for position, query in enumerate(inputs["timed"]):
        out.attempted += 1
        tick = time.perf_counter()
        try:
            with ctx.span("query", request_id=position):
                result = searcher.search(query.tokens, THETA)
        except Exception as exc:  # noqa: BLE001 - counted, the loop keeps going
            out.fail(f"query {position} raised {exc!r}")
            continue
        done_at.append(time.perf_counter())
        latencies.append(done_at[-1] - tick)
        answered.append((query, result))
    for query, result in answered:
        if query.kind == "verbatim" and not _found(result, query):
            out.fail(f"verbatim window of text {query.text} not recalled")
    _timing_metrics(out, begin, done_at, latencies, 99)
    _index_metrics(ctx, corpus, out)
    if ctx.tracer is not None:
        _check_self_time_sums(ctx.tracer, "query", out)
        out.layers.update(_reader_layers(ctx.tracer, len(latencies), "query"))
        out.layers.update(_search_counters([r.stats for _, r in answered]))
    return out


# ----------------------------------------------------------------------
# 3. sweep_batch
# ----------------------------------------------------------------------
def _sliced_batches(generated):
    """Windows of the generated texts at both widths, 256 at a time."""
    windows: list[tuple[int, int, int, np.ndarray]] = []
    stream = iter(enumerate(generated))
    while True:
        while len(windows) < SWEEP_BATCH:
            text_no, text = next(stream)
            for width in SWEEP_WIDTHS:
                for index, window in enumerate(sliding_queries(text, width)):
                    windows.append((text_no, width, index, window))
        yield windows[:SWEEP_BATCH]
        windows = windows[SWEEP_BATCH:]


def _fold(reports, batch, per_query) -> None:
    for (text_no, width, index, window), by_theta in zip(batch, per_query):
        for theta, result in by_theta.items():
            spans = result.merged_spans() if result.matches else []
            reports[(theta, width)].outcomes.append(
                QueryOutcome(
                    generated_text=text_no,
                    window_index=index,
                    query=window,
                    matched=bool(result.matches),
                    num_texts=result.num_texts,
                    example=spans[0] if spans else None,
                )
            )


def run_sweep_batch(ctx: Context, corpus, texts, inputs) -> Outcome:
    out = Outcome()
    reader = _open_reader(ctx)
    engine = NearDupEngine(corpus, reader)
    # Twice the decoded index: the working set fits.
    searcher = engine.cached_searcher(cache_bytes=2 * _decoded_index_bytes(reader))
    executor = BatchQueryExecutor(searcher, workers=1)
    reports = {
        (theta, width): MemorizationReport("synthetic", theta, width)
        for theta in SWEEP_THETAS
        for width in SWEEP_WIDTHS
    }
    slice_s = report_s = plan_s = execute_s = cycles_s = 0.0
    unique = referenced = distinct = timed_windows = 0
    cycle_rates, batch_walls = [], []
    checked: list[tuple[np.ndarray, dict]] = []
    batches = _sliced_batches(inputs["generated"])
    for batch_no in range(inputs["batches"]):
        timed = batch_no > 0  # the first batch fills the cache
        if batch_no == 1 and ctx.tracer is not None:
            ctx.tracer.spans.clear()
        begin = time.perf_counter()
        with ctx.span("memorization.slice"):
            batch = next(batches)
        sliced = time.perf_counter()
        out.attempted += len(batch) if timed else 0
        try:
            with ctx.span("batch", request_id=batch_no):
                per_query, stats = executor.execute_thetas(
                    [window for *_, window in batch], list(SWEEP_THETAS)
                )
        except Exception as exc:  # noqa: BLE001 - every window of the batch failed
            for _ in range(len(batch) if timed else 0):
                out.fail(f"batch {batch_no} raised {exc!r}")
            continue
        executed = time.perf_counter()
        with ctx.span("memorization.report"):
            _fold(reports, batch, per_query)
        end = time.perf_counter()
        if not timed:
            continue
        slice_s += sliced - begin
        report_s += end - executed
        cycles_s += end - begin
        cycle_rates.append(len(batch) / (end - begin))
        batch_walls.append((executed - sliced) / len(batch))
        timed_windows += len(batch)
        plan_s += stats.plan_seconds
        execute_s += stats.execute_seconds
        unique += stats.unique_queries
        referenced += stats.lists_referenced
        distinct += stats.distinct_lists
        room = CHECK_SUBSET - len(checked)
        checked.extend(
            (window, by_theta) for (*_, window), by_theta in zip(batch[:room], per_query)
        )
    begin = time.perf_counter()
    with ctx.span("memorization.report"):
        series = figure4_series(list(reports.values()))
    report_s += time.perf_counter() - begin
    cycles_s += time.perf_counter() - begin
    cache = searcher.index.stats()
    executor.close()

    direct = NearDuplicateSearcher(DiskInvertedIndex(ctx.index_dir), corpus=corpus)
    for window, by_theta in checked:
        expected = direct.search_thetas(window, list(SWEEP_THETAS))
        if any(_wire(by_theta[theta]) != _wire(expected[theta]) for theta in SWEEP_THETAS):
            out.fail("batched result differs from a direct uncached search")
    # Per batch cycle (slice, search, fold into the reports); medians, so
    # one disturbed batch does not move the run's numbers.
    out.metrics["throughput_per_s"] = statistics.median(cycle_rates)
    out.metrics["latency_p50_ms"] = 1e3 * statistics.median(batch_walls)
    out.metrics["latency_tail_ms"] = 1e3 * max(batch_walls)
    _index_metrics(ctx, corpus, out)
    if ctx.tracer is not None:
        _check_self_time_sums(ctx.tracer, "batch", out)
        fraction = next(
            row["memorized_fraction"]
            for row in series
            if row["theta"] == THETA and row["window_width"] == WINDOW
        )
        inner_loads = sum(
            1 for span in ctx.tracer.spans if span.name == "index.storage.load_list"
        )
        out.layers.update(_reader_layers(ctx.tracer, timed_windows, "batch"))
        out.layers.update(
            {
                "memorization.slice_share": slice_s / cycles_s,
                "memorization.report_share": report_s / cycles_s,
                "memorization.memorized_fraction": fraction,
                "query.planner.plan_share": plan_s / cycles_s,
                "query.planner.unique_share": unique / max(timed_windows, 1),
                "query.planner.distinct_list_share": distinct / max(referenced, 1),
                "query.executor.execute_share": execute_s / cycles_s,
                "index.cache.hit_rate": cache.hit_rate,
                "index.cache.evictions": cache.evictions,
                "index.cache.admission_rejections": cache.admission_rejections,
                "index.cache.inner_load_calls": inner_loads,
            }
        )
    return out


# ----------------------------------------------------------------------
# 4. serve_closed
# ----------------------------------------------------------------------
def run_serve_closed(ctx: Context, corpus, texts, inputs) -> Outcome:
    out = Outcome()
    reader = _open_reader(ctx)
    engine = NearDupEngine(corpus, reader)
    # A quarter of the decoded index: the working set does not fit.
    cache_bytes = _decoded_index_bytes(reader) // 4
    streams = inputs["streams"]
    latencies: list[list[tuple[float, float]]] = [[] for _ in streams]
    responses: list[list] = [[] for _ in streams]
    errors: list[str] = []
    starts: list[float] = []
    barrier = threading.Barrier(len(streams))

    def client_loop(client_no: int, host: str, port: int) -> None:
        with ServiceClient(host, port) as client:
            client.health()  # connect before the clock starts
            barrier.wait(timeout=30)
            first = time.perf_counter()
            for position, query in enumerate(streams[client_no]):
                tick = time.perf_counter()
                try:
                    with ctx.span("request", request_id=(client_no, position)):
                        reply = client.search(query.tokens, THETA)
                except Exception as exc:  # noqa: BLE001 - shed/timeout/transport
                    errors.append(f"client {client_no} request {position}: {exc!r}")
                    continue
                done = time.perf_counter()
                latencies[client_no].append((done, done - tick))
                if client_no == 0 and len(responses[0]) < CHECK_SUBSET:
                    responses[0].append((query, reply["result"]))
            starts.append(first)

    with ServiceRunner(engine, ServiceConfig(port=0, cache_bytes=cache_bytes)) as runner:
        with ServiceClient(runner.host, runner.port) as client:
            for query in inputs["warmup"]:
                client.search(query.tokens, THETA)
        if ctx.tracer is not None:
            ctx.tracer.spans.clear()
        threads = [
            threading.Thread(target=client_loop, args=(n, runner.host, runner.port))
            for n in range(len(streams))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with ServiceClient(runner.host, runner.port) as client:
            served = client.stats()

    out.attempted = sum(len(stream) for stream in streams)
    for message in errors:
        out.fail(message)
    direct = NearDuplicateSearcher(DiskInvertedIndex(ctx.index_dir), corpus=corpus)
    for query, wire in responses[0]:
        if wire != _wire(direct.search(query.tokens, THETA)):
            out.fail("served result differs from a direct uncached search")
    merged = sorted(pair for per_client in latencies for pair in per_client)
    flat = [seconds for _, seconds in merged]
    _timing_metrics(out, min(starts), [done for done, _ in merged], flat, 98)
    _index_metrics(ctx, corpus, out)
    if ctx.tracer is not None:
        out.layers.update(_reader_layers(ctx.tracer, len(flat), "request"))
        # The kernel runs on server threads, out of the client's span tree.
        del out.layers["core.search.self_ms"]
        out.layers.update(_service_layers(ctx, corpus, inputs, cache_bytes, served))
        out.layers["service.overhead_ms"] = (
            out.metrics["latency_p50_ms"] - out.layers["service.inprocess_ms"]
        )
    return out


def _service_layers(ctx, corpus, inputs, cache_bytes, served) -> dict[str, float]:
    """The same stream through an identically configured in-process
    searcher, the wire codec alone, and the server's own ``/stats``."""
    engine = NearDupEngine(corpus, DiskInvertedIndex(ctx.index_dir))
    searcher = engine.cached_searcher(cache_bytes=cache_bytes)
    engine.warmup(searcher, max_lists=ServiceConfig().warmup_lists)
    for query in inputs["warmup"]:
        searcher.search(query.tokens, THETA)
    interleaved = [q for group in zip(*inputs["streams"]) for q in group]
    seconds, results = [], []
    for query in interleaved:
        tick = time.perf_counter()
        results.append(searcher.search(query.tokens, THETA))
        seconds.append(time.perf_counter() - tick)
    tick = time.perf_counter()
    for result in results:
        json.dumps(result_to_wire(result))
    encode_s = time.perf_counter() - tick
    bodies = [
        json.dumps({"query": query.tokens.tolist(), "theta": THETA})
        for query in interleaved
    ]
    tick = time.perf_counter()
    for body in bodies:
        parse_tokens(json.loads(body)["query"])
    decode_s = time.perf_counter() - tick
    service, cache = served["service"], served["cache"]
    return {
        "service.inprocess_ms": 1e3 * percentile(seconds, 50),
        "service.protocol.encode_ms": 1e3 * encode_s / len(results),
        "service.protocol.decode_ms": 1e3 * decode_s / len(bodies),
        "service.server.queue_wait_mean_ms": service["queue_wait"]["mean_ms"],
        "service.server.mean_batch_size": service["mean_batch_size"],
        "service.server.shed": service["shed"],
        "service.server.timeouts": service["timeouts"],
        "index.cache.hit_rate": cache["hit_rate"],
        "index.cache.evictions": cache["evictions"],
        "index.cache.admission_rejections": cache["admission_rejections"],
        "index.cache.inner_load_calls": sum(
            1 for span in ctx.tracer.spans if span.name == "index.storage.load_list"
        ),
    }


# ----------------------------------------------------------------------
# 5. live_ingest_query
# ----------------------------------------------------------------------
def run_live_ingest_query(ctx: Context, corpus, texts, inputs) -> Outcome:
    out = Outcome()
    root = ctx.work_dir / "live"
    shutil.rmtree(root, ignore_errors=True)
    live = LiveIndex(
        root,
        family=family(),
        t=T,
        vocab_size=VOCAB,
        config=LiveIndexConfig(seal_threshold_postings=inputs["seal_threshold"]),
    )
    if ctx.tracer is None:
        searcher = live.searcher()
    else:
        searcher = LiveSearcher(TimedLive(live, ctx.tracer))
    appends, steady, after_seal, query_stats = [], [], [], []
    cycle_rates = []  # tokens per append second of each seal-to-seal cycle
    cycle_tokens, cycle_s = 0, 0.0
    wal = {"wal_bytes": 0, "wal_syncs": 0}
    wal_tokens = seals_seen = 0
    last_status = live.status()
    layout = 0  # seals + compactions seen by the previous query
    appended_tokens = 0
    for step, (batch, queries) in enumerate(inputs["steps"]):
        out.attempted += len(batch)
        tick = time.perf_counter()
        try:
            with ctx.span("index.lsm.append", request_id=("append", step)):
                live.append_texts(batch)
        except Exception as exc:  # noqa: BLE001 - every text of the batch failed
            for _ in batch:
                out.fail(f"append batch {step} raised {exc!r}")
            continue
        appends.append(time.perf_counter() - tick)
        batch_tokens = sum(int(text.size) for text in batch)
        appended_tokens += batch_tokens
        cycle_tokens, cycle_s = cycle_tokens + batch_tokens, cycle_s + appends[-1]
        status = live.status()
        if status["seals"] != seals_seen:
            cycle_rates.append(cycle_tokens / cycle_s)
            cycle_tokens, cycle_s = 0, 0.0
        else:
            # A sealing append rotates the WAL segment and restarts its
            # counters, so WAL cost is read off the appends that did not.
            wal_tokens += batch_tokens
            for name in wal:
                wal[name] += status[name] - last_status[name]
        seals_seen, last_status = status["seals"], status
        for position, query in enumerate(queries):
            out.attempted += 1
            moved = live.stats.seals + live.stats.compactions
            tick = time.perf_counter()
            try:
                with ctx.span("query", request_id=(step, position)):
                    result = searcher.search(query.tokens, THETA)
            except Exception as exc:  # noqa: BLE001 - counted, the loop keeps going
                out.fail(f"live query raised {exc!r}")
                continue
            (after_seal if moved != layout else steady).append(
                time.perf_counter() - tick
            )
            layout = moved
            query_stats.append(result.stats)
            if query.kind == "verbatim" and not _found(result, query):
                out.fail(f"live verbatim window of text {query.text} not recalled")
    seals = live.stats.seals
    # The measured region ends one seal short of the tiered policy's
    # fan-out, because a merge overlapping the foreground makes the ingest
    # rate bimodal (see README).  The merge is timed here on its own, and
    # leaves one run plus the WAL tail whatever the seed.
    tick = time.perf_counter()
    live.compact(all_runs=True)
    compaction_s = time.perf_counter() - tick
    compactions, runs = live.stats.compactions, live.runs
    num_texts = inputs["num_texts"]
    rebuilt = NearDuplicateSearcher(
        build_memory_index(InMemoryCorpus(texts[:num_texts]), family(), T)
    )
    live.close()

    tick = time.perf_counter()
    reopened = LiveIndex(root)
    reopen_s = time.perf_counter() - tick
    out.attempted += 1
    if reopened.num_texts != num_texts:
        out.fail(f"reopened num_texts {reopened.num_texts} != {num_texts}")
    reopened_searcher = reopened.searcher()
    check = [q for _, queries in inputs["steps"] for q in queries][-LIVE_CHECK_QUERIES:]
    for query in check:
        out.attempted += 1
        if _wire(reopened_searcher.search(query.tokens, THETA)) != _wire(
            rebuilt.search(query.tokens, THETA)
        ):
            out.fail("reopened live index differs from an offline rebuild")
    reopened.close()

    queried = steady + after_seal
    # Median over the seal-to-seal cycles: tokens appended in a cycle over
    # the seconds its appends (the sealing one included) took.
    out.metrics["throughput_per_s"] = statistics.median(cycle_rates)
    out.metrics["latency_p50_ms"] = 1e3 * percentile(queried, 50)
    out.metrics["latency_tail_ms"] = 1e3 * percentile(queried, 90)
    out.metrics["index_bytes_per_token"] = directory_bytes(root) / appended_tokens
    if ctx.tracer is not None:
        _check_self_time_sums(ctx.tracer, "query", out)
        out.layers.update(_reader_layers(ctx.tracer, len(queried), "query"))
        out.layers.update(_search_counters(query_stats))
        out.layers.update(compact_window_layers(texts))
        out.layers.update(storage_layers(root / runs[0]))  # the compacted run
        out.layers.update(
            {
                "index.lsm.append_p50_ms": 1e3 * percentile(appends, 50),
                "index.lsm.append_max_ms": 1e3 * max(appends),
                "index.lsm.seals": seals,
                "index.lsm.compactions": compactions,
                "index.lsm.compaction_s": compaction_s,
                "index.lsm.runs_at_end": len(runs),
                "index.lsm.wal_bytes_per_token": wal["wal_bytes"] / max(wal_tokens, 1),
                "index.lsm.wal_syncs": wal["wal_syncs"],
                "index.lsm.query_after_seal_ms": (
                    1e3 * percentile(after_seal, 50) if after_seal else 0.0
                ),
                "index.lsm.query_steady_ms": 1e3 * percentile(steady, 50),
                "index.lsm.reopen_ms": 1e3 * reopen_s,
            }
        )
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object  #: (texts, seed, seconds, scale) -> inputs, or None
    run: object  #: (ctx, corpus, texts, inputs) -> Outcome
    needs_index: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("build_external", None, run_build_external, False),
        Workload("query_cold", inputs_query_cold, run_query_cold, True),
        Workload("sweep_batch", inputs_sweep_batch, run_sweep_batch, True),
        Workload("serve_closed", inputs_serve_closed, run_serve_closed, True),
        Workload("live_ingest_query", inputs_live_ingest_query, run_live_ingest_query, False),
    )
}


def make_inputs(name: str, seed: int, seconds: float, scale: Scale):
    """Corpus plus the named workload's inputs, all from the seed."""
    corpus = make_corpus(seed, scale)
    texts = list(corpus)
    generator = WORKLOADS[name].inputs
    inputs = None if generator is None else generator(texts, seed, seconds, scale)
    return corpus, texts, inputs
