"""Command-line interface: ``repro-cli``.

Subcommands cover the full pipeline on synthetic data:

* ``synth``      — generate a synthetic corpus and write it to disk;
* ``build``      — build an inverted index over a corpus directory
  (in-memory or out-of-core);
* ``query``      — run one near-duplicate search and print the matches;
* ``stats``      — summarize an index (size, list-length skew);
* ``memorize``   — train an n-gram model tier and run the Section 5
  memorization evaluation;
* ``serve``      — run the online search service over a saved engine
  directory (asyncio HTTP, micro-batching, admission control);
* ``build-fleet`` — split a saved engine into per-shard engines plus a
  ``shardmap.json`` for the scatter-gather tier;
* ``serve-shards`` — launch one shard server per ``shard<i>/`` under a
  fleet root (each may prefork);
* ``route``      — run the scatter-gather router over a shard map;
* ``remote-query`` — query a running service or router from the
  command line.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.corpus.store import DiskCorpus, write_corpus
from repro.corpus.synthetic import minipile, synthweb
from repro.index.builder import build_and_write_index
from repro.index.external import ExternalBuildConfig, build_external_index
from repro.index.stats import IndexSummary, zipf_tail_report
from repro.index.storage import DiskInvertedIndex
from repro.lm.models import MODEL_ZOO, train_model
from repro.memorization.evaluator import evaluate_model
from repro.memorization.report import figure4_series, format_series_table


def _cmd_synth(args: argparse.Namespace) -> int:
    maker = synthweb if args.preset == "synthweb" else minipile
    data = maker(
        num_texts=args.texts,
        mean_length=args.mean_length,
        vocab_size=args.vocab,
        seed=args.seed,
    )
    write_corpus(data.corpus, args.out)
    print(
        f"wrote {args.preset} corpus: {len(data.corpus)} texts, "
        f"{data.corpus.total_tokens} tokens, {len(data.planted)} planted duplicates "
        f"-> {args.out}"
    )
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    corpus = DiskCorpus(args.corpus)
    family = HashFamily(k=args.k, seed=args.seed)
    if args.external:
        config = ExternalBuildConfig(
            batch_texts=args.batch_texts,
            memory_budget_bytes=args.memory_budget << 20,
            codec=args.codec,
        )
        stats = build_external_index(corpus, family, args.t, args.out, config=config)
    else:
        stats = build_and_write_index(
            corpus,
            family,
            args.t,
            args.out,
            batch_texts=args.batch_texts,
            codec=args.codec,
        )
    print(
        f"built index: {stats.windows_generated} compact windows, "
        f"generation {stats.generation_seconds:.2f}s, "
        f"merge {stats.merge_seconds + stats.aggregation_seconds:.2f}s, "
        f"io {stats.io_seconds:.2f}s -> {args.out}"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    index = DiskInvertedIndex(args.index)
    corpus = DiskCorpus(args.corpus)
    text = np.asarray(corpus[args.text])
    if args.start + args.length > text.size:
        print(
            f"error: query window [{args.start}, {args.start + args.length}) "
            f"exceeds text length {text.size}",
            file=sys.stderr,
        )
        return 2
    query = text[args.start : args.start + args.length]
    searcher = NearDuplicateSearcher(index)
    result = searcher.search(query, args.theta)
    print(
        f"theta={args.theta} beta={result.beta}: {result.num_texts} matching texts, "
        f"{result.count_spans()} sequences, "
        f"latency {result.stats.total_seconds * 1e3:.1f} ms "
        f"(io {result.stats.io_seconds * 1e3:.1f} ms, "
        f"{result.stats.io_bytes} bytes)"
    )
    for span in result.merged_spans()[: args.limit]:
        print(f"  text {span.text_id} tokens {span.start}..{span.end}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    index = DiskInvertedIndex(args.index)
    summary = IndexSummary.from_index(index)
    print(f"k={summary.k} t={summary.t}")
    print(f"postings={summary.num_postings} lists={summary.num_lists}")
    print(f"bytes={summary.nbytes}")
    print(
        f"list length: mean={summary.mean_list_length:.1f} "
        f"max={summary.max_list_length}"
    )
    print("longest lists (Zipf head):")
    for rank, length in zipf_tail_report(index, top=args.top):
        print(f"  #{rank}: {length} postings")
    return 0


def _cmd_batch_query(args: argparse.Namespace) -> int:
    """Run many queries from a file (one whitespace-separated token-id
    sequence per line) through the batch executor and print one summary
    row per query plus the aggregated batch statistics.

    Individual query failures (unparseable lines, per-query search
    errors) do not abort the run: each failed query is reported with an
    ``error`` field (JSON mode) or on stderr (table mode), the
    remaining queries still execute, and the exit code is 2 when any
    query failed."""
    import dataclasses

    index = DiskInvertedIndex(args.index)
    from repro.index.cache import CachedIndexReader
    from repro.query.executor import BatchQueryExecutor

    reader = CachedIndexReader(index) if args.cache else index
    searcher = NearDuplicateSearcher(reader)
    with open(args.queries) as handle:
        lines = [line.strip() for line in handle if line.strip()]
    records: list[dict] = []
    valid: list[tuple[int, np.ndarray]] = []
    for number, line in enumerate(lines):
        record = {
            "query": number,
            "tokens": None,
            "matches": None,
            "spans": None,
            "latency_ms": None,
            "error": None,
        }
        try:
            tokens = np.asarray([int(part) for part in line.split()], dtype=np.uint32)
            if tokens.size == 0:
                raise ValueError("empty sequence")
            record["tokens"] = int(tokens.size)
            valid.append((number, tokens))
        except (ValueError, OverflowError):
            record["error"] = f"line {number + 1} is not a token-id sequence"
        records.append(record)
    executor = BatchQueryExecutor(searcher, batch_size=args.batch_size)
    batch = None
    if valid:
        try:
            with executor:
                batch = executor.execute(
                    [tokens for _, tokens in valid], args.theta
                )
        except Exception as exc:  # noqa: BLE001 - reported per query below
            for number, _ in valid:
                records[number]["error"] = f"search failed: {exc}"
        else:
            for (number, _), result in zip(valid, batch.results):
                records[number]["matches"] = result.num_texts
                records[number]["spans"] = [
                    [span.text_id, span.start, span.end]
                    for span in result.merged_spans()
                ]
                records[number]["latency_ms"] = 1e3 * result.stats.total_seconds
    failed = sum(1 for record in records if record["error"] is not None)
    if args.json:
        payload = {
            "theta": args.theta,
            "queries": records,
            "failed": failed,
            "stats": dataclasses.asdict(batch.stats) if batch is not None else None,
        }
        if args.cache:
            payload["cache"] = reader.stats().to_dict()
        print(json.dumps(payload, indent=2))
        for record in records:
            if record["error"] is not None:
                print(f"error: {record['error']}", file=sys.stderr)
        return 2 if failed else 0
    print(f"{'query':>6} {'tokens':>7} {'matches':>8} {'latency_ms':>11}")
    for record in records:
        if record["error"] is not None:
            print(f"{record['query']:>6} {'-':>7} {'-':>8} {'-':>11}  ERROR")
            print(f"error: {record['error']}", file=sys.stderr)
            continue
        print(
            f"{record['query']:>6} {record['tokens']:>7} {record['matches']:>8} "
            f"{record['latency_ms']:>11.2f}"
        )
    if batch is not None:
        print(batch.stats.format())
    if args.cache:
        print(f"cache hit rate: {reader.hit_rate:.0%}")
    return 2 if failed else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.index.lsm import manifest_exists
    from repro.index.validate import validate_index, validate_live_index

    if manifest_exists(args.index):
        report = validate_live_index(args.index, max_lists_per_func=args.max_lists)
        kind = "live index"
    else:
        index = DiskInvertedIndex(args.index)
        corpus = DiskCorpus(args.corpus) if args.corpus else None
        report = validate_index(index, corpus, max_lists_per_func=args.max_lists)
        kind = "index"
    print(
        f"checked {report.lists_checked} lists / {report.postings_checked} postings"
    )
    if report.ok:
        print(f"{kind} OK")
        return 0
    for error in report.errors:
        print(f"ERROR: {error}", file=sys.stderr)
    return 1


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.corpus.textfile import ingest_directory

    report = ingest_directory(
        args.input, args.out, pattern=args.pattern, vocab_size=args.vocab
    )
    print(
        f"ingested {report.num_texts} files: {report.total_tokens} tokens, "
        f"BPE vocab {report.vocab_size} -> {report.corpus_dir} "
        f"(tokenizer: {report.tokenizer_path})"
    )
    return 0


def _cmd_live_ingest(args: argparse.Namespace) -> int:
    import time

    from repro.core.hashing import HashFamily
    from repro.index.lsm import LiveIndex, LiveIndexConfig, manifest_exists

    config = LiveIndexConfig(
        seal_threshold_postings=args.seal_postings,
        codec=args.codec,
        ack_policy=args.ack_policy,
        fsync_batch=args.fsync_batch,
        compact_fanout=args.fanout,
        background_compaction=not args.no_compaction,
        dedupe=args.dedupe,
    )
    if manifest_exists(args.root):
        live = LiveIndex(args.root, config=config)
    else:
        live = LiveIndex(
            args.root,
            family=HashFamily(k=args.k, seed=args.seed),
            t=args.t,
            vocab_size=args.vocab,
            config=config,
        )
    corpus = DiskCorpus(args.corpus)
    begin = time.perf_counter()
    appended = deduped = tokens = 0
    with live:
        batch: list = []
        for text in corpus:
            batch.append(text)
            if len(batch) >= args.batch:
                ids = live.append_texts(batch)
                appended += sum(1 for i in ids if i is not None)
                deduped += sum(1 for i in ids if i is None)
                tokens += sum(int(t.size) for t in batch)
                batch.clear()
        if batch:
            ids = live.append_texts(batch)
            appended += sum(1 for i in ids if i is not None)
            deduped += sum(1 for i in ids if i is None)
            tokens += sum(int(t.size) for t in batch)
        live.flush()
        elapsed = time.perf_counter() - begin
        status = live.status()
    rate = appended / elapsed if elapsed > 0 else float("inf")
    print(
        f"appended {appended} texts ({tokens} tokens, {deduped} deduped) "
        f"in {elapsed:.2f}s ({rate:.0f} texts/s, ack={args.ack_policy})"
    )
    print(
        f"live index: {status['next_text_id']} texts, "
        f"{len(status['runs'])} sealed runs, "
        f"{status['memtable_postings']} memtable postings, "
        f"{status['seals']} seals, {status['compactions']} compactions"
    )
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.index.lsm import LiveIndex, LiveIndexConfig

    config = LiveIndexConfig(
        background_compaction=False, compact_fanout=args.fanout
    )
    with LiveIndex(args.root, config=config) as live:
        before = live.runs
        if args.all:
            merged = live.compact(all_runs=True)
        else:
            merged = False
            while live.compact():
                merged = True
        after = live.runs
    if merged:
        print(f"compacted {len(before)} runs -> {len(after)}: {', '.join(after)}")
    else:
        print(f"nothing to compact ({len(before)} runs within policy)")
    return 0


def _cmd_dedup(args: argparse.Namespace) -> int:
    from repro.dedup.pipeline import find_duplicate_clusters

    corpus = DiskCorpus(args.corpus)
    index = DiskInvertedIndex(args.index)
    searcher = NearDuplicateSearcher(index)
    report = find_duplicate_clusters(
        corpus,
        searcher,
        theta=args.theta,
        window=args.window,
        max_probes=args.max_probes,
    )
    print(
        f"probed {report.probes} windows at theta={args.theta}: "
        f"{len(report.clusters)} duplicate clusters, "
        f"{report.duplicated_spans} occurrences, "
        f"{report.redundant_tokens} redundant tokens"
    )
    for cluster in report.clusters[: args.limit]:
        keep = cluster.representative
        print(
            f"  cluster size {cluster.size}: keep text {keep.text_id} "
            f"tokens {keep.start}..{keep.end}, drop "
            + ", ".join(
                f"text {s.text_id} [{s.start}..{s.end}]" for s in cluster.redundant()
            )
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        procs=args.workers,
        reuse_port=args.reuse_port,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        timeout_ms=args.timeout_ms,
        cache_bytes=args.cache_mb << 20,
        result_cache={"auto": None, "on": True, "off": False}[args.result_cache],
        warmup_lists=args.warmup_lists,
        theta=args.theta,
    )
    return serve(args.engine_dir, corpus_dir=args.corpus, config=config)


def _cmd_build_fleet(args: argparse.Namespace) -> int:
    from repro.engine import NearDupEngine
    from repro.service.router import build_shard_fleet

    engine = NearDupEngine.load(args.engine_dir)
    shard_map = build_shard_fleet(
        engine,
        args.out,
        num_shards=args.shards,
        host=args.host,
        base_port=args.base_port,
        replicas_per_shard=args.replicas,
    )
    print(
        f"wrote {len(shard_map)} shard engines ({shard_map.num_texts} texts, "
        f"{shard_map.num_replicas} replica endpoints) "
        f"and shardmap.json under {args.out}"
    )
    return 0


def _cmd_serve_shards(args: argparse.Namespace) -> int:
    from repro.service.router import serve_shards

    return serve_shards(
        args.fleet_dir,
        host=args.host,
        base_port=args.base_port,
        procs=args.workers,
        replicas=args.replicas,
    )


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.service.router import RouterConfig, route

    config = RouterConfig(
        host=args.host,
        port=args.port,
        timeout_ms=args.timeout_ms,
        shard_timeout_ms=args.shard_timeout_ms,
        max_connections=args.max_connections,
        partial_results=not args.no_partial,
        policy=args.policy,
        hedge_after_ms=args.hedge_after_ms,
    )
    return route(args.shard_map, config=config)


def _cmd_remote_query(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient
    from repro.service.protocol import ServiceError

    if (args.tokens is None) == (args.text is None):
        print("error: provide exactly one of --tokens or --text", file=sys.stderr)
        return 2
    if args.tokens is not None:
        try:
            query = [int(part) for part in args.tokens.split()]
        except ValueError:
            print("error: --tokens is not a token-id sequence", file=sys.stderr)
            return 2
    else:
        query = args.text
    with ServiceClient(args.host, args.port) as client:
        try:
            response = client.search(
                query,
                args.theta,
                verify=args.verify,
                timeout_ms=args.timeout_ms,
            )
        except ServiceError as exc:
            print(f"error: {exc} (HTTP {exc.status})", file=sys.stderr)
            return 1
    result = response["result"]
    server = response["server"]
    if "shards_asked" in server:  # answered by the scatter-gather router
        extra = f"{server['shards_answered']}/{server['shards_asked']} shards"
        if response.get("partial"):
            extra += " (PARTIAL)"
    else:
        extra = (
            f"queued {server['queue_ms']:.1f} ms, "
            f"batched with {server['batched_with']}"
        )
    print(
        f"theta={result['theta']} beta={result['beta']}: "
        f"{result['num_texts']} matching texts, {len(result['spans'])} regions, "
        f"latency {server['total_ms']:.1f} ms ({extra})"
    )
    for text_id, start, end in result["spans"][: args.limit]:
        print(f"  text {text_id} tokens {start}..{end}")
    return 0


def _cmd_memorize(args: argparse.Namespace) -> int:
    corpus = DiskCorpus(args.corpus).to_memory()
    index = DiskInvertedIndex(args.index)
    searcher = NearDuplicateSearcher(index)
    trained = train_model(args.model, corpus)
    report = evaluate_model(
        trained.model,
        searcher,
        args.theta,
        num_texts=args.texts,
        text_length=args.length,
        window_width=args.window,
        model_name=trained.name,
        seed=args.seed,
        batch_size=args.batch_size,
    )
    print(format_series_table(figure4_series([report])))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="Near-duplicate sequence search (SIGMOD 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("out", help="output corpus directory")
    p_synth.add_argument("--preset", choices=["synthweb", "minipile"], default="synthweb")
    p_synth.add_argument("--texts", type=int, default=2000)
    p_synth.add_argument("--mean-length", type=int, default=300)
    p_synth.add_argument("--vocab", type=int, default=8192)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=_cmd_synth)

    p_build = sub.add_parser("build", help="build an inverted index")
    p_build.add_argument("corpus", help="corpus directory")
    p_build.add_argument("out", help="index directory")
    p_build.add_argument("-k", type=int, default=32, help="number of hash functions")
    p_build.add_argument("-t", type=int, default=25, help="length threshold")
    p_build.add_argument("--seed", type=int, default=0, help="hash family seed")
    p_build.add_argument("--external", action="store_true", help="out-of-core build")
    p_build.add_argument("--batch-texts", type=int, default=256)
    p_build.add_argument("--memory-budget", type=int, default=64, help="MiB per partition")
    p_build.add_argument(
        "--codec",
        choices=["raw", "packed"],
        default="raw",
        help="payload codec: raw 16-byte postings (format v1) or "
        "delta + bit-packed blocks (format v2, ~3-5x smaller)",
    )
    p_build.set_defaults(func=_cmd_build)

    p_query = sub.add_parser("query", help="run one near-duplicate search")
    p_query.add_argument("index", help="index directory")
    p_query.add_argument("corpus", help="corpus directory")
    p_query.add_argument("--text", type=int, default=0, help="query source text id")
    p_query.add_argument("--start", type=int, default=0)
    p_query.add_argument("--length", type=int, default=64)
    p_query.add_argument("--theta", type=float, default=0.8)
    p_query.add_argument("--limit", type=int, default=10, help="matches to print")
    p_query.set_defaults(func=_cmd_query)

    p_stats = sub.add_parser("stats", help="summarize an index")
    p_stats.add_argument("index", help="index directory")
    p_stats.add_argument("--top", type=int, default=10)
    p_stats.set_defaults(func=_cmd_stats)

    p_batch = sub.add_parser("batch-query", help="run queries from a file")
    p_batch.add_argument("index", help="index directory")
    p_batch.add_argument("queries", help="file with one token-id sequence per line")
    p_batch.add_argument("--theta", type=float, default=0.8)
    p_batch.add_argument("--cache", action="store_true", help="list cache")
    p_batch.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="queries planned/executed per chunk (default: whole file)",
    )
    p_batch.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON document (per-query records with an 'error' "
        "field, batch stats) instead of the table",
    )
    p_batch.set_defaults(func=_cmd_batch_query)

    p_val = sub.add_parser(
        "validate",
        help="check an index's (or live index root's) structural invariants",
    )
    p_val.add_argument("index", help="index directory or live index root")
    p_val.add_argument("--corpus", default=None, help="corpus directory (deep checks)")
    p_val.add_argument("--max-lists", type=int, default=None, help="sample cap per function")
    p_val.set_defaults(func=_cmd_validate)

    p_ingest = sub.add_parser("ingest", help="tokenize raw .txt files into a corpus")
    p_ingest.add_argument("input", help="directory of text files")
    p_ingest.add_argument("out", help="output directory (corpus + tokenizer)")
    p_ingest.add_argument("--pattern", default="*.txt")
    p_ingest.add_argument("--vocab", type=int, default=4096)
    p_ingest.set_defaults(func=_cmd_ingest)

    p_live = sub.add_parser(
        "live-ingest",
        help="stream a tokenized corpus into a WAL-backed live index root",
    )
    p_live.add_argument("root", help="live index root (created if missing)")
    p_live.add_argument("corpus", help="tokenized corpus directory to append")
    p_live.add_argument("--k", type=int, default=32, help="hash functions (new roots)")
    p_live.add_argument("--t", type=int, default=25, help="length threshold (new roots)")
    p_live.add_argument("--vocab", type=int, default=4096, help="vocab size (new roots)")
    p_live.add_argument("--seed", type=int, default=0, help="hash seed (new roots)")
    p_live.add_argument(
        "--seal-postings",
        type=int,
        default=1_000_000,
        help="memtable postings that trigger sealing a run",
    )
    p_live.add_argument(
        "--ack-policy",
        choices=("always", "batch", "none"),
        default="always",
        help="WAL durability per acknowledged append",
    )
    p_live.add_argument(
        "--fsync-batch",
        type=int,
        default=32,
        help="appends between fsyncs under --ack-policy batch",
    )
    p_live.add_argument("--codec", choices=("raw", "packed"), default="packed")
    p_live.add_argument(
        "--fanout", type=int, default=4, help="runs per tiered compaction"
    )
    p_live.add_argument(
        "--no-compaction",
        action="store_true",
        help="disable the background compaction thread",
    )
    p_live.add_argument(
        "--dedupe",
        action="store_true",
        help="Bloom-prefilter exact duplicates before the WAL (lossy: "
        "~fp-rate of distinct texts may be skipped)",
    )
    p_live.add_argument(
        "--batch", type=int, default=64, help="texts per append batch"
    )
    p_live.set_defaults(func=_cmd_live_ingest)

    p_compact = sub.add_parser(
        "compact", help="run compaction on a live index root"
    )
    p_compact.add_argument("root", help="live index root")
    p_compact.add_argument(
        "--all", action="store_true", help="merge every run into one"
    )
    p_compact.add_argument(
        "--fanout", type=int, default=4, help="runs per tiered merge"
    )
    p_compact.set_defaults(func=_cmd_compact)

    p_dedup = sub.add_parser("dedup", help="find near-duplicate clusters in a corpus")
    p_dedup.add_argument("index", help="index directory")
    p_dedup.add_argument("corpus", help="corpus directory")
    p_dedup.add_argument("--theta", type=float, default=0.8)
    p_dedup.add_argument("--window", type=int, default=64)
    p_dedup.add_argument("--max-probes", type=int, default=None)
    p_dedup.add_argument("--limit", type=int, default=10, help="clusters to print")
    p_dedup.set_defaults(func=_cmd_dedup)

    p_serve = sub.add_parser(
        "serve", help="run the online search service over a saved engine"
    )
    p_serve.add_argument(
        "engine_dir",
        help="engine directory (NearDupEngine.save), a live index root "
        "(serves with POST /ingest enabled), or a bare index directory "
        "(then pass --corpus)",
    )
    p_serve.add_argument(
        "--corpus",
        default=None,
        help="corpus directory when serving a bare index directory",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080, help="0 = ephemeral")
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="prefork server processes sharing one mmap index and one "
        "listening socket (1 = single in-process server)",
    )
    p_serve.add_argument(
        "--reuse-port",
        action="store_true",
        help="per-worker SO_REUSEPORT sockets instead of one shared "
        "accept socket (kernel hash-balances connections)",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=16, help="requests coalesced per batch"
    )
    p_serve.add_argument(
        "--max-queue",
        type=int,
        default=128,
        help="admission bound; beyond it requests are shed with HTTP 429",
    )
    p_serve.add_argument(
        "--timeout-ms",
        type=float,
        default=30000.0,
        help="default per-request deadline",
    )
    p_serve.add_argument(
        "--cache-mb", type=int, default=64, help="inverted-list cache budget"
    )
    p_serve.add_argument(
        "--result-cache",
        choices=("auto", "on", "off"),
        default="auto",
        help="whole-result memoization (auto: on for live indexes only)",
    )
    p_serve.add_argument(
        "--warmup-lists",
        type=int,
        default=64,
        help="Zipf-head lists preloaded at startup (0 disables)",
    )
    p_serve.add_argument(
        "--theta", type=float, default=0.8, help="default similarity threshold"
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_fleet = sub.add_parser(
        "build-fleet",
        help="split a saved engine into shard engines + shardmap.json",
    )
    p_fleet.add_argument("engine_dir", help="saved engine directory")
    p_fleet.add_argument("out", help="fleet root (shard<i>/ written here)")
    p_fleet.add_argument("--shards", type=int, default=4)
    p_fleet.add_argument("--host", default="127.0.0.1")
    p_fleet.add_argument(
        "--base-port",
        type=int,
        default=8101,
        help="replica r of shard i listens on base + i*replicas + r",
    )
    p_fleet.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="replica endpoints per shard in the emitted shardmap.json "
        "(they all serve the same shard<i>/ directory)",
    )
    p_fleet.set_defaults(func=_cmd_build_fleet)

    p_shards = sub.add_parser(
        "serve-shards",
        help="launch one shard server per shard<i>/ under a fleet root",
    )
    p_shards.add_argument("fleet_dir", help="directory holding shard<i>/ engines")
    p_shards.add_argument("--host", default="127.0.0.1")
    p_shards.add_argument(
        "--base-port",
        type=int,
        default=8101,
        help="replica r of shard i listens on base + i*replicas + r",
    )
    p_shards.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="server processes per shard (the shard map is grown to match)",
    )
    p_shards.add_argument(
        "--workers",
        type=int,
        default=1,
        help="prefork processes per shard server (1 = single process)",
    )
    p_shards.set_defaults(func=_cmd_serve_shards)

    p_route = sub.add_parser(
        "route",
        help="run the scatter-gather router over a shard map",
    )
    p_route.add_argument(
        "shard_map", help="shardmap.json (or a directory containing one)"
    )
    p_route.add_argument("--host", default="127.0.0.1")
    p_route.add_argument("--port", type=int, default=8080, help="0 = ephemeral")
    p_route.add_argument(
        "--timeout-ms",
        type=float,
        default=30000.0,
        help="default end-to-end deadline per request",
    )
    p_route.add_argument(
        "--shard-timeout-ms",
        type=float,
        default=None,
        help="per-shard deadline cap (default: the whole request budget)",
    )
    p_route.add_argument(
        "--max-connections",
        type=int,
        default=16,
        help="pooled keep-alive connections per shard",
    )
    p_route.add_argument(
        "--no-partial",
        action="store_true",
        help="fail the whole request when any shard fails (default: answer "
        "from the healthy shards with partial=true)",
    )
    p_route.add_argument(
        "--policy",
        default="pick-first",
        choices=["pick-first", "round-robin", "power-of-two"],
        help="replica selection policy within each shard",
    )
    p_route.add_argument(
        "--hedge-after-ms",
        type=float,
        default=None,
        help="hedge sub-requests still unanswered after this many ms "
        "(0 = auto from each shard's observed p95; default: hedging off)",
    )
    p_route.set_defaults(func=_cmd_route)

    p_remote = sub.add_parser(
        "remote-query", help="query a running search service"
    )
    p_remote.add_argument("--host", default="127.0.0.1")
    p_remote.add_argument("--port", type=int, default=8080)
    p_remote.add_argument(
        "--tokens", default=None, help="whitespace-separated token ids"
    )
    p_remote.add_argument(
        "--text",
        default=None,
        help="raw string query (server-side tokenization)",
    )
    p_remote.add_argument("--theta", type=float, default=0.8)
    p_remote.add_argument("--verify", action="store_true")
    p_remote.add_argument("--timeout-ms", type=float, default=None)
    p_remote.add_argument("--limit", type=int, default=10, help="regions to print")
    p_remote.set_defaults(func=_cmd_remote_query)

    p_mem = sub.add_parser("memorize", help="Section 5 memorization evaluation")
    p_mem.add_argument("index", help="index directory")
    p_mem.add_argument("corpus", help="corpus directory")
    p_mem.add_argument("--model", choices=sorted(MODEL_ZOO), default="large")
    p_mem.add_argument("--theta", type=float, default=0.8)
    p_mem.add_argument("--texts", type=int, default=5)
    p_mem.add_argument("--length", type=int, default=512)
    p_mem.add_argument("--window", type=int, default=32)
    p_mem.add_argument("--seed", type=int, default=0)
    p_mem.add_argument(
        "--batch-size", type=int, default=None, help="queries per executor chunk"
    )
    p_mem.set_defaults(func=_cmd_memorize)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
