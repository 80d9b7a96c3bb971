//! Microbench: observability overhead on the ingest hot path.
//!
//! Compares ingest throughput with full instrumentation (always-on Relaxed
//! counters + per-stage task timestamping + the flight recorder) against
//! `EngineConfig::stage_timestamps = false`, where what remains is a
//! handful of Relaxed `fetch_add`s per *batch*, not per row. It prints the
//! rates and asserts no bound: its run-to-run noise (around ±10 %) is
//! larger than the effect. The measured overhead is the traced-minus-
//! untraced table in `e2e_bench/README.md`.
//!
//! The harness measures saturated single-stream ingest throughput (the
//! `shared` configuration of `abl_ingest`, which stresses the dispatcher
//! cut where the timestamps are taken) with stage timestamps off and on.
//! Runs alternate and each configuration reports its best of
//! `ROUNDS` rounds, so one scheduler hiccup cannot masquerade as
//! instrumentation overhead. The `overhead_pct` column is
//! `(off - on) / off * 100` — positive means timestamping cost throughput.
//!
//! A third column scrapes the Prometheus exposition concurrently
//! (`scrape_mtuples_per_s`): a monitoring plane polling `render`-heavy
//! snapshots must not stall producers, because snapshots only read the
//! atomics the hot path writes.

use saber_bench::{bench_workers, fmt, measure_duration, Report};
use saber_engine::{EngineConfig, ExecutionMode, QueryId, Saber, SchedulingPolicyKind, StreamId};
use saber_gpu::device::DeviceConfig;
use saber_query::{Expr, QueryBuilder, WindowSpec};
use saber_workloads::synthetic;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Best-of rounds per configuration (alternated to decorrelate drift).
const ROUNDS: usize = 3;

fn engine_config(stage_timestamps: bool) -> EngineConfig {
    EngineConfig {
        worker_threads: bench_workers(),
        query_task_size: 1 << 20,
        execution_mode: ExecutionMode::CpuOnly,
        scheduling: SchedulingPolicyKind::default(),
        device: DeviceConfig::unpaced(),
        input_buffer_capacity: 16 << 20,
        max_queued_tasks: 128,
        gpu_pipeline_depth: 1,
        throughput_smoothing: 0.25,
        durability: None,
        sharing: true,
        stage_timestamps,
    }
}

fn selection(schema: &saber_types::schema::SchemaRef) -> saber_query::Query {
    // A cheap selection keeps execution far from the bottleneck, so the
    // measurement isolates the instrumented ingest/dispatch path.
    QueryBuilder::new("sel", schema.clone())
        .window(WindowSpec::count(1024, 1024))
        .select(Expr::column(1).ge(Expr::literal(2.0)))
        .build()
        .unwrap()
}

/// Saturated single-producer ingest; optionally a second thread polling
/// stats/histogram snapshots as fast as a monitoring plane plausibly would
/// (10 ms cadence). Returns tuples/second.
fn run(stage_timestamps: bool, scrape: bool) -> f64 {
    let schema = synthetic::schema();
    let mut engine = Saber::with_config(engine_config(stage_timestamps)).unwrap();
    engine
        .add_query_with_options(selection(&schema), false)
        .unwrap();
    engine.start().unwrap();

    let chunk_rows = 8 * 1024;
    let duration = measure_duration();
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = scrape.then(|| {
        let stop = stop.clone();
        let stats = engine.query_stats(QueryId(0)).unwrap();
        std::thread::spawn(move || {
            let mut snapshots = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = stats.snapshot();
                let stages = stats.stages.snapshots();
                std::hint::black_box((snap, stages));
                snapshots += 1;
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            snapshots
        })
    });

    let handle = engine.ingest_handle(QueryId(0), StreamId(0)).unwrap();
    let data = synthetic::generate(&schema, chunk_rows, 7);
    let started = Instant::now();
    let mut ingested = 0u64;
    while started.elapsed() < duration {
        handle.ingest(data.bytes()).unwrap();
        ingested += chunk_rows as u64;
    }
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    if let Some(t) = scraper {
        t.join().unwrap();
    }
    engine.stop().unwrap();
    ingested as f64 / elapsed.as_secs_f64()
}

fn main() {
    let mut report = Report::new(
        "metrics_overhead",
        "Observability — ingest throughput cost of stage timestamps and scraping",
        &[
            "config",
            "off_mtuples_per_s",
            "on_mtuples_per_s",
            "overhead_pct",
            "scrape_mtuples_per_s",
            "scrape_overhead_pct",
        ],
    );

    let mut best_off = 0.0f64;
    let mut best_on = 0.0f64;
    let mut best_scrape = 0.0f64;
    for _ in 0..ROUNDS {
        best_off = best_off.max(run(false, false));
        best_on = best_on.max(run(true, false));
        best_scrape = best_scrape.max(run(true, true));
    }

    report.add_row(vec![
        "single_producer_saturated".into(),
        fmt(best_off / 1e6),
        fmt(best_on / 1e6),
        fmt((best_off - best_on) / best_off * 100.0),
        fmt(best_scrape / 1e6),
        fmt((best_off - best_scrape) / best_off * 100.0),
    ]);
    report.finish();
}
