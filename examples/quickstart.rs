//! Quickstart: run a windowed selection and a sliding GROUP-BY aggregation —
//! written as SQL text — over a synthetic stream on the hybrid engine.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use saber::prelude::*;
use saber::workloads::synthetic;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = synthetic::schema();
    let catalog = Catalog::new().with_stream("Syn", schema.clone());

    let mut engine = Saber::builder()
        .worker_threads(4)
        .query_task_size(256 * 1024)
        .execution_mode(ExecutionMode::Hybrid)
        .build()?;

    // Queries register dynamically — before or after start(); each
    // registration returns a typed QueryHandle that owns the result sink.
    engine.start()?;

    // Query 1: hot values over a 1024-tuple tumbling window.
    let hot = engine.add_query_sql("SELECT * FROM Syn [ROWS 1024] WHERE a1 > 0.9", &catalog)?;

    // Query 2: per-key COUNT over a sliding window (4096 tuples, slide 1024).
    let counts = engine.add_query_sql(
        "SELECT timestamp, a2, COUNT(*) AS hits \
         FROM Syn [ROWS 4096 SLIDE 1024] GROUP BY a2",
        &catalog,
    )?;

    // Stream 1M synthetic tuples into both queries.
    let rows = 1_000_000;
    let data = synthetic::generate(&schema, rows, 42);
    for chunk in data.bytes().chunks(64 * 1024 * synthetic::TUPLE_SIZE) {
        hot.ingest(StreamId(0), chunk)?;
        counts.ingest(StreamId(0), chunk)?;
    }
    engine.stop()?;

    println!("ingested {rows} tuples into two queries");
    println!(
        "hot-values emitted {} tuples (~10% of the input expected)",
        hot.tuples_emitted()
    );
    println!(
        "counts-per-key emitted {} window results",
        counts.tuples_emitted()
    );

    let stats = counts.stats().snapshot();
    println!(
        "counts-per-key: {} tasks on CPU, {} on the accelerator, avg latency {:?}",
        stats.tasks_cpu,
        stats.tasks_gpu,
        stats.avg_latency()
    );

    // Peek at the first few window results.
    let out = counts.take_rows();
    for t in out.iter().take(5) {
        println!(
            "window starting at {}: key {} appeared {} times",
            t.timestamp(),
            t.get_i32(1),
            t.get_i64(2)
        );
    }
    Ok(())
}
