//! Cluster monitoring (the paper's CM workload): run CM1 and CM2 — as SQL
//! text — over a synthetic Google-cluster-style TaskEvents trace and print
//! the per-category CPU usage of the most recent windows.
//!
//! ```bash
//! cargo run --release --example cluster_monitoring
//! ```

use saber::engine::{ExecutionMode, QueryId, Saber, StreamId};
use saber::workloads::{cluster, sql};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = sql::catalog();
    let mut engine = Saber::builder()
        .worker_threads(4)
        .query_task_size(512 * 1024)
        .execution_mode(ExecutionMode::Hybrid)
        .build()?;
    println!("CM1: {}", sql::CM1);
    println!("CM2: {}", sql::CM2);
    let cm1 = engine.add_query_sql(sql::CM1, &catalog)?;
    let cm2 = engine.add_query_sql_with_options(sql::CM2, &catalog, false)?;
    engine.start()?;

    // 90 seconds of application time at 50k events/s.
    let config = cluster::TraceConfig {
        events_per_second: 50_000,
        ..Default::default()
    };
    let seconds = 90u64;
    for s in 0..seconds {
        let slice = cluster::generate(
            &config,
            config.events_per_second as usize,
            s,
            (s * 1000) as i64,
        );
        cm1.ingest(StreamId(0), slice.bytes())?;
        cm2.ingest(StreamId(0), slice.bytes())?;
    }
    engine.stop()?;

    println!(
        "CM1 emitted {} (window, category) rows; CM2 emitted {} (window, job) rows",
        cm1.tuples_emitted(),
        cm2.tuples_emitted()
    );

    // Show the total requested CPU per category for the last complete window.
    let out = cm1.take_rows();
    if !out.is_empty() {
        let last_window = out.row(out.len() - 1).timestamp();
        println!("requested CPU per category in the window starting at {last_window} ms:");
        for t in out.iter().filter(|t| t.timestamp() == last_window) {
            println!("  category {:>3}: {:>10.1}", t.get_i32(1), t.get_f32(2));
        }
    }

    for (i, name) in ["CM1", "CM2"].iter().enumerate() {
        let stats = engine.query_stats(QueryId(i)).unwrap().snapshot();
        println!(
            "{name}: {:.1}% of tasks ran on the accelerator, avg latency {:?}",
            stats.gpu_share() * 100.0,
            stats.avg_latency()
        );
    }
    Ok(())
}
