//! Micro-benchmarks of the engine substrates: dispatcher task creation, HLS
//! selection over a populated queue, circular-buffer inserts and
//! group-table updates.
//!
//! Each body runs once to warm up, then repeatedly for `SABER_BENCH_SECS`
//! (capped at 0.8 s). Reported per body: mean time per iteration and the
//! throughput of the unit that body processes (bytes or elements).

use saber_bench::{fmt, measure_duration, Report};
use saber_cpu::hashtable::GroupTable;
use saber_cpu::plan::CompiledPlan;
use saber_engine::circular::CircularBuffer;
use saber_engine::dispatcher::Dispatcher;
use saber_engine::queue::TaskQueue;
use saber_engine::result::ResultStage;
use saber_engine::scheduler::{Processor, Scheduler};
use saber_engine::{FlightRecorder, SchedulingPolicyKind, ThroughputMatrix};
use saber_query::aggregate::AggregateFunction;
use saber_workloads::synthetic;
use std::hint::black_box;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times `body` and adds a row: `units` is what one iteration processes.
fn measure<T>(
    report: &mut Report,
    name: &str,
    units: f64,
    unit: &str,
    mut body: impl FnMut() -> T,
) {
    black_box(body());
    let budget = measure_duration().min(Duration::from_millis(800));
    let start = Instant::now();
    let mut iters = 0u64;
    while iters < 3 || start.elapsed() < budget {
        black_box(body());
        iters += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    report.add_row(vec![
        name.to_string(),
        fmt(secs * 1e9 / iters as f64),
        fmt(units * iters as f64 / secs),
        unit.to_string(),
    ]);
}

fn main() {
    let mut report = Report::new(
        "micro_engine",
        "Engine substrate micro-benchmarks",
        &["benchmark", "ns_per_iter", "throughput", "unit"],
    );

    // Dispatcher: cutting 1 MB tasks out of a 16 MB ingest stream.
    let schema = synthetic::schema();
    let data = synthetic::generate(&schema, 512 * 1024, 3);
    let w = synthetic::window_bytes(32 * 1024, 32 * 1024);
    let query = synthetic::select(4, w);
    let plan = Arc::new(CompiledPlan::compile(&query).unwrap());
    // The stage the cut tasks would complete into (no members: nothing
    // here executes them).
    let result = Arc::new(ResultStage::new(
        &plan,
        Arc::default(),
        Arc::new(FlightRecorder::new(8)),
        false,
    ));
    measure(
        &mut report,
        "dispatcher_1mb_tasks",
        data.byte_len() as f64,
        "bytes/s",
        || {
            let d = Dispatcher::new(
                plan.clone(),
                1 << 20,
                64 << 20,
                Arc::new(AtomicU64::new(0)),
                true,
                result.clone(),
            );
            let mut tasks = 0usize;
            for chunk in data.bytes().chunks(256 * 1024) {
                tasks += d.ingest(0, chunk).unwrap().len();
            }
            tasks
        },
    );

    // HLS selection over a queue of 64 tasks from 4 queries.
    let matrix = Arc::new(ThroughputMatrix::new(0.5, 8));
    for q in 0..4 {
        matrix.record(
            q,
            Processor::Cpu,
            Duration::from_micros(500 + 100 * q as u64),
        );
        matrix.record(
            q,
            Processor::Gpu,
            Duration::from_micros(900 - 150 * q as u64),
        );
    }
    let scheduler = Scheduler::new(SchedulingPolicyKind::default(), matrix);
    let queue = TaskQueue::with_queries(1);
    let d = Dispatcher::new(
        plan.clone(),
        64 * 1024,
        64 << 20,
        Arc::new(AtomicU64::new(0)),
        true,
        result,
    );
    for chunk in data.bytes().chunks(64 * 1024).take(64) {
        for t in d.ingest(0, chunk).unwrap() {
            queue.push(t);
        }
    }
    measure(
        &mut report,
        "hls_select_from_64_tasks",
        1.0,
        "selections/s",
        || {
            // Select and re-insert so the queue stays populated.
            if let Some(task) =
                scheduler.next_task(&queue, Processor::Cpu, Duration::from_millis(1))
            {
                queue.push(task);
            }
        },
    );

    // Circular buffer insert/release cycle.
    let buf = CircularBuffer::new(8 << 20);
    let chunk = vec![7u8; 64 * 1024];
    measure(
        &mut report,
        "circular_buffer_64kb_roundtrip",
        chunk.len() as f64,
        "bytes/s",
        || {
            buf.insert(&chunk).unwrap();
            let head = buf.head();
            buf.release_until(head);
            head
        },
    );

    // Group-table updates (the GROUP-BY hot loop).
    measure(
        &mut report,
        "group_table_10k_updates",
        10_000.0,
        "updates/s",
        || {
            let mut t = GroupTable::new(&[AggregateFunction::Sum, AggregateFunction::Count]);
            for i in 0..10_000i64 {
                let states = t.entry(&[i % 64]);
                states[0].update(i as f64);
                states[1].update(1.0);
            }
            t.len()
        },
    );

    report.finish();
}
