//! Timed single calls into each layer's public functions, on the
//! workload's own task-sized batches. Each call is recorded as a span.

use crate::support::{median, Metric, Percentiles, Replay, Tracer, NONE};
use saber_cpu::exec::StreamBatch;
use saber_cpu::{AggregationAssembler, CompiledPlan, CpuExecutor, TaskOutput};
use saber_net::wire::{self, Decoded, Frame};
use saber_query::Query;
use saber_sql::Catalog;
use saber_store::{DurabilityConfig, Store};
use saber_types::RowBuffer;
use std::time::Instant;

/// Consecutive task-sized batches of the replayed input.
pub fn task_batches(replay: &Replay, task_rows: usize, tasks: usize) -> Vec<StreamBatch> {
    let mut bytes = Vec::new();
    (0..tasks)
        .map(|t| {
            let g = (t * task_rows) as u64;
            replay.fill(g, task_rows, &mut bytes);
            let rows =
                RowBuffer::from_bytes(replay.schema().clone(), bytes.clone()).expect("whole rows");
            StreamBatch::new(rows, g, replay.ts(g))
        })
        .collect()
}

/// `cpu.exec_ns_per_row`, `cpu.single_thread_rows_per_s` and
/// `cpu.assemble_us_per_window`: every query's plan executed single
/// threaded over the same batches, per stream row; window assembly per
/// emitted window.
pub fn cpu(tracer: &Tracer, queries: &[Query], batches: &[StreamBatch]) -> Vec<Metric> {
    let executor = CpuExecutor::new();
    let rows: usize = batches.iter().map(|b| b.rows.len()).sum();
    let mut exec_ns = 0f64;
    let mut assemble_ns = 0f64;
    let mut windows = 0u64;
    let parent = tracer.id();
    let started = Instant::now();
    for query in queries {
        let plan = CompiledPlan::compile(query).expect("workload queries compile");
        let mut assembler = AggregationAssembler::new(&plan);
        let mut out = RowBuffer::new(plan.output_schema().clone());
        for (k, batch) in batches.iter().enumerate() {
            let t0 = Instant::now();
            let output = std::hint::black_box(executor.execute(&plan, std::slice::from_ref(batch)))
                .expect("task executes");
            let t1 = Instant::now();
            exec_ns += (t1 - t0).as_nanos() as f64;
            tracer.record(tracer.id(), parent, "cpu.execute", k as u64, t0, t1);
            if let (Some(asm), TaskOutput::Fragments { panes, progress }) = (&mut assembler, output)
            {
                out.clear();
                let emitted = asm
                    .accept(panes, progress, &mut out)
                    .expect("windows assemble");
                let t2 = Instant::now();
                assemble_ns += (t2 - t1).as_nanos() as f64;
                windows += emitted as u64;
                tracer.record(tracer.id(), parent, "cpu.assemble", k as u64, t1, t2);
            }
        }
    }
    tracer.record(parent, NONE, "layer.cpu", NONE, started, Instant::now());
    let ns_per_row = exec_ns / rows.max(1) as f64;
    vec![
        Metric::new("cpu.exec_ns_per_row", "ns", ns_per_row, rows as u64),
        Metric::new(
            "cpu.single_thread_rows_per_s",
            "rows/s",
            1e9 / ns_per_row.max(1e-9),
            rows as u64,
        ),
        Metric::new(
            "cpu.assemble_us_per_window",
            "us",
            if windows == 0 {
                0.0
            } else {
                assemble_ns / 1e3 / windows as f64
            },
            windows,
        ),
    ]
}

/// `wal.append_us.p99`: `Store::append_ingest` of every batch, once per
/// query record, in a fresh directory.
pub fn wal_append(
    tracer: &Tracer,
    records_per_batch: usize,
    batches: &[StreamBatch],
    dir: &std::path::Path,
) -> Metric {
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::open(&DurabilityConfig::new(dir)).expect("store opens");
    let parent = tracer.id();
    let started = Instant::now();
    let mut us = Vec::new();
    for (k, batch) in batches.iter().enumerate() {
        for q in 0..records_per_batch {
            let t0 = Instant::now();
            store
                .append_ingest(q as u64, 0, batch.rows.bytes())
                .expect("WAL append");
            let t1 = Instant::now();
            us.push((t1 - t0).as_secs_f64() * 1e6);
            tracer.record(tracer.id(), parent, "store.append_ingest", k as u64, t0, t1);
        }
    }
    store.sync().expect("WAL sync");
    tracer.record(parent, NONE, "layer.store", NONE, started, Instant::now());
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    let p = Percentiles::of(us);
    Metric::new("wal.append_us.p99", "us", p.p99, p.n)
}

/// `net.encode_ns_per_row` and `net.decode_ns_per_row`: the binary
/// protocol's `Insert` frame codec on every batch.
pub fn codec(tracer: &Tracer, batches: &[StreamBatch]) -> Vec<Metric> {
    let parent = tracer.id();
    let started = Instant::now();
    let (mut enc_ns, mut dec_ns, mut rows) = (0f64, 0f64, 0usize);
    for (k, batch) in batches.iter().enumerate() {
        let frame = Frame::Insert {
            query: 0,
            stream: 0,
            rows: batch.rows.bytes().to_vec(),
        };
        let t0 = Instant::now();
        let bytes = std::hint::black_box(frame.encode());
        let t1 = Instant::now();
        let decoded = wire::decode_frame(&bytes, usize::MAX).expect("frame decodes");
        let t2 = Instant::now();
        assert!(matches!(decoded, Decoded::Frame(Frame::Insert { .. }, _)));
        enc_ns += (t1 - t0).as_nanos() as f64;
        dec_ns += (t2 - t1).as_nanos() as f64;
        rows += batch.rows.len();
        tracer.record(tracer.id(), parent, "net.encode", k as u64, t0, t1);
        tracer.record(tracer.id(), parent, "net.decode", k as u64, t1, t2);
    }
    tracer.record(parent, NONE, "layer.net", NONE, started, Instant::now());
    vec![
        Metric::new(
            "net.encode_ns_per_row",
            "ns",
            enc_ns / rows.max(1) as f64,
            rows as u64,
        ),
        Metric::new(
            "net.decode_ns_per_row",
            "ns",
            dec_ns / rows.max(1) as f64,
            rows as u64,
        ),
    ]
}

/// `sql.compile_us`: compiling every query of the workload, median of
/// repeated compiles.
pub fn sql_compile(tracer: &Tracer, sqls: &[&str], catalog: &Catalog) -> Metric {
    const REPEAT: usize = 101;
    let mut us = Vec::with_capacity(REPEAT);
    for _ in 0..REPEAT {
        let t0 = Instant::now();
        for sql in sqls {
            std::hint::black_box(saber_sql::compile(sql, catalog).expect("workload SQL compiles"));
        }
        let t1 = Instant::now();
        us.push((t1 - t0).as_secs_f64() * 1e6);
        tracer.record(tracer.id(), NONE, "sql.compile", NONE, t0, t1);
    }
    Metric::new("sql.compile_us", "us", median(&mut us), REPEAT as u64)
}
