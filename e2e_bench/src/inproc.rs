//! In-process workloads: queries registered on a `Saber` engine, fed through
//! `IngestHandle`s and observed through `QuerySink::subscribe` callbacks.

use crate::support::{peak_rss_mib, reset_peak_rss, OpenLoop, Replay, Tracer, NONE};
use saber_engine::{
    DurabilityConfig, EngineConfig, HistogramSnapshot, IngestHandle, QueryHandle, Saber, StreamId,
    STAGE_NAMES,
};
use saber_query::{Query, WindowSpec};
use saber_sql::Catalog;
use saber_types::{RowBuffer, TupleRef};
use saber_workloads::reference;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How the generator offers load in one phase.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// One producer, next batch as soon as the previous ingest returns.
    Closed,
    /// Batches due on a fixed schedule at this many stream rows per second.
    Open(f64),
}

/// One query of a workload, with its reference output on a prefix of the
/// input.
pub struct QuerySpec {
    pub name: &'static str,
    pub sql: String,
    pub window: WindowSpec,
    /// Windows whose end is at or below this timestamp are checked against
    /// `expected`.
    pub prefix_limit: i64,
    pub expected: RowBuffer,
}

impl QuerySpec {
    /// Compiles `sql` and computes the reference output for every window
    /// that ends within the first `prefix_windows` slides after the first
    /// window of the replayed input.
    pub fn new(
        name: &'static str,
        sql: &str,
        catalog: &Catalog,
        replay: &Replay,
        prefix_windows: u64,
    ) -> Result<QuerySpec, String> {
        let query: Query = saber_sql::compile_named(sql, name, catalog)
            .map_err(|e| format!("{name}: {}", e.message()))?;
        let window = *query.window(0);
        let limit = (window.size() + prefix_windows * window.slide()) as i64;
        let rows = replay.rows_before(limit + 1);
        let mut bytes = Vec::new();
        replay.fill(0, rows as usize, &mut bytes);
        let input = RowBuffer::from_bytes(replay.schema().clone(), bytes)
            .map_err(|e| format!("{name}: {e}"))?;
        let prefix_limit = input.row(input.len() - 1).timestamp();
        let expected =
            reference::run_single_input(&query, &input).map_err(|e| format!("{name}: {e}"))?;
        Ok(QuerySpec {
            name,
            sql: sql.to_string(),
            window,
            prefix_limit,
            expected,
        })
    }
}

/// An in-process workload.
pub struct Workload {
    pub replay: Replay,
    pub catalog: Catalog,
    pub queries: Vec<QuerySpec>,
    pub config: EngineConfig,
    /// WAL directory root when the workload is durable.
    pub wal_root: Option<PathBuf>,
    pub batch_rows: usize,
}

/// What one subscribed sink saw.
#[derive(Default)]
struct Seen {
    /// Window start and the instant its last row arrived, in order.
    windows: Vec<(i64, Instant)>,
    /// Rows that arrived for an earlier window than one already seen.
    disorder: u64,
    /// Delivered rows of the windows under the prefix check.
    prefix_rows: Option<RowBuffer>,
}

struct Tracker {
    seen: Mutex<Seen>,
    window_size: i64,
    prefix_limit: i64,
}

impl Tracker {
    fn on_rows(&self, rows: &RowBuffer) {
        let now = Instant::now();
        let mut seen = self.seen.lock().expect("tracker lock");
        for i in 0..rows.len() {
            let row: TupleRef<'_> = rows.row(i);
            let start = row.timestamp();
            match seen.windows.last_mut() {
                Some((last, at)) if *last == start => *at = now,
                Some((last, _)) if *last > start => seen.disorder += 1,
                _ => seen.windows.push((start, now)),
            }
            if start + self.window_size <= self.prefix_limit {
                let prefix = seen
                    .prefix_rows
                    .get_or_insert_with(|| RowBuffer::new(rows.schema().clone()));
                let _ = prefix.push_bytes(row.bytes());
            }
        }
    }
}

/// Everything measured in one phase.
#[derive(Default)]
pub struct Phase {
    pub rows_offered: u64,
    pub ops: u64,
    pub failed_ops: u64,
    pub windows_expected: u64,
    pub windows_delivered: u64,
    pub wrong: u64,
    /// Queries whose reference prefix the phase's input did not cover, so
    /// their windows went unchecked against the reference.
    pub prefix_unchecked: u64,
    pub errors: Vec<String>,
    pub latency_ms: Vec<f64>,
    /// Delivery time of each `latency_ms` sample, seconds from phase start.
    pub latency_at_s: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub rows_per_s: f64,
    /// Process CPU time from the first row offered to the end of the
    /// drain, per row offered.
    pub cpu_ns_per_row: f64,
    pub wall_s: f64,
    pub backlog_rows_end: u64,
    pub ingest_call_us: Vec<f64>,
    pub stages: Vec<(&'static str, HistogramSnapshot)>,
    pub backpressure_s: f64,
    pub tasks_created: u64,
    pub tasks_cpu: u64,
    pub tasks_gpu: u64,
    pub queue_depth_max: u64,
    pub gpu_tasks: u64,
    pub gpu_kernel_ns: u64,
    pub gpu_movement_ns: u64,
    pub wal_bytes: u64,
    /// Peak RSS from set-up to stop, after freed heap of earlier engines
    /// was returned to the OS (`support::reset_peak_rss`).
    pub peak_rss_mib: f64,
    /// Phases whose peak RSS `peak_rss_mib` is the median of.
    pub peak_rss_runs: u64,
}

struct Running {
    engine: Saber,
    handles: Vec<QueryHandle>,
    ingest: Vec<IngestHandle>,
    trackers: Vec<Arc<Tracker>>,
    wal_dir: Option<PathBuf>,
}

impl Workload {
    /// Builds, starts and registers everything up to the first row that
    /// may be sent.
    fn set_up(&self, traced: bool, tag: &str) -> Result<Running, String> {
        let mut config = self.config.clone();
        config.stage_timestamps = traced;
        let wal_dir = self.wal_root.as_ref().map(|root| root.join(tag));
        if let Some(dir) = &wal_dir {
            let _ = std::fs::remove_dir_all(dir);
            config.durability = Some(DurabilityConfig::new(dir));
        }
        let mut engine = Saber::with_config(config).map_err(|e| format!("engine: {e}"))?;
        engine.start().map_err(|e| format!("start: {e}"))?;
        let mut handles = Vec::new();
        let mut ingest = Vec::new();
        let mut trackers = Vec::new();
        for spec in &self.queries {
            let handle = engine
                .add_query_sql_with_options(&spec.sql, &self.catalog, false)
                .map_err(|e| format!("register {}: {e}", spec.name))?;
            let tracker = Arc::new(Tracker {
                seen: Mutex::new(Seen::default()),
                window_size: spec.window.size() as i64,
                prefix_limit: spec.prefix_limit,
            });
            let t = tracker.clone();
            handle.sink().subscribe(move |rows| t.on_rows(rows));
            ingest.push(
                handle
                    .ingest_handle(StreamId(0))
                    .map_err(|e| format!("ingest handle {}: {e}", spec.name))?,
            );
            handles.push(handle);
            trackers.push(tracker);
        }
        if engine.num_physical_plans() != self.queries.len() {
            return Err(format!(
                "{} physical plans for {} distinct queries",
                engine.num_physical_plans(),
                self.queries.len()
            ));
        }
        Ok(Running {
            engine,
            handles,
            ingest,
            trackers,
            wal_dir,
        })
    }

    /// Sets up a fresh engine and times it: one `setup_s` sample.
    pub fn setup_only(&self, traced: bool, tag: &str) -> Result<f64, String> {
        let started = Instant::now();
        let mut running = self.set_up(traced, tag)?;
        let setup = started.elapsed().as_secs_f64();
        running.engine.stop().map_err(|e| format!("stop: {e}"))?;
        if let Some(dir) = &running.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(setup)
    }

    /// Runs one phase on a fresh engine.
    pub fn run_phase(
        &self,
        load: Load,
        duration: Duration,
        tracer: &Tracer,
        tag: &str,
    ) -> Result<Phase, String> {
        let traced = tracer.enabled();
        let mut phase = Phase::default();
        reset_peak_rss();
        let mut running = self.set_up(traced, tag)?;
        let phase_span = tracer.id();

        let cpu_start = crate::support::process_cpu_seconds();
        let started = Instant::now();
        let clock = OpenLoop::new(
            match load {
                Load::Open(rate) => rate,
                Load::Closed => 1.0,
            },
            self.batch_rows,
        );
        // First timestamp of every batch, for latency attribution.
        let mut first_ts: Vec<i64> = Vec::new();
        let mut due: Vec<Instant> = Vec::new();
        let mut buf = Vec::with_capacity(self.batch_rows * self.replay.row_size());
        let mut k = 0u64;
        loop {
            let now = Instant::now();
            if now - started >= duration {
                break;
            }
            let sent_due = match load {
                Load::Open(_) => {
                    phase.late_ms.push(clock.wait(k));
                    clock.due(k)
                }
                Load::Closed => now,
            };
            let g = k * self.batch_rows as u64;
            self.replay.fill(g, self.batch_rows, &mut buf);
            first_ts.push(self.replay.ts(g));
            due.push(sent_due);
            let batch_span = tracer.id();
            let batch_start = Instant::now();
            for handle in &running.ingest {
                phase.ops += 1;
                let call = Instant::now();
                let result = handle.ingest(&buf);
                if traced {
                    let end = Instant::now();
                    phase.ingest_call_us.push((end - call).as_secs_f64() * 1e6);
                    tracer.record(tracer.id(), batch_span, "engine.ingest", k, call, end);
                }
                if let Err(e) = result {
                    phase.failed_ops += 1;
                    phase.errors.push(format!("ingest: {e}"));
                }
            }
            tracer.record(
                batch_span,
                phase_span,
                "gen.batch",
                k,
                batch_start,
                Instant::now(),
            );
            k += 1;
        }
        let offered = k * self.batch_rows as u64;
        phase.rows_offered = offered;
        let last_ts = self.replay.ts(offered.saturating_sub(1));

        // Backlog at the end of the offered load: rows not yet covered by a
        // delivered window end, for the slowest query.
        let processed = running
            .trackers
            .iter()
            .map(|t| {
                let seen = t.seen.lock().expect("tracker lock");
                seen.windows
                    .last()
                    .map(|(s, _)| self.replay.rows_before(s + t.window_size))
                    .unwrap_or(0)
            })
            .min()
            .unwrap_or(0);
        phase.backlog_rows_end = offered.saturating_sub(processed);

        // Drain: cut the partial batches and wait for every window the
        // input closes.
        phase.ops += 1;
        if let Err(e) = running.engine.flush() {
            phase.failed_ops += 1;
            phase.errors.push(format!("flush: {e}"));
        }
        let expected: Vec<u64> = self
            .queries
            .iter()
            .map(|q| reference::complete_windows(&q.window, last_ts.max(0) as u64))
            .collect();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let done = running.trackers.iter().zip(&expected).all(|(t, &want)| {
                t.seen.lock().expect("tracker lock").windows.len() as u64 >= want
            });
            if done || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        running.engine.drain(Duration::from_secs(30));
        phase.cpu_ns_per_row =
            (crate::support::process_cpu_seconds() - cpu_start) * 1e9 / offered.max(1) as f64;

        // Per-layer counters, read before stop.
        for handle in &running.handles {
            let stats = handle.stats();
            let snap = stats.snapshot();
            phase.tasks_created += snap.tasks_created;
            phase.tasks_cpu += snap.tasks_cpu;
            phase.tasks_gpu += snap.tasks_gpu;
            for (i, (name, hist)) in stats.stages.snapshots().into_iter().enumerate() {
                if phase.stages.len() <= i {
                    phase.stages.push((name, hist));
                } else {
                    phase.stages[i].1.merge(&hist);
                }
            }
        }
        debug_assert_eq!(phase.stages.len(), STAGE_NAMES.len());
        phase.backpressure_s = running.engine.backpressure_stats().1.as_secs_f64();
        phase.queue_depth_max = running.engine.max_queued_tasks_observed() as u64;
        let gpu = running.engine.device().stats();
        phase.gpu_tasks = gpu.tasks_executed();
        phase.gpu_kernel_ns = gpu.kernel_time().as_nanos() as u64;
        phase.gpu_movement_ns = gpu.movement_time().as_nanos() as u64;
        if let Some(d) = running.engine.durability_stats() {
            phase.wal_bytes = d.wal_bytes;
        }
        phase.ops += 1;
        if let Err(e) = running.engine.stop() {
            phase.failed_ops += 1;
            phase.errors.push(format!("stop: {e}"));
        }
        if let Some(dir) = &running.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        phase.peak_rss_mib = peak_rss_mib();
        phase.peak_rss_runs = 1;

        // Windows, order, latency and the prefix check.
        let mut last_arrival = started;
        let mut covered = u64::MAX;
        for ((tracker, spec), &want) in running.trackers.iter().zip(&self.queries).zip(&expected) {
            let seen = tracker.seen.lock().expect("tracker lock");
            let got = seen.windows.len() as u64;
            phase.windows_expected += want;
            phase.windows_delivered += got.min(want);
            if got != want {
                phase.wrong += want.abs_diff(got);
                phase.errors.push(format!(
                    "{}: {got} windows delivered, {want} expected",
                    spec.name
                ));
            }
            if seen.disorder > 0 {
                phase.wrong += seen.disorder;
                phase.errors.push(format!(
                    "{}: {} rows out of window order",
                    spec.name, seen.disorder
                ));
            }
            if last_ts < spec.prefix_limit {
                phase.prefix_unchecked += 1;
            } else {
                let delivered_prefix = seen
                    .prefix_rows
                    .clone()
                    .unwrap_or_else(|| RowBuffer::new(spec.expected.schema().clone()));
                if let Err(e) = crate::support::compare_windows(&delivered_prefix, &spec.expected) {
                    phase.wrong += 1;
                    phase.errors.push(format!("{}: {e}", spec.name));
                }
            }
            if let Some((start, at)) = seen.windows.last() {
                last_arrival = last_arrival.max(*at);
                // Rows whose latest window (the one starting at their own
                // slide) was delivered.
                let slide = spec.window.slide() as i64;
                covered = covered.min(self.replay.rows_before(start + slide).min(offered));
            } else {
                covered = 0;
            }
            for &(start, at) in &seen.windows {
                let end = start + spec.window.size() as i64;
                let idx = first_ts.partition_point(|&ts| ts < end);
                if idx == 0 {
                    continue;
                }
                let batch = idx - 1;
                let latency = at.saturating_duration_since(due[batch]);
                phase.latency_ms.push(latency.as_secs_f64() * 1e3);
                phase
                    .latency_at_s
                    .push(at.saturating_duration_since(started).as_secs_f64());
                tracer.record(
                    tracer.id(),
                    NONE,
                    "window.deliver",
                    batch as u64,
                    due[batch],
                    at,
                );
            }
        }
        phase.wall_s = (last_arrival - started).as_secs_f64();
        phase.rows_per_s = covered as f64 / phase.wall_s.max(1e-9);
        tracer.record(phase_span, NONE, "phase", NONE, started, last_arrival);
        Ok(phase)
    }
}
