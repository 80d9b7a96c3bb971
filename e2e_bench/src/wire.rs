//! `lrb1_wire_durable`: LRB1 through an in-process `Server` with a WAL, one
//! producer `BinaryClient` sending `Insert` frames and one subscriber
//! connection reading `Data` frames.

use crate::inproc::Phase;
use crate::support::{
    check_detects_corruption, peak_rss_mib, reset_peak_rss, Metric, OpenLoop, Percentiles, Replay,
    Tracer, NONE, PROBE_ROWS,
};
use crate::{layers, scratch_dir, Bench, Pass, PhaseLen};
use saber_engine::{DurabilityConfig, EngineConfig, ExecutionMode, SchedulingPolicyKind};
use saber_gpu::DeviceConfig;
use saber_net::wire::Frame;
use saber_net::BinaryClient;
use saber_server::{Server, ServerConfig};
use saber_types::RowBuffer;
use saber_workloads::{linearroad, reference};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BASE_ROWS: usize = 400_000;
const BATCH_ROWS: usize = 500;
/// Cadence of the producer's `Metrics` and `Ping` frames.
const SCRAPE_EVERY: Duration = Duration::from_millis(100);

pub struct Lrb1Wire {
    input: Replay,
    /// The LRB1 projection of the input, replayed with the same shifts.
    expected: Replay,
    low: f64,
    high: f64,
    /// Producer-side samples and WAL bytes of the last traced pass.
    traced_net: Mutex<Option<(NetSamples, u64)>>,
}

/// What the subscriber connection saw.
#[derive(Default)]
struct Received {
    rows: u64,
    /// Arrival instant of each batch's last row.
    batch_done: Vec<Instant>,
    wrong_rows: u64,
    first_wrong: Option<String>,
    ended: bool,
}

/// Producer-side measurements the layers report.
#[derive(Default)]
struct NetSamples {
    insert_us: Vec<f64>,
    ping_us: Vec<f64>,
    scrape_ms: Vec<f64>,
    metrics_bytes: Vec<f64>,
    last_metrics: String,
}

impl Lrb1Wire {
    /// `probe` builds a small input, enough for set-up probes.
    pub fn new(seed: u64, probe: bool) -> Result<Self, String> {
        let road = linearroad::RoadConfig {
            reports_per_second: 1_000,
            ..Default::default()
        };
        let base_rows = if probe { PROBE_ROWS } else { BASE_ROWS };
        let positions = linearroad::generate(&road, base_rows, seed, 0);
        let projected = reference::run_single_input(&saber_workloads::sql::lrb1(), &positions)
            .map_err(|e| format!("LRB1 reference: {e}"))?;
        if projected.len() != positions.len() {
            return Err("LRB1 reference dropped rows".into());
        }
        let span = base_rows as i64;
        Ok(Lrb1Wire {
            input: Replay::new(positions, span),
            expected: Replay::new(projected, span),
            low: 100_000.0,
            high: 300_000.0,
            traced_net: Mutex::new(None),
        })
    }

    fn config(wal: &Path) -> ServerConfig {
        ServerConfig {
            engine: EngineConfig {
                worker_threads: 1,
                query_task_size: 256 << 10,
                execution_mode: ExecutionMode::CpuOnly,
                scheduling: SchedulingPolicyKind::default(),
                device: DeviceConfig {
                    executor_threads: 1,
                    ..DeviceConfig::default()
                },
                input_buffer_capacity: 4 << 20,
                max_queued_tasks: 64,
                gpu_pipeline_depth: 1,
                throughput_smoothing: 0.25,
                durability: Some(DurabilityConfig::new(wal)),
                sharing: true,
                stage_timestamps: false,
            },
            ..ServerConfig::default()
        }
    }

    fn request(client: &mut BinaryClient, frame: &Frame) -> Result<Frame, String> {
        client.send(frame).map_err(|e| format!("send: {e}"))?;
        client.recv_skip_nops().map_err(|e| format!("recv: {e}"))
    }

    /// Binds a server over a fresh WAL directory, registers LRB1 from a
    /// producer connection and subscribes a second connection to it: every
    /// step up to the first row that may be sent.
    fn set_up(
        wal: &Path,
        stage_timestamps: bool,
    ) -> Result<(Server, BinaryClient, BinaryClient, u32), String> {
        let _ = std::fs::remove_dir_all(wal);
        let mut config = Self::config(wal);
        config.engine.stage_timestamps = stage_timestamps;
        let server =
            Server::bind_with_catalog("127.0.0.1:0", config, saber_workloads::sql::catalog())
                .map_err(|e| format!("bind: {e}"))?;
        let connect =
            || BinaryClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"));
        let mut producer = connect()?;
        let sql = saber_workloads::sql::LRB1.to_string();
        let query = match Self::request(&mut producer, &Frame::Query { sql })? {
            Frame::Ok { message } => message
                .rsplit(' ')
                .next()
                .and_then(|id| id.parse::<u32>().ok())
                .ok_or(format!("unexpected QUERY reply {message}"))?,
            other => return Err(format!("QUERY failed: {other:?}")),
        };
        let mut subscriber = connect()?;
        match Self::request(&mut subscriber, &Frame::Subscribe { query })? {
            Frame::Ok { .. } => Ok((server, producer, subscriber, query)),
            other => Err(format!("SUBSCRIBE failed: {other:?}")),
        }
    }

    /// One phase on a fresh server. `net` collects producer-side samples.
    fn run_phase(
        &self,
        rate: Option<f64>,
        duration: Duration,
        tracer: &Tracer,
        tag: &str,
        net: &mut NetSamples,
    ) -> Result<(Phase, u64), String> {
        let traced = tracer.enabled();
        let mut phase = Phase::default();
        let wal = scratch_dir().join("wal").join(tag);
        reset_peak_rss();
        let (server, mut producer, mut subscriber, query) = Self::set_up(&wal, traced)?;

        let received = Arc::new(Mutex::new(Received::default()));
        let reader = {
            let received = received.clone();
            let expected = &self.expected;
            let row_size = expected.row_size();
            let schema = expected.schema().clone();
            move || {
                let mut want = Vec::new();
                loop {
                    match subscriber.recv_skip_nops() {
                        Ok(Frame::Data { nrows, rows }) => {
                            let now = Instant::now();
                            let mut r = received.lock().expect("receiver lock");
                            let first = r.rows;
                            expected.fill(first, nrows as usize, &mut want);
                            if rows != want {
                                let bad = rows
                                    .chunks(row_size)
                                    .zip(want.chunks(row_size))
                                    .position(|(a, b)| a != b)
                                    .unwrap_or(0);
                                r.wrong_rows += 1;
                                if r.first_wrong.is_none() {
                                    let got = RowBuffer::from_bytes(schema.clone(), rows.clone())
                                        .ok()
                                        .filter(|b| bad < b.len())
                                        .map(|b| format!("{:?}", b.row(bad).to_values()));
                                    r.first_wrong = Some(format!(
                                        "row {} differs from the LRB1 projection: {got:?}",
                                        first + bad as u64
                                    ));
                                }
                            }
                            r.rows += nrows as u64;
                            let done = (r.rows / BATCH_ROWS as u64) as usize;
                            while r.batch_done.len() < done {
                                r.batch_done.push(now);
                            }
                        }
                        Ok(Frame::End) | Err(_) => break,
                        Ok(_) => {}
                    }
                }
                received.lock().expect("receiver lock").ended = true;
            }
        };

        std::thread::scope(|scope| -> Result<(), String> {
            let reader = scope.spawn(reader);
            let cpu_start = crate::support::process_cpu_seconds();
            let started = Instant::now();
            let clock = OpenLoop::new(rate.unwrap_or(1.0), BATCH_ROWS);
            let phase_span = tracer.id();
            let mut due = Vec::new();
            let mut buf = Vec::new();
            let mut next_scrape = started;
            let mut k = 0u64;
            while started.elapsed() < duration {
                let sent_due = match rate {
                    Some(_) => {
                        phase.late_ms.push(clock.wait(k));
                        clock.due(k)
                    }
                    None => Instant::now(),
                };
                if Instant::now() >= next_scrape {
                    next_scrape += SCRAPE_EVERY;
                    phase.ops += 2;
                    let t0 = Instant::now();
                    match Self::request(&mut producer, &Frame::Metrics) {
                        Ok(Frame::MetricsText { text }) => {
                            let t1 = Instant::now();
                            net.scrape_ms.push((t1 - t0).as_secs_f64() * 1e3);
                            net.metrics_bytes.push(text.len() as f64);
                            tracer.record(tracer.id(), phase_span, "net.metrics", NONE, t0, t1);
                        }
                        other => {
                            phase.failed_ops += 1;
                            phase.errors.push(format!("METRICS: {other:?}"));
                        }
                    }
                    let t0 = Instant::now();
                    match Self::request(&mut producer, &Frame::Ping) {
                        Ok(Frame::Pong) => {
                            let t1 = Instant::now();
                            net.ping_us.push((t1 - t0).as_secs_f64() * 1e6);
                            tracer.record(tracer.id(), phase_span, "net.ping", NONE, t0, t1);
                        }
                        other => {
                            phase.failed_ops += 1;
                            phase.errors.push(format!("PING: {other:?}"));
                        }
                    }
                }
                self.input.fill(k * BATCH_ROWS as u64, BATCH_ROWS, &mut buf);
                due.push(sent_due);
                phase.ops += 1;
                let t0 = Instant::now();
                let reply = Self::request(
                    &mut producer,
                    &Frame::Insert {
                        query,
                        stream: 0,
                        rows: std::mem::take(&mut buf),
                    },
                );
                let t1 = Instant::now();
                if traced {
                    net.insert_us.push((t1 - t0).as_secs_f64() * 1e6);
                    tracer.record(tracer.id(), phase_span, "net.insert", k, t0, t1);
                }
                match reply {
                    Ok(Frame::Ok { .. }) => {}
                    other => {
                        phase.failed_ops += 1;
                        phase.errors.push(format!("INSERT: {other:?}"));
                    }
                }
                k += 1;
            }
            let offered = k * BATCH_ROWS as u64;
            phase.rows_offered = offered;
            phase.backlog_rows_end =
                offered.saturating_sub(received.lock().expect("receiver lock").rows);
            phase.ops += 1;
            if !matches!(
                Self::request(&mut producer, &Frame::Flush),
                Ok(Frame::Ok { .. })
            ) {
                phase.failed_ops += 1;
                phase.errors.push("FLUSH failed".into());
            }
            let deadline = Instant::now() + Duration::from_secs(60);
            while received.lock().expect("receiver lock").rows < offered
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            phase.cpu_ns_per_row =
                (crate::support::process_cpu_seconds() - cpu_start) * 1e9 / offered.max(1) as f64;
            // The engine's own counters, read through the scrape endpoint.
            if let Ok(Frame::MetricsText { text }) = Self::request(&mut producer, &Frame::Metrics) {
                net.last_metrics = text;
            }
            let _ = Self::request(&mut producer, &Frame::Quit);
            let report = server.shutdown();
            phase.ops += 1;
            if let Err(e) = report {
                phase.failed_ops += 1;
                phase.errors.push(format!("shutdown: {e}"));
            }
            reader
                .join()
                .map_err(|_| "subscriber thread panicked".to_string())?;

            let r = received.lock().expect("receiver lock");
            phase.windows_expected = offered;
            phase.windows_delivered = r.rows.min(offered);
            if r.rows != offered {
                phase.wrong += r.rows.abs_diff(offered);
                phase
                    .errors
                    .push(format!("{} rows delivered, {offered} sent", r.rows));
            }
            if r.wrong_rows > 0 {
                phase.wrong += r.wrong_rows;
                phase.errors.push(r.first_wrong.clone().unwrap_or_default());
            }
            if !r.ended {
                phase.errors.push("subscription did not end".into());
            }
            for (b, at) in r.batch_done.iter().enumerate().take(due.len()) {
                phase
                    .latency_ms
                    .push(at.saturating_duration_since(due[b]).as_secs_f64() * 1e3);
                phase
                    .latency_at_s
                    .push(at.saturating_duration_since(started).as_secs_f64());
                tracer.record(tracer.id(), NONE, "window.deliver", b as u64, due[b], *at);
            }
            phase.peak_rss_mib = peak_rss_mib();
            phase.peak_rss_runs = 1;
            let last = r.batch_done.last().copied().unwrap_or(started);
            phase.wall_s = (last - started).as_secs_f64();
            phase.rows_per_s = phase.windows_delivered as f64 / phase.wall_s.max(1e-9);
            tracer.record(phase_span, NONE, "phase", NONE, started, last);
            Ok(())
        })?;
        let wal_bytes = dir_bytes(&wal);
        let _ = std::fs::remove_dir_all(&wal);
        Ok((phase, wal_bytes))
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path: PathBuf = e.path();
            if path.is_dir() {
                dir_bytes(&path)
            } else {
                e.metadata().map(|m| m.len()).unwrap_or(0)
            }
        })
        .sum()
}

/// Values of one Prometheus metric family: (labels, value) per sample line.
fn prom_samples<'a>(text: &'a str, name: &str) -> Vec<(&'a str, f64)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (head, value) = l.rsplit_once(' ')?;
            let (metric, labels) = match head.split_once('{') {
                Some((m, rest)) => (m, rest.trim_end_matches('}')),
                None => (head, ""),
            };
            (metric == name).then(|| Some((labels, value.parse::<f64>().ok()?)))?
        })
        .collect()
}

/// Quantile of one stage from the cumulative `_bucket` lines, in µs.
fn prom_stage_quantile(text: &str, stage: &str, q: f64) -> (f64, u64) {
    let tag = format!("stage=\"{stage}\"");
    let mut buckets: Vec<(f64, f64)> =
        prom_samples(text, "saber_query_stage_latency_seconds_bucket")
            .into_iter()
            .filter(|(labels, _)| labels.contains(&tag))
            .filter_map(|(labels, count)| {
                let le = labels.split("le=\"").nth(1)?.split('"').next()?;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((le, count))
            })
            .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().map(|b| b.1).unwrap_or(0.0);
    let target = q * total;
    let le = buckets
        .iter()
        .find(|(_, c)| *c >= target && total > 0.0)
        .map(|b| b.0)
        .unwrap_or(0.0);
    (if le.is_finite() { le * 1e6 } else { 0.0 }, total as u64)
}

pub struct WirePass {
    pass: Pass,
    net: NetSamples,
    wal_bytes: u64,
}

impl Lrb1Wire {
    fn wire_pass(&self, len: PhaseLen, tracer: &Tracer, tag: &str) -> Result<WirePass, String> {
        let mut net = NetSamples::default();
        let mut wal_bytes = 0;
        let mut phase = |name: &str, rate, dur| {
            let (phase, wal) =
                self.run_phase(rate, dur, tracer, &format!("{tag}-{name}"), &mut net)?;
            wal_bytes += wal;
            Ok::<_, String>(phase)
        };
        let closed = phase("closed", None, len.closed)?;
        let low = phase("low", Some(self.low), len.open)?;
        let high = phase("high", Some(self.high), len.open)?;
        Ok(WirePass {
            pass: Pass { closed, low, high },
            net,
            wal_bytes,
        })
    }
}

impl Bench for Lrb1Wire {
    fn describe(&self) -> String {
        let c = Self::config(Path::new("wal")).engine;
        format!(
            "server engine mode={:?} workers={} task_bytes={} input_buffer={} max_queued_tasks={} \
             durable=true group_commit=2ms fsync=20ms batch_rows={BATCH_ROWS} \
             scrape_every_ms={} input=\"1000 reports/s of event time\" low_rows_per_s={} \
             high_rows_per_s={} connections=2",
            c.execution_mode,
            c.worker_threads,
            c.query_task_size,
            c.input_buffer_capacity,
            c.max_queued_tasks,
            SCRAPE_EVERY.as_millis(),
            self.low,
            self.high
        )
    }

    fn pass(&self, len: PhaseLen, tracer: &Tracer, tag: &str) -> Result<Pass, String> {
        let wp = self.wire_pass(len, tracer, tag)?;
        if tracer.enabled() {
            *self.traced_net.lock().expect("layer lock") = Some((wp.net, wp.wal_bytes));
        }
        Ok(wp.pass)
    }

    fn setup_once(&self, traced: bool, tag: &str) -> Result<f64, String> {
        let wal = scratch_dir().join("wal").join(tag);
        let started = Instant::now();
        let (server, producer, subscriber, _) = Self::set_up(&wal, traced)?;
        let setup = started.elapsed().as_secs_f64();
        drop(producer);
        server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        drop(subscriber);
        let _ = std::fs::remove_dir_all(&wal);
        Ok(setup)
    }

    fn self_test(&self) -> Result<(), String> {
        check_detects_corruption(self.expected.base())
    }

    fn layers(&self, tracer: &Tracer, traced: &Pass) -> Vec<Metric> {
        let (net, wal_bytes) = self
            .traced_net
            .lock()
            .expect("layer lock")
            .take()
            .unwrap_or_default();
        let text = &net.last_metrics;
        let mut out = Vec::new();
        for stage in saber_engine::STAGE_NAMES {
            for (q, suffix) in [(0.5, "p50_us"), (0.99, "p99_us")] {
                let (v, n) = prom_stage_quantile(text, stage, q);
                out.push(Metric::new(format!("stage.{stage}.{suffix}"), "us", v, n));
            }
        }
        let phases = [&traced.closed, &traced.low, &traced.high];
        let rows: u64 = phases.iter().map(|p| p.rows_offered).sum();
        let sum = |name: &str| prom_samples(text, name).iter().map(|s| s.1).sum::<f64>();
        let high_rows = traced.high.rows_offered.max(1) as f64;
        // The scrape covers the high phase's server only.
        out.push(Metric::new("engine.ingest_call_us.p50", "us", 0.0, 0));
        out.push(Metric::new("engine.ingest_call_us.p99", "us", 0.0, 0));
        out.push(Metric::new(
            "flow.backpressure_share",
            "ratio",
            sum("saber_engine_backpressure_wait_seconds_total") / traced.high.wall_s.max(1e-9),
            1,
        ));
        out.push(Metric::new(
            "dispatch.tasks_per_mrow",
            "count",
            sum("saber_query_tasks_created_total") * 1e6 / high_rows,
            sum("saber_query_tasks_created_total") as u64,
        ));
        out.push(Metric::new(
            "queue.depth_max",
            "count",
            sum("saber_queued_tasks_peak"),
            1,
        ));
        out.push(Metric::new(
            "queue.backlog_rows_end.high",
            "rows",
            traced.high.backlog_rows_end as f64,
            1,
        ));
        out.push(Metric::new("sched.gpu_task_share", "ratio", 0.0, 0));
        out.push(Metric::new("gpu.kernel_ms_per_task", "ms", 0.0, 0));
        out.push(Metric::new("gpu.movement_ms_per_task", "ms", 0.0, 0));
        out.push(Metric::new(
            "wal.bytes_per_row",
            "B",
            wal_bytes as f64 / rows.max(1) as f64,
            rows,
        ));
        let batches = layers::task_batches(&self.input, 8192, 16);
        let lrb1 = saber_workloads::sql::lrb1();
        out.extend(layers::cpu(tracer, std::slice::from_ref(&lrb1), &batches));
        out.push(layers::wal_append(
            tracer,
            1,
            &batches,
            &scratch_dir().join(format!("wal-append-{}", std::process::id())),
        ));
        out.extend(layers::codec(tracer, &batches));
        let catalog = saber_workloads::sql::catalog();
        out.push(layers::sql_compile(
            tracer,
            &[saber_workloads::sql::LRB1],
            &catalog,
        ));
        let insert = Percentiles::of(net.insert_us);
        let ping = Percentiles::of(net.ping_us);
        let scrape = Percentiles::of(net.scrape_ms);
        let mut bytes = net.metrics_bytes;
        let metrics_bytes = crate::support::median(&mut bytes);
        out.push(Metric::new(
            "net.insert_rtt_us.p50",
            "us",
            insert.p50,
            insert.n,
        ));
        out.push(Metric::new(
            "net.insert_rtt_us.p99",
            "us",
            insert.p99,
            insert.n,
        ));
        out.push(Metric::new("net.ping_rtt_us.p99", "us", ping.p99, ping.n));
        out.push(Metric::new(
            "net.metrics_scrape_ms.p50",
            "ms",
            scrape.p50,
            scrape.n,
        ));
        out.push(Metric::new(
            "net.metrics_scrape_ms.p99",
            "ms",
            scrape.p99,
            scrape.n,
        ));
        out.push(Metric::new(
            "net.metrics_bytes",
            "B",
            metrics_bytes,
            bytes.len() as u64,
        ));
        out
    }
}
