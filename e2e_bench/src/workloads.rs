//! The in-process workloads: `cm2_hybrid` and `lrb_fanout8_durable`.

use crate::inproc::{QuerySpec, Workload};
use crate::support::{check_detects_corruption, Metric, Percentiles, Replay, Tracer, PROBE_ROWS};
use crate::{inproc_pass, layers, scratch_dir, Bench, Pass, PhaseLen};
use saber_engine::{EngineConfig, ExecutionMode, SchedulingPolicyKind};
use saber_gpu::DeviceConfig;
use saber_types::RowBuffer;
use saber_workloads::{cluster, linearroad, reference};

/// An in-process workload with its fixed offered rates.
pub struct Inproc {
    workload: Workload,
    /// Open-loop rates, stream rows per second.
    low: f64,
    high: f64,
    density: &'static str,
}

fn engine_config(mode: ExecutionMode, input_buffer: usize) -> EngineConfig {
    EngineConfig {
        worker_threads: 1,
        query_task_size: 1 << 20,
        execution_mode: mode,
        scheduling: SchedulingPolicyKind::default(),
        device: DeviceConfig {
            executor_threads: 1,
            ..DeviceConfig::default()
        },
        input_buffer_capacity: input_buffer,
        max_queued_tasks: 64,
        gpu_pipeline_depth: 4,
        throughput_smoothing: 0.25,
        durability: None,
        sharing: true,
        stage_timestamps: false,
    }
}

/// CM2 over the cluster trace in hybrid mode. 500 events per second of
/// event time and 1000 jobs keep a 60 s window at 10k selected rows, so a
/// run closes thousands of windows. `probe` builds a small input, enough
/// for set-up probes.
pub fn cm2_hybrid(seed: u64, probe: bool) -> Result<Inproc, String> {
    const BASE_ROWS: usize = 600_000;
    let base_rows = if probe { PROBE_ROWS } else { BASE_ROWS };
    let trace = cluster::TraceConfig {
        jobs: 1_000,
        events_per_second: 500,
        ..Default::default()
    };
    let base = cluster::generate(&trace, base_rows, seed, 0);
    let replay = Replay::new(base, base_rows as i64 * 2);
    let catalog = saber_workloads::sql::catalog();
    let queries = vec![QuerySpec::new(
        "CM2",
        saber_workloads::sql::CM2,
        &catalog,
        &replay,
        30,
    )?];
    Ok(Inproc {
        workload: Workload {
            replay,
            catalog,
            queries,
            config: engine_config(ExecutionMode::Hybrid, 16 << 20),
            wal_root: None,
            batch_rows: 1_000,
        },
        low: 160_000.0,
        high: 240_000.0,
        density: "500 events/s of event time, 1000 jobs",
    })
}

/// The eight `SegSpeedStr` queries of `lrb_fanout8_durable`: LRB3, LRB4 and
/// six variants with other predicates, groups and windows.
pub const FANOUT: [(&str, &str); 8] = [
    ("LRB3", saber_workloads::sql::LRB3),
    ("LRB4", saber_workloads::sql::LRB4),
    (
        "LANE0_AVG",
        "SELECT timestamp, highway, direction, segment, AVG(speed) AS avgSpeed \
         FROM SegSpeedStr [RANGE 60 SLIDE 1] WHERE lane = 0 GROUP BY highway, direction, segment",
    ),
    (
        "FAST_COUNT",
        "SELECT timestamp, highway, COUNT(*) AS fast \
         FROM SegSpeedStr [RANGE 120 SLIDE 2] WHERE speed > 60 GROUP BY highway",
    ),
    (
        "MAX_SPEED",
        "SELECT timestamp, highway, direction, MAX(speed) AS maxSpeed \
         FROM SegSpeedStr [RANGE 30 SLIDE 1] GROUP BY highway, direction",
    ),
    (
        "LANE_MIN",
        "SELECT timestamp, lane, MIN(speed) AS minSpeed \
         FROM SegSpeedStr [RANGE 10 SLIDE 1] GROUP BY lane",
    ),
    (
        "NEAR_SEG_SUM",
        "SELECT timestamp, SUM(speed) AS total \
         FROM SegSpeedStr [RANGE 300 SLIDE 5] WHERE segment < 5",
    ),
    (
        "HWY0_AVG",
        "SELECT timestamp, direction, segment, AVG(speed) AS avgSpeed \
         FROM SegSpeedStr [RANGE 120 SLIDE 10] WHERE highway = 0 GROUP BY direction, segment",
    ),
];

/// Folds the generator's 100 segments per highway into `segments` whole
/// segments: segment `s` becomes `s / (100 / segments)` and each report
/// sits at its segment's start, so LRB1's `position / 5280` is integral and
/// `GROUP BY segment` has `segments` keys. The first folded segment holds
/// only congested segments, so LRB3's HAVING keeps rows in every window.
fn fold_segments(positions: &mut RowBuffer, segments: i32) {
    const FEET: i32 = 5280;
    let col = linearroad::columns::POSITION;
    let schema = positions.schema().clone();
    let offset = schema.offset(col);
    for row in positions.bytes_mut().chunks_exact_mut(schema.row_size()) {
        let field = &mut row[offset..offset + 4];
        let pos = i32::from_le_bytes(field.try_into().expect("4-byte position"));
        let folded = (pos / FEET) / (100 / segments) * FEET;
        field.copy_from_slice(&folded.to_le_bytes());
    }
}

/// Eight distinct queries over one `SegSpeedStr` stream, CPU only, with a
/// WAL. The input is the LRB1 projection of generated position reports at
/// 250 reports per second of event time. Small ingest batches (50 rows,
/// eight ingest calls and WAL records each) and 256 KiB tasks put the
/// per-query ingest path under load; LRB4's COUNT DISTINCT assembly bounds
/// how many event seconds a wall second can close. `probe` builds a small
/// input, enough for set-up probes.
pub fn lrb_fanout8(seed: u64, probe: bool) -> Result<Inproc, String> {
    const BASE_ROWS: usize = 300_000;
    let base_rows = if probe { PROBE_ROWS } else { BASE_ROWS };
    let road = linearroad::RoadConfig {
        highways: 2,
        reports_per_second: 250,
        ..Default::default()
    };
    let mut positions = linearroad::generate(&road, base_rows, seed, 0);
    fold_segments(&mut positions, 10);
    let segments = reference::run_single_input(&saber_workloads::sql::lrb1(), &positions)
        .map_err(|e| format!("LRB1 projection: {e}"))?;
    let replay = Replay::new(segments, base_rows as i64 * 4);
    let catalog = saber_workloads::sql::catalog();
    let queries = FANOUT
        .iter()
        .map(|(name, sql)| QuerySpec::new(name, sql, &catalog, &replay, 10))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Inproc {
        workload: Workload {
            replay,
            catalog,
            queries,
            config: EngineConfig {
                query_task_size: 256 << 10,
                max_queued_tasks: 16,
                ..engine_config(ExecutionMode::CpuOnly, 1 << 20)
            },
            wal_root: Some(scratch_dir().join("wal")),
            batch_rows: 50,
        },
        low: 15_000.0,
        high: 45_000.0,
        density: "250 reports/s of event time, 2 highways of 10 segments",
    })
}

impl Bench for Inproc {
    fn describe(&self) -> String {
        let c = &self.workload.config;
        format!(
            "engine mode={:?} workers={} device_executors={} task_bytes={} input_buffer={} \
             max_queued_tasks={} pipeline_depth={} durable={} queries={} batch_rows={} \
             input=\"{}\" low_rows_per_s={} high_rows_per_s={}",
            c.execution_mode,
            c.worker_threads,
            c.device.executor_threads,
            c.query_task_size,
            c.input_buffer_capacity,
            c.max_queued_tasks,
            c.gpu_pipeline_depth,
            self.workload.wal_root.is_some(),
            self.workload.queries.len(),
            self.workload.batch_rows,
            self.density,
            self.low,
            self.high
        )
    }

    fn pass(&self, len: PhaseLen, tracer: &Tracer, tag: &str) -> Result<Pass, String> {
        inproc_pass(&self.workload, self.low, self.high, len, tracer, tag)
    }

    fn setup_once(&self, traced: bool, tag: &str) -> Result<f64, String> {
        self.workload.setup_only(traced, tag)
    }

    fn self_test(&self) -> Result<(), String> {
        for q in &self.workload.queries {
            check_detects_corruption(&q.expected).map_err(|e| format!("{}: {e}", q.name))?;
        }
        Ok(())
    }

    fn layers(&self, tracer: &Tracer, traced: &Pass) -> Vec<Metric> {
        let w = &self.workload;
        let mut out = engine_layers(traced);
        let phases = [&traced.closed, &traced.low, &traced.high];
        let rows: u64 = phases.iter().map(|p| p.rows_offered).sum();
        let gpu_tasks: u64 = phases.iter().map(|p| p.gpu_tasks).sum();
        let per_task = |ns: u64| {
            if gpu_tasks == 0 {
                0.0
            } else {
                ns as f64 / 1e6 / gpu_tasks as f64
            }
        };
        out.push(Metric::new(
            "gpu.kernel_ms_per_task",
            "ms",
            per_task(phases.iter().map(|p| p.gpu_kernel_ns).sum()),
            gpu_tasks,
        ));
        out.push(Metric::new(
            "gpu.movement_ms_per_task",
            "ms",
            per_task(phases.iter().map(|p| p.gpu_movement_ns).sum()),
            gpu_tasks,
        ));
        out.push(Metric::new(
            "wal.bytes_per_row",
            "B",
            phases.iter().map(|p| p.wal_bytes).sum::<u64>() as f64 / rows.max(1) as f64,
            rows,
        ));
        let task_rows = w.config.query_task_size / w.replay.row_size();
        let batches = layers::task_batches(&w.replay, task_rows, 16);
        let queries: Vec<saber_query::Query> = w
            .queries
            .iter()
            .map(|q| saber_sql::compile_named(&q.sql, q.name, &w.catalog).expect("compiles"))
            .collect();
        out.extend(layers::cpu(tracer, &queries, &batches));
        out.push(layers::wal_append(
            tracer,
            w.queries.len(),
            &batches,
            &scratch_dir().join(format!("wal-append-{}", std::process::id())),
        ));
        out.extend(layers::codec(tracer, &batches));
        let sqls: Vec<&str> = w.queries.iter().map(|q| q.sql.as_str()).collect();
        out.push(layers::sql_compile(tracer, &sqls, &w.catalog));
        out
    }
}

/// Stage, ingest, flow, dispatch, queue and scheduler metrics of a traced
/// pass.
pub fn engine_layers(traced: &Pass) -> Vec<Metric> {
    let mut out = Vec::new();
    for (name, hist) in &traced.high.stages {
        out.push(Metric::new(
            format!("stage.{name}.p50_us"),
            "us",
            hist.p50() as f64 / 1e3,
            hist.count(),
        ));
        out.push(Metric::new(
            format!("stage.{name}.p99_us"),
            "us",
            hist.p99() as f64 / 1e3,
            hist.count(),
        ));
    }
    let calls = Percentiles::of(traced.high.ingest_call_us.clone());
    out.push(Metric::new(
        "engine.ingest_call_us.p50",
        "us",
        calls.p50,
        calls.n,
    ));
    out.push(Metric::new(
        "engine.ingest_call_us.p99",
        "us",
        calls.p99,
        calls.n,
    ));
    let phases = [&traced.closed, &traced.low, &traced.high];
    let wall: f64 = phases.iter().map(|p| p.wall_s).sum();
    let rows: u64 = phases.iter().map(|p| p.rows_offered).sum();
    let tasks: u64 = phases.iter().map(|p| p.tasks_created).sum();
    let executed: u64 = phases.iter().map(|p| p.tasks_cpu + p.tasks_gpu).sum();
    let gpu: u64 = phases.iter().map(|p| p.tasks_gpu).sum();
    out.push(Metric::new(
        "flow.backpressure_share",
        "ratio",
        phases.iter().map(|p| p.backpressure_s).sum::<f64>() / wall.max(1e-9),
        1,
    ));
    out.push(Metric::new(
        "dispatch.tasks_per_mrow",
        "count",
        tasks as f64 * 1e6 / rows.max(1) as f64,
        tasks,
    ));
    out.push(Metric::new(
        "queue.depth_max",
        "count",
        phases.iter().map(|p| p.queue_depth_max).max().unwrap_or(0) as f64,
        1,
    ));
    out.push(Metric::new(
        "queue.backlog_rows_end.high",
        "rows",
        traced.high.backlog_rows_end as f64,
        1,
    ));
    out.push(Metric::new(
        "sched.gpu_task_share",
        "ratio",
        if executed == 0 {
            0.0
        } else {
            gpu as f64 / executed as f64
        },
        executed,
    ));
    out
}
