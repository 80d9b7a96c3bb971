//! Benchmark-harness helpers: driving an engine with a workload and
//! measuring throughput and latency.

use saber_engine::{EngineConfig, QueryId, Saber, StreamId};
use saber_query::Query;
use saber_types::{Result, RowBuffer};
use std::time::{Duration, Instant};

/// One benchmark measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Label of the configuration (e.g. "Saber", "CPU only").
    pub label: String,
    /// Tuples ingested per second of wall-clock time.
    pub tuples_per_second: f64,
    /// Bytes ingested per second of wall-clock time.
    pub bytes_per_second: f64,
    /// Average task latency (dispatch to emission).
    pub avg_latency: Duration,
    /// Output tuples emitted.
    pub tuples_out: u64,
    /// Fraction of tasks executed on the accelerator.
    pub gpu_share: f64,
    /// Wall-clock duration of the measurement.
    pub elapsed: Duration,
}

impl Measurement {
    /// Throughput in GB/s (the unit most figures of the paper use).
    pub fn gb_per_second(&self) -> f64 {
        self.bytes_per_second / 1e9
    }

    /// Throughput in millions of tuples per second (used by Fig. 7/9).
    pub fn mtuples_per_second(&self) -> f64 {
        self.tuples_per_second / 1e6
    }

    /// Formats one table row: label, GB/s, Mtuples/s, latency, GPGPU share.
    pub fn row(&self) -> String {
        format!(
            "{:<28} {:>9.3} GB/s {:>10.3} Mtuples/s {:>9.2} ms latency {:>5.1}% gpgpu",
            self.label,
            self.gb_per_second(),
            self.mtuples_per_second(),
            self.avg_latency.as_secs_f64() * 1000.0,
            self.gpu_share * 100.0
        )
    }
}

/// Runs `query` on an engine with `config`, replaying `data` repeatedly for
/// at least `duration`, and reports the measured throughput. The data buffer
/// is replayed in `chunk_rows` slices to emulate continuous arrival.
pub fn run_query_benchmark(
    label: &str,
    config: EngineConfig,
    query: Query,
    data: &RowBuffer,
    chunk_rows: usize,
    duration: Duration,
) -> Result<Measurement> {
    let mut engine = Saber::with_config(config)?;
    engine.add_query_with_options(query, false)?;
    engine.start()?;

    let row_size = data.schema().row_size();
    let chunk_bytes = chunk_rows.max(1) * row_size;
    let bytes = data.bytes();
    let started = Instant::now();
    let mut offset = 0usize;
    let mut ingested_bytes = 0u64;
    while started.elapsed() < duration {
        let end = (offset + chunk_bytes).min(bytes.len());
        engine.ingest(QueryId(0), StreamId(0), &bytes[offset..end])?;
        ingested_bytes += (end - offset) as u64;
        offset = if end >= bytes.len() { 0 } else { end };
    }
    engine.stop()?;
    let elapsed = started.elapsed();

    let stats = engine
        .query_stats(QueryId(0))
        .expect("query registered")
        .snapshot();
    let tuples_in = ingested_bytes / row_size as u64;
    Ok(Measurement {
        label: label.to_string(),
        tuples_per_second: tuples_in as f64 / elapsed.as_secs_f64(),
        bytes_per_second: ingested_bytes as f64 / elapsed.as_secs_f64(),
        avg_latency: stats.avg_latency(),
        tuples_out: stats.tuples_out,
        gpu_share: stats.gpu_share(),
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic;
    use saber_engine::ExecutionMode;
    use saber_gpu::device::DeviceConfig;
    use saber_query::Expr;
    use saber_query::QueryBuilder;

    #[test]
    fn benchmark_helper_measures_a_small_run() {
        let schema = synthetic::schema();
        let data = synthetic::generate(&schema, 32 * 1024, 3);
        let q = QueryBuilder::new("sel", schema)
            .count_window(1024, 1024)
            .select(Expr::column(1).lt(Expr::literal(0.5)))
            .build()
            .unwrap();
        let config = EngineConfig {
            worker_threads: 2,
            query_task_size: 64 * 1024,
            execution_mode: ExecutionMode::CpuOnly,
            device: DeviceConfig::unpaced(),
            ..Default::default()
        };
        let m = run_query_benchmark(
            "test",
            config,
            q,
            &data,
            8 * 1024,
            Duration::from_millis(200),
        )
        .unwrap();
        assert!(m.tuples_per_second > 0.0);
        assert!(m.gb_per_second() > 0.0);
        assert!(m.tuples_out > 0);
        assert!(!m.row().is_empty());
    }
}
