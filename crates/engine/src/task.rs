//! Query tasks (paper §3): an operator function bundled with stream batches.

use crate::result::ResultStage;
use saber_cpu::exec::StreamBatch;
use saber_cpu::plan::CompiledPlan;
use std::sync::Arc;
use std::time::Instant;

/// A data-parallel query task, runnable on either a CPU core or the
/// accelerator.
#[derive(Debug, Clone)]
pub struct QueryTask {
    /// Globally unique, monotonically increasing task identifier.
    pub id: u64,
    /// The physical plan this task belongs to (its id).
    pub query_id: usize,
    /// Per-plan sequence number (defines result order within the plan).
    pub seq: u64,
    /// The compiled operator function `f^q`.
    pub plan: Arc<CompiledPlan>,
    /// The plan's result stage: the worker that executes the task submits
    /// its output here.
    pub result: Arc<ResultStage>,
    /// One stream batch per query input.
    pub batches: Vec<StreamBatch>,
    /// When the task was created by the dispatcher (latency accounting).
    pub created: Instant,
    /// When the oldest still-undispatched byte of this task's data entered
    /// the ingest ring (stage tracing). Equals `created` when stage
    /// timestamping is disabled or nothing was pending before the cut.
    pub ingest_ack: Instant,
}

/// The pipeline timestamps of one task, threaded from the dispatcher cut
/// through the worker to the result stage, where they become the per-stage
/// latency histograms and flight-recorder traces. With stage timestamping
/// disabled every stamp equals `created`, so stage durations render as zero
/// and no extra clock reads happen on the hot path.
#[derive(Debug, Clone, Copy)]
pub struct TaskStamps {
    /// First undispatched ingest acknowledged (see [`QueryTask::ingest_ack`]).
    pub ingest_ack: Instant,
    /// Dispatcher cut the task.
    pub created: Instant,
    /// A worker popped the task from the task queue.
    pub popped: Instant,
    /// The worker began executing the task.
    pub started: Instant,
}

impl TaskStamps {
    /// Stamps that collapse every stage to zero width at `at` (used when
    /// stage timestamping is off, and by tests).
    pub fn collapsed(at: Instant) -> Self {
        Self {
            ingest_ack: at,
            created: at,
            popped: at,
            started: at,
        }
    }
}

impl QueryTask {
    /// Total payload size of the task's new rows in bytes (the paper's query
    /// task size φ is the sum of the stream batch sizes).
    pub fn size_bytes(&self) -> usize {
        self.batches.iter().map(|b| b.new_bytes()).sum()
    }

    /// Total number of new rows across the task's batches.
    pub fn rows(&self) -> usize {
        self.batches.iter().map(|b| b.new_rows()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_query::{Expr, QueryBuilder};
    use saber_types::{DataType, RowBuffer, Schema, Value};

    #[test]
    fn task_size_sums_new_bytes_of_all_batches() {
        let schema = Schema::from_pairs(&[("ts", DataType::Timestamp), ("v", DataType::Int)])
            .unwrap()
            .into_ref();
        let q = QueryBuilder::new("sel", schema.clone())
            .count_window(4, 4)
            .select(Expr::literal(1.0))
            .build()
            .unwrap();
        let plan = Arc::new(CompiledPlan::compile(&q).unwrap());
        let mut rows = RowBuffer::new(schema);
        for i in 0..10 {
            rows.push_values(&[Value::Timestamp(i), Value::Int(i as i32)])
                .unwrap();
        }
        let mut batch = StreamBatch::new(rows, 0, 0);
        batch.lookback_rows = 2;
        batch.start_index = 2;
        let task = QueryTask {
            id: 1,
            query_id: 0,
            seq: 0,
            result: ResultStage::detached(&plan),
            plan,
            batches: vec![batch],
            created: Instant::now(),
            ingest_ack: Instant::now(),
        };
        assert_eq!(task.rows(), 8);
        assert_eq!(task.size_bytes(), 8 * 12);
    }
}
