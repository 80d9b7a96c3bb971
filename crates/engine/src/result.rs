//! The result stage (paper §4.3): reordering task results and assembling
//! window results.
//!
//! Tasks complete out of order because they run in parallel on heterogeneous
//! processors. The result stage restores the order defined by the query task
//! identifiers, assembles window results from window-fragment results (via
//! the plan's [`AggregationAssembler`]) and appends the ordered output to
//! the [`QuerySink`] of every member query of the physical plan (see
//! `crate::sharing`). Worker threads call [`ResultStage::submit`]
//! directly after executing a task — the same thread that executed the task
//! performs whatever assembly work has become possible, as in the paper's
//! worker-thread model.

use crate::metrics::QueryStats;
use crate::sink::QuerySink;
use crate::task::TaskStamps;
use parking_lot::Mutex;
use saber_cpu::plan::CompiledPlan;
use saber_cpu::{AggregationAssembler, TaskOutput};
use saber_obs::{FlightRecorder, TRACE_STAGES};
use saber_types::{Result, RowBuffer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A completed task result waiting for in-order processing.
struct PendingResult {
    output: TaskOutput,
    stamps: TaskStamps,
}

fn nanos_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

struct Ordered {
    /// Next per-query task sequence number to release.
    next_seq: u64,
    /// Out-of-order results parked until their turn (the paper's result
    /// buffer slots; a map keeps the implementation simple while preserving
    /// the ordering semantics).
    pending: BTreeMap<u64, PendingResult>,
    /// Assembly state for aggregation queries.
    assembler: Option<AggregationAssembler>,
    /// Scratch output buffer reused across submissions.
    scratch: RowBuffer,
    /// The plan's member queries. Guarded by the reorder lock, so a member
    /// sees a gap-free, ordered stream from its attach until its detach;
    /// its length is the plan's refcount.
    members: Vec<Member>,
}

/// One member query of the plan: where its released batches go.
struct Member {
    id: usize,
    sink: QuerySink,
    stats: Arc<QueryStats>,
}

/// Appends one released batch to every member's sink.
fn deliver(members: &[Member], rows: &RowBuffer) {
    for member in members {
        member.sink.append(rows);
        // relaxed-ok: monitoring counter, read only for stats display.
        member
            .stats
            .tuples_out
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
    }
}

/// The result stage of one physical plan.
pub struct ResultStage {
    ordered: Mutex<Ordered>,
    /// The plan's statistics block (its first member's): task counters,
    /// latency and stage histograms.
    pub(crate) stats: Arc<QueryStats>,
    completed_tasks: AtomicU64,
    /// The engine-wide flight recorder each released task traces into.
    recorder: Arc<FlightRecorder>,
    /// When off, stage histograms and traces are not fed (the end-to-end
    /// latency counters still are).
    stage_timestamps: bool,
    query_id: u64,
}

impl std::fmt::Debug for ResultStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ResultStage(plan {})", self.query_id)
    }
}

impl ResultStage {
    /// Creates the result stage of one plan, with no member queries yet.
    /// Completed tasks trace into `recorder` and the stage histograms of
    /// `stats` when `stage_timestamps` is on.
    pub fn new(
        plan: &CompiledPlan,
        stats: Arc<QueryStats>,
        recorder: Arc<FlightRecorder>,
        stage_timestamps: bool,
    ) -> Self {
        Self {
            ordered: Mutex::new(Ordered {
                next_seq: 0,
                pending: BTreeMap::new(),
                assembler: AggregationAssembler::new(plan),
                scratch: RowBuffer::new(plan.output_schema().clone()),
                members: Vec::new(),
            }),
            stats,
            completed_tasks: AtomicU64::new(0),
            recorder,
            stage_timestamps,
            query_id: plan.query_id() as u64,
        }
    }

    /// Adds member query `id`: every batch released from now on is appended
    /// to the returned sink and counted in `stats`.
    pub(crate) fn attach(&self, id: usize, stats: Arc<QueryStats>, retain: bool) -> QuerySink {
        let mut ordered = self.ordered.lock();
        let sink = QuerySink::new(ordered.scratch.schema().clone(), retain);
        ordered.members.push(Member {
            id,
            sink: sink.clone(),
            stats,
        });
        sink
    }

    /// Removes member query `id`, returning how many members remain.
    pub(crate) fn detach(&self, id: usize) -> usize {
        let mut ordered = self.ordered.lock();
        ordered.members.retain(|m| m.id != id);
        ordered.members.len()
    }

    /// Number of member queries.
    pub(crate) fn num_members(&self) -> usize {
        self.ordered.lock().members.len()
    }

    /// Number of task results fully processed (released in order).
    pub fn completed_tasks(&self) -> u64 {
        self.completed_tasks.load(Ordering::Relaxed)
    }

    /// Submits the result of task `seq` (per-query sequence number). The
    /// calling worker thread releases as many in-order results as possible.
    ///
    /// The release sequence **always advances**, even when assembling a
    /// released result fails: the failed result's output is dropped (and
    /// the first such error returned), but the entry still counts as
    /// completed and `next_seq` moves past it. Stalling instead would park
    /// every later task of the query forever — and with the drain loops of
    /// `QueryHandle::remove` / `Saber::stop` waiting on the completed
    /// count, convert one bad result into a 60 s timeout and a spurious
    /// data-loss report for the whole query.
    pub fn submit(&self, seq: u64, output: TaskOutput, stamps: TaskStamps) -> Result<()> {
        let mut ordered = self.ordered.lock();
        ordered
            .pending
            .insert(seq, PendingResult { output, stamps });

        // Release the in-order prefix.
        let mut first_error = None;
        while let Some(result) = {
            let next = ordered.next_seq;
            ordered.pending.remove(&next)
        } {
            let assembled = if self.stage_timestamps {
                Instant::now()
            } else {
                result.stamps.started
            };
            match result.output {
                TaskOutput::Rows(rows) => deliver(&ordered.members, &rows),
                TaskOutput::Fragments { panes, progress } => {
                    let Ordered {
                        ref mut assembler,
                        ref mut scratch,
                        ref members,
                        ..
                    } = *ordered;
                    if let Some(assembler) = assembler.as_mut() {
                        scratch.clear();
                        match assembler.accept(panes, progress, scratch) {
                            Ok(_emitted) => {
                                if !scratch.is_empty() {
                                    deliver(members, scratch);
                                }
                            }
                            Err(e) => {
                                if first_error.is_none() {
                                    first_error = Some(e);
                                }
                            }
                        }
                    }
                }
            }
            self.stats.record_latency(result.stamps.created.elapsed());
            if self.stage_timestamps {
                let delivered = Instant::now();
                let s = result.stamps;
                let stages: [u64; TRACE_STAGES] = [
                    nanos_between(s.ingest_ack, s.created),
                    nanos_between(s.created, s.popped),
                    nanos_between(s.popped, s.started),
                    nanos_between(s.started, assembled),
                    nanos_between(assembled, delivered),
                    nanos_between(s.ingest_ack, delivered),
                ];
                self.stats.stages.record(stages);
                self.recorder
                    .record(self.query_id, ordered.next_seq, stages);
            }
            // relaxed-ok: progress counter; removal-drain reads it via
            // completed_tasks() after flushing under the cutter lock, whose
            // release/acquire already orders the preceding completions.
            self.completed_tasks.fetch_add(1, Ordering::Relaxed);
            ordered.next_seq += 1;
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Number of results parked out of order (diagnostics).
    pub fn parked(&self) -> usize {
        self.ordered.lock().pending.len()
    }
}

#[cfg(test)]
impl ResultStage {
    /// A memberless stage, for tests that only need tasks to carry one.
    pub(crate) fn detached(plan: &CompiledPlan) -> Arc<Self> {
        Arc::new(Self::new(
            plan,
            Arc::default(),
            Arc::new(FlightRecorder::new(8)),
            false,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_query::{AggregateFunction, Expr, QueryBuilder};
    use saber_types::{DataType, Schema, Value};

    fn schema() -> saber_types::schema::SchemaRef {
        Schema::from_pairs(&[("timestamp", DataType::Timestamp), ("v", DataType::Float)])
            .unwrap()
            .into_ref()
    }

    fn rows(n: usize, start: i64) -> RowBuffer {
        let mut b = RowBuffer::new(schema());
        for i in 0..n {
            b.push_values(&[Value::Timestamp(start + i as i64), Value::Float(1.0)])
                .unwrap();
        }
        b
    }

    fn stateless_stage() -> (ResultStage, QuerySink) {
        let q = QueryBuilder::new("sel", schema())
            .count_window(4, 4)
            .select(Expr::literal(1.0))
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let stats = Arc::new(QueryStats::default());
        let stage = ResultStage::new(&plan, stats.clone(), Arc::new(FlightRecorder::new(8)), true);
        let sink = stage.attach(0, stats, true);
        (stage, sink)
    }

    #[test]
    fn in_order_results_are_released_immediately() {
        let (stage, sink) = stateless_stage();
        stage
            .submit(
                0,
                TaskOutput::Rows(rows(3, 0)),
                TaskStamps::collapsed(Instant::now()),
            )
            .unwrap();
        stage
            .submit(
                1,
                TaskOutput::Rows(rows(2, 3)),
                TaskStamps::collapsed(Instant::now()),
            )
            .unwrap();
        assert_eq!(sink.tuples_emitted(), 5);
        assert_eq!(stage.completed_tasks(), 2);
        assert_eq!(stage.parked(), 0);
    }

    #[test]
    fn out_of_order_results_wait_for_the_missing_task() {
        let (stage, sink) = stateless_stage();
        stage
            .submit(
                1,
                TaskOutput::Rows(rows(2, 4)),
                TaskStamps::collapsed(Instant::now()),
            )
            .unwrap();
        stage
            .submit(
                2,
                TaskOutput::Rows(rows(2, 8)),
                TaskStamps::collapsed(Instant::now()),
            )
            .unwrap();
        assert_eq!(sink.tuples_emitted(), 0);
        assert_eq!(stage.parked(), 2);
        // The missing task 0 arrives and releases everything in order.
        stage
            .submit(
                0,
                TaskOutput::Rows(rows(2, 0)),
                TaskStamps::collapsed(Instant::now()),
            )
            .unwrap();
        assert_eq!(sink.tuples_emitted(), 6);
        let out = sink.take_rows();
        let stamps: Vec<i64> = out.iter().map(|t| t.timestamp()).collect();
        assert_eq!(stamps, vec![0, 1, 4, 5, 8, 9]);
        assert_eq!(stage.completed_tasks(), 3);
    }

    #[test]
    fn released_results_feed_stage_histograms_and_the_flight_recorder() {
        let q = QueryBuilder::new("sel", schema())
            .count_window(4, 4)
            .select(Expr::literal(1.0))
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let stats = Arc::new(QueryStats::default());
        let recorder = Arc::new(FlightRecorder::new(8));
        let stage = ResultStage::new(&plan, stats.clone(), recorder.clone(), true);
        for seq in 0..3u64 {
            stage
                .submit(
                    seq,
                    TaskOutput::Rows(rows(2, seq as i64 * 2)),
                    TaskStamps::collapsed(Instant::now()),
                )
                .unwrap();
        }
        let snaps = stats.stages.snapshots();
        assert!(snaps.iter().all(|(_, s)| s.count() == 3));
        let traces = recorder.dump();
        assert_eq!(traces.len(), 3);
        assert_eq!(traces[0].seq, 2, "newest trace first");
        assert!(traces.iter().all(|t| t.query == plan.query_id() as u64));
    }

    #[test]
    fn stage_timestamps_off_skips_tracing_but_keeps_latency() {
        let q = QueryBuilder::new("sel", schema())
            .count_window(4, 4)
            .select(Expr::literal(1.0))
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let stats = Arc::new(QueryStats::default());
        let recorder = Arc::new(FlightRecorder::new(8));
        let stage = ResultStage::new(&plan, stats.clone(), recorder.clone(), false);
        stage
            .submit(
                0,
                TaskOutput::Rows(rows(2, 0)),
                TaskStamps::collapsed(Instant::now()),
            )
            .unwrap();
        assert!(recorder.dump().is_empty());
        assert_eq!(stats.stages.snapshots()[0].1.count(), 0);
        assert_eq!(stats.snapshot().latency_samples, 1);
    }

    #[test]
    fn aggregation_results_are_assembled_across_tasks() {
        let q = QueryBuilder::new("agg", schema())
            .count_window(8, 8)
            .aggregate(AggregateFunction::Count, 1)
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let agg = match plan.kind() {
            saber_cpu::PlanKind::Aggregation(a) => a.clone(),
            _ => unreachable!(),
        };
        let stats = Arc::new(QueryStats::default());
        let stage = ResultStage::new(&plan, stats.clone(), Arc::new(FlightRecorder::new(8)), true);
        let sink = stage.attach(0, stats.clone(), true);

        // Two tasks of 6 rows each; window 0 (rows 0..8) spans both.
        let mk = |start: u64| {
            let batch =
                saber_cpu::exec::StreamBatch::new(rows(6, start as i64), start, start as i64);
            saber_cpu::windowed::execute(&plan, &agg, &batch).unwrap()
        };
        // Submit out of order.
        stage
            .submit(1, mk(6), TaskStamps::collapsed(Instant::now()))
            .unwrap();
        assert_eq!(sink.tuples_emitted(), 0);
        stage
            .submit(0, mk(0), TaskStamps::collapsed(Instant::now()))
            .unwrap();
        assert_eq!(sink.tuples_emitted(), 1);
        let out = sink.take_rows();
        assert_eq!(out.row(0).get_i64(1), 8);
        assert!(stats.snapshot().avg_latency() > std::time::Duration::ZERO);
    }
}
