//! Worker threads (paper §4): the execution stage.
//!
//! Every worker handles the complete lifecycle of the query tasks it picks:
//! it invokes the scheduling stage to obtain a task for its processor,
//! executes the task (CPU workers through `saber_cpu::CpuExecutor`, the
//! accelerator worker through the five-stage pipeline of `saber_gpu`),
//! records the observed throughput in the matrix, and enters the result stage
//! to reorder and assemble results.

use crate::flow::FlowControl;
use crate::queue::TaskQueue;
use crate::result::ResultStage;
use crate::scheduler::{Processor, Scheduler};
use crate::task::{QueryTask, TaskStamps};
use crate::throughput::ThroughputMatrix;
use saber_cpu::{CpuExecutor, TaskOutput};
use saber_gpu::pipeline::{GpuPipeline, PipelineJob, PipelineResult};
use saber_gpu::GpuDevice;
use saber_types::RowBuffer;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a worker thread needs.
pub struct WorkerContext {
    /// The system-wide task queue.
    pub queue: Arc<TaskQueue>,
    /// The scheduling stage.
    pub scheduler: Arc<Scheduler>,
    /// The observed throughput matrix.
    pub matrix: Arc<ThroughputMatrix>,
    /// Admission-control gate: every finished task returns its credit here,
    /// waking producers blocked on backpressure.
    pub flow: Arc<FlowControl>,
    /// Stage tracing switch: when off, queue-pop stamps collapse to the cut
    /// instant and no extra clock reads happen per task.
    pub stage_timestamps: bool,
}

impl WorkerContext {
    /// Hands a task's output to its plan's result stage and returns the
    /// task's credit.
    fn finish(
        &self,
        result: &ResultStage,
        seq: u64,
        stamps: TaskStamps,
        output: TaskOutput,
        processor: Processor,
    ) {
        result.stats.record_task(processor);
        // A result-stage error is unrecoverable for the affected window, but
        // the stage keeps its release sequence advancing internally, so
        // later tasks (and the removal/stop drain loops) are not blocked.
        let _ = result.submit(seq, output, stamps);
        self.flow.release();
    }
}

/// The CPU worker loop: one instance runs per CPU worker thread.
pub fn run_cpu_worker(ctx: WorkerContext) {
    let executor = CpuExecutor::new();
    loop {
        match ctx
            .scheduler
            .next_task(&ctx.queue, Processor::Cpu, Duration::from_millis(20))
        {
            Some(task) => {
                let QueryTask {
                    query_id,
                    seq,
                    plan,
                    result,
                    batches,
                    created,
                    ingest_ack,
                    ..
                } = task;
                let popped = if ctx.stage_timestamps {
                    Instant::now()
                } else {
                    created
                };
                let started = Instant::now();
                let output = executor.execute(&plan, &batches).unwrap_or_else(|_| {
                    TaskOutput::Rows(RowBuffer::new(plan.output_schema().clone()))
                });
                ctx.matrix
                    .record(query_id, Processor::Cpu, started.elapsed());
                let stamps = TaskStamps {
                    ingest_ack,
                    created,
                    popped,
                    started,
                };
                ctx.finish(&result, seq, stamps, output, Processor::Cpu);
            }
            None => {
                if ctx.queue.is_shutdown() && ctx.queue.is_empty() {
                    break;
                }
            }
        }
    }
}

struct InFlightTask {
    query_id: usize,
    seq: u64,
    result: Arc<ResultStage>,
    stamps: TaskStamps,
    submitted: Instant,
}

/// Records one pipeline completion in the matrix and finishes its task (a
/// failed pipeline stage finishes it with an empty result).
fn complete(
    ctx: &WorkerContext,
    in_flight: &mut HashMap<u64, InFlightTask>,
    completion: PipelineResult,
) {
    let Some(meta) = in_flight.remove(&completion.task_id) else {
        return;
    };
    ctx.matrix
        .record(meta.query_id, Processor::Gpu, meta.submitted.elapsed());
    let output = completion.output.unwrap_or_else(|_| {
        TaskOutput::Rows(RowBuffer::new(completion.plan.output_schema().clone()))
    });
    ctx.finish(&meta.result, meta.seq, meta.stamps, output, Processor::Gpu);
}

/// The accelerator worker loop: drives the device through the five-stage
/// pipeline with up to `depth` tasks in flight, so data movement overlaps
/// kernel execution (depth 1 runs one task at a time, without overlap).
pub fn run_gpu_worker(ctx: WorkerContext, device: Arc<GpuDevice>, depth: usize) {
    let depth = depth.max(1);
    let pipeline = GpuPipeline::new(device, 1);
    let completions = pipeline.completions();
    let mut in_flight: HashMap<u64, InFlightTask> = HashMap::new();
    loop {
        // Fill the pipeline up to the configured depth.
        while in_flight.len() < depth {
            let timeout = if in_flight.is_empty() {
                Duration::from_millis(20)
            } else {
                Duration::from_millis(1)
            };
            let Some(task) = ctx.scheduler.next_task(&ctx.queue, Processor::Gpu, timeout) else {
                break;
            };
            let submitted = Instant::now();
            let stamps = TaskStamps {
                ingest_ack: task.ingest_ack,
                created: task.created,
                popped: if ctx.stage_timestamps {
                    submitted
                } else {
                    task.created
                },
                started: submitted,
            };
            let job = PipelineJob {
                task_id: task.id,
                plan: task.plan.clone(),
                batches: task.batches,
            };
            if pipeline.submit(job).is_err() {
                // Pipeline shut down unexpectedly: finish the task with an
                // empty result so the plan's sequence (and any drain
                // waiting on it) keeps moving.
                let output = TaskOutput::Rows(RowBuffer::new(task.plan.output_schema().clone()));
                ctx.finish(&task.result, task.seq, stamps, output, Processor::Gpu);
                continue;
            }
            in_flight.insert(
                task.id,
                InFlightTask {
                    query_id: task.query_id,
                    seq: task.seq,
                    result: task.result,
                    stamps,
                    submitted,
                },
            );
        }

        // Drain completions; wait briefly for the next one instead of
        // spinning when none is ready yet.
        let mut drained = false;
        while let Ok(completion) = completions.try_recv() {
            drained = true;
            complete(&ctx, &mut in_flight, completion);
        }
        if !drained && !in_flight.is_empty() {
            if let Ok(completion) = completions.recv_timeout(Duration::from_millis(5)) {
                complete(&ctx, &mut in_flight, completion);
            }
        }

        if ctx.queue.is_shutdown() && ctx.queue.is_empty() && in_flight.is_empty() {
            break;
        }
    }
}
