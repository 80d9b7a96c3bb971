//! End-to-end and per-layer benchmark of the SABER engine.
//!
//! ```text
//! e2e_bench --workload <cm2_hybrid|lrb1_wire_durable|lrb_fanout8_durable>
//!           --seed <n> --seconds <s> --trace <0|1>
//! e2e_bench --self-test
//! e2e_bench --workload <name> --seed <n> --trace <0|1> --setup-probe
//! ```
//!
//! Each run splits `--seconds` into three phases on fresh engines: a
//! saturated closed loop (throughput), then open loops at the workload's
//! fixed `low` and `high` rates (latency). `--trace 1` repeats the phases
//! with stage timestamps on and spans recorded, times single calls into
//! every layer, and reports per-layer metrics. `setup_s` is the median of
//! set-ups in fresh child processes started with `--setup-probe`, each of
//! which sets up once and prints its time. The last line of standard
//! output is one JSON object; see `README.md`.

mod inproc;
mod layers;
mod support;
mod wire;

use inproc::{Load, Phase};
use std::path::PathBuf;
use std::time::Duration;
use support::{median, Metric, Percentiles, Tracer};

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--self-test" => args.self_test = true,
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.self_test && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Where spans and WAL directories go: inside the working directory.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("e2e_bench")
}

/// How a run's `--seconds` is split: 40 % for the closed loops, whose
/// throughput is the noisiest figure, and 30 % for each open loop, which
/// closes over 2000 windows per phase at run_seconds 30.
#[derive(Clone, Copy)]
pub struct PhaseLen {
    pub closed: Duration,
    pub open: Duration,
}

impl PhaseLen {
    fn of(seconds: f64) -> Self {
        PhaseLen {
            closed: Duration::from_secs_f64(seconds * 0.4),
            open: Duration::from_secs_f64(seconds * 0.3),
        }
    }
}

/// The three load phases of one pass.
pub struct Pass {
    pub closed: Phase,
    pub low: Phase,
    pub high: Phase,
}

/// A workload, as `run` drives it.
pub trait Bench {
    /// One-line description of the configuration and offered rates.
    fn describe(&self) -> String;
    /// Runs the closed, low and high phases.
    fn pass(&self, len: PhaseLen, tracer: &Tracer, tag: &str) -> Result<Pass, String>;
    /// Sets up once, up to the first row that may be sent, and tears down;
    /// returns the set-up time in seconds.
    fn setup_once(&self, traced: bool, tag: &str) -> Result<f64, String>;
    /// Checks that the output check rejects a corrupted expected output.
    fn self_test(&self) -> Result<(), String>;
    /// Per-layer metrics of single timed calls (traced run only).
    fn layers(&self, tracer: &Tracer, traced: &Pass) -> Vec<Metric>;
}

/// Layers whose spans the traced run records, by span-name prefix: the
/// generator's batches, `IngestHandle::ingest`, `CpuExecutor` and the
/// assembler, `Store::append_ingest`, the wire codec and round trips, and
/// SQL compilation.
const LAYERS: [&str; 6] = ["gen", "engine", "cpu", "store", "net", "sql"];

/// End-to-end metrics of one pass and its set-up samples, plus
/// (attempted, failed, problems).
fn end_to_end(pass: &Pass, setups: &[f64]) -> (Vec<Metric>, u64, u64, Vec<String>) {
    let mut problems = Vec::new();
    let low = Percentiles::sliced(&pass.low.latency_ms, &pass.low.latency_at_s);
    let high = Percentiles::sliced(&pass.high.latency_ms, &pass.high.latency_at_s);
    for (name, p) in [("low latency", &low), ("high latency", &high)] {
        if !p.p99_resolved() {
            problems.push(format!("{name}: {} samples, p99 needs 1000", p.n));
        }
    }
    let setup = median(&mut setups.to_vec());
    let metrics = vec![
        Metric::new(
            "max_rows_per_s",
            "rows/s",
            pass.closed.rows_per_s,
            pass.closed.rows_offered,
        ),
        Metric::new("p50_ms.low", "ms", low.p50, low.n),
        Metric::new("p99_ms.low", "ms", low.p99, low.n),
        Metric::new("p50_ms.high", "ms", high.p50, high.n),
        Metric::new("p99_ms.high", "ms", high.p99, high.n),
        Metric::new(
            "cpu_ns_per_row.high",
            "ns",
            pass.high.cpu_ns_per_row,
            pass.high.rows_offered,
        ),
        Metric::new("setup_s", "s", setup, setups.len() as u64),
        Metric::new(
            "peak_rss_mb",
            "MiB",
            pass.closed.peak_rss_mib,
            pass.closed.peak_rss_runs,
        ),
    ];
    let mut attempted = 0;
    let mut failed = 0;
    for (name, phase) in [
        ("closed", &pass.closed),
        ("low", &pass.low),
        ("high", &pass.high),
    ] {
        attempted += phase.ops + phase.windows_expected;
        failed += phase.failed_ops + phase.wrong;
        problems.extend(phase.errors.iter().cloned());
        if phase.prefix_unchecked > 0 {
            problems.push(format!(
                "{name} phase: {} queries ran too briefly to reach their reference prefix",
                phase.prefix_unchecked
            ));
        }
    }
    for (name, p) in [("low", &low), ("high", &high)] {
        let slices: Vec<String> = p.slice_p99s.iter().map(|v| format!("{v:.1}")).collect();
        println!("p99 ms by delivery slice, {name}: [{}]", slices.join(", "));
    }
    (metrics, attempted, failed, problems)
}

fn print_metric(m: &Metric) {
    println!(
        "metric {:<34} {:>16.4} {:<8} n={}",
        m.name, m.value, m.unit, m.samples
    );
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn host_facts(args: &Args, bench: &dyn Bench) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    format!(
        "host nproc={nproc} avx2={avx2} SABER_FORCE_SCALAR={} rustc=\"{}\" commit={} \
         workload={} seed={} seconds={} trace={} | {}",
        env("SABER_FORCE_SCALAR"),
        env("E2E_BENCH_RUSTC"),
        env("E2E_BENCH_COMMIT"),
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        bench.describe()
    )
}

fn make_bench(args: &Args) -> Result<Box<dyn Bench>, String> {
    match args.workload.as_str() {
        "cm2_hybrid" => Ok(Box::new(workloads::cm2_hybrid(
            args.seed,
            args.setup_probe,
        )?)),
        "lrb_fanout8_durable" => Ok(Box::new(workloads::lrb_fanout8(
            args.seed,
            args.setup_probe,
        )?)),
        "lrb1_wire_durable" => Ok(Box::new(wire::Lrb1Wire::new(args.seed, args.setup_probe)?)),
        other => Err(format!("unknown workload {other}")),
    }
}

mod workloads;

fn run(args: &Args) -> Result<(), String> {
    if args.self_test {
        for name in ["cm2_hybrid", "lrb1_wire_durable", "lrb_fanout8_durable"] {
            let a = Args {
                workload: name.into(),
                seed: 1,
                seconds: 1.0,
                trace: false,
                self_test: true,
                setup_probe: false,
            };
            make_bench(&a)?.self_test()?;
            println!("self-test {name}: the output check rejects a corrupted expected output");
        }
        return Ok(());
    }
    let tag = format!("{}-{}", args.workload, std::process::id());
    if args.setup_probe {
        let setup = make_bench(args)?.setup_once(args.trace, &tag)?;
        println!("setup_s {setup}");
        return Ok(());
    }
    let setups = setup_samples(args, false)?;
    let bench = make_bench(args)?;
    println!("{}", host_facts(args, bench.as_ref()));
    let mut correct = true;
    if let Err(e) = bench.self_test() {
        println!("problem: {e}");
        correct = false;
    }
    let len = PhaseLen::of(args.seconds);
    let untraced = bench.pass(len, &Tracer::new(false), &tag)?;
    let (metrics, mut attempted, mut failed, problems) = end_to_end(&untraced, &setups);
    for p in &problems {
        println!("problem: {p}");
    }
    correct &= problems.is_empty() && failed == 0;
    println!(
        "error_rate {:.6} ({failed} failed of {attempted} operations and windows)",
        failed as f64 / attempted.max(1) as f64
    );
    for m in &metrics {
        print_metric(m);
    }
    let late = Percentiles::of(untraced.high.late_ms.clone());
    println!(
        "generator lateness at the high rate: p99 {:.4} ms over {} batches",
        late.p99, late.n
    );
    let reported = if args.trace {
        let tracer = Tracer::new(true);
        let traced = bench.pass(len, &tracer, &tag)?;
        let traced_setups = setup_samples(args, true)?;
        let (traced_metrics, t_attempted, t_failed, t_problems) =
            end_to_end(&traced, &traced_setups);
        for p in &t_problems {
            println!("problem (traced): {p}");
        }
        correct &= t_problems.is_empty() && t_failed == 0;
        attempted += t_attempted;
        failed += t_failed;
        let mut per_layer = bench.layers(&tracer, &traced);
        let late = Percentiles::of(traced.high.late_ms.clone());
        per_layer.push(Metric::new("gen.late_p99_ms.high", "ms", late.p99, late.n));
        let self_ms = tracer.self_ms_by_layer();
        for layer in LAYERS {
            let ms = self_ms.get(layer).copied().unwrap_or(0.0);
            per_layer.push(Metric::new(format!("self_ms.{layer}"), "ms", ms, 1));
        }
        for (t, u) in traced_metrics.iter().zip(&metrics) {
            per_layer.push(Metric::new(
                format!("overhead.{}", t.name),
                "%",
                (t.value - u.value) / u.value.abs().max(1e-12) * 100.0,
                t.samples,
            ));
        }
        let spans = scratch_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write(&spans) {
            Ok(n) => println!("spans {n} written to {}", spans.display()),
            Err(e) => println!("problem: writing spans: {e}"),
        }
        for m in &per_layer {
            print_metric(m);
        }
        per_layer
    } else {
        metrics
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&reported)
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("e2e_bench: {e}");
        std::process::exit(1);
    }
}

/// Runs the phases of one pass against an in-process workload: short closed
/// loops (the median one is kept, so one scheduler hiccup cannot set
/// `max_rows_per_s`), then the open loops, each on a fresh engine.
pub fn inproc_pass(
    w: &inproc::Workload,
    low: f64,
    high: f64,
    len: PhaseLen,
    tracer: &Tracer,
    tag: &str,
) -> Result<Pass, String> {
    let mut closed = Vec::new();
    for i in 0..CLOSED_RUNS {
        let phase = w.run_phase(
            Load::Closed,
            len.closed / CLOSED_RUNS,
            tracer,
            &format!("{tag}-closed{i}"),
        )?;
        closed.push(phase);
    }
    let closed = median_phase(closed);
    let low = w.run_phase(Load::Open(low), len.open, tracer, &format!("{tag}-low"))?;
    let high = w.run_phase(Load::Open(high), len.open, tracer, &format!("{tag}-high"))?;
    Ok(Pass { closed, low, high })
}

/// Closed-loop runs per pass; the median run's throughput is reported.
const CLOSED_RUNS: u32 = 5;
/// Set-up probe processes per `setup_s` figure.
const SETUP_PROBES: usize = 15;

/// Times `SETUP_PROBES` set-ups, each in a fresh process of this binary run
/// with `--setup-probe`, so every sample starts from the same cold state: a
/// process that sets up repeatedly reuses freed heap and reads lower and
/// lower. Process start and input generation are outside the timed span.
fn setup_samples(args: &Args, traced: bool) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--trace", if traced { "1" } else { "0" }, "--setup-probe"])
            .stdin(std::process::Stdio::null())
            .output()
            .map_err(|e| format!("setup probe: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let value = stdout
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.parse::<f64>().ok());
        match value {
            Some(v) if out.status.success() => samples.push(v),
            _ => {
                return Err(format!(
                    "setup probe failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                ))
            }
        }
    }
    Ok(samples)
}

/// The run with the median throughput, carrying every run's operation
/// counts and problems and the median of their peak RSS.
fn median_phase(mut runs: Vec<Phase>) -> Phase {
    let mut peaks: Vec<f64> = runs.iter().map(|r| r.peak_rss_mib).collect();
    let peak_rss_mib = median(&mut peaks);
    runs.sort_by(|a, b| a.rows_per_s.total_cmp(&b.rows_per_s));
    let mut kept = runs.remove(runs.len() / 2);
    for other in runs {
        kept.ops += other.ops;
        kept.failed_ops += other.failed_ops;
        kept.windows_expected += other.windows_expected;
        kept.windows_delivered += other.windows_delivered;
        kept.wrong += other.wrong;
        kept.prefix_unchecked += other.prefix_unchecked;
        kept.errors.extend(other.errors);
    }
    kept.peak_rss_mib = peak_rss_mib;
    kept.peak_rss_runs = peaks.len() as u64;
    kept
}
