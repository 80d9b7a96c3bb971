//! Shared machinery: statistics, process counters, the open-loop clock,
//! seeded input replay, span recording and result comparison.

use saber_types::schema::SchemaRef;
use saber_types::RowBuffer;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Number of samples behind the value (1 for a single measurement).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: u64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// Base rows a workload generates in a set-up probe process, which only
/// sets up once and never sends a row.
pub const PROBE_ROWS: usize = 2_000;

/// Nearest-rank quantile of an ascending slice (0 for an empty slice).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns their median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// p50 and p99 of a latency sample, plus whether p99 has at least ten
/// samples beyond it (the sample must hold at least 1000 values).
pub struct Percentiles {
    pub n: u64,
    pub p50: f64,
    pub p99: f64,
    /// p99 of each delivery-order slice (`sliced` only), in slice order.
    pub slice_p99s: Vec<f64>,
}

impl Percentiles {
    pub fn of(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Percentiles {
            n: values.len() as u64,
            p50: quantile(&values, 0.50),
            p99: quantile(&values, 0.99),
            slice_p99s: Vec::new(),
        }
    }

    /// Latency percentiles of one phase: p50 over every sample, and p99 as
    /// the median of the p99s of consecutive slices of the samples in
    /// delivery order, each slice of at least `SLICE_SAMPLES`. One host
    /// stall then moves the p99 of one slice, not the reported figure.
    /// `at_s` holds each sample's delivery time.
    pub fn sliced(ms: &[f64], at_s: &[f64]) -> Self {
        let mut order: Vec<usize> = (0..ms.len()).collect();
        order.sort_by(|&a, &b| at_s[a].total_cmp(&at_s[b]));
        let slices = (ms.len() / SLICE_SAMPLES).max(1);
        let slice_p99s: Vec<f64> = (0..slices)
            .map(|i| {
                let range = i * ms.len() / slices..(i + 1) * ms.len() / slices;
                let mut slice: Vec<f64> = order[range].iter().map(|&j| ms[j]).collect();
                slice.sort_by(f64::total_cmp);
                quantile(&slice, 0.99)
            })
            .collect();
        let mut sorted = slice_p99s.clone();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        let p99 = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        };
        Percentiles {
            p99,
            slice_p99s,
            ..Percentiles::of(ms.to_vec())
        }
    }

    /// True when at least ten samples lie beyond the p99.
    pub fn p99_resolved(&self) -> bool {
        self.n >= SLICE_SAMPLES as u64
    }
}

/// Least samples in one latency slice: ten lie beyond its p99.
pub const SLICE_SAMPLES: usize = 1000;

/// User plus system CPU time of this process, in seconds.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line, in clock ticks (USER_HZ=100).
    let tail = stat.rsplit_once(')').map(|(_, t)| t).unwrap_or("");
    let fields: Vec<&str> = tail.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Returns freed heap pages to the OS (glibc `malloc_trim`) and resets this
/// process's peak resident set size (`VmHWM`) to its current RSS, so that
/// `peak_rss_mib` then reads the peak of what runs after this call rather
/// than memory kept from earlier engines.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes no pointer and only releases free
        // pages of the allocator's own heaps.
        unsafe {
            malloc_trim(0);
        }
    }
    // Writing 5 to clear_refs resets VmHWM (Linux 4.0 and later).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// A fixed-rate schedule: batch `k` is due at `start + k * interval`.
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
}

impl OpenLoop {
    pub fn new(rows_per_s: f64, batch_rows: usize) -> Self {
        OpenLoop {
            start: Instant::now(),
            interval: Duration::from_secs_f64(batch_rows as f64 / rows_per_s),
        }
    }

    pub fn due(&self, k: u64) -> Instant {
        self.start + self.interval.mul_f64(k as f64)
    }

    /// Sleeps until batch `k` is due and returns how late the caller is
    /// then, in milliseconds. It sleeps rather than spins, so the
    /// generator's CPU time stays out of `cpu_ns_per_row`.
    pub fn wait(&self, k: u64) -> f64 {
        let due = self.due(k);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3
    }
}

/// Replays a generated base buffer forever, shifting timestamps by one
/// base span per pass so event time keeps increasing across passes.
pub struct Replay {
    base: RowBuffer,
    row_size: usize,
    ts_offset: usize,
    span: i64,
}

impl Replay {
    /// `span` is the event-time length of one pass: row `i` of pass `p`
    /// carries timestamp `base[i] + p * span`.
    pub fn new(base: RowBuffer, span: i64) -> Self {
        assert!(
            span > 0 && !base.is_empty(),
            "replay needs rows and a positive span"
        );
        let schema = base.schema().clone();
        let ts_offset = schema.offset(schema.timestamp_index());
        Replay {
            row_size: schema.row_size(),
            base,
            ts_offset,
            span,
        }
    }

    pub fn schema(&self) -> &SchemaRef {
        self.base.schema()
    }

    pub fn base(&self) -> &RowBuffer {
        &self.base
    }

    pub fn row_size(&self) -> usize {
        self.row_size
    }

    fn base_rows(&self) -> u64 {
        self.base.len() as u64
    }

    fn pass_shift(&self, global: u64) -> i64 {
        (global / self.base_rows()) as i64 * self.span
    }

    /// Timestamp of global row `g`.
    pub fn ts(&self, g: u64) -> i64 {
        let i = (g % self.base_rows()) as usize;
        self.base.row(i).timestamp() + self.pass_shift(g)
    }

    /// Writes global rows `[g, g + n)` into `out` (replacing its contents).
    pub fn fill(&self, g: u64, n: usize, out: &mut Vec<u8>) {
        out.clear();
        let mut next = g;
        let end = g + n as u64;
        while next < end {
            let i = (next % self.base_rows()) as usize;
            let take = ((self.base_rows() - i as u64).min(end - next)) as usize;
            let shift = self.pass_shift(next);
            let from = out.len();
            out.extend_from_slice(
                &self.base.bytes()[i * self.row_size..(i + take) * self.row_size],
            );
            if shift != 0 {
                for row in out[from..].chunks_exact_mut(self.row_size) {
                    let field = &mut row[self.ts_offset..self.ts_offset + 8];
                    let ts = i64::from_le_bytes(field.try_into().expect("8-byte timestamp"));
                    field.copy_from_slice(&(ts + shift).to_le_bytes());
                }
            }
            next += take as u64;
        }
    }

    /// Number of global rows whose timestamp is below `ts` (timestamps are
    /// non-decreasing in `g`).
    pub fn rows_before(&self, ts: i64) -> u64 {
        // Every row of pass `ts / span + 1` is at or past `ts`.
        let passes = (ts / self.span).max(0) as u64 + 2;
        let (mut lo, mut hi) = (0u64, passes * self.base_rows());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.ts(mid) < ts {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// A recorded span: one timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Input batch the span belongs to (`u64::MAX` for none).
    pub batch: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Marks "no batch" / "no parent" in spans.
pub const NONE: u64 = u64::MAX;

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Allocates a span id ahead of recording, so children can name it.
    pub fn id(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        // relaxed-ok: id allocation needs uniqueness only.
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn record(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        batch: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            name,
            batch,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span store lock").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock").clone()
    }

    /// Self time per layer (the span name's prefix before the first `.`),
    /// in milliseconds: each span's duration minus the part of it that its
    /// children cover.
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if s.parent != NONE {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let opt = |v: u64| {
                if v == NONE {
                    "null".to_string()
                } else {
                    v.to_string()
                }
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"batch\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                opt(s.parent),
                s.name,
                opt(s.batch),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// Compares delivered windows against reference windows. Rows are grouped
/// by window start (column 0) and, within a window, compared as sorted
/// numeric tuples: integer columns exactly, float columns to a relative
/// tolerance of 1e-4 (incremental and from-scratch averages round
/// differently). Returns a description of the first mismatch.
pub fn compare_windows(actual: &RowBuffer, expected: &RowBuffer) -> Result<(), String> {
    let group = |buf: &RowBuffer| {
        let mut windows: BTreeMap<i64, Vec<Vec<f64>>> = BTreeMap::new();
        for row in buf.iter() {
            let values = (0..buf.schema().len())
                .map(|c| row.get_numeric(c))
                .collect();
            windows.entry(row.timestamp()).or_default().push(values);
        }
        for rows in windows.values_mut() {
            rows.sort_by(|a, b| {
                a.iter()
                    .zip(b)
                    .map(|(x, y)| x.total_cmp(y))
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        windows
    };
    let float_cols: Vec<bool> = expected
        .schema()
        .attributes()
        .iter()
        .map(|a| {
            matches!(
                a.data_type(),
                saber_types::DataType::Float | saber_types::DataType::Double
            )
        })
        .collect();
    let (got, want) = (group(actual), group(expected));
    if got.len() != want.len() {
        return Err(format!(
            "{} windows delivered, {} expected",
            got.len(),
            want.len()
        ));
    }
    for ((ts_got, rows_got), (ts_want, rows_want)) in got.iter().zip(&want) {
        if ts_got != ts_want {
            return Err(format!(
                "window {ts_got} delivered where {ts_want} was expected"
            ));
        }
        if rows_got.len() != rows_want.len() {
            return Err(format!(
                "window {ts_want}: {} rows delivered, {} expected",
                rows_got.len(),
                rows_want.len()
            ));
        }
        for (g, w) in rows_got.iter().zip(rows_want) {
            for (c, (x, y)) in g.iter().zip(w).enumerate() {
                let ok = if float_cols[c] {
                    (x - y).abs() <= 1e-4 * y.abs().max(1.0)
                } else {
                    x == y
                };
                if !ok {
                    return Err(format!("window {ts_want}: column {c} is {x}, expected {y}"));
                }
            }
        }
    }
    Ok(())
}

/// Flips one value of the last row of `expected` and checks that
/// [`compare_windows`] rejects the result: the comparison must be able to
/// fail. Returns an error if the corrupted copy is accepted.
pub fn check_detects_corruption(expected: &RowBuffer) -> Result<(), String> {
    if expected.is_empty() {
        return Err("no reference rows to corrupt".into());
    }
    let schema = expected.schema().clone();
    let mut corrupted = expected.clone();
    let last = corrupted.len() - 1;
    let col = schema.len() - 1;
    let offset = last * schema.row_size() + schema.offset(col);
    let width = schema.attribute(col).data_type().size();
    // Invert every bit of the last column of the last row.
    for b in &mut corrupted.bytes_mut()[offset..offset + width] {
        *b = !*b;
    }
    match compare_windows(&corrupted, expected) {
        Err(_) => Ok(()),
        Ok(()) => Err("the output check accepted a corrupted expected output".into()),
    }
}
