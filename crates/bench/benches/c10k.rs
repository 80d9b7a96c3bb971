//! C10k: sustained concurrent connections on the readiness-based server
//! core.
//!
//! The text-protocol server of earlier revisions spent one OS thread per
//! connection; `saber_net` replaces that with a single epoll event loop plus
//! a small dispatch pool, so the connection count is bounded by file
//! descriptors, not thread stacks. This harness holds **N idle binary
//! subscribers** open (the paper's many-dashboards shape: most clients sit
//! in a quiet subscription) while **M hot producers** ingest rows as fast as
//! their acks return, and reports:
//!
//! * the connection count actually established and the time to open it,
//! * hot-path ack latency percentiles (`INSERT` → `OK`) under that load,
//! * `PING` round-trip percentiles from a probe connection — the frame
//!   latency an interactive client sees while N+M connections are live, and
//! * end-of-stream fan-out: on `DROP QUERY`, *every* idle subscriber must
//!   receive its `END` frame (the proof that all N connections were alive,
//!   registered and writable the whole time, not merely open sockets).
//!
//! Defaults: N=10,000 subscribers, M=4 producers (`SABER_C10K_CONNS`,
//! `SABER_C10K_PRODUCERS`). The server and the hot path run in this
//! process; the idle crowd's client ends live in re-exec'd worker
//! subprocesses (~2,500 connections each), so a per-process
//! `RLIMIT_NOFILE` caps neither side. Both parent and workers still call
//! `raise_nofile_limit` for their own share.
//!
//! **Small-host caveat**: on a host with one or two cores (`nproc`) the
//! event loop, dispatch pool, engine workers and all client threads
//! time-slice those CPUs, so latency percentiles are dominated by
//! scheduler quanta and the absolute numbers are not meaningful — only
//! gross regressions (or failure to hold N connections at all) are. Run
//! on a machine with more cores than busy threads for representative
//! latency figures.

use saber_bench::{fmt, measure_duration, Report};
use saber_engine::{EngineConfig, ExecutionMode};
use saber_net::os::raise_nofile_limit;
use saber_net::wire::Frame;
use saber_net::BinaryClient;
use saber_server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Percentile over a sorted sample, in milliseconds.
fn pct_ms(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx].as_secs_f64() * 1e3
}

/// A minimal blocking text-protocol connection (admin + probe traffic).
struct Text {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Text {
    fn connect(addr: SocketAddr) -> Text {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Text { stream, reader }
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        line.trim_end().to_string()
    }

    fn send(&mut self, line: &str) -> String {
        writeln!(self.stream, "{line}").expect("write");
        self.read_line()
    }
}

fn subscribe(addr: SocketAddr, query: u32) -> BinaryClient {
    let mut client = BinaryClient::connect(addr).expect("binary connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client.send(&Frame::Subscribe { query }).unwrap();
    match client.recv_skip_nops().expect("subscribe ack") {
        Frame::Ok { .. } => client,
        other => panic!("subscribe rejected: {other:?}"),
    }
}

/// Re-exec'd client-worker mode: hold a slice of the idle crowd in a child
/// process so its socket fds count against the child's `RLIMIT_NOFILE`, not
/// the server's. Prints `READY <n>` once its connections are subscribed,
/// then blocks until each receives `END` and prints `ENDED <n>`.
fn worker(addr: SocketAddr, mut count: usize) -> ! {
    match raise_nofile_limit((count + 64) as u64) {
        Ok(limit) => count = count.min((limit as usize).saturating_sub(64)),
        Err(err) => eprintln!("[worker: raise_nofile_limit failed ({err})]"),
    }
    let mut subs: Vec<BinaryClient> = (0..count).map(|_| subscribe(addr, 1)).collect();
    for sub in &subs {
        // The parent's hot phase runs between READY and the drop; keep the
        // END wait generous.
        sub.set_read_timeout(Some(Duration::from_secs(120))).ok();
    }
    println!("READY {count}");
    let mut ended = 0usize;
    for sub in &mut subs {
        loop {
            match sub.recv_skip_nops().expect("END fan-out") {
                Frame::End => break,
                Frame::Data { .. } => {} // late window ahead of the END
                other => panic!("expected END, got {other:?}"),
            }
        }
        ended += 1;
    }
    println!("ENDED {ended}");
    std::process::exit(0)
}

/// Connections held per worker process: far below any sane fd limit, large
/// enough that 10k connections need only a few processes.
const CONNS_PER_WORKER: usize = 2_500;

fn main() {
    if let Ok(addr) = std::env::var("SABER_C10K_WORKER_ADDR") {
        let addr: SocketAddr = addr.parse().expect("worker addr");
        worker(addr, env_usize("SABER_C10K_WORKER_CONNS", 0));
    }

    let conns = env_usize("SABER_C10K_CONNS", 10_000);
    let producers = env_usize("SABER_C10K_PRODUCERS", 4);

    // The server holds one fd per subscriber (the client ends live in the
    // worker processes), plus listeners, producers and the engine's files.
    if let Err(err) = raise_nofile_limit((conns + producers + 1024) as u64) {
        println!("[raise_nofile_limit failed ({err}); keeping the current limit]");
    }

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            engine: EngineConfig {
                worker_threads: 2,
                query_task_size: 64 * 1024,
                execution_mode: ExecutionMode::CpuOnly,
                ..EngineConfig::default()
            },
            // Long keepalive: the measurement window is seconds, and NOP
            // traffic to N quiet subscribers would only add noise here.
            keepalive_interval: Duration::from_secs(120),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut admin = Text::connect(addr);
    admin.send("CREATE STREAM S (timestamp TIMESTAMP, v FLOAT)");
    // Query 0 takes the hot producer traffic; query 1 stays idle and is
    // what the N subscribers watch (their only frame is the final END).
    // Distinct window sizes keep the fingerprints distinct — identical SQL
    // would share one physical plan and leak producer rows to the crowd.
    assert_eq!(
        admin.send("QUERY SELECT * FROM S [ROWS 1024]"),
        "OK query 0"
    );
    assert_eq!(admin.send("QUERY SELECT * FROM S [ROWS 512]"), "OK query 1");

    // Phase 1: open the idle crowd in worker subprocesses (re-execs of this
    // bench, see `worker`). Each child owns the client end of its slice, so
    // a per-process fd cap limits neither side, and the children open their
    // slices concurrently.
    let exe = std::env::current_exe().expect("current_exe");
    let workers = conns.div_ceil(CONNS_PER_WORKER).max(1);
    let opened_at = Instant::now();
    let mut children = Vec::new();
    for w in 0..workers {
        let share = conns / workers + usize::from(w < conns % workers);
        let child = std::process::Command::new(&exe)
            .env("SABER_C10K_WORKER_ADDR", addr.to_string())
            .env("SABER_C10K_WORKER_CONNS", share.to_string())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn worker");
        children.push(child);
    }
    let mut readers: Vec<BufReader<std::process::ChildStdout>> = children
        .iter_mut()
        .map(|c| BufReader::new(c.stdout.take().expect("worker stdout")))
        .collect();
    let mut established = 0usize;
    for reader in &mut readers {
        let mut line = String::new();
        reader.read_line(&mut line).expect("worker READY");
        let n: usize = line
            .trim()
            .strip_prefix("READY ")
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unexpected worker line `{}`", line.trim()));
        established += n;
    }
    let open_secs = opened_at.elapsed().as_secs_f64();
    if established < conns {
        println!("[workers established {established} of {conns} requested connections]");
    }

    // Phase 2: hot producers hammer query 0 while a probe connection
    // measures interactive round-trips. 64 rows of 12 bytes per INSERT.
    let stop = Arc::new(AtomicBool::new(false));
    let run_for = measure_duration().max(Duration::from_secs(1));
    let hot = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for producer in 0..producers {
            let stop = stop.clone();
            handles.push(scope.spawn(move || {
                let mut client = BinaryClient::connect(addr).expect("producer connect");
                let mut rows = Vec::new();
                for i in 0..64i64 {
                    rows.extend_from_slice(&(producer as i64 * 64 + i).to_le_bytes());
                    rows.extend_from_slice(&(i as f32).to_le_bytes());
                }
                let mut latencies = Vec::new();
                let mut acked_rows = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let sent = Instant::now();
                    client
                        .send(&Frame::Insert {
                            query: 0,
                            stream: 0,
                            rows: rows.clone(),
                        })
                        .unwrap();
                    match client.recv_skip_nops().expect("insert ack") {
                        Frame::Ok { .. } => acked_rows += 64,
                        other => panic!("insert rejected: {other:?}"),
                    }
                    latencies.push(sent.elapsed());
                }
                (latencies, acked_rows)
            }));
        }

        let probe = scope.spawn({
            let stop = stop.clone();
            move || {
                let mut probe = Text::connect(addr);
                let mut latencies = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let sent = Instant::now();
                    assert_eq!(probe.send("PING"), "PONG");
                    latencies.push(sent.elapsed());
                    std::thread::sleep(Duration::from_millis(5));
                }
                latencies
            }
        });

        std::thread::sleep(run_for);
        stop.store(true, Ordering::Relaxed);
        let mut inserts = Vec::new();
        let mut total_rows = 0u64;
        for handle in handles {
            let (latencies, acked) = handle.join().expect("producer thread");
            inserts.extend(latencies);
            total_rows += acked;
        }
        (inserts, total_rows, probe.join().expect("probe thread"))
    });
    let (mut insert_lat, total_rows, mut ping_lat) = hot;
    insert_lat.sort();
    ping_lat.sort();
    let rows_per_sec = total_rows as f64 / run_for.as_secs_f64();

    // Phase 3: drop the idle query — every one of the N subscribers must
    // receive its END frame. A subscriber that lost its registration, its
    // socket or its place in the write scheduler fails this count.
    assert_eq!(admin.send("DROP QUERY 1"), "OK dropped 1");
    let mut ended = 0usize;
    for (reader, mut child) in readers.into_iter().zip(children) {
        let mut reader = reader;
        let mut line = String::new();
        reader.read_line(&mut line).expect("worker ENDED");
        let n: usize = line
            .trim()
            .strip_prefix("ENDED ")
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unexpected worker line `{}`", line.trim()));
        ended += n;
        assert!(child.wait().expect("worker exit").success());
    }

    let mut report = Report::new(
        "c10k",
        "C10k: idle subscriber crowd + hot producers on the epoll core",
        &[
            "conns",
            "open_s",
            "producers",
            "rows_per_s",
            "insert_p50_ms",
            "insert_p99_ms",
            "ping_p50_ms",
            "ping_p99_ms",
            "ends_received",
        ],
    );
    report.add_row(vec![
        established.to_string(),
        fmt(open_secs),
        producers.to_string(),
        fmt(rows_per_sec),
        fmt(pct_ms(&insert_lat, 0.50)),
        fmt(pct_ms(&insert_lat, 0.99)),
        fmt(pct_ms(&ping_lat, 0.50)),
        fmt(pct_ms(&ping_lat, 0.99)),
        ended.to_string(),
    ]);
    report.finish();

    assert_eq!(ended, established, "some subscribers never saw END");
    server.shutdown().expect("clean shutdown");
}
