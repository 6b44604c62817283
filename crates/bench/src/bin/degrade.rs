//! Degraded-serving experiment — warm `/align` latency under injected
//! 50 ms disk stalls, with and without admission-control shedding, the
//! record behind `BENCH_10.json`.
//!
//! Two phases over in-process [`MatchServer`]s on ephemeral ports:
//!
//! * **overhead** — the fault framework's cost on the warm align path.
//!   One keep-alive client replays cached per-type aligns in alternating
//!   rounds: *disarmed* (empty failpoint table, the armed flag is a
//!   single relaxed load) versus *armed on an unrelated point*
//!   (`registry.evict=sleep(1)`, which the align path never evaluates but
//!   which forces every `worker.request`/`serve.compute` check through
//!   the full table lookup). The armed-unrelated mode does strictly more
//!   work than disarmed, so its overhead is an upper bound on the
//!   disarmed cost the ≤ 1 % bar is about. A tight `evaluate` loop also
//!   records the raw disarmed check in ns/op.
//!
//! * **stall** — three sequential servers (2 workers each) measured by a
//!   connection-per-request align client (keep-alive would pin a worker
//!   and dodge the accept queue entirely):
//!   1. *baseline* — no faults, no stall traffic;
//!   2. *unshed* — `registry.evict=sleep(50)` armed and two stall
//!      threads hammering `POST /evict` on a second, never-resident
//!      corpus. Each stall pins a worker for 50 ms, so aligns queue
//!      behind the stalled workers and the p99 absorbs the stall;
//!   3. *shed* — same storm, `shed_queue_millis` set: aligns whose
//!      queue wait blew the budget are answered `503 Retry-After`
//!      instead of being served stale, and the p99 *of the served
//!      responses* stays within a few budget-widths of baseline.
//!
//! The bars this records: shed p99 ≤ 3× the no-fault baseline p99,
//! unshed p99 > 10× it, and armed-unrelated overhead ≤ 1 % on the warm
//! align p50.
//!
//! ```text
//! cargo run --release -p wiki-bench --bin degrade \
//!     [-- --rounds N --requests N --served N --smoke --out BENCH_10.json]
//! ```
//!
//! `--smoke` shrinks every knob for CI; the checked-in `BENCH_10.json`
//! is produced with `--out BENCH_10.json`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wiki_bench::report::f2;
use wiki_bench::{flag_value, format_table, write_report};
use wiki_corpus::Language;
use wiki_serve::client::MatchClient;
use wiki_serve::protocol::{AlignRequest, CorpusRequest};
use wiki_serve::registry::{CorpusSpec, Registry};
use wiki_serve::server::{MatchServer, ServerConfig};
use wikimatch::ComputeMode;

/// Stall length injected at `registry.evict`, the "50 ms disk stall" of
/// the acceptance bar.
const STALL_MS: u64 = 50;
/// Pause between stalls on each stall thread: a ~50% duty cycle leaves
/// free windows so the shed configuration still serves (a fully
/// saturated queue would shed everything and the served p99 would be
/// vacuous).
const STALL_GAP_MS: u64 = 50;
/// Admission budget of the shed configuration. One millisecond keeps the
/// served p99 (budget + service time) inside 3× of a sub-millisecond
/// no-fault baseline.
const SHED_BUDGET_MS: u64 = 1;

/// The whole run, serialized into `reports/degrade.json` (and, via
/// `--out`, the repo-root `BENCH_10.json`).
#[derive(serde::Serialize)]
struct Report {
    bench: String,
    pr: u32,
    note: String,
    // -- overhead phase --------------------------------------------------
    overhead_rounds: usize,
    overhead_requests_per_round: usize,
    disarmed_p50_us: f64,
    armed_unrelated_p50_us: f64,
    /// `(armed_unrelated_p50 / disarmed_p50 - 1) * 100`; an upper bound
    /// on the disarmed framework cost. The bar is ≤ 1.0.
    overhead_percent: f64,
    /// One disarmed `wiki_fault::evaluate` call, nanoseconds.
    disarmed_evaluate_ns: f64,
    // -- stall phase -----------------------------------------------------
    stall_ms: u64,
    shed_budget_ms: u64,
    served_target: usize,
    baseline_p50_ms: f64,
    baseline_p99_ms: f64,
    /// p99 over every align under the stall storm with shedding off (all
    /// requests are served, however long they queued).
    unshed_p99_ms: f64,
    /// p99 over the *served* (200) aligns under the same storm with the
    /// admission budget on.
    shed_served_p99_ms: f64,
    /// 503s the shed configuration answered while collecting its served
    /// samples.
    shed_rejections: u64,
    /// `unshed_p99 / baseline_p99`; the bar is > 10.
    unshed_ratio: f64,
    /// `shed_served_p99 / baseline_p99`; the bar is ≤ 3.
    shed_ratio: f64,
}

/// Replays `requests` warm per-type aligns on one keep-alive connection,
/// returning per-request wall latencies in nanoseconds.
fn align_batch(client: &mut MatchClient, corpus: &str, requests: usize) -> Vec<u64> {
    let body = AlignRequest {
        corpus: corpus.to_string(),
        type_id: Some("film".to_string()),
    };
    let mut latencies = Vec::with_capacity(requests);
    for _ in 0..requests {
        let begin = Instant::now();
        let response = client.post("/align", &body).expect("align request");
        assert!(
            response.is_success(),
            "align failed: HTTP {}: {}",
            response.status,
            response.body
        );
        latencies.push(begin.elapsed().as_nanos() as u64);
    }
    latencies
}

/// Nearest-rank percentile of `sorted` nanoseconds, in microseconds.
fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx] as f64 / 1e3
}

/// Boots a fresh registry (tiny warmed for aligns, small registered but
/// never resident as the stall target) and a server over it.
fn boot(config: ServerConfig) -> (MatchServer, String) {
    let registry = Arc::new(Registry::new(2, ComputeMode::default()));
    registry.register(CorpusSpec::tier(Language::Pt, "tiny").expect("tiny tier exists"));
    registry.register(CorpusSpec::tier(Language::Pt, "small").expect("small tier exists"));
    registry.warm("pt-tiny").expect("warm align corpus");
    let server = MatchServer::start(registry, config).expect("bind ephemeral server");
    let addr = server.addr().to_string();
    (server, addr)
}

fn stall_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 256,
        // The shed storm answers hundreds of deliberate 503s; logging each
        // one would drown the bench output.
        log_level: wiki_obs::LogLevel::Off,
        ..ServerConfig::default()
    }
}

/// One measured align on a *fresh* connection (so the request passes
/// through the accept queue and its wait is real). Returns the wall
/// latency and the status.
fn align_once(addr: &str) -> (u64, u16) {
    let begin = Instant::now();
    let mut client = MatchClient::new(addr).expect("client connects");
    let response = client
        .post(
            "/align",
            &AlignRequest {
                corpus: "pt-tiny".to_string(),
                type_id: Some("film".to_string()),
            },
        )
        .expect("align request");
    (begin.elapsed().as_nanos() as u64, response.status)
}

/// Collects align latencies under the stall storm until `served` 200s
/// arrived; non-200 answers (sheds) are counted, not measured.
fn measure_served(addr: &str, served: usize) -> (Vec<u64>, u64) {
    let mut latencies = Vec::with_capacity(served);
    let mut rejections = 0u64;
    while latencies.len() < served {
        // Pace the attempts so the samples span many storm cycles instead
        // of burning through inside a single free window.
        std::thread::sleep(Duration::from_millis(3));
        let (nanos, status) = align_once(addr);
        match status {
            200 => latencies.push(nanos),
            503 => {
                rejections += 1;
                // Honour the spirit of the 503's Retry-After (scaled down):
                // an immediate retry would keep the queue saturated and
                // starve the very admissions being measured.
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("align answered HTTP {other} under the stall storm"),
        }
    }
    (latencies, rejections)
}

/// Spawns `threads` loops that each pin a worker for [`STALL_MS`] per
/// `POST /evict` (the armed `registry.evict=sleep(..)` failpoint fires on
/// the never-resident `pt-small`, so no align-visible state changes).
fn start_storm(
    addr: &str,
    threads: usize,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..threads)
        .map(|_| {
            let addr = addr.to_string();
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // Scope the client so the connection closes (freeing
                    // its worker) before the gap sleep, not after.
                    if let Ok(mut client) = MatchClient::new(addr.as_str()) {
                        let _ = client.post(
                            "/evict",
                            &CorpusRequest {
                                corpus: "pt-small".to_string(),
                            },
                        );
                    }
                    std::thread::sleep(Duration::from_millis(STALL_GAP_MS));
                }
            })
        })
        .collect()
}

/// Runs one stall-storm configuration to completion and tears it down.
fn storm_run(config: ServerConfig, served: usize) -> (Vec<u64>, u64) {
    let (server, addr) = boot(config);
    wiki_fault::arm(&format!("registry.evict=sleep({STALL_MS})")).expect("arm stall failpoint");
    let stop = Arc::new(AtomicBool::new(false));
    let storm = start_storm(&addr, 2, &stop);
    // Let the storm reach steady state before measuring.
    std::thread::sleep(Duration::from_millis(2 * STALL_MS));
    let (latencies, rejections) = measure_served(&addr, served);
    stop.store(true, Ordering::Relaxed);
    for handle in storm {
        let _ = handle.join();
    }
    wiki_fault::disarm_all();
    server.shutdown();
    (latencies, rejections)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rounds = 5usize;
    let mut requests = 400usize;
    let mut served = 100usize;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rounds" => {
                rounds = flag_value(&args, &mut i, "--rounds")
                    .parse()
                    .expect("--rounds takes an integer");
            }
            "--requests" => {
                requests = flag_value(&args, &mut i, "--requests")
                    .parse()
                    .expect("--requests takes an integer");
            }
            "--served" => {
                served = flag_value(&args, &mut i, "--served")
                    .parse()
                    .expect("--served takes an integer");
            }
            "--smoke" => {
                rounds = 2;
                requests = 50;
                served = 25;
            }
            "--out" => {
                out = Some(flag_value(&args, &mut i, "--out"));
            }
            other => {
                eprintln!("unknown flag {other}; see the module docs");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    assert!(
        rounds >= 1 && requests >= 1 && served >= 1,
        "need at least one measurement"
    );
    wiki_fault::disarm_all();

    // ---- Phase 1: disarmed-framework overhead on the warm align path.
    eprintln!("overhead phase: {rounds} rounds x {requests} requests per mode...");
    let (server, addr) = boot(stall_config());
    let mut client = MatchClient::new(addr.as_str()).expect("client");
    // Warm the connection, the response cache and the branch predictors
    // before anything is measured.
    align_batch(&mut client, "pt-tiny", requests.min(100));
    let mut disarmed_p50 = f64::INFINITY;
    let mut armed_p50 = f64::INFINITY;
    for round in 0..rounds {
        eprintln!("  round {}/{rounds}", round + 1);
        wiki_fault::disarm_all();
        let mut batch = align_batch(&mut client, "pt-tiny", requests);
        batch.sort_unstable();
        disarmed_p50 = disarmed_p50.min(percentile_us(&batch, 0.50));
        // An armed point the align path never reaches: every request-path
        // check now misses in the real table instead of short-circuiting
        // on the armed flag.
        wiki_fault::arm("registry.evict=sleep(1)").expect("arm unrelated point");
        let mut batch = align_batch(&mut client, "pt-tiny", requests);
        batch.sort_unstable();
        armed_p50 = armed_p50.min(percentile_us(&batch, 0.50));
        wiki_fault::disarm_all();
    }
    server.shutdown();
    let overhead_percent = (armed_p50 / disarmed_p50 - 1.0) * 100.0;

    // The raw disarmed check: a relaxed load and return.
    let evaluate_loops = 2_000_000u32;
    let begin = Instant::now();
    for _ in 0..evaluate_loops {
        std::hint::black_box(wiki_fault::evaluate(std::hint::black_box("bench.disarmed")));
    }
    let disarmed_evaluate_ns = begin.elapsed().as_nanos() as f64 / f64::from(evaluate_loops);

    // ---- Phase 2: the stall storm, baseline → unshed → shed.
    eprintln!("stall phase: baseline ({served} served aligns)...");
    let (server, addr) = boot(stall_config());
    let mut baseline: Vec<u64> = (0..served).map(|_| align_once(&addr).0).collect();
    server.shutdown();
    baseline.sort_unstable();
    let baseline_p50_ms = percentile_us(&baseline, 0.50) / 1e3;
    let baseline_p99_ms = percentile_us(&baseline, 0.99) / 1e3;

    eprintln!("stall phase: unshed storm ({STALL_MS}ms stalls, shedding off)...");
    let (mut unshed, _) = storm_run(stall_config(), served);
    unshed.sort_unstable();
    let unshed_p99_ms = percentile_us(&unshed, 0.99) / 1e3;

    eprintln!("stall phase: shed storm (admission budget {SHED_BUDGET_MS}ms)...");
    let (mut shed, shed_rejections) = storm_run(
        ServerConfig {
            shed_queue_millis: SHED_BUDGET_MS,
            ..stall_config()
        },
        served,
    );
    shed.sort_unstable();
    let shed_served_p99_ms = percentile_us(&shed, 0.99) / 1e3;

    let unshed_ratio = unshed_p99_ms / baseline_p99_ms;
    let shed_ratio = shed_served_p99_ms / baseline_p99_ms;

    let header: Vec<String> = ["configuration", "samples", "p99 ms", "vs baseline"]
        .iter()
        .map(ToString::to_string)
        .collect();
    let rows_out = vec![
        vec![
            "baseline (no faults)".to_string(),
            baseline.len().to_string(),
            f2(baseline_p99_ms),
            "1.00x".to_string(),
        ],
        vec![
            format!("{STALL_MS}ms stalls, unshed"),
            unshed.len().to_string(),
            f2(unshed_p99_ms),
            format!("{}x", f2(unshed_ratio)),
        ],
        vec![
            format!("{STALL_MS}ms stalls, shed (served only)"),
            shed.len().to_string(),
            f2(shed_served_p99_ms),
            format!("{}x", f2(shed_ratio)),
        ],
    ];
    println!("{}", format_table(&header, &rows_out));
    println!(
        "overhead (warm align p50, armed-unrelated vs disarmed): {overhead_percent:+.2}%  \
         [bar: <= 1%]"
    );
    println!("disarmed evaluate: {disarmed_evaluate_ns:.2} ns/op");
    println!(
        "shed p99 {}x baseline [bar: <= 3x], unshed p99 {}x baseline [bar: > 10x], \
         {shed_rejections} sheds while collecting {} served",
        f2(shed_ratio),
        f2(unshed_ratio),
        shed.len()
    );

    let report = Report {
        bench: "degrade".to_string(),
        pr: 10,
        note: "in-process matchd, 2 workers; overhead phase replays warm \
               keep-alive aligns alternating disarmed vs armed-on-unrelated \
               failpoint (upper bound on the disarmed cost); stall phase \
               measures connection-per-request aligns while two storm \
               threads pin workers via POST /evict with \
               registry.evict=sleep(50) armed — unshed serves everything \
               however long it queued, shed answers 503 past the admission \
               budget and the p99 is over served responses only"
            .to_string(),
        overhead_rounds: rounds,
        overhead_requests_per_round: requests,
        disarmed_p50_us: disarmed_p50,
        armed_unrelated_p50_us: armed_p50,
        overhead_percent,
        disarmed_evaluate_ns,
        stall_ms: STALL_MS,
        shed_budget_ms: SHED_BUDGET_MS,
        served_target: served,
        baseline_p50_ms,
        baseline_p99_ms,
        unshed_p99_ms,
        shed_served_p99_ms,
        shed_rejections,
        unshed_ratio,
        shed_ratio,
    };
    write_report("degrade", &report);
    if let Some(path) = out {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => std::fs::write(&path, json + "\n").expect("write --out file"),
            Err(err) => eprintln!("warning: cannot serialise report: {err}"),
        }
    }
}
