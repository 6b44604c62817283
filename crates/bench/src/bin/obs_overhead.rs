//! Observability-overhead experiment — warm-path `/align` latency with
//! the obs layer recording versus globally disabled, the record behind
//! `BENCH_8.json`.
//!
//! A [`MatchServer`] is booted in-process on an ephemeral port, the probe
//! corpus is warmed, and one keep-alive client replays per-type align
//! requests (the cached steady-state path) in alternating rounds:
//!
//! * **enabled** — the default: spans record into `wm_phase_seconds`,
//!   requests into `wm_request_seconds`, the access log evaluates its
//!   gate;
//! * **disabled** — `wiki_obs::set_enabled(false)`: spans are inert,
//!   histograms and logs skip, only the plain counters still count.
//!
//! The headline `overhead_percent` compares the best (minimum) per-round
//! client-side p50 of the two modes — best-of and median for the same
//! reason the other recording binaries use best-of wall times: the
//! quantity of interest is the cost of the instrumentation, not of
//! scheduler noise drifting across a multi-second run. The enabled
//! rounds are
//! additionally bracketed by `/metrics` scrapes, so the report carries
//! the server-side `wm_request_seconds{endpoint="align"}` p50/p99 bucket
//! bounds the same way `matchbench` prints them.
//!
//! ```text
//! cargo run --release -p wiki-bench --bin obs_overhead \
//!     [-- --tier medium --rounds N --requests N --smoke --out BENCH_8.json]
//! ```
//!
//! `--smoke` (tiny, 2 rounds × 50 requests) is the CI guard that keeps
//! this binary from rotting; the checked-in `BENCH_8.json` is produced
//! with `--out BENCH_8.json`.

use std::sync::Arc;
use std::time::Instant;

use wiki_bench::report::f2;
use wiki_bench::{flag_value, format_table, write_report};
use wiki_corpus::Language;
use wiki_obs::expo::{self, HistogramScrape};
use wiki_serve::client::MatchClient;
use wiki_serve::protocol::AlignRequest;
use wiki_serve::registry::{CorpusSpec, Registry};
use wiki_serve::server::{MatchServer, ServerConfig};
use wikimatch::ComputeMode;

/// The whole run, serialized into `reports/obs_overhead.json` (and, via
/// `--out`, the repo-root `BENCH_8.json`).
#[derive(serde::Serialize)]
struct Report {
    bench: String,
    pr: u32,
    note: String,
    tier: String,
    rounds: usize,
    requests_per_round: usize,
    enabled_p50_us: f64,
    disabled_p50_us: f64,
    enabled_mean_us: f64,
    disabled_mean_us: f64,
    /// `(enabled_p50 / disabled_p50 - 1) * 100`; the acceptance bar is
    /// ≤ 2.0 on the warm align path.
    overhead_percent: f64,
    /// Align requests the server's histogram observed while enabled.
    server_requests: f64,
    /// Server-side p50 bucket upper bound, milliseconds.
    server_p50_upper_ms: f64,
    /// Server-side p99 bucket upper bound, milliseconds.
    server_p99_upper_ms: f64,
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

fn mean_us(nanos: &[u64]) -> f64 {
    if nanos.is_empty() {
        return 0.0;
    }
    nanos.iter().sum::<u64>() as f64 / nanos.len() as f64 / 1e3
}

/// Scrapes `/metrics` and reassembles the align-endpoint request
/// histogram (empty when no align was observed yet).
fn scrape_align(client: &mut MatchClient) -> HistogramScrape {
    let response = client.get("/metrics").expect("scrape /metrics");
    assert!(response.is_success(), "HTTP {}", response.status);
    let samples = expo::parse_text(&response.body).expect("valid exposition");
    HistogramScrape::extract(&samples, "wm_request_seconds", Some(("endpoint", "align")))
        .unwrap_or_default()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tier = "medium".to_string();
    let mut rounds = 5usize;
    let mut requests = 400usize;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tier" => tier = flag_value(&args, &mut i, "--tier"),
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
            "--smoke" => {
                tier = "tiny".to_string();
                rounds = 2;
                requests = 50;
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
        rounds >= 1 && requests >= 1,
        "need at least one measurement"
    );

    let spec = CorpusSpec::tier(Language::Pt, &tier).unwrap_or_else(|| {
        eprintln!("unknown tier {tier:?}");
        std::process::exit(2);
    });
    let corpus = spec.name.clone();
    let registry = Arc::new(Registry::new(1, ComputeMode::default()));
    registry.register(spec);
    eprintln!("warming {corpus}...");
    registry.warm(&corpus).expect("warm probe corpus");
    let server = MatchServer::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 2,
            queue_depth: 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral server");
    let addr = server.addr().to_string();
    let mut client = MatchClient::new(addr.as_str()).expect("client");

    // Warm the connection, the response cache and the branch predictors
    // before anything is measured or scraped.
    align_batch(&mut client, &corpus, requests.min(100));

    // Alternating rounds, enabled first, so slow drift (thermal, page
    // cache) hits both modes evenly. The enabled rounds run inside one
    // scrape bracket; disabled rounds record nothing server-side.
    let baseline = scrape_align(&mut client);
    let mut enabled = Vec::new();
    let mut disabled = Vec::new();
    let mut enabled_p50 = f64::INFINITY;
    let mut disabled_p50 = f64::INFINITY;
    for round in 0..rounds {
        eprintln!(
            "round {}/{rounds} ({requests} requests per mode)...",
            round + 1
        );
        wiki_obs::set_enabled(true);
        let mut batch = align_batch(&mut client, &corpus, requests);
        batch.sort_unstable();
        enabled_p50 = enabled_p50.min(percentile_us(&batch, 0.50));
        enabled.extend(batch);
        wiki_obs::set_enabled(false);
        let mut batch = align_batch(&mut client, &corpus, requests);
        batch.sort_unstable();
        disabled_p50 = disabled_p50.min(percentile_us(&batch, 0.50));
        disabled.extend(batch);
        wiki_obs::set_enabled(true);
    }
    let delta = scrape_align(&mut client).delta_from(&baseline);
    server.shutdown();

    let overhead_percent = (enabled_p50 / disabled_p50 - 1.0) * 100.0;

    let header: Vec<String> = ["mode", "requests", "best p50 µs", "mean µs"]
        .iter()
        .map(ToString::to_string)
        .collect();
    let rows_out = vec![
        vec![
            "obs enabled".to_string(),
            enabled.len().to_string(),
            f2(enabled_p50),
            f2(mean_us(&enabled)),
        ],
        vec![
            "obs disabled".to_string(),
            disabled.len().to_string(),
            f2(disabled_p50),
            f2(mean_us(&disabled)),
        ],
    ];
    println!("{}", format_table(&header, &rows_out));
    println!("overhead (p50): {overhead_percent:+.2}%");
    println!(
        "server-side (enabled rounds): p50 ≤ {} ms  p99 ≤ {} ms  over {} aligns",
        f2(delta.quantile_upper(0.50).unwrap_or(f64::NAN) * 1e3),
        f2(delta.quantile_upper(0.99).unwrap_or(f64::NAN) * 1e3),
        delta.count
    );

    let report = Report {
        bench: "obs_overhead".to_string(),
        pr: 8,
        note: "in-process matchd on an ephemeral port, one keep-alive \
               client; warm per-type /align (cached steady state), \
               alternating rounds with the obs layer enabled vs \
               wiki_obs::set_enabled(false); overhead compares the best \
               (minimum) per-round client-side p50s; server-side \
               quantiles are \
               wm_request_seconds{endpoint=\"align\"} bucket upper bounds \
               from the /metrics scrape delta around the enabled rounds"
            .to_string(),
        tier,
        rounds,
        requests_per_round: requests,
        enabled_p50_us: enabled_p50,
        disabled_p50_us: disabled_p50,
        enabled_mean_us: mean_us(&enabled),
        disabled_mean_us: mean_us(&disabled),
        overhead_percent,
        server_requests: delta.count,
        server_p50_upper_ms: delta.quantile_upper(0.50).unwrap_or(f64::NAN) * 1e3,
        server_p99_upper_ms: delta.quantile_upper(0.99).unwrap_or(f64::NAN) * 1e3,
    };
    write_report("obs_overhead", &report);
    if let Some(path) = out {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => std::fs::write(&path, json + "\n").expect("write --out file"),
            Err(err) => eprintln!("warning: cannot serialise report: {err}"),
        }
    }
}
