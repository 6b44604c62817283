//! The four workloads, each driving a booted `matchd` over loopback.
//!
//! Every workload launches its own daemon (`--workers 2`), repeats its
//! set-up on a fresh daemon [`SETUP_REPS`] times to time `setup_s`,
//! measures for the run's `--seconds` on the last one, then checks the
//! served outputs. Requests go through `wiki_serve::client::MatchClient` from this
//! one process, on at most two connections.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use wiki_corpus::{Article, Dataset, Language};
use wiki_serve::protocol::{AlignResponse, StatsResponse};
use wiki_serve::registry::{CorpusSpec, COMPACTION_THRESHOLD};
use wikimatch::CorpusDelta;

use crate::checks::{self, Check};
use crate::daemon::{dir_bytes, fresh_dir, Daemon, DaemonConfig, WORKERS};
use crate::measure::{median, Rng, Samples};
use crate::report::{Metric, Outcome};
use crate::wire::{align_body, matcher_body, mutate_body, translate_body, Conn, Reply, Tally};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Client connections of `read-mix`'s closed loop.
pub const CONNECTIONS: usize = 2;
/// Requests of `read-mix`'s idle probe after the window: the schedule
/// again, one request at a time (100 passes of its 20 requests).
const IDLE_REQUESTS: u64 = 2000;
/// Upserts per second offered by the `edit` workload's open loop, over
/// all editors.
pub const EDIT_RATE: f64 = 2.5;
/// The `churn` workload's `--max-resident-mb`: below every corpus, so
/// each lookup evicts down to the registry's floor of one session and a
/// request for any corpus but the last one served is a cold hit.
pub const CHURN_BUDGET_MB: u64 = 0;
/// Every `CHURN_STATS_EVERY`-th churn request on a connection (once a
/// round) is followed by an untimed `/stats` sample of the resident bytes.
const CHURN_STATS_EVERY: u64 = 6;

pub const PT: &str = "pt-medium";
pub const VI: &str = "vi-medium";
/// The entity type `edit` upserts and `churn` aligns (as `matchbench`),
/// so each workload's requests cost alike and their percentiles are
/// stable across seeds.
pub const TYPE: &str = "film";

/// What a workload run needs from the command line.
#[derive(Debug, Clone)]
pub struct Run {
    pub matchd: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

pub type Result<T> = std::result::Result<T, String>;

fn err<E: std::fmt::Display>(context: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// The body of a reply that must have succeeded.
fn need(reply: Reply, what: &str) -> Result<String> {
    reply
        .body
        .ok_or_else(|| format!("{what} failed during set-up or checks"))
}

pub fn spec(name: &str) -> CorpusSpec {
    let (code, tier) = name
        .split_once('-')
        .expect("corpus names are <lang>-<tier>");
    let language = if code == "vi" {
        Language::Vn
    } else {
        Language::Pt
    };
    CorpusSpec::tier(language, tier).expect("the benchmark names only built-in tiers")
}

/// Launches and sets up `reps` daemons, keeping the last one. `one`
/// returns the daemon, its set-up result and the timed seconds.
fn repeated_setup<S>(
    reps: usize,
    mut one: impl FnMut() -> Result<(Daemon, S, f64)>,
) -> Result<(Daemon, S, Vec<f64>)> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..reps {
        // Reap the previous daemon before the next one starts.
        drop(kept.take());
        let (daemon, state, secs) = one()?;
        times.push(secs);
        kept = Some((daemon, state));
    }
    let (daemon, state) = kept.ok_or("no set-up ran")?;
    Ok((daemon, state, times))
}

/// The daemon's CPU seconds so far; a run that cannot read them fails.
fn cpu(daemon: &Daemon) -> Result<f64> {
    daemon
        .cpu_s()
        .ok_or_else(|| "cannot read matchd's CPU time from /proc".to_string())
}

/// Daemon CPU readings through a window, each with the operations done by
/// then. Each stretch between two readings is a slice.
#[derive(Debug, Default)]
struct CpuLog {
    readings: Vec<(f64, u64)>,
}

impl CpuLog {
    fn mark(&mut self, cpu_s: f64, ops_done: u64) {
        self.readings.push((cpu_s, ops_done));
    }

    /// Daemon CPU milliseconds per operation over all the slices: the
    /// host's speed changes within a run, and a mean over the whole run
    /// averages its fast and slow stretches where a median of slices
    /// would take one or the other. `what` names the operations and
    /// `slice` what one slice is.
    fn metric(&self, name: &str, what: &str, slice: &str) -> Metric {
        let (first, last) = match (self.readings.first(), self.readings.last()) {
            (Some(first), Some(last)) => (*first, *last),
            _ => ((0.0, 0), (0.0, 0)),
        };
        let (seconds, ops) = (last.0 - first.0, last.1 - first.1);
        Metric::new(
            name,
            "ms",
            seconds * 1e3 / ops as f64,
            format!(
                "{seconds:.3} s of matchd CPU over {ops} {what}, in {} whole {slice}",
                self.readings.len().saturating_sub(1)
            ),
        )
    }
}

fn setup_metric(times: &[f64]) -> Metric {
    Metric::new(
        "setup_s",
        "s",
        median(times),
        format!("median of {} set-ups {:.3?}", times.len(), times),
    )
}

/// `error_share` and its complement `ok_share`, over every request of the
/// run.
fn share_metrics(outcome: &mut Outcome, tally: &Tally) {
    outcome.attempted = tally.attempted();
    outcome.failed = tally.failed();
    let error = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let note = format!("{} of {} requests", outcome.failed, outcome.attempted);
    outcome
        .named
        .push(Metric::new("error_share", "ratio", error, note.clone()));
    outcome
        .named
        .push(Metric::new("ok_share", "ratio", 1.0 - error, note));
}

fn common_conditions(outcome: &mut Outcome, run: &Run, tiers: &str) {
    outcome.condition(
        "nproc",
        thread::available_parallelism().map_or(0, |n| n.get()),
    );
    outcome.condition("workers", WORKERS);
    outcome.condition("seed", run.seed);
    outcome.condition("seconds", run.seconds);
    outcome.condition("tiers", tiers);
    outcome.condition(
        "commit",
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
    );
    outcome.condition(
        "flush_policy",
        "journal and snapshot writes never fsync: write_* and snapshot times are page-cache writes",
    );
}

/// F-measure of the served pristine `pt-medium` and `vi-medium`
/// alignments (`align(*)` bodies), plus its check.
fn f1_metric(outcome: &mut Outcome, datasets: &[(&Dataset, &str)]) -> Result<()> {
    let parsed: Vec<(&Dataset, AlignResponse)> = datasets
        .iter()
        .map(|(d, body)| checks::parse_align(body).map(|r| (*d, r)))
        .collect::<Result<_>>()?;
    let refs: Vec<(&Dataset, &AlignResponse)> = parsed.iter().map(|(d, r)| (*d, r)).collect();
    let f1 = checks::align_f1(&refs);
    let types: usize = parsed.iter().map(|(_, r)| r.alignments.len()).sum();
    outcome.named.push(Metric::new(
        "align_f1",
        "ratio",
        f1,
        format!("weighted F over {types} served types of {PT} and {VI}"),
    ));
    Ok(())
}

fn check_against_reference(name: &str, dataset: Dataset, served: &str) -> Check {
    let result = checks::parse_align(served).and_then(|served| {
        let reference = checks::reference_alignments(dataset);
        checks::matches_reference(&served.alignments, &reference)
            .map(|n| format!("{n} types equal the in-process engine"))
    });
    Check::new(name, result)
}

// ---------------------------------------------------------------------
// read-mix
// ---------------------------------------------------------------------

/// The request kinds of `matchbench`'s mixed schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ReadOp {
    AlignType,
    AlignAll,
    Matcher,
    Translate,
    Stats,
}

impl ReadOp {
    const ALL: [ReadOp; 5] = [
        ReadOp::AlignType,
        ReadOp::AlignAll,
        ReadOp::Matcher,
        ReadOp::Translate,
        ReadOp::Stats,
    ];

    /// 70% align(type), 5% align(*), 10% matchers, 10% translate-query,
    /// 5% stats, in `matchbench`'s order.
    fn mixed(i: u64) -> Self {
        match i % 20 {
            0 => ReadOp::AlignAll,
            1 | 2 => ReadOp::Matcher,
            3 | 4 => ReadOp::Translate,
            5 => ReadOp::Stats,
            _ => ReadOp::AlignType,
        }
    }

    fn send(self, conn: &mut Conn, corpus: &str) -> Reply {
        match self {
            ReadOp::AlignType => conn.post("/align", &align_body(corpus, Some(TYPE))),
            ReadOp::AlignAll => conn.post("/align", &align_body(corpus, None)),
            ReadOp::Matcher => conn.post("/matchers", &matcher_body(corpus, TYPE)),
            ReadOp::Translate => conn.post("/translate-query", &translate_body(corpus)),
            ReadOp::Stats => conn.send("GET", "/stats", None),
        }
    }
}

pub fn read_mix(run: &Run) -> Result<Outcome> {
    let tally = Tally::default();
    let mut outcome = Outcome {
        workload: "read-mix".to_string(),
        ..Outcome::default()
    };
    common_conditions(&mut outcome, run, "medium");
    outcome.condition("loop", format!("closed, {CONNECTIONS} connections"));
    outcome.condition("corpus", PT);

    let config = DaemonConfig {
        tiers: "medium".to_string(),
        ..DaemonConfig::default()
    };
    let (daemon, (expected, vi_all), setups) = repeated_setup(SETUP_REPS, || {
        let start = Instant::now();
        let daemon = Daemon::launch(&run.matchd, &config).map_err(err("launch matchd"))?;
        let mut conn = Conn::new(daemon.addr(), &tally).map_err(err("connect"))?;
        need(conn.warm(PT), "warm pt-medium")?;
        need(conn.warm(VI), "warm vi-medium")?;
        // The schedule's first requests are lazy builds (alignment,
        // dictionary); they belong to set-up, not to the window.
        let mut expected = HashMap::new();
        for op in ReadOp::ALL {
            let body = need(op.send(&mut conn, PT), "first read-mix request")?;
            expected.insert(op, body);
        }
        let vi_all = need(
            conn.post("/align", &align_body(VI, None)),
            "align vi-medium",
        )?;
        Ok((daemon, (expected, vi_all), start.elapsed().as_secs_f64()))
    })?;
    outcome.named.push(setup_metric(&setups));

    // The seed only shifts where each connection enters the schedule.
    let next = AtomicU64::new(Rng::new(run.seed, 0).below(20) as u64);
    let mismatches = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(run.seconds);
    let per_conn: Vec<HashMap<ReadOp, Samples>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let (next, mismatches, expected, tally) = (&next, &mismatches, &expected, &tally);
                let addr = daemon.addr().to_string();
                scope.spawn(move || {
                    let mut samples: HashMap<ReadOp, Samples> = HashMap::new();
                    let Ok(mut conn) = Conn::new(&addr, tally) else {
                        return samples;
                    };
                    while Instant::now() < deadline {
                        let op = ReadOp::mixed(next.fetch_add(1, Ordering::Relaxed));
                        let reply = op.send(&mut conn, PT);
                        let entry = samples.entry(op).or_default();
                        match reply.body {
                            Some(body) => {
                                entry.push(reply.elapsed);
                                if op != ReadOp::Stats && expected.get(&op) != Some(&body) {
                                    mismatches.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            // A failure misses every latency bound.
                            None => entry.push_ms(f64::INFINITY),
                        }
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("read-mix client thread panicked"))
            .collect()
    });
    let window = start.elapsed().as_secs_f64();
    // The idle probe: the schedule again, one request at a time on one
    // connection. In the window, two connections on two cores put a
    // request either alone on a core or beside the other connection's
    // work, and the split between the two moved the window's medians by
    // 20–50% and its CPU per request by up to 16% between runs; alone, a
    // request's cost is steady. Each request is charged the daemon's CPU
    // since the previous one ended.
    let mut conn = Conn::new(daemon.addr(), &tally).map_err(err("connect"))?;
    let mut idle: HashMap<ReadOp, Samples> = HashMap::new();
    let mut idle_cpu: HashMap<ReadOp, Samples> = HashMap::new();
    let first = Rng::new(run.seed, 0).below(20) as u64;
    let mut cpu_mark = cpu(&daemon)?;
    for i in first..first + IDLE_REQUESTS {
        let op = ReadOp::mixed(i);
        let reply = op.send(&mut conn, PT);
        let entry = idle.entry(op).or_default();
        match reply.body {
            Some(body) => {
                entry.push(reply.elapsed);
                if op != ReadOp::Stats && expected.get(&op) != Some(&body) {
                    mismatches.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => entry.push_ms(f64::INFINITY),
        }
        let now = cpu(&daemon)?;
        idle_cpu
            .entry(op)
            .or_default()
            .push_ms((now - cpu_mark) * 1e3);
        cpu_mark = now;
    }
    let peak_rss = daemon.peak_rss_mb().unwrap_or(f64::NAN);
    daemon.shutdown().map_err(err("shutdown matchd"))?;

    let mut all = Samples::default();
    let mut translate = Samples::default();
    for mut samples in per_conn {
        if let Some(t) = samples.remove(&ReadOp::Translate) {
            translate.extend(t.clone());
            all.extend(t);
        }
        for (_, s) in samples {
            all.extend(s);
        }
    }
    outcome.named.push(Metric::new(
        "read_rps",
        "req/s",
        all.len() as f64 / window,
        format!("{} requests in {window:.2}s", all.len()),
    ));
    outcome
        .named
        .push(Metric::percentile("read_p50_ms", all.percentile(50.0)));
    outcome
        .named
        .push(Metric::percentile("read_p99_ms", all.percentile(99.0)));
    outcome.named.push(Metric::percentile(
        "translate_p50_ms",
        translate.percentile(50.0),
    ));
    outcome.named.push(Metric::percentile(
        "idle_p50_ms",
        idle[&ReadOp::AlignType].percentile(50.0),
    ));
    outcome.named.push(Metric::percentile(
        "idle_translate_p50_ms",
        idle[&ReadOp::Translate].percentile(50.0),
    ));
    // The schedule's CPU per request: each kind at its median, weighted
    // by its share of the schedule.
    let mut read_cpu = 0.0;
    for op in ReadOp::ALL {
        let share = (0..20).filter(|&i| ReadOp::mixed(i) == op).count() as f64 / 20.0;
        let p50 = idle_cpu
            .get(&op)
            .and_then(|s| s.percentile(50.0))
            .map_or(f64::NAN, |p| p.value);
        read_cpu += share * p50;
    }
    outcome.named.push(Metric::new(
        "read_cpu_ms",
        "ms",
        read_cpu,
        format!("idle probe: median matchd CPU of each request kind, weighted by the schedule, over {IDLE_REQUESTS} requests"),
    ));
    outcome.named.push(Metric::percentile(
        "hit_cpu_ms",
        idle_cpu[&ReadOp::AlignType].percentile(50.0),
    ));
    outcome.named.push(Metric::percentile(
        "translate_cpu_ms",
        idle_cpu[&ReadOp::Translate].percentile(50.0),
    ));
    outcome.named.push(Metric::new(
        "peak_rss_mb",
        "MB",
        peak_rss,
        "matchd VmHWM at the end of the window",
    ));

    let mismatches = mismatches.load(Ordering::Relaxed);
    outcome.checks.push(Check::new(
        "window_answers_stable",
        if mismatches == 0 {
            Ok(format!(
                "{} window and {} idle answers equal the set-up answers",
                all.len(),
                IDLE_REQUESTS
            ))
        } else {
            Err(format!(
                "{mismatches} answers differ from the set-up answers"
            ))
        },
    ));
    let pt = spec(PT).dataset();
    let vi = spec(VI).dataset();
    let film = checks::parse_align(&expected[&ReadOp::AlignType]).and_then(|served| {
        let reference = checks::reference_alignments(pt.clone());
        checks::matches_reference(&served.alignments, &reference)
            .map(|_| "align(film) equals the in-process engine".to_string())
    });
    outcome
        .checks
        .push(Check::new("align_type_equals_engine", film));
    outcome.checks.push(check_against_reference(
        "pt_align_equals_engine",
        pt.clone(),
        &expected[&ReadOp::AlignAll],
    ));
    outcome.checks.push(check_against_reference(
        "vi_align_equals_engine",
        vi.clone(),
        &vi_all,
    ));
    f1_metric(
        &mut outcome,
        &[(&pt, &expected[&ReadOp::AlignAll]), (&vi, &vi_all)],
    )?;
    share_metrics(&mut outcome, &tally);
    outcome.roles = vec![
        ("setup_s", "setup_s".into()),
        ("cpu_ms", "read_cpu_ms".into()),
        ("peak_rss_mb", "peak_rss_mb".into()),
        ("ok_share", "ok_share".into()),
        ("align_f1", "align_f1".into()),
    ];
    Ok(outcome)
}

// ---------------------------------------------------------------------
// edit
// ---------------------------------------------------------------------

/// One planned upsert: the edited article and the type it belongs to.
#[derive(Debug, Clone)]
pub struct Upsert {
    pub article: Article,
    pub type_id: String,
}

/// The `edit` workload's inputs: single-entity upserts of existing
/// foreign-language articles of type [`TYPE`] in `dataset`, each replacing
/// one attribute with another article's value (or marking it revised when
/// the values agree), all drawn from the seed. Every upsert changes the
/// corpus, so every one is journaled.
pub fn plan_upserts(dataset: &Dataset, seed: u64, count: usize) -> Vec<Upsert> {
    let other = dataset.other_language().clone();
    let label = &dataset
        .type_pairing(TYPE)
        .expect("every corpus has the benchmark's type")
        .label_other;
    let mut candidates: Vec<&Article> = dataset
        .corpus
        .articles_in(&other)
        .filter(|a| &a.entity_type == label && !a.infobox.is_empty())
        .collect();
    candidates.sort_by(|a, b| a.title.cmp(&b.title));
    // Donor values per attribute name.
    let mut donors: HashMap<&str, Vec<&wiki_corpus::AttributeValue>> = HashMap::new();
    for article in &candidates {
        for attr in &article.infobox.attributes {
            donors.entry(attr.name.as_str()).or_default().push(attr);
        }
    }
    let mut rng = Rng::new(seed, 11);
    let mut current: HashMap<String, Article> = HashMap::new();
    (0..count)
        .map(|i| {
            let base = candidates[rng.below(candidates.len())];
            let mut article = current
                .get(&base.title)
                .cloned()
                .unwrap_or_else(|| base.clone());
            let slot = rng.below(article.infobox.attributes.len());
            let attr = &article.infobox.attributes[slot];
            let pool = &donors[attr.name.as_str()];
            let mut edited = pool[rng.below(pool.len())].clone();
            edited.name = attr.name.clone();
            if edited.value == attr.value {
                edited.value = format!("{} (rev. {i})", attr.value);
            }
            article.infobox.attributes[slot] = edited;
            current.insert(article.title.clone(), article.clone());
            Upsert {
                type_id: TYPE.to_string(),
                article,
            }
        })
        .collect()
}

/// Whether the `n`-th journaled write (1-based) of a corpus compacts: the
/// registry compacts when its journal reaches [`COMPACTION_THRESHOLD`]
/// records and leaves one record behind.
fn compacts(n: usize) -> bool {
    n >= COMPACTION_THRESHOLD && (n - COMPACTION_THRESHOLD).is_multiple_of(COMPACTION_THRESHOLD - 1)
}

pub fn edit(run: &Run) -> Result<Outcome> {
    let tally = Tally::default();
    let mut outcome = Outcome {
        workload: "edit".to_string(),
        ..Outcome::default()
    };
    common_conditions(&mut outcome, run, "medium");
    outcome.condition(
        "loop",
        format!(
            "open, {EDIT_RATE} upserts/s from 1 editor connection, each ack followed by /align"
        ),
    );
    outcome.condition("corpus", PT);
    let pt = spec(PT).dataset();
    let vi = spec(VI).dataset();
    let writes = (EDIT_RATE * run.seconds).ceil() as usize + 1;
    let plan = plan_upserts(&pt, run.seed, writes);
    let dir = run.work.join("edit-snapshots");
    let config = DaemonConfig {
        tiers: "medium".to_string(),
        snapshot_dir: Some(dir.clone()),
        ..DaemonConfig::default()
    };
    let (daemon, (pt_all, vi_all), setups) = repeated_setup(SETUP_REPS, || {
        fresh_dir(&dir).map_err(err("snapshot dir"))?;
        let start = Instant::now();
        let daemon = Daemon::launch(&run.matchd, &config).map_err(err("launch matchd"))?;
        let mut conn = Conn::new(daemon.addr(), &tally).map_err(err("connect"))?;
        need(conn.warm(PT), "warm pt-medium")?;
        need(conn.warm(VI), "warm vi-medium")?;
        let pt_all = need(conn.post("/align", &align_body(PT, None)), "align pt")?;
        let vi_all = need(conn.post("/align", &align_body(VI, None)), "align vi")?;
        Ok((daemon, (pt_all, vi_all), start.elapsed().as_secs_f64()))
    })?;
    outcome.named.push(setup_metric(&setups));

    // Write `i` is due at `i / EDIT_RATE` seconds. One editor sends them
    // and follows each ack with `/align` of the type, so every fresh read
    // recomputes once.
    let path = format!("/corpora/{PT}/entities");
    let mut conn = Conn::new(daemon.addr(), &tally).map_err(err("connect"))?;
    let start = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / EDIT_RATE);
    let end = start + Duration::from_secs_f64(run.seconds);
    // (write index, ack latency or None on failure), fresh reads and
    // generator lag. The CPU log has one slice per compaction cycle: the
    // writes up to and including a compacting one, with their fresh reads.
    let mut writes: Vec<(usize, Option<Duration>)> = Vec::new();
    let (mut fresh, mut lag) = (Samples::default(), Samples::default());
    let mut cpu_log = CpuLog::default();
    cpu_log.mark(cpu(&daemon)?, 0);
    for (i, upsert) in plan.iter().enumerate() {
        let due = start + interval * i as u32;
        if due >= end {
            break;
        }
        let now = Instant::now();
        if now < due {
            thread::sleep(due - now);
        }
        lag.push(Instant::now().saturating_duration_since(due));
        let reply = conn.post(&path, &mutate_body(&upsert.article));
        if reply.body.is_none() {
            // Stop: the check below replays acked writes only.
            writes.push((i, None));
            break;
        }
        // Timed from when the write was due, so a stall also charges the
        // writes queued behind it.
        writes.push((i, Some(reply.done - due)));
        let read = conn.post("/align", &align_body(PT, Some(&upsert.type_id)));
        match read.body {
            Some(_) => fresh.push(read.elapsed),
            None => fresh.push_ms(f64::INFINITY),
        }
        if compacts(writes.len()) {
            cpu_log.mark(cpu(&daemon)?, writes.len() as u64);
        }
    }
    // The n-th acked write is the registry's n-th journaled one; the
    // compaction count checks it.
    let (mut write, mut compacting) = (Samples::default(), Samples::default());
    let mut acked = Vec::new();
    for (i, latency) in &writes {
        match latency {
            Some(latency) => {
                acked.push(*i);
                write.push(*latency);
                if compacts(acked.len()) {
                    compacting.push(*latency);
                }
            }
            None => write.push_ms(f64::INFINITY),
        }
    }
    let window = start.elapsed().as_secs_f64();
    let final_all = need(conn.post("/align", &align_body(PT, None)), "final align")?;
    let stats = conn.stats();
    let peak_rss = daemon.peak_rss_mb().unwrap_or(f64::NAN);
    let snapshot_mb = dir_bytes(&dir) as f64 / 1e6;
    daemon.shutdown().map_err(err("shutdown matchd"))?;

    let compactions = stats
        .as_ref()
        .and_then(|s| s.registry.corpora.iter().find(|c| c.name == PT))
        .map_or(0, |c| c.compactions);
    let expected = (1..=acked.len()).filter(|&n| compacts(n)).count() as u64;
    outcome.condition("writes_acked", acked.len());
    outcome.condition("compactions", compactions);
    outcome.condition("window_s", format!("{window:.3}"));
    outcome
        .named
        .push(Metric::percentile("write_p50_ms", write.percentile(50.0)));
    outcome
        .named
        .push(Metric::percentile("write_p90_ms", write.percentile(90.0)));
    outcome.named.push(Metric::percentile(
        "compaction_write_p50_ms",
        compacting.percentile(50.0),
    ));
    outcome.named.push(Metric::percentile(
        "fresh_read_p50_ms",
        fresh.percentile(50.0),
    ));
    outcome.named.push(Metric::percentile(
        "loadgen.lag_p90_ms",
        lag.percentile(90.0),
    ));
    outcome.named.push(cpu_log.metric(
        "write_cpu_ms",
        "upserts, each with its fresh read",
        "compaction cycles",
    ));
    outcome.named.push(Metric::new(
        "peak_rss_mb",
        "MB",
        peak_rss,
        "matchd VmHWM at the end of the window",
    ));
    outcome.named.push(Metric::new(
        "snapshot_mb",
        "MB",
        snapshot_mb,
        "snapshot dir at the end of the window",
    ));

    // The final served alignment must equal a cold rebuild over the
    // pristine corpus plus every acked upsert.
    let mut rebuilt = pt.clone();
    for &i in &acked {
        CorpusDelta::upsert(plan[i].article.clone()).apply_to(&mut rebuilt.corpus);
    }
    outcome.checks.push(check_against_reference(
        "final_align_equals_rebuild",
        rebuilt,
        &final_all,
    ));
    outcome.checks.push(Check::new(
        "spans_compactions",
        if compactions == expected && compactions >= 2 {
            Ok(format!(
                "{compactions} compactions, as the write count predicts"
            ))
        } else {
            Err(format!(
                "{compactions} compactions after {} writes; expected {expected} (at least 2)",
                acked.len()
            ))
        },
    ));
    f1_metric(&mut outcome, &[(&pt, &pt_all), (&vi, &vi_all)])?;
    share_metrics(&mut outcome, &tally);
    outcome.roles = vec![
        ("setup_s", "setup_s".into()),
        ("cpu_ms", "write_cpu_ms".into()),
        ("peak_rss_mb", "peak_rss_mb".into()),
        ("ok_share", "ok_share".into()),
        ("align_f1", "align_f1".into()),
    ];
    Ok(outcome)
}

// ---------------------------------------------------------------------
// cold-start
// ---------------------------------------------------------------------

/// One cold cycle's three timings and the daemon CPU each took, in
/// seconds.
struct Cycle {
    cold_build: f64,
    first_answer: f64,
    restart: f64,
    cold_build_cpu: f64,
    first_answer_cpu: f64,
    restart_cpu: f64,
    peak_rss: f64,
}

/// Warms both corpora on the empty dir `daemon` serves, takes their first
/// answers, shuts down with `--persist`, relaunches on the dir and answers
/// each corpus once.
fn cold_cycle(
    run: &Run,
    daemon: Daemon,
    config: &DaemonConfig,
    tally: &Tally,
    restarted_equal: &mut Vec<String>,
) -> Result<(Cycle, [String; 2])> {
    let mut conn = Conn::new(daemon.addr(), tally).map_err(err("connect"))?;
    let cpu_launched = cpu(&daemon)?;
    let t = Instant::now();
    need(conn.warm(PT), "warm pt-medium")?;
    need(conn.warm(VI), "warm vi-medium")?;
    let cold_build = t.elapsed().as_secs_f64();
    let cpu_built = cpu(&daemon)?;
    let t = Instant::now();
    let mut first = Vec::new();
    for corpus in [PT, VI] {
        first.push(need(
            conn.post("/align", &align_body(corpus, None)),
            "first align",
        )?);
        need(
            conn.post("/translate-query", &translate_body(corpus)),
            "first translate",
        )?;
    }
    let first_answer = t.elapsed().as_secs_f64();
    let cpu_answered = cpu(&daemon)?;
    let mut peak_rss = daemon.peak_rss_mb().unwrap_or(f64::NAN);
    daemon.shutdown().map_err(err("shutdown with --persist"))?;

    let t = Instant::now();
    let relaunch = DaemonConfig {
        persist: false,
        ..config.clone()
    };
    let daemon = Daemon::launch(&run.matchd, &relaunch).map_err(err("relaunch matchd"))?;
    let mut conn = Conn::new(daemon.addr(), tally).map_err(err("connect"))?;
    for (corpus, before) in [PT, VI].iter().zip(&first) {
        let after = need(
            conn.post("/align", &align_body(corpus, None)),
            "restart align",
        )?;
        if &after != before {
            restarted_equal.push(corpus.to_string());
        }
    }
    let restart = t.elapsed().as_secs_f64();
    // Everything the relaunched daemon did: start, snapshot decode, answers.
    let restart_cpu = cpu(&daemon)?;
    peak_rss = peak_rss.max(daemon.peak_rss_mb().unwrap_or(f64::NAN));
    daemon.shutdown().map_err(err("shutdown matchd"))?;
    let [pt, vi]: [String; 2] = first.try_into().expect("two corpora");
    Ok((
        Cycle {
            cold_build,
            first_answer,
            restart,
            cold_build_cpu: cpu_built - cpu_launched,
            first_answer_cpu: cpu_answered - cpu_built,
            restart_cpu,
            peak_rss,
        },
        [pt, vi],
    ))
}

pub fn cold_start(run: &Run) -> Result<Outcome> {
    let tally = Tally::default();
    let mut outcome = Outcome {
        workload: "cold-start".to_string(),
        ..Outcome::default()
    };
    common_conditions(&mut outcome, run, "medium");
    outcome.condition("loop", "sequential cold cycles, 1 connection");
    outcome.condition("corpora", format!("{PT}, {VI}"));
    let dir = run.work.join("cold-snapshots");
    let config = DaemonConfig {
        tiers: "medium".to_string(),
        snapshot_dir: Some(dir.clone()),
        persist: true,
        ..DaemonConfig::default()
    };
    let launch = |tally: &Tally| -> Result<(Daemon, (), f64)> {
        fresh_dir(&dir).map_err(err("snapshot dir"))?;
        let start = Instant::now();
        let daemon = Daemon::launch(&run.matchd, &config).map_err(err("launch matchd"))?;
        let mut conn = Conn::new(daemon.addr(), tally).map_err(err("connect"))?;
        if !conn.ready() {
            return Err("matchd never became ready".to_string());
        }
        Ok((daemon, (), start.elapsed().as_secs_f64()))
    };
    // Set-up warms up before timing: both corpora are built once on an
    // empty dir, so the window's first cycle is not the checkout's first
    // build; then a fresh daemon on an empty dir opens the window. A bare
    // launch (about 2 ms) moved by 30–60% between sets of runs.
    let warm_up = DaemonConfig {
        persist: false,
        ..config.clone()
    };
    let (mut daemon, (), setups) = repeated_setup(SETUP_REPS, || {
        fresh_dir(&dir).map_err(err("snapshot dir"))?;
        let start = Instant::now();
        let daemon = Daemon::launch(&run.matchd, &warm_up).map_err(err("launch matchd"))?;
        let mut conn = Conn::new(daemon.addr(), &tally).map_err(err("connect"))?;
        need(conn.warm(PT), "warm-up pt-medium")?;
        need(conn.warm(VI), "warm-up vi-medium")?;
        daemon.shutdown().map_err(err("shutdown matchd"))?;
        let (daemon, (), _) = launch(&tally)?;
        Ok((daemon, (), start.elapsed().as_secs_f64()))
    })?;
    outcome.named.push(setup_metric(&setups));

    // Cycles run back to back while the window is open, so the last one
    // may end past it: a cycle takes several seconds, and the medians need
    // three or more of them.
    let start = Instant::now();
    let mut cycles = Vec::new();
    let mut restart_diffs = Vec::new();
    let mut answers: Vec<[String; 2]> = Vec::new();
    loop {
        let (cycle, first) = cold_cycle(run, daemon, &config, &tally, &mut restart_diffs)?;
        cycles.push(cycle);
        answers.push(first);
        if start.elapsed().as_secs_f64() >= run.seconds {
            break;
        }
        daemon = launch(&tally)?.0;
    }
    let snapshot_mb = dir_bytes(&dir) as f64 / 1e6;
    let n = cycles.len();
    let med = |f: fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    let note = format!("median of {n} cycles");
    outcome.condition("cycles", n);
    outcome.named.push(Metric::new(
        "cold_build_s",
        "s",
        med(|c| c.cold_build),
        note.clone(),
    ));
    outcome.named.push(Metric::new(
        "first_answer_s",
        "s",
        med(|c| c.first_answer),
        note.clone(),
    ));
    outcome.named.push(Metric::new(
        "restart_s",
        "s",
        med(|c| c.restart),
        note.clone(),
    ));
    for (name, f) in [
        (
            "cold_build_ms",
            (|c: &Cycle| c.cold_build) as fn(&Cycle) -> f64,
        ),
        ("first_answer_ms", |c| c.first_answer),
        ("restart_ms", |c| c.restart),
    ] {
        outcome
            .named
            .push(Metric::new(name, "ms", med(f) * 1e3, note.clone()));
    }
    // CPU is averaged over the cycles: the host's speed changes within a
    // run, and a median of a few cycles takes a fast or a slow one.
    for (name, f) in [
        (
            "cold_build_cpu_ms",
            (|c: &Cycle| c.cold_build_cpu) as fn(&Cycle) -> f64,
        ),
        ("first_answer_cpu_ms", |c| c.first_answer_cpu),
        ("restart_cpu_ms", |c| c.restart_cpu),
        ("cycle_cpu_ms", |c| {
            c.cold_build_cpu + c.first_answer_cpu + c.restart_cpu
        }),
    ] {
        outcome.named.push(Metric::new(
            name,
            "ms",
            cycles.iter().map(f).sum::<f64>() * 1e3 / n as f64,
            format!("matchd CPU, mean of {n} cycles"),
        ));
    }
    outcome.named.push(Metric::new(
        "peak_rss_mb",
        "MB",
        cycles.iter().map(|c| c.peak_rss).fold(f64::NAN, f64::max),
        "highest matchd VmHWM over the cycles' daemons",
    ));
    outcome.named.push(Metric::new(
        "snapshot_mb",
        "MB",
        snapshot_mb,
        "snapshot dir after the last cycle",
    ));

    outcome.checks.push(Check::new(
        "restart_answers_byte_equal",
        if restart_diffs.is_empty() {
            Ok(format!(
                "{n} cycles: post-restart answers equal pre-restart ones"
            ))
        } else {
            Err(format!("post-restart answers differ for {restart_diffs:?}"))
        },
    ));
    outcome.checks.push(Check::new(
        "cycles_agree",
        if answers.windows(2).all(|w| w[0] == w[1]) {
            Ok(format!("{n} cycles served identical first answers"))
        } else {
            Err("cold cycles served different first answers".to_string())
        },
    ));
    let pt = spec(PT).dataset();
    let vi = spec(VI).dataset();
    let [pt_all, vi_all] = &answers[0];
    outcome.checks.push(check_against_reference(
        "pt_align_equals_engine",
        pt.clone(),
        pt_all,
    ));
    outcome.checks.push(check_against_reference(
        "vi_align_equals_engine",
        vi.clone(),
        vi_all,
    ));
    f1_metric(&mut outcome, &[(&pt, pt_all), (&vi, vi_all)])?;
    share_metrics(&mut outcome, &tally);
    outcome.roles = vec![
        ("setup_s", "setup_s".into()),
        ("cpu_ms", "cycle_cpu_ms".into()),
        ("peak_rss_mb", "peak_rss_mb".into()),
        ("ok_share", "ok_share".into()),
        ("align_f1", "align_f1".into()),
    ];
    Ok(outcome)
}

// ---------------------------------------------------------------------
// churn
// ---------------------------------------------------------------------

pub const CHURN_CORPORA: [&str; 6] = [
    "pt-tiny",
    "pt-small",
    "pt-medium",
    "vi-tiny",
    "vi-small",
    "vi-medium",
];

/// The `churn` request sequence: `/align` of [`TYPE`] round-robin over the
/// corpora, each round of six in its own order drawn from the seed. A
/// round never starts with the corpus the previous one ended with, so
/// under [`CHURN_BUDGET_MB`] every request is a cold hit and a round costs
/// the same whatever the order.
pub struct ChurnOrder {
    seed: u64,
}

impl ChurnOrder {
    pub fn new(seed: u64) -> Self {
        ChurnOrder { seed }
    }

    /// The corpus of request `i`.
    pub fn request(&self, i: u64) -> &'static str {
        let n = CHURN_CORPORA.len() as u64;
        self.round(i / n)[(i % n) as usize]
    }

    fn round(&self, r: u64) -> [&'static str; 6] {
        let mut round = self.shuffled(r);
        // The swap never moves a round's last corpus, so the previous
        // round ends as its shuffle does. Set-up serves the corpora in
        // `CHURN_CORPORA` order, so the last of them is resident when the
        // window opens.
        let previous = match r {
            0 => CHURN_CORPORA[5],
            _ => self.shuffled(r - 1)[5],
        };
        if round[0] == previous {
            round.swap(0, 1);
        }
        round
    }

    fn shuffled(&self, r: u64) -> [&'static str; 6] {
        let mut round = CHURN_CORPORA;
        Rng::new(self.seed, 21 + r).shuffle(&mut round);
        round
    }
}

fn cold_share(before: &StatsResponse, after: &StatsResponse) -> (u64, u64) {
    let sum = |s: &StatsResponse| -> (u64, u64) {
        s.registry
            .corpora
            .iter()
            .fold((0, 0), |(h, m), c| (h + c.hits, m + c.misses))
    };
    let (h0, m0) = sum(before);
    let (h1, m1) = sum(after);
    (h1 - h0, m1 - m0)
}

pub fn churn(run: &Run) -> Result<Outcome> {
    let tally = Tally::default();
    let mut outcome = Outcome {
        workload: "churn".to_string(),
        ..Outcome::default()
    };
    common_conditions(&mut outcome, run, "tiny,small,medium");
    // One connection makes the sequence of lookups, and so every load and
    // eviction, a function of the seed alone.
    outcome.condition("loop", "closed, 1 connection");
    outcome.condition("max_resident_mb", CHURN_BUDGET_MB);
    let order = ChurnOrder::new(run.seed);
    let dir = run.work.join("churn-snapshots");
    let config = DaemonConfig {
        tiers: "tiny,small,medium".to_string(),
        snapshot_dir: Some(dir.clone()),
        max_resident_mb: Some(CHURN_BUDGET_MB),
        capacity: Some(CHURN_CORPORA.len()),
        ..DaemonConfig::default()
    };
    type Warm = (HashMap<String, String>, String, String);
    let (daemon, (warm, pt_all, vi_all), setups) =
        repeated_setup(SETUP_REPS, || -> Result<(Daemon, Warm, f64)> {
            fresh_dir(&dir).map_err(err("snapshot dir"))?;
            let start = Instant::now();
            let daemon = Daemon::launch(&run.matchd, &config).map_err(err("launch matchd"))?;
            let mut conn = Conn::new(daemon.addr(), &tally).map_err(err("connect"))?;
            let mut warm = HashMap::new();
            let (mut pt_all, mut vi_all) = (String::new(), String::new());
            // Warming writes each corpus through to a directly-addressable
            // snapshot; its answers are the ones every cold hit must repeat.
            for corpus in CHURN_CORPORA {
                need(conn.warm(corpus), "warm")?;
                let body = need(
                    conn.post("/align", &align_body(corpus, Some(TYPE))),
                    "warm align",
                )?;
                warm.insert(corpus.to_string(), body);
                if corpus == PT || corpus == VI {
                    let all = need(conn.post("/align", &align_body(corpus, None)), "align all")?;
                    if corpus == PT {
                        pt_all = all;
                    } else {
                        vi_all = all;
                    }
                }
            }
            Ok((
                daemon,
                (warm, pt_all, vi_all),
                start.elapsed().as_secs_f64(),
            ))
        })?;
    outcome.named.push(setup_metric(&setups));

    let mut conn = Conn::new(daemon.addr(), &tally).map_err(err("connect"))?;
    let before = conn.stats().ok_or("stats before the window")?;
    let budget = CHURN_BUDGET_MB * 1024 * 1024;
    let mut mismatches = 0u64;
    let mut resident_samples = Vec::new();
    // Latencies and daemon CPU milliseconds, by corpus.
    let mut by_corpus: HashMap<&str, Samples> = HashMap::new();
    let mut cpu_by_corpus: HashMap<&str, Samples> = HashMap::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(run.seconds);
    // Each request is charged the daemon's CPU since the previous one
    // ended, so work it defers is counted too.
    let cpu_start = cpu(&daemon)?;
    let mut cpu_mark = cpu_start;
    let mut sent = 0u64;
    // The window ends with a whole round, so every corpus is served equally
    // often.
    while Instant::now() < deadline || !sent.is_multiple_of(CHURN_CORPORA.len() as u64) {
        let corpus = order.request(sent);
        let reply = conn.post("/align", &align_body(corpus, Some(TYPE)));
        let entry = by_corpus.entry(corpus).or_default();
        match reply.body {
            Some(body) => {
                entry.push(reply.elapsed);
                if warm.get(corpus) != Some(&body) {
                    mismatches += 1;
                }
            }
            None => entry.push_ms(f64::INFINITY),
        }
        let now = cpu(&daemon)?;
        cpu_by_corpus
            .entry(corpus)
            .or_default()
            .push_ms((now - cpu_mark) * 1e3);
        cpu_mark = now;
        sent += 1;
        if sent.is_multiple_of(CHURN_STATS_EVERY) {
            if let Some(stats) = conn.stats() {
                resident_samples.push(stats.registry.resident_bytes);
            }
        }
    }
    let window = start.elapsed().as_secs_f64();
    let window_cpu = cpu_mark - cpu_start;
    let after = conn.stats().ok_or("stats after the window")?;
    let (hits, misses) = cold_share(&before, &after);

    // The registry enforces the budget when a request looks a corpus up;
    // channels that request then pages in can lift the total until the
    // next lookup. Quiesced, a repeated (cached) request of each corpus is
    // a lookup that pages nothing in, so the total it leaves must be
    // within budget (or be a single session: the registry's floor).
    let mut over_at_lookup = Vec::new();
    for corpus in CHURN_CORPORA {
        for _ in 0..2 {
            need(
                conn.post("/align", &align_body(corpus, Some(TYPE))),
                "budget probe",
            )?;
        }
        let stats = conn.stats().ok_or("stats of the budget probe")?;
        if stats.registry.resident_bytes > budget && stats.registry.resident > 1 {
            over_at_lookup.push(format!(
                "{corpus}: {} bytes in {} sessions",
                stats.registry.resident_bytes, stats.registry.resident
            ));
        }
    }
    let peak_rss = daemon.peak_rss_mb().unwrap_or(f64::NAN);
    let snapshot_mb = dir_bytes(&dir) as f64 / 1e6;
    daemon.shutdown().map_err(err("shutdown matchd"))?;

    let mut all = Samples::default();
    for s in by_corpus.values() {
        all.extend(s.clone());
    }
    let mut corpus_p50s = Vec::new();
    for corpus in CHURN_CORPORA {
        if let Some(p) = by_corpus.get(corpus).and_then(|s| s.percentile(50.0)) {
            outcome.condition(
                &format!("p50_ms[{corpus}]"),
                format!("{:.3} (n={})", p.value, p.samples),
            );
            corpus_p50s.push(p.value);
        }
        if let Some(p) = cpu_by_corpus.get(corpus).and_then(|s| s.percentile(50.0)) {
            outcome.condition(
                &format!("cpu_p50_ms[{corpus}]"),
                format!("{:.3} (n={})", p.value, p.samples),
            );
        }
    }
    let over = resident_samples.iter().filter(|&&b| b > budget).count();
    let peak_resident = resident_samples.iter().copied().max().unwrap_or(0);
    outcome.condition("window_s", format!("{window:.3}"));
    outcome.condition(
        "cold_hit_share",
        format!(
            "{:.4} ({misses} misses of {} lookups)",
            misses as f64 / (hits + misses).max(1) as f64,
            hits + misses
        ),
    );
    outcome.condition(
        "resident_samples_over_budget",
        format!(
            "{over} of {} in-window samples (peak {:.2} MB; channels page in after the lookup that enforces the budget)",
            resident_samples.len(),
            peak_resident as f64 / 1048576.0
        ),
    );
    outcome
        .named
        .push(Metric::percentile("churn_p50_ms", all.percentile(50.0)));
    outcome
        .named
        .push(Metric::percentile("churn_p90_ms", all.percentile(90.0)));
    // Six equally frequent corpora put the per-request median in the gap
    // between the third and fourth corpus' latencies, where it jumps
    // between seeds; the median of the per-corpus medians does not.
    outcome.named.push(Metric::new(
        "churn_corpus_p50_ms",
        "ms",
        median(&corpus_p50s),
        format!("median of {} per-corpus medians", corpus_p50s.len()),
    ));
    // Whole rounds hold one cold hit of each corpus, so the window's CPU
    // over its requests does not depend on the order.
    outcome.named.push(Metric::new(
        "churn_cpu_ms",
        "ms",
        window_cpu * 1e3 / sent as f64,
        format!(
            "{window_cpu:.3} s of matchd CPU over {sent} cold hits in {} whole rounds",
            sent / CHURN_CORPORA.len() as u64
        ),
    ));
    outcome.named.push(Metric::new(
        "churn_rps",
        "req/s",
        all.len() as f64 / window,
        format!("{} requests in {window:.2}s", all.len()),
    ));
    outcome.named.push(Metric::new(
        "peak_rss_mb",
        "MB",
        peak_rss,
        "matchd VmHWM at the end of the window",
    ));
    outcome.named.push(Metric::new(
        "snapshot_mb",
        "MB",
        snapshot_mb,
        "snapshot dir at the end of the window",
    ));
    outcome.checks.push(Check::new(
        "cold_hits_equal_warm",
        if mismatches == 0 {
            Ok(format!("{} answers equal the warm answers", all.len()))
        } else {
            Err(format!("{mismatches} answers differ from the warm answers"))
        },
    ));
    outcome.checks.push(Check::new(
        "resident_within_budget",
        if over_at_lookup.is_empty() {
            Ok(format!(
                "every corpus lookup left resident bytes within {CHURN_BUDGET_MB} MB or one session"
            ))
        } else {
            Err(over_at_lookup.join("; "))
        },
    ));
    let pt = spec(PT).dataset();
    let vi = spec(VI).dataset();
    f1_metric(&mut outcome, &[(&pt, &pt_all), (&vi, &vi_all)])?;
    share_metrics(&mut outcome, &tally);
    outcome.roles = vec![
        ("setup_s", "setup_s".into()),
        ("cpu_ms", "churn_cpu_ms".into()),
        ("peak_rss_mb", "peak_rss_mb".into()),
        ("ok_share", "ok_share".into()),
        ("align_f1", "align_f1".into()),
    ];
    Ok(outcome)
}

/// The per-workload work directory, emptied first.
pub fn work_dir(root: &Path, workload: &str) -> Result<PathBuf> {
    let dir = root.join(workload);
    fresh_dir(&dir).map_err(err("work dir"))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_rounds_cover_every_corpus_and_never_repeat_back_to_back() {
        for seed in [1, 7, 501] {
            let order = ChurnOrder::new(seed);
            let n = CHURN_CORPORA.len() as u64;
            let requests: Vec<&str> = (0..60 * n).map(|i| order.request(i)).collect();
            for round in requests.chunks(CHURN_CORPORA.len()) {
                let mut sorted = round.to_vec();
                sorted.sort_unstable();
                let mut all = CHURN_CORPORA.to_vec();
                all.sort_unstable();
                assert_eq!(sorted, all);
            }
            assert!(requests.windows(2).all(|w| w[0] != w[1]));
            assert_ne!(requests[0], CHURN_CORPORA[5]);
        }
    }
}
