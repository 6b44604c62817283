//! The traced run: a workload's generated inputs replayed in process —
//! through `Registry`, the engine and each layer's public functions, and
//! through an in-process `MatchServer` for the serving layer — with a span
//! around every call. It reports, per layer, the span count, busy time and
//! self time, and the counts the program already exposes (`EngineStats`,
//! `/stats`).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use wiki_corpus::{Dataset, Language};
use wiki_obs::LogLevel;
use wiki_query::{CQuery, CorrespondenceDictionary};
use wiki_serve::client::MatchClient;
use wiki_serve::protocol::StatsResponse;
use wiki_serve::registry::{CachedCorpus, CorpusSpec, Registry, RegistryStats};
use wiki_serve::server::{MatchServer, ServerConfig};
use wiki_translate::TitleDictionary;
use wikimatch::alignment::AttributeAlignment;
use wikimatch::schema::CandidateIndex;
use wikimatch::{
    corpus_fingerprint, ComputeMode, CorpusDelta, DeltaJournal, DualSchema, EngineSnapshot,
    MappedSnapshot, MatchEngine, SimilarityTable, WikiMatchConfig,
};

use crate::checks::Check;
use crate::daemon::{fresh_dir, WORKERS};
use crate::measure::{Rng, Samples};
use crate::report::{Metric, Outcome};
use crate::trace::{span_cost_ns, Tracer};
use crate::wire::{align_body, demo_query, matcher_body, mutate_body, translate_body};
use crate::workloads::{
    plan_upserts, spec, ChurnOrder, Result, Run, CHURN_BUDGET_MB, CHURN_CORPORA, CONNECTIONS,
    EDIT_RATE, PT, TYPE, VI,
};

/// Read-mix operations replayed directly against the registry, and again
/// over HTTP.
const READ_OPS: usize = 2000;
/// Upserts replayed through `Registry::mutate`, then through a bare engine,
/// then over HTTP: two compaction cycles each.
const EDIT_OPS: usize = 16;
/// Churn requests replayed directly, and again over HTTP.
const CHURN_OPS: usize = 60;

/// Every per-layer metric: name, unit, the end-to-end metric and workload
/// it should move, and where it should stay idle. Time metrics (`_ms`)
/// are the busy time of the span of the same stem, summed over the replay.
#[rustfmt::skip]
const LAYERS: [(&str, &str, &str, &str); 44] = [
    ("server.queue_wait_ms", "ms", "read_rps, read_p99_ms on read-mix", "cold-start"),
    ("server.parse_ms", "ms", "read_rps, read_p99_ms on read-mix", "cold-start"),
    ("server.serialize_ms", "ms", "read_rps, read_p99_ms on read-mix", "cold-start"),
    ("server.requests", "count", "diagnostic: requests of the HTTP replay", "-"),
    ("server.rejected", "count", "read_p99_ms on read-mix", "every workload (0 at seed)"),
    ("registry.hit_ms", "ms", "write_p90_ms on edit, churn_p50_ms on churn", "read-mix (steady state)"),
    ("registry.mutate_ms", "ms", "write_p50_ms, write_p90_ms on edit", "read-mix, cold-start, churn"),
    ("registry.compactions", "count", "write_p90_ms on edit", "read-mix, cold-start, churn"),
    ("registry.evictions", "count", "churn_p50_ms on churn", "read-mix, edit, cold-start"),
    ("registry.hit_share", "ratio", "churn_p50_ms on churn", "read-mix (1.0)"),
    ("registry.resident_peak_mb", "MB", "peak_rss_mb on churn", "-"),
    ("query.translate_ms", "ms", "read_p99_ms on read-mix", "edit"),
    ("query.dictionary_build_ms", "ms", "first_answer_s on cold-start", "edit"),
    ("corpus.generate_ms", "ms", "write_p90_ms on edit, cold_build_s, churn_p90_ms", "read-mix"),
    ("corpus.fingerprint_ms", "ms", "write_p50_ms on edit", "read-mix"),
    ("translate.title_dictionary_ms", "ms", "cold_build_s on cold-start", "read-mix"),
    ("text.arena_intern_ms", "ms", "cold_build_s on cold-start", "read-mix, churn"),
    ("text.arena_freeze_ms", "ms", "cold_build_s on cold-start", "read-mix, churn"),
    ("schema.build_ms", "ms", "cold_build_s on cold-start", "read-mix"),
    ("schema.attribute_groups", "count", "diagnostic: work done", "-"),
    ("candidate.build_ms", "ms", "cold_build_s on cold-start", "read-mix"),
    ("candidate.pairs", "count", "diagnostic: work done", "-"),
    ("similarity.compute_ms", "ms", "cold_build_s; write_p50_ms on edit", "read-mix"),
    ("similarity.pairs_scored", "count", "cold_build_s on cold-start", "-"),
    ("similarity.pairs_pruned", "count", "cold_build_s on cold-start", "-"),
    ("similarity.scored_share", "ratio", "cold_build_s on cold-start", "-"),
    ("linalg.lsi_fit_ms", "ms", "cold_build_s on cold-start", "read-mix, edit"),
    ("alignment.run_ms", "ms", "fresh_read_p50_ms, first_answer_s, churn_p50_ms", "read-mix"),
    ("alignment.matches", "count", "diagnostic: work done (align_f1 guards the result)", "-"),
    ("delta.apply_ms", "ms", "write_p50_ms on edit", "read-mix, cold-start"),
    ("delta.patch_ms", "ms", "write_p50_ms on edit", "read-mix, cold-start"),
    ("delta.rows_recomputed", "count", "write_p50_ms on edit", "read-mix, cold-start"),
    ("delta.types_patched", "count", "write_p50_ms on edit", "read-mix, cold-start"),
    ("snapshot.encode_ms", "ms", "write_p90_ms on edit, cold_build_s", "read-mix"),
    ("snapshot.decode_ms", "ms", "restart_s on cold-start", "read-mix"),
    ("snapshot.bytes", "bytes", "snapshot_mb, restart_s", "read-mix"),
    ("journal.append_ms", "ms", "write_p50_ms on edit", "read-mix"),
    ("journal.bytes", "bytes", "snapshot_mb on edit", "read-mix"),
    ("direct.encode_ms", "ms", "churn_p90_ms, snapshot_mb on churn", "read-mix, edit"),
    ("mmap.open_ms", "ms", "churn_p50_ms, churn_p90_ms on churn", "read-mix, edit"),
    ("mmap.page_ins", "count", "churn_p50_ms on churn", "read-mix, edit"),
    ("direct.bytes", "bytes", "snapshot_mb on churn", "read-mix, edit"),
    ("loadgen.lag_p90_ms", "ms", "none: diagnostic of the open loop", "-"),
    ("trace.overhead_share", "ratio", "none: diagnostic of the tracer", "-"),
];

/// Count metrics of the replay, by per-layer metric name.
#[derive(Debug, Default)]
struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.0.entry(name).or_default();
        *slot = slot.max(value);
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Requests and registry calls of the replay, and whether each succeeded.
#[derive(Debug, Default)]
struct Ops {
    attempted: u64,
    failed: Vec<String>,
}

impl Ops {
    fn note<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: std::result::Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(err) => {
                self.failed.push(format!("{what}: {err}"));
                None
            }
        }
    }
}

struct Replay<'a> {
    t: Tracer,
    counts: Counts,
    ops: Ops,
    run: &'a Run,
}

pub fn run(workload: &str, run: &Run) -> Result<Outcome> {
    let start = Instant::now();
    let mut replay = Replay {
        t: Tracer::new(workload, start),
        counts: Counts::default(),
        ops: Ops::default(),
        run,
    };
    match workload {
        "read-mix" => read_mix(&mut replay)?,
        "edit" => edit(&mut replay)?,
        "cold-start" => cold_start(&mut replay)?,
        "churn" => churn(&mut replay)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    let overhead = span_cost_ns() * replay.t.span_count() as f64 / wall_ns;
    replay.counts.set("trace.overhead_share", overhead);
    let trace_file = run
        .work
        .join(format!("trace-{workload}-{}.jsonl", run.seed));
    replay
        .t
        .write_jsonl(&trace_file)
        .map_err(|e| format!("write trace: {e}"))?;
    Ok(reduce(workload, run, replay, &trace_file, wall_ns))
}

fn reduce(workload: &str, run: &Run, replay: Replay, trace_file: &Path, wall_ns: f64) -> Outcome {
    let layers = replay.t.layers();
    let mut outcome = Outcome {
        workload: format!("{workload} (traced)"),
        attempted: replay.ops.attempted,
        failed: replay.ops.failed.len() as u64,
        ..Outcome::default()
    };
    outcome.condition(
        "nproc",
        thread::available_parallelism().map_or(0, |n| n.get()),
    );
    outcome.condition("seed", run.seed);
    outcome.condition("replay_s", format!("{:.3}", wall_ns / 1e9));
    outcome.condition("spans", replay.t.span_count());
    outcome.condition("trace_file", trace_file.display());
    for (name, unit, moves, idle) in LAYERS {
        let (value, note) = match name.strip_suffix("_ms") {
            Some(stem) if !replay.counts.0.contains_key(name) => {
                let layer = layers.get(stem).copied().unwrap_or_default();
                (
                    layer.busy_ns as f64 / 1e6,
                    format!(
                        "count={} busy={:.3}ms self={:.3}ms | moves {moves} | idle on {idle}",
                        layer.count,
                        layer.busy_ns as f64 / 1e6,
                        layer.self_ns as f64 / 1e6
                    ),
                )
            }
            _ => (
                replay.counts.get(name),
                format!("| moves {moves} | idle on {idle}"),
            ),
        };
        outcome.layers.push(Metric::new(name, unit, value, note));
    }
    // Spans outside the metric list (the replay's own structure) are
    // printed for the busy/self breakdown only.
    for (name, layer) in &layers {
        if !LAYERS
            .iter()
            .any(|(n, ..)| n.strip_suffix("_ms") == Some(name.as_str()))
        {
            outcome.named.push(Metric::new(
                name,
                "ms",
                layer.busy_ns as f64 / 1e6,
                format!(
                    "span count={} self={:.3}ms",
                    layer.count,
                    layer.self_ns as f64 / 1e6
                ),
            ));
        }
    }
    outcome.checks.push(Check::new(
        "replay_succeeded",
        if replay.ops.failed.is_empty() {
            Ok(format!(
                "{} calls and requests succeeded",
                replay.ops.attempted
            ))
        } else {
            Err(replay.ops.failed.join("; "))
        },
    ));
    outcome
}

// ---------------------------------------------------------------------
// Building blocks
// ---------------------------------------------------------------------

/// The cold build of one corpus, decomposed into each layer's public
/// calls in the order the engine makes them.
fn build_layers(r: &mut Replay, name: &str) -> Dataset {
    let (t, counts) = (&mut r.t, &mut r.counts);
    t.span("bench.build", |t| {
        let dataset = t.span("corpus.generate", |_| spec(name).dataset());
        t.span("corpus.fingerprint", |_| corpus_fingerprint(&dataset));
        let other = dataset.other_language().clone();
        let dictionary = t.span("translate.title_dictionary", |_| {
            TitleDictionary::from_corpus(&dataset.corpus, &other, &Language::En)
        });
        let config = WikiMatchConfig::default();
        for pairing in &dataset.types {
            let schema = t.span_with_phases(
                "schema.build",
                &[
                    ("text.arena_intern", "arena_intern"),
                    ("text.arena_freeze", "arena_freeze"),
                ],
                |_| {
                    DualSchema::build(
                        &dataset.corpus,
                        &other,
                        &pairing.label_other,
                        &pairing.label_en,
                        &dictionary,
                    )
                },
            );
            counts.add("schema.attribute_groups", schema.len() as f64);
            let index = t.span("candidate.build", |_| CandidateIndex::build(&schema));
            counts.add(
                "candidate.pairs",
                (index.value_candidates() + index.link_candidates()) as f64,
            );
            let (table, pairs) = t.span_with_phases(
                "similarity.compute",
                &[("linalg.lsi_fit", "lsi_fit")],
                |_| {
                    SimilarityTable::compute_counted_with_index(
                        &schema,
                        config.lsi,
                        ComputeMode::default(),
                        &index,
                    )
                },
            );
            counts.add("similarity.pairs_scored", pairs.scored as f64);
            counts.add("similarity.pairs_pruned", pairs.pruned as f64);
            let matches = t.span("alignment.run", |_| {
                AttributeAlignment::new(&schema, &table, config).run()
            });
            let (a, b) = &dataset.languages;
            counts.add(
                "alignment.matches",
                matches.cross_language_pairs(&schema, a, b).len() as f64,
            );
        }
        dataset
    })
}

fn scored_share(r: &mut Replay) {
    let scored = r.counts.get("similarity.pairs_scored");
    let pruned = r.counts.get("similarity.pairs_pruned");
    if scored + pruned > 0.0 {
        r.counts
            .set("similarity.scored_share", scored / (scored + pruned));
    }
}

fn registry(
    tiers: &[&str],
    dir: Option<&Path>,
    budget_mb: Option<u64>,
    capacity: usize,
) -> Arc<Registry> {
    let mut registry = Registry::new(capacity, ComputeMode::default());
    if let Some(dir) = dir {
        registry = registry.with_snapshot_dir(dir);
    }
    if let Some(mb) = budget_mb {
        registry = registry.with_resident_budget_mb(mb);
    }
    registry.register_all(CorpusSpec::scale_tiers(tiers));
    Arc::new(registry)
}

fn warm(r: &mut Replay, registry: &Registry, name: &str) -> Option<Arc<CachedCorpus>> {
    let result = r.t.span_with_phases(
        "registry.warm",
        &[
            ("snapshot.spill", "snapshot_encode"),
            ("snapshot.spill", "snapshot_save"),
        ],
        |_| registry.warm(name),
    );
    r.ops.note("registry.warm", result)
}

/// Hits and misses summed over every corpus.
fn lookups(stats: &RegistryStats) -> (u64, u64) {
    stats
        .corpora
        .iter()
        .fold((0, 0), |(h, m), c| (h + c.hits, m + c.misses))
}

fn registry_counts(r: &mut Replay, before: &RegistryStats, after: &RegistryStats) {
    let (h0, m0) = lookups(before);
    let (h1, m1) = lookups(after);
    let (hits, misses) = (h1 - h0, m1 - m0);
    if hits + misses > 0 {
        r.counts
            .set("registry.hit_share", hits as f64 / (hits + misses) as f64);
    }
    let sum = |s: &RegistryStats, f: fn(&wiki_serve::registry::CorpusStats) -> u64| -> u64 {
        s.corpora.iter().map(f).sum()
    };
    r.counts.add(
        "registry.compactions",
        (sum(after, |c| c.compactions) - sum(before, |c| c.compactions)) as f64,
    );
    r.counts.add(
        "registry.evictions",
        (sum(after, |c| c.evictions) - sum(before, |c| c.evictions)) as f64,
    );
    r.counts.max(
        "registry.resident_peak_mb",
        after.resident_bytes as f64 / 1048576.0,
    );
}

/// One request of an HTTP replay.
type Request = (&'static str, String, Option<String>);

/// Replays `requests` over HTTP against an in-process `MatchServer` on
/// `registry`, on `connections` closed-loop client connections (request
/// `i` goes to connection `i % connections`). With `rate`, connection
/// requests are sent no earlier than `i / rate` seconds in, and each
/// request's lateness is recorded (`loadgen.lag_p90_ms`).
fn serve_replay(
    r: &mut Replay,
    registry: Arc<Registry>,
    requests: &[Request],
    connections: usize,
    rate: Option<f64>,
) -> Result<()> {
    let config = ServerConfig {
        workers: WORKERS,
        log_level: LogLevel::Off,
        ..ServerConfig::default()
    };
    let server = MatchServer::start(registry, config).map_err(|e| format!("start server: {e}"))?;
    let addr = server.addr().to_string();
    let counters = |addr: &str| -> Option<StatsResponse> {
        let response = MatchClient::new(addr).ok()?.get("/stats").ok()?;
        response.json().ok()
    };
    let before = counters(&addr).ok_or("stats before the HTTP replay")?;
    let epoch = Instant::now();
    let phases = [
        ("server.queue_wait", "req_queue_wait"),
        ("server.parse", "req_parse"),
        ("server.serialize", "req_serialize"),
    ];
    let workload = r.t.workload.clone();
    let (failures, lag) = r.t.span_with_phases("bench.serve_replay", &phases, |t| {
        let results: Vec<(Tracer, Vec<String>, Samples)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..connections)
                .map(|c| {
                    let (addr, workload) = (&addr, &workload);
                    scope.spawn(move || {
                        let mut tracer = Tracer::new(workload, epoch);
                        let mut failures = Vec::new();
                        let mut lag = Samples::default();
                        let Ok(mut client) = MatchClient::new(addr.as_str()) else {
                            failures.push("connect".to_string());
                            return (tracer, failures, lag);
                        };
                        for (i, (method, path, body)) in
                            requests.iter().enumerate().skip(c).step_by(connections)
                        {
                            if let Some(rate) = rate {
                                let due = epoch + Duration::from_secs_f64(i as f64 / rate);
                                let now = Instant::now();
                                if now < due {
                                    thread::sleep(due - now);
                                }
                                lag.push(Instant::now().saturating_duration_since(due));
                            }
                            let response = tracer.span("serve.request", |_| {
                                client.request(method, path, body.as_deref())
                            });
                            match response {
                                Ok(response) if response.is_success() => {}
                                Ok(response) => {
                                    failures.push(format!("{path}: HTTP {}", response.status))
                                }
                                Err(err) => failures.push(format!("{path}: {err}")),
                            }
                        }
                        (tracer, failures, lag)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay client thread panicked"))
                .collect()
        });
        let mut failures = Vec::new();
        let mut lag = Samples::default();
        for (tracer, f, l) in results {
            t.absorb(tracer);
            failures.extend(f);
            lag.extend(l);
        }
        (failures, lag)
    });
    let after = counters(&addr).ok_or("stats after the HTTP replay")?;
    server.shutdown();
    r.ops.attempted += requests.len() as u64;
    r.ops.failed.extend(failures);
    // The stats request that closes the replay is itself counted.
    r.counts.add(
        "server.requests",
        after
            .server
            .handled
            .saturating_sub(before.server.handled + 1) as f64,
    );
    r.counts.add(
        "server.rejected",
        (after.server.rejected - before.server.rejected) as f64,
    );
    if let Some(p) = lag.percentile(90.0) {
        r.counts.set("loadgen.lag_p90_ms", p.value);
    }
    Ok(())
}

/// A body memoised in the residency's response cache, as the daemon
/// memoises `/align` answers; the alignment runs inside an
/// `alignment.run` span on a miss. The key is the replay's own, so the
/// HTTP replay on the same registry still builds and caches real answers.
fn cached_align(r: &mut Replay, cached: &CachedCorpus, type_id: Option<&str>) -> Option<usize> {
    let key = format!("traced-align|{}", type_id.unwrap_or("*"));
    let t = &mut r.t;
    let body = cached.response(&key, || {
        let engine = cached.engine();
        let pairs: usize = t.span("alignment.run", |_| match type_id {
            Some(type_id) => engine.align(type_id).map_or(0, |a| a.cross_pairs().len()),
            None => engine
                .align_all()
                .iter()
                .map(|a| a.cross_pairs().len())
                .sum(),
        });
        Ok(pairs.to_string())
    });
    let result = body.map(|b| b.len());
    r.ops.note("response", result)
}

fn fresh(dir: &Path) -> Result<()> {
    fresh_dir(dir).map_err(|e| format!("trace dir: {e}"))
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

fn read_mix(r: &mut Replay) -> Result<()> {
    let pt = build_layers(r, PT);
    build_layers(r, VI);
    scored_share(r);
    let registry = registry(&["medium"], None, None, 4);
    let cached = warm(r, &registry, PT).ok_or("warm pt-medium")?;
    warm(r, &registry, VI).ok_or("warm vi-medium")?;

    // The dictionary the first translate-query builds, by layer.
    let alignments = r.t.span("alignment.run", |_| cached.engine().align_all());
    let dictionary = r.t.span("query.dictionary_build", |_| {
        CorrespondenceDictionary::build(&pt, &alignments)
    });
    let query = CQuery::parse(demo_query(PT)).ok_or("demo query does not parse")?;

    let before = registry.stats();
    let offset = Rng::new(r.run.seed, 0).below(20);
    for i in offset..offset + READ_OPS {
        let cached = r.t.span("registry.hit", |_| registry.corpus(PT));
        let Some(cached) = r.ops.note("registry.corpus", cached) else {
            continue;
        };
        match i % 20 {
            0 => {
                cached_align(r, &cached, None);
            }
            3 | 4 => {
                r.t.span("query.translate", |_| dictionary.translate_query(&query));
            }
            5 => {
                r.t.span("registry.stats", |_| registry.stats());
            }
            // Matchers share the alignment path's cached artifacts; the
            // replay answers them like align(type).
            _ => {
                cached_align(r, &cached, Some(TYPE));
            }
        }
    }
    let after = registry.stats();
    registry_counts(r, &before, &after);

    let requests: Vec<Request> = (offset..offset + READ_OPS)
        .map(|i| match i % 20 {
            0 => ("POST", "/align".to_string(), Some(align_body(PT, None))),
            1 | 2 => (
                "POST",
                "/matchers".to_string(),
                Some(matcher_body(PT, TYPE)),
            ),
            3 | 4 => (
                "POST",
                "/translate-query".to_string(),
                Some(translate_body(PT)),
            ),
            5 => ("GET", "/stats".to_string(), None),
            _ => (
                "POST",
                "/align".to_string(),
                Some(align_body(PT, Some(TYPE))),
            ),
        })
        .collect();
    serve_replay(r, registry, &requests, CONNECTIONS, None)
}

fn edit(r: &mut Replay) -> Result<()> {
    let pt = build_layers(r, PT);
    build_layers(r, VI);
    scored_share(r);
    let dir = r.run.work.join("traced-snapshots");
    fresh(&dir)?;
    let registry = registry(&["medium"], Some(&dir), None, 4);
    warm(r, &registry, PT).ok_or("warm pt-medium")?;
    warm(r, &registry, VI).ok_or("warm vi-medium")?;
    let plan = plan_upserts(&pt, r.run.seed, 2 * EDIT_OPS);

    // Through the registry: mutate, then the fresh read of the type.
    let before = registry.stats();
    for upsert in &plan[..EDIT_OPS] {
        let delta = CorpusDelta::upsert(upsert.article.clone());
        let report = r.t.span_with_phases(
            "registry.mutate",
            &[
                ("delta.patch", "delta_patch"),
                ("snapshot.spill", "snapshot_encode"),
                ("snapshot.spill", "snapshot_save"),
            ],
            |_| registry.mutate(PT, &delta),
        );
        if let Some(report) = r.ops.note("registry.mutate", report) {
            r.counts
                .add("delta.rows_recomputed", report.rows_recomputed as f64);
            r.counts
                .add("delta.types_patched", report.types_patched as f64);
        }
        let cached = r.t.span("registry.hit", |_| registry.corpus(PT));
        if let Some(cached) = r.ops.note("registry.corpus", cached) {
            cached_align(r, &cached, Some(&upsert.type_id));
        }
    }
    let after = registry.stats();
    registry_counts(r, &before, &after);

    // The same upserts against a bare engine: the delta, fingerprint,
    // journal and snapshot layers one call at a time.
    let engine = r.t.span("bench.engine_prepare", |_| {
        let engine = MatchEngine::new(Arc::new(pt.clone()));
        engine.prepare_all();
        engine
    });
    let journal_path = dir.join("traced.journal");
    let mut journal = DeltaJournal::new(engine.fingerprint());
    for upsert in &plan[..EDIT_OPS] {
        let delta = CorpusDelta::upsert(upsert.article.clone());
        let report =
            r.t.span_with_phases("delta.apply", &[("delta.patch", "delta_patch")], |_| {
                engine.apply_delta(&delta)
            });
        r.t.span("corpus.fingerprint", |_| {
            corpus_fingerprint(&engine.dataset())
        });
        let record = journal.append(delta, report.fingerprint).clone();
        let appended = r.t.span("journal.append", |_| {
            DeltaJournal::append_record_to(&journal_path, journal.base_fingerprint, &record)
        });
        r.ops.note("journal.append", appended);
    }
    r.counts.set(
        "journal.bytes",
        std::fs::metadata(&journal_path).map_or(0, |m| m.len()) as f64,
    );
    snapshot_roundtrip(r, &engine)?;

    // Over HTTP, open loop at the workload's rate: upsert, fresh read.
    let path = format!("/corpora/{PT}/entities");
    let requests: Vec<Request> = plan[EDIT_OPS..2 * EDIT_OPS]
        .iter()
        .flat_map(|u| {
            [
                ("POST", path.clone(), Some(mutate_body(&u.article))),
                (
                    "POST",
                    "/align".to_string(),
                    Some(align_body(PT, Some(&u.type_id))),
                ),
            ]
        })
        .collect();
    // The open loop on one connection: an upsert comes due every
    // 1 / EDIT_RATE seconds, its fresh read half-way.
    serve_replay(r, registry, &requests, 1, Some(2.0 * EDIT_RATE))
}

/// `snapshot.encode` / `snapshot.decode` of an engine's artifacts.
fn snapshot_roundtrip(r: &mut Replay, engine: &MatchEngine) -> Result<()> {
    let snapshot = EngineSnapshot::capture(engine).map_err(|e| format!("capture: {e}"))?;
    let bytes = r.t.span("snapshot.encode", |_| snapshot.to_bytes());
    r.counts.add("snapshot.bytes", bytes.len() as f64);
    let decoded =
        r.t.span("snapshot.decode", |_| EngineSnapshot::from_bytes(&bytes));
    r.ops.note("snapshot.decode", decoded);
    Ok(())
}

fn cold_start(r: &mut Replay) -> Result<()> {
    let pt = build_layers(r, PT);
    let vi = build_layers(r, VI);
    scored_share(r);
    let dir = r.run.work.join("traced-snapshots");
    fresh(&dir)?;
    let registry = registry(&["medium"], Some(&dir), None, 4);
    for (name, dataset) in [(PT, &pt), (VI, &vi)] {
        let cached = warm(r, &registry, name).ok_or("warm")?;
        // First answers: every type's alignment, then the dictionary and
        // one translation.
        let alignments = r.t.span("alignment.run", |_| cached.engine().align_all());
        let dictionary = r.t.span("query.dictionary_build", |_| {
            CorrespondenceDictionary::build(dataset, &alignments)
        });
        let query = CQuery::parse(demo_query(name)).ok_or("demo query does not parse")?;
        r.t.span("query.translate", |_| dictionary.translate_query(&query));
        snapshot_roundtrip(r, cached.engine())?;
    }
    r.t.span("registry.persist", |_| registry.persist_resident());

    // Restart: a new registry on the persisted dir answers each corpus.
    let restarted = self::registry(&["medium"], Some(&dir), None, 4);
    for name in [PT, VI] {
        let cached = r.t.span_with_phases(
            "registry.load",
            &[
                ("snapshot.decode_owned", "snapshot_decode"),
                ("snapshot.load", "snapshot_load"),
            ],
            |_| restarted.corpus(name),
        );
        if let Some(cached) = r.ops.note("registry.corpus", cached) {
            cached_align(r, &cached, None);
        }
    }
    let requests: Vec<Request> = [PT, VI]
        .iter()
        .flat_map(|c| {
            [
                ("POST", "/align".to_string(), Some(align_body(c, None))),
                (
                    "POST",
                    "/translate-query".to_string(),
                    Some(translate_body(c)),
                ),
            ]
        })
        .collect();
    serve_replay(r, restarted, &requests, 1, None)
}

fn churn(r: &mut Replay) -> Result<()> {
    for name in CHURN_CORPORA {
        build_layers(r, name);
    }
    scored_share(r);
    let dir = r.run.work.join("traced-snapshots");
    fresh(&dir)?;
    let registry = registry(
        &["tiny", "small", "medium"],
        Some(&dir),
        Some(CHURN_BUDGET_MB),
        CHURN_CORPORA.len(),
    );
    for name in CHURN_CORPORA {
        let cached = warm(r, &registry, name).ok_or("warm")?;
        let snapshot =
            EngineSnapshot::capture(cached.engine()).map_err(|e| format!("capture: {e}"))?;
        let bytes = r.t.span("direct.encode", |_| snapshot.to_direct_bytes());
        r.counts.add("direct.bytes", bytes.len() as f64);
    }
    // Background spills of budget evictions may still be writing.
    thread::sleep(Duration::from_millis(200));
    for name in CHURN_CORPORA {
        let opened = r.t.span("mmap.open", |_| {
            MappedSnapshot::open(&dir.join(format!("{name}.snap")))
        });
        r.ops.note("mmap.open", opened);
    }

    let order = ChurnOrder::new(r.run.seed);
    let before = registry.stats();
    for i in 0..CHURN_OPS as u64 {
        let name = order.request(i);
        let cached = r.t.span_with_phases(
            "registry.corpus",
            &[
                ("mmap.map", "snapshot_map"),
                ("mmap.decode", "snapshot_decode_mapped"),
            ],
            |_| registry.corpus(name),
        );
        let Some(cached) = r.ops.note("registry.corpus", cached) else {
            continue;
        };
        let page_ins = cached.engine().stats().page_ins;
        cached_align(r, &cached, Some(TYPE));
        r.counts.add(
            "mmap.page_ins",
            cached.engine().stats().page_ins.saturating_sub(page_ins) as f64,
        );
        let stats = registry.stats();
        r.counts.max(
            "registry.resident_peak_mb",
            stats.resident_bytes as f64 / 1048576.0,
        );
    }
    let after = registry.stats();
    registry_counts(r, &before, &after);

    let requests: Vec<Request> = (CHURN_OPS as u64..2 * CHURN_OPS as u64)
        .map(|i| {
            let name = order.request(i);
            (
                "POST",
                "/align".to_string(),
                Some(align_body(name, Some(TYPE))),
            )
        })
        .collect();
    serve_replay(r, registry, &requests, 1, None)
}
