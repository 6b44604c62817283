//! Benchmarks for the `MatchEngine` session API: the amortization win of
//! computing the title dictionary and per-type artifacts once per dataset.
//!
//! Two variants of "align every type of the Pt-En dataset":
//!
//! * `engine_cold_session` — build a [`MatchEngine`] (one dictionary) and
//!   run `align_all` with empty caches.
//! * `engine_warm_session` — `align_all` on a session whose per-type
//!   caches are already populated: only the alignment algorithm runs.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use wiki_corpus::{Dataset, SyntheticConfig};
use wikimatch::MatchEngine;

fn bench_engine_amortization(c: &mut Criterion) {
    // One Arc built up front: per-iteration Arc clones are free, so the
    // engine variants measure session work, not corpus copying.
    let dataset: Arc<Dataset> = Arc::new(Dataset::pt_en(&SyntheticConfig::tiny()));

    c.bench_function("align_all/engine_cold_session", |b| {
        b.iter(|| {
            let engine = MatchEngine::builder(Arc::clone(std::hint::black_box(&dataset))).build();
            std::hint::black_box(engine.align_all().len())
        })
    });

    let warm = MatchEngine::builder(Arc::clone(&dataset)).eager().build();
    c.bench_function("align_all/engine_warm_session", |b| {
        b.iter(|| std::hint::black_box(&warm).align_all().len())
    });

    c.bench_function("engine_build/title_dictionary", |b| {
        b.iter(|| MatchEngine::builder(Arc::clone(std::hint::black_box(&dataset))).build())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench_engine_amortization
}
criterion_main!(benches);
