//! String-keyed versus interned similarity kernels across the synthetic
//! corpus scale tiers.
//!
//! This is the benchmark behind the vocabulary-interning tentpole. For each
//! tier it builds the film dual-language schema (whose vectors share the
//! type's [`wiki_text::TermArena`]) and times:
//!
//! * `table/<tier>` — the full pruned [`SimilarityTable`] build on the
//!   interned representation (the end-to-end number; the PR 2 string-keyed
//!   baseline at `medium` was 53.8 ms single-core);
//! * `cosines/interned/<tier>` — the candidate-pair `vsim`+`lsim` sweep on
//!   shared-arena vectors, where every merge-walk step compares two `u32`s;
//! * `cosines/string/<tier>` — the same sweep after re-hosting every vector
//!   on a private per-vector arena, which forces the resolved-string
//!   comparison walk — exactly the work the string-keyed representation
//!   paid per step. Both sweeps are bit-identical in their results (pinned
//!   by `tests/similarity_equivalence.rs`); the gap is pure comparison
//!   cost.
//!
//! The `large` tier is skipped by default to keep `cargo bench` turnaround
//! reasonable. `BENCH_5.json` keeps the historical cross-tier record; the
//! same build is now timed by perfbench's `similarity.compute_ms`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wiki_bench::kernels::{cosine_sweep, SweepInput};
use wiki_corpus::synthetic::SyntheticGenerator;
use wiki_corpus::{Language, SyntheticConfig};
use wiki_linalg::LsiConfig;
use wiki_translate::TitleDictionary;
use wikimatch::schema::CandidateIndex;
use wikimatch::{ComputeMode, DualSchema, SimilarityTable};

/// Builds the film schema of the Pt-En pair for one tier.
fn film_schema(config: &SyntheticConfig) -> DualSchema {
    let generator = SyntheticGenerator::new(*config);
    let (corpus, _) = generator.generate_pair(Language::Pt);
    let dictionary = TitleDictionary::from_corpus(&corpus, &Language::Pt, &Language::En);
    DualSchema::build(&corpus, &Language::Pt, "Filme", "Film", &dictionary)
}

fn bench_interning(c: &mut Criterion) {
    let tiers: [(&str, SyntheticConfig); 3] = [
        ("tiny", SyntheticConfig::tiny()),
        ("small", SyntheticConfig::small()),
        ("medium", SyntheticConfig::medium()),
    ];

    let mut group = c.benchmark_group("interning");
    for (tier, config) in tiers {
        let schema = film_schema(&config);
        let index = CandidateIndex::build(&schema);
        let interned = SweepInput::interned(&schema);
        let detached = SweepInput::detached(&schema);
        // Both walks are the same function over the same candidates.
        assert_eq!(
            cosine_sweep(&index, &interned).to_bits(),
            cosine_sweep(&index, &detached).to_bits()
        );
        eprintln!(
            "tier {tier}: {} attribute groups, {} interned terms",
            schema.len(),
            schema.arena().len()
        );
        group.bench_with_input(BenchmarkId::new("table", tier), &schema, |b, schema| {
            b.iter(|| {
                SimilarityTable::compute_with(
                    std::hint::black_box(schema),
                    LsiConfig::default(),
                    ComputeMode::Pruned,
                )
            })
        });
        group.bench_with_input(
            BenchmarkId::new("cosines/interned", tier),
            &interned,
            |b, input| b.iter(|| cosine_sweep(std::hint::black_box(&index), input)),
        );
        group.bench_with_input(
            BenchmarkId::new("cosines/string", tier),
            &detached,
            |b, input| b.iter(|| cosine_sweep(std::hint::black_box(&index), input)),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_interning
}
criterion_main!(benches);
