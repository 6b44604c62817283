//! `AttributeAlignment::run` is an optimised Algorithm 1: it drops queued
//! pairs that provably cannot matter and scores `ReviseUncertain` on packed
//! occurrence patterns. Neither may change the answer, so this suite keeps
//! the textbook formulation — written from the public API only — as an
//! oracle and requires the *same* `MatchSet` (clusters, member order and
//! all), for every type of the pt/vi `tiny` and `small` tiers, under the
//! default configuration and every ablation, over random thresholds, and on
//! degenerate schemas.

use std::sync::OnceLock;

use proptest::prelude::*;

use wikimatch_suite::{wiki_corpus, wiki_linalg, wiki_translate, wikimatch};

use wiki_corpus::{
    Article, AttributeValue, Corpus, Dataset, Infobox, Language, Link, SyntheticConfig,
};
use wiki_linalg::LsiConfig;
use wiki_translate::TitleDictionary;
use wikimatch::config::CandidateOrdering;
use wikimatch::{
    AttributeAlignment, CandidatePair, DualSchema, MatchEngine, MatchSet, SimilarityTable,
    WikiMatchConfig,
};

/// Algorithm 1 with `IntegrateMatches` and `ReviseUncertain` exactly as the
/// paper states them: the full LSI queue, and per-pair cluster filtering
/// with `DualSchema::grouping_score`.
struct Oracle<'a> {
    schema: &'a DualSchema,
    table: &'a SimilarityTable,
    config: WikiMatchConfig,
}

impl Oracle<'_> {
    fn run(&self) -> MatchSet {
        let mut matches = MatchSet::new();
        let mut uncertain = Vec::new();
        for pair in self.ordered_candidates() {
            let evidence = self.evidence(&pair);
            let accept = if self.config.single_step {
                evidence > 0.0
            } else {
                evidence > self.config.t_sim
            };
            if accept {
                self.integrate(&pair, &mut matches);
            } else {
                uncertain.push(pair);
            }
        }
        if self.config.use_revise_uncertain && !self.config.single_step {
            for pair in self.revise_uncertain(&uncertain, &matches) {
                self.integrate(&pair, &mut matches);
            }
        }
        matches
    }

    fn evidence(&self, pair: &CandidatePair) -> f64 {
        let v = if self.config.use_vsim { pair.vsim } else { 0.0 };
        let l = if self.config.use_lsim { pair.lsim } else { 0.0 };
        v.max(l)
    }

    fn ordered_candidates(&self) -> Vec<CandidatePair> {
        match self.config.ordering {
            CandidateOrdering::Lsi => self.table.above_lsi(self.config.t_lsi),
            CandidateOrdering::MaxSimilarity => {
                let mut pairs: Vec<CandidatePair> = self
                    .table
                    .pairs()
                    .iter()
                    .filter(|p| self.evidence(p) > 0.0)
                    .copied()
                    .collect();
                pairs.sort_by(|a, b| {
                    self.evidence(b)
                        .total_cmp(&self.evidence(a))
                        .then_with(|| (a.p, a.q).cmp(&(b.p, b.q)))
                });
                pairs
            }
            CandidateOrdering::Random => {
                let mut pairs = self.table.above_lsi(self.config.t_lsi);
                shuffle(&mut pairs, self.config.ordering_seed);
                pairs
            }
        }
    }

    fn integrate(&self, pair: &CandidatePair, matches: &mut MatchSet) {
        match (matches.cluster_of(pair.p), matches.cluster_of(pair.q)) {
            (None, None) => {
                matches.add_cluster(pair.p, pair.q);
            }
            (Some(cluster), None) => {
                if self.correlated_with_all(pair.q, cluster, matches) {
                    matches.add_to_cluster(cluster, pair.q);
                }
            }
            (None, Some(cluster)) => {
                if self.correlated_with_all(pair.p, cluster, matches) {
                    matches.add_to_cluster(cluster, pair.p);
                }
            }
            (Some(_), Some(_)) => {}
        }
    }

    fn correlated_with_all(&self, attr: usize, cluster: usize, matches: &MatchSet) -> bool {
        !self.config.use_integrate_constraint
            || matches.clusters()[cluster].members.iter().all(|&member| {
                self.table
                    .pair(attr, member)
                    .is_some_and(|p| p.lsi > self.config.t_lsi)
            })
    }

    fn revise_uncertain(
        &self,
        uncertain: &[CandidatePair],
        matches: &MatchSet,
    ) -> Vec<CandidatePair> {
        if !self.config.use_inductive_grouping {
            return uncertain.to_vec();
        }
        let mut revised: Vec<(f64, CandidatePair)> = uncertain
            .iter()
            .filter_map(|pair| {
                if self.evidence(pair) <= 0.0 {
                    return None;
                }
                let score = self.inductive_grouping_score(pair, matches);
                (score > self.config.t_eg).then_some((score, *pair))
            })
            .collect();
        revised.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| (a.1.p, a.1.q).cmp(&(b.1.p, b.1.q)))
        });
        revised.into_iter().map(|(_, pair)| pair).collect()
    }

    fn inductive_grouping_score(&self, pair: &CandidatePair, matches: &MatchSet) -> f64 {
        let (a, b) = (pair.p, pair.q);
        let lang_a = &self.schema.attribute(a).language;
        let lang_b = &self.schema.attribute(b).language;
        let mut total = 0.0;
        let mut count = 0usize;
        for cluster in matches.clusters() {
            let ca: Vec<usize> = cluster
                .members
                .iter()
                .copied()
                .filter(|&m| &self.schema.attribute(m).language == lang_a && m != a)
                .collect();
            let cb: Vec<usize> = cluster
                .members
                .iter()
                .copied()
                .filter(|&m| &self.schema.attribute(m).language == lang_b && m != b)
                .collect();
            for &x in &ca {
                for &y in &cb {
                    let ga = self.schema.grouping_score(a, x);
                    let gb = self.schema.grouping_score(b, y);
                    if ga > 0.0 || gb > 0.0 {
                        total += ga * gb;
                        count += 1;
                    }
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

/// The splitmix64-driven Fisher-Yates shuffle of the random-ordering
/// ablation.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The default configuration and every ablation builder.
fn configurations() -> Vec<(&'static str, WikiMatchConfig)> {
    let base = WikiMatchConfig::default();
    vec![
        ("default", base),
        ("-vsim", base.without_vsim()),
        ("-lsim", base.without_lsim()),
        ("-lsi", base.without_lsi()),
        ("-integrate", base.without_integrate_constraint()),
        ("-inductive", base.without_inductive_grouping()),
        ("-revise", base.without_revise_uncertain()),
        ("single-step", base.single_step()),
        ("random", base.with_random_ordering()),
        (
            "max-similarity",
            WikiMatchConfig {
                ordering: CandidateOrdering::MaxSimilarity,
                ..base
            },
        ),
    ]
}

fn assert_matches_oracle(
    label: &str,
    schema: &DualSchema,
    table: &SimilarityTable,
    config: WikiMatchConfig,
) {
    let expected = Oracle {
        schema,
        table,
        config,
    }
    .run();
    let actual = AttributeAlignment::new(schema, table, config).run();
    assert_eq!(
        actual, expected,
        "{label}: match set diverges from the oracle"
    );
}

fn assert_every_configuration(dataset: Dataset, tier: &str) {
    let engine = MatchEngine::builder(dataset).build();
    for pairing in &engine.dataset().types {
        let schema = engine.schema(&pairing.type_id).unwrap();
        let table = engine.similarity(&pairing.type_id).unwrap();
        for (name, config) in configurations() {
            let label = format!("{tier} {} {name}", pairing.type_id);
            assert_matches_oracle(&label, &schema, &table, config);
        }
    }
}

#[test]
fn every_configuration_matches_the_oracle_on_tiny() {
    assert_every_configuration(Dataset::pt_en(&SyntheticConfig::tiny()), "pt-tiny");
    assert_every_configuration(Dataset::vn_en(&SyntheticConfig::tiny()), "vi-tiny");
}

#[test]
fn every_configuration_matches_the_oracle_on_small() {
    assert_every_configuration(Dataset::pt_en(&SyntheticConfig::small()), "pt-small");
    assert_every_configuration(Dataset::vn_en(&SyntheticConfig::small()), "vi-small");
}

fn pt_tiny() -> &'static MatchEngine {
    static ENGINE: OnceLock<MatchEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let engine = MatchEngine::builder(Dataset::pt_en(&SyntheticConfig::tiny())).build();
        engine.prepare_all();
        engine
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random thresholds — negative `t_sim` included, where zero-evidence
    /// pairs are accepted and must stay in the queue — crossed with the
    /// switches that decide whether such pairs are inert.
    #[test]
    fn random_thresholds_match_the_oracle(
        t_sim in -0.5f64..=1.0,
        t_lsi in -0.3f64..=0.6,
        t_eg in 0.0f64..=1.0,
        switches in 0u32..48,
    ) {
        let engine = pt_tiny();
        let config = WikiMatchConfig {
            t_sim,
            t_lsi,
            t_eg,
            single_step: switches & 1 != 0,
            use_revise_uncertain: switches & 2 == 0,
            use_inductive_grouping: switches & 4 == 0,
            ordering: match switches >> 3 {
                0..=3 => CandidateOrdering::Lsi,
                4 => CandidateOrdering::Random,
                _ => CandidateOrdering::MaxSimilarity,
            },
            ..WikiMatchConfig::default()
        };
        for pairing in &engine.dataset().types {
            let schema = engine.schema(&pairing.type_id).unwrap();
            let table = engine.similarity(&pairing.type_id).unwrap();
            let expected = Oracle { schema: &schema, table: &table, config }.run();
            let actual = AttributeAlignment::new(&schema, &table, config).run();
            prop_assert_eq!(actual, expected);
        }
    }
}

/// Aligns a schema built from `corpus` under every configuration.
fn assert_corpus_matches_oracle(label: &str, corpus: &Corpus) -> DualSchema {
    let dictionary = TitleDictionary::from_corpus(corpus, &Language::Pt, &Language::En);
    let schema = DualSchema::build(corpus, &Language::Pt, "Ator", "Actor", &dictionary);
    let table = SimilarityTable::compute(&schema, LsiConfig::default());
    for (name, config) in configurations() {
        assert_matches_oracle(&format!("{label} {name}"), &schema, &table, config);
    }
    schema
}

/// `n` dual actor infoboxes; the English side carries attributes only when
/// `english_attributes` is set.
fn actor_corpus(n: usize, english_attributes: bool) -> Corpus {
    let mut corpus = Corpus::new();
    for (en, pt) in [("Ireland", "Irlanda"), ("Italy", "Itália")] {
        let mut country = Article::new(en, Language::En, "Country", Infobox::new("c"));
        country.add_cross_link(Language::Pt, pt);
        corpus.insert(country);
        corpus.insert(Article::new(pt, Language::Pt, "Country", Infobox::new("c")));
    }
    for i in 0..n {
        let (country_en, country_pt) = if i % 2 == 0 {
            ("Ireland", "Irlanda")
        } else {
            ("Italy", "Itália")
        };
        let mut en_box = Infobox::new("Infobox Actor");
        if english_attributes {
            en_box.push(AttributeValue::linked(
                "born",
                country_en,
                vec![Link::plain(country_en)],
            ));
            en_box.push(AttributeValue::text("other names", format!("Falcon {i}")));
            if i % 3 == 0 {
                en_box.push(AttributeValue::text("died", format!("{}", 1950 + i)));
            }
        }
        let mut en = Article::new(format!("Actor {i}"), Language::En, "Actor", en_box);
        en.add_cross_link(Language::Pt, format!("Ator {i}"));
        corpus.insert(en);

        let mut pt_box = Infobox::new("Infobox Ator");
        pt_box.push(AttributeValue::linked(
            "nascimento",
            country_pt,
            vec![Link::plain(country_pt)],
        ));
        pt_box.push(AttributeValue::text("outros nomes", format!("Vega {i}")));
        if i % 3 == 0 {
            let name = if i % 2 == 0 { "falecimento" } else { "morte" };
            pt_box.push(AttributeValue::text(name, format!("{}", 1950 + i)));
        }
        let mut pt = Article::new(format!("Ator {i}"), Language::Pt, "Ator", pt_box);
        pt.add_cross_link(Language::En, format!("Actor {i}"));
        corpus.insert(pt);
    }
    corpus
}

#[test]
fn empty_schema_matches_the_oracle() {
    let schema = assert_corpus_matches_oracle("empty", &Corpus::new());
    assert!(schema.is_empty());
    assert_eq!(schema.dual_count, 0);
}

#[test]
fn dual_count_off_the_word_boundary_matches_the_oracle() {
    for n in [1, 63, 64, 65, 70] {
        let schema = assert_corpus_matches_oracle(&format!("{n} duals"), &actor_corpus(n, true));
        assert_eq!(schema.dual_count, n);
    }
}

#[test]
fn one_sided_schema_matches_the_oracle() {
    let schema = assert_corpus_matches_oracle("pt only", &actor_corpus(12, false));
    assert!(!schema.is_empty());
    assert!(schema.attributes_in(&Language::En).is_empty());
}

#[test]
fn schema_with_zero_dual_count_matches_the_oracle() {
    let corpus = actor_corpus(12, true);
    let dictionary = TitleDictionary::from_corpus(&corpus, &Language::Pt, &Language::En);
    let built = DualSchema::build(&corpus, &Language::Pt, "Ator", "Actor", &dictionary);
    let table = SimilarityTable::compute(&built, LsiConfig::default());
    // Attributes but no dual infoboxes: every grouping score is zero, so
    // revision finds nothing, identically on both sides.
    let mut empty_patterns = built.clone();
    empty_patterns.dual_count = 0;
    for attr in &mut empty_patterns.attributes {
        attr.occurrence_pattern.clear();
    }
    // A count that disagrees with the patterns: grouping scores read the
    // patterns, as the boolean definition does.
    let mut stale_count = built.clone();
    stale_count.dual_count = 0;
    for (label, schema) in [
        ("no patterns", empty_patterns),
        ("stale count", stale_count),
    ] {
        for (name, config) in configurations() {
            assert_matches_oracle(&format!("{label} {name}"), &schema, &table, config);
        }
    }
}
