//! The `AttributeAlignment` algorithm (Algorithm 1 of the paper), its
//! `IntegrateMatches` helper (Algorithm 2) and the `ReviseUncertain` step
//! (Section 3.4).
//!
//! The algorithm proceeds in two phases:
//!
//! 1. **Certain phase.** Candidate pairs whose LSI correlation exceeds
//!    `TLSI` are processed in decreasing LSI order. A pair whose
//!    `max(vsim, lsim)` exceeds `Tsim` is a *certain* correspondence and is
//!    integrated into the match set; other pairs are buffered as
//!    *uncertain*. Integration enforces a pairwise-correlation constraint: a
//!    new attribute may join an existing cluster only if its LSI score with
//!    every current member exceeds `TLSI` (this is what keeps `morte` out of
//!    the `born ~ nascimento` cluster in the paper's Example 2).
//! 2. **Revision phase (`ReviseUncertain`).** Buffered uncertain pairs whose
//!    attributes co-occur strongly with already-matched attributes — as
//!    measured by the *inductive grouping score* — are integrated as well,
//!    recovering correct correspondences whose value/link similarity is low
//!    (the `other names ~ outros nomes` case).
//!
//! All the ablation switches of [`WikiMatchConfig`]
//! act here, which is what the component-contribution experiments (Table 3 /
//! Figure 3) exercise.
//!
//! Cost scales with the candidates that carry direct evidence: queued pairs
//! with none are dropped up front whenever they provably cannot change the
//! result, and revision scores pairs against a frozen, language-partitioned
//! view of the clusters with packed occurrence patterns. The result is the
//! same [`MatchSet`], bit for bit, as the textbook formulation
//! (`tests/alignment_equivalence.rs` keeps that formulation as its oracle).

use wiki_corpus::Language;

use crate::config::{CandidateOrdering, WikiMatchConfig};
use crate::matches::MatchSet;
use crate::schema::DualSchema;
use crate::similarity::{
    pack_occurrence_patterns, packed_co_occurrences, CandidatePair, SimilarityTable,
};

/// The attribute-alignment algorithm over one dual-language schema.
#[derive(Debug, Clone)]
pub struct AttributeAlignment<'a> {
    schema: &'a DualSchema,
    table: &'a SimilarityTable,
    config: WikiMatchConfig,
}

impl<'a> AttributeAlignment<'a> {
    /// Creates the aligner for a schema and its similarity table.
    pub fn new(
        schema: &'a DualSchema,
        table: &'a SimilarityTable,
        config: WikiMatchConfig,
    ) -> Self {
        Self {
            schema,
            table,
            config,
        }
    }

    /// Runs the full algorithm and returns the set of matches.
    pub fn run(&self) -> MatchSet {
        let _span = wiki_obs::Span::enter("align");
        let mut matches = MatchSet::new();
        let mut uncertain: Vec<CandidatePair> = Vec::new();

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

    /// The direct-evidence score used to accept a candidate, honouring the
    /// feature-ablation switches.
    fn evidence(&self, pair: &CandidatePair) -> f64 {
        let v = if self.config.use_vsim { pair.vsim } else { 0.0 };
        let l = if self.config.use_lsim { pair.lsim } else { 0.0 };
        v.max(l)
    }

    /// Builds the candidate queue: pairs above `TLSI`, ordered according to
    /// the configuration, without the pairs
    /// [`zero_evidence_is_inert`] allows dropping.
    fn ordered_candidates(&self) -> Vec<CandidatePair> {
        let inert = zero_evidence_is_inert(&self.config);
        let keep = |pair: &CandidatePair| !(inert && self.evidence(pair) <= 0.0);
        match self.config.ordering {
            // Filtering before the sort keeps the survivors' relative
            // order: the comparator is a total order.
            CandidateOrdering::Lsi => self.table.above_lsi_where(self.config.t_lsi, keep),
            CandidateOrdering::MaxSimilarity => {
                let mut pairs: Vec<CandidatePair> = self
                    .table
                    .pairs()
                    .iter()
                    .filter(|p| self.evidence(p) > 0.0)
                    .copied()
                    .collect();
                // `total_cmp` for a NaN-safe total order: equal-evidence
                // pairs fall through to the attribute indices, so the queue
                // is identical across runs and platforms.
                pairs.sort_by(|a, b| {
                    self.evidence(b)
                        .total_cmp(&self.evidence(a))
                        .then_with(|| (a.p, a.q).cmp(&(b.p, b.q)))
                });
                pairs
            }
            CandidateOrdering::Random => {
                // The permutation depends on the queue length: shuffle the
                // full queue, then filter.
                let mut pairs = self.table.above_lsi(self.config.t_lsi);
                deterministic_shuffle(&mut pairs, self.config.ordering_seed);
                pairs.retain(keep);
                pairs
            }
        }
    }

    /// `IntegrateMatches` (Algorithm 2): decides whether the candidate pair
    /// creates a new cluster, extends an existing one, or is ignored.
    fn integrate(&self, pair: &CandidatePair, matches: &mut MatchSet) {
        let in_p = matches.cluster_of(pair.p);
        let in_q = matches.cluster_of(pair.q);
        match (in_p, in_q) {
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
            // Both attributes already matched (possibly in different
            // clusters): the paper's algorithm leaves them untouched.
            (Some(_), Some(_)) => {}
        }
    }

    /// The pairwise-correlation constraint of `IntegrateMatches`: the new
    /// attribute must have an LSI score above `TLSI` with every member of
    /// the target cluster. Disabled by the `-IntegrateMatches` ablation.
    fn correlated_with_all(&self, attr: usize, cluster: usize, matches: &MatchSet) -> bool {
        if !self.config.use_integrate_constraint {
            return true;
        }
        matches.clusters()[cluster].members.iter().all(|&member| {
            self.table
                .pair(attr, member)
                .map(|p| p.lsi > self.config.t_lsi)
                .unwrap_or(false)
        })
    }

    /// `ReviseUncertain`: selects the buffered pairs whose attributes are
    /// strongly co-grouped with already-matched attributes.
    fn revise_uncertain(
        &self,
        uncertain: &[CandidatePair],
        matches: &MatchSet,
    ) -> Vec<CandidatePair> {
        if !self.config.use_inductive_grouping {
            return uncertain.to_vec();
        }
        // `matches` is frozen while scoring, so its language partition is
        // built once for every pair.
        let scorer = GroupingScorer::new(self.schema, matches);
        let mut revised: Vec<(f64, CandidatePair)> = uncertain
            .iter()
            .filter_map(|pair| {
                // Revision reinforces *weak* evidence; pairs with no direct
                // evidence at all (zero value and link similarity) stay
                // rejected regardless of how well they co-occur with the
                // existing matches.
                if self.evidence(pair) <= 0.0 {
                    return None;
                }
                let score = scorer.inductive_grouping_score(pair.p, pair.q);
                (score > self.config.t_eg).then_some((score, *pair))
            })
            .collect();
        // Integrate the strongest revisions first; `total_cmp` plus the
        // attribute-index key keeps the order stable even for tied (or
        // pathological) grouping scores.
        revised.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| (a.1.p, a.1.q).cmp(&(b.1.p, b.1.q)))
        });
        revised.into_iter().map(|(_, pair)| pair).collect()
    }
}

/// True when a queued pair without direct evidence (`evidence <= 0`)
/// cannot change the match set, so the queue may leave it out:
///
/// * the certain phase never accepts it — `single_step` needs positive
///   evidence, otherwise `t_sim >= 0` does the same;
/// * the revision phase never integrates it — revision is off, or
///   inductive grouping discards such pairs before scoring.
///
/// The pair would only ever sit in the uncertain buffer.
fn zero_evidence_is_inert(config: &WikiMatchConfig) -> bool {
    let never_certain = config.single_step || config.t_sim >= 0.0;
    let never_revised =
        config.single_step || !config.use_revise_uncertain || config.use_inductive_grouping;
    never_certain && never_revised
}

/// The match set as `ReviseUncertain` reads it: each cluster's members
/// split by language (member order kept), plus every attribute's
/// occurrence pattern packed into `u64` words, so `g(p, q)` is an AND and a
/// popcount and scoring a pair allocates nothing.
struct GroupingScorer {
    /// Language class of each attribute (index into the distinct languages).
    language: Vec<usize>,
    /// Number of distinct languages.
    languages: usize,
    clusters: usize,
    /// Members of cluster `c` in language class `l` are
    /// `members[offsets[c * languages + l]..offsets[c * languages + l + 1]]`.
    members: Vec<usize>,
    offsets: Vec<usize>,
    occurrences: Vec<usize>,
    bits: Vec<Vec<u64>>,
}

impl GroupingScorer {
    fn new(schema: &DualSchema, matches: &MatchSet) -> Self {
        let mut distinct: Vec<&Language> = Vec::new();
        let language: Vec<usize> = schema
            .attributes
            .iter()
            .map(
                |attr| match distinct.iter().position(|l| **l == attr.language) {
                    Some(class) => class,
                    None => {
                        distinct.push(&attr.language);
                        distinct.len() - 1
                    }
                },
            )
            .collect();
        let languages = distinct.len();
        let mut members = Vec::new();
        let mut offsets = vec![0];
        for cluster in matches.clusters() {
            for class in 0..languages {
                members.extend(cluster.members.iter().filter(|&&m| language[m] == class));
                offsets.push(members.len());
            }
        }
        Self {
            language,
            languages,
            clusters: matches.len(),
            members,
            offsets,
            occurrences: schema.attributes.iter().map(|a| a.occurrences).collect(),
            bits: pack_occurrence_patterns(schema),
        }
    }

    /// Members of `cluster` in language class `class`, in cluster order.
    fn part(&self, cluster: usize, class: usize) -> &[usize] {
        let slot = cluster * self.languages + class;
        &self.members[self.offsets[slot]..self.offsets[slot + 1]]
    }

    /// `DualSchema::grouping_score` on the packed patterns: the same
    /// integer co-occurrence count, so the same `f64`.
    fn grouping_score(&self, p: usize, q: usize) -> f64 {
        let denom = self.occurrences[p].min(self.occurrences[q]);
        if denom == 0 {
            return 0.0;
        }
        packed_co_occurrences(&self.bits[p], &self.bits[q]) as f64 / denom as f64
    }

    /// The inductive grouping score `eg(a, b)` of Section 3.4: the average
    /// product of grouping scores between each attribute and the matched
    /// attributes it co-occurs with in its own language, restricted to
    /// matched attribute pairs `(x ~ y)` that belong to the same cluster.
    ///
    /// Pairs are visited cluster by cluster, then `x`, then `y`, each in
    /// member order, so the sum is accumulated in one fixed order.
    fn inductive_grouping_score(&self, a: usize, b: usize) -> f64 {
        let (class_a, class_b) = (self.language[a], self.language[b]);
        let mut total = 0.0;
        let mut count = 0usize;
        for cluster in 0..self.clusters {
            let ys = self.part(cluster, class_b);
            for &x in self.part(cluster, class_a) {
                if x == a {
                    continue;
                }
                let ga = self.grouping_score(a, x);
                for &y in ys {
                    if y == b {
                        continue;
                    }
                    let gb = self.grouping_score(b, y);
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

/// Deterministic Fisher-Yates shuffle driven by a splitmix64 stream; used by
/// the random-ordering ablation so results stay reproducible.
fn deterministic_shuffle<T>(items: &mut [T], seed: u64) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use wiki_corpus::{Article, AttributeValue, Corpus, Infobox, Language, Link};
    use wiki_linalg::LsiConfig;
    use wiki_translate::TitleDictionary;

    /// A corpus engineered so that:
    /// * `born`/`nascimento` is a certain match (shared values),
    /// * `directed by`/`direção` is a certain match (shared links),
    /// * `other names`/`outros nomes` is correct but value-dissimilar
    ///   (uncertain: values are unrelated free text), and
    /// * `died`/`falecimento`/`morte` includes an intra-language synonym.
    fn corpus() -> Corpus {
        let mut corpus = Corpus::new();
        let countries = [("United States", "Estados Unidos"), ("Ireland", "Irlanda")];
        for (en, pt) in countries {
            let mut a = Article::new(en, Language::En, "Country", Infobox::new("c"));
            a.add_cross_link(Language::Pt, pt);
            corpus.insert(a);
            corpus.insert(Article::new(pt, Language::Pt, "Country", Infobox::new("c")));
        }
        let mut person = Article::new("Some Director", Language::En, "Person", Infobox::new("p"));
        person.add_cross_link(Language::Pt, "Some Director");
        corpus.insert(person);
        corpus.insert(Article::new(
            "Some Director",
            Language::Pt,
            "Person",
            Infobox::new("p"),
        ));

        for i in 0..8 {
            let country = countries[i % 2];
            let mut en_box = Infobox::new("Infobox Actor");
            en_box.push(AttributeValue::linked(
                "born",
                country.0,
                vec![Link::plain(country.0)],
            ));
            en_box.push(AttributeValue::linked(
                "directed by",
                "Some Director",
                vec![Link::plain("Some Director")],
            ));
            en_box.push(AttributeValue::text("other names", format!("Falcon {i}")));
            if i < 4 {
                en_box.push(AttributeValue::text("died", format!("{}", 1990 + i)));
            }
            let mut en = Article::new(format!("Actor {i}"), Language::En, "Actor", en_box);
            en.add_cross_link(Language::Pt, format!("Ator {i}"));

            let mut pt_box = Infobox::new("Infobox Ator");
            pt_box.push(AttributeValue::linked(
                "nascimento",
                country.1,
                vec![Link::plain(country.1)],
            ));
            pt_box.push(AttributeValue::linked(
                "direção",
                "Some Director",
                vec![Link::plain("Some Director")],
            ));
            // Mostly different alias strings: value similarity is positive
            // but far below the certainty threshold, so the pair can only be
            // recovered by ReviseUncertain.
            let alias = if i == 0 {
                "Falcon 0".to_string()
            } else {
                format!("Vega {i}")
            };
            pt_box.push(AttributeValue::text("outros nomes", alias));
            if i < 4 {
                let name = if i % 2 == 0 { "falecimento" } else { "morte" };
                pt_box.push(AttributeValue::text(name, format!("{}", 1990 + i)));
            }
            let mut pt = Article::new(format!("Ator {i}"), Language::Pt, "Ator", pt_box);
            pt.add_cross_link(Language::En, format!("Actor {i}"));
            corpus.insert(en);
            corpus.insert(pt);
        }
        corpus
    }

    fn setup(config: WikiMatchConfig) -> (DualSchema, MatchSet) {
        let corpus = corpus();
        let dict = TitleDictionary::from_corpus(&corpus, &Language::Pt, &Language::En);
        let schema = DualSchema::build(&corpus, &Language::Pt, "Ator", "Actor", &dict);
        let table = SimilarityTable::compute(&schema, LsiConfig::default());
        let matches = AttributeAlignment::new(&schema, &table, config).run();
        (schema, matches)
    }

    fn has_pair(schema: &DualSchema, matches: &MatchSet, pt: &str, en: &str) -> bool {
        matches
            .cross_language_pairs(schema, &Language::Pt, &Language::En)
            .contains(&(pt.to_string(), en.to_string()))
    }

    #[test]
    fn finds_certain_value_and_link_matches() {
        let (schema, matches) = setup(WikiMatchConfig::default());
        // Derived pairs use normalised labels ("direcao", not "direção").
        assert!(has_pair(&schema, &matches, "nascimento", "born"));
        assert!(has_pair(&schema, &matches, "direcao", "directed by"));
    }

    #[test]
    fn revise_uncertain_recovers_low_similarity_matches() {
        let with = setup(WikiMatchConfig::default());
        let without = setup(WikiMatchConfig::default().without_revise_uncertain());
        // The alias attribute has disjoint values, so it can only be found by
        // the revision phase.
        assert!(has_pair(&with.0, &with.1, "outros nomes", "other names"));
        assert!(!has_pair(
            &without.0,
            &without.1,
            "outros nomes",
            "other names"
        ));
        // Removing the phase never *adds* correspondences.
        let n_with = with
            .1
            .cross_language_pairs(&with.0, &Language::Pt, &Language::En)
            .len();
        let n_without = without
            .1
            .cross_language_pairs(&without.0, &Language::Pt, &Language::En)
            .len();
        assert!(n_with >= n_without);
    }

    #[test]
    fn incorrect_cross_pairs_are_not_produced() {
        let (schema, matches) = setup(WikiMatchConfig::default());
        assert!(!has_pair(&schema, &matches, "direção", "born"));
        assert!(!has_pair(&schema, &matches, "nascimento", "directed by"));
        assert!(!has_pair(&schema, &matches, "outros nomes", "born"));
    }

    #[test]
    fn single_step_accepts_any_positive_evidence() {
        let (schema, single) = setup(WikiMatchConfig::default().single_step());
        let pairs = single.cross_language_pairs(&schema, &Language::Pt, &Language::En);
        // The single-step ablation accepts every candidate with positive
        // vsim/lsim, so the strongly corroborated matches are still present…
        assert!(pairs.contains(&("nascimento".to_string(), "born".to_string())));
        assert!(pairs.contains(&("direcao".to_string(), "directed by".to_string())));
        // …and weakly corroborated (date-overlap) pairs are accepted too,
        // which is what erodes precision in the paper's Table 3.
        assert!(
            pairs
                .iter()
                .any(|(pt, en)| en == "died" && (pt == "falecimento" || pt == "morte")),
            "expected a death-date pair among {pairs:?}"
        );
    }

    #[test]
    fn random_ordering_is_deterministic_per_seed() {
        let config = WikiMatchConfig::default().with_random_ordering();
        let (schema_a, a) = setup(config);
        let (_, b) = setup(config);
        assert_eq!(
            a.cross_language_pairs(&schema_a, &Language::Pt, &Language::En),
            b.cross_language_pairs(&schema_a, &Language::Pt, &Language::En)
        );
    }

    #[test]
    fn ablations_do_not_panic_and_stay_consistent() {
        for config in [
            WikiMatchConfig::default().without_vsim(),
            WikiMatchConfig::default().without_lsim(),
            WikiMatchConfig::default().without_lsi(),
            WikiMatchConfig::default().without_integrate_constraint(),
            WikiMatchConfig::default().without_inductive_grouping(),
        ] {
            let (schema, matches) = setup(config);
            for (pt, en) in matches.cross_language_pairs(&schema, &Language::Pt, &Language::En) {
                // Every reported pair references attributes that exist.
                assert!(schema.index_of(&Language::Pt, &pt).is_some());
                assert!(schema.index_of(&Language::En, &en).is_some());
            }
        }
    }

    #[test]
    fn packed_grouping_score_is_the_boolean_definition() {
        use crate::engine::MatchEngine;
        use wiki_corpus::{Dataset, SyntheticConfig};

        let engine = MatchEngine::builder(Dataset::pt_en(&SyntheticConfig::tiny())).build();
        let schema = engine.schema("film").expect("film type exists");
        let scorer = GroupingScorer::new(&schema, &MatchSet::new());
        for p in 0..schema.len() {
            for q in 0..schema.len() {
                assert_eq!(
                    scorer.grouping_score(p, q).to_bits(),
                    schema.grouping_score(p, q).to_bits(),
                    "g({p}, {q})"
                );
            }
        }
    }

    #[test]
    fn zero_evidence_pairs_stay_queued_only_when_they_can_matter() {
        let inert = |config: WikiMatchConfig| zero_evidence_is_inert(&config);
        let base = WikiMatchConfig::default();
        assert!(inert(base));
        assert!(inert(base.without_revise_uncertain()));
        assert!(inert(base.single_step()));
        // Negative `t_sim` accepts zero evidence as certain.
        assert!(!inert(WikiMatchConfig {
            t_sim: -0.1,
            ..base
        }));
        // Without inductive grouping, revision integrates every buffered pair.
        assert!(!inert(base.without_inductive_grouping()));
        assert!(inert(
            base.without_inductive_grouping().without_revise_uncertain()
        ));
    }

    #[test]
    fn deterministic_shuffle_is_stable() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b: Vec<u32> = (0..20).collect();
        deterministic_shuffle(&mut a, 5);
        deterministic_shuffle(&mut b, 5);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..20).collect();
        deterministic_shuffle(&mut c, 6);
        assert_ne!(a, c);
    }
}
