//! Gold-standard attribute correspondences.
//!
//! In the paper a bilingual expert labelled every cross-language attribute
//! pair of every entity type as correct or incorrect (315 alignments for
//! Pt-En, 160 for Vn-En). In this reproduction the synthetic generator plays
//! the role of the expert: it knows which language-independent *concept*
//! each surface attribute name was generated from, so a pair of attribute
//! names is a correct alignment exactly when their concept sets intersect.
//! One-to-many gold alignments arise naturally from intra-language synonyms
//! (e.g. *died* ↔ *falecimento* and *died* ↔ *morte*).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use crate::lang::Language;

/// A surface attribute name observed in the corpus together with the
/// concepts it can denote (more than one concept = polysemy).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributeSense {
    /// Language the surface name belongs to.
    pub language: Language,
    /// Normalised surface name.
    pub name: String,
    /// Concept identifiers this name was generated from.
    pub concepts: BTreeSet<String>,
}

/// Gold alignments for one entity type.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TypeGroundTruth {
    /// Entity-type identifier (language independent).
    pub type_id: String,
    /// Observed attribute senses, in first-seen order.
    pub senses: Vec<AttributeSense>,
    /// Position in `senses` of each `(language, normalised name)`. Derived
    /// from `senses`, so it is not serialised; [`Self::add_sense`] rebuilds
    /// it when it has fallen out of step (after deserialisation, or when
    /// `senses` was extended directly).
    #[serde(skip)]
    index: HashMap<(Language, String), usize>,
}

impl TypeGroundTruth {
    /// An empty ground truth for the type `type_id`.
    pub fn new(type_id: &str) -> Self {
        Self {
            type_id: type_id.to_string(),
            ..Self::default()
        }
    }

    /// Registers that `name` (in `language`) was used for `concept`.
    ///
    /// Names are stored in normalised form (see
    /// [`wiki_text::normalize_label`]). A name seen for the first time
    /// appends a sense; a name that normalises to an already-seen one adds
    /// `concept` to that sense, so repeated registrations are no-ops.
    /// Expected O(1): the sense is found through an index, not a scan.
    pub fn add_sense(&mut self, language: Language, name: &str, concept: &str) {
        if self.index.len() != self.senses.len() {
            self.index.clear();
            for (i, sense) in self.senses.iter().enumerate() {
                self.index
                    .entry((sense.language.clone(), sense.name.clone()))
                    .or_insert(i);
            }
        }
        let key = (language, wiki_text::normalize_label(name));
        let slot = match self.index.get(&key) {
            Some(&slot) => slot,
            None => {
                let slot = self.senses.len();
                self.senses.push(AttributeSense {
                    language: key.0.clone(),
                    name: key.1.clone(),
                    concepts: BTreeSet::new(),
                });
                self.index.insert(key, slot);
                slot
            }
        };
        let concepts = &mut self.senses[slot].concepts;
        if !concepts.contains(concept) {
            concepts.insert(concept.to_string());
        }
    }

    /// The concepts a surface name can denote (empty set when unknown).
    ///
    /// The lookup is tolerant: the name is normalised (lowercased,
    /// diacritics folded) before matching, so callers may pass either the
    /// raw surface form ("Direção") or the normalised one ("direcao").
    pub fn concepts_of(&self, language: &Language, name: &str) -> BTreeSet<String> {
        let wanted = wiki_text::normalize_label(name);
        self.senses
            .iter()
            .find(|s| &s.language == language && s.name == wanted)
            .map(|s| s.concepts.clone())
            .unwrap_or_default()
    }

    /// Whether `(a, b)` is a correct alignment (the names share a concept).
    pub fn is_correct(&self, lang_a: &Language, a: &str, lang_b: &Language, b: &str) -> bool {
        let ca = self.concepts_of(lang_a, a);
        if ca.is_empty() {
            return false;
        }
        let cb = self.concepts_of(lang_b, b);
        ca.intersection(&cb).next().is_some()
    }

    /// All observed attribute names of a language, sorted.
    pub fn attributes_in(&self, language: &Language) -> Vec<String> {
        let mut names: Vec<String> = self
            .senses
            .iter()
            .filter(|s| &s.language == language)
            .map(|s| s.name.clone())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// The gold correspondents of `name` (in `lang_a`) among the attributes
    /// of `lang_b`.
    pub fn correspondents(&self, lang_a: &Language, name: &str, lang_b: &Language) -> Vec<String> {
        let concepts = self.concepts_of(lang_a, name);
        if concepts.is_empty() {
            return Vec::new();
        }
        let mut out: Vec<String> = self
            .senses
            .iter()
            .filter(|s| &s.language == lang_b)
            .filter(|s| s.concepts.intersection(&concepts).next().is_some())
            .map(|s| s.name.clone())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// All gold cross-language pairs `(a in l1, b in l2)`, sorted.
    pub fn gold_cross_pairs(&self, l1: &Language, l2: &Language) -> Vec<(String, String)> {
        let mut pairs = Vec::new();
        for a in self.attributes_in(l1) {
            for b in self.correspondents(l1, &a, l2) {
                pairs.push((a.clone(), b));
            }
        }
        pairs.sort();
        pairs.dedup();
        pairs
    }
}

/// Gold alignments for every entity type of a generated dataset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GroundTruth {
    types: BTreeMap<String, TypeGroundTruth>,
}

impl GroundTruth {
    /// Creates an empty ground truth.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a sense for `(type_id, language, name, concept)`.
    pub fn add_sense(&mut self, type_id: &str, language: Language, name: &str, concept: &str) {
        self.types
            .entry(type_id.to_string())
            .or_insert_with(|| TypeGroundTruth::new(type_id))
            .add_sense(language, name, concept);
    }

    /// Adds the gold alignments of one type, replacing any earlier ones of
    /// the same `type_id`.
    pub fn insert_type(&mut self, truth: TypeGroundTruth) {
        self.types.insert(truth.type_id.clone(), truth);
    }

    /// The per-type gold alignments, if the type is known.
    pub fn for_type(&self, type_id: &str) -> Option<&TypeGroundTruth> {
        self.types.get(type_id)
    }

    /// Iterates over all type ids (sorted).
    pub fn type_ids(&self) -> impl Iterator<Item = &str> {
        self.types.keys().map(|s| s.as_str())
    }

    /// Total number of gold cross-language pairs over all types.
    pub fn total_cross_pairs(&self, l1: &Language, l2: &Language) -> usize {
        self.types
            .values()
            .map(|t| t.gold_cross_pairs(l1, l2).len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GroundTruth {
        let mut gt = GroundTruth::new();
        gt.add_sense("actor", Language::En, "born", "birth_date");
        gt.add_sense("actor", Language::En, "born", "birth_place");
        gt.add_sense("actor", Language::En, "died", "death_date");
        gt.add_sense("actor", Language::Pt, "nascimento", "birth_date");
        gt.add_sense("actor", Language::Pt, "falecimento", "death_date");
        gt.add_sense("actor", Language::Pt, "morte", "death_date");
        gt.add_sense("actor", Language::Pt, "local de nascimento", "birth_place");
        gt
    }

    #[test]
    fn correctness_requires_shared_concept() {
        let gt = sample();
        let actor = gt.for_type("actor").unwrap();
        assert!(actor.is_correct(&Language::En, "born", &Language::Pt, "nascimento"));
        assert!(actor.is_correct(&Language::En, "died", &Language::Pt, "morte"));
        assert!(!actor.is_correct(&Language::En, "born", &Language::Pt, "morte"));
        assert!(!actor.is_correct(&Language::En, "unknown", &Language::Pt, "morte"));
    }

    #[test]
    fn polysemy_yields_multiple_correspondents() {
        let gt = sample();
        let actor = gt.for_type("actor").unwrap();
        let corr = actor.correspondents(&Language::En, "born", &Language::Pt);
        assert_eq!(corr, vec!["local de nascimento", "nascimento"]);
        // One-to-many through intra-language synonymy.
        let corr = actor.correspondents(&Language::En, "died", &Language::Pt);
        assert_eq!(corr, vec!["falecimento", "morte"]);
    }

    #[test]
    fn gold_pairs_enumerated() {
        let gt = sample();
        let actor = gt.for_type("actor").unwrap();
        let pairs = actor.gold_cross_pairs(&Language::En, &Language::Pt);
        assert_eq!(pairs.len(), 4);
        assert!(pairs.contains(&("died".into(), "falecimento".into())));
        assert_eq!(gt.total_cross_pairs(&Language::En, &Language::Pt), 4);
    }

    #[test]
    fn attributes_in_language_sorted_and_deduped() {
        let gt = sample();
        let actor = gt.for_type("actor").unwrap();
        assert_eq!(actor.attributes_in(&Language::En), vec!["born", "died"]);
        assert_eq!(actor.attributes_in(&Language::Vn), Vec::<String>::new());
    }

    #[test]
    fn duplicate_sense_registration_is_idempotent() {
        let mut gt = sample();
        gt.add_sense("actor", Language::En, "born", "birth_date");
        let actor = gt.for_type("actor").unwrap();
        let born: Vec<_> = actor
            .senses
            .iter()
            .filter(|s| s.name == "born" && s.language == Language::En)
            .collect();
        assert_eq!(born.len(), 1);
        assert_eq!(born[0].concepts.len(), 2);
    }

    fn sense_names(truth: &TypeGroundTruth) -> Vec<(Language, &str)> {
        truth
            .senses
            .iter()
            .map(|s| (s.language.clone(), s.name.as_str()))
            .collect()
    }

    #[test]
    fn sense_index_keeps_first_seen_order() {
        let mut truth = TypeGroundTruth::new("film");
        truth.add_sense(Language::Pt, "direção", "director");
        truth.add_sense(Language::En, "starring", "cast");
        truth.add_sense(Language::Pt, "elenco", "cast");
        truth.add_sense(Language::En, "directed by", "director");
        // A later concept of an early name does not move the sense.
        truth.add_sense(Language::Pt, "direção", "producer");
        assert_eq!(
            sense_names(&truth),
            vec![
                (Language::Pt, "direcao"),
                (Language::En, "starring"),
                (Language::Pt, "elenco"),
                (Language::En, "directed by"),
            ]
        );
        // The same name in two languages is two senses.
        truth.add_sense(Language::En, "elenco", "cast");
        assert_eq!(truth.senses.len(), 5);
        assert_eq!(truth.senses[4].language, Language::En);
    }

    #[test]
    fn sense_index_merges_surfaces_with_one_normalised_name() {
        let mut truth = TypeGroundTruth::new("film");
        truth.add_sense(Language::Pt, "Direção", "director");
        truth.add_sense(Language::Pt, "direcao", "producer");
        truth.add_sense(Language::Pt, "DIREÇÃO", "director");
        assert_eq!(sense_names(&truth), vec![(Language::Pt, "direcao")]);
        let concepts: Vec<&str> = truth.senses[0]
            .concepts
            .iter()
            .map(String::as_str)
            .collect();
        assert_eq!(concepts, vec!["director", "producer"]);
    }

    #[test]
    fn sense_index_repeated_adds_are_no_ops() {
        let mut truth = TypeGroundTruth::new("film");
        truth.add_sense(Language::En, "budget", "budget");
        truth.add_sense(Language::En, "gross", "gross");
        let before = serde_json::to_string(&truth).unwrap();
        for _ in 0..3 {
            truth.add_sense(Language::En, "budget", "budget");
            truth.add_sense(Language::En, "Gross", "gross");
        }
        assert_eq!(serde_json::to_string(&truth).unwrap(), before);
    }

    #[test]
    fn sense_index_is_rebuilt_after_deserialisation() {
        let mut truth = TypeGroundTruth::new("film");
        truth.add_sense(Language::En, "budget", "budget");
        truth.add_sense(Language::Pt, "orçamento", "budget");
        let json = serde_json::to_string(&truth).unwrap();
        let mut restored: TypeGroundTruth = serde_json::from_str(&json).unwrap();
        restored.add_sense(Language::Pt, "orcamento", "cost");
        restored.add_sense(Language::En, "gross", "gross");
        assert_eq!(
            sense_names(&restored),
            vec![
                (Language::En, "budget"),
                (Language::Pt, "orcamento"),
                (Language::En, "gross"),
            ]
        );
        assert_eq!(restored.senses[1].concepts.len(), 2);
    }
}
