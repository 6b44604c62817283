//! Macro-averaged (unweighted) precision and recall.
//!
//! Appendix B of the paper complements the weighted metrics with
//! macro-averaging: the weights are discarded and distinct attribute-name
//! pairs are simply counted. [`MacroAggregator`] accumulates derived and
//! gold pair sets over all entity types of a language pair and reports the
//! pooled precision, recall and F-measure (Table 6).

use std::collections::BTreeSet;

use wiki_corpus::ground_truth::TypeGroundTruth;
use wiki_corpus::Language;

use crate::weighted::Scores;

/// Accumulates pair counts over entity types.
#[derive(Debug, Clone, Default)]
pub struct MacroAggregator {
    derived_total: usize,
    derived_correct: usize,
    gold_total: usize,
    gold_found: usize,
}

impl MacroAggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the derived pairs of one entity type.
    ///
    /// `derived` holds cross-language pairs `(attribute in lang_l, attribute
    /// in lang_l2)`; duplicates are ignored.
    pub fn add_type(
        &mut self,
        derived: &[(String, String)],
        gold: &TypeGroundTruth,
        lang_l: &Language,
        lang_l2: &Language,
    ) {
        let derived_set: BTreeSet<(String, String)> = derived.iter().cloned().collect();
        let gold_set: BTreeSet<(String, String)> =
            gold.gold_cross_pairs(lang_l, lang_l2).into_iter().collect();

        self.derived_total += derived_set.len();
        self.derived_correct += derived_set
            .iter()
            .filter(|(a, b)| gold.is_correct(lang_l, a, lang_l2, b))
            .count();
        self.gold_total += gold_set.len();
        self.gold_found += gold_set.iter().filter(|p| derived_set.contains(p)).count();
    }

    /// Number of derived pairs accumulated so far.
    pub fn derived_total(&self) -> usize {
        self.derived_total
    }

    /// Number of gold pairs accumulated so far.
    pub fn gold_total(&self) -> usize {
        self.gold_total
    }

    /// The pooled macro precision/recall/F-measure.
    pub fn scores(&self) -> Scores {
        let precision = if self.derived_total == 0 {
            0.0
        } else {
            self.derived_correct as f64 / self.derived_total as f64
        };
        let recall = if self.gold_total == 0 {
            0.0
        } else {
            self.gold_found as f64 / self.gold_total as f64
        };
        Scores::new(precision, recall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gold() -> TypeGroundTruth {
        let mut gold = TypeGroundTruth::new("t");
        gold.add_sense(Language::Pt, "nascimento", "birth");
        gold.add_sense(Language::En, "born", "birth");
        gold.add_sense(Language::Pt, "falecimento", "death");
        gold.add_sense(Language::Pt, "morte", "death");
        gold.add_sense(Language::En, "died", "death");
        gold
    }

    #[test]
    fn pooled_counts() {
        let gold = gold();
        let mut agg = MacroAggregator::new();
        // Gold pairs: (nascimento, born), (falecimento, died), (morte, died) = 3.
        let derived = vec![
            ("nascimento".to_string(), "born".to_string()),
            ("morte".to_string(), "died".to_string()),
            ("nascimento".to_string(), "died".to_string()), // incorrect
        ];
        agg.add_type(&derived, &gold, &Language::Pt, &Language::En);
        let scores = agg.scores();
        assert!((scores.precision - 2.0 / 3.0).abs() < 1e-9);
        assert!((scores.recall - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(agg.derived_total(), 3);
        assert_eq!(agg.gold_total(), 3);
    }

    #[test]
    fn accumulates_over_types() {
        let gold = gold();
        let mut agg = MacroAggregator::new();
        agg.add_type(
            &[("nascimento".to_string(), "born".to_string())],
            &gold,
            &Language::Pt,
            &Language::En,
        );
        agg.add_type(
            &[("falecimento".to_string(), "died".to_string())],
            &gold,
            &Language::Pt,
            &Language::En,
        );
        let scores = agg.scores();
        assert!((scores.precision - 1.0).abs() < 1e-9);
        // 2 of 6 pooled gold pairs found (gold counted once per type added).
        assert!((scores.recall - 2.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn duplicates_are_counted_once() {
        let gold = gold();
        let mut agg = MacroAggregator::new();
        agg.add_type(
            &[
                ("nascimento".to_string(), "born".to_string()),
                ("nascimento".to_string(), "born".to_string()),
            ],
            &gold,
            &Language::Pt,
            &Language::En,
        );
        assert_eq!(agg.derived_total(), 1);
        assert!((agg.scores().precision - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_aggregator_scores_zero() {
        let agg = MacroAggregator::new();
        assert_eq!(agg.scores(), Scores::default());
    }
}
