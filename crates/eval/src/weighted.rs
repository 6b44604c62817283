//! Frequency-weighted precision, recall and F-measure (Equations 1–4).
//!
//! The paper weights each attribute's contribution by its frequency in the
//! infobox set, so that a wrong correspondence involving a frequent
//! attribute costs more than one involving a rare attribute. For a derived
//! correspondence set `C` and gold set `G`:
//!
//! * `Pr(c(ai))` — for every attribute `ai` that appears in `C`, the
//!   frequency-weighted fraction of its derived correspondents that are
//!   correct (Eq. 3);
//! * `Rc(c(ai))` — for every attribute `ai` that appears in `G`, the
//!   frequency-weighted fraction of its gold correspondents that were
//!   derived (Eq. 4);
//! * precision / recall — the frequency-weighted averages of `Pr` / `Rc`
//!   over those attributes (Eq. 1 and 2);
//! * F-measure — their harmonic mean.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use wiki_corpus::ground_truth::TypeGroundTruth;
use wiki_corpus::Language;

/// Precision / recall / F-measure triple.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Scores {
    /// Weighted precision.
    pub precision: f64,
    /// Weighted recall.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl Scores {
    /// Builds the triple, computing the F-measure.
    ///
    /// Inputs are clamped to `[0, 1]` to guard against floating-point drift
    /// in the weighted sums.
    pub fn new(precision: f64, recall: f64) -> Self {
        let precision = precision.clamp(0.0, 1.0);
        let recall = recall.clamp(0.0, 1.0);
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        Self {
            precision,
            recall,
            f1,
        }
    }

    /// Averages a collection of scores component-wise (used for the
    /// "Avg" rows of Table 2).
    pub fn average<'a, I: IntoIterator<Item = &'a Scores>>(scores: I) -> Scores {
        let mut precision = 0.0;
        let mut recall = 0.0;
        let mut n = 0usize;
        for s in scores {
            precision += s.precision;
            recall += s.recall;
            n += 1;
        }
        if n == 0 {
            return Scores::default();
        }
        Scores::new(precision / n as f64, recall / n as f64)
    }
}

/// Frequency lookup with a tiny default so unseen attributes do not zero out
/// a whole term.
fn freq(map: &HashMap<String, f64>, name: &str) -> f64 {
    map.get(name).copied().unwrap_or(1.0).max(1e-9)
}

/// Computes the weighted precision/recall/F-measure of a derived
/// correspondence set.
///
/// * `derived` — cross-language pairs `(attribute in lang_l, attribute in
///   lang_l2)` produced by a matcher;
/// * `gold` — the gold standard for the entity type;
/// * `freq_l`, `freq_l2` — attribute occurrence counts per language (the
///   `|ai|` weights of the equations).
pub fn weighted_scores(
    derived: &[(String, String)],
    gold: &TypeGroundTruth,
    lang_l: &Language,
    lang_l2: &Language,
    freq_l: &HashMap<String, f64>,
    freq_l2: &HashMap<String, f64>,
) -> Scores {
    // c(ai): derived correspondents of each left-side attribute.
    let mut derived_by_left: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in derived {
        derived_by_left
            .entry(a.as_str())
            .or_default()
            .insert(b.as_str());
    }
    let derived_contains =
        |a: &str, b: &str| derived_by_left.get(a).is_some_and(|set| set.contains(b));

    // ---- Precision (Eq. 1 and 3) ----
    let mut precision = 0.0;
    let total_weight_c: f64 = derived_by_left.keys().map(|a| freq(freq_l, a)).sum();
    if total_weight_c > 0.0 {
        for (a, correspondents) in &derived_by_left {
            let denom: f64 = correspondents.iter().map(|b| freq(freq_l2, b)).sum();
            if denom == 0.0 {
                continue;
            }
            let mut pr = 0.0;
            for b in correspondents {
                if gold.is_correct(lang_l, a, lang_l2, b) {
                    pr += freq(freq_l2, b) / denom;
                }
            }
            precision += freq(freq_l, a) / total_weight_c * pr;
        }
    }

    // ---- Recall (Eq. 2 and 4) ----
    // AG: attributes of lang_l that have at least one gold correspondent.
    let mut gold_by_left: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for a in gold.attributes_in(lang_l) {
        let correspondents = gold.correspondents(lang_l, &a, lang_l2);
        if !correspondents.is_empty() {
            gold_by_left.insert(a, correspondents);
        }
    }
    let mut recall = 0.0;
    let total_weight_g: f64 = gold_by_left.keys().map(|a| freq(freq_l, a)).sum();
    if total_weight_g > 0.0 {
        for (a, correspondents) in &gold_by_left {
            let denom: f64 = correspondents.iter().map(|b| freq(freq_l2, b)).sum();
            if denom == 0.0 {
                continue;
            }
            let mut rc = 0.0;
            for b in correspondents {
                if derived_contains(a, b) {
                    rc += freq(freq_l2, b) / denom;
                }
            }
            recall += freq(freq_l, a) / total_weight_g * rc;
        }
    }

    Scores::new(precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reconstruction of the paper's worked Example 4.
    ///
    /// `ST = {a1, a2}` with frequencies (0.6, 0.4); `S'T = {a'1, a'2, a'3}`
    /// with frequencies (0.5, 0.3, 0.2); gold `{a1 ~ a'1 ~ a'2, a2 ~ a'3}`;
    /// derived `{a1 ~ a'1, a2 ~ a'3}` → precision 1.0, recall 0.775.
    /// (Attribute names avoid trailing digits, which label normalisation
    /// treats as template repetition counters.)
    #[test]
    fn paper_example_four() {
        let mut gold = TypeGroundTruth::new("example");
        gold.add_sense(Language::Pt, "alpha", "c1");
        gold.add_sense(Language::Pt, "beta", "c2");
        gold.add_sense(Language::En, "prime one", "c1");
        gold.add_sense(Language::En, "prime two", "c1");
        gold.add_sense(Language::En, "prime three", "c2");

        let freq_l: HashMap<String, f64> =
            [("alpha".to_string(), 0.6), ("beta".to_string(), 0.4)].into();
        let freq_l2: HashMap<String, f64> = [
            ("prime one".to_string(), 0.5),
            ("prime two".to_string(), 0.3),
            ("prime three".to_string(), 0.2),
        ]
        .into();

        let derived = vec![
            ("alpha".to_string(), "prime one".to_string()),
            ("beta".to_string(), "prime three".to_string()),
        ];
        let scores = weighted_scores(
            &derived,
            &gold,
            &Language::Pt,
            &Language::En,
            &freq_l,
            &freq_l2,
        );
        assert!(
            (scores.precision - 1.0).abs() < 1e-9,
            "{}",
            scores.precision
        );
        assert!((scores.recall - 0.775).abs() < 1e-9, "{}", scores.recall);
        assert!((scores.f1 - 2.0 * 1.0 * 0.775 / 1.775).abs() < 1e-9);
    }

    #[test]
    fn incorrect_pairs_reduce_precision_only() {
        let mut gold = TypeGroundTruth::new("t");
        gold.add_sense(Language::Pt, "nascimento", "birth");
        gold.add_sense(Language::En, "born", "birth");
        gold.add_sense(Language::Pt, "morte", "death");
        gold.add_sense(Language::En, "died", "death");

        let freq: HashMap<String, f64> = [
            ("nascimento".to_string(), 10.0),
            ("morte".to_string(), 10.0),
            ("born".to_string(), 10.0),
            ("died".to_string(), 10.0),
        ]
        .into();

        // One correct and one incorrect derived pair.
        let derived = vec![
            ("nascimento".to_string(), "born".to_string()),
            ("morte".to_string(), "born".to_string()),
        ];
        let scores = weighted_scores(&derived, &gold, &Language::Pt, &Language::En, &freq, &freq);
        assert!((scores.precision - 0.5).abs() < 1e-9);
        // Recall: nascimento found (1.0), morte's gold correspondent (died)
        // missed (0.0) → 0.5.
        assert!((scores.recall - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        let gold = TypeGroundTruth::new("t");
        let scores = weighted_scores(
            &[],
            &gold,
            &Language::Pt,
            &Language::En,
            &HashMap::new(),
            &HashMap::new(),
        );
        assert_eq!(scores, Scores::default());

        // Derived pairs but no gold: precision 0, recall 0.
        let derived = vec![("x".to_string(), "y".to_string())];
        let scores = weighted_scores(
            &derived,
            &gold,
            &Language::Pt,
            &Language::En,
            &HashMap::new(),
            &HashMap::new(),
        );
        assert_eq!(scores.precision, 0.0);
        assert_eq!(scores.recall, 0.0);
    }

    #[test]
    fn frequency_weighting_matters() {
        let mut gold = TypeGroundTruth::new("t");
        gold.add_sense(Language::Pt, "frequente", "c1");
        gold.add_sense(Language::En, "frequent", "c1");
        gold.add_sense(Language::Pt, "raro", "c2");
        gold.add_sense(Language::En, "rare", "c2");

        let freq_l: HashMap<String, f64> =
            [("frequente".to_string(), 90.0), ("raro".to_string(), 10.0)].into();
        let freq_l2: HashMap<String, f64> =
            [("frequent".to_string(), 90.0), ("rare".to_string(), 10.0)].into();

        // Only the frequent attribute is matched correctly.
        let only_frequent = vec![("frequente".to_string(), "frequent".to_string())];
        let s1 = weighted_scores(
            &only_frequent,
            &gold,
            &Language::Pt,
            &Language::En,
            &freq_l,
            &freq_l2,
        );
        // Only the rare attribute is matched correctly.
        let only_rare = vec![("raro".to_string(), "rare".to_string())];
        let s2 = weighted_scores(
            &only_rare,
            &gold,
            &Language::Pt,
            &Language::En,
            &freq_l,
            &freq_l2,
        );
        assert!(s1.recall > s2.recall, "{} vs {}", s1.recall, s2.recall);
        assert!((s1.recall - 0.9).abs() < 1e-9);
        assert!((s2.recall - 0.1).abs() < 1e-9);
    }

    #[test]
    fn scores_average() {
        let scores = [Scores::new(1.0, 0.5), Scores::new(0.5, 1.0)];
        let avg = Scores::average(scores.iter());
        assert!((avg.precision - 0.75).abs() < 1e-12);
        assert!((avg.recall - 0.75).abs() < 1e-12);
        assert_eq!(Scores::average([].iter()), Scores::default());
    }
}
