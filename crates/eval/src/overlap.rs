//! Cross-language attribute overlap of dual infoboxes (Table 5, Appendix A).
//!
//! For every pair of cross-linked infoboxes of one entity type, the overlap
//! is the size of the intersection of their attribute sets divided by the
//! size of their union, where two attributes count as intersecting only if
//! their pair appears in the ground truth. The per-type overlap is computed
//! over the pooled counts of all its dual infoboxes.

use wiki_corpus::ground_truth::TypeGroundTruth;
use wiki_corpus::{Corpus, Language};

/// Computes the attribute overlap of one entity type for the pair
/// (`other`, English).
///
/// `label_other` / `label_en` are the type labels in each language. Returns
/// 0.0 when the corpus holds no dual infoboxes of that type.
pub fn type_overlap(
    corpus: &Corpus,
    gold: &TypeGroundTruth,
    other: &Language,
    label_other: &str,
    label_en: &str,
) -> f64 {
    let english = Language::En;
    let mut intersection = 0.0;
    let mut union = 0.0;
    for (en_id, other_id) in corpus.cross_language_pairs(&english, other) {
        let (Some(en_article), Some(other_article)) = (corpus.get(en_id), corpus.get(other_id))
        else {
            continue;
        };
        if en_article.entity_type != label_en || other_article.entity_type != label_other {
            continue;
        }
        let schema_en = en_article.infobox.schema();
        let schema_other = other_article.infobox.schema();

        // An attribute of either side is "shared" when the gold standard
        // aligns it with some attribute of the other side; each aligned
        // pair counts once towards the intersection.
        let matched_en = schema_en
            .iter()
            .filter(|a| {
                schema_other
                    .iter()
                    .any(|b| gold.is_correct(&english, a, other, b))
            })
            .count() as f64;
        let matched_other = schema_other
            .iter()
            .filter(|b| {
                schema_en
                    .iter()
                    .any(|a| gold.is_correct(&english, a, other, b))
            })
            .count() as f64;
        let shared = 0.5 * (matched_en + matched_other);
        intersection += shared;
        union += schema_en.len() as f64 + schema_other.len() as f64 - shared;
    }
    if union == 0.0 {
        0.0
    } else {
        intersection / union
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiki_corpus::{Article, AttributeValue, Infobox};

    fn gold() -> TypeGroundTruth {
        let mut gold = TypeGroundTruth::new("film");
        gold.add_sense(Language::En, "directed by", "director");
        gold.add_sense(Language::Pt, "direção", "director");
        gold.add_sense(Language::En, "country", "country");
        gold.add_sense(Language::Pt, "país", "country");
        gold.add_sense(Language::En, "budget", "budget");
        gold
    }

    fn corpus(with_shared_country: bool) -> Corpus {
        let mut corpus = Corpus::new();
        let mut en_box = Infobox::new("Infobox Film");
        en_box.push(AttributeValue::text("directed by", "X"));
        en_box.push(AttributeValue::text("budget", "10"));
        if with_shared_country {
            en_box.push(AttributeValue::text("country", "Italy"));
        }
        let mut en = Article::new("F", Language::En, "Film", en_box);
        en.add_cross_link(Language::Pt, "Fp");

        let mut pt_box = Infobox::new("Infobox Filme");
        pt_box.push(AttributeValue::text("direção", "X"));
        if with_shared_country {
            pt_box.push(AttributeValue::text("país", "Itália"));
        }
        let mut pt = Article::new("Fp", Language::Pt, "Filme", pt_box);
        pt.add_cross_link(Language::En, "F");
        corpus.insert(en);
        corpus.insert(pt);
        corpus
    }

    #[test]
    fn overlap_counts_gold_aligned_attributes() {
        let gold = gold();
        // One shared attribute (directed by/direção) of 2 + 1 attributes:
        // intersection 1, union 2 → 0.5.
        let sparse = corpus(false);
        let o = type_overlap(&sparse, &gold, &Language::Pt, "Filme", "Film");
        assert!((o - 0.5).abs() < 1e-9, "overlap = {o}");

        // Two shared attributes of 3 + 2: intersection 2, union 3 → 2/3.
        let denser = corpus(true);
        let o = type_overlap(&denser, &gold, &Language::Pt, "Filme", "Film");
        assert!((o - 2.0 / 3.0).abs() < 1e-9, "overlap = {o}");
    }

    #[test]
    fn missing_type_gives_zero() {
        let gold = gold();
        let corpus = corpus(true);
        assert_eq!(
            type_overlap(&corpus, &gold, &Language::Pt, "Livro", "Book"),
            0.0
        );
    }
}
