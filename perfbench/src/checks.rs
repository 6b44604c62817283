//! Output checks: served alignments against in-process references, and the
//! paper's weighted F-measure (Eqs. 1–4) of the served mappings.

use std::sync::Arc;

use wiki_corpus::{Dataset, Language};
use wiki_eval::{weighted_scores, Scores};
use wiki_serve::protocol::{AlignResponse, TypePairs};
use wiki_translate::TitleDictionary;
use wikimatch::{DualSchema, MatchEngine};

/// One named output check of a run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, result: Result<String, String>) -> Self {
        let (passed, detail) = match result {
            Ok(detail) => (true, detail),
            Err(detail) => (false, detail),
        };
        Check {
            name: name.to_string(),
            passed,
            detail,
        }
    }
}

pub fn parse_align(body: &str) -> Result<AlignResponse, String> {
    serde_json::from_str(body).map_err(|err| format!("unparseable /align body: {err}"))
}

/// Every type's cross-language pairs as a fresh in-process engine over
/// `dataset` derives them (the engine's default compute mode, as `matchd`).
pub fn reference_alignments(dataset: Dataset) -> Vec<TypePairs> {
    MatchEngine::new(Arc::new(dataset))
        .align_all()
        .iter()
        .map(|alignment| TypePairs {
            type_id: alignment.type_id.clone(),
            pairs: alignment.cross_pairs(),
        })
        .collect()
}

/// `Ok` when every served type equals the reference for that type.
pub fn matches_reference(served: &[TypePairs], reference: &[TypePairs]) -> Result<usize, String> {
    for pairs in served {
        let expected = reference
            .iter()
            .find(|r| r.type_id == pairs.type_id)
            .ok_or_else(|| format!("served unknown type {:?}", pairs.type_id))?;
        if expected.pairs != pairs.pairs {
            return Err(format!(
                "type {:?}: served {} pairs, reference {} (first difference: {:?})",
                pairs.type_id,
                pairs.pairs.len(),
                expected.pairs.len(),
                pairs
                    .pairs
                    .iter()
                    .zip(&expected.pairs)
                    .find(|(a, b)| a != b)
            ));
        }
    }
    Ok(served.len())
}

/// The weighted scores of every served type of a pristine corpus, each
/// against the dataset's ground truth with the attribute frequencies of
/// its dual schema as weights.
fn corpus_scores(dataset: &Dataset, served: &AlignResponse) -> Vec<Scores> {
    let other = dataset.other_language();
    let dictionary = TitleDictionary::from_corpus(&dataset.corpus, other, &Language::En);
    served
        .alignments
        .iter()
        .filter_map(|pairs| {
            let pairing = dataset.type_pairing(&pairs.type_id)?;
            let schema = DualSchema::build(
                &dataset.corpus,
                other,
                &pairing.label_other,
                &pairing.label_en,
                &dictionary,
            );
            let gold = dataset
                .ground_truth
                .for_type(&pairs.type_id)
                .cloned()
                .unwrap_or_default();
            Some(weighted_scores(
                &pairs.pairs,
                &gold,
                other,
                &Language::En,
                &schema.frequencies(other),
                &schema.frequencies(&Language::En),
            ))
        })
        .collect()
}

/// `align_f1`: the F-measure of the averaged weighted precision and recall
/// over every type of the given served alignments (the "Avg" convention of
/// the paper's Table 2).
pub fn align_f1(served: &[(&Dataset, &AlignResponse)]) -> f64 {
    let scores: Vec<Scores> = served
        .iter()
        .flat_map(|(dataset, response)| corpus_scores(dataset, response))
        .collect();
    Scores::average(&scores).f1
}
