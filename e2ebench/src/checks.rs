//! Output checks. Each returns `Err` with a reason; the run reports
//! `"correct": false` and exits nonzero when any of them fails.

use metadpa_metrics::MetricSummary;
use metadpa_obs::json::{self, JsonValue};

/// One `/v1/recommend` response body, decoded.
#[derive(Clone, Debug, PartialEq)]
pub struct Ranked {
    /// Item ids, best first.
    pub items: Vec<usize>,
    /// Scores as served (`null` decodes to NaN).
    pub scores: Vec<f64>,
    /// The `source` label (`warm`, `adapted-cache`, `cold`, …).
    pub source: String,
}

/// Decodes a recommendation body without judging it.
pub fn parse_ranking(body: &str) -> Result<Ranked, String> {
    let v = json::parse(body).map_err(|e| format!("response is not JSON: {e:?}"))?;
    let items = v
        .get("items")
        .and_then(JsonValue::as_arr)
        .ok_or("response has no \"items\" array")?
        .iter()
        .map(|x| x.as_u64().map(|i| i as usize).ok_or("item id is not a non-negative integer"))
        .collect::<Result<Vec<_>, _>>()?;
    let scores = v
        .get("scores")
        .and_then(JsonValue::as_arr)
        .ok_or("response has no \"scores\" array")?
        .iter()
        .map(|x| match x {
            JsonValue::Null => Ok(f64::NAN),
            other => other.as_f64().ok_or("score is not a number"),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let source = v.get("source").and_then(JsonValue::as_str).unwrap_or("").to_string();
    Ok(Ranked { items, scores, source })
}

/// A served ranking must hold exactly `k` distinct in-catalogue ids with
/// finite, non-increasing scores.
pub fn check_ranking(r: &Ranked, k: usize, n_items: usize) -> Result<(), String> {
    if r.items.len() != k || r.scores.len() != k {
        return Err(format!(
            "expected {k} items and scores, got {} and {}",
            r.items.len(),
            r.scores.len()
        ));
    }
    let mut seen = vec![false; n_items];
    for &i in &r.items {
        if i >= n_items {
            return Err(format!("item {i} is outside the {n_items}-item catalogue"));
        }
        if std::mem::replace(&mut seen[i], true) {
            return Err(format!("item {i} appears twice"));
        }
    }
    if let Some(s) = r.scores.iter().find(|s| !s.is_finite()) {
        return Err(format!("non-finite score {s}"));
    }
    if let Some(w) = r.scores.windows(2).find(|w| w[1] > w[0]) {
        return Err(format!("scores increase: {} then {}", w[0], w[1]));
    }
    Ok(())
}

/// The served ranking must equal a direct `ArtifactRecommender` ranking
/// bit for bit: same ids in the same order, and each served score must
/// decode to exactly the f32 the direct call produced.
pub fn same_ranking(served: &Ranked, direct: &[(usize, f32)]) -> Result<(), String> {
    let ids: Vec<usize> = direct.iter().map(|&(i, _)| i).collect();
    if served.items != ids {
        return Err(format!("served ids {:?} differ from direct ids {ids:?}", served.items));
    }
    for (&s, &(item, d)) in served.scores.iter().zip(direct) {
        if (s as f32).to_bits() != d.to_bits() {
            return Err(format!("item {item}: served score {s} differs from direct score {d}"));
        }
    }
    Ok(())
}

/// HR@10 and NDCG@10 must be finite and in [0, 1]. With
/// `require_instances`, the state must also have been evaluated on at least
/// one instance.
pub fn check_quality(
    state: &str,
    s: &MetricSummary,
    require_instances: bool,
) -> Result<(), String> {
    if require_instances && s.count == 0 {
        return Err(format!("{state}: no evaluation instances"));
    }
    for (name, v) in [("hr10", s.hr), ("ndcg10", s.ndcg)] {
        if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
            return Err(format!("{state}: {name} = {v} is not a finite value in [0, 1]"));
        }
    }
    Ok(())
}

/// Two evaluations agree bit for bit on HR@10, NDCG@10 and instance counts.
pub fn same_quality(a: &[MetricSummary], b: &[MetricSummary]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.count == y.count
                && x.hr.to_bits() == y.hr.to_bits()
                && x.ndcg.to_bits() == y.ndcg.to_bits()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranked(items: &[usize], scores: &[f64]) -> Ranked {
        Ranked { items: items.to_vec(), scores: scores.to_vec(), source: "warm".into() }
    }

    #[test]
    fn a_good_ranking_passes() {
        let body = r#"{"items":[4,1,7],"scores":[0.9,0.5,0.5],"source":"warm"}"#;
        let r = parse_ranking(body).unwrap();
        assert_eq!(r, ranked(&[4, 1, 7], &[0.9, 0.5, 0.5]));
        assert!(check_ranking(&r, 3, 10).is_ok());
    }

    #[test]
    fn a_reversed_ranking_fails() {
        let r = ranked(&[4, 1, 7], &[0.1, 0.5, 0.9]);
        assert!(check_ranking(&r, 3, 10).unwrap_err().contains("increase"));
    }

    #[test]
    fn a_short_list_fails() {
        let r = ranked(&[4, 1], &[0.9, 0.5]);
        assert!(check_ranking(&r, 3, 10).unwrap_err().contains("expected 3"));
    }

    #[test]
    fn a_nan_score_fails() {
        // The server writes non-finite scores as JSON null.
        let r =
            parse_ranking(r#"{"items":[4,1,7],"scores":[0.9,null,0.1],"source":"warm"}"#).unwrap();
        assert!(check_ranking(&r, 3, 10).unwrap_err().contains("non-finite"));
    }

    #[test]
    fn duplicate_and_out_of_catalogue_ids_fail() {
        assert!(check_ranking(&ranked(&[4, 4, 7], &[0.9, 0.5, 0.1]), 3, 10)
            .unwrap_err()
            .contains("twice"));
        assert!(check_ranking(&ranked(&[4, 1, 10], &[0.9, 0.5, 0.1]), 3, 10)
            .unwrap_err()
            .contains("outside"));
    }

    #[test]
    fn malformed_bodies_fail_to_parse() {
        assert!(parse_ranking("not json").is_err());
        assert!(parse_ranking(r#"{"scores":[1.0]}"#).is_err());
        assert!(parse_ranking(r#"{"items":[1],"scores":["x"]}"#).is_err());
    }

    #[test]
    fn direct_comparison_is_bit_exact() {
        let direct = [(4usize, 0.7f32), (1, 0.3)];
        // The server widens each f32 to f64 and prints it round-trippably.
        let served = ranked(&[4, 1], &[0.7f32 as f64, 0.3f32 as f64]);
        assert!(same_ranking(&served, &direct).is_ok());
        let nudged = ranked(&[4, 1], &[0.7f32 as f64, f32::from_bits(0.3f32.to_bits() + 1) as f64]);
        assert!(same_ranking(&nudged, &direct).is_err());
        let reordered = ranked(&[1, 4], &[0.3f32 as f64, 0.7f32 as f64]);
        assert!(same_ranking(&reordered, &direct).is_err());
    }

    #[test]
    fn quality_must_be_finite_in_range_and_evaluated() {
        let ok = MetricSummary { hr: 0.4, ndcg: 0.2, count: 10, ..MetricSummary::default() };
        assert!(check_quality("warm", &ok, true).is_ok());
        let nan = MetricSummary { ndcg: f32::NAN, ..ok };
        assert!(check_quality("warm", &nan, true).is_err());
        let big = MetricSummary { hr: 1.5, ..ok };
        assert!(check_quality("warm", &big, true).is_err());
        let empty = MetricSummary::default();
        assert!(check_quality("cold_user_item", &empty, true).is_err());
        assert!(check_quality("cold_user_item", &empty, false).is_ok());
    }

    #[test]
    fn quality_comparison_is_bit_exact() {
        let a = MetricSummary { hr: 0.4, ndcg: 0.2, count: 10, ..MetricSummary::default() };
        let b = MetricSummary { ndcg: f32::from_bits(0.2f32.to_bits() + 1), ..a };
        assert!(same_quality(&[a], &[a]));
        assert!(!same_quality(&[a], &[b]));
        assert!(!same_quality(&[a], &[a, a]));
    }
}
