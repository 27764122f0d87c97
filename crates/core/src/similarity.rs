//! Lexical-semantic similarity for column-exemplar retrieval.
//!
//! `get_value(col, key, k)` must surface stored values relevant to a task
//! key: "women" should rank `women's wear` above `menswear`. Without access
//! to embedding models we use a blend of string signals that handles the
//! paper's motivating cases — synonym-ish prefixes, spelling variants, and
//! domain phrasing: normalized Levenshtein distance, token overlap, and
//! substring containment.

/// Levenshtein edit distance (iterative, two-row).
pub(crate) fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Similarity in [0, 1]: 1 = identical (case-insensitive).
pub(crate) fn similarity(key: &str, value: &str) -> f64 {
    let k = key.trim().to_lowercase();
    let v = value.trim().to_lowercase();
    if k.is_empty() || v.is_empty() {
        return 0.0;
    }
    if k == v {
        return 1.0;
    }
    // Substring containment is a strong signal ("women" ⊂ "women's wear").
    let containment = if v.contains(&k) || k.contains(&v) {
        let shorter = k.len().min(v.len()) as f64;
        let longer = k.len().max(v.len()) as f64;
        0.6 + 0.35 * (shorter / longer)
    } else {
        0.0
    };
    // Token overlap (Jaccard over whitespace/punctuation tokens).
    let toks = |s: &str| -> Vec<String> {
        s.split(|c: char| !c.is_alphanumeric())
            .filter(|t| !t.is_empty())
            .map(str::to_owned)
            .collect()
    };
    let kt = toks(&k);
    let vt = toks(&v);
    let overlap = if kt.is_empty() || vt.is_empty() {
        0.0
    } else {
        let inter = kt.iter().filter(|t| vt.contains(t)).count() as f64;
        let union = (kt.len() + vt.len()) as f64 - inter;
        inter / union
    };
    // Normalized edit similarity.
    let edit = 1.0 - levenshtein(&k, &v) as f64 / k.len().max(v.len()) as f64;
    // The strongest signal wins: containment handles "women" ⊂ "women's
    // wear", token overlap handles re-orderings, edit similarity handles
    // spelling variants like organisation/organization.
    containment.max(overlap).max(edit)
}

/// Rank `values` by similarity to `key`, returning the top-k most relevant
/// (ties broken lexicographically for determinism).
pub(crate) fn top_k<'v>(key: &str, values: &'v [String], k: usize) -> Vec<(&'v str, f64)> {
    let mut scored: Vec<(&str, f64)> = values
        .iter()
        .map(|v| (v.as_str(), similarity(key, v)))
        .collect();
    scored.sort_by(|(va, sa), (vb, sb)| {
        sb.partial_cmp(sa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| va.cmp(vb))
    });
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
    }

    #[test]
    fn identical_is_one() {
        assert_eq!(similarity("Women", "women"), 1.0);
    }

    #[test]
    fn papers_motivating_example() {
        // "women" must rank "women's wear" above unrelated categories.
        let values = vec![
            "women's wear".to_string(),
            "menswear".to_string(),
            "kids".to_string(),
            "accessories".to_string(),
        ];
        let ranked = top_k("women", &values, 2);
        assert_eq!(ranked[0].0, "women's wear");
        assert!(ranked[0].1 > ranked[1].1);
    }

    #[test]
    fn spelling_variants_score_high() {
        assert!(similarity("organization", "organisation") > 0.8);
        assert!(similarity("colour", "color") > 0.6);
    }

    #[test]
    fn unrelated_scores_low() {
        assert!(similarity("women", "electronics") < 0.3);
        assert!(similarity("", "x") == 0.0);
    }

    #[test]
    fn top_k_is_deterministic_on_ties() {
        let values = vec!["aa".to_string(), "ab".to_string(), "ba".to_string()];
        let a = top_k("zz", &values, 3);
        let b = top_k("zz", &values, 3);
        let names_a: Vec<&str> = a.iter().map(|(v, _)| *v).collect();
        let names_b: Vec<&str> = b.iter().map(|(v, _)| *v).collect();
        assert_eq!(names_a, names_b);
    }

    #[test]
    fn top_k_truncates() {
        let values: Vec<String> = (0..10).map(|i| format!("v{i}")).collect();
        assert_eq!(top_k("v", &values, 3).len(), 3);
        assert_eq!(top_k("v", &values, 99).len(), 10);
    }
}
