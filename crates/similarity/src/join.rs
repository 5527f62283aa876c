//! Prefix-filter similarity join.
//!
//! Building the CDB query graph requires all pairs `(x, y)` with
//! `sim(x, y) >= ε`. Enumerating the cross product is quadratic; the paper
//! instead uses prefix filtering (Bayardo et al. [10], Wang et al. [56]).
//! For a Jaccard threshold ε, any two sets with `J(A, B) >= ε` must share a
//! token within the first `|A| - ceil(ε * |A|) + 1` tokens of `A` under a
//! global token order — so only pairs sharing a prefix token are verified.

use std::collections::HashMap;

use crate::{overlap_tokens, qgrams, tokens, SimilarityFn, SimilarityMeasure};

/// One pair produced by a similarity join: indexes into the two input slices
/// plus the verified similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimJoinPair {
    /// Index into the left input.
    pub left: usize,
    /// Index into the right input.
    pub right: usize,
    /// Verified similarity in `[0, 1]`, at least the join threshold.
    pub sim: f64,
}

/// Record signature used by the prefix filter and by verification: the
/// string's token set as sorted, deduplicated ids under a global frequency
/// order (rarest first).
struct Signature {
    tokens: Vec<u32>,
}

fn build_signatures(values: &[&str], f: SimilarityFn) -> Vec<Signature> {
    let tokenize = |s: &str| -> Vec<String> {
        match f {
            SimilarityFn::TokenJaccard | SimilarityFn::Cosine => tokens(s),
            SimilarityFn::QGramJaccard { q } => qgrams(s, q),
            // ED / NoSim joins don't use token signatures.
            SimilarityFn::EditDistance | SimilarityFn::NoSim => Vec::new(),
        }
    };
    let token_lists: Vec<Vec<String>> = values.iter().map(|v| tokenize(v)).collect();

    // Global frequency order: rare tokens first shrinks candidate lists.
    let mut freq: HashMap<&str, u32> = HashMap::new();
    for list in &token_lists {
        for t in list {
            *freq.entry(t.as_str()).or_insert(0) += 1;
        }
    }
    let mut vocab: Vec<&str> = freq.keys().copied().collect();
    vocab.sort_by_key(|t| (freq[t], *t));
    let ids: HashMap<&str, u32> = vocab.iter().enumerate().map(|(i, t)| (*t, i as u32)).collect();

    token_lists
        .iter()
        .map(|list| {
            let mut t: Vec<u32> = list.iter().map(|s| ids[s.as_str()]).collect();
            t.sort_unstable();
            Signature { tokens: t }
        })
        .collect()
}

/// Prefix length for Jaccard threshold `eps` on a set of size `len`:
/// `len - ceil(eps * len) + 1`.
///
/// The product is nudged down by a relative epsilon before the ceil:
/// `eps * len` is frequently integral in exact arithmetic but lands just
/// above the integer in f64 (e.g. `0.8 * 20 == 16.000000000000004`), and a
/// raw ceil then demands one more overlapping token than the threshold
/// actually requires — shortening the prefix and silently dropping true
/// pairs before verification. Biasing downward is always safe: an
/// undersized overlap only lengthens the prefix, admitting extra
/// candidates that exact verification rejects.
fn jaccard_prefix_len(len: usize, eps: f64) -> usize {
    if len == 0 {
        return 0;
    }
    let product = eps * len as f64;
    let min_overlap = (product - product * 1e-9 - f64::EPSILON).ceil() as usize;
    len - min_overlap.min(len) + 1
}

/// FP-robust slack for the `eps*|A| <= |B| <= |A|/eps` length filter —
/// same downward bias as [`jaccard_prefix_len`], scaled to the lengths.
fn length_filter_slack(la: f64, lb: f64) -> f64 {
    1e-9 * la.max(lb).max(1.0)
}

/// Find all pairs `(i, j)` with `f.similarity(left[i], right[j]) >= eps`.
///
/// For the Jaccard family the candidate generation uses prefix filtering;
/// for edit distance a length filter is applied
/// (`sim >= eps` implies `max_len - min_len <= (1 - eps) * max_len`); for
/// `NoSim` every pair is a candidate (probability 0.5 >= ε whenever ε <=
/// 0.5), matching the paper's ablation.
///
/// Every returned pair is *verified* with the exact measure, so the result
/// is exactly the set of pairs at or above the threshold — except that under
/// the Jaccard measures a value with an empty token set (`""`, as a CNULL
/// cell renders, or punctuation-only text under `TokenJaccard`) pairs with
/// nothing, although `f.similarity("", "")` is 1.0: a blank crowd-fillable
/// cell must not crowd-join every other blank.
pub fn similarity_join(
    left: &[&str],
    right: &[&str],
    f: SimilarityFn,
    eps: f64,
) -> Vec<SimJoinPair> {
    assert!((0.0..=1.0).contains(&eps), "threshold must be in [0, 1]");
    match f {
        SimilarityFn::TokenJaccard | SimilarityFn::QGramJaccard { .. } => {
            prefix_filter_join(left, right, f, eps)
        }
        SimilarityFn::Cosine | SimilarityFn::EditDistance | SimilarityFn::NoSim => {
            verify_all_pairs(left, right, f, eps)
        }
    }
}

fn prefix_filter_join(
    left: &[&str],
    right: &[&str],
    f: SimilarityFn,
    eps: f64,
) -> Vec<SimJoinPair> {
    // Build a shared vocabulary over both sides so token ids agree.
    let mut all: Vec<&str> = Vec::with_capacity(left.len() + right.len());
    all.extend_from_slice(left);
    all.extend_from_slice(right);
    let sigs = build_signatures(&all, f);
    let (lsigs, rsigs) = sigs.split_at(left.len());

    // Index the right side by prefix token.
    let mut index: HashMap<u32, Vec<usize>> = HashMap::new();
    for (j, sig) in rsigs.iter().enumerate() {
        let plen = jaccard_prefix_len(sig.tokens.len(), eps);
        for &t in &sig.tokens[..plen.min(sig.tokens.len())] {
            index.entry(t).or_default().push(j);
        }
    }

    let mut out = Vec::new();
    let mut seen: Vec<usize> = Vec::new(); // generation-stamped dedup
    let mut stamp = vec![usize::MAX; right.len()];
    for (i, sig) in lsigs.iter().enumerate() {
        seen.clear();
        let plen = jaccard_prefix_len(sig.tokens.len(), eps);
        for &t in &sig.tokens[..plen.min(sig.tokens.len())] {
            if let Some(cands) = index.get(&t) {
                for &j in cands {
                    if stamp[j] != i {
                        stamp[j] = i;
                        seen.push(j);
                    }
                }
            }
        }
        for &j in &seen {
            // Length filter: J(A,B) >= eps requires eps*|A| <= |B| <= |A|/eps.
            let (la, lb) = (sig.tokens.len() as f64, rsigs[j].tokens.len() as f64);
            let slack = length_filter_slack(la, lb);
            if lb < eps * la - slack || (eps > 0.0 && lb > la / eps + slack) {
                continue;
            }
            // Verify on the interned ids: the same set sizes and the same
            // division as `jaccard_tokens`, so `sim` is bit-identical to
            // `f.similarity(left[i], right[j])` without re-tokenizing.
            let inter = overlap_tokens(&sig.tokens, &rsigs[j].tokens);
            let union = sig.tokens.len() + rsigs[j].tokens.len() - inter;
            let sim = inter as f64 / union as f64;
            if sim >= eps {
                out.push(SimJoinPair { left: i, right: j, sim });
            }
        }
    }
    out.sort_by_key(|a| (a.left, a.right));
    out
}

fn verify_all_pairs(left: &[&str], right: &[&str], f: SimilarityFn, eps: f64) -> Vec<SimJoinPair> {
    let mut out = Vec::new();
    for (i, a) in left.iter().enumerate() {
        for (j, b) in right.iter().enumerate() {
            if f == SimilarityFn::EditDistance {
                // Length filter for normalized ED similarity.
                let (la, lb) = (a.chars().count(), b.chars().count());
                let max_len = la.max(lb);
                if max_len > 0 && (la.abs_diff(lb) as f64) > (1.0 - eps) * max_len as f64 {
                    continue;
                }
            }
            let sim = f.similarity(a, b);
            if sim >= eps {
                out.push(SimJoinPair { left: i, right: j, sim });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `(left, right, sim.to_bits())`: a join pair compared to the last bit.
    type Triple = (usize, usize, u64);

    /// The join's contract, pair by pair: every `(i, j, sim bits)` at or
    /// above `eps` under the exact measure, except values with an empty
    /// token set, which pair with nothing.
    fn brute_force(left: &[&str], right: &[&str], f: SimilarityFn, eps: f64) -> Vec<Triple> {
        let blank = |s: &str| match f {
            SimilarityFn::TokenJaccard => tokens(s).is_empty(),
            SimilarityFn::QGramJaccard { q } => qgrams(s, q).is_empty(),
            _ => false,
        };
        let mut out = Vec::new();
        for (i, a) in left.iter().enumerate() {
            for (j, b) in right.iter().enumerate() {
                let sim = f.similarity(a, b);
                if sim >= eps && !blank(a) && !blank(b) {
                    out.push((i, j, sim.to_bits()));
                }
            }
        }
        out
    }

    fn triples(pairs: Vec<SimJoinPair>) -> Vec<Triple> {
        pairs.into_iter().map(|p| (p.left, p.right, p.sim.to_bits())).collect()
    }

    #[test]
    fn join_matches_brute_force_on_universities() {
        let left = ["Univ. of California", "Univ. of Chicago", "Microsoft", "Duke Univ."];
        let right = [
            "University of California",
            "University of Chicago",
            "Microsoft Cambridge",
            "Duke Uni.",
            "University of Cambridge",
        ];
        for f in [SimilarityFn::QGramJaccard { q: 2 }, SimilarityFn::TokenJaccard] {
            let got = triples(similarity_join(&left, &right, f, 0.3));
            assert_eq!(got, brute_force(&left, &right, f, 0.3), "{f:?}");
        }
    }

    #[test]
    fn join_pairs_carry_verified_similarity() {
        let left = ["abcd"];
        let right = ["abcd", "abce"];
        let pairs = similarity_join(&left, &right, SimilarityFn::QGramJaccard { q: 2 }, 0.3);
        let exact = pairs.iter().find(|p| p.right == 0).unwrap();
        assert_eq!(exact.sim, 1.0);
    }

    #[test]
    fn edit_distance_join_applies_length_filter_correctly() {
        let left = ["abc"];
        let right = ["abcdefghij", "abd"];
        let got: Vec<usize> = similarity_join(&left, &right, SimilarityFn::EditDistance, 0.6)
            .into_iter()
            .map(|p| p.right)
            .collect();
        assert_eq!(got, vec![1]);
    }

    #[test]
    fn nosim_join_returns_everything_at_low_threshold() {
        let left = ["a", "b"];
        let right = ["c", "d"];
        let pairs = similarity_join(&left, &right, SimilarityFn::NoSim, 0.3);
        assert_eq!(pairs.len(), 4);
        assert!(pairs.iter().all(|p| p.sim == 0.5));
    }

    #[test]
    fn empty_inputs_yield_no_pairs() {
        let none: [&str; 0] = [];
        assert!(similarity_join(&none, &["x"], SimilarityFn::default(), 0.3).is_empty());
        assert!(similarity_join(&["x"], &none, SimilarityFn::default(), 0.3).is_empty());
    }

    #[test]
    fn blank_and_punctuation_only_values_pair_with_nothing() {
        // `similarity("", "")` is 1.0, but a blank (CNULL) cell must not
        // crowd-join every other blank: empty token sets get no prefix.
        let left = ["", "...", "?!"];
        let right = ["", "-- --", ";"];
        for f in [SimilarityFn::QGramJaccard { q: 2 }, SimilarityFn::TokenJaccard] {
            assert_eq!(f.similarity("", ""), 1.0, "{f:?}");
            assert!(similarity_join(&left, &right, f, 0.3).is_empty(), "{f:?}");
        }
    }

    #[test]
    fn prefix_len_formula() {
        assert_eq!(jaccard_prefix_len(10, 0.5), 6);
        assert_eq!(jaccard_prefix_len(10, 0.9), 2);
        assert_eq!(jaccard_prefix_len(0, 0.5), 0);
        assert_eq!(jaccard_prefix_len(1, 1.0), 1);
    }

    #[test]
    fn prefix_len_is_robust_to_fp_rounding() {
        // A product that is integral in exact arithmetic but lands just
        // above the integer in f64: a raw `(eps * len).ceil()` demands one
        // extra overlap token and shortens the prefix below completeness.
        assert_eq!(0.07f64 * 100.0, 7.000000000000001);
        assert_eq!(jaccard_prefix_len(100, 0.07), 100 - 7 + 1);
        // Products that do round to the exact integer keep the textbook
        // value — the slack must not under-count them either.
        assert_eq!(jaccard_prefix_len(20, 0.8), 5); // 0.8 * 20 == 16.0 exactly
        assert_eq!(jaccard_prefix_len(20, 0.5), 11);
        assert_eq!(jaccard_prefix_len(5, 0.9), 1); // ceil(4.5) = 5
    }

    /// Deterministic corpus of exactly `len`-token records with sliding
    /// overlap, so pair similarities straddle every grid threshold.
    fn sliding_corpus(len: usize) -> Vec<String> {
        (0..15)
            .map(|i| {
                (0..len).map(|k| format!("t{:02}", (i * 2 + k) % 30)).collect::<Vec<_>>().join(" ")
            })
            .collect()
    }

    #[test]
    fn prefix_filter_grid_matches_brute_force() {
        // The ISSUE grid: eps x len including the (0.8, 20) FP trigger.
        for &len in &[5usize, 10, 20] {
            let vals = sliding_corpus(len);
            let refs: Vec<&str> = vals.iter().map(String::as_str).collect();
            for &eps in &[0.5, 0.8, 0.9] {
                let got = triples(similarity_join(&refs, &refs, SimilarityFn::TokenJaccard, eps));
                let want = brute_force(&refs, &refs, SimilarityFn::TokenJaccard, eps);
                assert_eq!(got, want, "len={len} eps={eps}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The reference for bit-identity: the id-merge verification must
        /// reproduce `f.similarity` to the last bit, across case folding,
        /// punctuation and multi-byte char-window q-grams.
        #[test]
        fn prefix_filter_join_equals_brute_force(
            left in prop::collection::vec("[a-dA-D.,é]{1,8}( [a-dA-D.,é]{1,8})?", 0..12),
            right in prop::collection::vec("[a-dA-D.,é]{1,8}( [a-dA-D.,é]{1,8})?", 0..12),
            eps in 0.1f64..0.9,
            q in 1usize..4,
        ) {
            let l: Vec<&str> = left.iter().map(String::as_str).collect();
            let r: Vec<&str> = right.iter().map(String::as_str).collect();
            for f in [SimilarityFn::QGramJaccard { q }, SimilarityFn::TokenJaccard] {
                let got = triples(similarity_join(&l, &r, f, eps));
                prop_assert_eq!(got, brute_force(&l, &r, f, eps), "{:?}", f);
            }
        }
    }
}
