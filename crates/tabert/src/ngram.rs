//! Character n-gram overlap, used to pick the content-snapshot rows
//! (TaBERT selects the top-K rows with the biggest n-gram overlap with the
//! query).
//!
//! A trigram set is a sorted, distinct `Vec<u32>`, each trigram's three
//! bytes packed big-endian into the low 24 bits, so a table can keep
//! postings per trigram and a query's set is computed once.

/// Character trigram set of a string (lowercased, whitespace-normalized).
pub fn trigrams(s: &str) -> Vec<u32> {
    let norm: Vec<u8> = s
        .bytes()
        .map(|b| if b.is_ascii_uppercase() { b + 32 } else { b })
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    let pack = |g: [u8; 3]| u32::from_be_bytes([0, g[0], g[1], g[2]]);
    let mut out: Vec<u32> = if norm.len() >= 3 {
        norm.windows(3).map(|w| pack([w[0], w[1], w[2]])).collect()
    } else if !norm.is_empty() {
        let mut g = [b' '; 3];
        g[..norm.len()].copy_from_slice(&norm);
        vec![pack(g)]
    } else {
        Vec::new()
    };
    out.sort_unstable();
    out.dedup();
    out
}

/// Jaccard overlap of two sets of sizes `a` and `b` that share `inter`
/// elements. Two empty sets overlap by 0.
pub fn jaccard(a: usize, b: usize, inter: usize) -> f64 {
    if a == 0 && b == 0 {
        return 0.0;
    }
    inter as f64 / (a + b - inter) as f64
}

/// Jaccard overlap of two trigram sets.
#[cfg(test)]
pub(crate) fn overlap(a: &[u32], b: &[u32]) -> f64 {
    let (mut i, mut j, mut inter) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    jaccard(a.len(), b.len(), inter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_strings_have_full_overlap() {
        let a = trigrams("movie title here");
        assert!((overlap(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_strings_have_zero_overlap() {
        let a = trigrams("aaaa");
        let b = trigrams("zzzz");
        assert_eq!(overlap(&a, &b), 0.0);
        assert_eq!(overlap(&[], &[]), 0.0);
    }

    #[test]
    fn partial_overlap_ordered_correctly() {
        let q = trigrams("select title production year 1995");
        let close = overlap(&q, &trigrams("production year 1995"));
        let far = overlap(&q, &trigrams("company country code"));
        assert!(close > far);
    }

    #[test]
    fn case_insensitive() {
        let a = trigrams("Title");
        let b = trigrams("title");
        assert!((overlap(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn short_strings_still_produce_a_gram() {
        assert_eq!(trigrams("ab"), vec![u32::from_be_bytes([0, b'a', b'b', b' '])]);
        assert!(trigrams("").is_empty());
        assert!(trigrams(" \t\n").is_empty());
    }

    #[test]
    fn sets_are_sorted_and_distinct() {
        let g = trigrams("abcabcabc");
        assert_eq!(g.len(), 3); // abc, bca, cab
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }
}
