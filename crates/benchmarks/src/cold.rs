//! Cold-shaped functions: the small structured covers a synthesis service
//! sees as never-repeated requests.
//!
//! One generator serves every harness that needs such functions — the
//! service load generator's fresh requests and base pool, and the
//! recursive-synthesis sweep's `cold` block — so what one measures is what
//! the other serves.

use boolfunc::Isf;

use crate::rng::DetRng;

/// A seeded random on/dc cover pair over `num_vars` inputs: eight on-cubes
/// and two dc-cubes of two or three literals each (a literal drawn twice on
/// one variable counts once). Random dense tables would be 2-SPP worst
/// cases; these are the structured functions a synthesis workload actually
/// sees.
///
/// The function depends only on the `rng` stream: it draws, per cube, the
/// literal count and then a variable and a polarity per literal.
///
/// # Panics
///
/// Panics if `num_vars` is 0.
///
/// ```rust
/// use benchmarks::{cold, DetRng};
///
/// let mut rng = DetRng::seed_from_u64(7);
/// let f = cold::random_isf(&mut rng, 9);
/// assert_eq!(f.num_vars(), 9);
/// assert!(!f.on().is_zero());
/// ```
pub fn random_isf(rng: &mut DetRng, num_vars: usize) -> Isf {
    assert!(num_vars > 0, "a cover needs at least one input");
    let cube = |rng: &mut DetRng| {
        let mut chars = vec!['-'; num_vars];
        let literals = 2 + (rng.next_u64() % 2) as usize;
        for _ in 0..literals {
            let var = (rng.next_u64() % num_vars as u64) as usize;
            chars[var] = if rng.next_u64() & 1 == 0 { '0' } else { '1' };
        }
        chars.into_iter().collect::<String>()
    };
    let on: Vec<String> = (0..8).map(|_| cube(rng)).collect();
    let dc: Vec<String> = (0..2).map(|_| cube(rng)).collect();
    let on_refs: Vec<&str> = on.iter().map(String::as_str).collect();
    let dc_refs: Vec<&str> = dc.iter().map(String::as_str).collect();
    Isf::from_cover_str(num_vars, &on_refs, &dc_refs).expect("generated cubes are well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_fixes_the_function() {
        for n in [1, 9, 12] {
            let a = random_isf(&mut DetRng::seed_from_u64(41), n);
            let b = random_isf(&mut DetRng::seed_from_u64(41), n);
            assert_eq!(a, b);
            assert_ne!(a, random_isf(&mut DetRng::seed_from_u64(42), n), "n={n}");
        }
    }

    #[test]
    fn cubes_have_one_to_three_literals() {
        // At 10 inputs a cube of at most three literals holds at least 2^7
        // minterms, and one of at least one literal at most 2^9; the on-set
        // loses to the dc-set where they overlap, so bound their union.
        let mut rng = DetRng::seed_from_u64(3);
        for _ in 0..50 {
            let f = random_isf(&mut rng, 10);
            let care_or_dc = f.on().count_ones() + f.dc().count_ones();
            assert!(care_or_dc >= 1 << 7, "{care_or_dc} on/dc minterms");
            assert!(f.dc().count_ones() <= 2 << 9, "{} dc minterms", f.dc().count_ones());
        }
    }
}
