//! Bitwise oracle for the AVX-512 dot product: a verbatim copy of the
//! kernel that reduced its two 16-lane fma chains with
//! `_mm512_reduce_add_ps` runs beside [`dot_force`]`(Isa::Avx512, ..)`,
//! whose reduction is the halving tree written out. The served tier's bits
//! must not move, so every result must equal the copy's bit for bit (a NaN
//! result need only be NaN on both sides).
//!
//! Inputs: for every length k = 0..=200, vectors of uniform values, of
//! values spread over the whole finite exponent range, of signed zeros
//! mixed in, and of pairs that cancel, from a seeded generator. On a CPU
//! without AVX-512 there is nothing to compare and the test passes
//! without checking. The copied kernel is x86-64 only, and so is the test.
#![cfg(target_arch = "x86_64")]

use qpseeker_nn::isa::Isa;
use qpseeker_nn::tensor::dot_force;

// ---- verbatim copy of the kernel ----

/// AVX-512F dot product: two 16-lane fma chains over 32-wide steps, one
/// 16-wide step, the `_mm512_reduce_add_ps` tree reduction, then a scalar
/// `mul_add` tail.
///
/// # Safety
/// The CPU must support AVX-512F, and `b` must be as long as `a`.
#[target_feature(enable = "avx512f")]
unsafe fn dot_avx512(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let k = a.len();
    let mut acc0 = _mm512_setzero_ps();
    let mut acc1 = _mm512_setzero_ps();
    let mut kk = 0;
    while kk + 32 <= k {
        acc0 = _mm512_fmadd_ps(
            _mm512_loadu_ps(a.as_ptr().add(kk)),
            _mm512_loadu_ps(b.as_ptr().add(kk)),
            acc0,
        );
        acc1 = _mm512_fmadd_ps(
            _mm512_loadu_ps(a.as_ptr().add(kk + 16)),
            _mm512_loadu_ps(b.as_ptr().add(kk + 16)),
            acc1,
        );
        kk += 32;
    }
    while kk + 16 <= k {
        acc0 = _mm512_fmadd_ps(
            _mm512_loadu_ps(a.as_ptr().add(kk)),
            _mm512_loadu_ps(b.as_ptr().add(kk)),
            acc0,
        );
        kk += 16;
    }
    let mut sum = _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
    while kk < k {
        sum = a[kk].mul_add(b[kk], sum);
        kk += 1;
    }
    sum
}

// ---- end of the copy ----

/// SplitMix64: a seeded stream of 64-bit words.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / 8_388_608.0 - 1.0
    }

    /// Any finite f32 whose square stays finite (|x| < 2^60), sign random.
    fn wide(&mut self) -> f32 {
        loop {
            let x = f32::from_bits(self.next() as u32);
            if x.is_finite() && x.abs() < 1.0e18 {
                return x;
            }
        }
    }
}

/// Bitwise equality, except that any two NaNs match.
fn bits_eq(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

#[test]
fn avx512_dot_equals_the_reduce_add_kernel_bitwise() {
    if !Isa::Avx512.cpu_supports() {
        eprintln!("no AVX-512 on this CPU: nothing to compare");
        return;
    }
    let mut rng = Rng(0xd07);
    let mut checked = 0usize;
    for k in 0..=200usize {
        for case in 0..400 {
            let (a, b): (Vec<f32>, Vec<f32>) = (0..k)
                .map(|_| match case % 4 {
                    0 => (rng.unit(), rng.unit()),
                    1 => (rng.wide(), rng.unit()),
                    // Signed zeros on either side, every other lane.
                    2 => {
                        let z = if rng.next() & 1 == 0 { 0.0 } else { -0.0 };
                        if rng.next() & 1 == 0 {
                            (z, rng.unit())
                        } else {
                            (rng.unit(), rng.unit())
                        }
                    }
                    // Products that cancel: x·y then -x·y.
                    _ => {
                        let x = rng.unit();
                        (if rng.next() & 1 == 0 { x } else { -x }, x)
                    }
                })
                .unzip();
            let got = dot_force(Isa::Avx512, &a, &b);
            // SAFETY: AVX-512F checked above; `a` and `b` have length k.
            let want = unsafe { dot_avx512(&a, &b) };
            assert!(bits_eq(got, want), "k={k} case {case}: got {got:e}, copy {want:e}");
            checked += 1;
        }
    }
    assert_eq!(checked, 201 * 400);
}
