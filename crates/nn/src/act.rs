//! Elementwise activation kernels for the tape-free inference path.
//!
//! The LSTM gate math and MLP activations are transcendental-bound: libm
//! `exp`/`tanh` cost ~50-100ns per lane, which at 5 calls per hidden lane
//! dominates the whole plan-encoder forward (the GEMMs are an order of
//! magnitude cheaper). On AVX2+FMA hosts we evaluate them 8 lanes at a time
//! with Cephes-style polynomials (~1-2 ulp, far inside the 1e-5 tape-parity
//! tolerance); elsewhere the portable libm path runs unchanged.
//!
//! **FP-order contract:** every function here is elementwise — lane `i` of
//! the output depends only on lane `i` of the inputs, and which code path a
//! lane takes depends only on its column index and the width, never on the
//! number of rows. Row `r` of a batched call is therefore bitwise identical
//! to a 1-row call on row `r` alone, the same invariant the GEMM upholds
//! (see [`crate::pack`]). Like the GEMM tiers, the SIMD variants differ
//! from the portable one in the last bits; the process-wide
//! [`crate::isa::active`] selection picks one variant per process, so batched
//! and scalar scoring always agree bitwise.

use crate::isa::Isa;

/// `sigmoid(x)` as used by the portable LSTM gate path.
#[inline]
pub(crate) fn sigmoid_scalar(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// Fused LSTM gate math for one step: `gates` is `[rows, 4*d]` laid out as
/// `i | f | g | o` segments per row, `c_prev` is `[rows, d]`; writes the new
/// cell state and hidden state into `c_out` / `h_out` (both `[rows, d]`).
///
/// Computes `c' = sigmoid(f) * c + sigmoid(i) * tanh(g)` and
/// `h' = sigmoid(o) * tanh(c')` per lane.
///
/// # Panics
/// Panics if a buffer is shorter than its shape: the SIMD tiers index them
/// through raw pointers.
pub fn lstm_gates(
    rows: usize,
    d: usize,
    gates: &[f32],
    c_prev: &[f32],
    c_out: &mut [f32],
    h_out: &mut [f32],
) {
    let fits = |len: usize, width: usize| rows.checked_mul(width).is_some_and(|need| len >= need);
    assert!(
        d.checked_mul(4).is_some_and(|w| fits(gates.len(), w)),
        "lstm_gates: gates shorter than rows·4d"
    );
    assert!(fits(c_prev.len(), d), "lstm_gates: c_prev shorter than rows·d");
    assert!(fits(c_out.len(), d), "lstm_gates: c_out shorter than rows·d");
    assert!(fits(h_out.len(), d), "lstm_gates: h_out shorter than rows·d");
    match crate::isa::active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only returns a tier the CPU supports, and the
        // asserts above check that every buffer covers the shape.
        Isa::Avx512 => unsafe { avx512::lstm_gates(rows, d, gates, c_prev, c_out, h_out) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { avx::lstm_gates(rows, d, gates, c_prev, c_out, h_out) },
        _ => lstm_gates_portable(rows, d, gates, c_prev, c_out, h_out),
    }
}

fn lstm_gates_portable(
    rows: usize,
    d: usize,
    gates: &[f32],
    c_prev: &[f32],
    c_out: &mut [f32],
    h_out: &mut [f32],
) {
    for r in 0..rows {
        let grow = &gates[r * 4 * d..(r + 1) * 4 * d];
        for j in 0..d {
            let i_g = sigmoid_scalar(grow[j]);
            let f_g = sigmoid_scalar(grow[d + j]);
            let g_g = grow[2 * d + j].tanh();
            let o_g = sigmoid_scalar(grow[3 * d + j]);
            let cv = f_g * c_prev[r * d + j] + i_g * g_g;
            c_out[r * d + j] = cv;
            h_out[r * d + j] = o_g * cv.tanh();
        }
    }
}

/// `x[i] = tanh(x[i])` over a slice, vectorized when the host supports it.
pub fn tanh_inplace(x: &mut [f32]) {
    match crate::isa::active() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { avx512::tanh_inplace(x) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { avx::tanh_inplace(x) },
        _ => {
            for v in x {
                *v = v.tanh();
            }
        }
    }
}

/// `x[i] = sigmoid(x[i])` over a slice, vectorized when the host supports it.
pub fn sigmoid_inplace(x: &mut [f32]) {
    match crate::isa::active() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { avx512::sigmoid_inplace(x) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { avx::sigmoid_inplace(x) },
        _ => {
            for v in x {
                *v = sigmoid_scalar(*v);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx {
    use std::arch::x86_64::*;

    // Cephes single-precision exp: round-to-nearest power-of-two split with
    // a Cody-Waite reduced argument and a degree-5 polynomial remainder.
    pub(crate) const EXP_HI: f32 = 88.376_26;
    pub(crate) const EXP_LO: f32 = -87.336_55;
    pub(crate) const LOG2EF: f32 = std::f32::consts::LOG2_E;
    pub(crate) const C1: f32 = 0.693_359_4;
    pub(crate) const C2: f32 = -2.121_944_4e-4;
    pub(crate) const P0: f32 = 1.987_569_1e-4;
    pub(crate) const P1: f32 = 1.398_199_9e-3;
    pub(crate) const P2: f32 = 8.333_452e-3;
    pub(crate) const P3: f32 = 4.166_579_6e-2;
    pub(crate) const P4: f32 = 1.666_666_5e-1;
    pub(crate) const P5: f32 = 5.0e-1;

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn exp_ps(x: __m256) -> __m256 {
        let x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(EXP_LO)), _mm256_set1_ps(EXP_HI));
        let n = _mm256_round_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(LOG2EF)),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC,
        );
        // r = x - n*C1 - n*C2 (Cody-Waite two-constant reduction).
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(C1), x);
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(C2), r);
        let mut y = _mm256_set1_ps(P0);
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P1));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P2));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P3));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P4));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P5));
        // exp(r) = 1 + r + r^2 * y
        let y = _mm256_add_ps(_mm256_fmadd_ps(_mm256_mul_ps(r, r), y, r), _mm256_set1_ps(1.0));
        // Scale by 2^n via exponent-field arithmetic.
        let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(n),
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(y, pow2n)
    }

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn sigmoid_ps(x: __m256) -> __m256 {
        // 1 / (1 + exp(-x)); exp is clamped so the denominator stays finite.
        let one = _mm256_set1_ps(1.0);
        let t = exp_ps(_mm256_sub_ps(_mm256_setzero_ps(), x));
        _mm256_div_ps(one, _mm256_add_ps(one, t))
    }

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn tanh_ps(x: __m256) -> __m256 {
        // tanh(|x|) = (1 - e^{-2|x|}) / (1 + e^{-2|x|}), sign restored from x.
        let sign_mask = _mm256_set1_ps(-0.0);
        let ax = _mm256_andnot_ps(sign_mask, x);
        let one = _mm256_set1_ps(1.0);
        let t = exp_ps(_mm256_mul_ps(ax, _mm256_set1_ps(-2.0)));
        let th = _mm256_div_ps(_mm256_sub_ps(one, t), _mm256_add_ps(one, t));
        _mm256_or_ps(th, _mm256_and_ps(x, sign_mask))
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA; every buffer must cover the
    /// shape, as [`super::lstm_gates`] asserts.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn lstm_gates(
        rows: usize,
        d: usize,
        gates: &[f32],
        c_prev: &[f32],
        c_out: &mut [f32],
        h_out: &mut [f32],
    ) {
        for r in 0..rows {
            let g = gates.as_ptr().add(r * 4 * d);
            let cp = c_prev.as_ptr().add(r * d);
            let co = c_out.as_mut_ptr().add(r * d);
            let ho = h_out.as_mut_ptr().add(r * d);
            let mut j = 0;
            while j + 8 <= d {
                let i_g = sigmoid_ps(_mm256_loadu_ps(g.add(j)));
                let f_g = sigmoid_ps(_mm256_loadu_ps(g.add(d + j)));
                let g_g = tanh_ps(_mm256_loadu_ps(g.add(2 * d + j)));
                let o_g = sigmoid_ps(_mm256_loadu_ps(g.add(3 * d + j)));
                let cv = _mm256_fmadd_ps(i_g, g_g, _mm256_mul_ps(f_g, _mm256_loadu_ps(cp.add(j))));
                _mm256_storeu_ps(co.add(j), cv);
                _mm256_storeu_ps(ho.add(j), _mm256_mul_ps(o_g, tanh_ps(cv)));
                j += 8;
            }
            // Lane tail: which path a lane takes depends only on (j, d), so
            // rows stay bitwise consistent between batched and 1-row calls.
            while j < d {
                let i_g = super::sigmoid_scalar(*g.add(j));
                let f_g = super::sigmoid_scalar(*g.add(d + j));
                let g_g = (*g.add(2 * d + j)).tanh();
                let o_g = super::sigmoid_scalar(*g.add(3 * d + j));
                let cv = f_g * *cp.add(j) + i_g * g_g;
                *co.add(j) = cv;
                *ho.add(j) = o_g * cv.tanh();
                j += 1;
            }
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tanh_inplace(x: &mut [f32]) {
        let n = x.len();
        let p = x.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            _mm256_storeu_ps(p.add(i), tanh_ps(_mm256_loadu_ps(p.add(i))));
            i += 8;
        }
        for v in &mut x[i..] {
            *v = v.tanh();
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sigmoid_inplace(x: &mut [f32]) {
        let n = x.len();
        let p = x.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            _mm256_storeu_ps(p.add(i), sigmoid_ps(_mm256_loadu_ps(p.add(i))));
            i += 8;
        }
        for v in &mut x[i..] {
            *v = super::sigmoid_scalar(*v);
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512 {
    use std::arch::x86_64::*;

    // Same Cephes constants as the AVX2 tier — the polynomial is identical,
    // only the lane count changes. Bit ops go through the integer domain so
    // the module needs nothing beyond AVX-512F (`_mm512_andnot_ps` is DQ).
    use super::avx::{C1, C2, EXP_HI, EXP_LO, LOG2EF, P0, P1, P2, P3, P4, P5};

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn exp_ps(x: __m512) -> __m512 {
        let x = _mm512_min_ps(_mm512_max_ps(x, _mm512_set1_ps(EXP_LO)), _mm512_set1_ps(EXP_HI));
        // 0x08 = round-to-nearest-int, suppress exceptions.
        let n = _mm512_roundscale_ps::<0x08>(_mm512_mul_ps(x, _mm512_set1_ps(LOG2EF)));
        let r = _mm512_fnmadd_ps(n, _mm512_set1_ps(C1), x);
        let r = _mm512_fnmadd_ps(n, _mm512_set1_ps(C2), r);
        let mut y = _mm512_set1_ps(P0);
        y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(P1));
        y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(P2));
        y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(P3));
        y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(P4));
        y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(P5));
        let y = _mm512_add_ps(_mm512_fmadd_ps(_mm512_mul_ps(r, r), y, r), _mm512_set1_ps(1.0));
        let pow2n = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_add_epi32(
            _mm512_cvtps_epi32(n),
            _mm512_set1_epi32(127),
        )));
        _mm512_mul_ps(y, pow2n)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn sigmoid_ps(x: __m512) -> __m512 {
        let one = _mm512_set1_ps(1.0);
        let t = exp_ps(_mm512_sub_ps(_mm512_setzero_ps(), x));
        _mm512_div_ps(one, _mm512_add_ps(one, t))
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn tanh_ps(x: __m512) -> __m512 {
        // tanh(|x|) = (1 - e^{-2|x|}) / (1 + e^{-2|x|}), sign restored from x.
        let xi = _mm512_castps_si512(x);
        let sign = _mm512_and_si512(xi, _mm512_set1_epi32(i32::MIN));
        let ax = _mm512_castsi512_ps(_mm512_andnot_si512(_mm512_set1_epi32(i32::MIN), xi));
        let one = _mm512_set1_ps(1.0);
        let t = exp_ps(_mm512_mul_ps(ax, _mm512_set1_ps(-2.0)));
        let th = _mm512_div_ps(_mm512_sub_ps(one, t), _mm512_add_ps(one, t));
        _mm512_castsi512_ps(_mm512_or_si512(_mm512_castps_si512(th), sign))
    }

    /// # Safety
    /// The CPU must support AVX-512F; every buffer must cover the shape, as
    /// [`super::lstm_gates`] asserts.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn lstm_gates(
        rows: usize,
        d: usize,
        gates: &[f32],
        c_prev: &[f32],
        c_out: &mut [f32],
        h_out: &mut [f32],
    ) {
        for r in 0..rows {
            let g = gates.as_ptr().add(r * 4 * d);
            let cp = c_prev.as_ptr().add(r * d);
            let co = c_out.as_mut_ptr().add(r * d);
            let ho = h_out.as_mut_ptr().add(r * d);
            let mut j = 0;
            while j + 16 <= d {
                let i_g = sigmoid_ps(_mm512_loadu_ps(g.add(j)));
                let f_g = sigmoid_ps(_mm512_loadu_ps(g.add(d + j)));
                let g_g = tanh_ps(_mm512_loadu_ps(g.add(2 * d + j)));
                let o_g = sigmoid_ps(_mm512_loadu_ps(g.add(3 * d + j)));
                let cv = _mm512_fmadd_ps(i_g, g_g, _mm512_mul_ps(f_g, _mm512_loadu_ps(cp.add(j))));
                _mm512_storeu_ps(co.add(j), cv);
                _mm512_storeu_ps(ho.add(j), _mm512_mul_ps(o_g, tanh_ps(cv)));
                j += 16;
            }
            if j < d {
                // Masked lane tail: mask depends only on (j, d), so rows stay
                // bitwise consistent between batched and 1-row calls.
                let mask: __mmask16 = (1u16 << (d - j)) - 1;
                let i_g = sigmoid_ps(_mm512_maskz_loadu_ps(mask, g.add(j)));
                let f_g = sigmoid_ps(_mm512_maskz_loadu_ps(mask, g.add(d + j)));
                let g_g = tanh_ps(_mm512_maskz_loadu_ps(mask, g.add(2 * d + j)));
                let o_g = sigmoid_ps(_mm512_maskz_loadu_ps(mask, g.add(3 * d + j)));
                let cv = _mm512_fmadd_ps(
                    i_g,
                    g_g,
                    _mm512_mul_ps(f_g, _mm512_maskz_loadu_ps(mask, cp.add(j))),
                );
                _mm512_mask_storeu_ps(co.add(j), mask, cv);
                _mm512_mask_storeu_ps(ho.add(j), mask, _mm512_mul_ps(o_g, tanh_ps(cv)));
            }
        }
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn tanh_inplace(x: &mut [f32]) {
        let n = x.len();
        let p = x.as_mut_ptr();
        let mut i = 0;
        while i + 16 <= n {
            _mm512_storeu_ps(p.add(i), tanh_ps(_mm512_loadu_ps(p.add(i))));
            i += 16;
        }
        if i < n {
            let mask: __mmask16 = (1u16 << (n - i)) - 1;
            _mm512_mask_storeu_ps(p.add(i), mask, tanh_ps(_mm512_maskz_loadu_ps(mask, p.add(i))));
        }
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn sigmoid_inplace(x: &mut [f32]) {
        let n = x.len();
        let p = x.as_mut_ptr();
        let mut i = 0;
        while i + 16 <= n {
            _mm512_storeu_ps(p.add(i), sigmoid_ps(_mm512_loadu_ps(p.add(i))));
            i += 16;
        }
        if i < n {
            let mask: __mmask16 = (1u16 << (n - i)) - 1;
            _mm512_mask_storeu_ps(
                p.add(i),
                mask,
                sigmoid_ps(_mm512_maskz_loadu_ps(mask, p.add(i))),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_activations_close_to_libm() {
        let xs: Vec<f32> = (-400..=400).map(|i| i as f32 * 0.05).collect();
        let mut t = xs.clone();
        tanh_inplace(&mut t);
        let mut s = xs.clone();
        sigmoid_inplace(&mut s);
        for (i, &x) in xs.iter().enumerate() {
            let (rt, rs) = (x.tanh(), 1.0 / (1.0 + (-x).exp()));
            assert!((t[i] - rt).abs() <= 2e-7 + 1e-6 * rt.abs(), "tanh({x}): {} vs {rt}", t[i]);
            assert!((s[i] - rs).abs() <= 2e-7 + 1e-6 * rs.abs(), "sigmoid({x}): {} vs {rs}", s[i]);
        }
    }

    #[test]
    fn lstm_gates_matches_portable_within_tolerance_and_rows_are_stable() {
        let (rows, d) = (5usize, 19usize); // odd width exercises the lane tail
        let gates: Vec<f32> = (0..rows * 4 * d).map(|i| ((i as f32) * 0.37).sin() * 3.0).collect();
        let c_prev: Vec<f32> = (0..rows * d).map(|i| ((i as f32) * 0.11).cos()).collect();
        let (mut c, mut h) = (vec![0.0f32; rows * d], vec![0.0f32; rows * d]);
        lstm_gates(rows, d, &gates, &c_prev, &mut c, &mut h);
        let (mut cp, mut hp) = (vec![0.0f32; rows * d], vec![0.0f32; rows * d]);
        lstm_gates_portable(rows, d, &gates, &c_prev, &mut cp, &mut hp);
        for i in 0..rows * d {
            assert!((c[i] - cp[i]).abs() <= 1e-6, "c[{i}]: {} vs {}", c[i], cp[i]);
            assert!((h[i] - hp[i]).abs() <= 1e-6, "h[{i}]: {} vs {}", h[i], hp[i]);
        }
        // Row-equality contract: each batched row bitwise equals a 1-row call.
        for r in 0..rows {
            let (mut c1, mut h1) = (vec![0.0f32; d], vec![0.0f32; d]);
            lstm_gates(1, d, &gates[r * 4 * d..], &c_prev[r * d..], &mut c1, &mut h1);
            assert_eq!(&c[r * d..(r + 1) * d], &c1[..], "row {r} cell state");
            assert_eq!(&h[r * d..(r + 1) * d], &h1[..], "row {r} hidden state");
        }
    }

    #[test]
    #[should_panic(expected = "lstm_gates: h_out shorter than rows·d")]
    fn lstm_gates_rejects_a_short_output() {
        let (rows, d) = (2usize, 24usize);
        let (gates, c_prev) = (vec![0.5f32; rows * 4 * d], vec![0.5f32; rows * d]);
        let (mut c, mut h) = (vec![0.0f32; rows * d], vec![0.0f32; rows * d - 1]);
        lstm_gates(rows, d, &gates, &c_prev, &mut c, &mut h);
    }
}
