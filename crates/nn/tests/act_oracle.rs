//! Bitwise oracle for the LSTM gate math: a verbatim copy of the
//! hand-written AVX2 and AVX-512 gate kernels (`exp_ps`, `sigmoid_ps`,
//! `tanh_ps`, `lstm_gates`) that `nn::act` replaced with one lane-wise
//! polynomial runs beside [`lstm_gates`] on the process's active tier.
//!
//! Inputs are a strided sweep over every f32 bit pattern (about 1M lanes)
//! plus ±0, ±∞, NaN and the exp clamp bounds, fed through every gate
//! segment and the previous cell state at rows ∈ {1, 3, 16} and
//! d ∈ {8, 16, 32, 96, 950}. Every output lane must equal the copy bit for
//! bit (a NaN lane need only be NaN on both sides):
//!
//! * AVX-512: the copy as it was (its masked tail is the polynomial too).
//! * AVX2: the copy evaluated 8 lanes at a time on every lane. The copy
//!   itself ran lanes `j >= d - d % 8` through libm; the polynomial now
//!   covers them (a declared change), so those tail lanes are also checked
//!   against the copy's libm tail, within 1e-6 relative, wherever every
//!   input of the lane is finite and at most 30 in magnitude.
//! * scalar: the AVX2 copy as for AVX2 (the scalar tier runs the same
//!   polynomial and fused cell update); skipped on a CPU without AVX2,
//!   where the copy cannot run.
//!
//! Run it under `QPS_FORCE_ISA={scalar,avx2,avx512}` to check each tier.
//! The copied kernels are x86-64 only, and so is the test.
#![cfg(target_arch = "x86_64")]

use qpseeker_nn::act::lstm_gates;
use qpseeker_nn::isa::{active, Isa};

/// The portable `sigmoid` the copied kernels' libm tail calls.
fn sigmoid_scalar(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// The portable gate expressions for one lane, returning `(c', h')`: the
/// AVX2 copy's tail.
fn libm_lane(i: f32, f: f32, g: f32, o: f32, c: f32) -> (f32, f32) {
    let (i_g, f_g, g_g, o_g) = (sigmoid_scalar(i), sigmoid_scalar(f), g.tanh(), sigmoid_scalar(o));
    let cv = f_g * c + i_g * g_g;
    (cv, o_g * cv.tanh())
}

/// Lane `j` of row `r`'s inputs, as `[i, f, g, o, c]`.
fn inputs(d: usize, gates: &[f32], c_prev: &[f32], r: usize, j: usize) -> [f32; 5] {
    let seg = |s: usize| gates[(r * 4 + s) * d + j];
    [seg(0), seg(1), seg(2), seg(3), c_prev[r * d + j]]
}

// ---- verbatim copy of the hand-written kernels ----

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
}

// ---- end of the copy ----

/// The sweep: every 4093rd f32 bit pattern, then the special values.
fn sweep() -> Vec<f32> {
    let mut xs: Vec<f32> = (0..=u32::MAX).step_by(4093).map(f32::from_bits).collect();
    let (hi, lo) = (avx::EXP_HI, avx::EXP_LO);
    xs.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN]);
    for b in [hi, lo, -hi, -lo, hi / -2.0, lo / -2.0] {
        xs.extend([b, f32::from_bits(b.to_bits() - 1), f32::from_bits(b.to_bits() + 1)]);
    }
    xs
}

/// The active tier's expected outputs, as `(c, h)`, from the copy.
fn expected(
    isa: Isa,
    rows: usize,
    d: usize,
    gates: &[f32],
    c_prev: &[f32],
) -> (Vec<f32>, Vec<f32>) {
    let (mut c, mut h) = (vec![0.0f32; rows * d], vec![0.0f32; rows * d]);
    match isa {
        // SAFETY: `active()` only returns a tier the CPU supports, and every
        // buffer covers the shape.
        Isa::Avx512 => unsafe { avx512::lstm_gates(rows, d, gates, c_prev, &mut c, &mut h) },
        Isa::Avx2 | Isa::Scalar => {
            // Pad every segment to a multiple of 8 so the copy runs the
            // polynomial on every lane, then drop the padding.
            let dp = d.next_multiple_of(8);
            let mut gp = vec![0.0f32; rows * 4 * dp];
            let mut cpp = vec![0.0f32; rows * dp];
            for r in 0..rows {
                for s in 0..4 {
                    gp[(r * 4 + s) * dp..][..d].copy_from_slice(&gates[(r * 4 + s) * d..][..d]);
                }
                cpp[r * dp..][..d].copy_from_slice(&c_prev[r * d..][..d]);
            }
            let (mut co, mut ho) = (vec![0.0f32; rows * dp], vec![0.0f32; rows * dp]);
            // SAFETY: as above on AVX2; the scalar tier's caller checked
            // that the CPU supports AVX2.
            unsafe { avx::lstm_gates(rows, dp, &gp, &cpp, &mut co, &mut ho) };
            for r in 0..rows {
                c[r * d..][..d].copy_from_slice(&co[r * dp..][..d]);
                h[r * d..][..d].copy_from_slice(&ho[r * dp..][..d]);
            }
        }
    }
    (c, h)
}

/// Bitwise equality, except that any two NaNs match: Rust leaves the sign
/// and payload of an arithmetic NaN unspecified, and the optimizer may
/// commute the operands that decide them.
fn bits_eq(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

#[test]
fn lstm_gates_equals_the_hand_written_kernels_bitwise() {
    let isa = active();
    if isa == Isa::Scalar && !Isa::Avx2.cpu_supports() {
        eprintln!("no AVX2 on this CPU: the copy cannot run");
        return;
    }
    let xs = sweep();
    let shapes: Vec<(usize, usize)> = [1usize, 3, 16]
        .into_iter()
        .flat_map(|rows| [8usize, 16, 32, 96, 950].map(|d| (rows, d)))
        .collect();
    // Segment `s` (i, f, g, o, then the cell state) reads lane `k` from
    // sweep entry `k·m[s] mod len`: the input gate walks the sweep in
    // order, the others jump around it, so one lane mixes unrelated values.
    let longest = shapes.iter().map(|&(rows, d)| rows * d).max().unwrap();
    let segs: Vec<Vec<f32>> = [1usize, 7919, 104_729, 331_337, 611_953]
        .iter()
        .map(|&m| (0..xs.len() + longest).map(|k| xs[k * m % xs.len()]).collect())
        .collect();
    let (mut next, mut checked, mut tail_checked) = (0usize, 0usize, 0usize);
    'sweep: loop {
        for &(rows, d) in &shapes {
            if next >= xs.len() {
                break 'sweep;
            }
            let mut gates = vec![0.0f32; rows * 4 * d];
            for r in 0..rows {
                for (s, seg) in segs[..4].iter().enumerate() {
                    gates[(r * 4 + s) * d..][..d].copy_from_slice(&seg[next + r * d..][..d]);
                }
            }
            let c_prev = segs[4][next..][..rows * d].to_vec();
            next += rows * d;
            let (mut c, mut h) = (vec![0.0f32; rows * d], vec![0.0f32; rows * d]);
            lstm_gates(rows, d, &gates, &c_prev, &mut c, &mut h);
            let (ce, he) = expected(isa, rows, d, &gates, &c_prev);
            for i in 0..rows * d {
                let (r, j) = (i / d, i % d);
                assert!(
                    bits_eq(c[i], ce[i]) && bits_eq(h[i], he[i]),
                    "{isa:?} rows={rows} d={d} lane ({r}, {j}): got (c {}, h {}), copy (c {}, \
                     h {}); inputs [i, f, g, o, c] {:?}",
                    c[i],
                    h[i],
                    ce[i],
                    he[i],
                    inputs(d, &gates, &c_prev, r, j),
                );
            }
            checked += rows * d;
            if isa != Isa::Avx2 {
                continue;
            }
            // The declared change: the copy's libm tail, within 1e-6.
            for r in 0..rows {
                for j in d - d % 8..d {
                    let [i, f, g, o, cp] = inputs(d, &gates, &c_prev, r, j);
                    if ![i, f, g, o, cp].iter().all(|x| x.abs() <= 30.0) {
                        continue;
                    }
                    let (cl, hl) = libm_lane(i, f, g, o, cp);
                    for (got, want) in [(c[r * d + j], cl), (h[r * d + j], hl)] {
                        assert!(
                            (got - want).abs() <= 1e-6 * (1.0 + want.abs()),
                            "avx2 tail lane ({r}, {j}): {got} vs libm {want}"
                        );
                    }
                    tail_checked += 1;
                }
            }
        }
    }
    assert!(checked >= xs.len(), "swept {checked} lanes of {}", xs.len());
    if isa == Isa::Avx2 {
        assert!(tail_checked > 0, "no AVX2 tail lane had moderate inputs");
    }
}
