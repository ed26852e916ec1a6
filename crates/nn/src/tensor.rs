//! Dense 2-D `f32` tensors.
//!
//! Everything in the QPSeeker models is expressible with rank-2 tensors
//! (`[rows, cols]`): batches of feature vectors, weight matrices, attention
//! score matrices. Keeping the tensor type rank-2 keeps the autograd rules in
//! [`crate::graph`] small and easy to verify with finite differences.

use crate::isa::Isa;
use crate::layers::Activation;
use crate::pack::{gemm_packed, PackedGemm};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// A dense row-major `rows x cols` matrix of `f32`.
///
/// Its buffer may hold more floats than `rows·cols` (a recycled scratch
/// buffer keeps every float it ever initialised, so that reusing it
/// writes nothing); only the first `rows·cols` are the tensor's.
#[derive(Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Self { rows: self.rows, cols: self.cols, data: self.data().to_vec() }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape() && self.data() == other.data()
    }
}

/// The derived layout, over the tensor's own floats.
impl Serialize for Tensor {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("rows".into(), self.rows.to_value()),
            ("cols".into(), self.cols.to_value()),
            ("data".into(), self.data().to_value()),
        ])
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.len() <= 8 {
            write!(f, " {:?}", self.data())?;
        }
        Ok(())
    }
}

impl Tensor {
    /// A `rows x cols` tensor filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// A `rows x cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// A `rows x cols` tensor of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "tensor data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// A `1 x n` row vector.
    pub fn row(data: Vec<f32>) -> Self {
        let n = data.len();
        Self::from_vec(1, n, data)
    }

    /// A `1 x 1` scalar tensor.
    pub fn scalar(v: f32) -> Self {
        Self::from_vec(1, 1, vec![v])
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn data(&self) -> &[f32] {
        &self.data[..self.rows * self.cols]
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data[..self.rows * self.cols]
    }

    /// Consume into the raw row-major buffer.
    pub fn into_vec(mut self) -> Vec<f32> {
        self.data.truncate(self.rows * self.cols);
        self.data
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * other`: `other` is panel-packed on the spot
    /// and multiplied by [`gemm_packed`], the crate's one GEMM kernel. A
    /// weight used many times is packed once instead
    /// ([`crate::params::ParamStore::packed`]).
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.matmul_packed(&PackedGemm::pack(other))
    }

    /// `self * W` for an already packed `W`.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub(crate) fn matmul_packed(&self, w: &PackedGemm) -> Tensor {
        assert_eq!(
            self.cols,
            w.k(),
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows,
            self.cols,
            w.k(),
            w.n()
        );
        let mut out = Tensor::zeros(self.rows, w.n());
        gemm_packed(self.rows, self.data(), w, false, None, Activation::Identity, &mut out.data);
        out
    }

    /// Floats the tensor's buffer holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Reshape in place to `rows x cols`, reusing the allocation when it is
    /// large enough. The floats keep what they held: only a buffer never
    /// initialised this far is written, with zeros, up to its whole
    /// capacity, so a later reshape within it writes nothing.
    pub(crate) fn reshape_stale(&mut self, rows: usize, cols: usize) {
        let need = rows * cols;
        if self.data.len() < need {
            self.data.resize(need.max(self.data.capacity()), 0.0);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data().iter().map(|&x| f(x)).collect(),
        }
    }

    /// `self += other` elementwise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
    }

    /// `self += scale * other` elementwise.
    pub fn add_scaled_assign(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled_assign shape mismatch");
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += scale * b;
        }
    }

    /// Zero every element in place (reuses the allocation).
    pub fn zero(&mut self) {
        self.data_mut().fill(0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data().iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data().iter().all(|x| x.is_finite())
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    /// Panics when row counts differ.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let cols = self.cols + other.cols;
        let mut out = Tensor::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row_slice(r));
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(other.row_slice(r));
        }
        out
    }

    /// Vertical stack of row-compatible tensors.
    ///
    /// # Panics
    /// Panics when `parts` is empty or column counts differ.
    pub fn stack_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack_rows needs at least one part");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "stack_rows column mismatch");
            data.extend_from_slice(p.data());
        }
        Tensor { rows, cols, data }
    }
}

/// Tier-forced dot product: the [`dot`] of `isa` regardless of the
/// process-wide selection (scalar when the CPU lacks the tier). Test-only
/// escape hatch: `QPS_FORCE_ISA` is read once per process, so per-tier
/// coverage inside one test binary goes through this instead.
///
/// # Panics
/// Panics if `a` and `b` differ in length.
pub fn dot_force(isa: Isa, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_force: operand lengths differ");
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: feature support verified before entering the variant,
        // lengths checked above.
        Isa::Avx512 if isa.cpu_supports() => unsafe { dot_avx512(a, b) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if isa.cpu_supports() => unsafe { dot_avx2(a, b) },
        _ => dot_scalar(a, b),
    }
}

/// The dot product of the selected tier. Every dot (attention scores and
/// their backward) goes through this one dispatch. Every tier computes
/// the same bits: 32 lanes, lane `j` one fma chain over the indices
/// `≡ j mod 32` of the 32-wide steps (and `≡ j mod 16`, for `j < 16`, of
/// one 16-wide step), summed by the halving tree `j + 16`, `j + 8`, `j + 4`,
/// `j + 2`, `j + 1`, then a scalar `mul_add` tail over the last `< 16`
/// indices. So the result is a pure function of the inputs.
///
/// # Panics
/// Panics if `a` and `b` differ in length.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: operand lengths differ");
    match crate::isa::active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only returns a tier the CPU supports, lengths
        // checked above.
        Isa::Avx512 => unsafe { dot_avx512(a, b) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { dot_avx2(a, b) },
        _ => dot_scalar(a, b),
    }
}

/// The portable tier of [`dot`]: AVX-512's two 16-lane chains as 32
/// scalar accumulators, reduced by the same halving tree.
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let k = a.len();
    let mut acc = [0.0f32; 32];
    let mut kk = 0;
    while kk + 32 <= k {
        for (j, s) in acc.iter_mut().enumerate() {
            *s = a[kk + j].mul_add(b[kk + j], *s);
        }
        kk += 32;
    }
    if kk + 16 <= k {
        for (j, s) in acc[..16].iter_mut().enumerate() {
            *s = a[kk + j].mul_add(b[kk + j], *s);
        }
        kk += 16;
    }
    let mut w = acc.len();
    while w > 1 {
        w /= 2;
        for j in 0..w {
            acc[j] += acc[j + w];
        }
    }
    dot_tail(a, b, kk, acc[0])
}

/// `sum` plus `a[kk..]·b[kk..]`, one `mul_add` per index: every tier's tail.
#[inline(always)]
fn dot_tail(a: &[f32], b: &[f32], mut kk: usize, mut sum: f32) -> f32 {
    while kk < a.len() {
        sum = a[kk].mul_add(b[kk], sum);
        kk += 1;
    }
    sum
}

/// The last three steps of [`dot`]'s halving tree, `j + 4`, `j + 2`,
/// `j + 1`, over the 8 lanes left after `j + 8`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
fn reduce_ymm(v: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    let q = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
    let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
    _mm_cvtss_f32(_mm_add_ss(d, _mm_shuffle_ps::<1>(d, d)))
}

/// AVX2+FMA [`dot`]: four 8-lane fma chains standing in for AVX-512's two
/// 16-lane ones (a 32-wide step feeds all four, the 16-wide step chains 0
/// and 1), reduced as `(c0 + c2) + (c1 + c3)`, then [`reduce_ymm`].
///
/// # Safety
/// The CPU must support AVX2 and FMA, and `b` must be as long as `a`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let k = a.len();
    let mut c = [_mm256_setzero_ps(); 4];
    let mut kk = 0;
    while kk + 32 <= k {
        for (q, c) in c.iter_mut().enumerate() {
            let (x, y) = (a.as_ptr().add(kk + 8 * q), b.as_ptr().add(kk + 8 * q));
            *c = _mm256_fmadd_ps(_mm256_loadu_ps(x), _mm256_loadu_ps(y), *c);
        }
        kk += 32;
    }
    if kk + 16 <= k {
        for (q, c) in c[..2].iter_mut().enumerate() {
            let (x, y) = (a.as_ptr().add(kk + 8 * q), b.as_ptr().add(kk + 8 * q));
            *c = _mm256_fmadd_ps(_mm256_loadu_ps(x), _mm256_loadu_ps(y), *c);
        }
        kk += 16;
    }
    let v = _mm256_add_ps(_mm256_add_ps(c[0], c[2]), _mm256_add_ps(c[1], c[3]));
    dot_tail(a, b, kk, reduce_ymm(v))
}

/// AVX-512F [`dot`]: two 16-lane fma chains over 32-wide steps, one
/// 16-wide step, the halving tree written out, then the scalar tail.
///
/// # Safety
/// The CPU must support AVX-512F, and `b` must be as long as `a`.
#[cfg(target_arch = "x86_64")]
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
    if kk + 16 <= k {
        acc0 = _mm512_fmadd_ps(
            _mm512_loadu_ps(a.as_ptr().add(kk)),
            _mm512_loadu_ps(b.as_ptr().add(kk)),
            acc0,
        );
        kk += 16;
    }
    let v = _mm512_add_ps(acc0, acc1);
    // Upper 256 bits through the f64 view: `_mm512_extractf32x8_ps` is DQ.
    let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v)));
    dot_tail(a, b, kk, reduce_ymm(_mm256_add_ps(_mm512_castps512_ps256(v), hi)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 0), 4.0);
        assert_eq!(t.row_slice(1), &[4., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    /// Scalar triple-loop reference used to validate the packed kernel.
    fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_matches_naive_on_odd_shapes() {
        // Shapes straddle the 4-row tile (remainders 1..3) and include zero
        // runs to exercise the sparse skip.
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 5), (3, 7, 4), (5, 9, 6), (4, 8, 8)] {
            let a = Tensor::from_vec(
                m,
                k,
                (0..m * k).map(|i| if i % 3 == 0 { 0.0 } else { (i as f32 * 0.7).sin() }).collect(),
            );
            let b = Tensor::from_vec(k, n, (0..k * n).map(|i| (i as f32 * 0.3).cos()).collect());
            let fast = a.matmul(&b);
            let slow = matmul_naive(&a, &b);
            for (x, y) in fast.data().iter().zip(slow.data()) {
                assert!((x - y).abs() < 1e-5, "packed kernel diverged: {x} vs {y}");
            }
        }
    }

    #[test]
    fn batched_rows_bitwise_equal_single_rows() {
        // The FP-order contract: row i of an m-row product must be *bitwise*
        // identical to multiplying row i alone (m=1). Shapes cover the 4-row
        // tile (remainder rows), column tails of the 32-wide panel, and rows
        // with zero coefficients that take the sparse skip path.
        for &(m, k, n) in &[(1, 4, 4), (3, 7, 5), (4, 8, 8), (5, 17, 6), (7, 96, 9), (9, 5, 96)] {
            let a = Tensor::from_vec(
                m,
                k,
                (0..m * k)
                    .map(|i| {
                        // Zero out whole k-blocks for some rows to hit the skip.
                        if (i / k) % 2 == 0 && (i % k) / 4 == 0 {
                            0.0
                        } else {
                            (i as f32 * 0.619).sin()
                        }
                    })
                    .collect(),
            );
            let b = Tensor::from_vec(k, n, (0..k * n).map(|i| (i as f32 * 0.271).cos()).collect());
            let batched = a.matmul(&b);
            for i in 0..m {
                let row = Tensor::from_vec(1, k, a.row_slice(i).to_vec());
                let single = row.matmul(&b);
                assert_eq!(
                    batched.row_slice(i),
                    single.data(),
                    "row {i} of {m}x{k}x{n} product is not bitwise equal to its m=1 twin"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "dot: operand lengths differ")]
    fn dot_rejects_a_short_operand() {
        dot(&[1.0; 20], &[1.0; 19]);
    }

    #[test]
    #[should_panic(expected = "dot_force: operand lengths differ")]
    fn dot_force_rejects_a_short_operand() {
        dot_force(*Isa::supported().last().unwrap(), &[1.0; 40], &[1.0; 8]);
    }

    /// Every length through the vector bodies and their tails, k =
    /// 0..=200, on every tier: within tolerance of an f64 reference,
    /// bitwise the same from an unaligned slice of a larger buffer, and
    /// bitwise the scalar tier's result — also for rows of signed zeros,
    /// all-zero rows and products that cancel to zero.
    #[test]
    fn dot_force_tails_match_f64_at_any_alignment() {
        let at = |i: usize, seed: u64| {
            (((i as u64).wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(seed) >> 40) as f32)
                / 16_777_216.0
                - 0.5
        };
        for k in 0..=200usize {
            let a: Vec<f32> = (0..k).map(|i| at(i, 1)).collect();
            let b: Vec<f32> = (0..k).map(|i| at(i, 2)).collect();
            let want: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
            let (mut a1, mut b1) = (vec![9.0f32], vec![-9.0f32]);
            a1.extend_from_slice(&a);
            b1.extend_from_slice(&b);
            for isa in Isa::supported() {
                let got = dot_force(isa, &a, &b);
                assert!(
                    (got as f64 - want).abs() <= 1e-5 + 1e-5 * want.abs(),
                    "{isa:?} k={k}: {got} vs {want}"
                );
                let shifted = dot_force(isa, &a1[1..], &b1[1..]);
                assert_eq!(got.to_bits(), shifted.to_bits(), "{isa:?} k={k}");
            }
            let zeros = vec![0.0f32; k];
            let neg_zeros = vec![-0.0f32; k];
            let signed: Vec<f32> = a.iter().map(|&x| if x < 0.0 { -0.0 } else { x }).collect();
            let cancel: Vec<f32> = b.iter().enumerate().map(|(i, &y)| y * (i % 2) as f32).collect();
            let pairs = [
                (&a, &b),
                (&zeros, &b),
                (&a, &neg_zeros),
                (&neg_zeros, &neg_zeros),
                (&signed, &b),
                (&cancel, &a),
                (&a, &a),
            ];
            for (x, y) in pairs {
                let scalar = dot_force(Isa::Scalar, x, y);
                for isa in Isa::supported() {
                    let got = dot_force(isa, x, y);
                    assert_eq!(got.to_bits(), scalar.to_bits(), "{isa:?} k={k}: {got} vs {scalar}");
                }
            }
        }
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn concat_cols_layout() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(2, 1, vec![9., 10.]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.data(), &[1., 2., 9., 3., 4., 10.]);
    }

    #[test]
    fn stack_rows_layout() {
        let a = Tensor::row(vec![1., 2.]);
        let b = Tensor::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let c = Tensor::stack_rows(&[&a, &b]);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.data(), &[1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert!((a.norm() - 30f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn add_scaled() {
        let mut a = Tensor::from_vec(1, 3, vec![1., 1., 1.]);
        let b = Tensor::from_vec(1, 3, vec![1., 2., 3.]);
        a.add_scaled_assign(&b, 0.5);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn finite_detection() {
        let mut a = Tensor::zeros(1, 2);
        assert!(a.all_finite());
        a.set(0, 1, f32::NAN);
        assert!(!a.all_finite());
    }
}
