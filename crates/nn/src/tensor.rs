//! Dense 2-D `f32` tensors.
//!
//! Everything in the QPSeeker models is expressible with rank-2 tensors
//! (`[rows, cols]`): batches of feature vectors, weight matrices, attention
//! score matrices. Keeping the tensor type rank-2 keeps the autograd rules in
//! [`crate::graph`] small and easy to verify with finite differences.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major `rows x cols` matrix of `f32`.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)?;
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
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the raw row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
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

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `self * other` written into `out`, which is reshaped to
    /// `self.rows x other.cols` reusing its allocation. This is the inference
    /// fast path: no fresh `Vec` per product.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reshape_for(self.rows, other.cols);
        matmul_kernel(self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data);
    }

    /// Reshape in place to `rows x cols` filled with zeros, reusing the
    /// allocation when it is large enough.
    pub(crate) fn reshape_for(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// `selfᵀ * other` without materializing the transpose: from zero, the
    /// outer product of row `k` of `self` with row `k` of `other` is added
    /// for each `k` in order.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            out.add_outer_assign(self.row_slice(k), other.row_slice(k));
        }
        out
    }

    /// `self += aᵀ·b` for row vectors `a [1, rows]` and `b [1, cols]`: row
    /// `i` gains `a[i]·b`, skipped when `a[i]` is zero. The tape's weight
    /// gradient for a one-row left-hand side, accumulated in place.
    pub(crate) fn add_outer_assign(&mut self, a: &[f32], b: &[f32]) {
        assert_eq!((a.len(), b.len()), self.shape(), "add_outer_assign shape mismatch");
        if self.cols == 0 {
            return;
        }
        for (&ai, o) in a.iter().zip(self.data.chunks_exact_mut(self.cols)) {
            if ai != 0.0 {
                for (o, &bj) in o.iter_mut().zip(b) {
                    *o += ai * bj;
                }
            }
        }
    }

    /// `self · b`, each output summed from 0.0 in sequential `k` order as
    /// one multiply then one add per term, never fused: element `(i, j)` is
    /// bitwise the scalar dot `Σ_k self[i,k]·b[k,j]`, on every ISA tier.
    /// The tape's `x·Bᵀ` routine — backward passes `b = Bᵀ` — as an i-k-j
    /// loop the compiler vectorises across `j`, since lanes are separate
    /// outputs and each keeps its own order.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul_seq(&self, b: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, b.rows,
            "matmul_seq shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, b.rows, b.cols
        );
        let (k, n) = (self.cols, b.cols);
        let mut out = Tensor::zeros(self.rows, n);
        if k == 0 || n == 0 {
            return out;
        }
        for (x, o) in self.data.chunks_exact(k).zip(out.data.chunks_exact_mut(n)) {
            // Four k steps per pass over `o`: `((o + x0·b0) + x1·b1) + …`
            // is the sequential order, with a quarter of the loads and
            // stores of `o`. Against the plain one-step loop, on a 2-vCPU
            // AVX-512 x86_64 machine in 6 interleaved `perfbench
            // --workload point_small` pairs: fit 759–795 vs 678–729 QEPs/s,
            // `setup_s` 1.72–1.84 vs 1.77–2.16 s.
            let mut xs = x.chunks_exact(4);
            let mut bs = b.data.chunks_exact(4 * n);
            for (c, quad) in (&mut xs).zip(&mut bs) {
                let (b0, rest) = quad.split_at(n);
                let (b1, rest) = rest.split_at(n);
                let (b2, b3) = rest.split_at(n);
                for ((((o, &v0), &v1), &v2), &v3) in o.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                    *o = *o + c[0] * v0 + c[1] * v1 + c[2] * v2 + c[3] * v3;
                }
            }
            for (&c, row) in xs.remainder().iter().zip(bs.remainder().chunks_exact(n)) {
                for (o, &v) in o.iter_mut().zip(row) {
                    *o += c * v;
                }
            }
        }
        out
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
        Tensor { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// `self += other` elementwise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self += scale * other` elementwise.
    pub fn add_scaled_assign(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Zero every element in place (reuses the allocation).
    pub fn zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
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
            data.extend_from_slice(&p.data);
        }
        Tensor { rows, cols, data }
    }
}

/// The per-process kernel function table: every hot product dispatches
/// through these pointers, selected **once** from [`crate::isa::active`].
/// One tier per process means every FP-order contract (batched row ==
/// m=1 row, scalar score == batched score) holds within the tier even
/// though tiers round differently from each other.
pub(crate) struct KernelTable {
    pub gemm: GemmFn,
    pub dot: fn(&[f32], &[f32]) -> f32,
}

/// `(m, k, n, a, b, out)` — one GEMM kernel entry point.
pub(crate) type GemmFn = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

/// The selected kernel table (resolved on first use, then immutable).
pub(crate) fn kernels() -> &'static KernelTable {
    use crate::isa::Isa;
    static TABLE: std::sync::OnceLock<KernelTable> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| match crate::isa::active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only returns a tier the CPU supports.
        Isa::Avx512 => KernelTable {
            gemm: |m, k, n, a, b, out| unsafe { matmul_kernel_avx512(m, k, n, a, b, out) },
            dot: |a, b| unsafe { dot_avx512(a, b) },
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => KernelTable {
            gemm: |m, k, n, a, b, out| unsafe { matmul_kernel_fma(m, k, n, a, b, out) },
            dot: |a, b| unsafe { dot_fma(a, b) },
        },
        _ => KernelTable { gemm: matmul_kernel_portable, dot: dot_unrolled },
    })
}

/// Run the GEMM kernel of a specific tier, regardless of the process-wide
/// selection (falls back to scalar when the CPU lacks the tier). Test-only
/// escape hatch: `QPS_FORCE_ISA` is read once per process, so per-variant
/// coverage inside one test binary goes through this instead.
pub fn matmul_kernel_force(
    isa: crate::isa::Isa,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    use crate::isa::Isa;
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: feature support verified before entering the variant.
        Isa::Avx512 if isa.cpu_supports() => unsafe { matmul_kernel_avx512(m, k, n, a, b, out) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if isa.cpu_supports() => unsafe { matmul_kernel_fma(m, k, n, a, b, out) },
        _ => matmul_kernel_portable(m, k, n, a, b, out),
    }
}

/// Tier-forced dot product; see [`matmul_kernel_force`].
pub fn dot_force(isa: crate::isa::Isa, a: &[f32], b: &[f32]) -> f32 {
    use crate::isa::Isa;
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: feature support verified before entering the variant.
        Isa::Avx512 if isa.cpu_supports() => unsafe { dot_avx512(a, b) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if isa.cpu_supports() => unsafe { dot_fma(a, b) },
        _ => dot_unrolled(a, b),
    }
}

/// The dot product of the selected tier. Every dot in the inference fast
/// path (attention scores, batched score scatter) goes through this one
/// dispatch so the accumulation order — and therefore the bit pattern of
/// the result — is identical everywhere in a process.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    (kernels().dot)(a, b)
}

/// Unrolled scalar dot product with four independent accumulators hiding
/// the multiply-add latency chain, reduced as `(s0+s1)+(s2+s3)` plus a
/// scalar tail: the portable tier of [`dot`].
#[inline]
pub fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let k = a.len();
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    let mut kk = 0;
    while kk + 4 <= k {
        s0 += a[kk] * b[kk];
        s1 += a[kk + 1] * b[kk + 1];
        s2 += a[kk + 2] * b[kk + 2];
        s3 += a[kk + 3] * b[kk + 3];
        kk += 4;
    }
    let mut acc = (s0 + s1) + (s2 + s3);
    while kk < k {
        acc += a[kk] * b[kk];
        kk += 1;
    }
    acc
}

/// Register-blocked i-k-j matmul: `out[m x n] += a[m x k] * b[k x n]`, `out`
/// pre-zeroed.
///
/// Two levels of blocking:
///
/// * the k loop is unrolled 4-wide with fused updates, so one pass over an
///   output row folds in four rows of `b`;
/// * rows of `a` are processed four at a time, so each loaded `b` block is
///   applied to four output rows before it leaves registers — batched
///   (m > 1) products read `b` once per *four* rows instead of once per row.
///
/// **FP-order contract:** every output row accumulates its k-blocks in
/// exactly the order the m=1 kernel would, and a k-block is skipped iff that
/// row's four `a` values are all zero (the sparse one-hot fast path). Row `i`
/// of an `m x k` product is therefore **bitwise identical** to the `1 x k`
/// product of row `i` alone — the invariant that lets MCTS score a batch of
/// candidate plans in one pass and still match the scalar path bit for bit
/// (asserted by `batched_rows_bitwise_equal_single_rows` below and the
/// proptests in `tests/proptests.rs`).
pub(crate) fn matmul_kernel(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    (kernels().gemm)(m, k, n, a, b, out)
}

/// Portable scalar body of [`matmul_kernel`]. The FMA variant selected above
/// uses fused multiply-adds, so its *values* differ from this path in the
/// last bits — but feature detection is a pure function of the CPU, every
/// product in a process goes through the same variant, and each variant
/// upholds the row-equality contract on its own, which is all the batched
/// evaluation path relies on.
fn matmul_kernel_portable(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    let mut i = 0;
    while i + 4 <= m {
        let (a0_row, rest) = a[i * k..].split_at(k);
        let (a1_row, rest) = rest.split_at(k);
        let (a2_row, rest) = rest.split_at(k);
        let a3_row = &rest[..k];
        let (o0, rest) = out[i * n..].split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, rest) = rest.split_at_mut(n);
        let o3 = &mut rest[..n];
        let mut kk = 0;
        while kk + 4 <= k {
            let b0 = &b[kk * n..][..n];
            let b1 = &b[(kk + 1) * n..][..n];
            let b2 = &b[(kk + 2) * n..][..n];
            let b3 = &b[(kk + 3) * n..][..n];
            let c0 = (a0_row[kk], a0_row[kk + 1], a0_row[kk + 2], a0_row[kk + 3]);
            let c1 = (a1_row[kk], a1_row[kk + 1], a1_row[kk + 2], a1_row[kk + 3]);
            let c2 = (a2_row[kk], a2_row[kk + 1], a2_row[kk + 2], a2_row[kk + 3]);
            let c3 = (a3_row[kk], a3_row[kk + 1], a3_row[kk + 2], a3_row[kk + 3]);
            let nz = |c: (f32, f32, f32, f32)| c.0 != 0.0 || c.1 != 0.0 || c.2 != 0.0 || c.3 != 0.0;
            if nz(c0) && nz(c1) && nz(c2) && nz(c3) {
                // Dense fast path: each b element feeds four output rows.
                for j in 0..n {
                    let (v0, v1, v2, v3) = (b0[j], b1[j], b2[j], b3[j]);
                    o0[j] += c0.0 * v0 + c0.1 * v1 + c0.2 * v2 + c0.3 * v3;
                    o1[j] += c1.0 * v0 + c1.1 * v1 + c1.2 * v2 + c1.3 * v3;
                    o2[j] += c2.0 * v0 + c2.1 * v1 + c2.2 * v2 + c2.3 * v3;
                    o3[j] += c3.0 * v0 + c3.1 * v1 + c3.2 * v2 + c3.3 * v3;
                }
            } else {
                // Sparse fallback: per-row skip, identical order per row.
                for (c, o) in [(c0, &mut *o0), (c1, &mut *o1), (c2, &mut *o2), (c3, &mut *o3)] {
                    if nz(c) {
                        for (j, ov) in o.iter_mut().enumerate() {
                            *ov += c.0 * b0[j] + c.1 * b1[j] + c.2 * b2[j] + c.3 * b3[j];
                        }
                    }
                }
            }
            kk += 4;
        }
        while kk < k {
            let b0 = &b[kk * n..][..n];
            for (a_row, o) in
                [(a0_row, &mut *o0), (a1_row, &mut *o1), (a2_row, &mut *o2), (a3_row, &mut *o3)]
            {
                let av = a_row[kk];
                if av != 0.0 {
                    for (j, ov) in o.iter_mut().enumerate() {
                        *ov += av * b0[j];
                    }
                }
            }
            kk += 1;
        }
        i += 4;
    }
    for i in i..m {
        matmul_row(k, n, &a[i * k..(i + 1) * k], b, &mut out[i * n..(i + 1) * n]);
    }
}

/// AVX2+FMA register-tiled kernel: output tiles of 4 rows x 8 columns live
/// in ymm accumulators across the *entire* k loop, so the only memory
/// traffic in the inner loop is one b vector load and four coefficient
/// broadcasts per k step — b is read once per four output rows and `out`
/// is written exactly once per element.
///
/// **FP-order contract:** every output element accumulates as a single
/// branchless fused-multiply-add chain over k in index order —
/// `acc = fma(a[i][kk], b[kk][j], acc)` for kk = 0..k — for every row
/// position in the tile and for the remainder-row path alike. Row `i` of an
/// `m x k` product is therefore bitwise identical to the `1 x k` product of
/// row `i` alone, the invariant batched plan evaluation relies on. (Zero
/// coefficients are folded in rather than skipped: `fma(0, b, acc) == acc`
/// exactly for finite `b`.) Values differ from the portable kernel in the
/// last bits (single-rounded FMA); see [`matmul_kernel_portable`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matmul_kernel_fma(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let mut i = 0;
    while i + 4 <= m {
        let (a0, rest) = a[i * k..].split_at(k);
        let (a1, rest) = rest.split_at(k);
        let (a2, rest) = rest.split_at(k);
        let a3 = &rest[..k];
        // Featurized inputs are one-hot heavy: many k positions are zero in
        // all four rows at once (unused feature slots are structural, shared
        // across the batch). Skipping such a step is bitwise-free —
        // `fma(0, b, acc) == acc` for every lane — so when at least a
        // quarter of the k steps are skippable, take the branchy variant;
        // dense weight matrices keep the branchless loop.
        let mut skippable = 0usize;
        for kk in 0..k {
            if a0[kk] == 0.0 && a1[kk] == 0.0 && a2[kk] == 0.0 && a3[kk] == 0.0 {
                skippable += 1;
            }
        }
        let sparse = skippable * 4 >= k;
        let mut j = 0;
        // 4x16 tiles: 8 accumulator chains hide the fma latency (4 chains
        // leave the units half idle), and each coefficient broadcast feeds
        // two column vectors. Per-element accumulation order is unchanged.
        while j + 16 <= n {
            let mut acc00 = _mm256_setzero_ps();
            let mut acc01 = _mm256_setzero_ps();
            let mut acc10 = _mm256_setzero_ps();
            let mut acc11 = _mm256_setzero_ps();
            let mut acc20 = _mm256_setzero_ps();
            let mut acc21 = _mm256_setzero_ps();
            let mut acc30 = _mm256_setzero_ps();
            let mut acc31 = _mm256_setzero_ps();
            for kk in 0..k {
                let c0 = *a0.get_unchecked(kk);
                let c1 = *a1.get_unchecked(kk);
                let c2 = *a2.get_unchecked(kk);
                let c3 = *a3.get_unchecked(kk);
                if sparse && c0 == 0.0 && c1 == 0.0 && c2 == 0.0 && c3 == 0.0 {
                    continue;
                }
                let bv0 = _mm256_loadu_ps(b.as_ptr().add(kk * n + j));
                let bv1 = _mm256_loadu_ps(b.as_ptr().add(kk * n + j + 8));
                let v0 = _mm256_set1_ps(c0);
                acc00 = _mm256_fmadd_ps(v0, bv0, acc00);
                acc01 = _mm256_fmadd_ps(v0, bv1, acc01);
                let v1 = _mm256_set1_ps(c1);
                acc10 = _mm256_fmadd_ps(v1, bv0, acc10);
                acc11 = _mm256_fmadd_ps(v1, bv1, acc11);
                let v2 = _mm256_set1_ps(c2);
                acc20 = _mm256_fmadd_ps(v2, bv0, acc20);
                acc21 = _mm256_fmadd_ps(v2, bv1, acc21);
                let v3 = _mm256_set1_ps(c3);
                acc30 = _mm256_fmadd_ps(v3, bv0, acc30);
                acc31 = _mm256_fmadd_ps(v3, bv1, acc31);
            }
            _mm256_storeu_ps(out.as_mut_ptr().add(i * n + j), acc00);
            _mm256_storeu_ps(out.as_mut_ptr().add(i * n + j + 8), acc01);
            _mm256_storeu_ps(out.as_mut_ptr().add((i + 1) * n + j), acc10);
            _mm256_storeu_ps(out.as_mut_ptr().add((i + 1) * n + j + 8), acc11);
            _mm256_storeu_ps(out.as_mut_ptr().add((i + 2) * n + j), acc20);
            _mm256_storeu_ps(out.as_mut_ptr().add((i + 2) * n + j + 8), acc21);
            _mm256_storeu_ps(out.as_mut_ptr().add((i + 3) * n + j), acc30);
            _mm256_storeu_ps(out.as_mut_ptr().add((i + 3) * n + j + 8), acc31);
            j += 16;
        }
        while j + 8 <= n {
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            if sparse {
                for kk in 0..k {
                    let c0 = *a0.get_unchecked(kk);
                    let c1 = *a1.get_unchecked(kk);
                    let c2 = *a2.get_unchecked(kk);
                    let c3 = *a3.get_unchecked(kk);
                    if c0 == 0.0 && c1 == 0.0 && c2 == 0.0 && c3 == 0.0 {
                        continue;
                    }
                    let bv = _mm256_loadu_ps(b.as_ptr().add(kk * n + j));
                    acc0 = _mm256_fmadd_ps(_mm256_set1_ps(c0), bv, acc0);
                    acc1 = _mm256_fmadd_ps(_mm256_set1_ps(c1), bv, acc1);
                    acc2 = _mm256_fmadd_ps(_mm256_set1_ps(c2), bv, acc2);
                    acc3 = _mm256_fmadd_ps(_mm256_set1_ps(c3), bv, acc3);
                }
            } else {
                for kk in 0..k {
                    let bv = _mm256_loadu_ps(b.as_ptr().add(kk * n + j));
                    acc0 = _mm256_fmadd_ps(_mm256_set1_ps(*a0.get_unchecked(kk)), bv, acc0);
                    acc1 = _mm256_fmadd_ps(_mm256_set1_ps(*a1.get_unchecked(kk)), bv, acc1);
                    acc2 = _mm256_fmadd_ps(_mm256_set1_ps(*a2.get_unchecked(kk)), bv, acc2);
                    acc3 = _mm256_fmadd_ps(_mm256_set1_ps(*a3.get_unchecked(kk)), bv, acc3);
                }
            }
            _mm256_storeu_ps(out.as_mut_ptr().add(i * n + j), acc0);
            _mm256_storeu_ps(out.as_mut_ptr().add((i + 1) * n + j), acc1);
            _mm256_storeu_ps(out.as_mut_ptr().add((i + 2) * n + j), acc2);
            _mm256_storeu_ps(out.as_mut_ptr().add((i + 3) * n + j), acc3);
            j += 8;
        }
        // j tail: same per-element fma chain, scalar lanes.
        for j in j..n {
            for (a_row, r) in [(a0, 0usize), (a1, 1), (a2, 2), (a3, 3)] {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc = a_row[kk].mul_add(b[kk * n + j], acc);
                }
                out[(i + r) * n + j] = acc;
            }
        }
        i += 4;
    }
    for i in i..m {
        matmul_row_fma(k, n, &a[i * k..(i + 1) * k], b, &mut out[i * n..(i + 1) * n]);
    }
}

/// Remainder-row (and m=1) path of [`matmul_kernel_fma`]: b streamed
/// row-wise in 4-wide k-blocks with the sparse all-zero-block skip, `o_row`
/// (pre-zeroed) as the accumulator. Per element this is the same
/// k-increasing fma chain as the register tile — a skipped block would have
/// contributed `fma(0, b, acc) == acc` — so rows stay bitwise identical
/// across both paths.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matmul_row_fma(k: usize, n: usize, a_row: &[f32], b: &[f32], o_row: &mut [f32]) {
    use std::arch::x86_64::*;
    let mut kk = 0;
    while kk + 4 <= k {
        let c = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
        if c.0 != 0.0 || c.1 != 0.0 || c.2 != 0.0 || c.3 != 0.0 {
            let b0 = b.as_ptr().add(kk * n);
            let b1 = b.as_ptr().add((kk + 1) * n);
            let b2 = b.as_ptr().add((kk + 2) * n);
            let b3 = b.as_ptr().add((kk + 3) * n);
            let (vc0, vc1) = (_mm256_set1_ps(c.0), _mm256_set1_ps(c.1));
            let (vc2, vc3) = (_mm256_set1_ps(c.2), _mm256_set1_ps(c.3));
            let mut j = 0;
            while j + 8 <= n {
                let op = o_row.as_mut_ptr().add(j);
                let mut acc = _mm256_loadu_ps(op);
                acc = _mm256_fmadd_ps(vc0, _mm256_loadu_ps(b0.add(j)), acc);
                acc = _mm256_fmadd_ps(vc1, _mm256_loadu_ps(b1.add(j)), acc);
                acc = _mm256_fmadd_ps(vc2, _mm256_loadu_ps(b2.add(j)), acc);
                acc = _mm256_fmadd_ps(vc3, _mm256_loadu_ps(b3.add(j)), acc);
                _mm256_storeu_ps(op, acc);
                j += 8;
            }
            while j < n {
                let acc = c.0.mul_add(*b0.add(j), o_row[j]);
                let acc = c.1.mul_add(*b1.add(j), acc);
                let acc = c.2.mul_add(*b2.add(j), acc);
                o_row[j] = c.3.mul_add(*b3.add(j), acc);
                j += 1;
            }
        }
        kk += 4;
    }
    while kk < k {
        let av = a_row[kk];
        if av != 0.0 {
            let b0 = b.as_ptr().add(kk * n);
            let vc = _mm256_set1_ps(av);
            let mut j = 0;
            while j + 8 <= n {
                let op = o_row.as_mut_ptr().add(j);
                _mm256_storeu_ps(
                    op,
                    _mm256_fmadd_ps(vc, _mm256_loadu_ps(b0.add(j)), _mm256_loadu_ps(op)),
                );
                j += 8;
            }
            while j < n {
                o_row[j] = av.mul_add(*b0.add(j), o_row[j]);
                j += 1;
            }
        }
        kk += 1;
    }
}

/// AVX-512F register-tiled kernel: output tiles of 4 rows x 32 columns live
/// in zmm accumulators across the entire k loop (8 chains hide the fma
/// latency), with a 16-wide loop and one *masked* 16-wide step covering the
/// column tail — tail lanes are branchless, so which code path a column
/// takes depends only on its index and `n`, never on the row count.
///
/// **FP-order contract:** identical to [`matmul_kernel_fma`] — every output
/// element is a single k-increasing fused-multiply-add chain, and skipped
/// all-zero steps would have contributed `fma(0, b, acc) == acc` exactly.
/// Row `i` of an m-row product is bitwise identical to its m=1 twin. Values
/// differ from the AVX2 and portable tiers in the last bits; one tier per
/// process (see [`crate::isa::active`]) keeps every in-process comparison
/// bitwise-consistent.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn matmul_kernel_avx512(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let mut i = 0;
    while i + 4 <= m {
        let (a0, rest) = a[i * k..].split_at(k);
        let (a1, rest) = rest.split_at(k);
        let (a2, rest) = rest.split_at(k);
        let a3 = &rest[..k];
        // Same sparse-step heuristic as the AVX2 tier: one-hot heavy inputs
        // share structural zero slots across the batch, and skipping an
        // all-zero step is bitwise-free.
        let mut skippable = 0usize;
        for kk in 0..k {
            if a0[kk] == 0.0 && a1[kk] == 0.0 && a2[kk] == 0.0 && a3[kk] == 0.0 {
                skippable += 1;
            }
        }
        let sparse = skippable * 4 >= k;
        let mut j = 0;
        while j + 32 <= n {
            let mut acc00 = _mm512_setzero_ps();
            let mut acc01 = _mm512_setzero_ps();
            let mut acc10 = _mm512_setzero_ps();
            let mut acc11 = _mm512_setzero_ps();
            let mut acc20 = _mm512_setzero_ps();
            let mut acc21 = _mm512_setzero_ps();
            let mut acc30 = _mm512_setzero_ps();
            let mut acc31 = _mm512_setzero_ps();
            for kk in 0..k {
                let c0 = *a0.get_unchecked(kk);
                let c1 = *a1.get_unchecked(kk);
                let c2 = *a2.get_unchecked(kk);
                let c3 = *a3.get_unchecked(kk);
                if sparse && c0 == 0.0 && c1 == 0.0 && c2 == 0.0 && c3 == 0.0 {
                    continue;
                }
                let bv0 = _mm512_loadu_ps(b.as_ptr().add(kk * n + j));
                let bv1 = _mm512_loadu_ps(b.as_ptr().add(kk * n + j + 16));
                let v0 = _mm512_set1_ps(c0);
                acc00 = _mm512_fmadd_ps(v0, bv0, acc00);
                acc01 = _mm512_fmadd_ps(v0, bv1, acc01);
                let v1 = _mm512_set1_ps(c1);
                acc10 = _mm512_fmadd_ps(v1, bv0, acc10);
                acc11 = _mm512_fmadd_ps(v1, bv1, acc11);
                let v2 = _mm512_set1_ps(c2);
                acc20 = _mm512_fmadd_ps(v2, bv0, acc20);
                acc21 = _mm512_fmadd_ps(v2, bv1, acc21);
                let v3 = _mm512_set1_ps(c3);
                acc30 = _mm512_fmadd_ps(v3, bv0, acc30);
                acc31 = _mm512_fmadd_ps(v3, bv1, acc31);
            }
            _mm512_storeu_ps(out.as_mut_ptr().add(i * n + j), acc00);
            _mm512_storeu_ps(out.as_mut_ptr().add(i * n + j + 16), acc01);
            _mm512_storeu_ps(out.as_mut_ptr().add((i + 1) * n + j), acc10);
            _mm512_storeu_ps(out.as_mut_ptr().add((i + 1) * n + j + 16), acc11);
            _mm512_storeu_ps(out.as_mut_ptr().add((i + 2) * n + j), acc20);
            _mm512_storeu_ps(out.as_mut_ptr().add((i + 2) * n + j + 16), acc21);
            _mm512_storeu_ps(out.as_mut_ptr().add((i + 3) * n + j), acc30);
            _mm512_storeu_ps(out.as_mut_ptr().add((i + 3) * n + j + 16), acc31);
            j += 32;
        }
        while j + 16 <= n {
            let mut acc0 = _mm512_setzero_ps();
            let mut acc1 = _mm512_setzero_ps();
            let mut acc2 = _mm512_setzero_ps();
            let mut acc3 = _mm512_setzero_ps();
            for kk in 0..k {
                let c0 = *a0.get_unchecked(kk);
                let c1 = *a1.get_unchecked(kk);
                let c2 = *a2.get_unchecked(kk);
                let c3 = *a3.get_unchecked(kk);
                if sparse && c0 == 0.0 && c1 == 0.0 && c2 == 0.0 && c3 == 0.0 {
                    continue;
                }
                let bv = _mm512_loadu_ps(b.as_ptr().add(kk * n + j));
                acc0 = _mm512_fmadd_ps(_mm512_set1_ps(c0), bv, acc0);
                acc1 = _mm512_fmadd_ps(_mm512_set1_ps(c1), bv, acc1);
                acc2 = _mm512_fmadd_ps(_mm512_set1_ps(c2), bv, acc2);
                acc3 = _mm512_fmadd_ps(_mm512_set1_ps(c3), bv, acc3);
            }
            _mm512_storeu_ps(out.as_mut_ptr().add(i * n + j), acc0);
            _mm512_storeu_ps(out.as_mut_ptr().add((i + 1) * n + j), acc1);
            _mm512_storeu_ps(out.as_mut_ptr().add((i + 2) * n + j), acc2);
            _mm512_storeu_ps(out.as_mut_ptr().add((i + 3) * n + j), acc3);
            j += 16;
        }
        if j < n {
            // Masked column tail: zero-masked loads contribute
            // `fma(c, 0, acc) == acc` in the dead lanes, live lanes follow
            // the exact per-element chain of the full-width loop.
            let mask: __mmask16 = (1u16 << (n - j)) - 1;
            let mut acc0 = _mm512_setzero_ps();
            let mut acc1 = _mm512_setzero_ps();
            let mut acc2 = _mm512_setzero_ps();
            let mut acc3 = _mm512_setzero_ps();
            for kk in 0..k {
                let c0 = *a0.get_unchecked(kk);
                let c1 = *a1.get_unchecked(kk);
                let c2 = *a2.get_unchecked(kk);
                let c3 = *a3.get_unchecked(kk);
                if sparse && c0 == 0.0 && c1 == 0.0 && c2 == 0.0 && c3 == 0.0 {
                    continue;
                }
                let bv = _mm512_maskz_loadu_ps(mask, b.as_ptr().add(kk * n + j));
                acc0 = _mm512_fmadd_ps(_mm512_set1_ps(c0), bv, acc0);
                acc1 = _mm512_fmadd_ps(_mm512_set1_ps(c1), bv, acc1);
                acc2 = _mm512_fmadd_ps(_mm512_set1_ps(c2), bv, acc2);
                acc3 = _mm512_fmadd_ps(_mm512_set1_ps(c3), bv, acc3);
            }
            _mm512_mask_storeu_ps(out.as_mut_ptr().add(i * n + j), mask, acc0);
            _mm512_mask_storeu_ps(out.as_mut_ptr().add((i + 1) * n + j), mask, acc1);
            _mm512_mask_storeu_ps(out.as_mut_ptr().add((i + 2) * n + j), mask, acc2);
            _mm512_mask_storeu_ps(out.as_mut_ptr().add((i + 3) * n + j), mask, acc3);
        }
        i += 4;
    }
    for i in i..m {
        matmul_row_avx512(k, n, &a[i * k..(i + 1) * k], b, &mut out[i * n..(i + 1) * n]);
    }
}

/// Remainder-row (and m=1) path of [`matmul_kernel_avx512`]: the same
/// 16-wide + masked-tail column scheme, accumulators kept in registers for
/// the whole k loop, zero coefficients skipped (bitwise-free).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn matmul_row_avx512(k: usize, n: usize, a_row: &[f32], b: &[f32], o_row: &mut [f32]) {
    use std::arch::x86_64::*;
    let mut j = 0;
    while j + 32 <= n {
        let mut acc0 = _mm512_setzero_ps();
        let mut acc1 = _mm512_setzero_ps();
        for kk in 0..k {
            let c = *a_row.get_unchecked(kk);
            if c == 0.0 {
                continue;
            }
            let v = _mm512_set1_ps(c);
            acc0 = _mm512_fmadd_ps(v, _mm512_loadu_ps(b.as_ptr().add(kk * n + j)), acc0);
            acc1 = _mm512_fmadd_ps(v, _mm512_loadu_ps(b.as_ptr().add(kk * n + j + 16)), acc1);
        }
        _mm512_storeu_ps(o_row.as_mut_ptr().add(j), acc0);
        _mm512_storeu_ps(o_row.as_mut_ptr().add(j + 16), acc1);
        j += 32;
    }
    while j + 16 <= n {
        let mut acc = _mm512_setzero_ps();
        for kk in 0..k {
            let c = *a_row.get_unchecked(kk);
            if c == 0.0 {
                continue;
            }
            acc = _mm512_fmadd_ps(
                _mm512_set1_ps(c),
                _mm512_loadu_ps(b.as_ptr().add(kk * n + j)),
                acc,
            );
        }
        _mm512_storeu_ps(o_row.as_mut_ptr().add(j), acc);
        j += 16;
    }
    if j < n {
        let mask: __mmask16 = (1u16 << (n - j)) - 1;
        let mut acc = _mm512_setzero_ps();
        for kk in 0..k {
            let c = *a_row.get_unchecked(kk);
            if c == 0.0 {
                continue;
            }
            let bv = _mm512_maskz_loadu_ps(mask, b.as_ptr().add(kk * n + j));
            acc = _mm512_fmadd_ps(_mm512_set1_ps(c), bv, acc);
        }
        _mm512_mask_storeu_ps(o_row.as_mut_ptr().add(j), mask, acc);
    }
}

/// AVX2+FMA dot product: two 8-lane fma chains over 16-wide steps, one
/// 8-wide step, a deterministic tree reduction, then a scalar `mul_add`
/// tail. Lane membership depends only on the index, so the result is a
/// pure function of the inputs — the property every [`dot`] caller, such
/// as the batched attention score scatter, relies on.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_fma(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let k = a.len();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut kk = 0;
    while kk + 16 <= k {
        acc0 = _mm256_fmadd_ps(
            _mm256_loadu_ps(a.as_ptr().add(kk)),
            _mm256_loadu_ps(b.as_ptr().add(kk)),
            acc0,
        );
        acc1 = _mm256_fmadd_ps(
            _mm256_loadu_ps(a.as_ptr().add(kk + 8)),
            _mm256_loadu_ps(b.as_ptr().add(kk + 8)),
            acc1,
        );
        kk += 16;
    }
    while kk + 8 <= k {
        acc0 = _mm256_fmadd_ps(
            _mm256_loadu_ps(a.as_ptr().add(kk)),
            _mm256_loadu_ps(b.as_ptr().add(kk)),
            acc0,
        );
        kk += 8;
    }
    let acc = _mm256_add_ps(acc0, acc1);
    let lo = _mm256_castps256_ps128(acc);
    let hi = _mm256_extractf128_ps::<1>(acc);
    let q = _mm_add_ps(lo, hi);
    let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
    let s = _mm_add_ss(d, _mm_shuffle_ps::<1>(d, d));
    let mut sum = _mm_cvtss_f32(s);
    while kk < k {
        sum = a[kk].mul_add(b[kk], sum);
        kk += 1;
    }
    sum
}

/// AVX-512F dot product: two 16-lane fma chains over 32-wide steps, one
/// 16-wide step, the `_mm512_reduce_add_ps` tree reduction, then a scalar
/// `mul_add` tail. Same determinism note as [`dot_fma`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dot_avx512(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
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

/// One row of the i-k-j kernel: `o_row[1 x n] += a_row[1 x k] * b[k x n]`.
/// The reference accumulation order every blocked variant must reproduce.
#[inline]
fn matmul_row(k: usize, n: usize, a_row: &[f32], b: &[f32], o_row: &mut [f32]) {
    let mut kk = 0;
    while kk + 4 <= k {
        let (a0, a1, a2, a3) = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
        if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
            let b0 = &b[kk * n..][..n];
            let b1 = &b[(kk + 1) * n..][..n];
            let b2 = &b[(kk + 2) * n..][..n];
            let b3 = &b[(kk + 3) * n..][..n];
            for (j, o) in o_row.iter_mut().enumerate() {
                *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            }
        }
        kk += 4;
    }
    while kk < k {
        let a0 = a_row[kk];
        if a0 != 0.0 {
            let b0 = &b[kk * n..][..n];
            for (j, o) in o_row.iter_mut().enumerate() {
                *o += a0 * b0[j];
            }
        }
        kk += 1;
    }
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

    /// Scalar triple-loop reference used to validate the blocked kernel.
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
        // Shapes straddle the 4-wide k-blocking (remainders 1..3) and include
        // zero runs to exercise the sparse-block skip.
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
                assert!((x - y).abs() < 1e-5, "blocked kernel diverged: {x} vs {y}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fma_kernel_close_to_portable_and_rowwise_bitwise_stable() {
        if !(std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma"))
        {
            return;
        }
        // The FMA variant rounds differently (fused multiply-add), so it is
        // only *close* to the portable kernel — but within itself every row
        // of an m-row product must be bitwise identical to the same row
        // computed at m = 1, across tile remainders and j tails.
        for &(m, k, n) in &[(1, 4, 4), (3, 7, 5), (4, 8, 8), (5, 17, 6), (7, 96, 9), (16, 219, 13)]
        {
            let a: Vec<f32> = (0..m * k)
                .map(|i| {
                    if (i / k) % 2 == 0 && (i % k) / 4 == 0 {
                        0.0
                    } else {
                        (i as f32 * 0.619).sin()
                    }
                })
                .collect();
            let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.271).cos()).collect();
            let mut simd = vec![0.0f32; m * n];
            let mut portable = vec![0.0f32; m * n];
            unsafe { matmul_kernel_fma(m, k, n, &a, &b, &mut simd) };
            matmul_kernel_portable(m, k, n, &a, &b, &mut portable);
            for (s, p) in simd.iter().zip(&portable) {
                assert!((s - p).abs() <= 1e-5 * (k as f32).sqrt() * p.abs().max(1.0));
            }
            for i in 0..m {
                let mut single = vec![0.0f32; n];
                unsafe { matmul_kernel_fma(1, k, n, &a[i * k..(i + 1) * k], &b, &mut single) };
                assert_eq!(
                    &simd[i * n..(i + 1) * n],
                    single.as_slice(),
                    "FMA row {i} of {m}x{k}x{n} differs from its m=1 twin"
                );
            }
        }
    }

    #[test]
    fn batched_rows_bitwise_equal_single_rows() {
        // The FP-order contract: row i of an m-row product must be *bitwise*
        // identical to multiplying row i alone (m=1). Shapes cover the 4-row
        // register blocking (remainder rows), 4-wide k-blocking (tails), and
        // rows with all-zero k-blocks that take the sparse skip path.
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
    fn matmul_into_reuses_and_reshapes_buffer() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let mut out = Tensor::filled(7, 7, f32::NAN); // stale shape and contents
        a.matmul_into(&b, &mut out);
        assert_eq!(out.shape(), (2, 2));
        assert_eq!(out.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 4, (0..12).map(|x| x as f32).collect());
        assert_eq!(a.matmul_tn(&b), a.transposed().matmul(&b));
    }

    #[test]
    fn matmul_seq_matches_matmul_on_exact_values() {
        // Integer products and sums are exact, so any order agrees; k = 6
        // covers one four-step pass plus a remainder.
        let a = Tensor::from_vec(2, 6, (0..12).map(|x| x as f32 - 5.0).collect());
        let b = Tensor::from_vec(6, 3, (0..18).map(|x| (x % 7) as f32).collect());
        assert_eq!(a.matmul_seq(&b), a.matmul(&b));
        assert_eq!(Tensor::zeros(2, 0).matmul_seq(&Tensor::zeros(0, 3)), Tensor::zeros(2, 3));
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
