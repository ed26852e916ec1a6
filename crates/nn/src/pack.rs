//! Panel-packed matrices and the fused-epilogue GEMM that consumes them:
//! the crate's one GEMM. Every matrix product runs here — each layer's
//! `x·W` on either executor (over the store's packed weights) and the
//! tape's backward products (packed on the spot).
//!
//! The inference hot loop multiplies small activation matrices (`m` = 1..16
//! rows) against the *same* weight matrices thousands of times per query. Two
//! costs are pure overhead there:
//!
//! * **Layout**: the row-major weight walks column `j` with a stride of `n`
//!   floats per k-step. Packing the matrix once at load into panel-major
//!   order — `NR`-column panels, each panel's k-rows contiguous — turns every
//!   k-step of the kernel into one 128-byte sequential load.
//! * **Extra passes**: `y = act(x·W + b)` as three ops (GEMM, bias
//!   broadcast, activation) touches the output three times. The packed GEMM
//!   applies bias and `Relu` to the accumulator registers before the
//!   single store, and can optionally *accumulate* onto the existing output
//!   (which is how the LSTM adds `h·W_fold` onto its node's own term in
//!   one GEMM call with no separate add pass). No model layer ends a GEMM
//!   in tanh or sigmoid; those run as one elementwise pass over the stored
//!   output, [`crate::act::activate`].
//!
//! Panels are `NR` = 32 columns wide for **every** ISA tier: AVX-512 eats a
//! panel as two zmm registers, AVX2 as two 16-column halves of two ymm each,
//! scalar loops over it. Tail panels are zero-padded, so the k-loop never
//! branches on column index — only the epilogue's store is masked — and on
//! AVX-512 a last panel with at most 16 live columns takes one zmm per row,
//! since its second would multiply padding only. The SIMD tiers run rows in
//! 4-row blocks, one panel (AVX2: half) at a time, and the last `m mod 4`
//! rows as one block across several panels, so a short call keeps six to
//! twelve accumulator chains in flight, not two.
//!
//! **Live-step lists.** Featurized inputs are one-hot heavy, and the VAE's
//! ReLU layers feed it units that are dead for every served row, so many
//! k-steps are zero in every row of a block. Each row block first writes
//! the list of k-steps at which at least one of its rows is non-zero
//! (AVX-512: a compare and a compress per 16 steps; AVX2: a compare and a
//! movemask per 8), and every panel's k-loop walks that list: one loop per
//! block shape, no branch on the data. The scalar tier skips a row's zero
//! coefficients one row at a time, the same rule for a 1-row block. The
//! list lives in a thread-local buffer, so a call allocates nothing once
//! its thread has seen its `k`.
//!
//! **FP-order contract:** which instructions touch a column depend only on
//! the column index and `n`, never on the row count, so row `i` of a
//! batched product is bitwise identical to the 1-row product of row `i` —
//! the invariant that lets search score a batch of candidate plans and
//! still match the one-plan path bit for bit. On every tier each output
//! element is one k-increasing fma chain (`mul_add` on scalar), then `+out`,
//! then `+bias`, so every tier computes the same bits. Skipping a step
//! whose coefficients are all `±0` leaves that chain unchanged for finite
//! weights: `fma(±0, w, acc) == acc` exactly, and accumulators can never
//! become `-0.0` (they start at `+0.0`, and `+0.0 + -0.0 == +0.0` under
//! round-to-nearest). An infinite or NaN weight at a skipped step would
//! have made the dense chain NaN; the skip is exact only for finite
//! weights, on every tier and every block. NaN coefficients count as
//! non-zero and are never skipped.

use crate::isa::Isa;
use crate::layers::Activation;
use crate::tensor::Tensor;

/// Panel width in columns, shared by all ISA tiers.
pub const NR: usize = 32;

/// A `[k x n]` matrix repacked for [`gemm_packed`]: `ceil(n/NR)` panels,
/// each holding its `NR` columns k-major (`panels[p*k*NR + kk*NR + c]` is
/// element `(kk, p*NR + c)` of the source), tail columns zero-padded. The
/// default is the empty `0 x 0` matrix.
///
/// The panels are stored in 64-byte `Line`s, so every panel row starts on
/// a cache-line boundary wherever the allocator puts the buffer: an AVX-512
/// load of a row never splits a line. Left to a plain `Vec<f32>` the offset
/// would be whatever the heap's history gave, and that history (threads
/// that trained or labelled before) differs from one process to the next.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PackedGemm {
    k: usize,
    n: usize,
    panels: Vec<Line>,
}

/// Floats per `Line`; `NR` is a whole number of lines, so every panel
/// row, and every panel, starts on a line.
const LINE: usize = 16;
const _: () = assert!(NR.is_multiple_of(LINE));

/// One cache line of panel floats.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C, align(64))]
struct Line([f32; LINE]);
const _: () = assert!(std::mem::size_of::<Line>() == LINE * 4);

impl PackedGemm {
    /// Pack a `[k x n]` row-major matrix.
    pub fn pack(w: &Tensor) -> PackedGemm {
        let mut packed = PackedGemm::default();
        packed.repack(w.rows(), w.cols(), w.data());
        packed
    }

    /// Re-lay the `[k x n]` row-major `src` into this buffer, reusing its
    /// allocation.
    ///
    /// # Panics
    /// Panics if `src.len() != k * n`.
    pub fn repack(&mut self, k: usize, n: usize, src: &[f32]) {
        assert_eq!(src.len(), k * n, "PackedGemm::repack: source is not {k}x{n}");
        let np = n.div_ceil(NR);
        self.k = k;
        self.n = n;
        self.panels.clear();
        self.panels.resize(np * k * NR / LINE, Line::default());
        let panels = self.floats_mut();
        for p in 0..np {
            let cols = NR.min(n - p * NR);
            let dst = &mut panels[p * k * NR..(p + 1) * k * NR];
            for kk in 0..k {
                let at = kk * n + p * NR;
                dst[kk * NR..kk * NR + cols].copy_from_slice(&src[at..at + cols]);
            }
        }
    }

    /// Input width (rows of the packed matrix).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width (columns of the packed matrix).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The panels as one flat float slice.
    fn floats(&self) -> &[f32] {
        // SAFETY: `Line` is `repr(C)` over `[f32; LINE]` with no padding
        // (size asserted above), so the lines are `len · LINE` contiguous,
        // initialized floats.
        unsafe { std::slice::from_raw_parts(self.panels.as_ptr().cast(), self.panels.len() * LINE) }
    }

    fn floats_mut(&mut self) -> &mut [f32] {
        // SAFETY: as in `floats`, and the borrow is unique.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.panels.as_mut_ptr().cast(),
                self.panels.len() * LINE,
            )
        }
    }
}

/// `out[m x n] = act((accumulate ? out : 0) + a[m x k] · W + bias)`, with the
/// accumulate, bias and `Relu` fused into the accumulator registers.
/// Dispatches once per process via [`crate::isa::active`].
///
/// # Panics
/// As [`gemm_packed_force`], on a buffer too short for the shape.
pub fn gemm_packed(
    m: usize,
    a: &[f32],
    w: &PackedGemm,
    accumulate: bool,
    bias: Option<&[f32]>,
    act: Activation,
    out: &mut [f32],
) {
    gemm_packed_force(crate::isa::active(), m, a, w, accumulate, bias, act, out)
}

/// [`gemm_packed`] on an explicitly chosen ISA tier (falls back to scalar if
/// the CPU lacks it). Test/bench entry point; production code uses the
/// process-wide dispatch.
///
/// # Panics
/// Panics if `a` holds fewer than `m·k` floats, `out` fewer than `m·n`, or
/// `bias` fewer than `n`: the SIMD tiers index them through raw pointers.
#[allow(clippy::too_many_arguments)] // GEMM signature: dims + operands + epilogue knobs.
pub fn gemm_packed_force(
    isa: Isa,
    m: usize,
    a: &[f32],
    w: &PackedGemm,
    accumulate: bool,
    bias: Option<&[f32]>,
    act: Activation,
    out: &mut [f32],
) {
    let fits = |len: usize, width: usize| m.checked_mul(width).is_some_and(|need| len >= need);
    assert!(fits(a.len(), w.k), "gemm_packed: input shorter than m·k");
    assert!(fits(out.len(), w.n), "gemm_packed: output shorter than m·n");
    if let Some(b) = bias {
        assert!(b.len() >= w.n, "gemm_packed: bias shorter than n");
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard checked the CPU runs the tier, and the asserts
        // above that every buffer covers the shape.
        Isa::Avx512 if isa.cpu_supports() => unsafe {
            gemm_packed_avx512(m, a, w, accumulate, bias, act, out)
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if isa.cpu_supports() => unsafe {
            gemm_packed_avx2(m, a, w, accumulate, bias, act, out)
        },
        _ => gemm_packed_scalar(m, a, w, accumulate, bias, act, out),
    }
    // The kernels' epilogues apply only `Relu`; tanh and sigmoid run after
    // them, elementwise over the stored output (the same bits on any tier).
    crate::act::activate(act, &mut out[..m * w.n]);
}

fn gemm_packed_scalar(
    m: usize,
    a: &[f32],
    w: &PackedGemm,
    accumulate: bool,
    bias: Option<&[f32]>,
    act: Activation,
    out: &mut [f32],
) {
    let (k, n) = (w.k, w.n);
    let np = n.div_ceil(NR);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for p in 0..np {
            let cols = NR.min(n - p * NR);
            let panel = &w.floats()[p * k * NR..(p + 1) * k * NR];
            let mut acc = [0.0f32; NR];
            for (kk, &c) in a_row.iter().enumerate() {
                if c == 0.0 {
                    continue;
                }
                let prow = &panel[kk * NR..(kk + 1) * NR];
                for (av, &pv) in acc.iter_mut().zip(prow) {
                    *av = c.mul_add(pv, *av);
                }
            }
            for (j, &av) in acc.iter().enumerate().take(cols) {
                let col = p * NR + j;
                let mut v = av;
                if accumulate {
                    v += o_row[col];
                }
                if let Some(b) = bias {
                    v += b[col];
                }
                o_row[col] = if act == Activation::Relu { v.max(0.0) } else { v };
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Activation, PackedGemm, NR};
    use std::arch::x86_64::*;
    use std::cell::Cell;

    /// One call's operands as the SIMD blocks read them: `a` is `[m x k]`,
    /// `out` `[m x n]`, both row-major, and `panels` `w`'s floats.
    struct Operands {
        k: usize,
        n: usize,
        a: *const f32,
        panels: *const f32,
        accumulate: bool,
        bias: Option<*const f32>,
        act: Activation,
        out: *mut f32,
    }

    impl Operands {
        fn new(
            a: &[f32],
            w: &PackedGemm,
            accumulate: bool,
            bias: Option<&[f32]>,
            act: Activation,
            out: &mut [f32],
        ) -> Self {
            Self {
                k: w.k,
                n: w.n,
                a: a.as_ptr(),
                panels: w.floats().as_ptr(),
                accumulate,
                bias: bias.map(<[f32]>::as_ptr),
                act,
                out: out.as_mut_ptr(),
            }
        }

        /// The `R` row pointers of the block from row `i`.
        ///
        /// # Safety
        /// `a` must hold rows `i..i + R`.
        unsafe fn rows<const R: usize>(&self, i: usize) -> [*const f32; R] {
            std::array::from_fn(|r| self.a.add((i + r) * self.k))
        }
    }

    thread_local! {
        /// The live-step list of the row block being run, kept for the
        /// thread's next call so a call allocates nothing once it has seen
        /// its `k`.
        static LIVE: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
    }

    /// This thread's live-step list, at least `k + 16` entries long (the
    /// AVX-512 builder stores whole 16-lane vectors past its count). Hand
    /// it back with `LIVE.set` when the call is done.
    fn live_list(k: usize) -> Vec<u32> {
        let mut live = LIVE.take();
        if live.len() < k + 16 {
            live.resize(k + 16, 0);
        }
        live
    }

    /// `Relu` on a ymm register; every other activation leaves it as is
    /// (tanh and sigmoid run after the kernel, see `gemm_packed_force`).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn act_ymm(act: Activation, v: __m256) -> __m256 {
        match act {
            Activation::Relu => _mm256_max_ps(v, _mm256_setzero_ps()),
            _ => v,
        }
    }

    /// Fused epilogue for one row's 16-column half: optional accumulate onto
    /// the existing output, optional bias, `Relu`, store. `live` is how
    /// many of the 16 lanes map to real columns; partial halves detour
    /// through stack buffers so every live lane still takes the SIMD path
    /// (lane path depends only on the column, per the FP-order contract).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn epilogue_avx2(
        mut v0: __m256,
        mut v1: __m256,
        o: *mut f32,
        bias: Option<*const f32>,
        accumulate: bool,
        act: Activation,
        live: usize,
    ) {
        if live == 16 {
            if accumulate {
                v0 = _mm256_add_ps(v0, _mm256_loadu_ps(o));
                v1 = _mm256_add_ps(v1, _mm256_loadu_ps(o.add(8)));
            }
            if let Some(b) = bias {
                v0 = _mm256_add_ps(v0, _mm256_loadu_ps(b));
                v1 = _mm256_add_ps(v1, _mm256_loadu_ps(b.add(8)));
            }
            _mm256_storeu_ps(o, act_ymm(act, v0));
            _mm256_storeu_ps(o.add(8), act_ymm(act, v1));
        } else {
            if accumulate {
                let mut prev = [0.0f32; 16];
                std::ptr::copy_nonoverlapping(o, prev.as_mut_ptr(), live);
                v0 = _mm256_add_ps(v0, _mm256_loadu_ps(prev.as_ptr()));
                v1 = _mm256_add_ps(v1, _mm256_loadu_ps(prev.as_ptr().add(8)));
            }
            if let Some(b) = bias {
                let mut bb = [0.0f32; 16];
                std::ptr::copy_nonoverlapping(b, bb.as_mut_ptr(), live);
                v0 = _mm256_add_ps(v0, _mm256_loadu_ps(bb.as_ptr()));
                v1 = _mm256_add_ps(v1, _mm256_loadu_ps(bb.as_ptr().add(8)));
            }
            let mut buf = [0.0f32; 16];
            _mm256_storeu_ps(buf.as_mut_ptr(), act_ymm(act, v0));
            _mm256_storeu_ps(buf.as_mut_ptr().add(8), act_ymm(act, v1));
            std::ptr::copy_nonoverlapping(buf.as_ptr(), o, live);
        }
    }

    /// Writes to `live` the k-steps at which at least one of `rows` is
    /// non-zero, in increasing order, and returns how many there are. An
    /// all-zero step is skipped by every panel of the block, bitwise-free
    /// (see the module's FP-order contract); NaN counts as non-zero.
    ///
    /// # Safety
    /// Every row must hold `k` floats, and `live` at least `k`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn live_steps_avx2<const R: usize>(
        rows: [*const f32; R],
        k: usize,
        live: &mut [u32],
    ) -> usize {
        let zero = _mm256_setzero_ps();
        let (mut n, mut kk) = (0, 0);
        while kk + 8 <= k {
            let mut bits = 0;
            for r in rows {
                let ne = _mm256_cmp_ps::<_CMP_NEQ_UQ>(_mm256_loadu_ps(r.add(kk)), zero);
                bits |= _mm256_movemask_ps(ne);
            }
            for j in 0..8 {
                live[n] = (kk + j) as u32;
                n += (bits >> j & 1) as usize;
            }
            kk += 8;
        }
        for kk in kk..k {
            live[n] = kk as u32;
            n += rows.iter().fold(false, |any, r| any | (*r.add(kk) != 0.0)) as usize;
        }
        n
    }

    /// `R` rows from row `i` times the `U` 16-column halves from half `u`,
    /// over the k-steps in `live`: `R·U` pairs of ymm accumulators, each
    /// element one k-increasing fma chain.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn block_avx2<const R: usize, const U: usize>(
        g: &Operands,
        i: usize,
        u: usize,
        live: &[u32],
    ) {
        let (k, panels) = (g.k, g.panels);
        let halves: [*const f32; U] =
            std::array::from_fn(|q| panels.add((u + q) / 2 * k * NR + (u + q) % 2 * 16));
        let rows = g.rows::<R>(i);
        let mut acc = [[[_mm256_setzero_ps(); 2]; R]; U];
        for &kk in live {
            let kk = kk as usize;
            let c: [f32; R] = std::array::from_fn(|r| *rows[r].add(kk));
            for (q, acc) in acc.iter_mut().enumerate() {
                let b = halves[q].add(kk * NR);
                let (b0, b1) = (_mm256_loadu_ps(b), _mm256_loadu_ps(b.add(8)));
                for ([a0, a1], &c) in acc.iter_mut().zip(&c) {
                    let v = _mm256_set1_ps(c);
                    *a0 = _mm256_fmadd_ps(v, b0, *a0);
                    *a1 = _mm256_fmadd_ps(v, b1, *a1);
                }
            }
        }
        for (q, acc) in acc.iter().enumerate() {
            for (r, &[v0, v1]) in acc.iter().enumerate() {
                let col0 = (u + q) * 16;
                let o = g.out.add((i + r) * g.n + col0);
                let bias = g.bias.map(|b| b.add(col0));
                let live = (g.n - col0).min(16);
                epilogue_avx2(v0, v1, o, bias, g.accumulate, g.act, live);
            }
        }
    }

    /// Rows `i..i + R` across every live half, `U` halves per block, the
    /// last `< U` one at a time, all over the block's one live-step list.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn rows_avx2<const R: usize, const U: usize>(g: &Operands, i: usize, live: &mut [u32]) {
        let n = live_steps_avx2(g.rows::<R>(i), g.k, live);
        let live = &live[..n];
        let halves = g.n.div_ceil(16);
        let mut u = 0;
        while u + U <= halves {
            block_avx2::<R, U>(g, i, u, live);
            u += U;
        }
        // One call site per block shape, so each inlines into its loop.
        if U > 1 {
            for u in u..halves {
                block_avx2::<R, 1>(g, i, u, live);
            }
        }
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA; `a`, `out` and `bias` must cover
    /// the shape, as [`super::gemm_packed_force`] asserts.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemm_packed_avx2(
        m: usize,
        a: &[f32],
        w: &PackedGemm,
        accumulate: bool,
        bias: Option<&[f32]>,
        act: Activation,
        out: &mut [f32],
    ) {
        let g = Operands::new(a, w, accumulate, bias, act, out);
        let mut live = live_list(g.k);
        let mut i = 0;
        while i + 4 <= m {
            rows_avx2::<4, 1>(&g, i, &mut live);
            i += 4;
        }
        // The last `m mod 4` rows as one block across several halves, so
        // a 1-row call keeps eight fma chains in flight, not two; three
        // rows take one half at a time, or their twelve accumulators and
        // four loads would spill the sixteen ymm registers.
        match m - i {
            1 => rows_avx2::<1, 4>(&g, i, &mut live),
            2 => rows_avx2::<2, 2>(&g, i, &mut live),
            3 => rows_avx2::<3, 1>(&g, i, &mut live),
            _ => {}
        }
        LIVE.set(live);
    }

    /// `Relu` on a zmm register; every other activation leaves it as is.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn act_zmm(act: Activation, v: __m512) -> __m512 {
        match act {
            Activation::Relu => _mm512_max_ps(v, _mm512_setzero_ps()),
            _ => v,
        }
    }

    /// Fused epilogue for one row's full 32-column panel; `cols` live
    /// columns, masked loads/stores cover the tail (dead lanes contribute
    /// `+0.0` and are never stored).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn epilogue_avx512(
        mut v0: __m512,
        mut v1: __m512,
        o: *mut f32,
        bias: Option<*const f32>,
        accumulate: bool,
        act: Activation,
        cols: usize,
    ) {
        let m0: __mmask16 = if cols >= 16 { 0xffff } else { (1u16 << cols) - 1 };
        let m1: __mmask16 = if cols >= 32 {
            0xffff
        } else if cols > 16 {
            (1u16 << (cols - 16)) - 1
        } else {
            0
        };
        if accumulate {
            v0 = _mm512_add_ps(v0, _mm512_maskz_loadu_ps(m0, o));
            v1 = _mm512_add_ps(v1, _mm512_maskz_loadu_ps(m1, o.add(16)));
        }
        if let Some(b) = bias {
            v0 = _mm512_add_ps(v0, _mm512_maskz_loadu_ps(m0, b));
            v1 = _mm512_add_ps(v1, _mm512_maskz_loadu_ps(m1, b.add(16)));
        }
        _mm512_mask_storeu_ps(o, m0, act_zmm(act, v0));
        if m1 != 0 {
            _mm512_mask_storeu_ps(o.add(16), m1, act_zmm(act, v1));
        }
    }

    /// [`live_steps_avx2`] on AVX-512: 16 steps per compare of each row,
    /// their live lanes' indices compressed into one vector that is stored
    /// whole at the list's end (its dead tail is overwritten next).
    ///
    /// # Safety
    /// Every row must hold `k` floats, and `live` at least `k + 16`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn live_steps_avx512<const R: usize>(
        rows: [*const f32; R],
        k: usize,
        live: &mut [u32],
    ) -> usize {
        assert!(live.len() >= k + 16, "live-step list shorter than k + 16");
        let zero = _mm512_setzero_ps();
        let mut idx = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let (mut n, mut kk) = (0, 0);
        while kk < k {
            let lanes: __mmask16 = if k - kk >= 16 { 0xffff } else { (1 << (k - kk)) - 1 };
            let mut bits: __mmask16 = 0;
            for r in rows {
                let c = _mm512_maskz_loadu_ps(lanes, r.add(kk));
                bits |= _mm512_mask_cmp_ps_mask::<_CMP_NEQ_UQ>(lanes, c, zero);
            }
            // `n <= kk < k`, so the 16 lanes stay inside `k + 16`.
            _mm512_storeu_epi32(
                live.as_mut_ptr().add(n).cast(),
                _mm512_maskz_compress_epi32(bits, idx),
            );
            n += bits.count_ones() as usize;
            idx = _mm512_add_epi32(idx, _mm512_set1_epi32(16));
            kk += 16;
        }
        n
    }

    /// `R` rows from row `i` times the `P` panels from panel `p`, over the
    /// k-steps in `live`: `R·P` pairs of zmm accumulators, each element one
    /// k-increasing fma chain. The k-loop always runs full width — tail
    /// panels are zero-padded, so only the epilogue masks — except that
    /// the last panel takes one zmm per row when `NARROW` (it has at most
    /// 16 live columns, so its second zmm would only multiply padding).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn block_avx512<const R: usize, const P: usize, const NARROW: bool>(
        g: &Operands,
        i: usize,
        p: usize,
        live: &[u32],
    ) {
        let k = g.k;
        let panels: [*const f32; P] = std::array::from_fn(|q| g.panels.add((p + q) * k * NR));
        let rows = g.rows::<R>(i);
        let mut acc = [[[_mm512_setzero_ps(); 2]; R]; P];
        for &kk in live {
            let kk = kk as usize;
            let c: [f32; R] = std::array::from_fn(|r| *rows[r].add(kk));
            for (q, acc) in acc.iter_mut().enumerate() {
                let wide = !(NARROW && q + 1 == P);
                let b = panels[q].add(kk * NR);
                let b0 = _mm512_loadu_ps(b);
                let b1 = if wide { _mm512_loadu_ps(b.add(16)) } else { _mm512_setzero_ps() };
                for ([a0, a1], &c) in acc.iter_mut().zip(&c) {
                    let v = _mm512_set1_ps(c);
                    *a0 = _mm512_fmadd_ps(v, b0, *a0);
                    if wide {
                        *a1 = _mm512_fmadd_ps(v, b1, *a1);
                    }
                }
            }
        }
        for (q, acc) in acc.iter().enumerate() {
            for (r, &[v0, v1]) in acc.iter().enumerate() {
                let col0 = (p + q) * NR;
                let o = g.out.add((i + r) * g.n + col0);
                let bias = g.bias.map(|b| b.add(col0));
                epilogue_avx512(v0, v1, o, bias, g.accumulate, g.act, (g.n - col0).min(NR));
            }
        }
    }

    /// Rows `i..i + R` across every panel, `P` panels per block, the last
    /// `< P` one at a time, all over the block's one live-step list. Which
    /// block runs a panel depends on `n` alone, never on the row count.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn rows_avx512<const R: usize, const P: usize>(
        g: &Operands,
        i: usize,
        live: &mut [u32],
    ) {
        let n = live_steps_avx512(g.rows::<R>(i), g.k, live);
        let live = &live[..n];
        let np = g.n.div_ceil(NR);
        let narrow = !g.n.is_multiple_of(NR) && g.n % NR <= 16;
        let mut p = 0;
        while p + P <= np {
            if narrow && p + P == np {
                block_avx512::<R, P, true>(g, i, p, live);
            } else {
                block_avx512::<R, P, false>(g, i, p, live);
            }
            p += P;
        }
        if P > 1 {
            for p in p..np {
                if narrow && p + 1 == np {
                    block_avx512::<R, 1, true>(g, i, p, live);
                } else {
                    block_avx512::<R, 1, false>(g, i, p, live);
                }
            }
        }
    }

    /// # Safety
    /// The CPU must support AVX-512F; `a`, `out` and `bias` must cover the
    /// shape, as [`super::gemm_packed_force`] asserts.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm_packed_avx512(
        m: usize,
        a: &[f32],
        w: &PackedGemm,
        accumulate: bool,
        bias: Option<&[f32]>,
        act: Activation,
        out: &mut [f32],
    ) {
        let g = Operands::new(a, w, accumulate, bias, act, out);
        let mut live = live_list(g.k);
        let mut i = 0;
        while i + 4 <= m {
            rows_avx512::<4, 1>(&g, i, &mut live);
            i += 4;
        }
        match m - i {
            1 => rows_avx512::<1, 4>(&g, i, &mut live),
            2 => rows_avx512::<2, 2>(&g, i, &mut live),
            3 => rows_avx512::<3, 2>(&g, i, &mut live),
            _ => {}
        }
        LIVE.set(live);
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{gemm_packed_avx2, gemm_packed_avx512};

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn reference(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        w: &[f32],
        accumulate: bool,
        bias: Option<&[f32]>,
        act: Activation,
        out: &mut [f32],
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc = a[i * k + kk].mul_add(w[kk * n + j], acc);
                }
                let mut v = acc;
                if accumulate {
                    v += out[i * n + j];
                }
                if let Some(b) = bias {
                    v += b[j];
                }
                out[i * n + j] = if act == Activation::Relu { v.max(0.0) } else { v };
            }
        }
        crate::act::activate(act, &mut out[..m * n]);
    }

    fn matrix(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| {
                let x =
                    ((i as u64).wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(seed) >> 40) as f32;
                // Plant exact zeros so the sparse-skip path is exercised.
                if i % 7 == 0 {
                    0.0
                } else {
                    x / 16_777_216.0 - 0.5
                }
            })
            .collect()
    }

    /// Every tier computes the reference's bits: one `mul_add` chain per
    /// element, `+out`, `+bias`, then the activation polynomial.
    #[test]
    fn packed_gemm_matches_reference_on_all_tiers_and_edges() {
        for &(m, k, n) in
            &[(1usize, 1usize, 1usize), (3, 5, 7), (4, 8, 32), (5, 9, 33), (7, 17, 48), (8, 12, 20)]
        {
            let a = matrix(m, k, 1);
            let wmat = matrix(k, n, 2);
            let w = PackedGemm::pack(&Tensor::from_vec(k, n, wmat.clone()));
            let bias = matrix(1, n, 3);
            for isa in Isa::supported() {
                for act in
                    [Activation::Identity, Activation::Relu, Activation::Tanh, Activation::Sigmoid]
                {
                    for (accumulate, use_bias) in [(false, false), (false, true), (true, true)] {
                        let seed_out = matrix(m, n, 4);
                        let mut got = seed_out.clone();
                        let mut want = seed_out.clone();
                        let b = use_bias.then_some(&bias[..]);
                        gemm_packed_force(isa, m, &a, &w, accumulate, b, act, &mut got);
                        reference(m, k, n, &a, &wmat, accumulate, b, act, &mut want);
                        for (idx, (g, r)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                r.to_bits(),
                                "{isa:?} {act:?} acc={accumulate} bias={use_bias} \
                                 m={m} k={k} n={n} out[{idx}]: {g} vs {r}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn packed_gemm_rows_bitwise_equal_single_row_calls() {
        let (m, k, n) = (7usize, 13usize, 21usize);
        let a = matrix(m, k, 11);
        let w = PackedGemm::pack(&Tensor::from_vec(k, n, matrix(k, n, 12)));
        let bias = matrix(1, n, 13);
        let seed_out = matrix(m, n, 14);
        for isa in Isa::supported() {
            for act in [Activation::Tanh, Activation::Sigmoid] {
                for accumulate in [false, true] {
                    let mut batched = seed_out.clone();
                    gemm_packed_force(isa, m, &a, &w, accumulate, Some(&bias), act, &mut batched);
                    for r in 0..m {
                        let mut single = seed_out[r * n..(r + 1) * n].to_vec();
                        gemm_packed_force(
                            isa,
                            1,
                            &a[r * k..(r + 1) * k],
                            &w,
                            accumulate,
                            Some(&bias),
                            act,
                            &mut single,
                        );
                        assert_eq!(
                            &batched[r * n..(r + 1) * n],
                            &single[..],
                            "{isa:?} {act:?} acc={accumulate}: row {r} of the batched \
                             product is not bitwise stable"
                        );
                    }
                }
            }
        }
    }

    /// Odd shapes and tails of the packed kernels' unsafe loads and stores:
    /// m ∈ {1, 5, 16} rows, k and n around the 8- and 16-lane widths. On
    /// every tier, each row is bitwise its own single-row call and within
    /// tolerance of an f64 reference.
    #[test]
    fn packed_gemm_odd_shapes_match_f64_and_single_rows() {
        const DIMS: [usize; 8] = [1, 7, 8, 9, 15, 16, 17, 33];
        let shapes = [1usize, 5, 16]
            .into_iter()
            .flat_map(|m| DIMS.into_iter().flat_map(move |k| DIMS.map(|n| (m, k, n))));
        for (m, k, n) in shapes {
            let a = matrix(m, k, 31);
            let wmat = matrix(k, n, 32);
            let w = PackedGemm::pack(&Tensor::from_vec(k, n, wmat.clone()));
            let bias = matrix(1, n, 33);
            let seed_out = matrix(m, n, 34);
            // out[r, j] in f64, before the activation.
            let pre = |r: usize, j: usize| {
                let dot: f64 =
                    (0..k).map(|kk| a[r * k + kk] as f64 * wmat[kk * n + j] as f64).sum();
                dot + seed_out[r * n + j] as f64 + bias[j] as f64
            };
            for isa in Isa::supported() {
                for act in [Activation::Identity, Activation::Relu, Activation::Sigmoid] {
                    let mut got = seed_out.clone();
                    gemm_packed_force(isa, m, &a, &w, true, Some(&bias), act, &mut got);
                    for r in 0..m {
                        let (row, a_r) = (r * n..(r + 1) * n, &a[r * k..(r + 1) * k]);
                        let mut single = seed_out[row.clone()].to_vec();
                        gemm_packed_force(isa, 1, a_r, &w, true, Some(&bias), act, &mut single);
                        let at = format!("{isa:?} {act:?} m={m} k={k} n={n} row {r}");
                        assert_eq!(&got[row], &single[..], "{at}");
                        for j in 0..n {
                            let v = pre(r, j);
                            let want = match act {
                                Activation::Relu => v.max(0.0),
                                Activation::Sigmoid => 1.0 / (1.0 + (-v).exp()),
                                _ => v,
                            };
                            let g = got[r * n + j] as f64;
                            assert!((g - want).abs() <= 1e-5 + 1e-5 * want.abs(), "{at} col {j}");
                        }
                    }
                }
            }
        }
    }

    /// The row blocks every SIMD tier runs — 4-row blocks, then the `m mod
    /// 4` tail rows blocked across several panels — over m = 1..=9 rows and
    /// 1..5 panels (full and column-masked), with and without accumulate
    /// and bias: on every tier, each row of a call is bitwise its own
    /// one-row call and within tolerance of an f64 reference. One all-zero
    /// row and a zero column exercise the skipped k steps.
    #[test]
    fn gemm_tail_blocks_sweep_rows_and_panels() {
        let k = 19;
        for panels in 1..5usize {
            for n in [panels * NR, panels * NR - 5] {
                let wmat = matrix(k, n, 70 + n as u64);
                let w = PackedGemm::pack(&Tensor::from_vec(k, n, wmat.clone()));
                let bias = matrix(1, n, 71);
                for m in 1..=9usize {
                    let mut a = matrix(m, k, 72 + m as u64);
                    a[(m / 2) * k..(m / 2 + 1) * k].fill(0.0);
                    (0..m).for_each(|r| a[r * k + 3] = 0.0);
                    let seed_out = matrix(m, n, 73);
                    for isa in Isa::supported() {
                        for (accumulate, use_bias) in [(false, false), (false, true), (true, true)]
                        {
                            let b = use_bias.then_some(&bias[..]);
                            let id = Activation::Identity;
                            let mut got = seed_out.clone();
                            gemm_packed_force(isa, m, &a, &w, accumulate, b, id, &mut got);
                            for r in 0..m {
                                let at = format!(
                                    "{isa:?} m={m} n={n} acc={accumulate} bias={use_bias} row {r}"
                                );
                                let row = r * n..(r + 1) * n;
                                let mut one = seed_out[row.clone()].to_vec();
                                let a_r = &a[r * k..(r + 1) * k];
                                gemm_packed_force(isa, 1, a_r, &w, accumulate, b, id, &mut one);
                                assert_eq!(&got[row], &one[..], "{at}");
                                for (j, &g) in one.iter().enumerate() {
                                    let dot: f64 = (0..k)
                                        .map(|kk| a_r[kk] as f64 * wmat[kk * n + j] as f64)
                                        .sum();
                                    let prev =
                                        if accumulate { seed_out[r * n + j] as f64 } else { 0.0 };
                                    let want = dot + prev + b.map_or(0.0, |b| b[j] as f64);
                                    let err = (g as f64 - want).abs();
                                    assert!(err <= 1e-5 + 1e-5 * want.abs(), "{at} col {j}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The live-step lists skip only what the dense chain leaves unchanged:
    /// k-steps zero in every row of a block (dead units, some of them
    /// `-0.0`), steps zero in some rows only, an all-zero row and, from
    /// m = 8, an all-zero 4-row block, over k below, at and past the
    /// 16-lane list width and n whose last panel has 1, 3, 8, 16 or 32 live
    /// columns. On every tier each output is bitwise the dense reference
    /// and its own one-row call.
    #[test]
    fn zero_step_skips_are_exact_on_every_tier() {
        // Steps 6j + 4 are dead in every row; k = 41 ends on one, the
        // other k on a live step.
        for k in [7usize, 16, 37, 41, 112] {
            for n in [1usize, 3, 40, 48, 64, 112] {
                let wmat = matrix(k, n, 80 + k as u64);
                let w = PackedGemm::pack(&Tensor::from_vec(k, n, wmat.clone()));
                let bias = matrix(1, n, 81);
                for m in 1..=9usize {
                    let mut a = matrix(m, k, 82 + m as u64);
                    for r in 0..m {
                        for kk in 0..k {
                            let c = &mut a[r * k + kk];
                            match kk % 6 {
                                4 => *c = 0.0,
                                1 if r % 2 == 0 => *c = 0.0,
                                2 => *c = if r % 3 == 0 { -0.0 } else { 0.0 },
                                3 if r % 2 == 1 => *c = -0.0,
                                _ => {}
                            }
                        }
                    }
                    a[(m / 2) * k..(m / 2 + 1) * k].fill(0.0);
                    if m >= 8 {
                        a[4 * k..8 * k].fill(-0.0);
                    }
                    let seed_out = matrix(m, n, 83);
                    for isa in Isa::supported() {
                        for (act, acc) in [(Activation::Identity, false), (Activation::Relu, true)]
                        {
                            let at = format!("{isa:?} {act:?} m={m} k={k} n={n}");
                            let mut got = seed_out.clone();
                            gemm_packed_force(isa, m, &a, &w, acc, Some(&bias), act, &mut got);
                            let mut want = seed_out.clone();
                            reference(m, k, n, &a, &wmat, acc, Some(&bias), act, &mut want);
                            for (idx, (g, r)) in got.iter().zip(&want).enumerate() {
                                assert_eq!(g.to_bits(), r.to_bits(), "{at} out[{idx}]: {g} vs {r}");
                            }
                            for r in 0..m {
                                let row = r * n..(r + 1) * n;
                                let mut one = seed_out[row.clone()].to_vec();
                                let a_r = &a[r * k..(r + 1) * k];
                                gemm_packed_force(isa, 1, a_r, &w, acc, Some(&bias), act, &mut one);
                                assert_eq!(&got[row], &one[..], "{at} row {r}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn repack_reuses_a_larger_buffer_and_equals_a_fresh_pack() {
        let mut buf = PackedGemm::pack(&Tensor::from_vec(9, 70, matrix(9, 70, 31)));
        let src = matrix(5, 33, 32);
        buf.repack(5, 33, &src);
        assert_eq!(buf, PackedGemm::pack(&Tensor::from_vec(5, 33, src)));
    }

    #[test]
    #[should_panic(expected = "gemm_packed: output shorter than m·n")]
    fn gemm_packed_rejects_a_short_output() {
        let w = PackedGemm::pack(&Tensor::from_vec(3, 40, matrix(3, 40, 41)));
        let mut out = vec![0.0f32; 2 * 40 - 1];
        gemm_packed(2, &matrix(2, 3, 42), &w, false, None, Activation::Identity, &mut out);
    }

    #[test]
    #[should_panic(expected = "gemm_packed: bias shorter than n")]
    fn gemm_packed_force_rejects_a_short_bias() {
        let w = PackedGemm::pack(&Tensor::from_vec(3, 40, matrix(3, 40, 43)));
        let mut out = vec![0.0f32; 40];
        let isa = *Isa::supported().last().unwrap();
        let bias = [0.5f32; 39];
        gemm_packed_force(isa, 1, &[1.0; 3], &w, false, Some(&bias), Activation::Relu, &mut out);
    }

    #[test]
    fn accumulate_fuses_two_gemms_and_a_bias() {
        // Two products and a bias: out = x·W1, then out += h·W2 + b.
        let (m, k1, k2, n) = (3usize, 6usize, 5usize, 40usize);
        let x = matrix(m, k1, 21);
        let h = matrix(m, k2, 22);
        let w_ih_mat = matrix(k1, n, 23);
        let w_hh_mat = matrix(k2, n, 24);
        let bias = matrix(1, n, 25);
        let w_ih = PackedGemm::pack(&Tensor::from_vec(k1, n, w_ih_mat.clone()));
        let w_hh = PackedGemm::pack(&Tensor::from_vec(k2, n, w_hh_mat.clone()));
        for isa in Isa::supported() {
            let mut gates = vec![0.0f32; m * n];
            gemm_packed_force(isa, m, &x, &w_ih, false, None, Activation::Identity, &mut gates);
            gemm_packed_force(
                isa,
                m,
                &h,
                &w_hh,
                true,
                Some(&bias),
                Activation::Identity,
                &mut gates,
            );
            let mut want = vec![0.0f32; m * n];
            reference(m, k1, n, &x, &w_ih_mat, false, None, Activation::Identity, &mut want);
            reference(m, k2, n, &h, &w_hh_mat, true, Some(&bias), Activation::Identity, &mut want);
            for (idx, (g, r)) in gates.iter().zip(&want).enumerate() {
                assert!((g - r).abs() <= 2e-5, "{isa:?} gates[{idx}]: {g} vs {r}");
            }
        }
    }

    /// Every panel row starts on a 64-byte line, after a pack, a repack
    /// into a reused buffer and a clone, whatever the allocator's state.
    #[test]
    fn panels_start_on_cache_lines() {
        let line_start = |w: &PackedGemm| {
            let f = w.floats();
            assert_eq!(f.len(), w.n().div_ceil(NR) * w.k() * NR);
            (0..f.len()).step_by(NR).all(|i| (f[i..].as_ptr() as usize).is_multiple_of(64))
        };
        let mut held = Vec::new();
        for (i, &(k, n)) in [(1, 1), (3, 40), (7, 33), (182, 384)].iter().enumerate() {
            // Odd-sized allocations in between move the heap's next offset.
            held.push(vec![0u8; 1 + 24 * i]);
            let w = PackedGemm::pack(&Tensor::from_vec(k, n, matrix(k, n, 50 + i as u64)));
            assert!(line_start(&w), "{k}x{n}");
            assert!(line_start(&w.clone()), "{k}x{n} clone");
            let mut reused = PackedGemm::pack(&Tensor::from_vec(2, 5, matrix(2, 5, 9)));
            reused.repack(k, n, &matrix(k, n, 60 + i as u64));
            assert!(line_start(&reused), "{k}x{n} repacked");
            assert_eq!(
                reused.floats(),
                PackedGemm::pack(&Tensor::from_vec(k, n, matrix(k, n, 60 + i as u64))).floats()
            );
        }
    }
}
