//! Elementwise activation kernels: the LSTM gates and the GEMM's tanh and
//! sigmoid epilogue, for serving and for the training tape alike; and,
//! built on the same `exp`, the online-softmax merge of attention's subtree
//! states ([`merge_states`]).
//!
//! The LSTM gate math is transcendental-bound: libm `exp`/`tanh` cost
//! ~50-100ns per lane, which at 5 calls per hidden lane dominates the whole
//! plan-encoder forward (the GEMMs are an order of magnitude cheaper). Every
//! tier evaluates them with one Cephes-style polynomial (~1-2 ulp of libm).
//! The tape records these same kernels, so training and serving compute one
//! function on every tier.
//!
//! The polynomial is written once, as plain `f32 -> f32` lane functions, and
//! the gate body once, as `gates_lanes`. Each SIMD tier is that body
//! inlined into a `#[target_feature]` wrapper, which LLVM vectorizes to the
//! tier's width; the scalar tier calls it as it is. Every operation in the
//! polynomial (`mul_add`, `round_ties_even`, `+ - * /`, bit ops) is
//! correctly rounded, so a lane gets the same bits on every tier, whether
//! it lands in a vector body or a scalar remainder.
//!
//! **FP-order contract:** every activation here is elementwise — lane `i`
//! of the output depends only on lane `i` of the inputs, and every lane
//! takes the same expression on every tier. Row `r` of a batched call is
//! therefore bitwise identical to a 1-row call on row `r` alone, the same
//! invariant the GEMM upholds (see [`crate::pack`]). The merge is a fixed
//! sequence of correctly rounded operations per row (no fused multiply-add
//! outside the polynomial), so it too is the same bits on every tier.

use crate::isa::Isa;
use crate::layers::Activation;

// Cephes single-precision exp: round-to-nearest power-of-two split with a
// Cody-Waite reduced argument and a degree-5 polynomial remainder.
const EXP_HI: f32 = 88.376_26;
const EXP_LO: f32 = -87.336_55;
const LOG2EF: f32 = std::f32::consts::LOG2_E;
const C1: f32 = 0.693_359_4;
const C2: f32 = -2.121_944_4e-4;
const P0: f32 = 1.987_569_1e-4;
const P1: f32 = 1.398_199_9e-3;
const P2: f32 = 8.333_452e-3;
const P3: f32 = 4.166_579_6e-2;
const P4: f32 = 1.666_666_5e-1;
const P5: f32 = 5.0e-1;

/// `x[i] = act(x[i])` for `Tanh`/`Sigmoid` with the polynomial lane
/// function, on the active tier: bitwise what [`lstm_gates`] computes for
/// the same input, and the GEMM's tanh and sigmoid. Other activations
/// leave `x` as it is.
pub fn activate(act: Activation, x: &mut [f32]) {
    match crate::isa::active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only returns a tier the CPU supports.
        Isa::Avx512 => unsafe { activate_avx512(act, x) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Isa::Avx2 => unsafe { activate_avx2(act, x) },
        _ => activate_poly(act, x),
    }
}

/// Polynomial `exp(x)`, clamped to `[EXP_LO, EXP_HI]`. The clamps keep the
/// SIMD `max`/`min` semantics: a NaN input takes the lower bound.
#[inline(always)]
fn exp_poly(x: f32) -> f32 {
    let x = if x > EXP_LO { x } else { EXP_LO };
    let x = if x < EXP_HI { x } else { EXP_HI };
    let n = (x * LOG2EF).round_ties_even();
    // r = x - n*C1 - n*C2 (Cody-Waite two-constant reduction).
    let r = (-n).mul_add(C1, x);
    let r = (-n).mul_add(C2, r);
    let mut y = P0;
    y = y.mul_add(r, P1);
    y = y.mul_add(r, P2);
    y = y.mul_add(r, P3);
    y = y.mul_add(r, P4);
    y = y.mul_add(r, P5);
    // exp(r) = 1 + r + r^2 * y
    let y = (r * r).mul_add(y, r) + 1.0;
    // Scale by 2^n through the exponent field. `n` is integral with
    // |n| <= 128, so adding 1.5·2^23 + 127 leaves `n + 127` in the low
    // mantissa bits; the shift moves its low 9 bits into the exponent
    // field, as an integer convert, add and shift would.
    let pow2n = f32::from_bits((n + (127.0 + 12_582_912.0)).to_bits() << 23);
    y * pow2n
}

#[inline(always)]
fn sigmoid_poly(x: f32) -> f32 {
    // 1 / (1 + exp(-x)); exp is clamped so the denominator stays finite.
    1.0 / (1.0 + exp_poly(0.0 - x))
}

#[inline(always)]
fn tanh_poly(x: f32) -> f32 {
    // tanh(|x|) = (1 - e^{-2|x|}) / (1 + e^{-2|x|}), sign restored from x.
    const SIGN: u32 = 0x8000_0000;
    let t = exp_poly(x.abs() * -2.0);
    let th = (1.0 - t) / (1.0 + t);
    f32::from_bits(th.to_bits() | (x.to_bits() & SIGN))
}

/// Fused LSTM gate math for one step: `gates` is `[rows, 4*d]` laid out as
/// `i | f | g | o` segments per row, `c_prev` is `[rows, d]`; writes the new
/// cell state and hidden state into `c_out` / `h_out` (both `[rows, d]`).
/// The tape's backward recomputes the activated gates with the same lane
/// functions (`activate`), so it reads the bits this kernel used.
///
/// Computes `c' = sigmoid(f) * c + sigmoid(i) * tanh(g)` and
/// `h' = sigmoid(o) * tanh(c')` per lane.
///
/// # Panics
/// Panics if a buffer is shorter than its shape.
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
        // SAFETY: `active()` only returns a tier the CPU supports.
        Isa::Avx512 => unsafe { lstm_gates_avx512(rows, d, gates, c_prev, c_out, h_out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Isa::Avx2 => unsafe { lstm_gates_avx2(rows, d, gates, c_prev, c_out, h_out) },
        _ => gates_lanes(rows, d, gates, c_prev, c_out, h_out),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lstm_gates_avx512(
    rows: usize,
    d: usize,
    gates: &[f32],
    c_prev: &[f32],
    c_out: &mut [f32],
    h_out: &mut [f32],
) {
    gates_lanes(rows, d, gates, c_prev, c_out, h_out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn lstm_gates_avx2(
    rows: usize,
    d: usize,
    gates: &[f32],
    c_prev: &[f32],
    c_out: &mut [f32],
    h_out: &mut [f32],
) {
    gates_lanes(rows, d, gates, c_prev, c_out, h_out)
}

/// The gate body of every tier: the polynomial lane functions and the
/// fused cell update `fma(i, g, f*c)`.
#[inline(always)]
fn gates_lanes(
    rows: usize,
    d: usize,
    gates: &[f32],
    c_prev: &[f32],
    c_out: &mut [f32],
    h_out: &mut [f32],
) {
    for r in 0..rows {
        let (gi, rest) = gates[r * 4 * d..(r + 1) * 4 * d].split_at(d);
        let (gf, rest) = rest.split_at(d);
        let (gg, go) = rest.split_at(d);
        let cp = &c_prev[r * d..(r + 1) * d];
        let co = &mut c_out[r * d..(r + 1) * d];
        let ho = &mut h_out[r * d..(r + 1) * d];
        for j in 0..d {
            let (i_g, f_g) = (sigmoid_poly(gi[j]), sigmoid_poly(gf[j]));
            let (g_g, o_g) = (tanh_poly(gg[j]), sigmoid_poly(go[j]));
            let cv = i_g.mul_add(g_g, f_g * cp[j]);
            co[j] = cv;
            ho[j] = o_g * tanh_poly(cv);
        }
    }
}

/// [`activate`] on the AVX-512 tier.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn activate_avx512(act: Activation, x: &mut [f32]) {
    activate_poly(act, x)
}

/// [`activate`] on the AVX2+FMA tier.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn activate_avx2(act: Activation, x: &mut [f32]) {
    activate_poly(act, x)
}

#[inline(always)]
fn activate_poly(act: Activation, x: &mut [f32]) {
    match act {
        Activation::Tanh => x.iter_mut().for_each(|v| *v = tanh_poly(*v)),
        Activation::Sigmoid => x.iter_mut().for_each(|v| *v = sigmoid_poly(*v)),
        Activation::Identity | Activation::Relu => {}
    }
}

/// Most children a [`merge_states`] row merges: a plan node has at most
/// two.
pub const MAX_KIDS: usize = 2;

/// One child state of a [`merge_states`] row.
#[derive(Debug, Clone, Copy)]
pub enum Kid<'a> {
    /// An earlier row of the merge's own output.
    Row(usize),
    /// A state from outside the merge (a memo entry).
    Const(&'a [f32]),
}

/// The online-softmax state of attention over every node of a subtree, per
/// head: `[m_0..m_H | Z_0..Z_H | U_0 | … | U_{H-1}]`, `heads·(2 + d)`
/// floats, where `m` is the largest logit, `Z = Σ e^{s_i − m}` and `U =
/// Σ e^{s_i − m}·V_i` (`d` wide) over the subtree's nodes `i`. The
/// attention context over the subtree is `U / Z`.
///
/// Row `r` (of `[rows, heads·(2 + d)]`) is its node's own logits
/// `logits[r]` (`[heads]`) and values `values[r]` (`[heads·d]`) merged with
/// its `lens[r]` children, the next `lens[r]` entries of `kids`. Per head,
/// in this order: `m` is the node's logit, raised by each child's `m` it is
/// below; `Z = e^{s − m}` and `U = e^{s − m}·V`; then, child by child, `a =
/// e^{m_c − m}`, `Z += a·Z_c` and `U += a·U_c`, each product and sum
/// rounded apart. `e^x` is the crate's polynomial (a NaN stays NaN, so a
/// poisoned weight reaches the caller's finiteness check). Every tier runs
/// this one sequence, so a row's bits depend on its inputs alone.
///
/// # Panics
/// If a row has more than [`MAX_KIDS`] children, a [`Kid::Row`] names a row
/// that is not earlier, or a buffer is not its shape.
pub fn merge_states(logits: &[f32], values: &[f32], kids: &[Kid], lens: &[usize], out: &mut [f32]) {
    merge_states_force(crate::isa::active(), logits, values, kids, lens, out)
}

/// [`merge_states`] on an explicitly chosen ISA tier (falls back to scalar
/// if the CPU lacks it).
///
/// # Panics
/// As [`merge_states`].
pub fn merge_states_force(
    isa: Isa,
    logits: &[f32],
    values: &[f32],
    kids: &[Kid],
    lens: &[usize],
    out: &mut [f32],
) {
    let rows = lens.len();
    let heads = logits.len().checked_div(rows).unwrap_or(0);
    let d = values.len().checked_div(rows * heads).unwrap_or(0);
    assert_eq!(logits.len(), rows * heads, "merge_states: one logit per row and head");
    assert_eq!(values.len(), rows * heads * d, "merge_states: one value row per logit");
    assert_eq!(out.len(), rows * heads * (2 + d), "merge_states: output is not rows·heads·(2+d)");
    assert_eq!(lens.iter().sum::<usize>(), kids.len(), "merge_states: one kid per counted kid");
    assert!(lens.iter().all(|&n| n <= MAX_KIDS), "merge_states: more than {MAX_KIDS} kids");
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard checked the CPU runs the tier.
        Isa::Avx512 if isa.cpu_supports() => unsafe {
            merge_avx512(heads, d, logits, values, kids, lens, out)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Isa::Avx2 if isa.cpu_supports() => unsafe {
            merge_avx2(heads, d, logits, values, kids, lens, out)
        },
        _ => merge_rows(heads, d, logits, values, kids, lens, out),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn merge_avx512(
    heads: usize,
    d: usize,
    logits: &[f32],
    values: &[f32],
    kids: &[Kid],
    lens: &[usize],
    out: &mut [f32],
) {
    merge_rows(heads, d, logits, values, kids, lens, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn merge_avx2(
    heads: usize,
    d: usize,
    logits: &[f32],
    values: &[f32],
    kids: &[Kid],
    lens: &[usize],
    out: &mut [f32],
) {
    merge_rows(heads, d, logits, values, kids, lens, out)
}

/// The merge body of every tier, in three sweeps over the rows: every
/// row's `m` (a row's children are earlier rows, or outside), then every
/// weight `e^{x − m}` at once — independent lanes the tier vectorizes, each
/// the lane function's bits — then every row's `Z` and `U`.
#[inline(always)]
fn merge_rows(
    heads: usize,
    d: usize,
    logits: &[f32],
    values: &[f32],
    kids: &[Kid],
    lens: &[usize],
    out: &mut [f32],
) {
    let w = heads * (2 + d);
    // Per row and head: the node's own exponent, then each child's.
    let mut weights = Vec::with_capacity(heads * (lens.len() + kids.len()));
    let mut at = 0;
    for (r, &n) in lens.iter().enumerate() {
        let (done, rest) = out.split_at_mut(r * w);
        let mine = kid_states(done, &kids[at..at + n], w);
        at += n;
        for h in 0..heads {
            let s = logits[r * heads + h];
            let m = mine[..n].iter().fold(s, |m, k| if k[h] > m { k[h] } else { m });
            rest[h] = m;
            weights.push(s - m);
            weights.extend(mine[..n].iter().map(|k| k[h] - m));
        }
    }
    weights.iter_mut().for_each(|x| *x = exp_nan(*x));
    let (mut at, mut next) = (0, weights.iter());
    for (r, &n) in lens.iter().enumerate() {
        let (done, rest) = out.split_at_mut(r * w);
        let mine = kid_states(done, &kids[at..at + n], w);
        at += n;
        let (z, u) = rest[heads..w].split_at_mut(heads);
        let v = &values[r * heads * d..(r + 1) * heads * d];
        for h in 0..heads {
            let a = *next.next().expect("one weight per node and head");
            let uh = &mut u[h * d..(h + 1) * d];
            uh.iter_mut().zip(&v[h * d..(h + 1) * d]).for_each(|(o, &x)| *o = a * x);
            let mut zh = a;
            for k in &mine[..n] {
                let a = *next.next().expect("one weight per child and head");
                zh += a * k[heads + h];
                let ku = &k[2 * heads + h * d..2 * heads + (h + 1) * d];
                uh.iter_mut().zip(ku).for_each(|(o, &x)| *o += a * x);
            }
            z[h] = zh;
        }
    }
}

/// The states of one row's children: earlier rows of `done`, or outside
/// ones, `w` floats each.
#[inline(always)]
fn kid_states<'a>(done: &'a [f32], kids: &[Kid<'a>], w: usize) -> [&'a [f32]; MAX_KIDS] {
    let mut states: [&[f32]; MAX_KIDS] = [&[]; MAX_KIDS];
    for (state, kid) in states.iter_mut().zip(kids) {
        *state = match *kid {
            Kid::Row(j) => &done[j * w..(j + 1) * w],
            Kid::Const(s) => &s[..w],
        };
    }
    states
}

/// The polynomial `exp` of [`merge_states`], NaN in, NaN out; the tape's
/// backward reads the merge's weights through it.
#[inline(always)]
pub(crate) fn exp_nan(x: f32) -> f32 {
    if x.is_nan() {
        x
    } else {
        exp_poly(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigmoid_libm(v: f32) -> f32 {
        1.0 / (1.0 + (-v).exp())
    }

    /// The gate expressions through libm, with an unfused cell update.
    fn libm_gates(rows: usize, d: usize, gates: &[f32], c_prev: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let (mut c, mut h) = (vec![0.0f32; rows * d], vec![0.0f32; rows * d]);
        for r in 0..rows {
            let g = |s: usize, j: usize| gates[(r * 4 + s) * d + j];
            for j in 0..d {
                let (i_g, f_g) = (sigmoid_libm(g(0, j)), sigmoid_libm(g(1, j)));
                let (g_g, o_g) = (g(2, j).tanh(), sigmoid_libm(g(3, j)));
                let cv = f_g * c_prev[r * d + j] + i_g * g_g;
                c[r * d + j] = cv;
                h[r * d + j] = o_g * cv.tanh();
            }
        }
        (c, h)
    }

    #[test]
    fn vector_activations_close_to_libm() {
        for i in -400..=400 {
            let x = i as f32 * 0.05;
            let (t, s) = (tanh_poly(x), sigmoid_poly(x));
            let (rt, rs) = (x.tanh(), sigmoid_libm(x));
            assert!((t - rt).abs() <= 2e-7 + 1e-6 * rt.abs(), "tanh({x}): {t} vs {rt}");
            assert!((s - rs).abs() <= 2e-7 + 1e-6 * rs.abs(), "sigmoid({x}): {s} vs {rs}");
        }
    }

    /// Odd widths and row counts on the active tier: every batched row
    /// equals its 1-row call bitwise, and is within 1e-6 of libm.
    #[test]
    fn lstm_gates_matches_portable_within_tolerance_and_rows_are_stable() {
        for d in [1usize, 7, 8, 15, 16, 17, 19, 950] {
            for rows in [1usize, 4, 5, 16] {
                let gates: Vec<f32> =
                    (0..rows * 4 * d).map(|i| ((i as f32) * 0.37).sin() * 3.0).collect();
                let c_prev: Vec<f32> = (0..rows * d).map(|i| ((i as f32) * 0.11).cos()).collect();
                let (mut c, mut h) = (vec![0.0f32; rows * d], vec![0.0f32; rows * d]);
                lstm_gates(rows, d, &gates, &c_prev, &mut c, &mut h);
                let (cp, hp) = libm_gates(rows, d, &gates, &c_prev);
                for i in 0..rows * d {
                    assert!((c[i] - cp[i]).abs() <= 1e-6, "d={d} c[{i}]: {} vs {}", c[i], cp[i]);
                    assert!((h[i] - hp[i]).abs() <= 1e-6, "d={d} h[{i}]: {} vs {}", h[i], hp[i]);
                }
                for r in 0..rows {
                    let (mut c1, mut h1) = (vec![0.0f32; d], vec![0.0f32; d]);
                    lstm_gates(1, d, &gates[r * 4 * d..], &c_prev[r * d..], &mut c1, &mut h1);
                    assert_eq!(&c[r * d..(r + 1) * d], &c1[..], "d={d} rows={rows}: row {r} c");
                    assert_eq!(&h[r * d..(r + 1) * d], &h1[..], "d={d} rows={rows}: row {r} h");
                }
            }
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
