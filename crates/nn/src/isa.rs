//! Runtime ISA selection for the SIMD kernels.
//!
//! Every vectorized kernel in this crate runs in one of three variants:
//! scalar, AVX2+FMA, and AVX-512F/VL. The packed-panel GEMM and the dot
//! product are hand-written per tier; the activation polynomial
//! ([`crate::act`]) is one portable lane-wise function that each tier
//! compiles under its `#[target_feature]`. Which variant runs is
//! decided **once per process** — feature detection is a pure function of
//! the CPU, so the choice is made on first use, cached in a
//! [`std::sync::OnceLock`], and logged a single time. All kernels then
//! dispatch through the same selected [`Isa`]. Every variant computes the
//! same bits (one accumulation tree for the dot product, one fma chain
//! per GEMM element, one activation polynomial), so the tier decides
//! speed, never a result.
//!
//! `QPS_FORCE_ISA={scalar,avx2,avx512}` overrides detection (for CI matrix
//! runs and cross-ISA benches). Forcing an ISA the CPU cannot execute falls
//! back to the best supported one with a warning instead of crashing —
//! `QPS_FORCE_ISA=avx512` on an AVX2 host must degrade, not SIGILL.

use std::sync::OnceLock;

/// Instruction-set tier the kernels dispatch on, ordered by preference.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub enum Isa {
    /// Portable scalar kernels; always available.
    #[default]
    Scalar,
    /// AVX2 + FMA: 8-lane f32 tiles and polynomial activations.
    Avx2,
    /// AVX-512F + AVX-512VL: 16-lane f32 tiles with masked tail stores.
    Avx512,
}

impl Isa {
    /// Stable lowercase name, also the accepted `QPS_FORCE_ISA` values.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Whether the running CPU can execute this tier.
    pub fn cpu_supports(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vl")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every tier the running CPU supports, worst to best. Tests iterate
    /// this to exercise each kernel variant explicitly (the process-wide
    /// selection is fixed, so per-variant coverage goes through the
    /// `*_force` kernel entry points instead of the env override).
    pub fn supported() -> Vec<Isa> {
        [Isa::Scalar, Isa::Avx2, Isa::Avx512].into_iter().filter(|i| i.cpu_supports()).collect()
    }

    fn best_supported() -> Isa {
        *Isa::supported().last().expect("scalar is always supported")
    }

    fn parse(s: &str) -> Option<Isa> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" | "portable" => Some(Isa::Scalar),
            "avx2" => Some(Isa::Avx2),
            "avx512" | "avx-512" => Some(Isa::Avx512),
            _ => None,
        }
    }
}

/// The process-wide selected ISA: best supported tier, unless
/// `QPS_FORCE_ISA` names a (supported) override. Resolved once, then
/// immutable for the life of the process; the selection is logged to stderr
/// on first resolution so every bench/serve run records which path ran.
pub fn active() -> Isa {
    static ACTIVE: OnceLock<Isa> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let best = Isa::best_supported();
        let chosen = match std::env::var("QPS_FORCE_ISA") {
            Ok(v) => match Isa::parse(&v) {
                Some(forced) if forced.cpu_supports() => forced,
                Some(forced) => {
                    eprintln!(
                        "qpseeker: QPS_FORCE_ISA={} not supported by this CPU, using {}",
                        forced.name(),
                        best.name()
                    );
                    best
                }
                None => {
                    eprintln!(
                        "qpseeker: unknown QPS_FORCE_ISA value {v:?} (scalar|avx2|avx512), using {}",
                        best.name()
                    );
                    best
                }
            },
            Err(_) => best,
        };
        eprintln!("qpseeker: kernel ISA {} (cpu best: {})", chosen.name(), best.name());
        chosen
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_supported_and_ordering_holds() {
        assert!(Isa::Scalar.cpu_supports());
        let sup = Isa::supported();
        assert!(!sup.is_empty());
        assert!(sup.windows(2).all(|w| w[0] < w[1]), "supported() must be worst-to-best");
        assert_eq!(sup[0], Isa::Scalar);
    }

    #[test]
    fn names_round_trip_through_parse() {
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Avx512] {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
        }
        assert_eq!(Isa::parse("AVX512"), Some(Isa::Avx512));
        assert_eq!(Isa::parse("mmx"), None);
    }

    #[test]
    fn active_is_stable_and_supported() {
        let a = active();
        assert!(a.cpu_supports());
        assert_eq!(a, active(), "selection must be cached");
    }
}
