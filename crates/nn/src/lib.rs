//! `qpseeker-nn` — a minimal CPU tensor + reverse-mode autograd library.
//!
//! The QPSeeker paper trains its models with PyTorch; this crate is the
//! from-scratch Rust substrate that replaces it. It provides exactly what the
//! QPSeeker architecture needs and nothing more:
//!
//! * [`tensor::Tensor`] — dense rank-2 `f32` matrices,
//! * [`graph::Graph`] — a per-batch autodiff tape (dynamic graphs, because
//!   query plans are trees of varying shape) over a borrowed `ParamStore`,
//! * [`params::ParamStore`] — persistent parameters addressed by stable ids,
//! * [`layers`] — `Linear`, `Mlp`, `LstmCell`, `MultiHeadCrossAttention`,
//!   each with one forward over an [`infer::Exec`]utor: the tape, or the
//!   serving executor, which allocates no tensor in steady state,
//! * [`optim`] — `Adam`,
//! * [`init::Initializer`] — seeded deterministic weight init.
//!
//! # Example
//!
//! ```
//! use qpseeker_nn::prelude::*;
//!
//! let mut store = ParamStore::new();
//! let mut init = Initializer::new(0);
//! let mlp = Mlp::new(&mut store, &mut init, "f", &[2, 16, 1],
//!                    Activation::Tanh, Activation::Identity);
//! let mut opt = Adam::new(0.01);
//! for _ in 0..10 {
//!     store.zero_grads();
//!     let mut g = Graph::new(&store);
//!     let x = g.constant(Tensor::from_vec(4, 2, vec![0.,0., 0.,1., 1.,0., 1.,1.]));
//!     let t = g.constant(Tensor::from_vec(4, 1, vec![0., 1., 1., 2.]));
//!     let y = mlp.forward(&mut g, &x);
//!     let loss = g.mse(y, t);
//!     let (_, grads) = g.backward(loss);
//!     grads.merge_into(&mut store);
//!     opt.step(&mut store);
//! }
//! ```

pub mod act;
pub mod gradcheck;
pub mod graph;
pub mod infer;
pub mod init;
pub mod isa;
pub mod layers;
pub mod optim;
pub mod pack;
pub mod params;
pub mod tensor;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::act::Kid;
    pub use crate::gradcheck::{check_gradient, GradCheckReport};
    pub use crate::graph::{Graph, Var};
    pub use crate::infer::{with_thread_scratch, Exec, Row, Scratch, ScratchArena};
    pub use crate::init::Initializer;
    pub use crate::isa::Isa;
    pub use crate::layers::{
        Activation, Fold, LevelStates, Linear, LstmCell, LstmState, Mlp, MultiHeadCrossAttention,
    };
    pub use crate::optim::{Adam, StepReport};
    pub use crate::pack::PackedGemm;
    pub use crate::params::{GradBuffer, Param, ParamId, ParamStore};
    pub use crate::tensor::Tensor;
}
