//! # yoso-tensor
//!
//! A small, dependency-light CPU tensor library with reverse-mode automatic
//! differentiation, built for the YOSO DNN/accelerator co-design
//! reproduction. It provides exactly the operator set the paper's search
//! space needs (convolutions, depthwise convolutions, pooling, batch
//! normalization, linear classifier heads, softmax cross-entropy) plus the
//! optimizers used by the HyperNet (SGD with momentum + cosine decay) and
//! the RL controller (Adam).
//!
//! The design is a per-step tape: build a [`Graph`] each forward pass, call
//! [`Graph::backward`] once, and let an optimizer consume the gradients
//! accumulated in a [`ParamStore`].
//!
//! ## Example
//!
//! ```
//! use yoso_tensor::{Graph, ParamStore, Sgd, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let w = store.add(Tensor::he_normal(&[2, 4], 4, &mut rng));
//! let b = store.add(Tensor::zeros(&[2]));
//! let mut opt = Sgd::new(0.1, 0.9, 0.0);
//!
//! for _ in 0..10 {
//!     let mut g = Graph::new();
//!     let x = g.input(Tensor::rand_uniform(&[8, 4], -1.0, 1.0, &mut rng));
//!     let (wv, bv) = (g.param(&store, w), g.param(&store, b));
//!     let y = g.linear(x, wv, bv);
//!     let loss = g.softmax_cross_entropy(y, &[0, 1, 0, 1, 0, 1, 0, 1]);
//!     store.zero_grads();
//!     g.backward(loss, &mut store);
//!     opt.step(&mut store);
//! }
//! assert!(store.all_finite());
//! ```

// `deny` rather than `forbid`: the u8 im2col lowerings in `quant` opt
// back in with `#[allow(unsafe_code)]` for their raw-pointer row copies,
// and so does the runtime-detected AVX-VNNI kernel in `quant::vnni`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod conv;
pub mod graph;
pub mod matmul;
pub mod optim;
pub mod param;
pub mod quant;
pub mod scratch;
pub mod snapshot;
pub mod tensor;

pub use conv::ConvGeom;
pub use graph::{accuracy, batch_norm_forward, Graph, Var};
pub use matmul::{kernel_kind, set_kernel, KernelKind};
pub use optim::{Adam, CosineLr, Sgd};
pub use param::{ParamId, ParamStore};
pub use quant::QuantWeights;
pub use scratch::Scratch;
pub use tensor::Tensor;
