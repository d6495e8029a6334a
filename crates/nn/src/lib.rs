//! Neural-network substrate for LAHD: a tape-based reverse-mode autograd
//! engine, the layers needed by the paper's models (GRU torso, linear heads,
//! quantized autoencoders), the Adam optimiser with global-norm gradient
//! clipping, finite-difference gradient checking, and text persistence.
//!
//! The design follows the paper's constraints: models are small and must be
//! auditable, so the engine favours explicit, testable backward rules over a
//! general tensor compiler. Every op's gradient is validated against central
//! finite differences in the test suite.
//!
//! # Example: one gradient step on a tiny regression
//!
//! ```
//! use lahd_nn::{Adam, Graph, Linear, ParamStore};
//! use lahd_tensor::{seeded_rng, Matrix};
//!
//! let mut rng = seeded_rng(0);
//! let mut store = ParamStore::new();
//! let layer = Linear::new(&mut store, "fc", 2, 1, &mut rng);
//! let mut adam = Adam::new(1e-2);
//!
//! store.zero_grads();
//! let mut g = Graph::new();
//! let x = g.constant(Matrix::row_vector(&[1.0, -1.0]));
//! let y = layer.forward(&mut g, &store, x);
//! let loss = g.squared_error(y, 0.5);
//! g.backward(loss);
//! g.accumulate_param_grads(&mut store);
//! adam.step(&mut store);
//! ```

mod activations;
mod gradcheck;
mod graph;
mod layers;
mod optim;
mod params;
mod persist;

pub use activations::{
    sigmoid_approx, sigmoid_slice, tanh_approx, tanh_exact_slice, tanh_slice, ternary_tanh_slice,
    Precision,
};
pub use gradcheck::{assert_grads_close, grad_check, GradCheckReport};
pub use graph::{quantize3, ternary_tanh, Graph, Var};
pub use layers::{GruCell, GruScratch, Linear, PackedGru, PackedGruScratch, PackedLinear};
pub use optim::{clip_global_norm, clip_global_norm_multi, Adam, Sgd};
pub use params::{Param, ParamId, ParamStore};
pub use persist::{read_params, write_params, PersistError};
