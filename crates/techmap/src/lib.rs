//! # techmap
//!
//! Area estimation by technology mapping, standing in for the
//! `SIS + mcnc.genlib` step of the paper's evaluation (Tables III and IV
//! report gate areas after mapping with `mcnc.genlib`).
//!
//! The flow:
//!
//! 1. a [`Network`] of AND/OR/XOR/NOT nodes is built from an SOP cover, a
//!    2-SPP form, or a bi-decomposition `g op h`;
//! 2. a local-covering pass ([`Mapper`]) covers every logic node with one
//!    gate from a [`GateLibrary`] (an embedded `mcnc.genlib`-like set),
//!    merging an inverter into the AND/OR/XOR it negates (NAND2/NOR2/XNOR2),
//!    and reports the total mapped area.
//!
//! Absolute areas are not comparable with the paper's SIS numbers (different
//! library scaling), but ratios — which is what the paper's "gain" columns
//! report — are, because every form is mapped by the same mapper with the
//! same library.
//!
//! ```rust
//! use boolfunc::Cover;
//! use techmap::AreaModel;
//!
//! # fn main() -> Result<(), boolfunc::BoolFuncError> {
//! let model = AreaModel::mcnc();
//! let small = model.cover_area(&Cover::from_strs(3, &["1--"])?);
//! let large = model.cover_area(&Cover::from_strs(3, &["11-", "1-1", "-11"])?);
//! assert!(small < large);
//! # Ok(())
//! # }
//! ```
//!
//! ## Area model
//!
//! [`AreaModel`] packages the three mappings the paper's tables need —
//! `cover_area` for SOP forms, `spp_area` for 2-SPP forms (XOR factors map
//! to the library's XOR2/XNOR2 gates), and `bidecomposition_area` for
//! `g op h` with the top gate accounted ([`CombineOp`]) — so callers compare
//! areas without touching [`Network`] construction themselves.
//!
//! ```rust
//! use techmap::{GateLibrary, Mapper, Network};
//!
//! // f = (x0 ∧ x1) ∨ x2, built and mapped by hand.
//! let mut net = Network::new(3);
//! let x0 = net.input(0);
//! let x1 = net.input(1);
//! let x2 = net.input(2);
//! let a = net.and(x0, x1);
//! let f = net.or(a, x2);
//! net.add_output(f);
//! let result = Mapper::new(GateLibrary::mcnc()).map(&net);
//! assert!(result.area > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod gate;
mod hash;
mod library;
mod mapper;
mod network;

pub use area::{AreaModel, CombineOp};
pub use gate::{Gate, GateKind};
pub use hash::{MulHashMap, MulHasher};
pub use library::GateLibrary;
pub use mapper::{Mapper, MappingResult};
pub use network::{Network, NodeId, NodeKind};
