//! # bdd
//!
//! A from-scratch reduced ordered binary decision diagram (ROBDD) package,
//! playing the role that CUDD plays in the paper's original implementation:
//! the set operations of Table II (unions, intersections, differences and
//! symmetric differences of on/off/dc-sets) are carried out on BDDs when the
//! functions are too large for dense truth tables.
//!
//! Features:
//!
//! * **complement edges**: a handle tags its edge with a complement bit, the
//!   single terminal is the constant 1, every stored node keeps a regular
//!   then-edge (canonical form) — so [`BddManager::not`] is O(1) and a
//!   function shares all nodes with its complement,
//! * **dynamic variable ordering**: an in-place adjacent-level swap
//!   primitive ([`BddManager::swap_adjacent_levels`]), deterministic
//!   Rudell-style sifting ([`BddManager::sift`], [`BddManager::maybe_sift`],
//!   tuned via [`SiftConfig`]), and FORCE-style static-order seeding over
//!   cube covers ([`force_order`] + [`BddManager::set_order`]),
//! * per-variable open-addressed, power-of-two hash-consing unique subtables
//!   with strict ROBDD reduction invariants (tombstone-free backward-shift
//!   deletion, load-factor-driven rehash),
//! * specialized binary `apply` operations (`and`, `xor`, with `or`, `diff`,
//!   `nand`, `nor`, `xnor`, `implies` as free complement-edge rewrites) over
//!   a shared lossy operation cache, plus a memoized general
//!   [`BddManager::ite`] with complement-normalized keys,
//! * manager-owned, reusable recursion memos (restriction, quantification,
//!   counting) and an explicit [`BddManager::reserve`] /
//!   [`BddManager::clear`] lifecycle for batch reuse,
//! * cache, unique-table and reordering statistics ([`CacheStats`]),
//! * cofactors/restriction, functional composition, existential and universal
//!   quantification over variable sets,
//! * model counting ([`BddManager::sat_count`]) and minterm enumeration,
//! * conversion from/to [`boolfunc::TruthTable`] and [`boolfunc::Cover`],
//! * Minato–Morreale irredundant SOP extraction ([`BddManager::isop`]),
//! * Graphviz DOT export (complement edges drawn with dot arrowheads).
//!
//! ```rust
//! use bdd::BddManager;
//!
//! let mut mgr = BddManager::new(3);
//! let x0 = mgr.variable(0);
//! let x1 = mgr.variable(1);
//! let x2 = mgr.variable(2);
//! let f = {
//!     let a = mgr.and(x0, x1);
//!     mgr.or(a, x2)
//! };
//! assert_eq!(mgr.sat_count(f), 5);
//! assert!(mgr.eval(f, 0b100));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod count;
mod dot;
mod error;
mod isop;
mod manager;
mod memo;
mod order;
mod quant;

pub use error::BddError;
pub use manager::{Bdd, BddManager, CacheStats, SiftConfig};
pub use order::force_order;
