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
//!   `nor`, `xnor` as free complement-edge rewrites) over a shared lossy
//!   operation cache, plus a memoized general [`BddManager::ite`] with
//!   complement-normalized keys,
//! * a manager-owned, reusable counting memo and an explicit
//!   [`BddManager::clear`] lifecycle for batch reuse,
//! * cache, unique-table and reordering statistics ([`CacheStats`]),
//! * model counting ([`BddManager::sat_count`]),
//! * conversion from [`boolfunc::TruthTable`] and [`boolfunc::Cover`], and
//!   back to a truth table.
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
mod error;
mod manager;
mod order;

pub use error::BddError;
pub use manager::{Bdd, BddManager, CacheStats, SiftConfig};
pub use order::force_order;
