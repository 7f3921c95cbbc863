//! # bidecomp
//!
//! The core contribution of *“Computing the full quotient in bi-decomposition
//! by approximation”* (Bernasconi, Ciriani, Cortadella, Villa — DATE 2020):
//! given an incompletely specified function `f`, a completely specified
//! approximation `g`, and a two-input operator `op`, compute the incompletely
//! specified quotient `h` with the **smallest on-set and the largest dc-set**
//! such that `f = g op h` for *every* completion of `h` (Table II of the
//! paper, Lemmas 1–5, Corollaries 1–4).
//!
//! On top of the quotient formulas the crate provides:
//!
//! * [`BinaryOp`] — the ten non-degenerate binary operators, grouped into
//!   AND-like, OR-like and XOR-like classes;
//! * [`ApproxKind`] / divisor validation — which kind of approximation
//!   (0→1, 1→0, 0↔1) each operator requires and whether a candidate `g`
//!   satisfies it;
//! * [`full_quotient`] / [`full_quotient_bdd`] — the quotient on dense truth
//!   tables and on BDDs (the two backends the paper's CUDD implementation
//!   collapses into one);
//! * [`verify_decomposition`] and [`verify_maximal_flexibility`] — executable
//!   versions of the lemmas and corollaries;
//! * [`Oracle`] — a third, structurally independent judge: the lemmas and
//!   corollaries compiled into CNF counterexample searches and decided by
//!   the deterministic [`sat`] solver, with rejections naming the failing
//!   lemma and a witness minterm;
//! * [`DecompositionPlan`] — the end-to-end flow of Section IV (synthesize
//!   `f` in 2-SPP, approximate, compute `h`, re-synthesize, map, report
//!   areas and gains);
//! * [`decomposition_sequence`] — the sequence of divisor/quotient pairs that
//!   shifts logic between `g` and `h` (Section I);
//! * [`engine`] — the batch decomposition engine: the full
//!   operator × instance × divisor sweep of a benchmark suite over a worker
//!   pool, with an allocation-free quotient/verify hot path
//!   ([`QuotientScratch`]) and deterministic, seed-stable reports; a second
//!   sweep kind ([`sweep_synthesis`]) fans the recursive synthesizer over a
//!   suite on the same pool;
//! * [`cache`] — the [`QuotientCache`] trait: pluggable memoization of
//!   full-quotient results (sound because the full quotient is unique) for
//!   the recursive synthesizer. Neither sweep kind nor the service plugs one
//!   in: a Table II quotient takes under a microsecond at 9–12 inputs,
//!   while an NPN-keyed lookup first pays 0.03–0.16 ms of canonicalization and
//!   almost never hits. The NPN-canonical implementation is
//!   `service::NpnCache`;
//! * [`recursive`] — the recursive synthesis engine: cost-driven multi-level
//!   bi-decomposition with a configurable `(operator, strategy)` portfolio,
//!   a [`techmap::Network`] emitter and a [`DecompositionTree`] report, every
//!   network exhaustively verified against `f`'s care set.
//!
//! ```rust
//! use bidecomp::{full_quotient, verify_decomposition, BinaryOp};
//! use boolfunc::{Cover, Isf};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Fig. 1 of the paper: f = x0 x1 x3 + x1 x2 x3, g = x1 x3.
//! let f = Isf::from_cover_str(4, &["11-1", "-111"], &[])?;
//! let g = Cover::from_strs(4, &["-1-1"])?.to_truth_table();
//! let h = full_quotient(&f, &g, BinaryOp::And)?;
//! assert!(verify_decomposition(&f, &g, &h, BinaryOp::And));
//! // h can be realised as x0 + x2 thanks to its large dc-set.
//! assert_eq!(h.on(), f.on());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approximation;
pub mod cache;
pub mod decompose;
pub mod engine;
mod error;
pub mod flexibility;
pub mod operator;
pub mod oracle;
pub mod quotient;
pub mod recursive;
pub mod report;
pub mod sequence;
pub mod verify;

pub use approximation::{
    classify_approximation, is_valid_divisor, is_valid_divisor_bdd, ApproxKind, ApproximationStats,
};
pub use cache::{cached_full_quotient, QuotientCache, SharedQuotientCache};
pub use decompose::{
    derive_strategy_divisor, ApproxStrategy, BiDecomposition, DecompositionPlan, Quotient,
};
pub use engine::{
    run_pool, seeded_divisor, seeded_divisor_bdd, sweep, sweep_synthesis, Backend, EngineConfig,
    JobResult, OperatorStats, SweepReport, SynthesisConfig, SynthesisJobResult, SynthesisReport,
};
pub use error::BidecompError;
pub use flexibility::FlexibilityReport;
pub use operator::{BinaryOp, OperatorClass};
pub use oracle::{correctness_lemma, flexibility_corollary, FailedLemma, Oracle, OracleFailure};
pub use quotient::{
    full_quotient, full_quotient_bdd, quotient_off_bdd, quotient_sets, table2_row, DcTerm,
    QuotientScratch, QuotientSets, Table2Row,
};
pub use recursive::{
    verify_network, verify_network_per_minterm, DecompositionTree, LeafKind, MemoCounts,
    RecursiveConfig, RecursiveSynthesis, RecursiveSynthesizer,
};
pub use report::{BenchmarkRow, TableReport};
pub use sequence::decomposition_sequence;
pub use verify::{
    verify_decomposition, verify_decomposition_bdd, verify_decomposition_per_minterm,
    verify_decomposition_sets, verify_maximal_flexibility, verify_maximal_flexibility_bdd,
    verify_maximal_flexibility_per_minterm, verify_maximal_flexibility_sets,
};
