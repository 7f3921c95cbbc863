//! The recursive bi-decomposition synthesis engine: the paper's Section IV
//! flow (approximate, compute the full quotient, re-synthesize both sides)
//! applied *recursively* until nothing is gained, the way the QBF-based
//! bi-decomposition line of work builds whole multi-level networks out of
//! single decompositions.
//!
//! At each level the synthesizer tries every `(operator, divisor-strategy)`
//! pair of a configurable portfolio, computes the full quotient of Table II,
//! scores each candidate by the *mapped area* of `g op h` (via
//! [`techmap::AreaModel`]), and keeps the best candidate only if it beats
//! the flat 2-SPP realization of the function by at least
//! [`RecursiveConfig::min_gain`]. It then recurses on the divisor (realized
//! exactly) and on the quotient (an ISF — any completion is correct by
//! Lemmas 1–5), terminating on constants, literals, single pseudoproducts,
//! the depth cap, or the absence of gain. The result is a multi-level
//! [`techmap::Network`] plus a [`DecompositionTree`] report mirroring the
//! choices made, and the network is always checked against `f`'s care set by
//! exhaustive word-parallel simulation ([`verify_network`]).
//!
//! ```rust
//! use bidecomp::recursive::RecursiveSynthesizer;
//! use boolfunc::Isf;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let f = Isf::from_cover_str(4, &["1-10", "1-01", "-111", "-100"], &[])?;
//! let result = RecursiveSynthesizer::default().synthesize(&f)?;
//! assert!(result.verified);
//! assert!(result.mapped_area <= result.flat_area);
//! # Ok(())
//! # }
//! ```

use std::fmt;

use benchmarks::DetRng;
use boolfunc::{Isf, TruthTable};
use spp::{SppForm, SppSynthesizer};
use techmap::{AreaModel, Network, NodeId, NodeKind};

use crate::cache::{cached_full_quotient, SharedQuotientCache};
use crate::decompose::{combine_op, derive_strategy_divisor, ApproxStrategy};
use crate::error::BidecompError;
use crate::operator::BinaryOp;
use crate::oracle::Oracle;
use crate::verify::verify_decomposition;

/// Configuration of the recursive synthesizer: which candidates to try at
/// each level and when to stop.
#[derive(Debug, Clone)]
pub struct RecursiveConfig {
    /// The `(operator, divisor-strategy)` candidates tried at every level,
    /// in tie-breaking order (earlier entries win area ties, so the report
    /// is deterministic). [`ApproxStrategy::External`] is rejected up front:
    /// there is no caller to supply a divisor inside the recursion.
    pub portfolio: Vec<(BinaryOp, ApproxStrategy)>,
    /// Maximum recursion depth; level `max_depth` is always realized flat.
    pub max_depth: usize,
    /// Minimum mapped-area improvement (in library area units) a candidate
    /// `g op h` must have over the flat 2-SPP realization to be recursed on.
    pub min_gain: f64,
    /// Opt-in self-audit: replay every `(g, h, op)` candidate whose full
    /// quotient the recursion computed through the SAT
    /// [`crate::oracle::Oracle`] (side condition, Lemmas 1–5,
    /// Corollaries 1–4), before the candidate's gain is checked, so losing
    /// candidates are audited too. A rejection panics — the dense
    /// verifiers accepted the same quotient, so a disagreement is a
    /// cross-backend bug, not a recoverable outcome.
    pub oracle_audit: bool,
}

impl Default for RecursiveConfig {
    /// The paper's two experimental operators plus `OR` (the dual side),
    /// all with the full-expansion divisor of Section IV-A, depth 3, and
    /// half a `NAND2` of required gain.
    fn default() -> Self {
        RecursiveConfig {
            portfolio: vec![
                (BinaryOp::And, ApproxStrategy::FullExpansion),
                (BinaryOp::NonImplication, ApproxStrategy::FullExpansion),
                (BinaryOp::Or, ApproxStrategy::FullExpansion),
            ],
            max_depth: 3,
            min_gain: 0.5,
            oracle_audit: false,
        }
    }
}

/// Why a subtree stopped recursing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafKind {
    /// The function is constant on its care set (realized as a constant
    /// node: zero gates).
    Constant(bool),
    /// The function completes to a single literal `x_var` / `x_var'`
    /// (realized as the input, possibly inverted: zero gates).
    Literal {
        /// Input index.
        var: usize,
        /// `false` if the literal is complemented.
        positive: bool,
    },
    /// The flat 2-SPP form is a single pseudoproduct — further
    /// bi-decomposition cannot beat one product term.
    Cube,
    /// Flat fallback: the depth cap was reached or no portfolio candidate
    /// beat the flat realization by [`RecursiveConfig::min_gain`].
    Flat,
}

/// The shape of a recursive synthesis: which operator and strategy won at
/// each level, with the areas that justified the choice.
#[derive(Debug, Clone)]
pub enum DecompositionTree {
    /// A terminal node, realized flat (or as a constant / literal).
    Leaf {
        /// Why recursion stopped here.
        kind: LeafKind,
        /// Mapped area of the flat realization of this subfunction.
        flat_area: f64,
        /// 2-SPP literal count of the flat realization.
        literals: usize,
    },
    /// A bi-decomposition `f = g op h`, recursed on both sides.
    Branch {
        /// The winning operator.
        op: BinaryOp,
        /// The divisor strategy that produced `g`.
        strategy: ApproxStrategy,
        /// Mapped area of the flat 2-SPP realization of this subfunction.
        flat_area: f64,
        /// Mapped area of the flat `g op h` candidate that won (the actual
        /// network is usually cheaper still, thanks to sharing and deeper
        /// recursion).
        candidate_area: f64,
        /// The divisor subtree (realized exactly).
        divisor: Box<DecompositionTree>,
        /// The quotient subtree (any completion of `h` is correct).
        quotient: Box<DecompositionTree>,
    },
}

impl DecompositionTree {
    /// Number of bi-decomposition levels below (and including) this node:
    /// 0 for a leaf.
    pub fn depth(&self) -> usize {
        match self {
            DecompositionTree::Leaf { .. } => 0,
            DecompositionTree::Branch { divisor, quotient, .. } => {
                1 + divisor.depth().max(quotient.depth())
            }
        }
    }

    /// Total number of [`DecompositionTree::Branch`] nodes in the subtree.
    pub fn num_branches(&self) -> usize {
        match self {
            DecompositionTree::Leaf { .. } => 0,
            DecompositionTree::Branch { divisor, quotient, .. } => {
                1 + divisor.num_branches() + quotient.num_branches()
            }
        }
    }

    /// Total number of leaves in the subtree.
    pub fn num_leaves(&self) -> usize {
        match self {
            DecompositionTree::Leaf { .. } => 1,
            DecompositionTree::Branch { divisor, quotient, .. } => {
                divisor.num_leaves() + quotient.num_leaves()
            }
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            DecompositionTree::Leaf { kind, flat_area, literals } => {
                let label = match kind {
                    LeafKind::Constant(false) => "const 0".to_string(),
                    LeafKind::Constant(true) => "const 1".to_string(),
                    LeafKind::Literal { var, positive: true } => format!("literal x{var}"),
                    LeafKind::Literal { var, positive: false } => format!("literal x{var}'"),
                    LeafKind::Cube => "cube".to_string(),
                    LeafKind::Flat => "flat".to_string(),
                };
                writeln!(f, "{pad}{label} ({literals} literals, area {flat_area:.1})")
            }
            DecompositionTree::Branch {
                op,
                strategy,
                flat_area,
                candidate_area,
                divisor,
                quotient,
            } => {
                writeln!(
                    f,
                    "{pad}{op} [{strategy:?}] flat {flat_area:.1} -> candidate {candidate_area:.1}"
                )?;
                divisor.fmt_indented(f, indent + 1)?;
                quotient.fmt_indented(f, indent + 1)
            }
        }
    }
}

impl fmt::Display for DecompositionTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

/// The complete result of one recursive synthesis.
#[derive(Debug, Clone)]
pub struct RecursiveSynthesis {
    /// The multi-level network realizing (a completion of) `f`; its single
    /// output is the root of the decomposition.
    pub network: Network,
    /// The decomposition choices, level by level.
    pub tree: DecompositionTree,
    /// The flat 2-SPP form of `f` the recursion competed against.
    pub flat_form: SppForm,
    /// Mapped area of the flat 2-SPP realization.
    pub flat_area: f64,
    /// Mapped area of [`RecursiveSynthesis::network`].
    pub mapped_area: f64,
    /// `true` if exhaustive simulation ([`verify_network`]) agreed with `f`
    /// on every care minterm (it always should; the engine and the tests
    /// assert it).
    pub verified: bool,
}

impl RecursiveSynthesis {
    /// Mapped-area gain over the flat 2-SPP realization, in percent
    /// (non-negative whenever the recursion fell back to flat correctly).
    pub fn gain_percent(&self) -> f64 {
        if self.flat_area == 0.0 {
            0.0
        } else {
            (self.flat_area - self.mapped_area) / self.flat_area * 100.0
        }
    }

    /// Logic-gate count of the produced network.
    pub fn gate_count(&self) -> usize {
        self.network.gate_count()
    }
}

/// The cost-driven recursive bi-decomposition synthesizer. See the
/// [module documentation](self) for the algorithm.
#[derive(Debug, Clone)]
pub struct RecursiveSynthesizer {
    config: RecursiveConfig,
    synthesizer: SppSynthesizer,
    area_model: AreaModel,
    cache: Option<SharedQuotientCache>,
}

impl Default for RecursiveSynthesizer {
    fn default() -> Self {
        RecursiveSynthesizer::new(RecursiveConfig::default())
    }
}

impl RecursiveSynthesizer {
    /// Creates a synthesizer with the default 2-SPP synthesizer and the
    /// embedded mcnc-like library.
    pub fn new(config: RecursiveConfig) -> Self {
        RecursiveSynthesizer {
            config,
            synthesizer: SppSynthesizer::new(),
            area_model: AreaModel::mcnc(),
            cache: None,
        }
    }

    /// Plugs a shared [`crate::cache::QuotientCache`] into every
    /// `full_quotient` call of the recursion, so identical (up to the
    /// cache's normalization) quotient subproblems are answered from the
    /// cache across levels — and, because the cache is shared, across
    /// concurrent synthesis jobs. The full quotient is unique, so caching
    /// never changes a result bit. It only saves time when a lookup costs
    /// less than the sub-microsecond recomputation, which an NPN-keyed
    /// lookup does not (see [`crate::cache`]).
    pub fn with_quotient_cache(mut self, cache: SharedQuotientCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Replaces the 2-SPP synthesizer.
    pub fn with_synthesizer(mut self, synthesizer: SppSynthesizer) -> Self {
        self.synthesizer = synthesizer;
        self
    }

    /// Replaces the area model.
    pub fn with_area_model(mut self, area_model: AreaModel) -> Self {
        self.area_model = area_model;
        self
    }

    /// The configuration of this synthesizer.
    pub fn config(&self) -> &RecursiveConfig {
        &self.config
    }

    /// Recursively synthesizes `f` with seed 0 (see
    /// [`RecursiveSynthesizer::synthesize_seeded`]; the seed only matters
    /// for [`ApproxStrategy::Seeded`] portfolio entries).
    ///
    /// # Errors
    ///
    /// Returns [`BidecompError::MissingExternalDivisor`] if the portfolio
    /// contains [`ApproxStrategy::External`].
    pub fn synthesize(&self, f: &Isf) -> Result<RecursiveSynthesis, BidecompError> {
        self.synthesize_seeded(f, 0)
    }

    /// Recursively synthesizes `f`, mixing `seed` into every
    /// [`ApproxStrategy::Seeded`] portfolio entry (each tree position gets a
    /// distinct, deterministic sub-seed, so results are a pure function of
    /// `(f, config, seed)` — the engine relies on this for its bit-identical
    /// thread-count guarantee).
    ///
    /// # Errors
    ///
    /// Returns [`BidecompError::MissingExternalDivisor`] if the portfolio
    /// contains [`ApproxStrategy::External`].
    pub fn synthesize_seeded(
        &self,
        f: &Isf,
        seed: u64,
    ) -> Result<RecursiveSynthesis, BidecompError> {
        if self.config.portfolio.iter().any(|(_, s)| *s == ApproxStrategy::External) {
            return Err(BidecompError::MissingExternalDivisor);
        }
        let mut network = Network::new(f.num_vars());
        let flat_form = self.synthesizer.synthesize(f);
        let flat_area = self.area_model.spp_area(&flat_form);
        let (tree, root) = self.node(f, &flat_form, flat_area, 0, seed, &mut network);
        network.add_output(root);
        let mapped_area = self.area_model.mapper().map(&network).area;
        let verified = verify_network(f, &network, 0);
        Ok(RecursiveSynthesis { network, tree, flat_form, flat_area, mapped_area, verified })
    }

    /// Synthesizes one tree node into `net`, returning the report subtree
    /// and the root of the emitted logic.
    fn node(
        &self,
        f: &Isf,
        f_form: &SppForm,
        flat_area: f64,
        depth: usize,
        seed: u64,
        net: &mut Network,
    ) -> (DecompositionTree, NodeId) {
        let literals = f_form.literal_count();
        let leaf = |kind| DecompositionTree::Leaf { kind, flat_area, literals };

        // Constant / literal / cube termination: nothing to decompose.
        if f.on().is_zero() {
            return (leaf(LeafKind::Constant(false)), net.constant(false));
        }
        if f.off().is_zero() {
            return (leaf(LeafKind::Constant(true)), net.constant(true));
        }
        for var in 0..f.num_vars() {
            let x = TruthTable::variable(f.num_vars(), var);
            if f.is_completion(&x) {
                let node = net.input(var);
                return (leaf(LeafKind::Literal { var, positive: true }), node);
            }
            if f.is_completion(&!&x) {
                let node = net.input(var);
                let node = net.not(node);
                return (leaf(LeafKind::Literal { var, positive: false }), node);
            }
        }
        if f_form.num_pseudoproducts() <= 1 {
            let node = net.build_spp(f_form);
            return (leaf(LeafKind::Cube), node);
        }
        if depth >= self.config.max_depth {
            let node = net.build_spp(f_form);
            return (leaf(LeafKind::Flat), node);
        }

        // Portfolio: best candidate by mapped area of the flat `g op h`,
        // earlier entries winning ties (strict `<`), so the choice is
        // deterministic.
        let mut best: Option<Candidate> = None;
        for &(op, strategy) in &self.config.portfolio {
            let strategy = mix_strategy(strategy, seed);
            let Ok(g) = derive_strategy_divisor(f, f_form, op, strategy, &self.synthesizer) else {
                continue; // External is rejected before recursion starts.
            };
            let Ok(h) = cached_full_quotient(self.cache.as_deref(), f, &g, op) else {
                continue; // The strategy produced an invalid divisor for op.
            };
            debug_assert!(verify_decomposition(f, &g, &h, op), "{op}: full quotient must verify");
            if self.config.oracle_audit {
                Oracle::check(f, &g, &h, op)
                    .unwrap_or_else(|e| panic!("{op}: oracle rejected a verified candidate: {e}"));
            }
            let g_isf = Isf::completely_specified(g);
            let g_form = self.synthesizer.synthesize(&g_isf);
            let h_form = self.synthesizer.synthesize(&h);
            let area = self.area_model.bidecomposition_area(&g_form, &h_form, combine_op(op));
            if area + self.config.min_gain > flat_area {
                continue; // No gain over the flat realization.
            }
            if best.as_ref().is_none_or(|b| area < b.area) {
                best = Some(Candidate { op, strategy, area, g_isf, h, g_form, h_form });
            }
        }
        let Some(c) = best else {
            let node = net.build_spp(f_form);
            return (leaf(LeafKind::Flat), node);
        };

        // Recurse on both sides. The divisor must be realized exactly; the
        // quotient keeps its dc-set, so its subtree may realize any
        // completion (Lemmas 1-5 make every completion correct).
        let g_area = self.area_model.spp_area(&c.g_form);
        let h_area = self.area_model.spp_area(&c.h_form);
        let (div_tree, div_node) =
            self.node(&c.g_isf, &c.g_form, g_area, depth + 1, child_seed(seed, 0), net);
        let (quo_tree, quo_node) =
            self.node(&c.h, &c.h_form, h_area, depth + 1, child_seed(seed, 1), net);
        let root = net.combine(div_node, quo_node, combine_op(c.op));
        let tree = DecompositionTree::Branch {
            op: c.op,
            strategy: c.strategy,
            flat_area,
            candidate_area: c.area,
            divisor: Box::new(div_tree),
            quotient: Box::new(quo_tree),
        };
        (tree, root)
    }
}

/// One scored portfolio candidate.
struct Candidate {
    op: BinaryOp,
    strategy: ApproxStrategy,
    area: f64,
    g_isf: Isf,
    h: Isf,
    g_form: SppForm,
    h_form: SppForm,
}

/// Mixes the per-node seed into a [`ApproxStrategy::Seeded`] entry; other
/// strategies are seed-independent.
fn mix_strategy(strategy: ApproxStrategy, seed: u64) -> ApproxStrategy {
    match strategy {
        ApproxStrategy::Seeded { seed: base } => {
            ApproxStrategy::Seeded { seed: DetRng::seed_from_u64(base ^ seed).next_u64() }
        }
        other => other,
    }
}

/// The deterministic sub-seed of child `index` (0 = divisor, 1 = quotient).
fn child_seed(seed: u64, index: u64) -> u64 {
    DetRng::seed_from_u64(seed.wrapping_mul(2).wrapping_add(index + 1)).next_u64()
}

/// Exhaustively checks `network` output `output_index` against `f` on every
/// care minterm.
///
/// Simulates the network on 64 minterms per `u64`, one table word at a
/// time: inputs 0–5 are the in-word variable patterns, higher inputs are
/// all-ones or all-zeros words picked by the word index, and every node's
/// value lives in one scratch vector reused across words. A word fails
/// when `(out ^ on) & !dc` is non-zero on its valid minterms. The verdict
/// is identical to the per-minterm [`verify_network_per_minterm`].
///
/// # Panics
///
/// Panics if `output_index` is not a declared output of `network`.
pub fn verify_network(f: &Isf, network: &Network, output_index: usize) -> bool {
    let root = network.outputs()[output_index].index();
    let words = f.on().as_words().iter().zip(f.dc().as_words());
    let last = f.on().as_words().len() - 1;
    let mut values = vec![0u64; network.num_nodes()];
    let word = |bit: bool| if bit { u64::MAX } else { 0 };
    for (k, (&on, &dc)) in words.enumerate() {
        for id in network.node_ids() {
            values[id.index()] = match network.kind(id) {
                NodeKind::Input(var) if var < 6 => TruthTable::VAR_PATTERNS[var],
                NodeKind::Input(var) => word(k.checked_shr((var - 6) as u32).unwrap_or(0) & 1 == 1),
                NodeKind::Const(v) => word(v),
                NodeKind::Not(a) => !values[a.index()],
                NodeKind::And(a, b) => values[a.index()] & values[b.index()],
                NodeKind::Or(a, b) => values[a.index()] | values[b.index()],
                NodeKind::Xor(a, b) => values[a.index()] ^ values[b.index()],
            };
        }
        let tail = if k == last { f.on().tail_mask() } else { u64::MAX };
        if (values[root] ^ on) & !dc & tail != 0 {
            return false;
        }
    }
    true
}

/// The per-minterm oracle of [`verify_network`]: one [`Network::eval`] per
/// minterm.
pub fn verify_network_per_minterm(f: &Isf, network: &Network, output_index: usize) -> bool {
    (0..(1u64 << f.num_vars()))
        .all(|m| f.value(m).is_none_or(|v| network.eval(m)[output_index] == v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2() -> Isf {
        Isf::from_cover_str(4, &["1-10", "1-01", "-111", "-100"], &[]).unwrap()
    }

    #[test]
    fn constant_isf_terminates_at_depth_zero_with_zero_gates() {
        let synth = RecursiveSynthesizer::default();
        let zero = Isf::completely_specified(TruthTable::zero(3));
        let one = Isf::completely_specified(TruthTable::one(3));
        // A fully-unspecified function is a constant too (any completion).
        let free = Isf::new(TruthTable::zero(3), TruthTable::one(3)).unwrap();
        for (f, kind) in [
            (&zero, LeafKind::Constant(false)),
            (&one, LeafKind::Constant(true)),
            (&free, LeafKind::Constant(false)),
        ] {
            let result = synth.synthesize(f).unwrap();
            assert!(result.verified);
            assert_eq!(result.tree.depth(), 0);
            assert_eq!(result.gate_count(), 0, "constants need no gates");
            assert!(
                matches!(result.tree, DecompositionTree::Leaf { kind: k, .. } if k == kind),
                "{f:?} must terminate as {kind:?}"
            );
        }
    }

    #[test]
    fn literal_isf_terminates_at_depth_zero_with_zero_gates() {
        let synth = RecursiveSynthesizer::default();
        let x2 = Isf::completely_specified(TruthTable::variable(4, 2));
        let result = synth.synthesize(&x2).unwrap();
        assert!(result.verified);
        assert_eq!(result.tree.depth(), 0);
        assert_eq!(result.gate_count(), 0, "a positive literal is just the input");
        assert!(matches!(
            result.tree,
            DecompositionTree::Leaf { kind: LeafKind::Literal { var: 2, positive: true }, .. }
        ));

        // The complemented literal costs one inverter and still no recursion.
        let nx1 = Isf::completely_specified(!&TruthTable::variable(4, 1));
        let result = synth.synthesize(&nx1).unwrap();
        assert!(result.verified);
        assert_eq!(result.tree.depth(), 0);
        assert_eq!(result.gate_count(), 1);
        assert!(matches!(
            result.tree,
            DecompositionTree::Leaf { kind: LeafKind::Literal { var: 1, positive: false }, .. }
        ));

        // An ISF whose completions include a literal picks the literal.
        let almost = Isf::new(
            &TruthTable::variable(3, 0) & &TruthTable::variable(3, 1),
            !&TruthTable::variable(3, 1),
        )
        .unwrap();
        let result = synth.synthesize(&almost).unwrap();
        assert_eq!(result.tree.depth(), 0);
        assert_eq!(result.gate_count(), 0);
    }

    #[test]
    fn fig2_recursion_verifies_and_never_loses_to_flat() {
        let result = RecursiveSynthesizer::default().synthesize(&fig2()).unwrap();
        assert!(result.verified);
        assert!(result.mapped_area <= result.flat_area, "flat is always a candidate");
        assert!(result.gain_percent() >= 0.0);
        assert_eq!(result.network.outputs().len(), 1);
        assert_eq!(result.tree.num_leaves(), result.tree.num_branches() + 1);
    }

    #[test]
    fn oracle_audit_accepts_every_winning_candidate() {
        let config = RecursiveConfig { oracle_audit: true, ..RecursiveConfig::default() };
        let audited = RecursiveSynthesizer::new(config).synthesize(&fig2()).unwrap();
        assert!(audited.verified);
        // Auditing only observes: the synthesis result is unchanged.
        let plain = RecursiveSynthesizer::default().synthesize(&fig2()).unwrap();
        assert_eq!(plain.mapped_area.to_bits(), audited.mapped_area.to_bits());
        assert_eq!(plain.gate_count(), audited.gate_count());
        assert_eq!(plain.tree.depth(), audited.tree.depth());
    }

    #[test]
    fn external_strategy_in_the_portfolio_is_rejected() {
        let config = RecursiveConfig {
            portfolio: vec![(BinaryOp::And, ApproxStrategy::External)],
            ..RecursiveConfig::default()
        };
        let err = RecursiveSynthesizer::new(config).synthesize(&fig2()).unwrap_err();
        assert_eq!(err, BidecompError::MissingExternalDivisor);
    }

    #[test]
    fn empty_portfolio_realizes_flat() {
        let config = RecursiveConfig { portfolio: Vec::new(), ..RecursiveConfig::default() };
        let result = RecursiveSynthesizer::new(config).synthesize(&fig2()).unwrap();
        assert!(result.verified);
        assert_eq!(result.tree.depth(), 0);
        assert!(matches!(result.tree, DecompositionTree::Leaf { kind: LeafKind::Flat, .. }));
        assert!((result.mapped_area - result.flat_area).abs() < 1e-9);
    }

    #[test]
    fn max_depth_zero_realizes_flat() {
        let config = RecursiveConfig { max_depth: 0, ..RecursiveConfig::default() };
        let result = RecursiveSynthesizer::new(config).synthesize(&fig2()).unwrap();
        assert!(result.verified);
        assert_eq!(result.tree.depth(), 0);
    }

    #[test]
    fn seeded_portfolio_entries_are_seed_stable() {
        let config = RecursiveConfig {
            portfolio: vec![
                (BinaryOp::And, ApproxStrategy::FullExpansion),
                (BinaryOp::Xor, ApproxStrategy::Seeded { seed: 0x5EED }),
            ],
            ..RecursiveConfig::default()
        };
        let synth = RecursiveSynthesizer::new(config);
        let f = fig2();
        let a = synth.synthesize_seeded(&f, 7).unwrap();
        let b = synth.synthesize_seeded(&f, 7).unwrap();
        assert_eq!(a.mapped_area.to_bits(), b.mapped_area.to_bits());
        assert_eq!(a.tree.depth(), b.tree.depth());
        assert!(a.verified && b.verified);
    }

    #[test]
    fn quotient_cache_never_changes_the_result() {
        use crate::cache::testutil::MapCache;
        use std::sync::atomic::Ordering;
        use std::sync::Arc;

        let f = fig2();
        let plain = RecursiveSynthesizer::default().synthesize(&f).unwrap();
        let cache = Arc::new(MapCache::default());
        let synth = RecursiveSynthesizer::default().with_quotient_cache(cache.clone());
        let cold = synth.synthesize(&f).unwrap(); // populates the cache
        let warm = synth.synthesize(&f).unwrap(); // replays it from the cache
        for result in [&cold, &warm] {
            assert!(result.verified);
            assert_eq!(plain.mapped_area.to_bits(), result.mapped_area.to_bits());
            assert_eq!(plain.flat_area.to_bits(), result.flat_area.to_bits());
            assert_eq!(plain.gate_count(), result.gate_count());
            assert_eq!(plain.tree.depth(), result.tree.depth());
        }
        assert!(cache.hits.load(Ordering::Relaxed) > 0, "the warm run must hit");
    }

    /// A random single-output network over `n` inputs: a constant node,
    /// about three quarters of the inputs (the rest stay unused) and
    /// `gates` random AND/OR/XOR/NOT nodes over everything built so far.
    fn random_network(rng: &mut DetRng, n: usize, gates: usize) -> Network {
        let mut net = Network::new(n);
        let mut nodes = vec![net.constant(rng.next_u64() & 1 == 1)];
        nodes
            .extend((0..n).filter(|_| !rng.next_u64().is_multiple_of(4)).map(|var| net.input(var)));
        for _ in 0..gates {
            let a = nodes[(rng.next_u64() % nodes.len() as u64) as usize];
            let b = nodes[(rng.next_u64() % nodes.len() as u64) as usize];
            let node = match rng.next_u64() % 4 {
                0 => net.and(a, b),
                1 => net.or(a, b),
                2 => net.xor(a, b),
                _ => net.not(a),
            };
            nodes.push(node);
        }
        net.add_output(*nodes.last().expect("the constant is always there"));
        net
    }

    /// A copy of `net` whose node `target` computes a different function
    /// (AND ↔ OR, XOR → OR, NOT → buffer).
    fn flip_gate(net: &Network, target: usize) -> Network {
        let mut out = Network::new(net.num_inputs());
        let mut map: Vec<NodeId> = Vec::with_capacity(net.num_nodes());
        for id in net.node_ids() {
            let flip = id.index() == target;
            let node = match net.kind(id) {
                NodeKind::Input(var) => out.input(var),
                NodeKind::Const(v) => out.constant(v),
                NodeKind::Not(a) if flip => map[a.index()],
                NodeKind::Not(a) => out.not(map[a.index()]),
                NodeKind::And(a, b) if !flip => out.and(map[a.index()], map[b.index()]),
                NodeKind::Xor(a, b) if !flip => out.xor(map[a.index()], map[b.index()]),
                NodeKind::And(a, b) | NodeKind::Xor(a, b) => out.or(map[a.index()], map[b.index()]),
                NodeKind::Or(a, b) if flip => out.and(map[a.index()], map[b.index()]),
                NodeKind::Or(a, b) => out.or(map[a.index()], map[b.index()]),
            };
            map.push(node);
        }
        out.add_output(map[net.outputs()[0].index()]);
        out
    }

    #[test]
    fn word_verify_network_matches_the_per_minterm_oracle() {
        let mut rng = DetRng::seed_from_u64(0x005E_ED0F_AB1E);
        let mut rejected = 0;
        for n in 1..=10usize {
            for case in 0..8 {
                let net = random_network(&mut rng, n, 4 + case * 3);
                let on = TruthTable::from_fn(n, |m| net.eval(m)[0]);
                let dc = if case % 2 == 0 {
                    TruthTable::zero(n)
                } else {
                    TruthTable::from_words(n, || rng.next_u64() & rng.next_u64())
                };
                let f = Isf::new(on.difference(&dc), dc).unwrap();
                assert!(verify_network(&f, &net, 0), "n={n} case={case}");
                assert!(verify_network_per_minterm(&f, &net, 0), "n={n} case={case}");

                // An unrelated function and every single-gate tampering must
                // get the oracle's verdict, whichever it is.
                let other = Isf::completely_specified(TruthTable::from_words(n, || rng.next_u64()));
                assert_eq!(
                    verify_network(&other, &net, 0),
                    verify_network_per_minterm(&other, &net, 0),
                    "n={n} case={case}: unrelated function"
                );
                for target in net.node_ids().map(NodeId::index) {
                    let tampered = flip_gate(&net, target);
                    let verdict = verify_network(&f, &tampered, 0);
                    assert_eq!(
                        verdict,
                        verify_network_per_minterm(&f, &tampered, 0),
                        "n={n} case={case}: gate {target} flipped"
                    );
                    rejected += usize::from(!verdict);
                }
            }
        }
        assert!(rejected > 100, "only {rejected} tampered networks were rejected");
    }

    #[test]
    fn tree_display_is_indented_and_named() {
        let result = RecursiveSynthesizer::default().synthesize(&fig2()).unwrap();
        let text = result.tree.to_string();
        assert!(text.contains("flat") || text.contains("cube") || text.contains("literal"));
        if result.tree.depth() > 0 {
            assert!(text.lines().count() >= 3, "a branch prints both children");
        }
    }
}
