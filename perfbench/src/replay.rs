//! The traced replay: the recursive synthesizer, espresso and the service's
//! NPN cache re-driven through each layer's public functions, in the order
//! the program calls them, with a span around every call.
//!
//! The replay is only trusted while it reproduces the program bit for bit.
//! Every job's result is compared with the program's own answer, and the
//! comparison becomes `trace.replay_match`. A later change to the call
//! sequence shows up there, and as the jobs that diverged, rather than as
//! time attributed to calls that were never measured.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use benchmarks::DetRng;
use bidecomp::decompose::combine_op;
use bidecomp::{
    derive_strategy_divisor, full_quotient, verify_network, ApproxStrategy, BidecompError,
    BinaryOp, RecursiveConfig,
};
use boolfunc::{Cover, Isf, TruthTable};
use service::npn::{canonicalize, Canonical};
use service::{CacheKey, CacheValue, CachedSynthesis, ShardedCache};
use sop::complement::off_set;
use sop::{expand, irredundant, reduce, Cost, EspressoOptions};
use spp::{SppForm, SppSynthesizer};
use techmap::{AreaModel, Network, NodeId};

use crate::trace::Tracer;

/// What the replay of one recursive synthesis produced: the fields
/// `RecursiveSynthesizer::synthesize` reports.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The synthesized network.
    pub network: Network,
    /// Bi-decomposition depth of the tree.
    pub depth: usize,
    /// Number of bi-decomposition branches.
    pub branches: usize,
    /// Mapped area of the flat 2-SPP realization.
    pub flat_area: f64,
    /// Mapped area of the network.
    pub mapped_area: f64,
    /// Exhaustive verification verdict.
    pub verified: bool,
}

impl Synthesis {
    /// The fields compared bit for bit with the program's result.
    pub fn fingerprint(&self) -> (usize, usize, usize, u64, u64, bool) {
        (
            self.network.gate_count(),
            self.depth,
            self.branches,
            self.mapped_area.to_bits(),
            self.flat_area.to_bits(),
            self.verified,
        )
    }
}

/// The service's `NpnCache`, rebuilt from its public parts (canonicalize,
/// the cache key types and the sharded store) so that canonicalization,
/// lookups and inserts are separate spans. It keeps the same single-entry
/// canonicalization memo, so it canonicalizes exactly as often.
#[derive(Debug)]
pub struct ReplicaCache {
    store: ShardedCache<CacheKey, CacheValue>,
    memo: RefCell<Option<(Isf, Canonical)>>,
}

impl ReplicaCache {
    /// A replica with the given capacity and stripe count.
    pub fn new(capacity: usize, shards: usize) -> ReplicaCache {
        ReplicaCache { store: ShardedCache::new(capacity, shards), memo: RefCell::new(None) }
    }

    /// Counter snapshot of the store.
    pub fn stats(&self) -> service::CacheStats {
        self.store.stats()
    }

    fn canonical(&self, t: &mut Tracer, f: &Isf) -> Canonical {
        if let Some((last, canon)) = self.memo.borrow().as_ref() {
            if last == f {
                return canon.clone();
            }
        }
        t.count("npn.calls", 1);
        let canon = t.span("npn.canonicalize", |_| canonicalize(f));
        *self.memo.borrow_mut() = Some((f.clone(), canon.clone()));
        canon
    }

    fn get(&self, t: &mut Tracer, key: &CacheKey) -> Option<CacheValue> {
        let value = t.span("cache.lookup", |_| self.store.get(key));
        t.count("cache.lookups", 1);
        value
    }

    fn insert(&self, t: &mut Tracer, key: CacheKey, value: CacheValue) {
        t.span("cache.insert", |_| self.store.insert(key, value));
        t.count("cache.inserts", 1);
    }

    fn quotient_key(t: &mut Tracer, canon: &Canonical, g: &TruthTable, op: BinaryOp) -> CacheKey {
        let g_image = t.span("npn.permute", |_| canon.transform.permute_table(g));
        CacheKey::Quotient {
            f: canon.key.clone(),
            g: g_image.as_words().to_vec().into_boxed_slice(),
            op: canon.transform.map_op(op),
        }
    }

    /// `QuotientCache::lookup` of the service cache.
    pub fn lookup_quotient(
        &self,
        t: &mut Tracer,
        f: &Isf,
        g: &TruthTable,
        op: BinaryOp,
    ) -> Option<Isf> {
        let canon = self.canonical(t, f);
        let key = Self::quotient_key(t, &canon, g, op);
        match self.get(t, &key)? {
            CacheValue::Quotient(h) => {
                Some(t.span("npn.permute", |_| canon.transform.inverse().permute_isf(&h)))
            }
            CacheValue::Synthesis(_) => unreachable!("quotient keys only store quotients"),
        }
    }

    /// `QuotientCache::store` of the service cache.
    pub fn store_quotient(&self, t: &mut Tracer, f: &Isf, g: &TruthTable, op: BinaryOp, h: &Isf) {
        let canon = self.canonical(t, f);
        let key = Self::quotient_key(t, &canon, g, op);
        let image = t.span("npn.permute", |_| canon.transform.permute_isf(h));
        self.insert(t, key, CacheValue::Quotient(image));
    }

    /// `NpnCache::lookup_synthesis`, up to the rewiring of a hit.
    pub fn lookup_synthesis(
        &self,
        t: &mut Tracer,
        f: &Isf,
        config: u64,
    ) -> Option<(CachedSynthesis, Canonical)> {
        let canon = self.canonical(t, f);
        let key = CacheKey::Synthesis { f: canon.key.clone(), config };
        match self.get(t, &key)? {
            CacheValue::Synthesis(cached) => Some((cached, canon)),
            CacheValue::Quotient(_) => unreachable!("synthesis keys only store syntheses"),
        }
    }

    /// `NpnCache::store_synthesis`.
    pub fn store_synthesis(&self, t: &mut Tracer, f: &Isf, config: u64, result: &Synthesis) {
        let canon = self.canonical(t, f);
        let key = CacheKey::Synthesis { f: canon.key.clone(), config };
        let network = t.span("npn.rewire", |_| canon.transform.rewire_network(&result.network));
        let value = CachedSynthesis {
            network,
            flat_area: result.flat_area,
            depth: result.depth,
            branches: result.branches,
        };
        self.insert(t, key, CacheValue::Synthesis(value));
    }
}

/// `RecursiveSynthesizer` under a given configuration, replayed.
#[derive(Debug)]
pub struct Replay<'a> {
    config: RecursiveConfig,
    synthesizer: SppSynthesizer,
    area: AreaModel,
    cache: Option<&'a ReplicaCache>,
}

/// Depth and branch count of a replayed subtree.
type Shape = (usize, usize);

/// One scored portfolio candidate.
struct Candidate {
    op: BinaryOp,
    area: f64,
    g_isf: Isf,
    h: Isf,
    g_form: SppForm,
    h_form: SppForm,
}

impl<'a> Replay<'a> {
    /// A replay of `RecursiveSynthesizer::new(config)`, optionally with the
    /// service cache plugged into its quotient path.
    ///
    /// # Panics
    ///
    /// On a configuration the replay does not mirror: the oracle audit, or
    /// an external divisor strategy.
    pub fn new(config: RecursiveConfig, cache: Option<&'a ReplicaCache>) -> Replay<'a> {
        assert!(!config.oracle_audit, "the replay does not mirror the oracle audit");
        assert!(
            config.portfolio.iter().all(|(_, s)| *s != ApproxStrategy::External),
            "the recursion has no external divisor"
        );
        Replay { config, synthesizer: SppSynthesizer::new(), area: AreaModel::mcnc(), cache }
    }

    /// `RecursiveSynthesizer::synthesize_seeded(f, seed)`.
    pub fn synthesize(&self, t: &mut Tracer, f: &Isf, seed: u64) -> Synthesis {
        t.span("recursive.synthesize", |t| {
            let mut network = Network::new(f.num_vars());
            let flat_form = self.spp(t, f);
            let flat_area = t.span("techmap.area", |_| self.area.spp_area(&flat_form));
            let ((depth, branches), root) =
                self.node(t, f, &flat_form, flat_area, 0, seed, &mut network);
            network.add_output(root);
            let mapped_area = t.span("techmap.map", |_| self.area.mapper().map(&network).area);
            let verified = t.span("verify.network", |_| verify_network(f, &network, 0));
            Synthesis { network, depth, branches, flat_area, mapped_area, verified }
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn node(
        &self,
        t: &mut Tracer,
        f: &Isf,
        f_form: &SppForm,
        flat_area: f64,
        depth: usize,
        seed: u64,
        net: &mut Network,
    ) -> (Shape, NodeId) {
        t.span("recursive.node", |t| {
            let leaf = (0, 0);
            if f.on().is_zero() {
                return (leaf, net.constant(false));
            }
            if f.off().is_zero() {
                return (leaf, net.constant(true));
            }
            for var in 0..f.num_vars() {
                let x = TruthTable::variable(f.num_vars(), var);
                if f.is_completion(&x) {
                    return (leaf, net.input(var));
                }
                if f.is_completion(&!&x) {
                    let node = net.input(var);
                    return (leaf, net.not(node));
                }
            }
            if f_form.num_pseudoproducts() <= 1 || depth >= self.config.max_depth {
                return (leaf, t.span("techmap.build", |_| net.build_spp(f_form)));
            }

            let mut best: Option<Candidate> = None;
            let mut divisors: Vec<TruthTable> = Vec::new();
            for &(op, strategy) in &self.config.portfolio {
                let strategy = mix_strategy(strategy, seed);
                let Ok(g) = self.divisor(t, f, f_form, op, strategy) else {
                    continue;
                };
                let Ok(h) = self.quotient(t, f, &g, op) else {
                    continue;
                };
                t.count("recursive.candidates", 1);
                if t.enabled() {
                    if divisors.contains(&g) {
                        t.count("recursive.duplicate_divisors", 1);
                    }
                    divisors.push(g.clone());
                }
                let g_isf = Isf::completely_specified(g);
                let g_form = self.spp(t, &g_isf);
                let h_form = self.spp(t, &h);
                let area = t.span("techmap.area", |_| {
                    self.area.bidecomposition_area(&g_form, &h_form, combine_op(op))
                });
                if area + self.config.min_gain > flat_area {
                    continue;
                }
                if best.as_ref().is_none_or(|b| area < b.area) {
                    best = Some(Candidate { op, area, g_isf, h, g_form, h_form });
                }
            }
            let Some(c) = best else {
                return (leaf, t.span("techmap.build", |_| net.build_spp(f_form)));
            };
            t.count("recursive.wins", 1);

            let g_area = t.span("techmap.area", |_| self.area.spp_area(&c.g_form));
            let h_area = t.span("techmap.area", |_| self.area.spp_area(&c.h_form));
            let (div_shape, div_node) =
                self.node(t, &c.g_isf, &c.g_form, g_area, depth + 1, child_seed(seed, 0), net);
            let (quo_shape, quo_node) =
                self.node(t, &c.h, &c.h_form, h_area, depth + 1, child_seed(seed, 1), net);
            let root =
                t.span("techmap.build", |_| net.combine(div_node, quo_node, combine_op(c.op)));
            let shape = (1 + div_shape.0.max(quo_shape.0), 1 + div_shape.1 + quo_shape.1);
            (shape, root)
        })
    }

    /// `derive_strategy_divisor`, with the full-expansion strategy replayed
    /// step by step (its re-synthesis is an espresso run like any other).
    fn divisor(
        &self,
        t: &mut Tracer,
        f: &Isf,
        f_form: &SppForm,
        op: BinaryOp,
        strategy: ApproxStrategy,
    ) -> Result<TruthTable, BidecompError> {
        t.span("approx.divisor", |t| {
            if strategy != ApproxStrategy::FullExpansion {
                return derive_strategy_divisor(f, f_form, op, strategy, &self.synthesizer);
            }
            let complement_base = matches!(
                op,
                BinaryOp::Or
                    | BinaryOp::ConverseImplication
                    | BinaryOp::Implication
                    | BinaryOp::Nand
            );
            let base = if complement_base {
                Isf::new(f.off(), f.dc().clone()).expect("off and dc are disjoint")
            } else {
                f.clone()
            };
            let base_form = if complement_base { self.spp(t, &base) } else { f_form.clone() };
            // `FullExpansion::approximate`: every single-factor expansion of
            // every pseudoproduct widens the dc-set, then re-synthesize.
            let widened = t.span("approx.expand", |_| {
                let mut extra_dc = TruthTable::zero(base_form.num_vars());
                for pp in base_form.pseudoproducts() {
                    for fi in 0..pp.num_factors() {
                        extra_dc = &extra_dc | &pp.expand(fi).to_truth_table();
                    }
                }
                base.widen_dc(&(&extra_dc & &base.off()))
            });
            let over = self.spp(t, &widened).to_truth_table();
            Ok(match op {
                BinaryOp::Or | BinaryOp::ConverseImplication => &(!&over) & f.on(),
                BinaryOp::ConverseNonImplication | BinaryOp::Nor => &(!&over) & &f.off(),
                _ => over,
            })
        })
    }

    /// `cached_full_quotient` with the replica in place of the service
    /// cache.
    fn quotient(
        &self,
        t: &mut Tracer,
        f: &Isf,
        g: &TruthTable,
        op: BinaryOp,
    ) -> Result<Isf, BidecompError> {
        let Some(cache) = self.cache else {
            return t.span("quotient.full", |_| full_quotient(f, g, op));
        };
        if let Some(h) = cache.lookup_quotient(t, f, g, op) {
            return Ok(h);
        }
        let h = t.span("quotient.full", |_| full_quotient(f, g, op))?;
        cache.store_quotient(t, f, g, op, &h);
        Ok(h)
    }

    /// `SppSynthesizer::synthesize`: minterm covers, espresso, then the
    /// pseudoproduct merging.
    fn spp(&self, t: &mut Tracer, f: &Isf) -> SppForm {
        if t.enabled() {
            let mut hasher = DefaultHasher::new();
            (f.on().as_words(), f.dc().as_words()).hash(&mut hasher);
            if !t.first_sight(hasher.finish()) {
                t.count("sop.repeats", 1);
            }
        }
        t.span("spp.synthesize", |t| {
            let on = f.on().to_minterm_cover();
            let dc = f.dc().to_minterm_cover();
            let cover = espresso(t, &on, &dc, self.synthesizer.options().espresso);
            t.count("sop.cubes_out", cover.num_cubes() as u64);
            let form = t.span("spp.merge", |_| self.synthesizer.improve_cover(&cover));
            t.count(
                "spp.merged_terms",
                cover.num_cubes().saturating_sub(form.num_pseudoproducts()) as u64,
            );
            form
        })
    }
}

/// `sop::espresso_cover`, one span per phase.
pub fn espresso(t: &mut Tracer, on: &Cover, dc: &Cover, options: EspressoOptions) -> Cover {
    t.span("sop.espresso", |t| {
        let n = on.num_vars();
        if on.is_empty() {
            return Cover::empty(n);
        }
        let off = t.span("sop.off_set", |_| off_set(on, dc));
        if off.is_empty() {
            return Cover::tautology(n);
        }
        let mut current = on.clone();
        current.remove_contained_cubes();
        current = t.span("sop.expand", |_| expand(&current, &off));
        current = t.span("sop.irredundant", |_| irredundant(&current, dc));
        let mut best = current.clone();
        let mut best_cost = Cost::of(&best);
        if !options.use_reduce {
            return best;
        }
        for _ in 0..options.max_iterations {
            t.count("sop.rounds", 1);
            current = t.span("sop.reduce", |_| reduce(&current, dc));
            current = t.span("sop.expand", |_| expand(&current, &off));
            current = t.span("sop.irredundant", |_| irredundant(&current, dc));
            let cost = Cost::of(&current);
            if cost < best_cost {
                best_cost = cost;
                best = current.clone();
            } else {
                break;
            }
        }
        best
    })
}

/// The recursion's per-node seed mixing for seeded portfolio entries.
fn mix_strategy(strategy: ApproxStrategy, seed: u64) -> ApproxStrategy {
    match strategy {
        ApproxStrategy::Seeded { seed: base } => {
            ApproxStrategy::Seeded { seed: DetRng::seed_from_u64(base ^ seed).next_u64() }
        }
        other => other,
    }
}

/// The recursion's deterministic sub-seed of child `index`.
fn child_seed(seed: u64, index: u64) -> u64 {
    DetRng::seed_from_u64(seed.wrapping_mul(2).wrapping_add(index + 1)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchmarks::Suite;
    use bidecomp::engine::SynthesisConfig;
    use bidecomp::{QuotientCache, RecursiveSynthesizer};
    use std::sync::Arc;
    use std::time::Instant;

    fn smoke_jobs() -> Vec<(Isf, u64)> {
        let config = SynthesisConfig::default();
        let suite = Suite::smoke();
        let mut jobs = Vec::new();
        for (i, inst) in suite.instances().iter().enumerate() {
            if inst.num_inputs() > config.max_inputs {
                continue;
            }
            for o in 0..inst.num_outputs().min(config.max_outputs) {
                jobs.push((inst.outputs()[o].clone(), config.job_seed(i, o)));
            }
        }
        jobs
    }

    fn program_fingerprint(
        r: &bidecomp::RecursiveSynthesis,
    ) -> (usize, usize, usize, u64, u64, bool) {
        (
            r.gate_count(),
            r.tree.depth(),
            r.tree.num_branches(),
            r.mapped_area.to_bits(),
            r.flat_area.to_bits(),
            r.verified,
        )
    }

    #[test]
    fn replay_reproduces_the_synthesizer_on_the_smoke_suite() {
        let synthesizer = RecursiveSynthesizer::default();
        let replay = Replay::new(RecursiveConfig::default(), None);
        let mut t = Tracer::new(Instant::now(), true);
        let jobs = smoke_jobs();
        assert!(!jobs.is_empty());
        for (job, (f, seed)) in jobs.iter().enumerate() {
            t.set_job(job as u32);
            let program = synthesizer.synthesize_seeded(f, *seed).unwrap();
            let replayed = replay.synthesize(&mut t, f, *seed);
            assert_eq!(replayed.fingerprint(), program_fingerprint(&program), "job {job}");
        }
        // Tracing off takes the same path.
        let mut off = Tracer::new(Instant::now(), false);
        let (f, seed) = &jobs[0];
        assert_eq!(
            replay.synthesize(&mut off, f, *seed).fingerprint(),
            replay.synthesize(&mut t, f, *seed).fingerprint()
        );
        assert!(t.get("recursive.candidates") > 0);
    }

    #[test]
    fn replica_cache_matches_the_service_cache() {
        let npn = Arc::new(service::NpnCache::new(4096, 4));
        let synthesizer = RecursiveSynthesizer::default()
            .with_quotient_cache(Arc::clone(&npn) as Arc<dyn QuotientCache>);
        let replica = ReplicaCache::new(4096, 4);
        let replay = Replay::new(RecursiveConfig::default(), Some(&replica));
        let mut t = Tracer::new(Instant::now(), true);
        for (f, _) in smoke_jobs() {
            let program = synthesizer.synthesize(&f).unwrap();
            let replayed = replay.synthesize(&mut t, &f, 0);
            assert_eq!(replayed.fingerprint(), program_fingerprint(&program));
        }
        let (a, b) = (npn.stats(), replica.stats());
        assert_eq!((a.hits, a.misses, a.insertions), (b.hits, b.misses, b.insertions));
        assert_eq!(t.get("cache.lookups"), b.hits + b.misses);
    }
}
