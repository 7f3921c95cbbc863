use std::collections::BTreeMap;
use std::fmt;

use crate::gate::{Gate, GateKind};
use crate::library::GateLibrary;
use crate::network::{Network, NodeId, NodeKind};

/// Result of mapping a [`Network`] onto a [`GateLibrary`]: total area plus a
/// per-gate instance count (the "mapped netlist" summary SIS prints).
#[derive(Debug, Clone, PartialEq)]
pub struct MappingResult {
    /// Total mapped area in library units.
    pub area: f64,
    /// Number of instances of each library gate, keyed by gate name.
    pub gate_counts: BTreeMap<String, usize>,
}

impl MappingResult {
    /// Total number of gate instances.
    pub fn num_gates(&self) -> usize {
        self.gate_counts.values().sum()
    }
}

impl fmt::Display for MappingResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "area {:.1} ({} gates)", self.area, self.num_gates())?;
        for (name, count) in &self.gate_counts {
            write!(f, ", {name}×{count}")?;
        }
        Ok(())
    }
}

/// A local-covering technology mapper.
///
/// Every logic node of the network is covered by one library gate; an
/// inverter whose (single-fanout) input is an AND, OR or XOR node is merged
/// with it into the corresponding NAND2/NOR2/XNOR2 gate, which is the match
/// that matters for area on the SOP/2-SPP netlists produced in this
/// workspace. The mapper is deterministic, so relative areas between two
/// forms of the same function are meaningful — which is all the gain columns
/// of Tables III and IV require.
///
/// ```rust
/// use boolfunc::Cover;
/// use techmap::{GateLibrary, Mapper, Network};
///
/// # fn main() -> Result<(), boolfunc::BoolFuncError> {
/// let mut net = Network::new(2);
/// net.add_cover(&Cover::from_strs(2, &["11"])?);
/// let result = Mapper::new(GateLibrary::mcnc()).map(&net);
/// assert_eq!(result.num_gates(), 1); // a single AND2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Mapper {
    library: GateLibrary,
    /// The cheapest library gate of each [`MAPPED_KINDS`] entry, if the
    /// library has one.
    best: [Option<Gate>; MAPPED_KINDS.len()],
}

/// The gate kinds the local covering instantiates, in the order of
/// [`Mapper`]'s per-kind tables.
const MAPPED_KINDS: [GateKind; 7] = [
    GateKind::Inv,
    GateKind::Nand2,
    GateKind::Nor2,
    GateKind::And2,
    GateKind::Or2,
    GateKind::Xor2,
    GateKind::Xnor2,
];

/// What one covering walk adds up: the instances of each
/// [`MAPPED_KINDS`] entry, and the area summed gate by gate in walk order.
struct Tally {
    counts: [usize; MAPPED_KINDS.len()],
    area: f64,
}

impl Mapper {
    /// Creates a mapper over the given library.
    pub fn new(library: GateLibrary) -> Self {
        let best = MAPPED_KINDS.map(|kind| library.best(kind).cloned());
        Mapper { library, best }
    }

    /// The library used by this mapper.
    pub fn library(&self) -> &GateLibrary {
        &self.library
    }

    /// Maps a network, returning the total area and the gate census.
    ///
    /// # Panics
    ///
    /// Panics if the library is missing one of the required gate kinds
    /// (`inv`, `nand2`, `nor2`, `and2`, `or2`, `xor2`, `xnor2`).
    pub fn map(&self, network: &Network) -> MappingResult {
        let tally = self.cover(network);
        let mut gate_counts: BTreeMap<String, usize> = BTreeMap::new();
        for (slot, &count) in tally.counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
            let name = self.gate(slot).name().to_string();
            *gate_counts.entry(name).or_insert(0) += count;
        }
        MappingResult { area: tally.area, gate_counts }
    }

    /// The total area [`Mapper::map`] reports, bit for bit, without
    /// building the per-gate census: what area scoring needs.
    ///
    /// # Panics
    ///
    /// Panics like [`Mapper::map`].
    pub fn area(&self, network: &Network) -> f64 {
        self.cover(network).area
    }

    /// The cheapest library gate of `MAPPED_KINDS[slot]`.
    fn gate(&self, slot: usize) -> &Gate {
        self.best[slot]
            .as_ref()
            .unwrap_or_else(|| panic!("library has no gate of kind {:?}", MAPPED_KINDS[slot]))
    }

    /// The covering walk behind [`Mapper::map`] and [`Mapper::area`].
    fn cover(&self, network: &Network) -> Tally {
        let fanouts = network.fanouts();
        let mut tally = Tally { counts: [0; MAPPED_KINDS.len()], area: 0.0 };
        // Nodes absorbed into a NAND/NOR/XNOR peephole match.
        let mut absorbed = vec![false; network.num_nodes()];

        let mut add_gate = |kind: GateKind| {
            let slot = MAPPED_KINDS.iter().position(|&k| k == kind).expect("a mapped kind");
            tally.counts[slot] += 1;
            tally.area += self.gate(slot).area();
        };

        // Walk nodes in reverse creation order so that inverters are seen
        // before the node they might absorb.
        for index in (0..network.num_nodes()).rev() {
            let id = NodeId::from_raw(index as u32);
            if absorbed[index] {
                continue;
            }
            match network.kind(id) {
                NodeKind::Input(_) | NodeKind::Const(_) => {}
                NodeKind::Not(inner) => {
                    let inner_kind = network.kind(inner);
                    let can_absorb = fanouts[inner.index()] == 1;
                    match (inner_kind, can_absorb) {
                        (NodeKind::And(_, _), true) => {
                            absorbed[inner.index()] = true;
                            add_gate(GateKind::Nand2);
                        }
                        (NodeKind::Or(_, _), true) => {
                            absorbed[inner.index()] = true;
                            add_gate(GateKind::Nor2);
                        }
                        (NodeKind::Xor(_, _), true) => {
                            absorbed[inner.index()] = true;
                            add_gate(GateKind::Xnor2);
                        }
                        _ => add_gate(GateKind::Inv),
                    }
                }
                NodeKind::And(_, _) => add_gate(GateKind::And2),
                NodeKind::Or(_, _) => add_gate(GateKind::Or2),
                NodeKind::Xor(_, _) => add_gate(GateKind::Xor2),
            }
        }
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolfunc::Cover;

    fn map_cover(cubes: &[&str], n: usize) -> MappingResult {
        let cover = Cover::from_strs(n, cubes).unwrap();
        let mut net = Network::new(n);
        net.add_cover(&cover);
        Mapper::new(GateLibrary::mcnc()).map(&net)
    }

    #[test]
    fn single_cube_maps_to_and_gates() {
        let r = map_cover(&["11"], 2);
        assert_eq!(r.num_gates(), 1);
        assert_eq!(r.gate_counts.get("and2"), Some(&1));
    }

    #[test]
    fn negative_literals_need_inverters() {
        let r = map_cover(&["10"], 2);
        assert_eq!(r.gate_counts.get("and2"), Some(&1));
        assert_eq!(r.gate_counts.get("inv"), Some(&1));
    }

    #[test]
    fn nand_peephole_is_used() {
        // not(and(x0, x1)) with the inverter as the only fanout.
        let mut net = Network::new(2);
        let x0 = net.input(0);
        let x1 = net.input(1);
        let a = net.and(x0, x1);
        let na = net.not(a);
        net.add_output(na);
        let r = Mapper::new(GateLibrary::mcnc()).map(&net);
        assert_eq!(r.num_gates(), 1);
        assert_eq!(r.gate_counts.get("nand2"), Some(&1));
    }

    #[test]
    fn shared_node_is_not_absorbed() {
        // The AND feeds both an inverter and an output, so it cannot be merged
        // into a NAND: we need an AND2 plus an INV.
        let mut net = Network::new(2);
        let x0 = net.input(0);
        let x1 = net.input(1);
        let a = net.and(x0, x1);
        let na = net.not(a);
        net.add_output(a);
        net.add_output(na);
        let r = Mapper::new(GateLibrary::mcnc()).map(&net);
        assert_eq!(r.gate_counts.get("and2"), Some(&1));
        assert_eq!(r.gate_counts.get("inv"), Some(&1));
        assert_eq!(r.gate_counts.get("nand2"), None);
    }

    #[test]
    fn xnor_peephole() {
        let mut net = Network::new(2);
        let x0 = net.input(0);
        let x1 = net.input(1);
        let x = net.xor(x0, x1);
        let nx = net.not(x);
        net.add_output(nx);
        let r = Mapper::new(GateLibrary::mcnc()).map(&net);
        assert_eq!(r.num_gates(), 1);
        assert_eq!(r.gate_counts.get("xnor2"), Some(&1));
    }

    #[test]
    fn area_is_monotone_in_cover_size() {
        let small = map_cover(&["11--"], 4);
        let large = map_cover(&["11--", "--11", "1--1", "0110"], 4);
        assert!(small.area < large.area);
    }

    #[test]
    fn mapped_area_matches_gate_census() {
        let r = map_cover(&["110", "011", "101"], 3);
        let lib = GateLibrary::mcnc();
        let recomputed: f64 = r
            .gate_counts
            .iter()
            .map(|(name, count)| {
                let gate = lib.gates().iter().find(|g| g.name() == name.as_str()).unwrap();
                gate.area() * *count as f64
            })
            .sum();
        assert!((recomputed - r.area).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "library has no gate of kind Xor2")]
    fn area_panics_on_a_missing_gate_kind_like_map() {
        let mut lib = GateLibrary::new("no-xor");
        lib.add(crate::Gate::new("and2", GateKind::And2, 2.0));
        let mut net = Network::new(2);
        let x0 = net.input(0);
        let x1 = net.input(1);
        let x = net.xor(x0, x1);
        net.add_output(x);
        let _ = Mapper::new(lib).area(&net);
    }
}
