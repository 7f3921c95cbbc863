use std::fmt;

use boolfunc::{Cover, CubeValue};
use spp::{SppForm, XorFactor};

use crate::area::CombineOp;
use crate::hash::MulHashMap;

/// Identifier of a node inside a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Raw index (useful for debugging).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a raw index (crate-internal: node ids are plain
    /// positions in creation order).
    pub(crate) fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }
}

/// Kind of a network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Primary input `x_i`.
    Input(usize),
    /// Constant 0 or 1.
    Const(bool),
    /// Inverter.
    Not(NodeId),
    /// 2-input AND.
    And(NodeId, NodeId),
    /// 2-input OR.
    Or(NodeId, NodeId),
    /// 2-input XOR.
    Xor(NodeId, NodeId),
}

/// A multi-level combinational logic network over AND/OR/XOR/NOT nodes with
/// structural hashing (identical sub-expressions are shared).
///
/// This is the technology-independent netlist handed to the mapper; it is
/// built from SOP covers, 2-SPP forms, or a bi-decomposition `g op h`.
///
/// ```rust
/// use techmap::Network;
///
/// let mut net = Network::new(3);
/// let x0 = net.input(0);
/// let x1 = net.input(1);
/// let x2 = net.input(2);
/// let a = net.and(x0, x1);
/// let f = net.or(a, x2);
/// net.add_output(f);
/// assert_eq!(net.eval(0b100), vec![true]);
/// assert_eq!(net.gate_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    num_inputs: usize,
    nodes: Vec<NodeKind>,
    hash: MulHashMap<NodeKind, NodeId>,
    outputs: Vec<NodeId>,
}

impl Network {
    /// Creates an empty network with `num_inputs` primary inputs.
    pub fn new(num_inputs: usize) -> Self {
        Network { num_inputs, nodes: Vec::new(), hash: MulHashMap::default(), outputs: Vec::new() }
    }

    /// Empties the network, gives it `num_inputs` inputs and makes room for
    /// `nodes` nodes, keeping the node list's and structural-hash map's
    /// allocations. Sized from an upper bound on what will be built (see
    /// [`Network::spp_node_bound`]), interning never rehashes; the network
    /// is the one [`Network::new`] would build.
    pub(crate) fn reset(&mut self, num_inputs: usize, nodes: usize) {
        self.num_inputs = num_inputs;
        self.nodes.clear();
        self.nodes.reserve(nodes);
        self.hash.clear();
        self.hash.reserve(nodes);
        self.outputs.clear();
    }

    /// An upper bound on the nodes [`Network::build_spp`] adds for `form`:
    /// each literal brings at most its input and an inverter (an XOR factor
    /// one XOR2 and one inverter for two inputs), each factor past a
    /// product's first one AND2, each product past the first one OR2, and
    /// constant folding at most the two constants.
    pub(crate) fn spp_node_bound(form: &SppForm) -> usize {
        3 * form.literal_count() + form.num_pseudoproducts() + 2
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// The declared outputs.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Registers `node` as a primary output.
    pub fn add_output(&mut self, node: NodeId) {
        self.outputs.push(node);
    }

    /// Kind of a node.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.index()]
    }

    /// Total number of nodes (including inputs and constants).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Identifiers of all nodes in creation order (inputs, constants and
    /// gates interleaved; operands always precede their users). This is the
    /// traversal order used by passes that rebuild or export a network node
    /// by node, like [`Network::to_dot`] and the service cache's NPN
    /// rewiring.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Number of logic nodes (everything except inputs and constants) — a
    /// technology-independent size measure.
    pub fn gate_count(&self) -> usize {
        self.nodes.iter().filter(|k| !matches!(k, NodeKind::Input(_) | NodeKind::Const(_))).count()
    }

    fn intern(&mut self, kind: NodeKind) -> NodeId {
        if let Some(&id) = self.hash.get(&kind) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(kind);
        self.hash.insert(kind, id);
        id
    }

    /// The node for primary input `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.num_inputs()`.
    pub fn input(&mut self, var: usize) -> NodeId {
        assert!(var < self.num_inputs, "input index {var} out of range");
        self.intern(NodeKind::Input(var))
    }

    /// The constant node.
    pub fn constant(&mut self, value: bool) -> NodeId {
        self.intern(NodeKind::Const(value))
    }

    /// An inverter (double negations are folded).
    pub fn not(&mut self, a: NodeId) -> NodeId {
        match self.kind(a) {
            NodeKind::Const(v) => self.constant(!v),
            NodeKind::Not(inner) => inner,
            _ => self.intern(NodeKind::Not(a)),
        }
    }

    /// A 2-input AND (with constant folding and operand normalization).
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        match (self.kind(a), self.kind(b)) {
            (NodeKind::Const(false), _) | (_, NodeKind::Const(false)) => self.constant(false),
            (NodeKind::Const(true), _) => b,
            (_, NodeKind::Const(true)) => a,
            _ if a == b => a,
            _ => {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                self.intern(NodeKind::And(lo, hi))
            }
        }
    }

    /// A 2-input OR.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        match (self.kind(a), self.kind(b)) {
            (NodeKind::Const(true), _) | (_, NodeKind::Const(true)) => self.constant(true),
            (NodeKind::Const(false), _) => b,
            (_, NodeKind::Const(false)) => a,
            _ if a == b => a,
            _ => {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                self.intern(NodeKind::Or(lo, hi))
            }
        }
    }

    /// A 2-input XOR.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        match (self.kind(a), self.kind(b)) {
            (NodeKind::Const(false), _) => b,
            (_, NodeKind::Const(false)) => a,
            (NodeKind::Const(true), _) => self.not(b),
            (_, NodeKind::Const(true)) => self.not(a),
            _ if a == b => self.constant(false),
            _ => {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                self.intern(NodeKind::Xor(lo, hi))
            }
        }
    }

    /// Balanced AND of a list of nodes (empty list = constant 1).
    pub fn and_many(&mut self, nodes: &[NodeId]) -> NodeId {
        self.reduce_balanced(nodes, true)
    }

    /// Balanced OR of a list of nodes (empty list = constant 0).
    pub fn or_many(&mut self, nodes: &[NodeId]) -> NodeId {
        self.reduce_balanced(nodes, false)
    }

    fn reduce_balanced(&mut self, nodes: &[NodeId], is_and: bool) -> NodeId {
        match nodes.len() {
            0 => self.constant(is_and),
            1 => nodes[0],
            _ => {
                let mid = nodes.len() / 2;
                let left = self.reduce_balanced(&nodes[..mid], is_and);
                let right = self.reduce_balanced(&nodes[mid..], is_and);
                if is_and {
                    self.and(left, right)
                } else {
                    self.or(left, right)
                }
            }
        }
    }

    /// Builds the network of an SOP cover and returns the root node without
    /// registering it as an output — the building block multi-level flows
    /// (like the recursive bi-decomposition synthesizer) compose internally.
    pub fn build_cover(&mut self, cover: &Cover) -> NodeId {
        assert_eq!(cover.num_vars(), self.num_inputs, "cover arity mismatch");
        let mut products = Vec::with_capacity(cover.num_cubes());
        for cube in cover.iter() {
            let mut lits = Vec::new();
            for var in 0..cover.num_vars() {
                match cube.value(var) {
                    CubeValue::DontCare => {}
                    CubeValue::One => lits.push(self.input(var)),
                    CubeValue::Zero => {
                        let x = self.input(var);
                        lits.push(self.not(x));
                    }
                }
            }
            products.push(self.and_many(&lits));
        }
        self.or_many(&products)
    }

    /// Builds (and registers as an output) the network of an SOP cover,
    /// returning the root node.
    pub fn add_cover(&mut self, cover: &Cover) -> NodeId {
        let root = self.build_cover(cover);
        self.add_output(root);
        root
    }

    /// Builds the network of a 2-SPP form and returns the root node without
    /// registering it as an output (see [`Network::build_cover`]).
    pub fn build_spp(&mut self, form: &SppForm) -> NodeId {
        assert_eq!(form.num_vars(), self.num_inputs, "form arity mismatch");
        let mut products = Vec::with_capacity(form.num_pseudoproducts());
        for pp in form.iter() {
            let mut factors = Vec::new();
            for factor in pp.factors() {
                let node = match *factor {
                    XorFactor::Literal { var, positive } => {
                        let x = self.input(var);
                        if positive {
                            x
                        } else {
                            self.not(x)
                        }
                    }
                    XorFactor::Xor { a, b, complemented } => {
                        let xa = self.input(a);
                        let xb = self.input(b);
                        let x = self.xor(xa, xb);
                        if complemented {
                            self.not(x)
                        } else {
                            x
                        }
                    }
                };
                factors.push(node);
            }
            products.push(self.and_many(&factors));
        }
        self.or_many(&products)
    }

    /// Builds (and registers as an output) the network of a 2-SPP form,
    /// returning the root node.
    pub fn add_spp(&mut self, form: &SppForm) -> NodeId {
        let root = self.build_spp(form);
        self.add_output(root);
        root
    }

    /// Combines two sub-networks with the structural top gate of a
    /// bi-decomposition `a op b` (constant folding and structural hashing
    /// apply as usual).
    pub fn combine(&mut self, a: NodeId, b: NodeId, op: CombineOp) -> NodeId {
        match op {
            CombineOp::And => self.and(a, b),
            CombineOp::AndNotRight => {
                let nb = self.not(b);
                self.and(a, nb)
            }
            CombineOp::AndNotLeft => {
                let na = self.not(a);
                self.and(na, b)
            }
            CombineOp::Nor => {
                let o = self.or(a, b);
                self.not(o)
            }
            CombineOp::Or => self.or(a, b),
            CombineOp::OrNotLeft => {
                let na = self.not(a);
                self.or(na, b)
            }
            CombineOp::OrNotRight => {
                let nb = self.not(b);
                self.or(a, nb)
            }
            CombineOp::Nand => {
                let x = self.and(a, b);
                self.not(x)
            }
            CombineOp::Xor => self.xor(a, b),
            CombineOp::Xnor => {
                let x = self.xor(a, b);
                self.not(x)
            }
        }
    }

    /// Evaluates every declared output on a minterm.
    pub fn eval(&self, minterm: u64) -> Vec<bool> {
        let mut values = vec![false; self.nodes.len()];
        for (i, kind) in self.nodes.iter().enumerate() {
            values[i] = match *kind {
                NodeKind::Input(var) => minterm >> var & 1 == 1,
                NodeKind::Const(v) => v,
                NodeKind::Not(a) => !values[a.index()],
                NodeKind::And(a, b) => values[a.index()] && values[b.index()],
                NodeKind::Or(a, b) => values[a.index()] || values[b.index()],
                NodeKind::Xor(a, b) => values[a.index()] ^ values[b.index()],
            };
        }
        self.outputs.iter().map(|o| values[o.index()]).collect()
    }

    /// Per-node flag: is the node reachable from a declared output? The
    /// shared traversal under [`Network::pruned`] and [`Network::to_dot`].
    fn reachable_from_outputs(&self) -> Vec<bool> {
        let mut reachable = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.outputs.clone();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut reachable[id.index()], true) {
                continue;
            }
            match self.kind(id) {
                NodeKind::Not(a) => stack.push(a),
                NodeKind::And(a, b) | NodeKind::Or(a, b) | NodeKind::Xor(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                NodeKind::Input(_) | NodeKind::Const(_) => {}
            }
        }
        reachable
    }

    /// A copy with every node unreachable from the declared outputs
    /// removed (creation order of the survivors is preserved, so operands
    /// still precede their users). Rewiring passes — like the service
    /// cache's NPN transform, whose double negations fold away — leave dead
    /// candidates behind; pruning keeps [`Network::gate_count`] an honest
    /// size measure afterwards.
    pub fn pruned(&self) -> Network {
        let reachable = self.reachable_from_outputs();
        let mut out = Network::new(self.num_inputs);
        let mut map: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        for id in self.node_ids().filter(|id| reachable[id.index()]) {
            let remap = |m: &[Option<NodeId>], a: NodeId| m[a.index()].expect("operand precedes");
            let new = match self.kind(id) {
                NodeKind::Input(var) => out.input(var),
                NodeKind::Const(v) => out.constant(v),
                NodeKind::Not(a) => out.not(remap(&map, a)),
                NodeKind::And(a, b) => out.and(remap(&map, a), remap(&map, b)),
                NodeKind::Or(a, b) => out.or(remap(&map, a), remap(&map, b)),
                NodeKind::Xor(a, b) => out.xor(remap(&map, a), remap(&map, b)),
            };
            map[id.index()] = Some(new);
        }
        for root in &self.outputs {
            out.add_output(map[root.index()].expect("outputs are reachable"));
        }
        out
    }

    /// Renders the sub-network reachable from the declared outputs as a
    /// Graphviz DOT digraph: inputs and constants are boxes, gates are circles labeled with their operator,
    /// and each output `k` gets a plaintext `y<k>` marker pointing at its
    /// root. Unreachable nodes (dead candidates left behind by structural
    /// hashing) are omitted.
    ///
    /// ```rust
    /// use techmap::Network;
    ///
    /// let mut net = Network::new(2);
    /// let x0 = net.input(0);
    /// let x1 = net.input(1);
    /// let f = net.and(x0, x1);
    /// net.add_output(f);
    /// let dot = net.to_dot("f");
    /// assert!(dot.starts_with("digraph"));
    /// assert!(dot.contains("AND"));
    /// ```
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write as _;

        let reachable = self.reachable_from_outputs();
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{name}\" {{");
        let _ = writeln!(out, "  rankdir=TB;");
        for id in self.node_ids().filter(|id| reachable[id.index()]) {
            let i = id.index();
            match self.kind(id) {
                NodeKind::Input(var) => {
                    let _ = writeln!(out, "  node{i} [label=\"x{var}\", shape=box];");
                }
                NodeKind::Const(v) => {
                    let _ = writeln!(out, "  node{i} [label=\"{}\", shape=box];", u8::from(v));
                }
                NodeKind::Not(a) => {
                    let _ = writeln!(out, "  node{i} [label=\"NOT\", shape=circle];");
                    let _ = writeln!(out, "  node{} -> node{i};", a.index());
                }
                NodeKind::And(a, b) | NodeKind::Or(a, b) | NodeKind::Xor(a, b) => {
                    let label = match self.kind(id) {
                        NodeKind::And(..) => "AND",
                        NodeKind::Or(..) => "OR",
                        _ => "XOR",
                    };
                    let _ = writeln!(out, "  node{i} [label=\"{label}\", shape=circle];");
                    let _ = writeln!(out, "  node{} -> node{i};", a.index());
                    let _ = writeln!(out, "  node{} -> node{i};", b.index());
                }
            }
        }
        for (k, root) in self.outputs.iter().enumerate() {
            let _ = writeln!(out, "  out{k} [shape=plaintext, label=\"y{k}\"];");
            let _ = writeln!(out, "  node{} -> out{k};", root.index());
        }
        out.push_str("}\n");
        out
    }

    /// Fanout count of every node (used by the mapper to find tree roots).
    pub fn fanouts(&self) -> Vec<usize> {
        let mut fanout = vec![0usize; self.nodes.len()];
        for kind in &self.nodes {
            match *kind {
                NodeKind::Not(a) => fanout[a.index()] += 1,
                NodeKind::And(a, b) | NodeKind::Or(a, b) | NodeKind::Xor(a, b) => {
                    fanout[a.index()] += 1;
                    fanout[b.index()] += 1;
                }
                NodeKind::Input(_) | NodeKind::Const(_) => {}
            }
        }
        for out in &self.outputs {
            fanout[out.index()] += 1;
        }
        fanout
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "network with {} inputs, {} gates, {} outputs",
            self.num_inputs,
            self.gate_count(),
            self.outputs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AreaModel;
    use boolfunc::Isf;
    use spp::SppSynthesizer;

    #[test]
    fn structural_hashing_shares_nodes() {
        let mut net = Network::new(2);
        let x0 = net.input(0);
        let x1 = net.input(1);
        let a = net.and(x0, x1);
        let b = net.and(x1, x0);
        assert_eq!(a, b, "commutative operands must hash to the same node");
        assert_eq!(net.gate_count(), 1);
    }

    #[test]
    fn constant_folding() {
        let mut net = Network::new(2);
        let x0 = net.input(0);
        let one = net.constant(true);
        let zero = net.constant(false);
        assert_eq!(net.and(x0, one), x0);
        assert_eq!(net.and(x0, zero), zero);
        assert_eq!(net.or(x0, zero), x0);
        let nx0 = net.not(x0);
        assert_eq!(net.not(nx0), x0);
        assert_eq!(net.xor(x0, x0), zero);
        assert_eq!(net.xor(x0, zero), x0);
    }

    #[test]
    fn cover_network_evaluates_like_the_cover() {
        let cover = Cover::from_strs(4, &["11-1", "-011"]).unwrap();
        let mut net = Network::new(4);
        net.add_cover(&cover);
        for m in 0..16u64 {
            assert_eq!(net.eval(m)[0], cover.eval(m));
        }
    }

    #[test]
    fn spp_network_evaluates_like_the_form() {
        let f = Isf::from_cover_str(4, &["1-10", "1-01", "-111", "-100"], &[]).unwrap();
        let form = SppSynthesizer::new().synthesize(&f);
        let mut net = Network::new(4);
        net.add_spp(&form);
        let tt = form.to_truth_table();
        for m in 0..16u64 {
            assert_eq!(net.eval(m)[0], tt.get(m));
        }
    }

    /// Forms of up to six products over 1–12 variables: literals of both
    /// polarities, XOR/XNOR factors, repeated variables, the constant-one
    /// product and the empty form.
    fn random_forms() -> Vec<SppForm> {
        let mut state = 0x5A5Au64;
        let mut next = move |bound: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let mut forms = Vec::new();
        for n in 1..=12 {
            forms.push(SppForm::zero(n));
            forms.push(SppForm::one(n));
            for _ in 0..20 {
                let products = (0..1 + next(6))
                    .map(|_| {
                        let factors = (0..next(6))
                            .map(|_| {
                                let a = next(n);
                                if n == 1 || next(2) == 0 {
                                    XorFactor::literal(a, next(2) == 0)
                                } else {
                                    XorFactor::xor(a, (a + 1 + next(n - 1)) % n, next(2) == 0)
                                }
                            })
                            .collect();
                        spp::Pseudoproduct::new(n, factors)
                    })
                    .collect();
                forms.push(SppForm::new(n, products));
            }
        }
        forms
    }

    const OPS: [CombineOp; 10] = [
        CombineOp::And,
        CombineOp::AndNotRight,
        CombineOp::AndNotLeft,
        CombineOp::Nor,
        CombineOp::Or,
        CombineOp::OrNotLeft,
        CombineOp::OrNotRight,
        CombineOp::Nand,
        CombineOp::Xor,
        CombineOp::Xnor,
    ];

    /// Areas mapped in one reused scratch network equal a fresh network's,
    /// bit for bit, and the scratch ends each call holding exactly the
    /// network a fresh build gives. The arity changes between calls
    /// (12 → 5 → 9) and the pairs include the constant-0 and constant-1
    /// forms, so a node, structural-hash entry, output or arity left over
    /// from the last call shows.
    #[test]
    fn scratch_areas_match_fresh_networks() {
        let model = AreaModel::mcnc();
        let forms = random_forms();
        let mut scratch = Network::new(1);
        for round in 0..22 {
            for n in [12, 5, 9] {
                // Each arity's forms start with its constant 0 and 1.
                let pool: Vec<&SppForm> = forms.iter().filter(|f| f.num_vars() == n).collect();
                let (g, h) = (pool[round % pool.len()], pool[(7 * round + 1) % pool.len()]);
                let op = OPS[round % OPS.len()];

                let area = model.spp_area_in(g, &mut scratch);
                assert_eq!(area.to_bits(), model.spp_area(g).to_bits(), "n={n} {g}");
                let mut fresh = Network::new(n);
                fresh.add_spp(g);
                assert_eq!((&scratch.nodes, &scratch.outputs), (&fresh.nodes, &fresh.outputs));

                let area = model.bidecomposition_area_in(g, h, op, &mut scratch);
                let expected = model.bidecomposition_area(g, h, op);
                assert_eq!(area.to_bits(), expected.to_bits(), "n={n} {g} {op:?} {h}");
                let mut fresh = Network::new(n);
                let (a, b) = (fresh.build_spp(g), fresh.build_spp(h));
                let root = fresh.combine(a, b, op);
                fresh.add_output(root);
                assert_eq!((&scratch.nodes, &scratch.outputs), (&fresh.nodes, &fresh.outputs));
                assert_eq!((scratch.num_inputs, scratch.hash.len()), (n, fresh.hash.len()));
            }
        }
    }

    /// A network sized by [`Network::spp_node_bound`] never grows while a
    /// form (or `g op h`) is built into it, and holds the nodes an unsized
    /// network gets.
    #[test]
    fn spp_node_bound_sizes_networks_that_never_grow() {
        let forms = random_forms();
        for (i, g) in forms.iter().enumerate() {
            let n = g.num_vars();
            let mut sized = Network::new(n);
            sized.reset(n, Network::spp_node_bound(g));
            let capacities = (sized.nodes.capacity(), sized.hash.capacity());
            sized.add_spp(g);
            assert!(sized.num_nodes() <= Network::spp_node_bound(g), "{g}");
            assert_eq!((sized.nodes.capacity(), sized.hash.capacity()), capacities, "{g}");
            let mut plain = Network::new(n);
            plain.add_spp(g);
            assert_eq!(sized.nodes, plain.nodes, "{g}");

            let h = forms.iter().skip(i + 1).find(|h| h.num_vars() == n).unwrap_or(g);
            let op = OPS[i % OPS.len()];
            let bound = Network::spp_node_bound(g) + Network::spp_node_bound(h) + 2;
            let mut sized = Network::new(n);
            sized.reset(n, bound);
            let capacities = (sized.nodes.capacity(), sized.hash.capacity());
            let (a, b) = (sized.build_spp(g), sized.build_spp(h));
            let root = sized.combine(a, b, op);
            sized.add_output(root);
            assert!(sized.num_nodes() <= bound, "{g} {op:?} {h}");
            assert_eq!(
                (sized.nodes.capacity(), sized.hash.capacity()),
                capacities,
                "{g} {op:?} {h}"
            );
        }
    }

    #[test]
    fn multi_output_network() {
        let mut net = Network::new(2);
        let a = net.add_cover(&Cover::from_strs(2, &["11"]).unwrap());
        let b = net.add_cover(&Cover::from_strs(2, &["1-", "-1"]).unwrap());
        assert_ne!(a, b);
        assert_eq!(net.outputs().len(), 2);
        assert_eq!(net.eval(0b01), vec![false, true]);
    }

    #[test]
    fn fanout_counts() {
        let mut net = Network::new(2);
        let x0 = net.input(0);
        let x1 = net.input(1);
        let a = net.and(x0, x1);
        let o = net.or(a, x0);
        net.add_output(o);
        let fanouts = net.fanouts();
        assert_eq!(fanouts[x0.index()], 2);
        assert_eq!(fanouts[a.index()], 1);
        assert_eq!(fanouts[o.index()], 1);
    }

    #[test]
    fn dot_export_mentions_reachable_nodes_and_outputs_only() {
        let mut net = Network::new(3);
        let x0 = net.input(0);
        let x1 = net.input(1);
        let a = net.and(x0, x1);
        let na = net.not(a);
        let x2 = net.input(2); // dead: never reaches an output
        let o = net.or(na, x0);
        net.add_output(o);
        let dot = net.to_dot("g");
        assert!(dot.starts_with("digraph \"g\""));
        assert!(dot.contains("x0") && dot.contains("x1"));
        assert!(dot.contains("AND") && dot.contains("NOT") && dot.contains("OR"));
        assert!(dot.contains("out0") && dot.contains("y0"));
        assert!(!dot.contains(&format!("node{} ", x2.index())), "dead input must be omitted");
        assert!(dot.trim_end().ends_with('}'));
        // Every node referenced by an edge is also declared.
        for line in dot.lines().filter(|l| l.contains("->")) {
            let src = line.split_whitespace().next().unwrap();
            assert!(dot.contains(&format!("{src} [")), "undeclared edge source {src}");
        }
    }

    #[test]
    fn pruning_drops_dead_nodes_and_preserves_semantics() {
        let mut net = Network::new(3);
        let x0 = net.input(0);
        let x1 = net.input(1);
        let x2 = net.input(2);
        let a = net.and(x0, x1);
        let _dead = net.xor(a, x2); // never reaches an output
        let _dead2 = net.not(x2);
        let o = net.or(a, x0);
        net.add_output(o);
        assert_eq!(net.gate_count(), 4);
        let pruned = net.pruned();
        assert_eq!(pruned.gate_count(), 2);
        assert_eq!(pruned.outputs().len(), 1);
        for m in 0..8u64 {
            assert_eq!(pruned.eval(m), net.eval(m), "minterm {m}");
        }
    }

    #[test]
    fn node_ids_enumerate_in_creation_order() {
        let mut net = Network::new(2);
        let x0 = net.input(0);
        let x1 = net.input(1);
        let a = net.and(x0, x1);
        let ids: Vec<NodeId> = net.node_ids().collect();
        assert_eq!(ids, vec![x0, x1, a]);
    }

    #[test]
    fn empty_cover_is_constant_zero() {
        let mut net = Network::new(3);
        net.add_cover(&Cover::empty(3));
        assert_eq!(net.eval(0b000), vec![false]);
        assert_eq!(net.eval(0b111), vec![false]);
    }
}
