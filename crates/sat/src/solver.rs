//! A deterministic CDCL solver: two-watched-literal propagation, first-UIP
//! conflict-driven clause learning with backjumping, and a decision heuristic
//! (conflict-bumped activity, lowest variable index on ties, negative phase)
//! that involves no randomness at all — the same formula always produces the
//! same model, the same learnt clauses and the same statistics, which is what
//! lets the correctness oracle promise seed-stable verdicts.

use crate::cnf::{Cnf, Lit, Var};

/// Sentinel for "no reason clause" (decisions and construction-time units).
const NO_REASON: u32 = u32::MAX;

/// Outcome of [`Solver::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// The formula is satisfiable; a full model is attached.
    Sat(Model),
    /// The formula is unsatisfiable.
    Unsat,
}

impl SatResult {
    /// `true` for [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// A complete satisfying assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    values: Vec<bool>,
}

impl Model {
    /// The truth value of `lit` under this model.
    pub fn value(&self, lit: Lit) -> bool {
        self.values[lit.var().index()] == lit.is_positive()
    }
}

/// Search statistics, exposed so tests can assert run-to-run determinism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decision assignments.
    pub decisions: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of implied assignments made by unit propagation.
    pub propagations: u64,
}

/// The CDCL solver. Build one per query with [`Solver::from_cnf`] and call
/// [`Solver::solve`].
#[derive(Debug, Clone)]
pub struct Solver {
    /// Problem clauses followed by learnt clauses. Watched literals are kept
    /// at positions 0 and 1.
    clauses: Vec<Vec<Lit>>,
    /// Per-literal watch lists of clause indices.
    watches: Vec<Vec<u32>>,
    /// Per-variable assignment: 0 unassigned, 1 true, -1 false.
    assign: Vec<i8>,
    /// Per-variable decision level.
    level: Vec<u32>,
    /// Per-variable reason clause (`NO_REASON` for decisions).
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    act_inc: f64,
    seen: Vec<bool>,
    /// Cleared on a top-level conflict; the formula is then unsatisfiable.
    ok: bool,
    stats: SolverStats,
}

impl Solver {
    /// Builds a solver for `cnf`. Tautological clauses are dropped, duplicate
    /// literals are merged, unit clauses are asserted immediately.
    pub fn from_cnf(cnf: &Cnf) -> Solver {
        let n = cnf.num_vars();
        let mut solver = Solver {
            clauses: Vec::with_capacity(cnf.clauses().len()),
            watches: vec![Vec::new(); n * 2],
            assign: vec![0; n],
            level: vec![0; n],
            reason: vec![NO_REASON; n],
            trail: Vec::with_capacity(n),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; n],
            act_inc: 1.0,
            seen: vec![false; n],
            ok: true,
            stats: SolverStats::default(),
        };
        'clauses: for clause in cnf.clauses() {
            let mut lits = clause.clone();
            lits.sort();
            lits.dedup();
            // After sorting by packed index, x and ¬x are adjacent.
            for pair in lits.windows(2) {
                if pair[0].var() == pair[1].var() {
                    continue 'clauses; // tautology
                }
            }
            match lits[..] {
                [] => solver.ok = false,
                [unit] => solver.assert_unit(unit),
                _ => {
                    let ci = solver.clauses.len() as u32;
                    solver.watches[lits[0].index()].push(ci);
                    solver.watches[lits[1].index()].push(ci);
                    solver.clauses.push(lits);
                }
            }
        }
        solver
    }

    /// Search statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Runs the CDCL search to completion.
    pub fn solve(&mut self) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        loop {
            match self.propagate() {
                Some(conflict) => {
                    self.stats.conflicts += 1;
                    if self.decision_level() == 0 {
                        self.ok = false;
                        return SatResult::Unsat;
                    }
                    let (learnt, backtrack) = self.analyze(conflict);
                    self.cancel_until(backtrack);
                    self.record(learnt);
                    self.act_inc /= 0.95;
                }
                None => {
                    if !self.decide() {
                        let values = self.assign.iter().map(|&a| a > 0).collect();
                        return SatResult::Sat(Model { values });
                    }
                }
            }
        }
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn value(&self, lit: Lit) -> Option<bool> {
        match self.assign[lit.var().index()] {
            0 => None,
            a => Some((a > 0) == lit.is_positive()),
        }
    }

    /// Asserts a construction-time unit clause at level 0.
    fn assert_unit(&mut self, lit: Lit) {
        match self.value(lit) {
            Some(true) => {}
            Some(false) => self.ok = false,
            None => self.enqueue(lit, NO_REASON),
        }
    }

    fn enqueue(&mut self, lit: Lit, reason: u32) {
        let v = lit.var().index();
        debug_assert_eq!(self.assign[v], 0, "enqueue of an assigned variable");
        self.assign[v] = if lit.is_positive() { 1 } else { -1 };
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation; returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !lit;
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut keep = 0;
            let mut conflict = None;
            let mut wi = 0;
            while wi < watch_list.len() {
                let ci = watch_list[wi];
                wi += 1;
                {
                    let clause = &mut self.clauses[ci as usize];
                    if clause[0] == false_lit {
                        clause.swap(0, 1);
                    }
                }
                let first = self.clauses[ci as usize][0];
                if self.value(first) == Some(true) {
                    watch_list[keep] = ci;
                    keep += 1;
                    continue;
                }
                // Look for a non-false literal to take over the watch.
                let len = self.clauses[ci as usize].len();
                let mut moved = false;
                for k in 2..len {
                    let candidate = self.clauses[ci as usize][k];
                    if self.value(candidate) != Some(false) {
                        self.clauses[ci as usize].swap(1, k);
                        self.watches[candidate.index()].push(ci);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit under the assignment, or conflicting.
                watch_list[keep] = ci;
                keep += 1;
                if self.value(first) == Some(false) {
                    while wi < watch_list.len() {
                        watch_list[keep] = watch_list[wi];
                        keep += 1;
                        wi += 1;
                    }
                    conflict = Some(ci);
                    self.qhead = self.trail.len();
                    break;
                }
                self.stats.propagations += 1;
                self.enqueue(first, ci);
            }
            watch_list.truncate(keep);
            self.watches[false_lit.index()] = watch_list;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the level to backtrack to.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = vec![Lit::positive(Var::new(0))]; // slot 0 = UIP
        let mut counter = 0usize;
        let mut index = self.trail.len();
        let mut ci = conflict;
        let mut resolving = false;
        let uip = loop {
            let start = usize::from(resolving); // skip the resolved literal itself
            for k in start..self.clauses[ci as usize].len() {
                let q = self.clauses[ci as usize][k];
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] as usize >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // The next literal to resolve on: the most recent seen one.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let p = self.trail[index];
            self.seen[p.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break p;
            }
            ci = self.reason[p.var().index()];
            resolving = true;
        };
        learnt[0] = !uip;
        // Backtrack to the second-highest level in the clause; put a literal
        // of that level in the other watch position.
        let mut backtrack = 0usize;
        if learnt.len() > 1 {
            let mut max_at = 1;
            for k in 1..learnt.len() {
                if self.level[learnt[k].var().index()] > self.level[learnt[max_at].var().index()] {
                    max_at = k;
                }
            }
            learnt.swap(1, max_at);
            backtrack = self.level[learnt[1].var().index()] as usize;
        }
        for &q in &learnt {
            self.seen[q.var().index()] = false;
        }
        (learnt, backtrack)
    }

    /// Installs a learnt clause and asserts its UIP literal.
    fn record(&mut self, learnt: Vec<Lit>) {
        let asserting = learnt[0];
        if learnt.len() == 1 {
            self.enqueue(asserting, NO_REASON);
            return;
        }
        let ci = self.clauses.len() as u32;
        self.watches[learnt[0].index()].push(ci);
        self.watches[learnt[1].index()].push(ci);
        self.clauses.push(learnt);
        self.enqueue(asserting, ci);
    }

    fn cancel_until(&mut self, target_level: usize) {
        while self.trail_lim.len() > target_level {
            let limit = self.trail_lim.pop().expect("non-empty trail_lim");
            while self.trail.len() > limit {
                let lit = self.trail.pop().expect("non-empty trail");
                let v = lit.var().index();
                self.assign[v] = 0;
                self.reason[v] = NO_REASON;
            }
        }
        self.qhead = self.trail.len();
    }

    /// Picks the unassigned variable with the highest activity (lowest index
    /// on ties) and assigns it false. Returns `false` when all variables are
    /// assigned.
    fn decide(&mut self) -> bool {
        let mut best: Option<usize> = None;
        for v in 0..self.assign.len() {
            if self.assign[v] == 0 && best.is_none_or(|b| self.activity[v] > self.activity[b]) {
                best = Some(v);
            }
        }
        let Some(v) = best else { return false };
        self.stats.decisions += 1;
        self.trail_lim.push(self.trail.len());
        self.enqueue(Lit::negative(Var::new(v as u32)), NO_REASON);
        true
    }

    fn bump(&mut self, var: usize) {
        self.activity[var] += self.act_inc;
        if self.activity[var] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Cnf;

    fn vars(cnf: &mut Cnf, n: usize) -> Vec<Lit> {
        (0..n).map(|_| cnf.new_var()).collect()
    }

    fn solve(cnf: &Cnf) -> SatResult {
        Solver::from_cnf(cnf).solve()
    }

    #[test]
    fn empty_formula_is_sat_and_empty_clause_is_unsat() {
        assert!(solve(&Cnf::new()).is_sat());
        let mut cnf = Cnf::new();
        cnf.add_clause(&[]);
        assert_eq!(solve(&cnf), SatResult::Unsat);
    }

    #[test]
    fn known_sat_micro_formula_forces_both_variables() {
        // (x ∨ y)(¬x ∨ y)(x ∨ ¬y) has the unique model x = y = 1.
        let mut cnf = Cnf::new();
        let (x, y) = (cnf.new_var(), cnf.new_var());
        cnf.add_clause(&[x, y]);
        cnf.add_clause(&[!x, y]);
        cnf.add_clause(&[x, !y]);
        let SatResult::Sat(model) = solve(&cnf) else { panic!("must be SAT") };
        assert!(model.value(x));
        assert!(model.value(y));
    }

    #[test]
    fn known_unsat_micro_formulas() {
        // Direct contradiction through units.
        let mut cnf = Cnf::new();
        let x = cnf.new_var();
        cnf.add_clause(&[x]);
        cnf.add_clause(&[!x]);
        assert_eq!(solve(&cnf), SatResult::Unsat);

        // All four clauses over two variables.
        let mut cnf = Cnf::new();
        let (x, y) = (cnf.new_var(), cnf.new_var());
        for clause in [[x, y], [!x, y], [x, !y], [!x, !y]] {
            cnf.add_clause(&clause);
        }
        assert_eq!(solve(&cnf), SatResult::Unsat);

        // Odd parity cycle: a⊕b, b⊕c, a⊕c cannot all be true.
        let mut cnf = Cnf::new();
        let v = vars(&mut cnf, 3);
        for (a, b) in [(v[0], v[1]), (v[1], v[2]), (v[0], v[2])] {
            let t = cnf.xor(a, b);
            cnf.add_clause(&[t]);
        }
        assert_eq!(solve(&cnf), SatResult::Unsat);
    }

    #[test]
    fn tautological_and_duplicate_clauses_are_harmless() {
        let mut cnf = Cnf::new();
        let (x, y) = (cnf.new_var(), cnf.new_var());
        cnf.add_clause(&[x, !x, y]); // tautology, dropped
        cnf.add_clause(&[y, y, y]); // collapses to the unit y
        let SatResult::Sat(model) = solve(&cnf) else { panic!("must be SAT") };
        assert!(model.value(y));
    }

    #[test]
    fn pigeonhole_three_pigeons_two_holes_is_unsat() {
        // Needs genuine search and clause learning, not just propagation.
        let mut cnf = Cnf::new();
        let p: Vec<Vec<Lit>> = (0..3).map(|_| vars(&mut cnf, 2)).collect();
        for holes in &p {
            cnf.add_clause(holes); // every pigeon sits somewhere
        }
        for (a, pa) in p.iter().enumerate() {
            for pb in &p[a + 1..] {
                for (&x, &y) in pa.iter().zip(pb) {
                    cnf.add_clause(&[!x, !y]); // no two pigeons share a hole
                }
            }
        }
        let mut solver = Solver::from_cnf(&cnf);
        assert_eq!(solver.solve(), SatResult::Unsat);
        assert!(solver.stats().conflicts > 0, "PHP must conflict at least once");
    }

    /// The forced value of `output` under the given pins, if any.
    fn forced_value(cnf: &Cnf, pins: &[(Lit, bool)], output: Lit) -> Option<bool> {
        let mut pinned = cnf.clone();
        for &(lit, value) in pins {
            pinned.add_clause(&[if value { lit } else { !lit }]);
        }
        let mut as_true = pinned.clone();
        as_true.add_clause(&[output]);
        let mut as_false = pinned;
        as_false.add_clause(&[!output]);
        match (solve(&as_true).is_sat(), solve(&as_false).is_sat()) {
            (true, false) => Some(true),
            (false, true) => Some(false),
            _ => None,
        }
    }

    #[test]
    fn tseitin_gates_round_trip_every_input_combination() {
        for a_val in [false, true] {
            for b_val in [false, true] {
                let mut cnf = Cnf::new();
                let (a, b) = (cnf.new_var(), cnf.new_var());
                let gates = [
                    ("and", cnf.and(a, b), a_val && b_val),
                    ("or", cnf.or(a, b), a_val || b_val),
                    ("xor", cnf.xor(a, b), a_val ^ b_val),
                    ("iff", cnf.iff(a, b), a_val == b_val),
                ];
                let pins = [(a, a_val), (b, b_val)];
                for (name, out, expected) in gates {
                    assert_eq!(
                        forced_value(&cnf, &pins, out),
                        Some(expected),
                        "{name}({a_val}, {b_val})"
                    );
                }
            }
        }
        for c_val in [false, true] {
            for x_val in [false, true] {
                for y_val in [false, true] {
                    let mut cnf = Cnf::new();
                    let (c, x, y) = (cnf.new_var(), cnf.new_var(), cnf.new_var());
                    let out = cnf.ite(c, x, y);
                    let expected = if c_val { x_val } else { y_val };
                    let pins = [(c, c_val), (x, x_val), (y, y_val)];
                    assert_eq!(
                        forced_value(&cnf, &pins, out),
                        Some(expected),
                        "ite({c_val}, {x_val}, {y_val})"
                    );
                }
            }
        }
    }

    #[test]
    fn wide_gates_and_constants() {
        let mut cnf = Cnf::new();
        let v = vars(&mut cnf, 4);
        let all = cnf.and_many(&v);
        let any = cnf.or_many(&v);
        let t = cnf.constant(true);
        let pins: Vec<(Lit, bool)> = v.iter().map(|&l| (l, true)).collect();
        assert_eq!(forced_value(&cnf, &pins, all), Some(true));
        assert_eq!(forced_value(&cnf, &pins, any), Some(true));
        assert_eq!(forced_value(&cnf, &[], t), Some(true));
        let pins: Vec<(Lit, bool)> = v.iter().map(|&l| (l, false)).collect();
        assert_eq!(forced_value(&cnf, &pins, all), Some(false));
        assert_eq!(forced_value(&cnf, &pins, any), Some(false));
        // Empty conjunction / disjunction are the two constants.
        let mut cnf = Cnf::new();
        let top = cnf.and_many(&[]);
        let bottom = cnf.or_many(&[]);
        assert_eq!(forced_value(&cnf, &[], top), Some(true));
        assert_eq!(forced_value(&cnf, &[], bottom), Some(false));
    }

    #[test]
    fn solver_is_deterministic_across_runs() {
        // A formula with many models and a non-trivial search: determinism
        // means the same model and the same statistics every time.
        let mut cnf = Cnf::new();
        let v = vars(&mut cnf, 8);
        for w in v.windows(3) {
            cnf.add_clause(&[w[0], w[1], w[2]]);
            cnf.add_clause(&[!w[0], !w[2]]);
        }
        let mut first = Solver::from_cnf(&cnf);
        let first_result = first.solve();
        for _ in 0..3 {
            let mut again = Solver::from_cnf(&cnf);
            assert_eq!(again.solve(), first_result);
            assert_eq!(again.stats(), first.stats());
        }
    }
}
