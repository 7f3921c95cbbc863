use boolfunc::Cover;
use spp::SppForm;

use crate::library::GateLibrary;
use crate::mapper::Mapper;
use crate::network::Network;

/// The binary operator combining the divisor and quotient networks when the
/// bi-decomposed form `g op h` is mapped.
///
/// Only the operator's *gate structure* matters here (which top gate is
/// instantiated); the semantic side of the ten operators lives in the
/// `bidecomp` crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CombineOp {
    /// `g · h`.
    And,
    /// `g · h'` (the `⇏` operator).
    AndNotRight,
    /// `g' · h` (the `⇍` operator).
    AndNotLeft,
    /// `(g + h)'`.
    Nor,
    /// `g + h`.
    Or,
    /// `g' + h` (the `⇒` operator).
    OrNotLeft,
    /// `g + h'` (the `⇐` operator).
    OrNotRight,
    /// `(g · h)'`.
    Nand,
    /// `g ⊕ h`.
    Xor,
    /// `(g ⊕ h)'`.
    Xnor,
}

/// Convenience façade bundling a [`GateLibrary`] and a [`Mapper`] and exposing
/// the three area queries the experiments need: area of an SOP cover, of a
/// 2-SPP form, and of a bi-decomposed form `g op h`.
///
/// [`AreaModel::spp_area`] and [`AreaModel::bidecomposition_area`] build a
/// fresh [`Network`] per call. A caller that scores many forms in a row —
/// the recursive synthesizer maps every portfolio candidate — passes one
/// scratch network to [`AreaModel::spp_area_in`] and
/// [`AreaModel::bidecomposition_area_in`] instead: each call clears it,
/// keeping its node list's and structural-hash map's capacity, sets its
/// arity to the forms', and builds and maps there. The areas are the fresh
/// network's, bit for bit, since the cleared network holds nothing from the
/// last call.
///
/// ```rust
/// use boolfunc::Cover;
/// use techmap::AreaModel;
///
/// # fn main() -> Result<(), boolfunc::BoolFuncError> {
/// let model = AreaModel::mcnc();
/// let area = model.cover_area(&Cover::from_strs(3, &["11-", "0-1"])?);
/// assert!(area > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AreaModel {
    mapper: Mapper,
}

impl AreaModel {
    /// Creates an area model over the embedded mcnc-like library.
    pub fn mcnc() -> Self {
        AreaModel { mapper: Mapper::new(GateLibrary::mcnc()) }
    }

    /// Creates an area model over a custom library.
    pub fn new(library: GateLibrary) -> Self {
        AreaModel { mapper: Mapper::new(library) }
    }

    /// The underlying mapper.
    pub fn mapper(&self) -> &Mapper {
        &self.mapper
    }

    /// Mapped area of an SOP cover.
    pub fn cover_area(&self, cover: &Cover) -> f64 {
        let mut net = Network::new(cover.num_vars());
        net.add_cover(cover);
        self.mapper.area(&net)
    }

    /// Mapped area of a 2-SPP form.
    pub fn spp_area(&self, form: &SppForm) -> f64 {
        self.spp_area_in(form, &mut Network::new(form.num_vars()))
    }

    /// [`AreaModel::spp_area`], built and mapped in `scratch`, which is
    /// cleared first (whatever its arity) and left holding the form.
    pub fn spp_area_in(&self, form: &SppForm, scratch: &mut Network) -> f64 {
        scratch.reset(form.num_vars(), Network::spp_node_bound(form));
        scratch.add_spp(form);
        self.mapper.area(scratch)
    }

    /// Mapped area of the bi-decomposed form `g op h` where both components
    /// are given as 2-SPP forms.
    ///
    /// # Panics
    ///
    /// Panics if the two forms have a different number of variables.
    pub fn bidecomposition_area(&self, g: &SppForm, h: &SppForm, op: CombineOp) -> f64 {
        self.bidecomposition_area_in(g, h, op, &mut Network::new(g.num_vars()))
    }

    /// [`AreaModel::bidecomposition_area`], built and mapped in `scratch`,
    /// which is cleared first (whatever its arity) and left holding `g op h`.
    ///
    /// # Panics
    ///
    /// Panics if the two forms have a different number of variables.
    pub fn bidecomposition_area_in(
        &self,
        g: &SppForm,
        h: &SppForm,
        op: CombineOp,
        scratch: &mut Network,
    ) -> f64 {
        assert_eq!(g.num_vars(), h.num_vars(), "divisor/quotient arity mismatch");
        // The top gate adds at most a gate and an inverter.
        let nodes = Network::spp_node_bound(g) + Network::spp_node_bound(h) + 2;
        scratch.reset(g.num_vars(), nodes);
        let g_root = scratch.build_spp(g);
        let h_root = scratch.build_spp(h);
        let combined = scratch.combine(g_root, h_root, op);
        scratch.add_output(combined);
        self.mapper.area(scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolfunc::Isf;
    use spp::SppSynthesizer;

    #[test]
    fn cover_and_spp_areas_track_literal_counts() {
        let model = AreaModel::mcnc();
        let f = Isf::from_cover_str(4, &["1-10", "1-01", "-111", "-100"], &[]).unwrap();
        let sop = sop::espresso(&f);
        let form = SppSynthesizer::new().synthesize(&f);
        // The 2-SPP form has half the literals of the SOP; its mapped area must
        // also be smaller.
        assert!(form.literal_count() < sop.literal_count());
        assert!(model.spp_area(&form) < model.cover_area(&sop));
    }

    #[test]
    fn bidecomposition_area_includes_the_top_gate() {
        let model = AreaModel::mcnc();
        let f = Isf::from_cover_str(2, &["11"], &[]).unwrap();
        let g_form = SppSynthesizer::new().synthesize(&f);
        let one = SppForm::one(2);
        let plain = model.spp_area(&g_form);
        let with_and = model.bidecomposition_area(&g_form, &one, CombineOp::And);
        // g AND 1 folds away the top gate entirely.
        assert!((with_and - plain).abs() < 1e-9);
        let with_or = model.bidecomposition_area(&g_form, &g_form, CombineOp::Xor);
        // g XOR g collapses to the constant 0 thanks to structural hashing.
        assert!(with_or < plain + 1e-9);
    }

    #[test]
    fn all_combine_ops_produce_finite_area() {
        let model = AreaModel::mcnc();
        let f = Isf::from_cover_str(3, &["11-"], &[]).unwrap();
        let g = Isf::from_cover_str(3, &["1--"], &[]).unwrap();
        let f_form = SppSynthesizer::new().synthesize(&f);
        let g_form = SppSynthesizer::new().synthesize(&g);
        for op in [
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
        ] {
            let area = model.bidecomposition_area(&g_form, &f_form, op);
            assert!(area.is_finite() && area >= 0.0, "bad area for {op:?}");
        }
    }
}
