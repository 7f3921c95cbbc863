//! Synthetic stand-ins for the control-dominated LGSynth91 PLAs.
//!
//! Instances like `br1`, `bcb` or `alcom` are hand-written control tables
//! whose contents cannot be reconstructed from public information, and some
//! of them have more inputs than the dense backend supports. They are
//! replaced by *seeded, deterministic* random covers with a comparable
//! structure: a moderate number of wide cubes (control PLAs have few literals
//! per cube and substantial sharing between outputs). The instance names keep
//! the paper's names so the regenerated tables are easy to compare; the
//! scaled input/output counts are recorded here and in the README.

use boolfunc::{Cover, Cube, CubeValue, Isf};

use crate::instance::BenchmarkInstance;
use crate::rng::DetRng;

/// Parameters of a synthetic control-PLA generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlPlaSpec {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of outputs.
    pub outputs: usize,
    /// Number of cubes in the shared cover.
    pub cubes: usize,
    /// Number of literals per cube (roughly).
    pub literals_per_cube: usize,
    /// Seed of the deterministic generator.
    pub seed: u64,
}

/// Generates the deterministic per-output covers of a control-style
/// instance: a pool of random cubes is generated, and every output selects a
/// random subset of the pool (mirroring the cube sharing of real control
/// PLAs).
///
/// This is the representation-agnostic core shared by [`control_pla`] (which
/// densifies the covers into truth tables) and the wide symbolic instances
/// of [`crate::symbolic`] (which build them directly into a BDD manager);
/// covers scale to [`Cube::MAX_VARS`] inputs.
///
/// # Panics
///
/// Panics if `spec.inputs > Cube::MAX_VARS`.
pub fn control_covers(spec: ControlPlaSpec) -> Vec<Cover> {
    assert!(spec.inputs <= Cube::MAX_VARS, "covers address variables with u64 masks");
    let mut rng = DetRng::seed_from_u64(spec.seed);
    let mut pool: Vec<Cube> = Vec::with_capacity(spec.cubes);
    for _ in 0..spec.cubes {
        let mut cube = Cube::full(spec.inputs).expect("arity validated above");
        for _ in 0..spec.literals_per_cube {
            let var = rng.gen_range(0..spec.inputs);
            let value = if rng.gen_bool(0.5) { CubeValue::One } else { CubeValue::Zero };
            cube = cube.with_value(var, value);
        }
        pool.push(cube);
    }
    let mut covers = Vec::with_capacity(spec.outputs);
    for _ in 0..spec.outputs {
        let mut cover = Cover::empty(spec.inputs);
        for cube in &pool {
            if rng.gen_bool(0.4) {
                cover.push(*cube);
            }
        }
        // Guarantee a non-trivial output.
        if cover.is_empty() {
            cover.push(pool[rng.gen_range(0..pool.len())]);
        }
        covers.push(cover);
    }
    covers
}

/// Generates a deterministic control-style multi-output instance from
/// [`control_covers`], densified into the truth-table backend.
pub fn control_pla(name: &str, spec: ControlPlaSpec) -> BenchmarkInstance {
    assert!(spec.inputs <= 16, "dense synthetic instances are kept within the dense backend");
    let outputs = control_covers(spec)
        .iter()
        .map(|cover| Isf::from_covers(cover, &Cover::empty(spec.inputs)))
        .collect();
    BenchmarkInstance::new(name, outputs)
}

/// The synthetic stand-ins used for the low-error-rate suite (Table III).
/// Input/output counts follow the paper where they fit the dense backend and
/// are scaled down otherwise (the scaling is part of the documented
/// substitution).
pub fn table3_instances() -> Vec<BenchmarkInstance> {
    vec![
        control_pla(
            "bcb",
            ControlPlaSpec { inputs: 12, outputs: 8, cubes: 40, literals_per_cube: 5, seed: 0xB0B },
        ),
        control_pla(
            "br1",
            ControlPlaSpec { inputs: 12, outputs: 8, cubes: 20, literals_per_cube: 6, seed: 0xB21 },
        ),
        control_pla(
            "br2",
            ControlPlaSpec { inputs: 12, outputs: 8, cubes: 16, literals_per_cube: 6, seed: 0xB22 },
        ),
        control_pla(
            "mp2d",
            ControlPlaSpec {
                inputs: 12,
                outputs: 10,
                cubes: 18,
                literals_per_cube: 7,
                seed: 0x32D,
            },
        ),
        control_pla(
            "alcom",
            ControlPlaSpec {
                inputs: 12,
                outputs: 10,
                cubes: 24,
                literals_per_cube: 6,
                seed: 0xA1C,
            },
        ),
        control_pla(
            "spla",
            ControlPlaSpec {
                inputs: 12,
                outputs: 10,
                cubes: 44,
                literals_per_cube: 5,
                seed: 0x5B1,
            },
        ),
        control_pla(
            "al2",
            ControlPlaSpec {
                inputs: 12,
                outputs: 10,
                cubes: 26,
                literals_per_cube: 6,
                seed: 0xA12,
            },
        ),
        control_pla(
            "ex5",
            ControlPlaSpec { inputs: 8, outputs: 12, cubes: 32, literals_per_cube: 4, seed: 0xE5 },
        ),
        control_pla(
            "newtpla2",
            ControlPlaSpec { inputs: 10, outputs: 4, cubes: 10, literals_per_cube: 5, seed: 0x17 },
        ),
        control_pla(
            "ts10",
            ControlPlaSpec { inputs: 12, outputs: 8, cubes: 30, literals_per_cube: 5, seed: 0x751 },
        ),
        control_pla(
            "chkn",
            ControlPlaSpec { inputs: 12, outputs: 7, cubes: 34, literals_per_cube: 6, seed: 0xC4E },
        ),
        control_pla(
            "opa",
            ControlPlaSpec {
                inputs: 12,
                outputs: 10,
                cubes: 36,
                literals_per_cube: 5,
                seed: 0x0FA,
            },
        ),
        control_pla(
            "b7",
            ControlPlaSpec { inputs: 8, outputs: 8, cubes: 18, literals_per_cube: 4, seed: 0xB7 },
        ),
        control_pla(
            "risc",
            ControlPlaSpec { inputs: 8, outputs: 8, cubes: 20, literals_per_cube: 4, seed: 0x815 },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec =
            ControlPlaSpec { inputs: 8, outputs: 3, cubes: 10, literals_per_cube: 4, seed: 42 };
        let a = control_pla("x", spec);
        let b = control_pla("x", spec);
        for (oa, ob) in a.outputs().iter().zip(b.outputs()) {
            assert_eq!(oa.on(), ob.on());
        }
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let a = control_pla(
            "x",
            ControlPlaSpec { inputs: 8, outputs: 2, cubes: 10, literals_per_cube: 4, seed: 1 },
        );
        let b = control_pla(
            "x",
            ControlPlaSpec { inputs: 8, outputs: 2, cubes: 10, literals_per_cube: 4, seed: 2 },
        );
        assert_ne!(a.outputs()[0].on(), b.outputs()[0].on());
    }

    #[test]
    fn table3_suite_has_the_paper_instances() {
        let suite = table3_instances();
        assert_eq!(suite.len(), 14);
        let names: Vec<&str> = suite.iter().map(|i| i.name()).collect();
        for expected in ["bcb", "br1", "br2", "spla", "risc", "opa"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        for inst in &suite {
            assert!(inst.num_inputs() <= 12);
            assert!(inst.total_on_minterms() > 0);
        }
    }
}
