//! Property-based differential testing: randomized FORALL
//! programs over random distributions and grid sizes must produce
//! identical array contents under the compiled SPMD execution and the
//! sequential reference interpreter.

use std::collections::HashMap;

use f90d_core::reference::run_reference;
use f90d_core::{compile, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{ArrayData, Machine, MachineSpec};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandProgram {
    n: i64,
    dist: &'static str,
    shift1: i64,
    shift2: i64,
    scale: f64,
    masked: bool,
    grid: i64,
}

fn program(p: &RandProgram) -> String {
    let n = p.n;
    let (lo, hi) = (
        1 + p.shift1.abs().max(p.shift2.abs()),
        n - p.shift1.abs().max(p.shift2.abs()),
    );
    let mask = if p.masked { ", B(I) > 0.0" } else { "" };
    format!(
        "
PROGRAM RAND
INTEGER, PARAMETER :: N = {n}
REAL A(N), B(N), C(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ DISTRIBUTE T({dist})
FORALL (I={lo}:{hi}{mask}) A(I) = {scale}*B(I{s1}) + C(I{s2}) - B(I)
FORALL (I={lo}:{hi}) C(I) = A(I) + B(I{s2})
END
",
        dist = p.dist,
        scale = p.scale,
        s1 = offset(p.shift1),
        s2 = offset(p.shift2),
    )
}

fn offset(c: i64) -> String {
    match c.cmp(&0) {
        std::cmp::Ordering::Equal => String::new(),
        std::cmp::Ordering::Greater => format!("+{c}"),
        std::cmp::Ordering::Less => format!("{c}"),
    }
}

fn rand_program() -> impl Strategy<Value = RandProgram> {
    (
        12i64..40,
        prop_oneof![Just("BLOCK"), Just("CYCLIC"), Just("CYCLIC(3)")],
        -2i64..=2,
        -2i64..=2,
        prop_oneof![Just(0.5f64), Just(1.0), Just(-2.0)],
        any::<bool>(),
        1i64..6,
    )
        .prop_map(
            |(n, dist, shift1, shift2, scale, masked, grid)| RandProgram {
                n,
                dist,
                shift1,
                shift2,
                scale,
                masked,
                grid,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compiled_matches_reference(p in rand_program()) {
        let src = program(&p);
        let opts = CompileOptions::on_grid(&[p.grid]);
        let compiled = compile(&src, &opts)
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        let b_init = ArrayData::Real(
            (0..p.n).map(|x| ((x * 13 % 17) as f64) - 6.0).collect(),
        );
        let c_init = ArrayData::Real(
            (0..p.n).map(|x| ((x * 5 % 11) as f64) * 0.5).collect(),
        );
        let inits = HashMap::from([
            ("B".to_string(), b_init),
            ("C".to_string(), c_init),
        ]);
        let reference = run_reference(&compiled.analyzed, &inits).unwrap();
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[p.grid]));
        let mut ex = compiled.engine(&mut m).unwrap();
        for (name, data) in &inits {
            prop_assert!(ex.seed_array(&mut m, name, data));
        }
        ex.run(&mut m).unwrap_or_else(|e| panic!("exec failed: {e}\n{src}"));
        for name in ["A", "B", "C"] {
            let got = ex.gather_array(&mut m, name).unwrap();
            let want = &reference.arrays[name];
            for k in 0..got.len() {
                let (a, b) = (got.get(k).as_real(), want.data.get(k).as_real());
                prop_assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                    "{name}[{k}] = {a}, reference {b}\n{src}"
                );
            }
        }
    }
}
