//! Differential property test for the execution tiers: random FORALL
//! programs (1-D and 2-D, random distributions, shifts, masks) must
//! produce **bit-identical** arrays with the native kernel tier on (the
//! default; unmasked BLOCK samples dispatch to the monomorphized
//! closures) and off (the bytecode element loop), and under the
//! sequential reference interpreter, across grids `[1]`, `[2]`, and
//! `[2,2]` — under a **sampled local-phase execution mode**:
//! `ExecMode::Threaded` (persistent worker pool, cross-run schedule
//! cache on as everywhere) must be indistinguishable from
//! `ExecMode::Sequential` in arrays and virtual time, and virtual time
//! must not depend on the tier.

use std::collections::HashMap;

use f90d_core::reference::run_reference;
use f90d_core::{compile, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{budget, ArrayData, ExecMode, Machine, MachineSpec};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandProgram {
    /// 1 or 2 array dimensions.
    ndim: usize,
    n: i64,
    dist: &'static str,
    dist2: &'static str,
    shift1: i64,
    shift2: i64,
    scale: f64,
    masked: bool,
    grid: Vec<i64>,
    exec: ExecMode,
}

fn offset(c: i64) -> String {
    match c.cmp(&0) {
        std::cmp::Ordering::Equal => String::new(),
        std::cmp::Ordering::Greater => format!("+{c}"),
        std::cmp::Ordering::Less => format!("{c}"),
    }
}

fn program(p: &RandProgram) -> String {
    let n = p.n;
    let pad = p.shift1.abs().max(p.shift2.abs());
    let (lo, hi) = (1 + pad, n - pad);
    if p.ndim == 1 {
        let mask = if p.masked { ", B(I) > 0.0" } else { "" };
        format!(
            "
PROGRAM RAND1
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
    } else {
        let mask = if p.masked { ", B(I,J) > 0.0" } else { "" };
        format!(
            "
PROGRAM RAND2
INTEGER, PARAMETER :: N = {n}
REAL A(N,N), B(N,N), C(N,N)
C$ TEMPLATE T(N,N)
C$ ALIGN A(I,J) WITH T(I,J)
C$ ALIGN B(I,J) WITH T(I,J)
C$ ALIGN C(I,J) WITH T(I,J)
C$ DISTRIBUTE T({dist}, {dist2})
FORALL (I={lo}:{hi}, J={lo}:{hi}{mask})&
& A(I,J) = {scale}*B(I{s1},J) + C(I,J{s2}) - B(I,J)
FORALL (I={lo}:{hi}, J={lo}:{hi}) C(I,J) = A(I,J) + B(I,J{s2})
END
",
            dist = p.dist,
            dist2 = p.dist2,
            scale = p.scale,
            s1 = offset(p.shift1),
            s2 = offset(p.shift2),
        )
    }
}

fn dists() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("BLOCK"), Just("CYCLIC"), Just("CYCLIC(3)")]
}

fn exec_modes() -> impl Strategy<Value = ExecMode> {
    prop_oneof![Just(ExecMode::Sequential), Just(ExecMode::Threaded)]
}

fn rand_program() -> impl Strategy<Value = RandProgram> {
    (
        1usize..=2,
        10i64..28,
        dists(),
        dists(),
        -2i64..=2,
        -2i64..=2,
        prop_oneof![Just(0.5f64), Just(1.0), Just(-2.0)],
        any::<bool>(),
        0usize..3,
        exec_modes(),
    )
        .prop_map(
            |(ndim, n, dist, dist2, shift1, shift2, scale, masked, grid_pick, exec)| {
                // The issue's grid matrix: [1], [2] for 1-D programs and
                // [1,1], [2,1], [2,2] for 2-D ones.
                let grid = match (ndim, grid_pick) {
                    (1, 0) => vec![1],
                    (1, _) => vec![2],
                    (2, 0) => vec![1, 1],
                    (2, 1) => vec![2, 1],
                    _ => vec![2, 2],
                };
                RandProgram {
                    ndim,
                    n,
                    dist,
                    dist2,
                    shift1,
                    shift2,
                    scale,
                    masked,
                    grid,
                    exec,
                }
            },
        )
}

fn host_inits(p: &RandProgram) -> HashMap<String, ArrayData> {
    let len = if p.ndim == 1 { p.n } else { p.n * p.n };
    let b = ArrayData::Real((0..len).map(|x| ((x * 13 % 17) as f64) - 6.0).collect());
    let c = ArrayData::Real((0..len).map(|x| ((x * 5 % 11) as f64) * 0.5).collect());
    HashMap::from([("B".to_string(), b), ("C".to_string(), c)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tiers_and_reference_bit_identical(p in rand_program()) {
        // Single-core hosts would otherwise degrade every threaded
        // sample to sequential; raise the budget so the pool is real.
        budget::global().ensure_total_at_least(8);
        let src = program(&p);
        let inits = host_inits(&p);
        let names = ["A", "B", "C"];

        // Seed, run and gather one configuration on a fresh machine.
        let run = |native: bool, exec: ExecMode| -> Result<(Vec<ArrayData>, f64, u64), TestCaseError> {
            let mut opts = CompileOptions::on_grid(&p.grid);
            opts.opt.native_kernels = native;
            let compiled = compile(&src, &opts)
                .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
            if !native {
                let prog = compiled.vm_program()
                    .unwrap_or_else(|e| panic!("lowering failed: {e}\n{src}"));
                prop_assert!(prog.natives.is_empty(), "native off must select no kernels\n{}", src);
            }
            let mut m = Machine::with_mode(MachineSpec::ideal(), ProcGrid::new(&p.grid), exec);
            let mut eng = compiled.engine(&mut m)
                .unwrap_or_else(|e| panic!("lowering failed: {e}\n{src}"));
            for (name, data) in &inits {
                prop_assert!(eng.seed_array(&mut m, name, data));
            }
            eng.run(&mut m).unwrap_or_else(|e| panic!("run failed: {e}\n{src}"));
            let arrays = names.iter().map(|a| eng.gather_array(&mut m, a).unwrap()).collect();
            Ok((arrays, m.elapsed(), eng.native_counts().0))
        };

        // Sequential reference interpreter.
        let compiled = compile(&src, &CompileOptions::on_grid(&p.grid))
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        let reference = run_reference(&compiled.analyzed, &inits).unwrap();

        // Native tier (the default), under the sampled execution mode.
        let (nat, t_nat, _) = run(true, p.exec)?;
        for (k, name) in names.iter().enumerate() {
            let want = &reference.arrays[*name];
            for i in 0..nat[k].len() {
                prop_assert!(
                    nat[k].get(i) == want.data.get(i),
                    "array {}[{}] = {:?}, reference {:?}\n{}",
                    name, i, nat[k].get(i), want.data.get(i), src
                );
            }
        }

        // Bytecode tier (native kernels off): the pure bytecode element
        // loop must be indistinguishable from the native-on run in arrays
        // and virtual time, and must never report a native dispatch.
        let (bc, t_bc, bc_native) = run(false, p.exec)?;
        prop_assert_eq!(bc_native, 0, "native off must never dispatch\n{}", src);
        for (k, name) in names.iter().enumerate() {
            prop_assert_eq!(&nat[k], &bc[k], "array {} differs: native vs bytecode\n{}", name, src);
        }
        prop_assert_eq!(
            t_nat.to_bits(), t_bc.to_bits(),
            "virtual time must be tier-independent\n{}", src
        );

        // Threaded samples additionally anchor against an explicitly
        // sequential run: arrays AND virtual time must be bit-identical
        // across execution modes.
        if p.exec == ExecMode::Threaded {
            let (seq, t_seq, _) = run(true, ExecMode::Sequential)?;
            for (k, name) in names.iter().enumerate() {
                prop_assert_eq!(
                    &nat[k], &seq[k],
                    "array {} differs: threaded vs sequential\n{}", name, src
                );
            }
            prop_assert_eq!(
                t_nat.to_bits(), t_seq.to_bits(),
                "virtual time must be mode-independent\n{}", src
            );
        }
    }
}
