//! The thousand-rank weak-scaling experiment (`repro --exp scaling`).
//!
//! The paper's evaluation stops at 16 nodes; this experiment extends its
//! largest machine by 256×: jacobi and gaussian at P ∈ {16 … 4096}
//! ranks on three interconnects — hypercube (the paper's machines),
//! 2-D torus and 4-ary fat tree — all sharing the iPSC/860 cost
//! constants so the *topology* is the only variable. Each cell runs
//! twice, with the per-link contention model off and on
//! (`f90d_machine::net`), and the harness gates three claims:
//!
//! 1. **Contention never improves modelled time** — queueing waits are
//!    `max`es over the uncontended head time, so `time_on ≥ time_off`
//!    on every cell (up to fp association noise).
//! 2. **Monotone-in-P curves** — weak scaling keeps per-rank work
//!    constant, so modelled time never *decreases* as ranks are added
//!    (communication distance and tree depth only grow).
//! 3. **Efficiency floor** — jacobi weak-scaling efficiency
//!    `t(16)/t(P)` at P = 256 stays above a committed floor on every
//!    topology (gaussian's efficiency is reported, not gated: its
//!    serial elimination loop and O(log P) multicasts make the decay
//!    structural, exactly what the curve is for).
//!
//! The 4096-rank cells are what prove the lean `NodeMemory` claim: a
//! 4096-rank machine with lazily-allocated ghost segments runs inside
//! the CI smoke.

use std::collections::HashMap;

use f90d_core::{compile, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{Machine, MachineSpec, Topology, Value};

use crate::workloads;

/// Rank counts of the sweep — perfect squares and powers of 4, so every
/// topology (hypercube, √P×√P torus, 4-ary fat tree) gets the exact
/// same machine sizes.
pub const RANKS: [i64; 5] = [16, 64, 256, 1024, 4096];

/// Committed jacobi efficiency floor at P = 256 (acceptance gate). The
/// measured values sit near 1.0 on the torus (every exchange is
/// nearest-neighbour) and well above 0.5 on hypercube and fat tree;
/// 0.50 is the conservative committed floor.
pub const JACOBI_EFF_FLOOR_P256: f64 = 0.50;

/// Tolerance for the two inequality gates: contention-on and
/// monotonicity only have to hold up to fp association noise.
const REL_TOL: f64 = 1e-9;

/// One cell of the weak-scaling matrix.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// `"jacobi"` or `"gaussian"`.
    pub workload: &'static str,
    /// `"hypercube"`, `"torus"` or `"fattree"`.
    pub topology: &'static str,
    /// Machine size P.
    pub nranks: i64,
    /// Global problem size N (N×N arrays).
    pub n: i64,
    /// Modelled seconds, contention model off (the paper's formula).
    pub time_off: f64,
    /// Modelled seconds with per-link contention on.
    pub time_on: f64,
    /// Wire messages of the contention-off run.
    pub messages: u64,
    /// Directed links that carried traffic in the contention-on run.
    pub links_used: u64,
    /// Weak-scaling efficiency `t(16)/t(P)` within this
    /// workload × topology series (contention off; 1.0 at P = 16).
    pub efficiency: f64,
}

/// The experiment output: rows plus the evaluated gates.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// All cells, ordered workload-major, then topology, then P.
    pub rows: Vec<ScalingRow>,
    /// Gate 1: `time_on ≥ time_off` everywhere.
    pub contention_never_improves: bool,
    /// Gate 2: `time_off` non-decreasing in P per series.
    pub monotone_in_p: bool,
    /// Gate 3: jacobi efficiency at P = 256 ≥
    /// [`JACOBI_EFF_FLOOR_P256`] on every topology.
    pub efficiency_floor_holds: bool,
}

impl ScalingReport {
    /// All three gates.
    pub fn holds(&self) -> bool {
        self.contention_never_improves && self.monotone_in_p && self.efficiency_floor_holds
    }
}

/// Per-rank problem sizing — weak scaling holds the per-rank block
/// constant, so N grows with √P: jacobi keeps an 8×8 interior block per
/// rank; gaussian keeps 4 columns per owning rank.
fn problem_size(workload: &'static str, p: i64) -> i64 {
    let side = (p as f64).sqrt().round() as i64;
    match workload {
        "jacobi" => 8 * side,
        "gaussian" => 4 * side,
        other => panic!("unknown workload {other}"),
    }
}

/// The machine spec for one topology at P ranks: iPSC/860 cost
/// constants throughout, only the interconnect differs.
fn spec_for(topology: &'static str, p: i64) -> MachineSpec {
    let side = (p as f64).sqrt().round() as i64;
    match topology {
        "hypercube" => MachineSpec::ipsc860(),
        "torus" => MachineSpec::torus(&[side, side]).expect("square torus"),
        "fattree" => {
            // 4-ary tree: levels = log4(P); the sweep sizes are all
            // powers of 4.
            let levels = (63 - (p as u64).leading_zeros() as i64) / 2;
            MachineSpec::fat_tree(4, levels).expect("4-ary fat tree")
        }
        other => panic!("unknown topology {other}"),
    }
}

/// Sanity check: the fat-tree sizing must cover exactly P leaves.
fn check_spec(spec: &MachineSpec, p: i64) {
    if let Topology::FatTree { arity, levels } = &spec.topology {
        assert_eq!(arity.pow(*levels as u32), p, "fat tree must have P leaves");
    }
}

/// Run one workload × topology × P cell under both contention modes.
fn run_cell(workload: &'static str, topology: &'static str, p: i64) -> ScalingRow {
    let n = problem_size(workload, p);
    let (src, grid): (String, Vec<i64>) = match workload {
        "jacobi" => {
            let side = (p as f64).sqrt().round() as i64;
            (workloads::jacobi(n, 4), vec![side, side])
        }
        "gaussian" => (workloads::gaussian(n), vec![p]),
        other => panic!("unknown workload {other}"),
    };
    let spec = spec_for(topology, p);
    check_spec(&spec, p);
    // Default options, native kernels on: the fastest tier, and the one
    // that exercises lazy segments through raw slice views.
    let opts = CompileOptions::on_grid(&grid);
    let compiled = compile(&src, &opts).expect("workload compiles");

    let run = |contention: bool| -> (f64, u64, u64) {
        let mut m = Machine::new(spec.clone(), ProcGrid::new(&grid));
        // The shared constant table: one copy of the experiment's
        // parameters for all P ranks (the lean-node-state mechanism;
        // 4096 ranks, one table).
        m.share_consts(HashMap::from([
            ("N".to_string(), Value::Int(n)),
            ("P".to_string(), Value::Int(p)),
        ]));
        m.set_contention(contention);
        let rep = compiled.run_on(&mut m).expect("workload runs");
        (rep.elapsed, rep.messages, m.transport.links_used() as u64)
    };
    let (time_off, messages, _) = run(false);
    let (time_on, _, links_used) = run(true);
    ScalingRow {
        workload,
        topology,
        nranks: p,
        n,
        time_off,
        time_on,
        messages,
        links_used,
        efficiency: 1.0, // filled in by the caller from the P=16 cell
    }
}

/// Run the weak-scaling sweep. `quick` caps gaussian at P ≤ 256 (its
/// 4096-rank cell multicasts over a million messages — nightly
/// material), while jacobi still covers every P including 4096, which
/// is the cell that proves the lean node state in CI.
pub fn scaling_experiment(quick: bool) -> ScalingReport {
    let mut rows = Vec::new();
    for workload in ["jacobi", "gaussian"] {
        for topology in ["hypercube", "torus", "fattree"] {
            let mut base = None;
            for p in RANKS {
                if quick && workload == "gaussian" && p > 256 {
                    continue;
                }
                let mut row = run_cell(workload, topology, p);
                let b = *base.get_or_insert(row.time_off);
                row.efficiency = if row.time_off > 0.0 {
                    b / row.time_off
                } else {
                    1.0
                };
                rows.push(row);
            }
        }
    }
    let contention_never_improves = rows
        .iter()
        .all(|r| r.time_on >= r.time_off * (1.0 - REL_TOL));
    let monotone_in_p = rows
        .chunk_by(|a, b| (a.workload, a.topology) == (b.workload, b.topology))
        .all(|series| {
            series
                .windows(2)
                .all(|w| w[1].time_off >= w[0].time_off * (1.0 - REL_TOL))
        });
    let efficiency_floor_holds = rows
        .iter()
        .filter(|r| r.workload == "jacobi" && r.nranks == 256)
        .all(|r| r.efficiency >= JACOBI_EFF_FLOOR_P256);
    ScalingReport {
        rows,
        contention_never_improves,
        monotone_in_p,
        efficiency_floor_holds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_every_sweep_size() {
        for p in RANKS {
            for topo in ["hypercube", "torus", "fattree"] {
                let s = spec_for(topo, p);
                check_spec(&s, p);
                if let Topology::Torus { dims } = &s.topology {
                    assert_eq!(dims.iter().product::<i64>(), p);
                }
            }
        }
    }

    #[test]
    fn weak_scaling_sizes_grow_with_sqrt_p() {
        assert_eq!(problem_size("jacobi", 16), 32);
        assert_eq!(problem_size("jacobi", 4096), 512);
        assert_eq!(problem_size("gaussian", 16), 16);
        assert_eq!(problem_size("gaussian", 4096), 256);
    }

    #[test]
    fn small_cell_gates_hold() {
        // One cheap cell end-to-end: contention can only slow it down.
        let row = run_cell("jacobi", "torus", 16);
        assert!(row.time_on >= row.time_off * (1.0 - 1e-9));
        assert!(row.messages > 0);
        assert!(row.links_used > 0);
    }
}
