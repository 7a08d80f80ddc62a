//! Machine cost models and physical topologies.
//!
//! The constants here are the only machine-specific part of the whole
//! system — the same compiled SPMD program runs under any
//! [`MachineSpec`], which is how we reproduce the paper's portability
//! experiment (§8.1: one generated code, two machines).

use serde::{Deserialize, Serialize};

/// Physical interconnect shape, used for hop counting, for link-level
/// routing ([`Topology::route`](crate::net) in `f90d_machine::net`) and
/// for choosing the natural collective trees.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// Binary hypercube of `2^dim` nodes (iPSC/860, nCUBE/2). Hop distance
    /// is the Hamming distance of node addresses.
    Hypercube,
    /// Two-dimensional mesh `rows × cols` (Paragon-style); hop distance is
    /// Manhattan distance.
    Mesh2D {
        /// Mesh rows.
        rows: i64,
        /// Mesh columns.
        cols: i64,
    },
    /// Fully connected crossbar: every pair one hop (workstation LAN or an
    /// idealized switch).
    Crossbar,
    /// k-ary torus: a mesh with wraparound links in every dimension.
    /// Ranks are row-major over `dims` (last dimension fastest); hop
    /// distance is the sum of per-dimension *circular* distances.
    Torus {
        /// Extent of each torus dimension (all ≥ 1).
        dims: Vec<i64>,
    },
    /// Fat tree of `arity^levels` leaves (CM-5-style): compute nodes are
    /// the leaves, switches form a complete `arity`-ary tree above them.
    /// Hop distance is `2·l` where `l` is the level of the lowest common
    /// ancestor switch (up `l` links, down `l` links).
    FatTree {
        /// Children per switch (≥ 2).
        arity: i64,
        /// Switch levels above the leaves (≥ 1).
        levels: i64,
    },
}

impl Topology {
    /// Number of hops between physical ranks `a` and `b`.
    pub fn hops(&self, a: i64, b: i64) -> i64 {
        if a == b {
            return 0;
        }
        match self {
            Topology::Hypercube => ((a ^ b) as u64).count_ones() as i64,
            Topology::Mesh2D { cols, .. } => {
                let (ar, ac) = (a / cols, a % cols);
                let (br, bc) = (b / cols, b % cols);
                (ar - br).abs() + (ac - bc).abs()
            }
            Topology::Crossbar => 1,
            Topology::Torus { dims } => {
                let ca = Self::torus_coords(dims, a);
                let cb = Self::torus_coords(dims, b);
                ca.iter()
                    .zip(&cb)
                    .zip(dims)
                    .map(|((&x, &y), &ext)| {
                        let d = (x - y).abs();
                        d.min(ext - d)
                    })
                    .sum()
            }
            Topology::FatTree { arity, levels } => 2 * Self::fat_tree_lca(*arity, *levels, a, b),
        }
    }

    /// Decompose rank `r` into row-major torus coordinates (last
    /// dimension fastest, matching [`Topology::Mesh2D`]).
    pub(crate) fn torus_coords(dims: &[i64], r: i64) -> Vec<i64> {
        let mut c = vec![0; dims.len()];
        let mut rest = r;
        for (d, &ext) in dims.iter().enumerate().rev() {
            c[d] = rest % ext;
            rest /= ext;
        }
        c
    }

    /// Level of the lowest common ancestor switch of leaves `a` and `b`
    /// in a complete `arity`-ary tree (0 = same leaf).
    pub(crate) fn fat_tree_lca(arity: i64, levels: i64, a: i64, b: i64) -> i64 {
        let (mut ga, mut gb) = (a, b);
        for l in 1..=levels {
            ga /= arity;
            gb /= arity;
            if ga == gb {
                return l;
            }
        }
        // Distinct ranks must meet by the root; reaching here means a
        // rank was outside the `arity^levels` leaf set.
        panic!("ranks {a}/{b} outside a {arity}-ary {levels}-level fat tree")
    }
}

/// Structured constructor failure: a machine was requested with a
/// nonsense topology shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A topology dimension (mesh rows/cols, a torus extent, fat-tree
    /// arity or levels) was zero or negative.
    NonPositiveDim {
        /// Which parameter was bad, e.g. `"rows"` or `"dims[1]"`.
        what: &'static str,
        /// The offending value.
        got: i64,
    },
    /// A torus was requested with no dimensions at all.
    EmptyTorus,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NonPositiveDim { what, got } => {
                write!(f, "topology dimension `{what}` must be positive, got {got}")
            }
            SpecError::EmptyTorus => write!(f, "torus needs at least one dimension"),
        }
    }
}

impl std::error::Error for SpecError {}

/// The cost model for one machine: communication constants, computation
/// throughput and topology.
///
/// All times in **seconds**; `beta` is seconds per byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Human-readable machine name (appears in experiment output).
    pub name: String,
    /// Message startup latency α (per message, software + wire setup).
    pub alpha: f64,
    /// Transfer time β per byte (inverse bandwidth).
    pub beta: f64,
    /// Extra per-hop latency τ for multi-hop routes (small on the
    /// circuit-switched/cut-through machines the paper used).
    pub tau: f64,
    /// Modelled cost of one double-precision element operation in compiled
    /// Fortran inner loops (arithmetic + addressing + memory traffic).
    pub time_elem_op: f64,
    /// Per-byte cost of local memory copies (message packing/unpacking and
    /// intra-processor array copies, the overhead `overlap_shift` avoids).
    pub time_copy_byte: f64,
    /// Interconnect shape.
    pub topology: Topology,
}

impl MachineSpec {
    /// Intel iPSC/860 (calibrated so that sequential 1023×1024 Gaussian
    /// elimination lands near the paper's 623 s).
    ///
    /// Published-era parameters: ≈75 µs message latency, ≈2.8 MB/s
    /// sustained bandwidth, i860 sustaining low single-digit MFLOPS on
    /// compiled Fortran stencils.
    pub fn ipsc860() -> Self {
        MachineSpec {
            name: "iPSC/860".into(),
            alpha: 75e-6,
            beta: 0.36e-6,
            tau: 10e-6,
            time_elem_op: 0.22e-6,
            time_copy_byte: 0.05e-6,
            topology: Topology::Hypercube,
        }
    }

    /// nCUBE/2: higher latency, lower bandwidth, roughly 2× slower node
    /// CPU than the i860 on compiled Fortran (matches the ≈2× separation
    /// of the two curves in the paper's Figure 5).
    pub fn ncube2() -> Self {
        MachineSpec {
            name: "nCUBE/2".into(),
            alpha: 160e-6,
            beta: 0.57e-6,
            tau: 5e-6,
            time_elem_op: 0.44e-6,
            time_copy_byte: 0.09e-6,
            topology: Topology::Hypercube,
        }
    }

    /// A Paragon-like mesh machine (extension; not in the paper's
    /// evaluation, used by portability tests to show a third target).
    ///
    /// Returns [`SpecError::NonPositiveDim`] when either mesh extent is
    /// zero or negative.
    pub fn paragon(rows: i64, cols: i64) -> Result<Self, SpecError> {
        if rows <= 0 {
            return Err(SpecError::NonPositiveDim {
                what: "rows",
                got: rows,
            });
        }
        if cols <= 0 {
            return Err(SpecError::NonPositiveDim {
                what: "cols",
                got: cols,
            });
        }
        Ok(MachineSpec {
            name: "Paragon-like mesh".into(),
            alpha: 50e-6,
            beta: 0.012e-6,
            tau: 2e-6,
            time_elem_op: 0.45e-6,
            time_copy_byte: 0.03e-6,
            topology: Topology::Mesh2D { rows, cols },
        })
    }

    /// The iPSC/860 cost constants on a k-ary torus interconnect — the
    /// machine the weak-scaling experiment extrapolates to. Validates
    /// every extent.
    pub fn torus(dims: &[i64]) -> Result<Self, SpecError> {
        if dims.is_empty() {
            return Err(SpecError::EmptyTorus);
        }
        for (i, &d) in dims.iter().enumerate() {
            if d <= 0 {
                // Leak-free static names for the handful of dims a torus
                // can realistically have; the index matters more than
                // allocating a fresh string for it.
                const NAMES: [&str; 4] = ["dims[0]", "dims[1]", "dims[2]", "dims[3+]"];
                return Err(SpecError::NonPositiveDim {
                    what: NAMES[i.min(3)],
                    got: d,
                });
            }
        }
        Ok(MachineSpec {
            topology: Topology::Torus {
                dims: dims.to_vec(),
            },
            name: "torus".into(),
            ..Self::ipsc860()
        })
    }

    /// The iPSC/860 cost constants under a fat-tree interconnect of
    /// `arity^levels` leaves. Validates both shape parameters.
    pub fn fat_tree(arity: i64, levels: i64) -> Result<Self, SpecError> {
        if arity < 2 {
            return Err(SpecError::NonPositiveDim {
                what: "arity",
                got: arity,
            });
        }
        if levels <= 0 {
            return Err(SpecError::NonPositiveDim {
                what: "levels",
                got: levels,
            });
        }
        Ok(MachineSpec {
            topology: Topology::FatTree { arity, levels },
            name: "fat-tree".into(),
            ..Self::ipsc860()
        })
    }

    /// Zero-latency, infinite-bandwidth machine with unit element cost —
    /// for unit tests that check *counts* rather than seconds.
    pub fn ideal() -> Self {
        MachineSpec {
            name: "ideal".into(),
            alpha: 0.0,
            beta: 0.0,
            tau: 0.0,
            time_elem_op: 1.0,
            time_copy_byte: 0.0,
            topology: Topology::Crossbar,
        }
    }

    /// Modelled time for one point-to-point message of `bytes` bytes
    /// between physical ranks `from` and `to`.
    pub fn msg_time(&self, from: i64, to: i64, bytes: i64) -> f64 {
        if from == to {
            // Self-messages are local copies.
            return self.time_copy_byte * bytes as f64;
        }
        self.alpha + self.beta * bytes as f64 + self.tau * self.topology.hops(from, to) as f64
    }

    /// Modelled time for `n` element operations of local computation.
    pub fn compute_time(&self, n: i64) -> f64 {
        self.time_elem_op * n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_hops_are_hamming() {
        let t = Topology::Hypercube;
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(0, 3), 2);
        assert_eq!(t.hops(5, 10), 4); // 0101 ^ 1010 = 1111
    }

    #[test]
    fn mesh_hops_are_manhattan() {
        let t = Topology::Mesh2D { rows: 4, cols: 4 };
        assert_eq!(t.hops(0, 5), 2); // (0,0) -> (1,1)
        assert_eq!(t.hops(3, 12), 6); // (0,3) -> (3,0)
    }

    #[test]
    fn torus_hops_are_circular_manhattan() {
        let t = Topology::Torus { dims: vec![4, 4] };
        // (0,0) -> (0,3): wraps in one hop, not three.
        assert_eq!(t.hops(0, 3), 1);
        // (0,0) -> (3,3): one wrap per dimension.
        assert_eq!(t.hops(0, 15), 2);
        // (0,1) -> (2,2): 2 rows + 1 col, no wrap shorter.
        assert_eq!(t.hops(1, 10), 3);
        // 1-D ring of 5: max distance is floor(5/2).
        let ring = Topology::Torus { dims: vec![5] };
        assert_eq!(ring.hops(0, 2), 2);
        assert_eq!(ring.hops(0, 3), 2);
    }

    #[test]
    fn fat_tree_hops_are_twice_lca_level() {
        let t = Topology::FatTree {
            arity: 4,
            levels: 3,
        };
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(0, 1), 2); // siblings under one level-1 switch
        assert_eq!(t.hops(0, 5), 4); // meet at level 2
        assert_eq!(t.hops(0, 63), 6); // opposite corners: through the root
        assert_eq!(t.hops(63, 0), 6);
    }

    #[test]
    fn constructors_reject_nonsense_shapes() {
        assert!(MachineSpec::paragon(4, 4).is_ok());
        assert_eq!(
            MachineSpec::paragon(0, 4),
            Err(SpecError::NonPositiveDim {
                what: "rows",
                got: 0
            })
        );
        assert_eq!(
            MachineSpec::paragon(4, -1),
            Err(SpecError::NonPositiveDim {
                what: "cols",
                got: -1
            })
        );
        assert!(MachineSpec::torus(&[8, 8]).is_ok());
        assert_eq!(MachineSpec::torus(&[]), Err(SpecError::EmptyTorus));
        assert_eq!(
            MachineSpec::torus(&[4, 0]),
            Err(SpecError::NonPositiveDim {
                what: "dims[1]",
                got: 0
            })
        );
        assert!(MachineSpec::fat_tree(4, 3).is_ok());
        assert_eq!(
            MachineSpec::fat_tree(1, 3),
            Err(SpecError::NonPositiveDim {
                what: "arity",
                got: 1
            })
        );
        assert_eq!(
            MachineSpec::fat_tree(4, 0),
            Err(SpecError::NonPositiveDim {
                what: "levels",
                got: 0
            })
        );
        // The error is printable and carries the offending value.
        let msg = MachineSpec::torus(&[-2]).unwrap_err().to_string();
        assert!(msg.contains("dims[0]") && msg.contains("-2"), "{msg}");
    }

    #[test]
    fn msg_time_structure() {
        let m = MachineSpec::ipsc860();
        let t1 = m.msg_time(0, 1, 1000);
        let t2 = m.msg_time(0, 1, 2000);
        assert!(t2 > t1);
        // startup dominates small messages
        let small = m.msg_time(0, 1, 8);
        assert!(small > 0.9 * m.alpha);
        // self message is only a copy
        assert!(m.msg_time(3, 3, 1000) < t1);
    }

    #[test]
    fn ncube_slower_than_ipsc() {
        let a = MachineSpec::ipsc860();
        let b = MachineSpec::ncube2();
        assert!(b.time_elem_op > 1.5 * a.time_elem_op);
        assert!(b.alpha > a.alpha);
    }
}
