//! Property tests for the three-stage mapping invariants:
//! ownership partitions, `μ⁻¹∘μ = id`, `set_BOUND` covers iteration spaces
//! exactly and disjointly for every distribution kind.

use f90d_distrib::{
    set_bound, AlignExpr, Alignment, AxisAlign, DadBuilder, DimDist, DistKind, ProcGrid, Template,
};
use proptest::prelude::*;

fn dist_kind() -> impl Strategy<Value = DistKind> {
    prop_oneof![
        Just(DistKind::Block),
        Just(DistKind::Cyclic),
        (2i64..6).prop_map(DistKind::BlockCyclic),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// μ⁻¹(μ(g)) = g and ownership is a partition for every kind.
    #[test]
    fn mu_roundtrip_and_partition(
        kind in dist_kind(),
        extent in 1i64..200,
        nprocs in 1i64..17,
    ) {
        let d = DimDist::new(kind, extent, nprocs);
        let mut owned = 0;
        for p in 0..nprocs {
            for g in d.owned_globals(p) {
                prop_assert_eq!(d.proc_of(g), p);
                let l = d.local_of(g);
                prop_assert_eq!(d.global_of(p, l), Some(g));
                owned += 1;
            }
            prop_assert_eq!(d.local_count(p), d.owned_globals(p).count() as i64);
        }
        prop_assert_eq!(owned, extent);
    }

    /// set_BOUND returns exactly the owned subset of the global range,
    /// for any sub-range and stride, and the union over processors is the
    /// whole iteration space with no overlaps.
    #[test]
    fn set_bound_partitions_iteration_space(
        kind in dist_kind(),
        extent in 1i64..120,
        nprocs in 1i64..9,
        lb_frac in 0.0f64..1.0,
        len in 0i64..120,
        gst in 1i64..7,
    ) {
        let d = DimDist::new(kind, extent, nprocs);
        let glb = ((extent - 1) as f64 * lb_frac) as i64;
        let gub = (glb + len).min(extent - 1);

        // Global iterations, in order.
        let mut globals = Vec::new();
        let mut g = glb;
        while g <= gub {
            globals.push(g);
            g += gst;
        }

        let mut seen: Vec<i64> = Vec::new();
        for p in 0..nprocs {
            let locals = set_bound(&d, p, glb, gub, gst).to_vec();
            // Every returned local maps back to an owned global in range.
            for &l in &locals {
                let back = d.global_of(p, l);
                prop_assert!(back.is_some(), "local {l} on p{p} maps to nothing");
                let back = back.unwrap();
                prop_assert!(globals.contains(&back));
                seen.push(back);
            }
        }
        seen.sort_unstable();
        let mut expect = globals.clone();
        expect.sort_unstable();
        prop_assert_eq!(seen, expect, "iterations lost or duplicated");
    }

    /// Affine alignment composed with distribution still partitions the
    /// array: each element owned by exactly one (non-replicated) node.
    #[test]
    fn aligned_dad_partitions(
        stride in prop_oneof![Just(1i64), Just(2i64), Just(-1i64)],
        offset in 0i64..5,
        extent in 1i64..40,
        kind in dist_kind(),
        nprocs in 1i64..7,
    ) {
        // Template big enough to hold the affine image.
        let lo = if stride > 0 { offset } else { stride * (extent - 1) + offset };
        prop_assume!(lo >= 0);
        let hi = if stride > 0 { stride * (extent - 1) + offset } else { offset };
        let text = hi + 1;
        let a = Alignment {
            axes: vec![AxisAlign::Aligned {
                template_dim: 0,
                expr: AlignExpr::new(stride, offset),
            }],
            replicated_template_dims: vec![],
        };
        let dad = DadBuilder::new("A", &[extent])
            .template(Template::new("T", &[text]))
            .align(a)
            .distribute(&[kind])
            .grid(ProcGrid::new(&[nprocs]))
            .build()
            .unwrap();

        let mut owners = vec![0usize; extent as usize];
        for rank in 0..nprocs {
            let coords = dad.grid.coords_of(rank);
            for (gidx, lidx) in dad.owned_elements(&coords) {
                owners[gidx[0] as usize] += 1;
                prop_assert_eq!(dad.global_index(&coords, &lidx), Some(gidx));
            }
        }
        prop_assert!(owners.iter().all(|&c| c == 1));
    }

    /// 2-D BLOCK×CYCLIC DADs: local shapes bound every local index.
    #[test]
    fn local_shape_bounds_all_locals(
        n in 1i64..24,
        m in 1i64..24,
        p in 1i64..5,
        q in 1i64..5,
        k0 in dist_kind(),
        k1 in dist_kind(),
    ) {
        let dad = DadBuilder::new("A", &[n, m])
            .distribute(&[k0, k1])
            .grid(ProcGrid::new(&[p, q]))
            .build()
            .unwrap();
        let shape = dad.local_shape();
        for rank in 0..dad.grid.size() {
            let coords = dad.grid.coords_of(rank);
            for (_, l) in dad.owned_elements(&coords) {
                for (d, (&li, &sh)) in l.iter().zip(&shape).enumerate() {
                    prop_assert!(li < sh, "dim {d}: local {li} >= alloc {sh}");
                }
            }
        }
    }
}
