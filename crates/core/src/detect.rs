//! Communication detection — paper §5.2, Algorithm 1, Tables 1 and 2.
//!
//! For every RHS array reference of a FORALL, each subscript is paired
//! with the LHS subscript aligned to the same template dimension and the
//! pair is matched against Table 1 (structured patterns). Dimensions left
//! untagged fall to Table 2 (unstructured): invertible `f(i)` →
//! `precomp_read`/`postcomp_write`, vector-valued `V(i)` →
//! `gather`/`scatter`, unknown → `gather`/`scatter`. An undistributed
//! LHS tags distributed RHS arrays with `concatenation` (step 11).
//!
//! Structured tags are only emitted when both arrays are aligned to the
//! same template with unit alignment stride on the paired dimension —
//! non-unit alignments route through the (always-correct) unstructured
//! path.

use std::collections::HashMap;

use f90d_frontend::ast::{BinOp, Expr, Subscript, UnOp};
use f90d_frontend::sema::{affine_of, expr_uses_var};

/// Classification of one subscript expression relative to the FORALL
/// index variables.
#[derive(Debug, Clone, PartialEq)]
pub enum SubPattern {
    /// `a*v + b` for exactly one index variable `v`.
    Affine {
        /// The variable.
        var: String,
        /// Stride.
        a: i64,
        /// Offset.
        b: i64,
    },
    /// `v + s` where `s` is a loop-invariant scalar expression (the
    /// paper's `(i, i±s)` rows).
    VarPlusScalar {
        /// The variable.
        var: String,
        /// The scalar shift expression (may be negative via `Sub`).
        shift: Expr,
    },
    /// No index variable at all: compile-time constant or scalar.
    ScalarInvariant(Expr),
    /// Contains an array reference subscripted by an index variable
    /// (vector-valued, `V(i)`).
    VectorValued,
    /// Anything else (e.g. `i + j`, `i*i`).
    Unknown,
}

/// Classify one subscript expression.
pub fn classify_subscript(e: &Expr, vars: &[String], params: &HashMap<String, i64>) -> SubPattern {
    // Vector-valued: any array-style Ref inside that uses an index var.
    if contains_indexed_ref(e, vars) {
        return SubPattern::VectorValued;
    }
    let used: Vec<&String> = vars.iter().filter(|v| expr_uses_var(e, v)).collect();
    match used.len() {
        0 => SubPattern::ScalarInvariant(e.clone()),
        1 => {
            let var = used[0].clone();
            if let Some((a, b)) = affine_of(e, &var, params) {
                return SubPattern::Affine { var, a, b };
            }
            // General linear split: e = a*var + rest with a loop-invariant
            // symbolic rest (the paper's `i ± s` rows).
            if let Some((1, rest)) = split_linear(e, &var, params) {
                return SubPattern::VarPlusScalar {
                    var,
                    shift: f90d_frontend::normalize::simplify(rest),
                };
            }
            SubPattern::Unknown
        }
        _ => SubPattern::Unknown,
    }
}

/// Split `e` as `coeff*var + rest` where `rest` does not mention `var`.
/// Returns `None` when `e` is not linear in `var` with a literal
/// coefficient.
pub fn split_linear(e: &Expr, var: &str, params: &HashMap<String, i64>) -> Option<(i64, Expr)> {
    if !expr_uses_var(e, var) {
        return Some((0, e.clone()));
    }
    match e {
        Expr::Var(n) if n == var => Some((1, Expr::Int(0))),
        Expr::Un(UnOp::Neg, x) => {
            let (c, r) = split_linear(x, var, params)?;
            Some((-c, Expr::Un(UnOp::Neg, Box::new(r))))
        }
        Expr::Bin(BinOp::Add, l, r) => {
            let (c1, r1) = split_linear(l, var, params)?;
            let (c2, r2) = split_linear(r, var, params)?;
            Some((c1 + c2, Expr::bin(BinOp::Add, r1, r2)))
        }
        Expr::Bin(BinOp::Sub, l, r) => {
            let (c1, r1) = split_linear(l, var, params)?;
            let (c2, r2) = split_linear(r, var, params)?;
            Some((c1 - c2, Expr::bin(BinOp::Sub, r1, r2)))
        }
        Expr::Bin(BinOp::Mul, l, r) => {
            // One side must be a literal constant for the coefficient to
            // stay a compile-time integer.
            let lc = f90d_frontend::sema::const_eval(l, params).ok();
            let rc = f90d_frontend::sema::const_eval(r, params).ok();
            if let Some(k) = lc {
                let (c, rest) = split_linear(r, var, params)?;
                return Some((k * c, Expr::bin(BinOp::Mul, Expr::Int(k), rest)));
            }
            if let Some(k) = rc {
                let (c, rest) = split_linear(l, var, params)?;
                return Some((k * c, Expr::bin(BinOp::Mul, rest, Expr::Int(k))));
            }
            None
        }
        _ => None,
    }
}

fn contains_indexed_ref(e: &Expr, vars: &[String]) -> bool {
    match e {
        Expr::Ref(_, subs) => subs.iter().any(|s| match s {
            Subscript::Index(ix) => {
                vars.iter().any(|v| expr_uses_var(ix, v)) || contains_indexed_ref(ix, vars)
            }
            _ => false,
        }),
        Expr::Bin(_, l, r) => contains_indexed_ref(l, vars) || contains_indexed_ref(r, vars),
        Expr::Un(_, x) => contains_indexed_ref(x, vars),
        _ => false,
    }
}

/// The structured/unstructured tag of one RHS dimension (Table 1 third
/// column / Table 2 third column).
#[derive(Debug, Clone, PartialEq)]
pub enum DimTag {
    /// `(i, i)` — no communication.
    NoComm,
    /// `(i, i±c)` — shift into the overlap area, compile-time `c`.
    OverlapShift(i64),
    /// `(i, i±s)` — shift into a temporary, runtime amount.
    TempShift(Expr),
    /// `(i, s)` — broadcast the slab at `s` along this dimension's axis.
    Multicast(Expr),
    /// `(d, s)` — single line to single line.
    Transfer {
        /// RHS fixed index.
        src: Expr,
        /// LHS fixed index (its owners receive).
        dst: Expr,
    },
    /// Fall through to Table 2 for the whole reference.
    Unstructured(UnstructKind),
}

/// Table 2 family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnstructKind {
    /// Invertible `f(i)` — local-only preprocessing.
    PrecompRead,
    /// `V(i)` or unknown — preprocessing needs communication.
    Gather,
}

/// Per-dimension alignment summary used by the pair matcher: unit-stride
/// alignment offset onto the shared template dimension, or `None` when
/// the alignment is not unit-stride / dims are not co-aligned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DimAlign {
    /// Template dimension both array dims map to.
    pub tdim: usize,
    /// Alignment offset (template = index + off), requires stride 1.
    pub off: i64,
    /// `true` when the template dimension is BLOCK-distributed (enables
    /// `overlap_shift`; CYCLIC shifts use the temporary form).
    pub block: bool,
}

/// Match one `(lhs, rhs)` subscript pair (paper Table 1). `la`/`ra` are
/// the unit-stride alignment summaries of the two dimensions onto the
/// same template dimension; pass `None` to force the unstructured path.
pub fn classify_pair(
    lhs: &SubPattern,
    rhs: &SubPattern,
    la: Option<DimAlign>,
    ra: Option<DimAlign>,
) -> DimTag {
    let (Some(la), Some(ra)) = (la, ra) else {
        return DimTag::Unstructured(unstructured_of(rhs));
    };
    if la.tdim != ra.tdim {
        return DimTag::Unstructured(unstructured_of(rhs));
    }
    match (lhs, rhs) {
        // rows 2,3,7: (i, i±c) including c = 0
        (
            SubPattern::Affine {
                var: lv,
                a: 1,
                b: lb,
            },
            SubPattern::Affine {
                var: rv,
                a: 1,
                b: rb,
            },
        ) if lv == rv => {
            // Template-space shift.
            let c = (rb + ra.off) - (lb + la.off);
            if c == 0 {
                DimTag::NoComm
            } else if la.off != ra.off {
                // Differently-offset alignments: the receiving line may
                // own no source elements at all, so the ghost/temporary
                // shift machinery does not apply — take the (always
                // correct) invertible unstructured path.
                DimTag::Unstructured(UnstructKind::PrecompRead)
            } else if ra.block {
                DimTag::OverlapShift(c)
            } else {
                DimTag::TempShift(Expr::Int(c))
            }
        }
        // rows 4,5: (i, i±s)
        (
            SubPattern::Affine {
                var: lv,
                a: 1,
                b: lb,
            },
            SubPattern::VarPlusScalar { var: rv, shift },
        ) if lv == rv && la.off == ra.off => DimTag::TempShift(fold_add(shift.clone(), -lb)),
        // row 1: (i, s)
        (SubPattern::Affine { a: 1, .. }, SubPattern::ScalarInvariant(s)) => {
            DimTag::Multicast(s.clone())
        }
        // row 6: (d, s)
        (SubPattern::ScalarInvariant(d), SubPattern::ScalarInvariant(s)) => DimTag::Transfer {
            src: s.clone(),
            dst: d.clone(),
        },
        // Everything else is unstructured (including stride ≠ 1 affines,
        // which are invertible → precomp_read).
        _ => DimTag::Unstructured(unstructured_of(rhs)),
    }
}

/// Table 2: the unstructured family of a subscript pattern.
pub fn unstructured_of(p: &SubPattern) -> UnstructKind {
    match p {
        SubPattern::Affine { .. }
        | SubPattern::ScalarInvariant(_)
        | SubPattern::VarPlusScalar { .. } => UnstructKind::PrecompRead,
        SubPattern::VectorValued | SubPattern::Unknown => UnstructKind::Gather,
    }
}

fn fold_add(e: Expr, c: i64) -> Expr {
    f90d_frontend::normalize::simplify(e.plus(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars() -> Vec<String> {
        vec!["I".into(), "J".into()]
    }

    fn params() -> HashMap<String, i64> {
        HashMap::from([("N".into(), 64)])
    }

    fn var(n: &str) -> Expr {
        Expr::Var(n.into())
    }

    fn cls(e: Expr) -> SubPattern {
        classify_subscript(&e, &vars(), &params())
    }

    fn al(block: bool) -> Option<DimAlign> {
        Some(DimAlign {
            tdim: 0,
            off: 0,
            block,
        })
    }

    // ---- Table 1 rows (EXP-T1) -----------------------------------------

    #[test]
    fn table1_row1_multicast() {
        // (i, s): FORALL(I) … = B(…, S)
        let lhs = cls(var("I"));
        let rhs = cls(var("S")); // scalar, undeclared var is loop-invariant
        assert_eq!(
            classify_pair(&lhs, &rhs, al(true), al(true)),
            DimTag::Multicast(var("S"))
        );
    }

    #[test]
    fn table1_rows2_3_overlap_shift() {
        // (i, i+c) / (i, i-c) on BLOCK
        for (c, expect) in [(2i64, 2i64), (-3, -3)] {
            let lhs = cls(var("I"));
            let rhs = cls(var("I").plus(c));
            assert_eq!(
                classify_pair(&lhs, &rhs, al(true), al(true)),
                DimTag::OverlapShift(expect),
                "c={c}"
            );
        }
    }

    #[test]
    fn table1_rows4_5_temporary_shift() {
        // (i, i+s) with runtime s
        let lhs = cls(var("I"));
        let rhs = cls(Expr::bin(BinOp::Add, var("I"), var("S")));
        assert_eq!(
            classify_pair(&lhs, &rhs, al(true), al(true)),
            DimTag::TempShift(var("S"))
        );
        let rhs2 = cls(Expr::bin(BinOp::Sub, var("I"), var("S")));
        match classify_pair(&lhs, &rhs2, al(true), al(true)) {
            DimTag::TempShift(Expr::Un(UnOp::Neg, inner)) => {
                assert_eq!(*inner, var("S"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn table1_row6_transfer() {
        // (d, s): A(I, 8) = B(I, 3) second dimension
        let lhs = cls(Expr::Int(7)); // 0-based 8
        let rhs = cls(Expr::Int(2)); // 0-based 3
        assert_eq!(
            classify_pair(&lhs, &rhs, al(true), al(true)),
            DimTag::Transfer {
                src: Expr::Int(2),
                dst: Expr::Int(7)
            }
        );
    }

    #[test]
    fn table1_row7_no_communication() {
        let lhs = cls(var("I"));
        let rhs = cls(var("I"));
        assert_eq!(
            classify_pair(&lhs, &rhs, al(true), al(true)),
            DimTag::NoComm
        );
    }

    #[test]
    fn cyclic_shift_uses_temporary() {
        // The paper presents Table 1 for BLOCK; cyclic analogues exist but
        // shifts land in temporaries.
        let lhs = cls(var("I"));
        let rhs = cls(var("I").plus(1));
        assert_eq!(
            classify_pair(&lhs, &rhs, al(false), al(false)),
            DimTag::TempShift(Expr::Int(1))
        );
    }

    #[test]
    fn alignment_offsets_route_unstructured() {
        // LHS aligned with offset 1, RHS identity: the receiving grid
        // line may own no RHS elements, so the pair is not a structured
        // shift — it routes through precomp_read.
        let lhs = cls(var("I"));
        let rhs = cls(var("I"));
        let la = Some(DimAlign {
            tdim: 0,
            off: 1,
            block: true,
        });
        let ra = Some(DimAlign {
            tdim: 0,
            off: 0,
            block: true,
        });
        assert_eq!(
            classify_pair(&lhs, &rhs, la, ra),
            DimTag::Unstructured(UnstructKind::PrecompRead)
        );
        // Co-aligned offsets keep the structured shift.
        let both = Some(DimAlign {
            tdim: 0,
            off: 1,
            block: true,
        });
        let rhs2 = cls(var("I").plus(1));
        assert_eq!(
            classify_pair(&lhs, &rhs2, both, both),
            DimTag::OverlapShift(1)
        );
    }

    #[test]
    fn different_template_dims_fall_through() {
        let lhs = cls(var("I"));
        let rhs = cls(var("I"));
        let la = Some(DimAlign {
            tdim: 0,
            off: 0,
            block: true,
        });
        let ra = Some(DimAlign {
            tdim: 1,
            off: 0,
            block: true,
        });
        assert_eq!(
            classify_pair(&lhs, &rhs, la, ra),
            DimTag::Unstructured(UnstructKind::PrecompRead)
        );
    }

    // ---- Table 2 rows (EXP-T2) -----------------------------------------

    #[test]
    fn table2_row1_invertible() {
        // f(i) = 2i + 1 — invertible → precomp_read / postcomp_write.
        let lhs = cls(var("I"));
        let rhs = cls(Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::Int(2), var("I")),
            Expr::Int(1),
        ));
        assert_eq!(
            rhs,
            SubPattern::Affine {
                var: "I".into(),
                a: 2,
                b: 1
            }
        );
        assert_eq!(
            classify_pair(&lhs, &rhs, al(true), al(true)),
            DimTag::Unstructured(UnstructKind::PrecompRead)
        );
    }

    #[test]
    fn table2_row2_vector_valued() {
        // V(i) → gather / scatter.
        let rhs = cls(Expr::Ref("V".into(), vec![Subscript::Index(var("I"))]));
        assert_eq!(rhs, SubPattern::VectorValued);
        assert_eq!(unstructured_of(&rhs), UnstructKind::Gather);
    }

    #[test]
    fn table2_row3_unknown() {
        // i + j involves two FORALL indices → unknown → gather / scatter.
        let rhs = cls(Expr::bin(BinOp::Add, var("I"), var("J")));
        assert_eq!(rhs, SubPattern::Unknown);
        assert_eq!(unstructured_of(&rhs), UnstructKind::Gather);
    }

    #[test]
    fn non_canonical_lhs_detected_as_affine() {
        // The FFT example: x(i + 2*incrm*j + incrm) uses two vars.
        let e = Expr::bin(
            BinOp::Add,
            var("I"),
            Expr::bin(BinOp::Mul, var("J"), Expr::Int(8)),
        );
        assert_eq!(cls(e), SubPattern::Unknown);
        // whereas a single-var non-canonical stays affine:
        assert_eq!(
            cls(Expr::bin(BinOp::Mul, Expr::Int(2), var("I"))),
            SubPattern::Affine {
                var: "I".into(),
                a: 2,
                b: 0
            }
        );
    }

    #[test]
    fn scalar_invariant_with_params() {
        assert_eq!(
            cls(Expr::bin(BinOp::Sub, var("N"), Expr::Int(1))),
            SubPattern::ScalarInvariant(Expr::bin(BinOp::Sub, var("N"), Expr::Int(1)))
        );
    }
}
