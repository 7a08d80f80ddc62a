//! The SPMD intermediate representation.
//!
//! A compiled program is a statement tree in which communication appears
//! as explicit collective calls — the in-memory analogue of the
//! "Fortran 77 + MP" node code the paper's compiler emits (its §5.3
//! listings: `call set_BOUND`, `call multicast`, `call transfer`, loops
//! over local bounds). Execution is loosely synchronous: the tree is
//! walked once, scalar control flow is replicated, FORALLs partition
//! their iterations per rank and communication statements run
//! machine-wide.

use f90d_distrib::Dad;
use f90d_frontend::ast::{BinOp, UnOp};
use f90d_machine::{ElemType, Value};

/// Index of an array in the program's array table.
pub type ArrId = usize;

/// One distributed (or replicated) array of the compiled program.
#[derive(Debug, Clone)]
pub struct ArrayDecl {
    /// Source-level name.
    pub name: String,
    /// Element type.
    pub ty: ElemType,
    /// Three-stage mapping descriptor.
    pub dad: Dad,
    /// Ghost width allocated on every distributed dimension (the maximum
    /// compile-time shift constant the detector saw — Gerndt-style
    /// overlap areas).
    pub ghost: i64,
    /// `true` for compiler temporaries.
    pub is_temp: bool,
}

/// How an array read obtains its element (the communication tag the
/// detector attached — paper Tables 1 and 2 outcomes).
#[derive(Debug, Clone, PartialEq)]
pub enum ReadPlan {
    /// Owner-computes aligned read: subscripts form the global index,
    /// the element is in this rank's own segment (possibly in a ghost
    /// cell filled by `overlap_shift`).
    Owned,
    /// Read the rank-`r-1` slab temporary produced by `multicast` or
    /// `transfer` for fixed dimension `fixed_dim`.
    SlabTmp {
        /// The temporary.
        tmp: ArrId,
        /// The source dimension that was fixed.
        fixed_dim: usize,
    },
    /// Read the same-mapping temporary produced by `temporary_shift`:
    /// index it at the canonical (unshifted) position.
    SameTmp {
        /// The temporary.
        tmp: ArrId,
    },
    /// Read the next element of a sequential unstructured buffer
    /// (`precomp_read` / `gather` result, consumed in iteration order —
    /// the paper's `tmp(count)` idiom).
    Seq {
        /// The buffer.
        tmp: ArrId,
        /// Position of this ref among the forall's unstructured reads.
        slot: usize,
    },
    /// The array (or a concatenation result) is fully replicated: read
    /// directly at the global index.
    Replicated,
}

/// How a FORALL assignment's left-hand side is written.
#[derive(Debug, Clone, PartialEq)]
pub enum WritePlan {
    /// Owner computes: store at the local index of the global subscripts.
    Owned,
    /// Compute into a sequential buffer and `postcomp_write`/`scatter`
    /// to the owners after the loop (paper §4 cases 3/4).
    ScatterSeq {
        /// `true` when the subscripts are invertible (postcomp_write,
        /// schedule1); `false` for vector-valued/unknown (scatter,
        /// schedule3).
        invertible: bool,
    },
}

/// Compiled expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum SExpr {
    /// Literal.
    Const(Value),
    /// Replicated scalar variable.
    Scalar(String),
    /// Global (Fortran-value) of an enclosing FORALL/DO variable.
    LoopVar(String),
    /// Array element read.
    Read {
        /// Which array.
        arr: ArrId,
        /// How to fetch it.
        plan: ReadPlan,
        /// Global subscripts (0-based).
        subs: Vec<SExpr>,
    },
    /// Binary operation.
    Bin(BinOp, Box<SExpr>, Box<SExpr>),
    /// Unary operation.
    Un(UnOp, Box<SExpr>),
    /// Elemental intrinsic (ABS, SQRT, MOD, MIN, MAX, REAL, INT, …).
    Elemental(String, Vec<SExpr>),
}

impl SExpr {
    /// `true` when the subtree mentions any of `vars`.
    pub fn uses_any_var(&self, vars: &[String]) -> bool {
        match self {
            SExpr::LoopVar(n) => vars.iter().any(|v| v == n),
            SExpr::Read { subs, .. } => subs.iter().any(|s| s.uses_any_var(vars)),
            SExpr::Bin(_, l, r) => l.uses_any_var(vars) || r.uses_any_var(vars),
            SExpr::Un(_, x) => x.uses_any_var(vars),
            SExpr::Elemental(_, args) => args.iter().any(|a| a.uses_any_var(vars)),
            _ => false,
        }
    }

    /// Per-iteration element-operation cost after the node compiler's
    /// classic scalar optimizations (paper §7: common subexpression
    /// elimination etc. are "expected of the scalar node compiler"):
    /// subtrees invariant in the loop variables are hoisted and cost
    /// nothing per iteration.
    pub fn op_count_cse(&self, vars: &[String]) -> i64 {
        if !self.uses_any_var(vars) {
            return 0;
        }
        match self {
            SExpr::Const(_) | SExpr::Scalar(_) | SExpr::LoopVar(_) => 0,
            SExpr::Read { subs, .. } => 1 + subs.iter().map(|s| s.op_count_cse(vars)).sum::<i64>(),
            SExpr::Bin(_, l, r) => 1 + l.op_count_cse(vars) + r.op_count_cse(vars),
            SExpr::Un(_, x) => 1 + x.op_count_cse(vars),
            SExpr::Elemental(_, args) => 1 + args.iter().map(|a| a.op_count_cse(vars)).sum::<i64>(),
        }
    }

    /// Number of modelled element operations one evaluation costs.
    pub fn op_count(&self) -> i64 {
        match self {
            SExpr::Const(_) | SExpr::Scalar(_) | SExpr::LoopVar(_) => 0,
            SExpr::Read { subs, .. } => 1 + subs.iter().map(|s| s.op_count()).sum::<i64>(),
            SExpr::Bin(_, l, r) => 1 + l.op_count() + r.op_count(),
            SExpr::Un(_, x) => 1 + x.op_count(),
            SExpr::Elemental(_, args) => 1 + args.iter().map(|a| a.op_count()).sum::<i64>(),
        }
    }
}

/// Reduction kinds supported in scalar context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceKind {
    /// `SUM`
    Sum,
    /// `PRODUCT`
    Product,
    /// `MAXVAL`
    MaxVal,
    /// `MINVAL`
    MinVal,
    /// `COUNT`
    Count,
    /// `ALL`
    All,
    /// `ANY`
    Any,
    /// `DOTPRODUCT`
    DotProduct,
}

/// Collective communication statements (the generated `call …` lines).
#[derive(Debug, Clone, PartialEq)]
pub enum CommStmt {
    /// Broadcast slab `src[.., src_g, ..]` along the grid axis of `dim`
    /// into `tmp` (paper Fig. 4b).
    Multicast {
        /// Source array.
        src: ArrId,
        /// Slab temporary.
        tmp: ArrId,
        /// Fixed dimension.
        dim: usize,
        /// Global index of the slab (0-based).
        src_g: SExpr,
    },
    /// Move slab `src[.., src_g, ..]` to the owners of LHS index `dst_g`
    /// (paper Fig. 4a).
    Transfer {
        /// Source array.
        src: ArrId,
        /// Slab temporary.
        tmp: ArrId,
        /// Fixed dimension (of the source).
        dim: usize,
        /// Source global index.
        src_g: SExpr,
        /// Destination global index, in `dst_arr` index space.
        dst_g: SExpr,
        /// LHS array whose owners of `dst_g` receive the slab.
        dst_arr: ArrId,
        /// LHS dimension of `dst_g`.
        dst_dim: usize,
    },
    /// Fill ghost cells for a compile-time shift by `c` on `dim`.
    OverlapShift {
        /// The array whose overlap area is filled.
        arr: ArrId,
        /// Dimension.
        dim: usize,
        /// Shift constant.
        c: i64,
    },
    /// Runtime-amount shift into a same-mapping temporary.
    TempShift {
        /// Source array.
        src: ArrId,
        /// Temporary (same mapping as `src`).
        tmp: ArrId,
        /// Dimension.
        dim: usize,
        /// Shift amount.
        amount: SExpr,
    },
    /// Fused multicast+shift (paper §5.3.1 example 3).
    MulticastShift {
        /// Source array.
        src: ArrId,
        /// Slab temporary.
        tmp: ArrId,
        /// Broadcast dimension.
        mdim: usize,
        /// Global slab index.
        src_g: SExpr,
        /// Shift dimension.
        sdim: usize,
        /// Shift amount.
        amount: SExpr,
    },
    /// Concatenate a distributed array into a replicated temporary
    /// (Algorithm 1 step 11).
    Concat {
        /// Source array.
        src: ArrId,
        /// Replicated full-shape temporary.
        tmp: ArrId,
    },
    /// Broadcast one element of a distributed array into a replicated
    /// scalar (scalar-context reads of distributed elements).
    BroadcastElem {
        /// Source array.
        arr: ArrId,
        /// Global subscripts.
        subs: Vec<SExpr>,
        /// Destination scalar.
        target: String,
    },
    /// Full reduction into a replicated scalar (Table 3 category 2).
    ReduceScalar {
        /// Reduction operator.
        kind: ReduceKind,
        /// Operand.
        arr: ArrId,
        /// Second operand (DOTPRODUCT).
        arr2: Option<ArrId>,
        /// Destination scalar.
        target: String,
    },
}

/// One unstructured read of a FORALL: `tmp(count) = src(subs(i…))`
/// gathered before the loop.
#[derive(Debug, Clone, PartialEq)]
pub struct GatherSpec {
    /// Source array.
    pub src: ArrId,
    /// Sequential buffer.
    pub tmp: ArrId,
    /// Global subscripts as functions of the loop variables.
    pub subs: Vec<SExpr>,
    /// `true` when preprocessing is local-only (invertible subscripts →
    /// `schedule1`/`precomp_read`); `false` → `schedule2`/`gather`.
    pub local_only: bool,
}

/// One FORALL loop variable with its iteration partitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopSpec {
    /// Variable name.
    pub var: String,
    /// Global lower bound (0-based).
    pub lb: SExpr,
    /// Global upper bound (0-based, inclusive).
    pub ub: SExpr,
    /// Stride (positive).
    pub st: SExpr,
    /// Iteration-to-rank assignment.
    pub part: Partition,
}

/// Iteration-space partitioning of one FORALL variable (paper §4).
#[derive(Debug, Clone, PartialEq)]
pub enum Partition {
    /// Owner-computes through LHS dimension `dim` of `arr`, whose
    /// subscript is `a*var + b`: each rank runs the iterations whose LHS
    /// element it owns (computed with `set_BOUND`).
    OwnerDim {
        /// LHS array.
        arr: ArrId,
        /// LHS dimension.
        dim: usize,
        /// Subscript stride.
        a: i64,
        /// Subscript offset.
        b: i64,
    },
    /// Equal block split of the iteration space over all ranks (paper §4
    /// example 2: non-canonical LHS).
    BlockIter,
    /// Every rank runs every iteration (undistributed LHS dimension).
    Replicate,
}

/// The single elementwise assignment of a FORALL body.
#[derive(Debug, Clone, PartialEq)]
pub struct ElemAssign {
    /// Destination array.
    pub arr: ArrId,
    /// Global subscripts (0-based) as functions of the loop variables.
    pub subs: Vec<SExpr>,
    /// How the write lands.
    pub write: WritePlan,
    /// Value.
    pub rhs: SExpr,
}

/// A compiled FORALL: communication prelude, partitioned local loop,
/// communication postlude.
#[derive(Debug, Clone, PartialEq)]
pub struct ForallNode {
    /// Loop variables (outer to inner).
    pub vars: Vec<LoopSpec>,
    /// Optional mask (evaluated with global loop-variable values).
    pub mask: Option<SExpr>,
    /// Structured communication before the loop.
    pub pre: Vec<CommStmt>,
    /// Unstructured reads (inspector + executor before the loop).
    pub gathers: Vec<GatherSpec>,
    /// Fixed distributed LHS dimensions `(arr, dim, index)`: only ranks
    /// owning `index` on `dim` run the loop (`set_BOUND` masking of
    /// inactive processors, paper §4).
    pub owner_filter: Vec<(ArrId, usize, SExpr)>,
    /// The body's elementwise assignment.
    pub body: ElemAssign,
    /// Comm-phase membership assigned by the phase planner
    /// ([`crate::optimize`], gated by `OptFlags::comm_plan`). `None` for
    /// every FORALL unless the planner grouped this statement: then the
    /// first member of the group is the `Lead` and the rest are
    /// `Member`s, and executors post the whole group's ghost exchanges
    /// as one coalesced batch before running any member's loop. Purely
    /// an annotation — the `pre` lists stay in place, so any executor
    /// that ignores the plan still runs the per-statement schedule.
    pub plan: Option<PhaseRole>,
}

/// Role of a FORALL inside a planner-formed comm phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseRole {
    /// First statement of a phase of `len` consecutive FORALLs
    /// (including itself). The lead's executor batches the ghost
    /// exchanges of all `len` members.
    Lead {
        /// Number of FORALLs in the phase, `>= 1`.
        len: usize,
    },
    /// Non-lead member: its ghost exchanges were posted by the lead, so
    /// its own prelude is skipped when the plan is honoured.
    Member,
}

/// Runtime-library whole-statement calls (array-valued intrinsics and
/// redistribution).
#[derive(Debug, Clone, PartialEq)]
pub enum RtCall {
    /// `dst = CSHIFT(src, shift, dim)`
    CShift {
        /// Source.
        src: ArrId,
        /// Destination.
        dst: ArrId,
        /// Dimension (0-based).
        dim: usize,
        /// Shift amount.
        shift: SExpr,
    },
    /// `dst = EOSHIFT(src, shift, boundary, dim)`
    EoShift {
        /// Source.
        src: ArrId,
        /// Destination.
        dst: ArrId,
        /// Dimension.
        dim: usize,
        /// Shift amount.
        shift: SExpr,
        /// Boundary fill.
        boundary: SExpr,
    },
    /// `dst = TRANSPOSE(src)`
    Transpose {
        /// Source.
        src: ArrId,
        /// Destination.
        dst: ArrId,
    },
    /// `c = MATMUL(a, b)`
    Matmul {
        /// Left operand.
        a: ArrId,
        /// Right operand.
        b: ArrId,
        /// Result.
        c: ArrId,
    },
    /// Change an array's distribution at runtime (extension).
    Redistribute {
        /// The array.
        arr: ArrId,
        /// The new descriptor.
        new_dad: Dad,
    },
    /// Copy `src` into the differently-mapped `dst` (subroutine-boundary
    /// redistribution, paper §6).
    RemapCopy {
        /// Source array.
        src: ArrId,
        /// Destination array (may have any mapping of the same shape).
        dst: ArrId,
    },
}

/// One `PRINT *,` item.
#[derive(Debug, Clone, PartialEq)]
pub enum PrintItem {
    /// A character literal, printed verbatim.
    Text(String),
    /// A scalar expression.
    Val(SExpr),
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum SStmt {
    /// A standalone collective call.
    Comm(CommStmt),
    /// A compiled FORALL.
    Forall(ForallNode),
    /// Replicated scalar assignment.
    ScalarAssign {
        /// Scalar name.
        name: String,
        /// Value.
        rhs: SExpr,
    },
    /// Element assignment executed by the owners (`A(3) = …`).
    OwnerAssign {
        /// Destination array.
        arr: ArrId,
        /// Global subscripts.
        subs: Vec<SExpr>,
        /// Value.
        rhs: SExpr,
    },
    /// Sequential DO (replicated control flow).
    DoSeq {
        /// Loop variable (Fortran value semantics — 1-based user values).
        var: String,
        /// Bounds and stride.
        lb: SExpr,
        /// Upper bound.
        ub: SExpr,
        /// Stride.
        st: SExpr,
        /// Body.
        body: Vec<SStmt>,
    },
    /// Replicated conditional.
    If {
        /// Condition.
        cond: SExpr,
        /// Then branch.
        then: Vec<SStmt>,
        /// Else branch.
        else_: Vec<SStmt>,
    },
    /// `PRINT *,` — evaluated once, output collected by the executor.
    Print {
        /// Items.
        items: Vec<PrintItem>,
    },
    /// Runtime-library call.
    Runtime(RtCall),
}

/// A compiled SPMD program.
#[derive(Debug, Clone)]
pub struct SProgram {
    /// Logical grid shape.
    pub grid_shape: Vec<i64>,
    /// Array table.
    pub arrays: Vec<ArrayDecl>,
    /// Scalar names and types (replicated).
    pub scalars: Vec<(String, ElemType)>,
    /// Statements.
    pub stmts: Vec<SStmt>,
}

impl SProgram {
    /// Find an array id by name.
    pub fn array_id(&self, name: &str) -> Option<ArrId> {
        self.arrays.iter().position(|a| a.name == name)
    }

    /// Count communication statements of every kind in the whole tree
    /// (used by optimizer tests).
    pub fn comm_census(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut census = std::collections::BTreeMap::new();
        fn comm_name(c: &CommStmt) -> &'static str {
            match c {
                CommStmt::Multicast { .. } => "multicast",
                CommStmt::Transfer { .. } => "transfer",
                CommStmt::OverlapShift { .. } => "overlap_shift",
                CommStmt::TempShift { .. } => "temporary_shift",
                CommStmt::MulticastShift { .. } => "multicast_shift",
                CommStmt::Concat { .. } => "concatenation",
                CommStmt::BroadcastElem { .. } => "broadcast_elem",
                CommStmt::ReduceScalar { .. } => "reduce",
            }
        }
        fn walk(stmts: &[SStmt], census: &mut std::collections::BTreeMap<&'static str, usize>) {
            for s in stmts {
                match s {
                    SStmt::Comm(c) => *census.entry(comm_name(c)).or_insert(0) += 1,
                    SStmt::Forall(f) => {
                        for c in &f.pre {
                            *census.entry(comm_name(c)).or_insert(0) += 1;
                        }
                        for g in &f.gathers {
                            let name = if g.local_only {
                                "precomp_read"
                            } else {
                                "gather"
                            };
                            *census.entry(name).or_insert(0) += 1;
                        }
                        if let WritePlan::ScatterSeq { invertible } = f.body.write {
                            let name = if invertible {
                                "postcomp_write"
                            } else {
                                "scatter"
                            };
                            *census.entry(name).or_insert(0) += 1;
                        }
                    }
                    SStmt::DoSeq { body, .. } => walk(body, census),
                    SStmt::If { then, else_, .. } => {
                        walk(then, census);
                        walk(else_, census);
                    }
                    _ => {}
                }
            }
        }
        walk(&self.stmts, &mut census);
        census
    }
}
