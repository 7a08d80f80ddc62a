//! The register bytecode a compiled SPMD node program lowers to.
//!
//! Expressions become flat [`ExprCode`] register programs — no tree
//! recursion, no name lookups: scalars, loop variables, constants and
//! array accessors are all resolved to table slots at lowering time, and
//! affine subscripts (`a*i + b`) collapse to a single [`Op::Affine`].
//! Statement-level control flow is a flat [`PInst`] stream with explicit
//! jump targets; FORALL loops, communication calls and runtime calls are
//! table-driven super-instructions executed by [`crate::engine::Engine`].

use f90d_distrib::Dad;
use f90d_frontend::ast::{BinOp, UnOp};
use f90d_machine::{ElemType, Value};

use crate::ops::Intrin;

/// Index of an array in the program's array table.
pub type ArrId = usize;

/// A register index within one [`ExprCode`].
pub type Reg = u16;

/// One declared array of the lowered program (copied from the IR so the
/// engine is self-contained).
#[derive(Debug, Clone)]
pub struct VmArrayDecl {
    /// Source-level (or temporary) name, as allocated on node memories.
    pub name: String,
    /// Element type.
    pub ty: ElemType,
    /// Compile-time mapping descriptor (REDISTRIBUTE may replace it at
    /// run time; the engine tracks live descriptors separately).
    pub dad: Dad,
    /// Ghost width on distributed dimensions.
    pub ghost: i64,
    /// `true` for compiler temporaries.
    pub is_temp: bool,
}

/// How a `Read` instruction locates its element (static half; the engine
/// resolves this against the live descriptors per FORALL execution).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AccPlan {
    /// Owner-computes read of the rank's own segment (ghosts allowed);
    /// also used for fully replicated arrays.
    Owned {
        /// The array.
        arr: ArrId,
    },
    /// Read a slab temporary produced by multicast/transfer; the
    /// subscript of `fixed_dim` is dropped at lowering.
    Slab {
        /// The temporary.
        tmp: ArrId,
        /// Fixed source dimension.
        fixed_dim: usize,
    },
    /// Read a same-mapping temporary at the canonical position.
    Same {
        /// The temporary.
        tmp: ArrId,
    },
}

impl AccPlan {
    /// The array actually read.
    pub fn target(&self) -> ArrId {
        match *self {
            AccPlan::Owned { arr } => arr,
            AccPlan::Slab { tmp, .. } | AccPlan::Same { tmp } => tmp,
        }
    }
}

/// One bytecode instruction of an expression program.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `r[dst] = consts[k]`
    Const {
        /// Destination register.
        dst: Reg,
        /// Constant-table index.
        k: u16,
    },
    /// `r[dst] = Int(vars[slot])` — a loop variable.
    LoadVar {
        /// Destination register.
        dst: Reg,
        /// Loop-variable slot.
        slot: u16,
    },
    /// `r[dst] = scalars[slot]` — a replicated program scalar.
    LoadScalar {
        /// Destination register.
        dst: Reg,
        /// Scalar slot.
        slot: u16,
    },
    /// `r[dst] = Int(a * vars[slot] + b)` — a folded affine subscript.
    Affine {
        /// Destination register.
        dst: Reg,
        /// Loop-variable slot.
        slot: u16,
        /// Stride.
        a: i64,
        /// Offset.
        b: i64,
    },
    /// `r[dst] = r[a] <op> r[b]`
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
    },
    /// `r[dst] = <op> r[a]`
    Un {
        /// Operator.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Operand register.
        a: Reg,
    },
    /// `r[dst] = f(r[base..base+n])`
    Intrin {
        /// Resolved intrinsic.
        f: Intrin,
        /// Destination register.
        dst: Reg,
        /// First argument register (arguments are consecutive).
        base: Reg,
        /// Argument count.
        n: u16,
    },
    /// `r[dst] = element of accessors[acc] at subscripts r[base..base+n]`
    Read {
        /// Destination register.
        dst: Reg,
        /// Accessor-table index.
        acc: u16,
        /// First subscript register (subscripts are consecutive,
        /// evaluated as integers).
        base: Reg,
        /// Subscript count (the source array rank, before any slab
        /// dimension drop).
        n: u16,
    },
    /// `r[dst] = next element of gather buffer `gather`` (sequential
    /// `tmp(count)` read; bumps the per-rank counter).
    ReadSeq {
        /// Destination register.
        dst: Reg,
        /// Index into the enclosing FORALL's gather list.
        gather: u16,
    },
}

/// A compiled expression: straight-line register program.
#[derive(Debug, Clone, Default)]
pub struct ExprCode {
    /// Instructions in evaluation order.
    pub ops: Vec<Op>,
    /// Register holding the result.
    pub out: Reg,
    /// Number of registers the program needs.
    pub nregs: u16,
}

/// Iteration-to-rank partitioning of one FORALL variable (mirror of the
/// IR's `Partition`, with resolved array ids).
#[derive(Debug, Clone)]
pub enum VmPartition {
    /// Owner-computes over LHS dimension `dim` of `arr` with subscript
    /// `a*var + b` (`set_BOUND`).
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
    /// Equal block split of the iteration space over all ranks.
    BlockIter,
    /// Every rank runs every iteration.
    Replicate,
}

/// One FORALL loop variable with compiled bounds.
#[derive(Debug, Clone)]
pub struct VmLoopSpec {
    /// Loop-variable slot.
    pub var: u16,
    /// Lower bound (scalar context).
    pub lb: ExprCode,
    /// Upper bound (inclusive).
    pub ub: ExprCode,
    /// Stride (positive).
    pub st: ExprCode,
    /// Partitioning.
    pub part: VmPartition,
}

/// One unstructured gather of a FORALL.
#[derive(Debug, Clone)]
pub struct VmGather {
    /// Source array.
    pub src: ArrId,
    /// Sequential buffer.
    pub tmp: ArrId,
    /// Subscripts as functions of the loop variables.
    pub subs: Vec<ExprCode>,
    /// `true` → `schedule1`/`precomp_read`; `false` → `schedule2`/`gather`.
    pub local_only: bool,
}

/// One elementwise assignment of a FORALL body.
#[derive(Debug, Clone)]
pub struct VmAssign {
    /// Destination array.
    pub arr: ArrId,
    /// Global subscripts.
    pub subs: Vec<ExprCode>,
    /// Value.
    pub rhs: ExprCode,
    /// Accessor used to compute owned-write offsets (`None` for scatter
    /// writes).
    pub lhs_acc: Option<u16>,
    /// `Some(invertible)` for scatter writes.
    pub scatter: Option<bool>,
    /// Modelled element-operation cost per executed iteration.
    pub cost: i64,
}

/// A lowered FORALL super-instruction.
#[derive(Debug, Clone)]
pub struct VmForall {
    /// Loop variables, outer to inner.
    pub vars: Vec<VmLoopSpec>,
    /// Optional mask (element context).
    pub mask: Option<ExprCode>,
    /// Modelled cost of one mask evaluation.
    pub mask_cost: i64,
    /// Communication prelude (comm-table indices).
    pub pre: Vec<u16>,
    /// Unstructured reads.
    pub gathers: Vec<VmGather>,
    /// `set_BOUND` masking of inactive processors.
    pub owner_filter: Vec<(ArrId, usize, ExprCode)>,
    /// The body's elementwise assignment.
    pub body: VmAssign,
    /// Accessor ids the element loop references (for per-rank resolution).
    pub accs_used: Vec<u16>,
    /// Native-tier kernel selected at lowering time
    /// ([`VmProgram::natives`] index), or `None` when the bytecode
    /// element loop is the only executor. Even with a kernel present the
    /// engine re-checks dispatch preconditions per execution (live
    /// descriptors, scalar value types, iteration-box bounds) and falls
    /// back to bytecode — counted in `Engine::native_counts` — when any
    /// fails.
    pub native: Option<crate::native::KernelId>,
    /// Comm-phase membership copied from the IR planner annotation
    /// (`ForallNode::plan`). The engine batches the ghost exchanges of a
    /// `Lead` and its following `len - 1` members into one coalesced
    /// exchange when `Engine::plan` is on; otherwise (or on a runtime
    /// planning refusal) the per-statement `pre` lists run as usual.
    pub plan: Option<VmPhase>,
}

/// Mirror of the IR's `PhaseRole` for lowered FORALLs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmPhase {
    /// First member of a phase of `len` consecutive FORALL instructions.
    Lead {
        /// Phase length including the lead.
        len: u16,
    },
    /// Non-lead member (prelude posted by the lead).
    Member,
}

/// Reduction kinds (mirror of the IR's `ReduceKind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmReduce {
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

/// A lowered collective communication statement.
#[derive(Debug, Clone)]
pub enum VmComm {
    /// Broadcast slab along the grid axis of `dim`.
    Multicast {
        /// Source array.
        src: ArrId,
        /// Slab temporary.
        tmp: ArrId,
        /// Fixed dimension.
        dim: usize,
        /// Global slab index.
        src_g: ExprCode,
    },
    /// Move a slab to the owners of an LHS index.
    Transfer {
        /// Source array.
        src: ArrId,
        /// Slab temporary.
        tmp: ArrId,
        /// Fixed source dimension.
        dim: usize,
        /// Source global index.
        src_g: ExprCode,
        /// Destination global index.
        dst_g: ExprCode,
        /// LHS array.
        dst_arr: ArrId,
        /// LHS dimension.
        dst_dim: usize,
    },
    /// Fill ghost cells for a compile-time shift.
    OverlapShift {
        /// The array.
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
        /// Temporary.
        tmp: ArrId,
        /// Dimension.
        dim: usize,
        /// Shift amount.
        amount: ExprCode,
    },
    /// Fused multicast + shift.
    MulticastShift {
        /// Source array.
        src: ArrId,
        /// Slab temporary.
        tmp: ArrId,
        /// Broadcast dimension.
        mdim: usize,
        /// Global slab index.
        src_g: ExprCode,
        /// Shift dimension.
        sdim: usize,
        /// Shift amount.
        amount: ExprCode,
    },
    /// Concatenate into a replicated temporary.
    Concat {
        /// Source array.
        src: ArrId,
        /// Replicated temporary.
        tmp: ArrId,
    },
    /// Broadcast one element into a replicated scalar.
    BroadcastElem {
        /// Source array.
        arr: ArrId,
        /// Global subscripts.
        subs: Vec<ExprCode>,
        /// Destination scalar slot.
        target: u16,
    },
    /// Full reduction into a replicated scalar.
    Reduce {
        /// Reduction operator.
        kind: VmReduce,
        /// Operand.
        arr: ArrId,
        /// Second operand (DOTPRODUCT).
        arr2: Option<ArrId>,
        /// Destination scalar slot.
        target: u16,
        /// Convert the (real) reduction result back to INTEGER.
        to_int: bool,
    },
}

/// A lowered runtime-library call.
#[derive(Debug, Clone)]
pub enum VmRt {
    /// `dst = CSHIFT(src, shift, dim)`
    CShift {
        /// Source.
        src: ArrId,
        /// Destination.
        dst: ArrId,
        /// Dimension.
        dim: usize,
        /// Shift amount.
        shift: ExprCode,
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
        shift: ExprCode,
        /// Boundary fill.
        boundary: ExprCode,
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
    /// Change an array's distribution at run time.
    Redistribute {
        /// The array.
        arr: ArrId,
        /// New descriptor.
        new_dad: Dad,
    },
    /// Copy into a differently mapped destination.
    RemapCopy {
        /// Source.
        src: ArrId,
        /// Destination.
        dst: ArrId,
    },
}

/// One `PRINT *,` item.
#[derive(Debug, Clone)]
pub enum VmPrintItem {
    /// Verbatim text.
    Text(String),
    /// A scalar expression.
    Val(ExprCode),
}

/// One statement-level instruction of the flat program.
#[derive(Debug, Clone)]
pub enum PInst {
    /// Replicated scalar assignment; charges `cost` on every rank.
    ScalarAssign {
        /// Destination scalar slot.
        slot: u16,
        /// Value.
        rhs: ExprCode,
        /// Modelled cost per rank.
        cost: i64,
    },
    /// Element assignment executed by the owners.
    OwnerAssign {
        /// Destination array.
        arr: ArrId,
        /// Global subscripts.
        subs: Vec<ExprCode>,
        /// Value.
        rhs: ExprCode,
        /// Modelled cost per owner.
        cost: i64,
    },
    /// A standalone collective call (comm-table index).
    Comm(u16),
    /// A FORALL (forall-table index).
    Forall(u16),
    /// A runtime-library call (rt-table index).
    Runtime(u16),
    /// A `PRINT *,` (print-table index).
    Print(u16),
    /// Evaluate `cond`, charge `cost` on every rank, jump to `target`
    /// when false.
    BranchFalse {
        /// Condition.
        cond: ExprCode,
        /// Modelled cost per rank.
        cost: i64,
        /// Jump target when false.
        target: usize,
    },
    /// Unconditional jump.
    Jump {
        /// Target pc.
        target: usize,
    },
    /// Enter a sequential DO: evaluate bounds, bind the variable, push a
    /// loop frame; jump to `exit` when the range is empty.
    DoStart {
        /// Loop-variable slot.
        var: u16,
        /// Lower bound.
        lb: ExprCode,
        /// Upper bound.
        ub: ExprCode,
        /// Stride.
        st: ExprCode,
        /// pc just past the matching `DoNext`.
        exit: usize,
    },
    /// Bottom of a DO: charge loop control, step, jump to `back` while
    /// iterations remain (pops the loop frame on exit).
    DoNext {
        /// Loop-variable slot.
        var: u16,
        /// pc of the first body instruction.
        back: usize,
    },
}

/// A complete lowered SPMD program.
#[derive(Debug, Clone)]
pub struct VmProgram {
    /// Logical grid shape.
    pub grid_shape: Vec<i64>,
    /// Array table.
    pub arrays: Vec<VmArrayDecl>,
    /// Scalar slots (name, type), replicated.
    pub scalars: Vec<(String, ElemType)>,
    /// Number of loop-variable slots.
    pub nvars: usize,
    /// Constant pool.
    pub consts: Vec<Value>,
    /// Accessor table.
    pub accessors: Vec<AccPlan>,
    /// Flat instruction stream.
    pub code: Vec<PInst>,
    /// FORALL table.
    pub foralls: Vec<VmForall>,
    /// Communication table.
    pub comms: Vec<VmComm>,
    /// Runtime-call table.
    pub rtcalls: Vec<VmRt>,
    /// Print table.
    pub prints: Vec<Vec<VmPrintItem>>,
    /// Native-tier kernel table ([`VmForall::native`] indexes into it).
    /// Empty when lowering ran with `native_kernels` off.
    pub natives: Vec<crate::native::NativeKernel>,
}

impl VmProgram {
    /// Find an array id by name.
    pub fn array_id(&self, name: &str) -> Option<ArrId> {
        self.arrays.iter().position(|a| a.name == name)
    }

    /// Find a scalar slot by name.
    pub fn scalar_slot(&self, name: &str) -> Option<u16> {
        self.scalars
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| i as u16)
    }

    /// Total number of expression ops across the program (diagnostics).
    pub fn op_count(&self) -> usize {
        fn code_ops(c: &ExprCode) -> usize {
            c.ops.len()
        }
        let mut n = 0;
        for i in &self.code {
            n += match i {
                PInst::ScalarAssign { rhs, .. } => code_ops(rhs),
                PInst::OwnerAssign { subs, rhs, .. } => {
                    subs.iter().map(code_ops).sum::<usize>() + code_ops(rhs)
                }
                PInst::BranchFalse { cond, .. } => code_ops(cond),
                PInst::DoStart { lb, ub, st, .. } => code_ops(lb) + code_ops(ub) + code_ops(st),
                _ => 0,
            };
        }
        for f in &self.foralls {
            n += f.mask.as_ref().map_or(0, code_ops);
            for v in &f.vars {
                n += code_ops(&v.lb) + code_ops(&v.ub) + code_ops(&v.st);
            }
            n += code_ops(&f.body.rhs) + f.body.subs.iter().map(code_ops).sum::<usize>();
            for g in &f.gathers {
                n += g.subs.iter().map(code_ops).sum::<usize>();
            }
        }
        n
    }

    /// One-line shape summary (diagnostics / logs).
    pub fn summary(&self) -> String {
        format!(
            "{} insts, {} foralls ({} native), {} comms, {} rtcalls, {} arrays, {} accessors, {} expr ops",
            self.code.len(),
            self.foralls.len(),
            self.natives.len(),
            self.comms.len(),
            self.rtcalls.len(),
            self.arrays.len(),
            self.accessors.len(),
            self.op_count()
        )
    }
}
