//! Communication optimizations on the SPMD IR (paper §7).
//!
//! * **Duplicate-communication elimination** (§7 optimization 2): two RHS
//!   references that induce the same primitive with the same arguments
//!   inside one FORALL share a single call and temporary — e.g.
//!   `A(I) = B(I+2) + B(I+3)` needs only the wider of the two overlap
//!   shifts, and the Gaussian-elimination kernel's `A(I,K)` and `A(K,K)`
//!   share one column multicast.
//! * **Invariant-communication hoisting** (§7 optimization 4): collective
//!   calls whose arguments do not depend on an enclosing sequential DO
//!   variable and whose source is not written in the loop move out of the
//!   loop (definition-use code motion).
//!
//! * **Phase-level communication planning** ([`OptFlags::comm_plan`],
//!   PARTI-style aggregation extending §7 optimization 1 across statement
//!   boundaries): consecutive FORALLs whose preludes are pure
//!   `overlap_shift` and whose writes do not touch any exchanged array
//!   are grouped into a *comm phase*. The pass only annotates
//!   ([`ForallNode::plan`] — `Lead { len }` on the first member, `Member`
//!   on the rest); the per-statement `pre` lists stay in place, so an
//!   executor that ignores the annotation (or hits a runtime planning
//!   error) falls back to the bit-identical per-statement schedule. The
//!   executors batch a phase's ghost exchanges through
//!   `f90d_comm::plan::PhaseExchange`, which coalesces same-destination
//!   strips into one wire message (one α charge per neighbour instead of
//!   one per statement).
//!
//! (§7 optimization 1, message vectorization, is inherent in the
//! collective primitives; §7 optimization 3, schedule reuse, lives in the
//! executor's schedule cache; the §5.1/§7 communication–computation
//! overlap, [`OptFlags::comm_compute_overlap`], is an execution strategy
//! rather than an IR rewrite — the executors split eligible
//! `overlap_shift` stencil FORALLs into ghost-post → interior →
//! complete → boundary phases at run time, so this pass leaves the
//! statement tree untouched for it.)

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::ir::*;
use crate::options::OptFlags;

/// Run the enabled passes.
pub fn optimize(prog: &mut SProgram, flags: &OptFlags) {
    if flags.merge_comm {
        merge_comm(prog);
    }
    if flags.hoist_invariant_comm {
        let mut stmts = std::mem::take(&mut prog.stmts);
        hoist_stmts(&mut stmts, prog);
        prog.stmts = stmts;
    }
    if flags.comm_plan {
        let mut stmts = std::mem::take(&mut prog.stmts);
        plan_comm_phases(&mut stmts, prog);
        prog.stmts = stmts;
    }
}

// ---- phase-level communication planning ----------------------------------

/// Annotate maximal runs of consecutive phase-eligible FORALLs with
/// [`PhaseRole`]s. Works on every statement list (top level and inside
/// `DO`/`IF` bodies); grouping never crosses a non-FORALL statement, so a
/// `REDISTRIBUTE`, scalar assignment or `PRINT` between two stencils
/// always breaks the phase.
fn plan_comm_phases(stmts: &mut [SStmt], prog: &SProgram) {
    for s in stmts.iter_mut() {
        match s {
            SStmt::DoSeq { body, .. } => plan_comm_phases(body, prog),
            SStmt::If { then, else_, .. } => {
                plan_comm_phases(then, prog);
                plan_comm_phases(else_, prog);
            }
            _ => {}
        }
    }
    let mut i = 0;
    while i < stmts.len() {
        let Some(mut specs) = phase_member(&stmts[i]) else {
            i += 1;
            continue;
        };
        let mut written: HashSet<ArrId> = member_writes(&stmts[i]);
        let mut end = i + 1;
        while end < stmts.len() {
            let Some(next) = phase_member(&stmts[end]) else {
                break;
            };
            // Soundness: a phase posts every member's ghost exchange
            // before any member's loop runs, so no member may write an
            // array any member exchanges (in per-statement order a later
            // exchange would observe that write; batched it would not).
            let w = member_writes(&stmts[end]);
            let exchanged_all = || specs.iter().chain(next.iter()).map(|s| s.0);
            if exchanged_all().any(|a| written.contains(&a) || w.contains(&a)) {
                break;
            }
            // Coalesced payloads are packed per destination, so every
            // exchanged array in a phase must share one element type.
            let ty_of = |a: ArrId| prog.arrays[a].ty;
            let tys: BTreeSet<_> = exchanged_all().map(ty_of).collect();
            if tys.len() > 1 {
                break;
            }
            specs.extend(next);
            written.extend(w);
            end += 1;
        }
        let len = end - i;
        // Profitable when batching actually merges wire traffic: a
        // duplicate (arr, dim, c) exchange collapses, or two strips
        // travel to the same neighbour ((dim, sign) bucket ≥ 2). A
        // multi-array single FORALL can profit alone (len == 1).
        let uniform_ty = specs
            .iter()
            .map(|s| prog.arrays[s.0].ty)
            .collect::<BTreeSet<_>>()
            .len()
            <= 1;
        if uniform_ty && profitable(&specs) {
            for (off, s) in stmts[i..end].iter_mut().enumerate() {
                if let SStmt::Forall(f) = s {
                    f.plan = Some(if off == 0 {
                        PhaseRole::Lead { len }
                    } else {
                        PhaseRole::Member
                    });
                }
            }
        }
        i = end;
    }
}

/// `Some(exchange specs)` when this statement can join a comm phase: a
/// FORALL whose prelude is non-empty pure `overlap_shift`, with no
/// unstructured gathers and no owner filter.
fn phase_member(s: &SStmt) -> Option<Vec<(ArrId, usize, i64)>> {
    let SStmt::Forall(f) = s else { return None };
    if f.pre.is_empty() || !f.gathers.is_empty() || !f.owner_filter.is_empty() {
        return None;
    }
    let mut specs = Vec::new();
    for c in &f.pre {
        let CommStmt::OverlapShift { arr, dim, c } = c else {
            return None;
        };
        specs.push((*arr, *dim, *c));
    }
    Some(specs)
}

fn member_writes(s: &SStmt) -> HashSet<ArrId> {
    let SStmt::Forall(f) = s else {
        return HashSet::new();
    };
    HashSet::from([f.body.arr])
}

fn profitable(specs: &[(ArrId, usize, i64)]) -> bool {
    let dedup: BTreeSet<_> = specs.iter().copied().collect();
    if dedup.len() < specs.len() {
        return true;
    }
    let mut buckets: HashMap<(usize, bool), usize> = HashMap::new();
    for &(_, dim, c) in &dedup {
        *buckets.entry((dim, c > 0)).or_insert(0) += 1;
    }
    buckets.values().any(|&n| n >= 2)
}

// ---- duplicate-communication elimination --------------------------------

fn merge_comm(prog: &mut SProgram) {
    let mut stmts = std::mem::take(&mut prog.stmts);
    merge_in(&mut stmts);
    prog.stmts = stmts;
}

fn merge_in(stmts: &mut [SStmt]) {
    for s in stmts {
        match s {
            SStmt::Forall(f) => merge_forall(f),
            SStmt::DoSeq { body, .. } => merge_in(body),
            SStmt::If { then, else_, .. } => {
                merge_in(then);
                merge_in(else_);
            }
            _ => {}
        }
    }
}

/// Key identifying a comm statement up to its temporary.
fn comm_key(c: &CommStmt) -> Option<(String, Option<ArrId>)> {
    match c {
        CommStmt::Multicast {
            src, dim, src_g, ..
        } => Some((format!("mc:{src}:{dim}:{src_g:?}"), None)),
        CommStmt::Transfer {
            src,
            dim,
            src_g,
            dst_g,
            dst_arr,
            dst_dim,
            ..
        } => Some((
            format!("xf:{src}:{dim}:{src_g:?}:{dst_g:?}:{dst_arr}:{dst_dim}"),
            None,
        )),
        CommStmt::TempShift {
            src, dim, amount, ..
        } => Some((format!("ts:{src}:{dim}:{amount:?}"), None)),
        CommStmt::MulticastShift {
            src,
            mdim,
            src_g,
            sdim,
            amount,
            ..
        } => Some((format!("ms:{src}:{mdim}:{src_g:?}:{sdim}:{amount:?}"), None)),
        CommStmt::Concat { src, .. } => Some((format!("cc:{src}"), None)),
        // Overlap shifts merge by (arr, dim, sign) keeping the widest.
        CommStmt::OverlapShift { .. } => None,
        CommStmt::BroadcastElem { .. } | CommStmt::ReduceScalar { .. } => None,
    }
}

fn comm_tmp(c: &CommStmt) -> Option<ArrId> {
    match c {
        CommStmt::Multicast { tmp, .. }
        | CommStmt::Transfer { tmp, .. }
        | CommStmt::TempShift { tmp, .. }
        | CommStmt::MulticastShift { tmp, .. }
        | CommStmt::Concat { tmp, .. } => Some(*tmp),
        _ => None,
    }
}

fn merge_forall(f: &mut ForallNode) {
    let mut seen: HashMap<String, ArrId> = HashMap::new();
    let mut remap: HashMap<ArrId, ArrId> = HashMap::new();
    let mut kept: Vec<CommStmt> = Vec::new();
    // Widest overlap shift per (arr, dim, sign).
    let mut widest: HashMap<(ArrId, usize, bool), i64> = HashMap::new();
    for c in &f.pre {
        if let CommStmt::OverlapShift {
            arr,
            dim,
            c: amount,
        } = c
        {
            let key = (*arr, *dim, *amount > 0);
            let e = widest.entry(key).or_insert(0);
            if amount.abs() > e.abs() {
                *e = *amount;
            }
        }
    }
    let mut emitted_shift: HashSet<(ArrId, usize, bool)> = HashSet::new();
    for c in f.pre.drain(..) {
        match &c {
            CommStmt::OverlapShift {
                arr,
                dim,
                c: amount,
            } => {
                let key = (*arr, *dim, *amount > 0);
                if emitted_shift.insert(key) {
                    kept.push(CommStmt::OverlapShift {
                        arr: *arr,
                        dim: *dim,
                        c: widest[&key],
                    });
                }
            }
            other => match comm_key(other) {
                Some((key, _)) => {
                    let tmp = comm_tmp(other);
                    if let Some(&prev_tmp) = seen.get(&key) {
                        if let Some(t) = tmp {
                            remap.insert(t, prev_tmp);
                        }
                    } else {
                        if let Some(t) = tmp {
                            seen.insert(key, t);
                        }
                        kept.push(c);
                    }
                }
                None => kept.push(c),
            },
        }
    }
    f.pre = kept;
    if remap.is_empty() {
        return;
    }
    // Rewrite reads of dropped temporaries.
    remap_expr(&mut f.body.rhs, &remap);
    for s in &mut f.body.subs {
        remap_expr(s, &remap);
    }
    if let Some(mask) = &mut f.mask {
        remap_expr(mask, &remap);
    }
}

fn remap_expr(e: &mut SExpr, remap: &HashMap<ArrId, ArrId>) {
    match e {
        SExpr::Read { arr, plan, subs } => {
            if let Some(&n) = remap.get(arr) {
                *arr = n;
            }
            match plan {
                ReadPlan::SlabTmp { tmp, .. }
                | ReadPlan::SameTmp { tmp }
                | ReadPlan::Seq { tmp, .. } => {
                    if let Some(&n) = remap.get(tmp) {
                        *tmp = n;
                    }
                }
                _ => {}
            }
            for s in subs {
                remap_expr(s, remap);
            }
        }
        SExpr::Bin(_, l, r) => {
            remap_expr(l, remap);
            remap_expr(r, remap);
        }
        SExpr::Un(_, x) => remap_expr(x, remap),
        SExpr::Elemental(_, args) => {
            for a in args {
                remap_expr(a, remap);
            }
        }
        _ => {}
    }
}

// ---- invariant-communication hoisting ------------------------------------

fn hoist_stmts(stmts: &mut Vec<SStmt>, prog: &SProgram) {
    let mut k = 0;
    while k < stmts.len() {
        // Recurse first (innermost loops hoist before outer ones).
        match &mut stmts[k] {
            SStmt::DoSeq { body, .. } => hoist_stmts(body, prog),
            SStmt::If { then, else_, .. } => {
                hoist_stmts(then, prog);
                hoist_stmts(else_, prog);
            }
            _ => {}
        }
        if let SStmt::DoSeq { var, body, .. } = &mut stmts[k] {
            let written = written_arrays(body);
            let mut wscalars = written_scalars(body);
            // The DO variable itself is (re)defined every iteration.
            wscalars.insert(var.clone());
            let mut hoisted: Vec<SStmt> = Vec::new();
            let mut hoisted_tmps: HashSet<ArrId> = HashSet::new();
            for st in body.iter_mut() {
                if let SStmt::Forall(f) = st {
                    let mut keep = Vec::new();
                    for c in f.pre.drain(..) {
                        if comm_invariant(&c, &wscalars, &written, &hoisted_tmps, prog) {
                            if let Some(t) = comm_tmp(&c) {
                                hoisted_tmps.insert(t);
                            }
                            hoisted.push(SStmt::Comm(c));
                        } else {
                            keep.push(c);
                        }
                    }
                    f.pre = keep;
                }
            }
            if !hoisted.is_empty() {
                // Insert the hoisted calls (in drain order) just before
                // the loop. `k` advances past them so the loop itself is
                // processed exactly once; advancing it inside the insert
                // loop as well used to skip ahead of the vector's length
                // and panic once three or more calls hoisted together.
                let n = hoisted.len();
                for (off, h) in hoisted.into_iter().enumerate() {
                    stmts.insert(k + off, h);
                }
                k += n;
            }
        }
        k += 1;
    }
}

fn comm_invariant(
    c: &CommStmt,
    wscalars: &HashSet<String>,
    written: &HashSet<ArrId>,
    hoisted_tmps: &HashSet<ArrId>,
    prog: &SProgram,
) -> bool {
    let src_ok = |id: ArrId| {
        !written.contains(&id) && (!prog.arrays[id].is_temp || hoisted_tmps.contains(&id))
    };
    // An argument expression varies across iterations when it mentions
    // any scalar (re)defined in the loop — the DO variable, a scalar
    // assignment, or a reduction target — or reads an array the loop
    // writes. `uses_var` with only the DO variable used to miss the
    // latter two, hoisting e.g. a pivot-row multicast whose row index is
    // recomputed every iteration.
    let arg_ok = |e: &SExpr| !expr_varies(e, wscalars, written);
    let args_invariant: bool = match c {
        CommStmt::Multicast { src, src_g, .. } => src_ok(*src) && arg_ok(src_g),
        CommStmt::Transfer {
            src,
            src_g,
            dst_g,
            dst_arr,
            ..
        } => {
            // `dst_arr` supplies the destination placement: a loop that
            // writes it is fine (only its dad matters), but one that
            // REDISTRIBUTEs it changes where the transfer must land, so
            // the transfer is pinned. `written` includes redistributed
            // arrays; checking it is conservative but sound.
            src_ok(*src) && !written.contains(dst_arr) && arg_ok(src_g) && arg_ok(dst_g)
        }
        CommStmt::OverlapShift { arr, .. } => src_ok(*arr),
        CommStmt::TempShift { src, amount, .. } => src_ok(*src) && arg_ok(amount),
        CommStmt::MulticastShift {
            src, src_g, amount, ..
        } => src_ok(*src) && arg_ok(src_g) && arg_ok(amount),
        CommStmt::Concat { src, .. } => src_ok(*src),
        CommStmt::BroadcastElem { .. } | CommStmt::ReduceScalar { .. } => false,
    };
    args_invariant
}

fn expr_varies(e: &SExpr, wscalars: &HashSet<String>, written: &HashSet<ArrId>) -> bool {
    match e {
        SExpr::LoopVar(n) | SExpr::Scalar(n) => wscalars.contains(n),
        SExpr::Bin(_, l, r) => {
            expr_varies(l, wscalars, written) || expr_varies(r, wscalars, written)
        }
        SExpr::Un(_, x) => expr_varies(x, wscalars, written),
        SExpr::Elemental(_, args) => args.iter().any(|a| expr_varies(a, wscalars, written)),
        SExpr::Read { arr, subs, .. } => {
            written.contains(arr) || subs.iter().any(|s| expr_varies(s, wscalars, written))
        }
        SExpr::Const(_) => false,
    }
}

/// Scalars (re)defined anywhere in `stmts`: scalar assignments, element
/// broadcasts and scalar-reduction targets, plus inner DO variables.
fn written_scalars(stmts: &[SStmt]) -> HashSet<String> {
    let mut out = HashSet::new();
    fn walk(stmts: &[SStmt], out: &mut HashSet<String>) {
        for s in stmts {
            match s {
                SStmt::ScalarAssign { name, .. } => {
                    out.insert(name.clone());
                }
                SStmt::Comm(CommStmt::BroadcastElem { target, .. })
                | SStmt::Comm(CommStmt::ReduceScalar { target, .. }) => {
                    out.insert(target.clone());
                }
                SStmt::Forall(f) => {
                    for c in &f.pre {
                        if let CommStmt::BroadcastElem { target, .. }
                        | CommStmt::ReduceScalar { target, .. } = c
                        {
                            out.insert(target.clone());
                        }
                    }
                }
                SStmt::DoSeq { var, body, .. } => {
                    out.insert(var.clone());
                    walk(body, out);
                }
                SStmt::If { then, else_, .. } => {
                    walk(then, out);
                    walk(else_, out);
                }
                _ => {}
            }
        }
    }
    walk(stmts, &mut out);
    out
}

fn written_arrays(stmts: &[SStmt]) -> HashSet<ArrId> {
    let mut out = HashSet::new();
    fn walk(stmts: &[SStmt], out: &mut HashSet<ArrId>) {
        for s in stmts {
            match s {
                SStmt::Forall(f) => {
                    out.insert(f.body.arr);
                }
                SStmt::OwnerAssign { arr, .. } => {
                    out.insert(*arr);
                }
                SStmt::DoSeq { body, .. } => walk(body, out),
                SStmt::If { then, else_, .. } => {
                    walk(then, out);
                    walk(else_, out);
                }
                SStmt::Runtime(call) => {
                    match call {
                        RtCall::CShift { dst, .. } | RtCall::EoShift { dst, .. } => {
                            out.insert(*dst);
                        }
                        RtCall::Transpose { dst, .. } => {
                            out.insert(*dst);
                        }
                        RtCall::Matmul { c, .. } => {
                            out.insert(*c);
                        }
                        RtCall::Redistribute { arr, .. } => {
                            out.insert(*arr);
                        }
                        RtCall::RemapCopy { dst, .. } => {
                            out.insert(*dst);
                        }
                    };
                }
                _ => {}
            }
        }
    }
    walk(stmts, &mut out);
    out
}
