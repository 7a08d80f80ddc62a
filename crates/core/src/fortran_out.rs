//! Pretty-printer: render a compiled [`SProgram`] as the "Fortran 77 +
//! Message Passing" node listing the paper's compiler emits (§5.3
//! examples). This is a faithful *display* of the IR — the executable
//! form is the IR itself — and is what the golden tests check against
//! the paper's generated-code shapes.

use std::fmt::Write;

use crate::ir::*;

/// Render the whole node program.
pub fn to_fortran77(prog: &SProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "C     Fortran 90D/HPF compiler output (SPMD node program)"
    );
    let _ = writeln!(
        out,
        "C     logical grid: ({})   [0-based internal indices]",
        prog.grid_shape
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let _ = writeln!(out, "      PROGRAM NODE");
    for a in &prog.arrays {
        let shape = a.dad.local_shape();
        let dims = shape
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let kind = if a.is_temp { "C     temp " } else { "C     " };
        let _ = writeln!(
            out,
            "{kind}{}({dims}) local segment{}",
            a.name,
            if a.ghost > 0 {
                format!(" + overlap({})", a.ghost)
            } else {
                String::new()
            }
        );
    }
    let mut p = Printer { out, indent: 6 };
    p.stmts(&prog.stmts, prog);
    let mut out = p.out;
    let _ = writeln!(out, "      END");
    out
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn line(&mut self, s: &str) {
        let _ = writeln!(self.out, "{:width$}{s}", "", width = self.indent);
    }

    fn stmts(&mut self, stmts: &[SStmt], prog: &SProgram) {
        for s in stmts {
            self.stmt(s, prog);
        }
    }

    fn stmt(&mut self, s: &SStmt, prog: &SProgram) {
        match s {
            SStmt::Comm(c) => self.comm(c, prog),
            SStmt::Forall(f) => self.forall(f, prog),
            SStmt::ScalarAssign { name, rhs } => {
                let line = format!("{name} = {}", expr(rhs, prog));
                self.line(&line);
            }
            SStmt::OwnerAssign { arr, subs, rhs } => {
                let line = format!(
                    "if (my_proc_owns({})) {}({}) = {}",
                    prog.arrays[*arr].name,
                    prog.arrays[*arr].name,
                    exprs(subs, prog),
                    expr(rhs, prog)
                );
                self.line(&line);
            }
            SStmt::DoSeq {
                var,
                lb,
                ub,
                st,
                body,
            } => {
                let line = format!(
                    "DO {var} = {}, {}, {}",
                    expr(lb, prog),
                    expr(ub, prog),
                    expr(st, prog)
                );
                self.line(&line);
                self.indent += 2;
                self.stmts(body, prog);
                self.indent -= 2;
                self.line("END DO");
            }
            SStmt::If { cond, then, else_ } => {
                let line = format!("IF ({}) THEN", expr(cond, prog));
                self.line(&line);
                self.indent += 2;
                self.stmts(then, prog);
                self.indent -= 2;
                if !else_.is_empty() {
                    self.line("ELSE");
                    self.indent += 2;
                    self.stmts(else_, prog);
                    self.indent -= 2;
                }
                self.line("END IF");
            }
            SStmt::Print { items } => {
                let rendered: Vec<String> = items
                    .iter()
                    .map(|it| match it {
                        PrintItem::Text(t) => format!("'{t}'"),
                        PrintItem::Val(v) => expr(v, prog),
                    })
                    .collect();
                let line = format!("PRINT *, {}", rendered.join(","));
                self.line(&line);
            }
            SStmt::Runtime(call) => {
                let line = match call {
                    RtCall::CShift {
                        src,
                        dst,
                        dim,
                        shift,
                    } => format!(
                        "call cshift({}, {}, dim={}, shift={})",
                        prog.arrays[*dst].name,
                        prog.arrays[*src].name,
                        dim + 1,
                        expr(shift, prog)
                    ),
                    RtCall::EoShift {
                        src,
                        dst,
                        dim,
                        shift,
                        boundary,
                    } => format!(
                        "call eoshift({}, {}, dim={}, shift={}, boundary={})",
                        prog.arrays[*dst].name,
                        prog.arrays[*src].name,
                        dim + 1,
                        expr(shift, prog),
                        expr(boundary, prog)
                    ),
                    RtCall::Transpose { src, dst } => format!(
                        "call transpose({}, {})",
                        prog.arrays[*dst].name, prog.arrays[*src].name
                    ),
                    RtCall::Matmul { a, b, c } => format!(
                        "call matmul({}, {}, {})",
                        prog.arrays[*c].name, prog.arrays[*a].name, prog.arrays[*b].name
                    ),
                    RtCall::Redistribute { arr, .. } => {
                        format!("call redistribute({})", prog.arrays[*arr].name)
                    }
                    RtCall::RemapCopy { src, dst } => format!(
                        "call redistribute_copy({}, {})",
                        prog.arrays[*src].name, prog.arrays[*dst].name
                    ),
                };
                self.line(&line);
            }
        }
    }

    fn comm(&mut self, c: &CommStmt, prog: &SProgram) {
        let line = match c {
            CommStmt::Multicast { src, tmp, dim, src_g } => {
                let n = &prog.arrays[*src].name;
                format!(
                    "call set_DAD({n}_DAD, ...)\n{:width$}call multicast({n}, {n}_DAD, {}, source_proc=global_to_proc({}), dim={})",
                    "",
                    prog.arrays[*tmp].name,
                    expr(src_g, prog),
                    dim + 1,
                    width = self.indent
                )
            }
            CommStmt::Transfer { src, tmp, src_g, dst_g, .. } => {
                let n = &prog.arrays[*src].name;
                format!(
                    "call set_DAD({n}_DAD, ...)\n{:width$}call transfer({n}, {n}_DAD, {}, source=global_to_proc({}), dest=global_to_proc({}))",
                    "",
                    prog.arrays[*tmp].name,
                    expr(src_g, prog),
                    expr(dst_g, prog),
                    width = self.indent
                )
            }
            CommStmt::OverlapShift { arr, dim, c } => format!(
                "call overlap_shift({}, dim={}, width={c})",
                prog.arrays[*arr].name,
                dim + 1
            ),
            CommStmt::TempShift { src, tmp, dim, amount } => format!(
                "call temporary_shift({}, {}, dim={}, shift={})",
                prog.arrays[*src].name,
                prog.arrays[*tmp].name,
                dim + 1,
                expr(amount, prog)
            ),
            CommStmt::MulticastShift { src, tmp, mdim, src_g, sdim, amount } => format!(
                "call multicast_shift({}, {}_DAD, {}, source=global_to_proc({}), shift={}, multicast_dim={}, shift_dim={})",
                prog.arrays[*src].name,
                prog.arrays[*src].name,
                prog.arrays[*tmp].name,
                expr(src_g, prog),
                expr(amount, prog),
                mdim + 1,
                sdim + 1
            ),
            CommStmt::Concat { src, tmp } => format!(
                "call concatenation({}, {})",
                prog.arrays[*src].name, prog.arrays[*tmp].name
            ),
            CommStmt::BroadcastElem { arr, subs, target } => format!(
                "call broadcast_element({}({}), {target})",
                prog.arrays[*arr].name,
                exprs(subs, prog)
            ),
            CommStmt::ReduceScalar { kind, arr, arr2, target } => {
                let f = match kind {
                    ReduceKind::Sum => "sum_reduce",
                    ReduceKind::Product => "product_reduce",
                    ReduceKind::MaxVal => "maxval_reduce",
                    ReduceKind::MinVal => "minval_reduce",
                    ReduceKind::Count => "count_reduce",
                    ReduceKind::All => "all_reduce",
                    ReduceKind::Any => "any_reduce",
                    ReduceKind::DotProduct => "dotproduct_reduce",
                };
                match arr2 {
                    Some(b) => format!(
                        "call {f}({}, {}, {target})",
                        prog.arrays[*arr].name, prog.arrays[*b].name
                    ),
                    None => format!("call {f}({}, {target})", prog.arrays[*arr].name),
                }
            }
        };
        self.line(&line);
    }

    fn forall(&mut self, f: &ForallNode, prog: &SProgram) {
        for c in &f.pre {
            self.comm(c, prog);
        }
        for g in &f.gathers {
            let sched = if g.local_only {
                "schedule1"
            } else {
                "schedule2"
            };
            let line = format!("isch = {sched}(receive_list, send_list, local_list, count)");
            self.line(&line);
            let prim = if g.local_only {
                "precomp_read"
            } else {
                "gather"
            };
            let line = format!(
                "call {prim}(isch, {}, {})",
                prog.arrays[g.tmp].name, prog.arrays[g.src].name
            );
            self.line(&line);
        }
        for (k, spec) in f.vars.iter().enumerate() {
            let bound = match &spec.part {
                Partition::OwnerDim { .. } => format!(
                    "call set_BOUND(lb{k},ub{k},st{k},{},{},{})",
                    expr(&spec.lb, prog),
                    expr(&spec.ub, prog),
                    expr(&spec.st, prog)
                ),
                Partition::BlockIter => format!(
                    "call set_BOUND_block_iter(lb{k},ub{k},st{k},{},{},{})",
                    expr(&spec.lb, prog),
                    expr(&spec.ub, prog),
                    expr(&spec.st, prog)
                ),
                Partition::Replicate => format!(
                    "lb{k} = {}; ub{k} = {}; st{k} = {}",
                    expr(&spec.lb, prog),
                    expr(&spec.ub, prog),
                    expr(&spec.st, prog)
                ),
            };
            self.line(&bound);
            let line = format!("DO {} = lb{k}, ub{k}, st{k}", spec.var);
            self.line(&line);
            self.indent += 2;
        }
        if let Some(mask) = &f.mask {
            let line = format!("IF ({}) THEN", expr(mask, prog));
            self.line(&line);
            self.indent += 2;
        }
        let b = &f.body;
        let target = match b.write {
            WritePlan::Owned => {
                format!("{}({})", prog.arrays[b.arr].name, exprs(&b.subs, prog))
            }
            WritePlan::ScatterSeq { .. } => "buf(count); count = count+1".to_string(),
        };
        let line = format!("{target} = {}", expr(&b.rhs, prog));
        self.line(&line);
        if f.mask.is_some() {
            self.indent -= 2;
            self.line("END IF");
        }
        for _ in &f.vars {
            self.indent -= 2;
            self.line("END DO");
        }
        if let WritePlan::ScatterSeq { invertible } = b.write {
            let (sched, prim) = if invertible {
                ("schedule1", "postcomp_write")
            } else {
                ("schedule3", "scatter")
            };
            let line = format!("isch = {sched}(proc_to, local_to, count)");
            self.line(&line);
            let line = format!("call {prim}(isch, {}, buf)", prog.arrays[b.arr].name);
            self.line(&line);
        }
    }
}

fn exprs(es: &[SExpr], prog: &SProgram) -> String {
    es.iter()
        .map(|e| expr(e, prog))
        .collect::<Vec<_>>()
        .join(",")
}

fn expr(e: &SExpr, prog: &SProgram) -> String {
    use f90d_frontend::ast::BinOp::*;
    match e {
        SExpr::Const(v) => v.to_string(),
        SExpr::Scalar(n) => n.clone(),
        SExpr::LoopVar(n) => n.clone(),
        SExpr::Bin(op, l, r) => {
            let o = match op {
                Add => "+",
                Sub => "-",
                Mul => "*",
                Div => "/",
                Pow => "**",
                Eq => ".EQ.",
                Ne => ".NE.",
                Lt => ".LT.",
                Le => ".LE.",
                Gt => ".GT.",
                Ge => ".GE.",
                And => ".AND.",
                Or => ".OR.",
            };
            format!("({}{o}{})", expr(l, prog), expr(r, prog))
        }
        SExpr::Un(op, x) => match op {
            f90d_frontend::ast::UnOp::Neg => format!("(-{})", expr(x, prog)),
            f90d_frontend::ast::UnOp::Not => format!(".NOT.{}", expr(x, prog)),
        },
        SExpr::Elemental(n, args) => format!("{n}({})", exprs(args, prog)),
        SExpr::Read { arr, plan, subs } => {
            let name = &prog.arrays[*arr].name;
            match plan {
                ReadPlan::Owned | ReadPlan::Replicated => {
                    format!("{name}(global_to_local({}))", exprs(subs, prog))
                }
                ReadPlan::SlabTmp { fixed_dim, .. } => {
                    let rest: Vec<String> = subs
                        .iter()
                        .enumerate()
                        .filter(|&(d, _)| d != *fixed_dim)
                        .map(|(_, s)| expr(s, prog))
                        .collect();
                    format!("{name}({})", rest.join(","))
                }
                ReadPlan::SameTmp { .. } => format!("{name}({})", exprs(subs, prog)),
                ReadPlan::Seq { .. } => format!("{name}(count); count = count+1"),
            }
        }
    }
}
