//! Paper §4 example 3 / §5.3.2: vector-valued subscripts
//! (`A(U(I)) = B(V(I)) + C(I)`) compiled to PARTI-style gather/scatter
//! schedules, with the §7(3) schedule-reuse optimization shown by
//! running the kernel loop twice — once rebuilding schedules every
//! iteration, once reusing them.
//!
//! ```text
//! cargo run --release --example irregular
//! ```

use f90d_bench::workloads;
use fortran90d::compiler::{compile, CompileOptions};
use fortran90d::distrib::ProcGrid;
use fortran90d::machine::{Machine, MachineSpec};

fn main() {
    let src = workloads::irregular(4096);
    for reuse in [false, true] {
        let mut opts = CompileOptions::on_grid(&[8]);
        opts.opt.schedule_reuse = reuse;
        let compiled = compile(&src, &opts).expect("compiles");
        let mut machine = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[8]));
        let report = compiled.run_on(&mut machine).expect("runs");
        println!(
            "schedule reuse {}: {:.3} ms modelled, {} messages, gathers recorded: {}",
            if reuse { "ON " } else { "OFF" },
            report.elapsed * 1e3,
            report.messages,
            machine.stats.count("gather"),
        );
    }
    println!("\nreusing the schedule skips the inspector's fan-in preprocessing —");
    println!("the difference above is paper §7 optimization 3.");
}
