//! # fortran90d — a Rust reproduction of the Fortran 90D/HPF compiler
//!
//! This facade crate re-exports every component of the reproduction of
//! *"Fortran 90D/HPF Compiler for Distributed Memory MIMD Computers"*
//! (Bozkus, Choudhary, Fox, Haupt, Ranka — Supercomputing '93):
//!
//! * [`distrib`] — three-stage data mapping (ALIGN / DISTRIBUTE / grid).
//! * [`machine`] — simulated distributed-memory MIMD machine with
//!   iPSC/860 and nCUBE/2 cost models, plus a threaded executor.
//! * [`comm`] — the collective communication library (structured and
//!   unstructured/PARTI-style primitives).
//! * [`runtime`] — distributed arrays and the parallel intrinsics of the
//!   paper's Table 3.
//! * [`frontend`] — Fortran 90D/HPF lexer, parser, semantic analysis, and
//!   normalization to FORALL form.
//! * [`compiler`] — the compiler itself: partitioning, communication
//!   detection/generation, optimizations, SPMD code generation, and
//!   lowering to bytecode.
//! * [`vm`] — the loosely synchronous execution engine: register
//!   bytecode plus a native kernel tier.
//!
//! See `README.md` for a quickstart and the paper-reproduction index, and
//! `ARCHITECTURE.md` for the pipeline and the execution tiers.

pub use f90d_comm as comm;
pub use f90d_core as compiler;
pub use f90d_distrib as distrib;
pub use f90d_frontend as frontend;
pub use f90d_machine as machine;
pub use f90d_runtime as runtime;
pub use f90d_vm as vm;
