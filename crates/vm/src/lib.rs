//! # f90d-vm — register-bytecode execution engine for SPMD node programs
//!
//! The compiler lowers each node program once into a compact register
//! bytecode ([`bytecode::VmProgram`]) — flat instruction streams,
//! resolved array/scalar/loop-variable slots, constant-folded affine
//! subscript forms — and the [`engine::Engine`] runs it with a flat
//! fetch/decode loop, charging the machine's virtual-time cost model,
//! under both sequential and threaded local-phase execution.
//!
//! Layering: this crate sits beside the runtime — it depends on the
//! machine, mapping, communication and runtime crates but *not* on the
//! compiler. The lowering pass (tree IR → bytecode) lives in
//! `f90d-core::vmlower`. FORALL communication — ghost exchanges, phase
//! batching, the overlap split, schedule selection, quiescence — is
//! *not* implemented here: the engine drives the shared
//! `f90d_comm::driver`, plugging in element evaluation through its
//! `ComputeSink` contract.
//!
//! * [`bytecode`] — instruction set, expression code, program tables.
//! * [`engine`] — the execution engine: seed, run, gather, scalar
//!   inspection.
//! * [`native`] — the native tier: FORALL superinstructions selected at
//!   lowering time and monomorphized into prebuilt Rust closures; the
//!   engine dispatches to them per execution and falls back to bytecode
//!   when a kernel's preconditions fail.
//! * [`ops`] — value-level operator semantics, shared with the
//!   sequential reference interpreter.
//! * [`cache`] — the source hash that keys the program cache.

#![warn(missing_docs)]

pub mod bytecode;
pub mod cache;
pub mod engine;
pub mod native;
pub mod ops;

pub use bytecode::VmProgram;
pub use engine::{Engine, RunReport, VmError};
