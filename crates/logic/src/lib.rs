//! Logical contexts for the central-moment derivation system.
//!
//! The judgment `Δ ⊢ {Γ; Q} S {Γ'; Q'}` carries a *logical context* `Γ`
//! describing the reachable states at a program point.  The paper recovers
//! these contexts with an interprocedural numeric analysis built on APRON;
//! this crate provides the lightweight substitute described in `DESIGN.md`:
//! contexts are conjunctions of **linear constraints** `e ≥ 0` collected from
//! branch guards, sampling supports, invertible assignments, and user-supplied
//! preconditions.
//!
//! The crate also provides the ingredient needed to discharge the weakening
//! rule `Γ ⊨ Q ⊒ Q'`: the set of products of context constraints (Handelman
//! certificates, the "rewrite functions" of §3.4) against which slack
//! polynomials are expressed.

pub mod constraint;
pub mod context;

pub use constraint::{LinExpr, LinearConstraint};
pub use context::{Context, Flow};
