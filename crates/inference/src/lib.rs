//! Template-based derivation system for interval bounds on higher (central)
//! moments of cost accumulators in probabilistic programs.
//!
//! This is the core of the reproduction of *Central Moment Analysis for Cost
//! Accumulators in Probabilistic Programs* (PLDI 2021).  The crate turns an
//! [`cma_appl::Program`] into a linear program whose solutions are symbolic
//! interval bounds `[L_k, U_k]` on every raw moment `E[C^k]` of the accumulated
//! cost `C`, following the paper's derivation system (Fig. 6/14):
//!
//! * [`template`] — symbolic interval moment vectors whose polynomial
//!   coefficients are LP unknowns;
//! * [`builder`] — the LP constraint builder, one per group LP (substitute
//!   for Gurobi models);
//! * [`weaken`] — the rewrite-function certificates that discharge the
//!   weakening rule `Γ ⊨ Q ⊒ Q'`;
//! * [`spec`] — moment-polymorphic function specifications (restriction
//!   levels, frame rule, elimination sequences);
//! * [`derive`](mod@derive) — the backward transformer implementing the syntax-directed
//!   rules (Q-Tick, Q-Sample, Q-Assign, Q-Seq, Q-Cond, Q-Prob, Q-Loop,
//!   Q-Call-Poly, Q-Call-Mono);
//! * [`engine`] — the analysis driver (compositional groups in the
//!   callee-first order of [`Program::call_graph_sccs`](cma_appl::Program::call_graph_sccs),
//!   objectives, solving, bound extraction, in-session degree escalation,
//!   poly-degree retries);
//! * [`plan`] — derivation plans: the degree-independent skeleton of a
//!   derivation (template slots and constraint recipes), recorded on the
//!   first walk and replayed by in-place degree escalation;
//! * [`central`] — central moments, variance, skewness and kurtosis derived
//!   from raw-moment interval bounds;
//! * [`tail`] — Markov / Cantelli / Chebyshev tail bounds (§5);
//! * [`soundness`] — the algorithmic side conditions of Theorem 4.4
//!   (bounded updates and finiteness of `E[T^{md}]`).
//!
//! # Quick start
//!
//! ```
//! use cma_appl::parse_program;
//! use cma_inference::{analyze_with, AnalysisOptions};
//! use cma_lp::SimplexBackend;
//!
//! let program = parse_program(r#"
//!     func main() begin
//!       if prob(0.5) then tick(2) else tick(4) fi
//!     end
//! "#).unwrap();
//! let result = analyze_with(&program, &AnalysisOptions::degree(2), &SimplexBackend).unwrap();
//! // E[C] = 3, E[C^2] = 10 exactly; the analysis brackets both.
//! let e1 = result.raw_moment_at(1, &[]);
//! let e2 = result.raw_moment_at(2, &[]);
//! assert!(e1.lo() <= 3.0 + 1e-6 && 3.0 - 1e-6 <= e1.hi());
//! assert!(e2.lo() <= 10.0 + 1e-6 && 10.0 - 1e-6 <= e2.hi());
//! ```
//!
//! Downstream users should prefer the `Analysis` pipeline facade of the
//! umbrella `central_moment_analysis` crate, which wires parsing, inference,
//! central moments, tail bounds, and soundness checking into one call.

pub mod builder;
pub mod central;
pub mod derive;
pub mod engine;
pub mod plan;
pub mod soundness;
pub mod spec;
pub mod tail;
pub mod template;
pub mod weaken;

pub use central::CentralMoments;
pub use engine::{
    analyze_resilient, analyze_session, analyze_with, AnalysisError, AnalysisOptions,
    AnalysisResult, AnalysisSession, DegradationStats, DegradationStep, EscalationStats,
    GroupLpStats, MomentBound, PruningStats, SolveMode,
};
pub use plan::{DerivationPlan, PlanStats};
pub use soundness::{check_bounded_update, soundness_report, step_count_analysis, SoundnessReport};
pub use tail::{
    best_tail_bound, cantelli_upper_tail, chebyshev_tail, markov_tail, tail_curve, TailBound,
};
