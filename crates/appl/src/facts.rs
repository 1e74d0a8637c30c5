//! Facts exported by the static checker for consumption by the inference
//! engine.
//!
//! The interval pre-analysis in `cma-check` proves facts about a program —
//! "this branch can never be taken", "this variable is never read" — that
//! the moment derivation can exploit to emit fewer templates and
//! constraints.  [`RangeFacts`] is the contract between the two crates: the
//! checker produces it, `cma-inference` consumes it.  Facts about branches
//! are keyed by the statement's [`Span`], so they only apply to programs
//! that came through the parser; builder-constructed programs carry dummy
//! spans and are analyzed unpruned.

use std::collections::{BTreeMap, BTreeSet};

use cma_semiring::poly::Var;

use crate::span::Span;

/// A statically-proved fact about one branching statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchFact {
    /// The `then` branch of an `if` is unreachable (guard refuted).
    ThenUnreachable,
    /// The `else` branch of an `if` is unreachable (guard always holds).
    ElseUnreachable,
    /// A `while` loop's guard is refuted on entry: the body never runs.
    LoopNeverEntered,
}

/// The checker's exported facts: refuted branches and dead variables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RangeFacts {
    refuted: BTreeMap<Span, BranchFact>,
    dead_template_vars: BTreeSet<Var>,
}

impl RangeFacts {
    /// An empty fact set (prunes nothing).
    pub fn new() -> Self {
        RangeFacts::default()
    }

    /// Records a branch fact for the statement spanning `span`.  Facts for
    /// dummy spans are dropped: they cannot be matched back to a statement
    /// unambiguously.
    pub fn insert_refuted(&mut self, span: Span, fact: BranchFact) {
        if !span.is_dummy() {
            self.refuted.insert(span, fact);
        }
    }

    /// The branch fact recorded for the statement spanning `span`, if any.
    pub fn refuted_at(&self, span: Span) -> Option<BranchFact> {
        if span.is_dummy() {
            None
        } else {
            self.refuted.get(&span).copied()
        }
    }

    /// Number of refuted-branch facts.
    pub fn refuted_count(&self) -> usize {
        self.refuted.len()
    }

    /// Iterates over all refuted-branch facts.
    pub fn refuted(&self) -> impl Iterator<Item = (&Span, &BranchFact)> {
        self.refuted.iter()
    }

    /// Marks a variable as never read: templates need not range over it.
    pub fn insert_dead_template_var(&mut self, var: Var) {
        self.dead_template_vars.insert(var);
    }

    /// Variables that are written but never read anywhere in the program.
    /// Sound to drop from template ranges: they cannot influence the cost.
    pub fn dead_template_vars(&self) -> &BTreeSet<Var> {
        &self.dead_template_vars
    }

    /// Whether the fact set proves nothing a pruner could use.
    pub fn is_empty(&self) -> bool {
        self.refuted.is_empty() && self.dead_template_vars.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dummy_spans_are_never_recorded_or_matched() {
        let mut facts = RangeFacts::new();
        facts.insert_refuted(Span::DUMMY, BranchFact::ThenUnreachable);
        assert!(facts.is_empty());
        assert_eq!(facts.refuted_at(Span::DUMMY), None);

        facts.insert_refuted(Span::new(3, 10), BranchFact::LoopNeverEntered);
        assert_eq!(facts.refuted_count(), 1);
        assert_eq!(
            facts.refuted_at(Span::new(3, 10)),
            Some(BranchFact::LoopNeverEntered)
        );
        assert_eq!(facts.refuted_at(Span::new(3, 11)), None);
        assert!(!facts.is_empty());
    }

    #[test]
    fn dead_vars_and_entry_ranges_round_trip() {
        let mut facts = RangeFacts::new();
        facts.insert_dead_template_var(Var::new("waste"));
        assert!(facts.dead_template_vars().contains(&Var::new("waste")));
    }
}
