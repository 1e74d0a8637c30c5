//! Derivation plans: the degree-independent skeleton of one constraint
//! derivation, recorded once and re-instantiated per target degree `m`.
//!
//! The paper derives bounds on *all* moments up to degree `m` simultaneously:
//! the degree-`k` component of every annotation rides on the components below
//! it, and the constraint system is emitted per component (the weakening rule
//! compares component `k` of two annotations, never mixes components).  That
//! makes the derivation *sliceable by component*: the rows of component `k`
//! are identical at every target degree `m ≥ k`, provided the same template
//! columns back the components below.
//!
//! A [`DerivationPlan`] exploits this.  One walk of the program records the
//! degree-independent skeleton:
//!
//! * **template slots** — every program point that allocates a fresh moment
//!   annotation (function pre/post specifications, conditional joins, loop
//!   invariants), keyed by a stable path through the walk, together with the
//!   LP columns minted per component;
//! * **constraint recipes** — every containment `Γ ⊨ Q ⊒ Q'` the walk
//!   discharges, keyed the same way, together with how many components have
//!   been instantiated into the store so far.
//!
//! The logical contexts `Γ` are not part of the plan: every walk reads them
//! from the [`Flow`](cma_logic::Flow)s its group computed.
//!
//! Re-walking the program against the recorded plan then *reuses* instead of
//! re-deriving.  A plan has two modes:
//!
//! * [`PlanMode::Record`] — the first instantiation: mint every column, emit
//!   every row, record the skeleton (the default; plan-unaware callers see
//!   exactly the old behavior).
//! * [`PlanMode::Extend`] — in-session degree escalation `m → m'`: recorded
//!   slots contribute their existing component columns and only components
//!   `m+1..=m'` are minted; recorded recipes emit rows only for the new
//!   components (the old rows are already in the live solver session and are
//!   *exactly* the component-`≤m` slice of the degree-`m'` system).
//!
//! A plan lives and dies with one
//! [`ConstraintBuilder`](crate::builder::ConstraintBuilder): the engine
//! switches it to `Extend` around the replay of
//! [`AnalysisSession::escalate_degree`](crate::engine::AnalysisSession::escalate_degree).
//! A poly-degree retry or a cold escalation is a fresh analysis with a
//! fresh builder and plan, since new template supports leave nothing to
//! reuse.

use std::collections::BTreeMap;

use crate::template::SymInterval;

/// How a walk instantiates against the recorded plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// First walk: mint every column, emit every row, record the skeleton.
    #[default]
    Record,
    /// Degree escalation: reuse recorded component columns, mint and emit
    /// only components above what each slot/recipe already instantiated.
    Extend,
}

/// One recorded template allocation point: the interval templates minted per
/// moment component so far.
#[derive(Debug, Clone)]
pub struct TemplateSlot {
    /// Restriction level `h` of the slot (components `< h` are zero).
    pub restriction: usize,
    /// Component templates instantiated so far (index = component `k`).
    pub components: Vec<SymInterval>,
}

/// Reuse counters of one plan across its instantiations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Template slots recorded by first instantiations.
    pub slots_created: usize,
    /// Template slots found in the plan and replayed.
    pub slots_reused: usize,
    /// LP template columns minted across all instantiations.
    pub columns_created: usize,
    /// LP template columns contributed by the plan instead of being minted
    /// (degree escalation).
    pub columns_reused: usize,
    /// Constraint recipes recorded by first instantiations.
    pub recipes_recorded: usize,
    /// Constraint recipes replayed against the plan.
    pub recipes_replayed: usize,
    /// Component instances whose rows were *skipped* because an earlier
    /// instantiation already emitted them into the store.
    pub components_skipped: usize,
}

impl PlanStats {
    /// Component-wise sum (for totaling the plans of several groups).
    pub fn merge(&self, other: &PlanStats) -> PlanStats {
        PlanStats {
            slots_created: self.slots_created + other.slots_created,
            slots_reused: self.slots_reused + other.slots_reused,
            columns_created: self.columns_created + other.columns_created,
            columns_reused: self.columns_reused + other.columns_reused,
            recipes_recorded: self.recipes_recorded + other.recipes_recorded,
            recipes_replayed: self.recipes_replayed + other.recipes_replayed,
            components_skipped: self.components_skipped + other.components_skipped,
        }
    }

    /// Component-wise difference (`self` minus an earlier snapshot), for
    /// reporting what one instantiation contributed.
    pub fn since(&self, earlier: &PlanStats) -> PlanStats {
        PlanStats {
            slots_created: self.slots_created - earlier.slots_created,
            slots_reused: self.slots_reused - earlier.slots_reused,
            columns_created: self.columns_created - earlier.columns_created,
            columns_reused: self.columns_reused - earlier.columns_reused,
            recipes_recorded: self.recipes_recorded - earlier.recipes_recorded,
            recipes_replayed: self.recipes_replayed - earlier.recipes_replayed,
            components_skipped: self.components_skipped - earlier.components_skipped,
        }
    }
}

/// The recorded skeleton of one derivation plus its instantiation state.
#[derive(Debug, Clone, Default)]
pub struct DerivationPlan {
    mode: PlanMode,
    slots: BTreeMap<String, TemplateSlot>,
    /// Recipe key → number of components already instantiated into the store.
    recipes: BTreeMap<String, usize>,
    stats: PlanStats,
}

/// Number of LP columns an interval template owns (one per monomial per end).
fn interval_columns(interval: &SymInterval) -> usize {
    interval.lo.terms().count() + interval.hi.terms().count()
}

impl DerivationPlan {
    /// An empty plan in [`PlanMode::Record`].
    pub fn new() -> Self {
        DerivationPlan::default()
    }

    /// Switches the instantiation mode for the next walk.
    pub fn set_mode(&mut self, mode: PlanMode) {
        self.mode = mode;
    }

    /// Reuse counters accumulated so far.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// Resolves the moment annotation of the slot `key` for a walk at target
    /// degree `m`: components served by the plan come back as `Some(_)` (to
    /// be cloned by the caller), components the caller must mint come back as
    /// `None`.  `record` says whether the caller should report the minted
    /// components back via [`record_component`](Self::record_component).
    ///
    /// `Record` mints everything; `Extend` serves every recorded component.
    pub fn slot_components(
        &mut self,
        key: &str,
        restriction: usize,
        m: usize,
    ) -> (Vec<Option<SymInterval>>, bool) {
        match self.mode {
            PlanMode::Record => {
                self.stats.slots_created += 1;
                self.slots.insert(
                    key.to_string(),
                    TemplateSlot {
                        restriction,
                        components: Vec::new(),
                    },
                );
                (vec![None; m + 1], true)
            }
            PlanMode::Extend => match self.slots.get(key) {
                Some(slot) => {
                    debug_assert_eq!(
                        slot.restriction, restriction,
                        "slot `{key}` replayed at a different restriction level"
                    );
                    self.stats.slots_reused += 1;
                    let mut components = Vec::with_capacity(m + 1);
                    for k in 0..=m {
                        match slot.components.get(k) {
                            Some(interval) => {
                                self.stats.columns_reused += interval_columns(interval);
                                components.push(Some(interval.clone()));
                            }
                            None => components.push(None),
                        }
                    }
                    (components, true)
                }
                None => {
                    self.stats.slots_created += 1;
                    self.slots.insert(
                        key.to_string(),
                        TemplateSlot {
                            restriction,
                            components: Vec::new(),
                        },
                    );
                    (vec![None; m + 1], true)
                }
            },
        }
    }

    /// Records a component the caller just minted for the slot `key`
    /// (only meaningful after [`slot_components`](Self::slot_components)
    /// returned `record = true`; components must be reported in order).
    pub fn record_component(&mut self, key: &str, k: usize, interval: &SymInterval) {
        self.stats.columns_created += interval_columns(interval);
        if let Some(slot) = self.slots.get_mut(key) {
            debug_assert_eq!(
                slot.components.len(),
                k,
                "slot `{key}` recorded out of order"
            );
            slot.components.push(interval.clone());
        }
    }

    /// Gate for the constraint recipe `key` about to instantiate components
    /// `0..=m`: returns the first component whose rows must actually be
    /// emitted (components below it are already in the store).
    pub fn recipe_gate(&mut self, key: &str, m: usize) -> usize {
        match self.mode {
            PlanMode::Record => {
                self.stats.recipes_recorded += 1;
                self.recipes.insert(key.to_string(), m + 1);
                0
            }
            PlanMode::Extend => match self.recipes.insert(key.to_string(), m + 1) {
                Some(prev) => {
                    self.stats.recipes_replayed += 1;
                    self.stats.components_skipped += prev.min(m + 1);
                    prev
                }
                None => {
                    self.stats.recipes_recorded += 1;
                    0
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::TemplatePoly;

    fn unit_interval() -> SymInterval {
        SymInterval {
            lo: TemplatePoly::constant(1.0),
            hi: TemplatePoly::constant(1.0),
        }
    }

    #[test]
    fn record_then_extend_serves_old_components() {
        let mut plan = DerivationPlan::new();
        let (components, record) = plan.slot_components("s", 0, 2);
        assert!(record);
        assert!(components.iter().all(Option::is_none));
        for k in 0..=2 {
            plan.record_component("s", k, &unit_interval());
        }
        assert_eq!(plan.recipe_gate("r", 2), 0);

        plan.set_mode(PlanMode::Extend);
        let (components, record) = plan.slot_components("s", 0, 4);
        assert!(record);
        assert!(components[0].is_some() && components[2].is_some());
        assert!(components[3].is_none() && components[4].is_none());
        plan.record_component("s", 3, &unit_interval());
        plan.record_component("s", 4, &unit_interval());
        // The recipe resumes at the first new component.
        assert_eq!(plan.recipe_gate("r", 4), 3);
        // Unknown keys (new restriction levels) instantiate in full.
        assert_eq!(plan.recipe_gate("r-new", 4), 0);
        let (fresh, _) = plan.slot_components("s-new", 3, 4);
        assert!(fresh.iter().all(Option::is_none));
        assert!(plan.stats().slots_reused >= 1);
        assert!(plan.stats().columns_reused > 0);
        assert_eq!(plan.stats().components_skipped, 3);
    }
}
