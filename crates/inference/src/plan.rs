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
//! A [`DerivationPlan`] exploits this.  A walk of the program visits the
//! same sites in the same order at every degree, restriction level by
//! restriction level, so the plan records walk *positions*, not names:
//!
//! * **template slots** — every program point that allocates a fresh moment
//!   annotation (function pre/post specifications, conditional joins, loop
//!   invariants), in the last walk's visit order, each with the LP columns
//!   minted per component so far;
//! * **constraint recipes** — every containment `Γ ⊨ Q ⊒ Q'` the walk
//!   discharges (and every objective term).  They need no storage: a walk
//!   emits components `0..=m` of every recipe it visits, so the degree the
//!   last walk instantiated says what each recipe already emitted.
//!
//! The logical contexts `Γ` are not part of the plan: every walk reads them
//! from the [`Flow`](cma_logic::Flow)s its group computed.
//!
//! The first walk mints every column and emits every row.  A later walk —
//! the replay of in-session degree escalation `m → m'` — *reuses* instead
//! of re-deriving: at a restriction level `h ≤ m` it visits exactly the
//! slots and recipes the last walk visited, in the same order, so each
//! visit takes the next recorded slot (contributing its columns of
//! components `≤ m` and minting only components `m+1..=m'`) and each recipe
//! emits rows only for the new components (the old rows are already in the
//! live solver session and are *exactly* the component-`≤ m` slice of the
//! degree-`m'` system).  A level `h > m` is new: its slots are inserted at
//! the walk's position and its recipes emit every component.  After the
//! walk the slots are in its own visit order, so escalations chain.
//!
//! A plan lives and dies with one
//! [`ConstraintBuilder`](crate::builder::ConstraintBuilder), and the engine's
//! `build_group` ends every walk with [`finish_walk`](DerivationPlan::finish_walk).
//! A poly-degree retry or a cold escalation is a fresh analysis with a
//! fresh builder and plan, since new template supports leave nothing to
//! reuse.

use crate::template::{SymInterval, SymMoment};

/// One recorded template allocation point: the interval templates minted per
/// moment component so far.
#[derive(Debug, Clone)]
struct TemplateSlot {
    /// Restriction level `h` of the slot (components `< h` are zero).
    level: usize,
    /// Component templates instantiated so far (index = component `k`).
    components: Vec<SymInterval>,
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
    /// instantiation already emitted them into the builder.
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

/// The recorded skeleton of one derivation plus the position of the walk
/// in progress.
#[derive(Debug, Clone, Default)]
pub struct DerivationPlan {
    /// Template slots in the visit order of the last walk (the walk in
    /// progress has already reordered those before `cursor`).
    slots: Vec<TemplateSlot>,
    /// Index of the slot the walk in progress visits next.
    cursor: usize,
    /// The moment degree the last finished walk instantiated, `None` before
    /// the first walk ends.  That walk reached every restriction level up to
    /// it and emitted components `0..=degree` of every recipe it visited.
    degree: Option<usize>,
    stats: PlanStats,
}

/// Number of LP columns an interval template owns (one per monomial per end).
fn interval_columns(interval: &SymInterval) -> usize {
    interval.lo.terms().count() + interval.hi.terms().count()
}

impl DerivationPlan {
    /// An empty plan: its first walk mints every column and emits every row.
    pub fn new() -> Self {
        DerivationPlan::default()
    }

    /// Reuse counters accumulated so far.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// The last walk's degree, if it reached restriction level `level`.
    fn replayed_degree(&self, level: usize) -> Option<usize> {
        self.degree.filter(|&last| level <= last)
    }

    /// The degree-`m` moment annotation of the slot the walk visits next, at
    /// restriction level `level`.  A level the last walk reached takes the
    /// next recorded slot, whose components come back as recorded; any other
    /// visit inserts a fresh slot here.  `mint(k)` makes each component `k`
    /// the slot lacks, in order.
    pub fn moment(
        &mut self,
        level: usize,
        m: usize,
        mut mint: impl FnMut(usize) -> SymInterval,
    ) -> SymMoment {
        if self.replayed_degree(level).is_some() {
            let slot = &self.slots[self.cursor];
            debug_assert_eq!(slot.level, level, "slot replayed at a different level");
            self.stats.slots_reused += 1;
            self.stats.columns_reused += slot
                .components
                .iter()
                .take(m + 1)
                .map(interval_columns)
                .sum::<usize>();
        } else {
            self.stats.slots_created += 1;
            let slot = TemplateSlot {
                level,
                components: Vec::with_capacity(m + 1),
            };
            self.slots.insert(self.cursor, slot);
        }
        let slot = &mut self.slots[self.cursor];
        self.cursor += 1;
        while slot.components.len() <= m {
            let interval = mint(slot.components.len());
            self.stats.columns_created += interval_columns(&interval);
            slot.components.push(interval);
        }
        SymMoment::from_components(slot.components[..=m].to_vec())
    }

    /// Gate for a constraint recipe (or objective term) visited at
    /// restriction level `level` that instantiates components `0..=m`: the
    /// first component whose rows must actually be emitted.  At a level the
    /// last walk reached, that walk already emitted components up to its
    /// own degree; anywhere else every component is new.
    pub fn recipe_gate(&mut self, level: usize, m: usize) -> usize {
        match self.replayed_degree(level) {
            Some(last) => {
                self.stats.recipes_replayed += 1;
                self.stats.components_skipped += (last + 1).min(m + 1);
                last + 1
            }
            None => {
                self.stats.recipes_recorded += 1;
                0
            }
        }
    }

    /// Ends a walk that instantiated moment degree `m`: the next walk
    /// replays this one.
    pub fn finish_walk(&mut self, m: usize) {
        debug_assert_eq!(
            self.cursor,
            self.slots.len(),
            "a walk left recorded slots unvisited"
        );
        self.cursor = 0;
        self.degree = Some(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::TemplatePoly;

    fn unit_interval(_k: usize) -> SymInterval {
        SymInterval {
            lo: TemplatePoly::constant(1.0),
            hi: TemplatePoly::constant(1.0),
        }
    }

    #[test]
    fn record_then_extend_serves_old_components() {
        let mut plan = DerivationPlan::new();
        let mut minted = Vec::new();
        plan.moment(0, 2, |k| {
            minted.push(k);
            unit_interval(k)
        });
        assert_eq!(minted, [0, 1, 2]);
        assert_eq!(plan.recipe_gate(0, 2), 0);
        plan.finish_walk(2);

        // The degree-4 replay: level 0 was reached, so its slot comes back
        // and only components 3 and 4 are minted.
        minted.clear();
        let q = plan.moment(0, 4, |k| {
            minted.push(k);
            unit_interval(k)
        });
        assert_eq!(minted, [3, 4]);
        assert_eq!(q.degree(), 4);
        // The recipe resumes at the first new component.
        assert_eq!(plan.recipe_gate(0, 4), 3);
        // Level 3 is new: a fresh slot and a recipe emitting everything.
        assert_eq!(plan.recipe_gate(3, 4), 0);
        minted.clear();
        plan.moment(3, 4, |k| {
            minted.push(k);
            unit_interval(k)
        });
        assert_eq!(minted, [0, 1, 2, 3, 4]);
        plan.finish_walk(4);

        let stats = plan.stats();
        assert_eq!(stats.slots_created, 2);
        assert_eq!(stats.slots_reused, 1);
        // Two terms per component: 3 components reused, 3 + 2 + 5 minted.
        assert_eq!(stats.columns_reused, 6);
        assert_eq!(stats.columns_created, 20);
        assert_eq!(stats.recipes_recorded, 2);
        assert_eq!(stats.recipes_replayed, 1);
        assert_eq!(stats.components_skipped, 3);

        // A chained replay visits the slots in the last walk's order.
        let levels: Vec<usize> = plan.slots.iter().map(|s| s.level).collect();
        assert_eq!(levels, [0, 3]);
        plan.moment(0, 5, unit_interval);
        plan.moment(3, 5, unit_interval);
        plan.finish_walk(5);
        assert_eq!(plan.stats().slots_reused, 3);
    }
}
