//! Out-of-band per-slot metadata (paper Fig. 1).
//!
//! Exterminator records five fields per object beyond DieHard's allocation
//! bit: the object id, allocation and deallocation sites, the deallocation
//! time, and whether the freed slot was filled with canaries. We add the
//! requested size (DieHard rounds to a power of two) and a tombstone for
//! *bad object isolation* (§3.3). Where a slot is in its life is one
//! [`SlotState`], written only by [`SlotMeta`]'s four transitions, each
//! asserting the state it leaves (`commit` in debug builds only).

use xt_alloc::{AllocTime, ObjectId, SiteHash};

/// Where one slot is in its life. `Unused` is never re-entered and `Bad`
/// is terminal; Fig. 1's canary bit is `Canaried` (and `Bad`, which only
/// a `Canaried` slot enters).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SlotState {
    /// Never allocated.
    #[default]
    Unused,
    /// Currently allocated.
    Live,
    /// Freed (the metadata describes the last occupant), not canaried.
    Freed,
    /// Freed and filled with DieFast's canary.
    Canaried,
    /// Retired by bad-object isolation: its canary was found corrupt, so
    /// its contents and metadata stay as evidence and it is never reused.
    Bad,
}

/// Metadata for one object slot, stored outside the heap data itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SlotMeta {
    /// Current state.
    pub state: SlotState,
    /// Identity of the current (or most recent) occupant.
    pub object_id: ObjectId,
    /// Call site of the allocation.
    pub alloc_site: SiteHash,
    /// Call site of the deallocation (meaningful once freed).
    pub free_site: SiteHash,
    /// Clock at allocation.
    pub alloc_time: AllocTime,
    /// Clock at deallocation (meaningful once freed).
    pub free_time: AllocTime,
    /// Bytes actually requested (≤ slot size).
    pub requested: u32,
}

impl SlotMeta {
    /// `Unused | Freed | Canaried` → `Live`: a new occupant's metadata
    /// replaces the previous one's. The source state is a debug assertion
    /// only: [`reserve_slot`](crate::DieHardHeap::reserve_slot) hands out
    /// only slots whose allocation bit was clear, which are never `Live` or
    /// `Bad`, and an always-on check here cost about 1 % of Fig. 7's
    /// allocation-intensive suite.
    #[inline]
    pub fn commit(&mut self, object_id: ObjectId, site: SiteHash, at: AllocTime, requested: u32) {
        use SlotState::{Canaried, Freed, Unused};
        debug_assert!(
            matches!(self.state, Unused | Freed | Canaried),
            "commit of a {:?} slot",
            self.state
        );
        *self = SlotMeta {
            state: SlotState::Live,
            object_id,
            alloc_site: site,
            free_site: SiteHash::UNKNOWN,
            alloc_time: at,
            free_time: AllocTime::ZERO,
            requested,
        };
    }

    /// `Live` → `Freed`, recording where and when. Panics unless live.
    #[inline]
    pub fn free(&mut self, site: SiteHash, at: AllocTime) {
        if self.state != SlotState::Live {
            wrong_state("free", self.state);
        }
        self.state = SlotState::Freed;
        self.free_site = site;
        self.free_time = at;
    }

    /// `Freed` → `Canaried`: DieFast filled the freed slot with canaries.
    /// Panics unless freed and uncanaried.
    #[inline]
    pub fn canary(&mut self) {
        if self.state != SlotState::Freed {
            wrong_state("canary", self.state);
        }
        self.state = SlotState::Canaried;
    }

    /// `Canaried` → `Bad`: bad-object isolation retires a slot whose canary
    /// was found corrupt, keeping its metadata as evidence. Panics unless
    /// canaried.
    pub fn retire(&mut self) {
        if self.state != SlotState::Canaried {
            wrong_state("retire", self.state);
        }
        self.state = SlotState::Bad;
    }
}

/// A transition's failed precondition: out of line, so the asserting
/// transitions stay small enough to inline into the allocator's hot path.
#[cold]
#[inline(never)]
fn wrong_state(transition: &str, state: SlotState) -> ! {
    panic!("{transition} of a {state:?} slot")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_untouched_free_slot() {
        assert_eq!(SlotMeta::default().state, SlotState::Unused);
    }

    #[test]
    fn transitions_walk_the_lifecycle() {
        let (site, free_site) = (SiteHash::from_raw(1), SiteHash::from_raw(2));
        let mut meta = SlotMeta::default();
        meta.commit(ObjectId::from_raw(1), site, AllocTime::from_raw(1), 12);
        meta.free(free_site, AllocTime::from_raw(3));
        assert_eq!(meta.state, SlotState::Freed);
        meta.commit(ObjectId::from_raw(4), site, AllocTime::from_raw(4), 16);
        assert_eq!(
            (meta.state, meta.free_site),
            (SlotState::Live, SiteHash::UNKNOWN)
        );
        meta.free(free_site, AllocTime::from_raw(5));
        meta.canary();
        let evidence = meta.object_id;
        meta.retire();
        assert_eq!((meta.state, meta.object_id), (SlotState::Bad, evidence));
    }

    #[test]
    #[should_panic(expected = "retire of a Freed slot")]
    fn only_a_canaried_slot_retires() {
        let mut meta = SlotMeta {
            state: SlotState::Freed,
            ..SlotMeta::default()
        };
        meta.retire();
    }
}
