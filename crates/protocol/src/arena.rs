//! Generational slab arena for in-flight protocol messages.
//!
//! The machine's event queue used to carry whole [`Msg`] values inside
//! every `Deliver` event. A [`Msg`] is ~40 bytes; the queue's ring buckets
//! therefore shuffled 40-byte payloads around on every schedule/pop. The
//! arena moves the payload into a slab indexed by a copyable 8-byte
//! [`MsgRef`], so the hot event type shrinks to a couple of words and the
//! slab's free-list recycles slots instead of growing the queue entries.
//!
//! Handles are **generational**: each slot carries a generation counter
//! that is bumped when the slot is freed, and a [`MsgRef`] embeds the
//! generation it was allocated under. A stale handle — one that outlived
//! a [`MsgArena::take`] of its slot, even after the slot was reused —
//! therefore resolves to `None` rather than aliasing another message's
//! payload. Under fault injection (duplicate deliveries, reordering) this
//! is what turns a would-be use-after-free into a detectable protocol
//! error.

use crate::msg::Msg;

/// A copyable handle to a message parked in a [`MsgArena`].
///
/// `idx` addresses the slot, `gen` is the slot generation at allocation
/// time; the pair is only valid until the message is taken out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MsgRef {
    idx: u32,
    generation: u32,
}

impl MsgRef {
    /// The slot index (diagnostic use only — slots are recycled).
    #[inline]
    pub fn index(self) -> u32 {
        self.idx
    }

    /// The slot generation this handle was allocated under.
    #[inline]
    pub fn generation(self) -> u32 {
        self.generation
    }
}

#[derive(Clone, Copy)]
struct Slot {
    /// Bumped on every free; a handle is live iff its generation matches.
    generation: u32,
    /// `Some` while a message is parked here.
    msg: Option<Msg>,
}

/// A slab of in-flight messages with free-list reuse and generational
/// use-after-free detection. See the module docs.
#[derive(Default)]
pub struct MsgArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    /// Lifetime allocation count (diagnostics).
    allocs: u64,
    /// High-water mark of simultaneously live messages.
    high_water: usize,
}

scd_core::clone_fields!(MsgArena { slots, free, live, allocs, high_water });

impl MsgArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena with room for `cap` messages before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        MsgArena {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            ..Self::default()
        }
    }

    /// Parks `msg` and returns its handle. Reuses a freed slot when one is
    /// available (bumped generation), otherwise grows the slab.
    #[inline]
    pub fn alloc(&mut self, msg: Msg) -> MsgRef {
        self.allocs += 1;
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.msg.is_none(), "free-listed slot still occupied");
            slot.msg = Some(msg);
            return MsgRef {
                idx,
                generation: slot.generation,
            };
        }
        let idx = u32::try_from(self.slots.len()).expect("message arena exceeds u32 slots");
        self.slots.push(Slot {
            generation: 0,
            msg: Some(msg),
        });
        MsgRef { idx, generation: 0 }
    }

    /// Reads the message behind a live handle; `None` if the handle is
    /// stale (its message was already taken, whether or not the slot has
    /// been reused since).
    #[inline]
    pub fn get(&self, r: MsgRef) -> Option<&Msg> {
        let slot = self.slots.get(r.idx as usize)?;
        if slot.generation != r.generation {
            return None;
        }
        slot.msg.as_ref()
    }

    /// Removes and returns the message behind a live handle, freeing its
    /// slot (generation bumped, slot pushed on the free list). Stale
    /// handles return `None` and leave the arena untouched.
    #[inline]
    pub fn take(&mut self, r: MsgRef) -> Option<Msg> {
        let slot = self.slots.get_mut(r.idx as usize)?;
        if slot.generation != r.generation {
            return None;
        }
        let msg = slot.msg.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(r.idx);
        self.live -= 1;
        Some(msg)
    }

    /// Messages currently parked.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// True when nothing is parked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots ever created (slab footprint).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Lifetime allocation count.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// High-water mark of simultaneously live messages.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgKind;

    fn msg(src: usize, dst: usize, block: u64) -> Msg {
        Msg {
            src,
            dst,
            kind: MsgKind::ReadReq { block },
        }
    }

    #[test]
    fn alloc_get_take_round_trip() {
        let mut a = MsgArena::new();
        let r = a.alloc(msg(1, 2, 77));
        assert_eq!(a.live(), 1);
        assert_eq!(a.get(r).unwrap().dst, 2);
        let m = a.take(r).unwrap();
        assert_eq!(m.src, 1);
        assert!(a.is_empty());
        assert_eq!(a.high_water(), 1);
    }

    #[test]
    fn stale_handle_is_rejected_after_free() {
        let mut a = MsgArena::new();
        let r = a.alloc(msg(0, 1, 5));
        assert!(a.take(r).is_some());
        assert_eq!(a.get(r), None, "double read after take");
        assert_eq!(a.take(r), None, "double take");
    }

    /// The soundness property: a handle that outlives its slot's reuse
    /// must NOT alias the new occupant's payload.
    #[test]
    fn stale_handle_never_aliases_reused_slot() {
        let mut a = MsgArena::new();
        let old = a.alloc(msg(3, 4, 10));
        assert!(a.take(old).is_some());
        // Slot is recycled for a different message...
        let new = a.alloc(msg(8, 9, 99));
        assert_eq!(new.index(), old.index(), "free list reuses the slot");
        assert_ne!(new.generation(), old.generation());
        // ...and the stale handle still resolves to nothing.
        assert_eq!(a.get(old), None);
        assert_eq!(a.take(old), None);
        assert_eq!(a.get(new).unwrap().dst, 9);
    }

    #[test]
    fn free_list_bounds_slab_growth() {
        let mut a = MsgArena::new();
        for i in 0..1000u64 {
            let r = a.alloc(msg(0, 1, i));
            assert_eq!(a.take(r).unwrap().kind, MsgKind::ReadReq { block: i });
        }
        assert_eq!(a.capacity(), 1, "serial churn reuses one slot");
        assert_eq!(a.allocs(), 1000);
        assert_eq!(a.high_water(), 1);
    }
}
