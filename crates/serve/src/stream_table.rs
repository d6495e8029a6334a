//! The shard's stream table: a slab with generation-stamped slots behind
//! an open-addressing index, replacing `HashMap<u64, StreamState>`.
//!
//! Why not a `HashMap`? Three reasons, all from the million-stream goal:
//!
//! - **Slot handles.** Batch partitioning wants to touch each stream
//!   several times per drain (tier check, cursor read, outcome apply).
//!   The slab hands out a dense `u32` slot index on lookup, so the later
//!   touches are direct indexing instead of re-hashing the key.
//! - **Generation stamps.** Slots are recycled through a free list; a
//!   stale handle (held across a hibernate/evict) must fail closed rather
//!   than alias the slot's new tenant. Every slot carries a generation
//!   counter, bumped on vacate, and [`StreamRef`] carries the generation
//!   it was minted under.
//! - **Predictable memory.** Entries live contiguously; the index is a
//!   flat `(key, slot)` array with linear probing and backward-shift
//!   deletion. Per-stream overhead is ~16 B of index (at ≤⅞ load the
//!   probe sequences stay short) + 16 B of slot header, measurable and
//!   flat — the bytes/stream numbers in PERF.md count them.

/// A generation-stamped handle into a [`StreamTable`]. Cheap to copy and
/// safe to hold across mutations: a handle whose slot was vacated (or
/// re-let) since minting simply stops resolving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamRef {
    slot: u32,
    generation: u32,
}

struct Slot<T> {
    /// Bumped every time the slot is vacated; odd = occupied, even = free
    /// (so a handle can never resolve against a free slot even if
    /// generations wrap).
    generation: u32,
    /// The occupying stream's key (meaningful only while occupied).
    key: u64,
    value: Option<T>,
}

/// Flat open-addressing map `key -> slot` (linear probing, backward-shift
/// deletion, power-of-two capacity, ≤⅞ load).
struct Index {
    /// `(key, slot+1)`; slot 0 means empty (keys are only meaningful next
    /// to a non-zero slot, so no tombstones are needed).
    entries: Vec<(u64, u32)>,
    mask: usize,
    len: usize,
}

impl Index {
    fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(16);
        Self {
            entries: vec![(0, 0); cap],
            mask: cap - 1,
            len: 0,
        }
    }

    fn hash(key: u64) -> usize {
        // Fibonacci scramble; stream ids are often sequential.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    fn find(&self, key: u64) -> Option<u32> {
        let mut i = Self::hash(key) & self.mask;
        loop {
            let (k, s) = self.entries[i];
            if s == 0 {
                return None;
            }
            if k == key {
                return Some(s - 1);
            }
            i = (i + 1) & self.mask;
        }
    }

    fn insert(&mut self, key: u64, slot: u32) {
        if (self.len + 1) * 8 > self.entries.len() * 7 {
            self.grow();
        }
        let mut i = Self::hash(key) & self.mask;
        loop {
            let (k, s) = self.entries[i];
            if s == 0 {
                self.entries[i] = (key, slot + 1);
                self.len += 1;
                return;
            }
            debug_assert_ne!(k, key, "insert over live key");
            i = (i + 1) & self.mask;
        }
    }

    fn remove(&mut self, key: u64) -> Option<u32> {
        let mut i = Self::hash(key) & self.mask;
        loop {
            let (k, s) = self.entries[i];
            if s == 0 {
                return None;
            }
            if k == key {
                break;
            }
            i = (i + 1) & self.mask;
        }
        let removed = self.entries[i].1 - 1;
        self.len -= 1;
        // Backward-shift deletion keeps probe chains tombstone-free: a
        // later entry moves into the hole unless its home slot lies
        // cyclically inside (hole, j] — moving such an entry before its
        // home would break its own probe chain.
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let (k, s) = self.entries[j];
            if s == 0 {
                break;
            }
            let home = Self::hash(k) & self.mask;
            let home_inside = if j > hole {
                home > hole && home <= j
            } else {
                home > hole || home <= j
            };
            if !home_inside {
                self.entries[hole] = self.entries[j];
                hole = j;
            }
        }
        self.entries[hole] = (0, 0);
        Some(removed)
    }

    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.entries, vec![(0, 0); (self.mask + 1) * 2]);
        self.mask = self.entries.len() - 1;
        self.len = 0;
        for (k, s) in old {
            if s != 0 {
                self.insert(k, s - 1);
            }
        }
    }
}

/// The slab + index pair; see the module docs.
pub struct StreamTable<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    index: Index,
}

impl<T> StreamTable<T> {
    /// An empty table sized for about `cap` streams.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            slots: Vec::with_capacity(cap.min(1 << 20)),
            free: Vec::new(),
            index: Index::with_capacity(cap.min(1 << 20) * 8 / 7),
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// Whether no streams are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slots ever allocated (occupied + free-listed) — the
    /// clock sweep's address space.
    pub fn slot_span(&self) -> usize {
        self.slots.len()
    }

    /// Resolves `key` to a stamped handle.
    pub fn lookup(&self, key: u64) -> Option<StreamRef> {
        let slot = self.index.find(key)?;
        Some(StreamRef {
            slot,
            generation: self.slots[slot as usize].generation,
        })
    }

    /// Inserts a new stream; the key must not be present.
    pub fn insert(&mut self, key: u64, value: T) -> StreamRef {
        debug_assert!(self.index.find(key).is_none(), "duplicate stream key");
        let slot = match self.free.pop() {
            Some(s) => {
                let cell = &mut self.slots[s as usize];
                cell.generation = cell.generation.wrapping_add(1); // even -> odd
                cell.key = key;
                cell.value = Some(value);
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot {
                    generation: 1,
                    key,
                    value: Some(value),
                });
                s
            }
        };
        self.index.insert(key, slot);
        StreamRef {
            slot,
            generation: self.slots[slot as usize].generation,
        }
    }

    /// The entry behind a handle, if the handle is still current.
    pub fn get_mut(&mut self, r: StreamRef) -> Option<&mut T> {
        let cell = self.slots.get_mut(r.slot as usize)?;
        if cell.generation != r.generation {
            return None;
        }
        cell.value.as_mut()
    }

    /// Read-only access behind a handle.
    pub fn get(&self, r: StreamRef) -> Option<&T> {
        let cell = self.slots.get(r.slot as usize)?;
        if cell.generation != r.generation {
            return None;
        }
        cell.value.as_ref()
    }

    /// The key occupying a handle's slot (handles are minted per key, so
    /// this is the reverse lookup).
    pub fn key_of(&self, r: StreamRef) -> Option<u64> {
        let cell = self.slots.get(r.slot as usize)?;
        (cell.generation == r.generation).then_some(cell.key)
    }

    /// Vacates `key`'s slot, returning its entry. The slot's generation
    /// bumps, so outstanding handles die.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let slot = self.index.remove(key)?;
        let cell = &mut self.slots[slot as usize];
        cell.generation = cell.generation.wrapping_add(1); // odd -> even
        self.free.push(slot);
        cell.value.take()
    }

    /// Visits the occupied slot at clock position `pos % slot_span()`,
    /// returning its key (for a sweep that must not hold a borrow).
    pub fn key_at_clock(&self, pos: usize) -> Option<u64> {
        if self.slots.is_empty() {
            return None;
        }
        let cell = &self.slots[pos % self.slots.len()];
        (cell.generation % 2 == 1).then_some(cell.key)
    }

    /// Drops everything (bundle swap / panic restart).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.index = Index::with_capacity(16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut t: StreamTable<String> = StreamTable::with_capacity(4);
        let a = t.insert(10, "a".into());
        let b = t.insert(20, "b".into());
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).map(String::as_str), Some("a"));
        assert_eq!(t.lookup(20), Some(b));
        assert_eq!(t.key_of(b), Some(20));
        assert_eq!(t.remove(10).as_deref(), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(10), None);
        // The vacated handle fails closed.
        assert!(t.get(a).is_none());
        assert!(t.key_of(a).is_none());
    }

    #[test]
    fn recycled_slot_does_not_honour_stale_handles() {
        let mut t: StreamTable<u32> = StreamTable::with_capacity(2);
        let a = t.insert(1, 100);
        t.remove(1);
        let b = t.insert(2, 200);
        // Slot recycled for a new tenant...
        assert_eq!(b.slot, a.slot);
        // ...but the old handle must not alias it.
        assert!(t.get(a).is_none());
        assert_eq!(t.get(b), Some(&200));
    }

    #[test]
    fn survives_heavy_churn_against_a_model() {
        use std::collections::HashMap;
        let mut t: StreamTable<u64> = StreamTable::with_capacity(8);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut rng = 0x1234_5678u64;
        for step in 0..20_000u64 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (rng >> 33) % 512;
            if rng & 1 == 0 {
                if !model.contains_key(&key) {
                    t.insert(key, step);
                    model.insert(key, step);
                }
            } else {
                assert_eq!(t.remove(key), model.remove(&key));
            }
            if step % 1000 == 0 {
                assert_eq!(t.len(), model.len());
                for (&k, &v) in &model {
                    let r = t.lookup(k).expect("model key present");
                    assert_eq!(t.get(r), Some(&v), "key {k}");
                }
            }
        }
    }

    #[test]
    fn clock_positions_cover_occupied_slots() {
        let mut t: StreamTable<u8> = StreamTable::with_capacity(4);
        for k in 0..10u64 {
            t.insert(k, k as u8);
        }
        t.remove(3);
        t.remove(7);
        let mut seen: Vec<u64> = (0..t.slot_span())
            .filter_map(|p| t.key_at_clock(p))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 4, 5, 6, 8, 9]);
    }
}
