//! Slotted 4 KB pages.
//!
//! The paper's O2 server stores objects in 4 KB pages ("with 4K pages,
//! partially filled — the system always leaves some extra space to deal
//! with growing strings or collections", §2). We implement the classic
//! slotted-page layout: a small header, record bytes growing downward
//! from the header, and a slot directory growing upward from the end of
//! the page. A record is addressed by its [`SlotId`], which stays stable
//! across intra-page compaction — exactly what a physical record
//! identifier (Rid) needs.
//!
//! Layout (all offsets little-endian `u16`):
//!
//! ```text
//! 0           2            4             6
//! ┌───────────┬────────────┬─────────────┬──── record bytes ──▶
//! │ slot_cnt  │ free_start │ free_bytes  │
//! └───────────┴────────────┴─────────────┴─ ...
//!                        ◀── slot dir ───┐
//!        ... ─┬──────┬──────┬──────┬─────┤
//!             │ off₃ │ len₃ │ off₂ │ ... │  (4 bytes per slot, from tail)
//!             └──────┴──────┴──────┴─────┘
//! ```
//!
//! `free_bytes` tracks reclaimable bytes (contiguous gap plus holes left
//! by freed/shrunk records); [`SlottedPage::compact`] squeezes the holes
//! out. Freed slots are tombstoned (`offset == u16::MAX`) and reused by
//! later inserts, so a slot id never silently changes meaning between a
//! free and the next insert that recycles it — callers that need
//! stronger guarantees (the object store) never reuse freed object
//! slots' semantic identity anyway.

use std::fmt;

/// Size of every page in the system, in bytes (the paper's 4 KB).
pub const PAGE_SIZE: usize = 4096;

const HEADER_BYTES: usize = 6;
const SLOT_BYTES: usize = 4;
const TOMBSTONE: u16 = u16::MAX;

/// Index of a record within a page's slot directory.
pub type SlotId = u16;

/// Identifies one page: a file and a page number within that file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// The containing file.
    pub file: crate::disk::FileId,
    /// Zero-based page number within the file.
    pub page_no: u32,
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}:{}", self.file.0, self.page_no)
    }
}

/// A 4 KB slotted page.
///
/// Owns its backing bytes inline, so a page behind the disk's `Arc` is
/// one pointer from its bytes. Cloning clones the bytes (used when a
/// page is first materialized on the disk).
#[derive(Clone)]
pub struct SlottedPage {
    bytes: [u8; PAGE_SIZE],
}

impl Default for SlottedPage {
    fn default() -> Self {
        Self::new()
    }
}

impl SlottedPage {
    /// Creates an empty page: no slots, all space free.
    pub fn new() -> Self {
        let mut page = Self {
            bytes: [0u8; PAGE_SIZE],
        };
        page.set_slot_count(0);
        page.set_free_start(HEADER_BYTES as u16);
        page.set_free_bytes((PAGE_SIZE - HEADER_BYTES) as u16);
        page
    }

    /// Reconstructs a page from raw bytes (e.g. read back from a dump).
    ///
    /// The caller asserts the bytes were produced by this module; no
    /// structural validation beyond length is performed.
    pub fn from_bytes(bytes: Box<[u8; PAGE_SIZE]>) -> Self {
        Self { bytes: *bytes }
    }

    /// The raw backing bytes.
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    fn read_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.bytes[at], self.bytes[at + 1]])
    }

    fn write_u16(&mut self, at: usize, v: u16) {
        self.bytes[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of slots in the directory (including tombstones).
    pub fn slot_count(&self) -> u16 {
        self.read_u16(0)
    }

    fn set_slot_count(&mut self, v: u16) {
        self.write_u16(0, v);
    }

    fn free_start(&self) -> u16 {
        self.read_u16(2)
    }

    fn set_free_start(&mut self, v: u16) {
        self.write_u16(2, v);
    }

    /// Total reclaimable bytes: the contiguous gap plus interior holes.
    ///
    /// An insert of `n` bytes succeeds iff `free_bytes() >= n + 4`
    /// (record plus possibly a new slot directory entry), compacting
    /// first when the contiguous gap alone does not suffice.
    pub fn free_bytes(&self) -> u16 {
        self.read_u16(4)
    }

    fn set_free_bytes(&mut self, v: u16) {
        self.write_u16(4, v);
    }

    fn slot_dir_offset(&self, slot: SlotId) -> usize {
        PAGE_SIZE - SLOT_BYTES * (slot as usize + 1)
    }

    fn slot_entry(&self, slot: SlotId) -> (u16, u16) {
        let at = self.slot_dir_offset(slot);
        (self.read_u16(at), self.read_u16(at + 2))
    }

    fn set_slot_entry(&mut self, slot: SlotId, offset: u16, len: u16) {
        let at = self.slot_dir_offset(slot);
        self.write_u16(at, offset);
        self.write_u16(at + 2, len);
    }

    /// Bytes of contiguous free space between the record area and the
    /// slot directory.
    fn gap(&self) -> usize {
        let dir_start = PAGE_SIZE - SLOT_BYTES * self.slot_count() as usize;
        dir_start - self.free_start() as usize
    }

    fn find_tombstone(&self) -> Option<SlotId> {
        (0..self.slot_count()).find(|&s| self.slot_entry(s).0 == TOMBSTONE)
    }

    /// Inserts a record, returning its slot, or `None` if the page
    /// cannot hold it even after compaction.
    ///
    /// `fill_limit` caps how full the record area may become, in bytes
    /// of *used* record space; pass [`PAGE_SIZE`] for no limit. The
    /// paper notes O2 deliberately leaves slack in pages for growing
    /// values; the object store passes a fill factor through here.
    pub fn insert(&mut self, record: &[u8], fill_limit: usize) -> Option<SlotId> {
        assert!(
            record.len() < PAGE_SIZE - HEADER_BYTES - SLOT_BYTES,
            "record of {} bytes can never fit in a page",
            record.len()
        );
        let reuse = self.find_tombstone();
        let slot_cost = if reuse.is_some() { 0 } else { SLOT_BYTES };
        if (self.free_bytes() as usize) < record.len() + slot_cost {
            return None;
        }
        // Fill-factor check: refuse if used record bytes would exceed the cap.
        let used = PAGE_SIZE - HEADER_BYTES - self.free_bytes() as usize;
        if used + record.len() + slot_cost > fill_limit {
            return None;
        }
        if self.gap() < record.len() + slot_cost {
            self.compact();
        }
        debug_assert!(self.gap() >= record.len() + slot_cost);
        let offset = self.free_start();
        let slot = match reuse {
            Some(s) => s,
            None => {
                let s = self.slot_count();
                self.set_slot_count(s + 1);
                s
            }
        };
        self.bytes[offset as usize..offset as usize + record.len()].copy_from_slice(record);
        self.set_slot_entry(slot, offset, record.len() as u16);
        self.set_free_start(offset + record.len() as u16);
        self.set_free_bytes(self.free_bytes() - (record.len() + slot_cost) as u16);
        Some(slot)
    }

    /// Reads the record in `slot`, or `None` if the slot is free or out
    /// of range.
    pub fn read(&self, slot: SlotId) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (offset, len) = self.slot_entry(slot);
        if offset == TOMBSTONE {
            return None;
        }
        Some(&self.bytes[offset as usize..offset as usize + len as usize])
    }

    /// Overwrites the record in `slot` with `record`.
    ///
    /// Succeeds in place when the new record is no longer than the old
    /// one; otherwise succeeds only if the page can absorb the growth
    /// (possibly after compaction). Returns `false` when the record
    /// must be relocated to another page — the caller's problem, and in
    /// O2 the source of the costly whole-database reallocation when the
    /// first index widens every object header (paper §3.2).
    pub fn update(&mut self, slot: SlotId, record: &[u8]) -> bool {
        let Some((offset, len)) = self.live_entry(slot) else {
            return false;
        };
        if record.len() <= len as usize {
            let start = offset as usize;
            self.bytes[start..start + record.len()].copy_from_slice(record);
            let shrink = len as usize - record.len();
            self.set_slot_entry(slot, offset, record.len() as u16);
            self.set_free_bytes(self.free_bytes() + shrink as u16);
            return true;
        }
        // Growth: free then reinsert into the same slot.
        if (self.free_bytes() as usize + len as usize) < record.len() {
            return false;
        }
        self.set_slot_entry(slot, TOMBSTONE, 0);
        self.set_free_bytes(self.free_bytes() + len);
        if self.gap() < record.len() {
            self.compact();
        }
        let offset = self.free_start();
        self.bytes[offset as usize..offset as usize + record.len()].copy_from_slice(record);
        self.set_slot_entry(slot, offset, record.len() as u16);
        self.set_free_start(offset + record.len() as u16);
        self.set_free_bytes(self.free_bytes() - record.len() as u16);
        true
    }

    /// Frees `slot`. Returns `false` if it was already free/out of range.
    pub fn free(&mut self, slot: SlotId) -> bool {
        let Some((_, len)) = self.live_entry(slot) else {
            return false;
        };
        self.set_slot_entry(slot, TOMBSTONE, 0);
        self.set_free_bytes(self.free_bytes() + len);
        true
    }

    fn live_entry(&self, slot: SlotId) -> Option<(u16, u16)> {
        if slot >= self.slot_count() {
            return None;
        }
        let entry = self.slot_entry(slot);
        (entry.0 != TOMBSTONE).then_some(entry)
    }

    /// Number of live (non-tombstoned) records.
    pub fn live_records(&self) -> usize {
        (0..self.slot_count())
            .filter(|&s| self.slot_entry(s).0 != TOMBSTONE)
            .count()
    }

    /// Iterates `(slot, record)` over live records in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8])> {
        (0..self.slot_count()).filter_map(move |s| self.read(s).map(|r| (s, r)))
    }

    /// Squeezes interior holes out of the record area. Slot ids are
    /// preserved; record offsets change.
    pub fn compact(&mut self) {
        let mut live: Vec<(SlotId, u16, u16)> = (0..self.slot_count())
            .filter_map(|s| {
                let (off, len) = self.slot_entry(s);
                (off != TOMBSTONE).then_some((s, off, len))
            })
            .collect();
        live.sort_by_key(|&(_, off, _)| off);
        let mut write_at = HEADER_BYTES as u16;
        for (slot, off, len) in live {
            if off != write_at {
                self.bytes
                    .copy_within(off as usize..(off + len) as usize, write_at as usize);
                self.set_slot_entry(slot, write_at, len);
            }
            write_at += len;
        }
        self.set_free_start(write_at);
    }
}

impl fmt::Debug for SlottedPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SlottedPage {{ slots: {}, live: {}, free: {} }}",
            self.slot_count(),
            self.live_records(),
            self.free_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_page_is_empty() {
        let p = SlottedPage::new();
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.live_records(), 0);
        assert_eq!(p.free_bytes() as usize, PAGE_SIZE - HEADER_BYTES);
        assert!(p.read(0).is_none());
    }

    #[test]
    fn insert_and_read_round_trip() {
        let mut p = SlottedPage::new();
        let a = p.insert(b"hello", PAGE_SIZE).unwrap();
        let b = p.insert(b"world!", PAGE_SIZE).unwrap();
        assert_ne!(a, b);
        assert_eq!(p.read(a).unwrap(), b"hello");
        assert_eq!(p.read(b).unwrap(), b"world!");
        assert_eq!(p.live_records(), 2);
    }

    #[test]
    fn insert_until_full_then_fail() {
        let mut p = SlottedPage::new();
        let rec = [7u8; 100];
        let mut n = 0;
        while p.insert(&rec, PAGE_SIZE).is_some() {
            n += 1;
        }
        // 100 payload + 4 slot bytes each; 4090 usable.
        assert_eq!(n, (PAGE_SIZE - HEADER_BYTES) / 104);
        assert!(p.free_bytes() < 104);
    }

    #[test]
    fn fill_limit_leaves_slack() {
        let mut p = SlottedPage::new();
        let rec = [1u8; 100];
        let mut n = 0;
        while p.insert(&rec, 2048).is_some() {
            n += 1;
        }
        // Used record space stays under the limit...
        assert!(n * 104 <= 2048);
        // ...but plenty of physical space remains for growth.
        assert!(p.free_bytes() as usize > PAGE_SIZE / 2 - 110);
        // An update that grows a record can still use the slack.
        assert!(p.update(0, &[2u8; 300]));
        assert_eq!(p.read(0).unwrap(), &[2u8; 300][..]);
    }

    #[test]
    fn free_reclaims_space_and_slot() {
        let mut p = SlottedPage::new();
        let a = p.insert(&[1; 50], PAGE_SIZE).unwrap();
        let before = p.free_bytes();
        assert!(p.free(a));
        assert_eq!(p.free_bytes(), before + 50);
        assert!(p.read(a).is_none());
        assert!(!p.free(a), "double free reports failure");
        // Tombstoned slot is reused.
        let b = p.insert(&[2; 10], PAGE_SIZE).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn update_in_place_shrink_and_grow() {
        let mut p = SlottedPage::new();
        let a = p.insert(&[9; 80], PAGE_SIZE).unwrap();
        assert!(p.update(a, &[1; 40]));
        assert_eq!(p.read(a).unwrap(), &[1; 40][..]);
        assert!(p.update(a, &[2; 200]));
        assert_eq!(p.read(a).unwrap(), &[2; 200][..]);
    }

    #[test]
    fn update_fails_only_when_page_truly_full() {
        let mut p = SlottedPage::new();
        let big = vec![3u8; 2000];
        let a = p.insert(&big, PAGE_SIZE).unwrap();
        let _b = p.insert(&big, PAGE_SIZE).unwrap();
        // Growing `a` to 2100 bytes needs 100 net extra; only ~82 remain.
        assert!(!p.update(a, &vec![4u8; 4000]));
        assert_eq!(
            p.read(a).unwrap(),
            &big[..],
            "failed update must not corrupt"
        );
    }

    #[test]
    fn compaction_preserves_contents() {
        let mut p = SlottedPage::new();
        let slots: Vec<_> = (0..20)
            .map(|i| p.insert(&[i as u8; 150], PAGE_SIZE).unwrap())
            .collect();
        for s in slots.iter().step_by(2) {
            p.free(*s);
        }
        p.compact();
        for (i, s) in slots.iter().enumerate() {
            if i % 2 == 0 {
                assert!(p.read(*s).is_none());
            } else {
                assert_eq!(p.read(*s).unwrap(), &vec![i as u8; 150][..]);
            }
        }
        // After compaction the gap equals all free space.
        assert_eq!(p.gap(), p.free_bytes() as usize);
    }

    #[test]
    fn insert_reuses_holes_via_compaction() {
        let mut p = SlottedPage::new();
        // Fill with 10 × 400-byte records = 4040 bytes incl. slots.
        let slots: Vec<_> = (0..10)
            .map(|i| p.insert(&vec![i as u8; 400], PAGE_SIZE).unwrap())
            .collect();
        assert!(p.insert(&[0; 400], PAGE_SIZE).is_none());
        // Free two non-adjacent records; the 800 freed bytes are
        // fragmented, so a 700-byte insert must trigger compaction.
        p.free(slots[1]);
        p.free(slots[5]);
        let s = p
            .insert(&[7u8; 700], PAGE_SIZE)
            .expect("compaction makes room");
        assert_eq!(p.read(s).unwrap(), &[7u8; 700][..]);
        for (i, sl) in slots.iter().enumerate() {
            if i != 1 && i != 5 {
                assert_eq!(p.read(*sl).unwrap(), &vec![i as u8; 400][..]);
            }
        }
    }

    #[test]
    fn bytes_round_trip() {
        let mut p = SlottedPage::new();
        p.insert(b"persist me", PAGE_SIZE).unwrap();
        let q = SlottedPage::from_bytes((*p.as_bytes()).into());
        assert_eq!(q.read(0).unwrap(), b"persist me");
    }
}
