//! On-disk record encoding.
//!
//! Every persistent object is one record:
//!
//! ```text
//! ┌───────┬─────────┬──────────┬─────────┬───────────────┬────────────┐
//! │ flags │ class   │ idx cap  │ idx cnt │ cap × idx id  │ attributes │
//! │  u8   │ u16     │ u8       │ u8      │ u16 each      │ ...        │
//! └───────┴─────────┴──────────┴─────────┴───────────────┴────────────┘
//! ```
//!
//! The header carries the *index membership list* the paper describes
//! (§3.2, §4.4): "the O2 system records, for each object, the indexes
//! it belongs to ... stored on disk in the object header. When an
//! object becomes persistent, if it is part of some indexed collection
//! the system creates a header allowing to store information about 8
//! indexes". An object created while its collection is unindexed gets
//! `idx cap = 0` — a 5-byte header. Creating the first index later
//! forces every record to be rewritten with `idx cap = 8` (16 more
//! bytes), which overflows pages and relocates objects: the
//! twelve-hour-load hard truth.
//!
//! With `idx cap = 8` the header is 21 bytes, which lands the paper's
//! object sizes: a Patient encodes to ~64 bytes ("about 60 bytes"), a
//! Provider with 3 inline clients to ~122 bytes ("about 120 bytes").
//!
//! A record whose `FORWARDER` flag is set is not an object but an
//! 8-byte forwarding address left behind by relocation; readers must
//! chase it (an extra page access — relocation hurts twice).

use crate::rid::{Rid, RID_BYTES};
use crate::schema::{AttrType, ClassDef, ClassId};
use crate::store::SetCursor;
use crate::value::{SetValue, Value};
use tq_pagestore::FileId;

/// Flag bits in the first header byte.
pub mod flags {
    /// Object is persistent (reachable from a root).
    pub const PERSISTENT: u8 = 0x01;
    /// Object participates in at least one index.
    pub const INDEXED: u8 = 0x02;
    /// Object is logically deleted.
    pub const DELETED: u8 = 0x04;
    /// Record is a forwarding address, not an object.
    pub const FORWARDER: u8 = 0x80;
}

/// Default index headroom reserved when an object is created into an
/// already-indexed collection (the paper's "8 indexes").
pub const INDEX_HEADROOM: u8 = 8;

/// Decoded record header.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObjectHeader {
    /// Flag bits (see [`flags`]).
    pub flags: u8,
    /// The object's exact class.
    pub class: ClassId,
    /// Allocated index-id slots (0 or [`INDEX_HEADROOM`], may grow).
    pub index_capacity: u8,
    /// Index ids this object belongs to (`len() <= index_capacity`).
    pub index_ids: Vec<u16>,
}

impl ObjectHeader {
    /// A fresh persistent header for `class`; `with_index_headroom`
    /// reserves the 8-slot index area at creation time (what O2 does
    /// when the collection is already indexed).
    pub fn new(class: ClassId, with_index_headroom: bool) -> Self {
        Self {
            flags: flags::PERSISTENT,
            class,
            index_capacity: if with_index_headroom {
                INDEX_HEADROOM
            } else {
                0
            },
            index_ids: Vec::new(),
        }
    }

    /// Header byte length on disk.
    pub fn encoded_len(&self) -> usize {
        5 + 2 * self.index_capacity as usize
    }

    /// Registers membership in `index_id`.
    ///
    /// Returns `false` when the header has no free slot (capacity 0 or
    /// full): the record must be rewritten with a wider header — the
    /// §3.2 relocation storm.
    pub fn add_index(&mut self, index_id: u16) -> bool {
        if self.index_ids.contains(&index_id) {
            return true;
        }
        if self.index_ids.len() >= self.index_capacity as usize {
            return false;
        }
        self.index_ids.push(index_id);
        self.flags |= flags::INDEXED;
        true
    }

    /// Widens the index area to at least [`INDEX_HEADROOM`] slots.
    pub fn widen_index_area(&mut self) {
        self.index_capacity = self.index_capacity.max(INDEX_HEADROOM);
    }

    /// True when the object is logically deleted.
    pub fn is_deleted(&self) -> bool {
        self.flags & flags::DELETED != 0
    }

    /// Marks the object logically deleted. The record stays in place
    /// (physical rids may be referenced elsewhere); scans skip it and a
    /// later reorganization reclaims the space.
    pub fn mark_deleted(&mut self) {
        self.flags |= flags::DELETED;
    }
}

/// A decoded object: header plus attribute values in schema order.
/// The default is an empty shell for [`decode_into`] to fill.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Object {
    /// Record header.
    pub header: ObjectHeader,
    /// Attribute values, one per schema attribute, in order.
    pub values: Vec<Value>,
}

impl Object {
    /// Value of attribute `i`.
    pub fn attr(&self, i: usize) -> &Value {
        &self.values[i]
    }
}

/// Errors raised by [`decode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The record is a forwarder; follow the contained rid.
    Forwarded(Rid),
    /// The bytes are structurally invalid for the claimed class.
    Corrupt(&'static str),
}

fn put_rid(out: &mut Vec<u8>, rid: Rid) {
    out.extend_from_slice(&rid.encode());
}

/// Serializes an object per its class definition.
///
/// Panics if `values` does not match the class's attribute list — a
/// programming error, not a data error.
pub fn encode(class_def: &ClassDef, header: &ObjectHeader, values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(header.encoded_len() + 64);
    encode_into(class_def, header, values, &mut out);
    out
}

/// [`encode`] into a caller-supplied buffer, which is cleared first.
/// Insert/update loops that recycle one scratch buffer stay off the
/// allocator entirely.
pub fn encode_into(
    class_def: &ClassDef,
    header: &ObjectHeader,
    values: &[Value],
    out: &mut Vec<u8>,
) {
    assert_eq!(
        values.len(),
        class_def.attrs.len(),
        "value count must match schema for class {:?}",
        class_def.name
    );
    out.clear();
    out.push(header.flags);
    out.extend_from_slice(&header.class.0.to_le_bytes());
    out.push(header.index_capacity);
    assert!(header.index_ids.len() <= header.index_capacity as usize);
    out.push(header.index_ids.len() as u8);
    for i in 0..header.index_capacity {
        let id = header.index_ids.get(i as usize).copied().unwrap_or(0);
        out.extend_from_slice(&id.to_le_bytes());
    }
    for (attr, value) in class_def.attrs.iter().zip(values) {
        match (&attr.ty, value) {
            (AttrType::Int, Value::Int(i)) => out.extend_from_slice(&i.to_le_bytes()),
            (AttrType::Char, Value::Char(c)) => out.push(*c),
            (AttrType::Str, Value::Str(s)) => {
                let bytes = s.as_bytes();
                assert!(bytes.len() <= u16::MAX as usize, "string too long");
                out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
                out.extend_from_slice(bytes);
            }
            (AttrType::Ref(_), Value::Ref(r)) => put_rid(out, *r),
            (AttrType::SetRef(_), Value::Set(SetValue::Inline(rids))) => {
                out.push(0); // inline tag
                assert!(rids.len() <= u16::MAX as usize, "inline set too large");
                out.extend_from_slice(&(rids.len() as u16).to_le_bytes());
                for r in rids {
                    put_rid(out, *r);
                }
            }
            (
                AttrType::SetRef(_),
                Value::Set(SetValue::Overflow {
                    file,
                    first_page,
                    count,
                }),
            ) => {
                out.push(1); // overflow tag
                let f: u16 = file.0.try_into().expect("file id exceeds u16");
                out.extend_from_slice(&f.to_le_bytes());
                out.extend_from_slice(&first_page.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
            }
            (ty, v) => panic!(
                "attribute {:?} of class {:?} expects {:?}, got {:?}",
                attr.name, class_def.name, ty, v
            ),
        }
    }
}

/// Builds the 9-byte forwarding record left at a relocated object's old
/// address.
pub fn encode_forwarder(new_location: Rid) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + RID_BYTES);
    out.push(flags::FORWARDER);
    put_rid(&mut out, new_location);
    out
}

/// True if the raw record bytes are a forwarder.
pub fn is_forwarder(bytes: &[u8]) -> bool {
    !bytes.is_empty() && bytes[0] & flags::FORWARDER != 0
}

/// Where a forwarder points; `None` when `bytes` are an object.
pub fn forwarder_target(bytes: &[u8]) -> Option<Rid> {
    is_forwarder(bytes).then(|| Rid::decode(&bytes[1..]))
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.at + n > self.bytes.len() {
            return Err(DecodeError::Corrupt("record truncated"));
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn i32(&mut self) -> Result<i32, DecodeError> {
        let b = self.take(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn rid(&mut self) -> Result<Rid, DecodeError> {
        Ok(Rid::decode(self.take(RID_BYTES)?))
    }

    /// The fixed five header bytes: `(flags, class, idx cap, idx cnt)`,
    /// or the forwarding address when the record is a forwarder.
    fn header_prefix(&mut self) -> Result<(u8, ClassId, u8, u8), DecodeError> {
        let fl = self.u8()?;
        if fl & flags::FORWARDER != 0 {
            return Err(DecodeError::Forwarded(self.rid()?));
        }
        let class = ClassId(self.u16()?);
        let capacity = self.u8()?;
        let count = self.u8()?;
        if count > capacity {
            return Err(DecodeError::Corrupt("index count exceeds capacity"));
        }
        Ok((fl, class, capacity, count))
    }
}

/// Deserializes a record. Returns [`DecodeError::Forwarded`] when the
/// record is a forwarding address.
pub fn decode(class_def: &ClassDef, bytes: &[u8]) -> Result<Object, DecodeError> {
    let mut out = Object::default();
    decode_into(class_def, bytes, &mut out)?;
    Ok(out)
}

fn set_slot(values: &mut Vec<Value>, i: usize, v: Value) {
    match values.get_mut(i) {
        Some(slot) => *slot = v,
        None => values.push(v),
    }
}

/// Deserializes a record into `out`, reusing its allocations: the
/// value and index-id vectors, and — when the slot already holds the
/// same variant — string and inline-set buffers. A scan loop that
/// recycles one `Object` per record settles into zero heap traffic,
/// which is what keeps paper-scale fetch loops off the allocator.
///
/// On any error (including [`DecodeError::Forwarded`]) `out` is left
/// in an unspecified but valid state.
pub fn decode_into(
    class_def: &ClassDef,
    bytes: &[u8],
    out: &mut Object,
) -> Result<(), DecodeError> {
    decode_typed(class_def.attrs.iter().map(|a| a.ty), bytes, out)
}

/// [`decode_into`] over the attribute types alone, which is all of the
/// class definition the encoding depends on.
fn decode_typed(
    types: impl ExactSizeIterator<Item = AttrType>,
    bytes: &[u8],
    out: &mut Object,
) -> Result<(), DecodeError> {
    let mut r = Reader { bytes, at: 0 };
    let (fl, class, capacity, count) = r.header_prefix()?;
    out.header.flags = fl;
    out.header.class = class;
    out.header.index_capacity = capacity;
    out.header.index_ids.clear();
    for i in 0..capacity {
        let id = r.u16()?;
        if i < count {
            out.header.index_ids.push(id);
        }
    }
    let attr_count = types.len();
    for (i, ty) in types.enumerate() {
        match ty {
            AttrType::Int => set_slot(&mut out.values, i, Value::Int(r.i32()?)),
            AttrType::Char => set_slot(&mut out.values, i, Value::Char(r.u8()?)),
            AttrType::Str => {
                let len = r.u16()? as usize;
                let s = std::str::from_utf8(r.take(len)?)
                    .map_err(|_| DecodeError::Corrupt("invalid utf8"))?;
                match out.values.get_mut(i) {
                    Some(Value::Str(old)) => {
                        old.clear();
                        old.push_str(s);
                    }
                    slot => {
                        let v = Value::Str(s.to_string());
                        match slot {
                            Some(slot) => *slot = v,
                            None => out.values.push(v),
                        }
                    }
                }
            }
            AttrType::Ref(_) => set_slot(&mut out.values, i, Value::Ref(r.rid()?)),
            AttrType::SetRef(_) => match r.u8()? {
                0 => {
                    let n = r.u16()? as usize;
                    match out.values.get_mut(i) {
                        Some(Value::Set(SetValue::Inline(rids))) => {
                            rids.clear();
                            for _ in 0..n {
                                rids.push(r.rid()?);
                            }
                        }
                        slot => {
                            let mut rids = Vec::with_capacity(n);
                            for _ in 0..n {
                                rids.push(r.rid()?);
                            }
                            let v = Value::Set(SetValue::Inline(rids));
                            match slot {
                                Some(slot) => *slot = v,
                                None => out.values.push(v),
                            }
                        }
                    }
                }
                1 => {
                    let file = FileId(r.u16()? as u32);
                    let first_page = r.u32()?;
                    let count = r.u32()?;
                    set_slot(
                        &mut out.values,
                        i,
                        Value::Set(SetValue::Overflow {
                            file,
                            first_page,
                            count,
                        }),
                    );
                }
                _ => return Err(DecodeError::Corrupt("bad set tag")),
            },
        }
    }
    out.values.truncate(attr_count);
    Ok(())
}

/// A fetched record kept as the raw bytes it has on its page, plus the
/// offset and type of each attribute's encoding.
///
/// [`view_into`] checks the structure exactly as [`decode_into`] does —
/// every length, the set tags, the index count — so the accessors read
/// in-bounds bytes without re-validating. The one check left to the
/// reader is UTF-8: a string is validated when it is materialised
/// ([`Record::decode_into`]), not when the record is fetched.
#[derive(Clone, Debug, Default)]
pub struct Record {
    bytes: Vec<u8>,
    attrs: Vec<(u32, AttrType)>,
}

/// Points `out` at a copy of `bytes`, validated against `class_def`;
/// reuses `out`'s buffers. Fails on what [`decode_into`] fails on, with
/// the same error, except that string contents are not looked at.
///
/// On any error `out` is left in an unspecified but valid state.
pub fn view_into(class_def: &ClassDef, bytes: &[u8], out: &mut Record) -> Result<(), DecodeError> {
    let mut r = Reader { bytes, at: 0 };
    let (.., capacity, _) = r.header_prefix()?;
    r.take(2 * capacity as usize)?;
    out.attrs.clear();
    for attr in &class_def.attrs {
        out.attrs.push((r.at as u32, attr.ty));
        let len = match attr.ty {
            AttrType::Int => 4,
            AttrType::Char => 1,
            AttrType::Str => r.u16()? as usize,
            AttrType::Ref(_) => RID_BYTES,
            AttrType::SetRef(_) => match r.u8()? {
                0 => r.u16()? as usize * RID_BYTES,
                1 => 10,
                _ => return Err(DecodeError::Corrupt("bad set tag")),
            },
        };
        r.take(len)?;
    }
    out.bytes.clear();
    out.bytes.extend_from_slice(&bytes[..r.at]);
    Ok(())
}

impl Record {
    /// The object's exact class.
    pub fn class(&self) -> ClassId {
        ClassId(u16::from_le_bytes([self.bytes[1], self.bytes[2]]))
    }

    /// True when the object is logically deleted.
    pub fn is_deleted(&self) -> bool {
        self.bytes[0] & flags::DELETED != 0
    }

    /// True when the header lists membership in `index_id`.
    pub fn in_index(&self, index_id: u16) -> bool {
        self.bytes[5..5 + 2 * self.bytes[4] as usize]
            .chunks_exact(2)
            .any(|id| id == index_id.to_le_bytes())
    }

    /// Integer payload of attribute `i`, if it is an `Int`.
    pub fn int(&self, i: usize) -> Option<i32> {
        match self.attrs[i] {
            (at, AttrType::Int) => {
                let b = &self.bytes[at as usize..];
                Some(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            }
            _ => None,
        }
    }

    /// Reference payload of attribute `i`, if it is a `Ref`.
    pub fn ref_rid(&self, i: usize) -> Option<Rid> {
        match self.attrs[i] {
            (at, AttrType::Ref(_)) => Some(Rid::decode(&self.bytes[at as usize..])),
            _ => None,
        }
    }

    /// A cursor over the members of attribute `i`, if it is a set.
    /// Inline members are read off this record's bytes.
    pub fn set(&self, i: usize) -> Option<SetCursor<'_>> {
        let (at, AttrType::SetRef(_)) = self.attrs[i] else {
            return None;
        };
        let b = &self.bytes[at as usize..];
        let u32_at = |at: usize| u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
        let short = u16::from_le_bytes([b[1], b[2]]);
        Some(match b[0] {
            0 => SetCursor::InlineRaw(&b[3..3 + short as usize * RID_BYTES]),
            _ => SetCursor::overflow(FileId(short as u32), u32_at(3), u32_at(7)),
        })
    }

    /// Materialises the eager [`Object`] into `out`, reusing its
    /// allocations as [`decode_into`] does. Fails only on a string that
    /// is not UTF-8.
    pub fn decode_into(&self, out: &mut Object) -> Result<(), DecodeError> {
        decode_typed(self.attrs.iter().map(|a| a.1), &self.bytes, out)
    }
}

/// Decodes only the record header — no attribute values, no
/// allocation beyond the index-id vector. Update paths that rewrite a
/// record from fresh values need the header (flags, class, index
/// membership) but not the old attributes; skipping the value decode
/// keeps the 4M-object wiring pass off the allocator.
///
/// Returns [`DecodeError::Forwarded`] when the record is a forwarding
/// address.
pub fn decode_header(bytes: &[u8]) -> Result<ObjectHeader, DecodeError> {
    let mut r = Reader { bytes, at: 0 };
    let (fl, class, capacity, count) = r.header_prefix()?;
    let mut index_ids = Vec::with_capacity(count as usize);
    for i in 0..capacity {
        let id = r.u16()?;
        if i < count {
            index_ids.push(id);
        }
    }
    Ok(ObjectHeader {
        flags: fl,
        class,
        index_capacity: capacity,
        index_ids,
    })
}

/// Decodes only the header-resident class id — cheap class filtering
/// for extent scans over mixed files.
pub fn peek_class(bytes: &[u8]) -> Result<ClassId, DecodeError> {
    if is_forwarder(bytes) {
        let mut r = Reader { bytes, at: 1 };
        return Err(DecodeError::Forwarded(r.rid()?));
    }
    if bytes.len() < 3 {
        return Err(DecodeError::Corrupt("record truncated"));
    }
    Ok(ClassId(u16::from_le_bytes([bytes[1], bytes[2]])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use tq_pagestore::PageId;

    fn derby() -> (Schema, ClassId, ClassId) {
        let mut s = Schema::new();
        // Provider's clients set references Patient, which gets id 1.
        let provider = s.add_class(
            "Provider",
            vec![
                ("name", AttrType::Str),
                ("upin", AttrType::Int),
                ("address", AttrType::Str),
                ("specialty", AttrType::Str),
                ("office", AttrType::Str),
                ("clients", AttrType::SetRef(ClassId(1))),
            ],
        );
        let patient = s.add_class(
            "Patient",
            vec![
                ("name", AttrType::Str),
                ("mrn", AttrType::Int),
                ("age", AttrType::Int),
                ("sex", AttrType::Char),
                ("random_integer", AttrType::Int),
                ("num", AttrType::Int),
                ("primary_care_provider", AttrType::Ref(provider)),
            ],
        );
        (s, provider, patient)
    }

    fn rid(file: u32, page: u32, slot: u16) -> Rid {
        Rid::new(
            PageId {
                file: FileId(file),
                page_no: page,
            },
            slot,
        )
    }

    fn sample_patient(_s: &Schema, patient: ClassId, headroom: bool) -> (ObjectHeader, Vec<Value>) {
        let header = ObjectHeader::new(patient, headroom);
        let values = vec![
            Value::Str("Obelix Menhir Co".into()),
            Value::Int(42),
            Value::Int(30),
            Value::Char(b'M'),
            Value::Int(777_777),
            Value::Int(123_456),
            Value::Ref(rid(0, 17, 3)),
        ];
        (header, values)
    }

    #[test]
    fn patient_round_trip_and_size() {
        let (s, _, patient) = derby();
        let (header, values) = sample_patient(&s, patient, true);
        let bytes = encode(s.class(patient), &header, &values);
        // ~64 bytes: the paper's "about 60 bytes" per Patient.
        assert!(
            (55..=70).contains(&bytes.len()),
            "patient record is {} bytes",
            bytes.len()
        );
        let obj = decode(s.class(patient), &bytes).unwrap();
        assert_eq!(obj.header, header);
        assert_eq!(obj.values, values);
    }

    #[test]
    fn provider_round_trip_inline_set_and_size() {
        let (s, provider, _) = derby();
        let header = ObjectHeader::new(provider, true);
        let values = vec![
            Value::Str("Donald Duck MD..".into()),
            Value::Int(7),
            Value::Str("13 rue du Port..".into()),
            Value::Str("pediatrics......".into()),
            Value::Str("office 12.......".into()),
            Value::Set(SetValue::Inline(vec![
                rid(1, 5, 0),
                rid(1, 9, 4),
                rid(1, 2, 2),
            ])),
        ];
        let bytes = encode(s.class(provider), &header, &values);
        // ~122 bytes: the paper's "about 120 bytes" per Provider.
        assert!(
            (110..=135).contains(&bytes.len()),
            "provider record is {} bytes",
            bytes.len()
        );
        let obj = decode(s.class(provider), &bytes).unwrap();
        assert_eq!(obj.values, values);
    }

    #[test]
    fn overflow_set_round_trip() {
        let (s, provider, _) = derby();
        let header = ObjectHeader::new(provider, true);
        let values = vec![
            Value::Str("A".into()),
            Value::Int(1),
            Value::Str("B".into()),
            Value::Str("C".into()),
            Value::Str("D".into()),
            Value::Set(SetValue::Overflow {
                file: FileId(4),
                first_page: 120,
                count: 1000,
            }),
        ];
        let bytes = encode(s.class(provider), &header, &values);
        let obj = decode(s.class(provider), &bytes).unwrap();
        assert_eq!(obj.values[5], values[5]);
    }

    #[test]
    fn headroom_changes_size_by_sixteen_bytes() {
        let (s, _, patient) = derby();
        let (h1, values) = sample_patient(&s, patient, true);
        let (h0, _) = sample_patient(&s, patient, false);
        let with = encode(s.class(patient), &h1, &values).len();
        let without = encode(s.class(patient), &h0, &values).len();
        assert_eq!(with - without, 2 * INDEX_HEADROOM as usize);
    }

    #[test]
    fn index_membership_capacity_rules() {
        let mut h = ObjectHeader::new(ClassId(0), false);
        assert!(!h.add_index(3), "no headroom: needs widening");
        h.widen_index_area();
        assert!(h.add_index(3));
        assert!(h.add_index(3), "idempotent re-add");
        assert_eq!(h.index_ids, vec![3]);
        for i in 0..7u16 {
            assert!(h.add_index(10 + i));
        }
        assert!(!h.add_index(99), "nine indexes exceed headroom of 8");
        assert!(h.flags & flags::INDEXED != 0);
    }

    #[test]
    fn index_ids_survive_round_trip() {
        let (s, _, patient) = derby();
        let (mut header, values) = sample_patient(&s, patient, true);
        header.add_index(5);
        header.add_index(9);
        let bytes = encode(s.class(patient), &header, &values);
        let obj = decode(s.class(patient), &bytes).unwrap();
        assert_eq!(obj.header.index_ids, vec![5, 9]);
        assert_eq!(obj.header.index_capacity, INDEX_HEADROOM);
    }

    #[test]
    fn forwarder_round_trip() {
        let target = rid(2, 99, 1);
        let bytes = encode_forwarder(target);
        assert!(is_forwarder(&bytes));
        let (s, _, patient) = derby();
        match decode(s.class(patient), &bytes) {
            Err(DecodeError::Forwarded(r)) => assert_eq!(r, target),
            other => panic!("expected forwarder, got {other:?}"),
        }
        match peek_class(&bytes) {
            Err(DecodeError::Forwarded(r)) => assert_eq!(r, target),
            other => panic!("expected forwarder, got {other:?}"),
        }
    }

    #[test]
    fn peek_class_reads_only_header() {
        let (s, _, patient) = derby();
        let (header, values) = sample_patient(&s, patient, false);
        let bytes = encode(s.class(patient), &header, &values);
        assert_eq!(peek_class(&bytes).unwrap(), patient);
    }

    #[test]
    fn truncated_record_is_corrupt_not_panic() {
        let (s, _, patient) = derby();
        let (header, values) = sample_patient(&s, patient, true);
        let bytes = encode(s.class(patient), &header, &values);
        for cut in [0, 1, 4, 10, bytes.len() - 1] {
            match decode(s.class(patient), &bytes[..cut]) {
                Err(DecodeError::Corrupt(_)) => {}
                other => panic!("cut at {cut}: expected corrupt, got {other:?}"),
            }
        }
    }
}
