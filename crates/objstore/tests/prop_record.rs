//! Randomized model tests: record encoding round-trips arbitrary
//! schemas and values. Deterministically seeded.

use tq_objstore::{
    record, AttrType, ClassId, DecodeError, Object, ObjectHeader, ObjectStore, Record, Rid, Schema,
    SetValue, Value, RID_BYTES,
};
use tq_pagestore::{CacheConfig, CostModel, FileId, PageId, StorageStack};
use tq_simrng::SimRng;

/// An arbitrary attribute type (references point at class 0).
fn random_attr_type(rng: &mut SimRng) -> AttrType {
    match rng.below(5) {
        0 => AttrType::Int,
        1 => AttrType::Char,
        2 => AttrType::Str,
        3 => AttrType::Ref(ClassId(0)),
        _ => AttrType::SetRef(ClassId(0)),
    }
}

fn random_rid(rng: &mut SimRng) -> Rid {
    Rid::new(
        PageId {
            file: FileId(rng.range_u32(0, 999)),
            page_no: rng.range_u32(0, 99_999),
        },
        rng.range_u32(0, 199) as u16,
    )
}

/// A printable-ASCII string of length 0..60 (the original regex
/// strategy was `[ -~]{0,60}`).
fn random_str(rng: &mut SimRng) -> String {
    let len = rng.index(60);
    (0..len)
        .map(|_| (b' ' + (rng.below(95) as u8)) as char)
        .collect()
}

/// A value matching an attribute type.
fn random_value_for(rng: &mut SimRng, ty: AttrType) -> Value {
    match ty {
        AttrType::Int => Value::Int(rng.next_u32() as i32),
        AttrType::Char => Value::Char(rng.next_u32() as u8),
        AttrType::Str => Value::Str(random_str(rng)),
        AttrType::Ref(_) => {
            if rng.bool() {
                Value::Ref(random_rid(rng))
            } else {
                Value::Ref(Rid::nil())
            }
        }
        AttrType::SetRef(_) => {
            if rng.bool() {
                let n = rng.index(12);
                Value::Set(SetValue::Inline((0..n).map(|_| random_rid(rng)).collect()))
            } else {
                Value::Set(SetValue::Overflow {
                    file: FileId(rng.range_u32(0, 999)),
                    first_page: rng.range_u32(0, 99_999),
                    count: rng.range_u32(0, 4999),
                })
            }
        }
    }
}

/// An arbitrary class, a header for it (index headroom 0 or 8, some
/// memberships) and a matching value vector.
fn random_case(rng: &mut SimRng) -> (Schema, ClassId, Vec<u16>, ObjectHeader, Vec<Value>) {
    let types: Vec<AttrType> = (0..rng.index(10)).map(|_| random_attr_type(rng)).collect();
    let headroom = rng.bool();
    let index_ids: Vec<u16> = (0..rng.index(8))
        .map(|_| rng.range_u32(0, 99) as u16)
        .collect();
    let mut schema = Schema::new();
    let class = schema.add_class(
        "T",
        types
            .iter()
            .enumerate()
            .map(|(i, &ty)| (Box::leak(format!("a{i}").into_boxed_str()) as &str, ty))
            .collect(),
    );
    let values: Vec<Value> = types.iter().map(|&ty| random_value_for(rng, ty)).collect();
    let mut header = ObjectHeader::new(class, headroom);
    if headroom {
        for id in &index_ids {
            header.add_index(*id);
        }
    }
    (schema, class, index_ids, header, values)
}

#[test]
fn encode_decode_round_trips() {
    for case in 0..192u64 {
        let mut rng = SimRng::seed_from_u64(0x2EC0_2D00 + case);
        let (schema, class, index_ids, header, values) = random_case(&mut rng);
        let headroom = header.index_capacity > 0;
        let bytes = record::encode(schema.class(class), &header, &values);
        let decoded = record::decode(schema.class(class), &bytes).expect("round trip");
        assert_eq!(&decoded.values, &values);
        assert_eq!(decoded.header.class, class);
        if headroom {
            // Duplicates collapse; order is preserved.
            let mut expect = Vec::new();
            for id in &index_ids {
                if !expect.contains(id) {
                    expect.push(*id);
                }
            }
            assert_eq!(&decoded.header.index_ids, &expect);
        } else {
            assert!(decoded.header.index_ids.is_empty());
        }
        // Class peeking agrees without a full decode.
        assert_eq!(record::peek_class(&bytes).unwrap(), class);
        // Truncations never panic: they error or (for prefixes that
        // happen to align) decode to something structurally valid.
        for cut in 0..bytes.len() {
            let _ = record::decode(schema.class(class), &bytes[..cut]);
        }
    }
}

/// `view_into` on `bytes` must agree with `decode_into`: the same
/// error, or a record whose every accessor reads what the eager
/// object holds.
fn assert_view_matches_decode(store: &mut ObjectStore, class: ClassId, bytes: &[u8], what: &str) {
    let def = store.schema().class(class).clone();
    let mut rec = Record::default();
    let viewed = record::view_into(&def, bytes, &mut rec);
    let obj = match record::decode(&def, bytes) {
        Ok(obj) => obj,
        Err(e) => return assert_eq!(viewed, Err(e), "{what}"),
    };
    assert_eq!(viewed, Ok(()), "{what}");
    assert_eq!(rec.class(), obj.header.class);
    assert_eq!(rec.is_deleted(), obj.header.is_deleted());
    for id in 0..100 {
        assert_eq!(rec.in_index(id), obj.header.index_ids.contains(&id));
    }
    for (i, value) in obj.values.iter().enumerate() {
        assert_eq!(rec.int(i), value.as_int());
        assert_eq!(rec.ref_rid(i), value.as_ref_rid());
        let Some(set) = value.as_set() else {
            assert!(rec.set(i).is_none());
            continue;
        };
        let mut lazy = rec.set(i).expect("a set attribute");
        let mut eager = store.set_cursor(set);
        assert_eq!(lazy.is_inline(), eager.is_inline());
        assert_eq!(lazy.remaining(), set.len() as u64);
        if let SetValue::Inline(members) = set {
            let mut head = Vec::new();
            lazy.next_chunk(store.stack_mut(), 5, &mut head);
            assert_eq!(head, members[..members.len().min(5)]);
            for _ in 0..head.len() {
                eager.next(store.stack_mut());
            }
            while let Some(rid) = eager.next(store.stack_mut()) {
                assert_eq!(lazy.next(store.stack_mut()), Some(rid));
            }
            assert_eq!(lazy.next(store.stack_mut()), None);
            assert_eq!(lazy.remaining(), 0);
        } else {
            assert_eq!(format!("{lazy:?}"), format!("{eager:?}"));
        }
    }
    let mut again = Object::default();
    rec.decode_into(&mut again).expect("strings were valid");
    assert_eq!(again, obj);
}

#[test]
fn record_view_accepts_and_reads_what_decode_does() {
    for case in 0..192u64 {
        let mut rng = SimRng::seed_from_u64(0x71E3_0000 + case);
        let (schema, class, _, mut header, values) = random_case(&mut rng);
        if rng.bool() {
            header.mark_deleted();
        }
        let stack = StorageStack::new(CostModel::free(), CacheConfig::default());
        let mut store = ObjectStore::new(schema, stack);
        let def = store.schema().class(class).clone();
        let bytes = record::encode(&def, &header, &values);
        assert_view_matches_decode(&mut store, class, &bytes, "valid");
        for cut in 0..bytes.len() {
            assert_view_matches_decode(&mut store, class, &bytes[..cut], "truncated");
        }
        // Index count above capacity.
        let mut bad = bytes.clone();
        bad[4] = bad[3] + 1;
        assert_view_matches_decode(&mut store, class, &bad, "count > capacity");
        // A forwarder where an object was expected.
        assert_view_matches_decode(
            &mut store,
            class,
            &record::encode_forwarder(random_rid(&mut rng)),
            "forwarder",
        );
        // Walk the encoding to corrupt each set tag, and each string.
        let mut at = header.encoded_len();
        for value in &values {
            match value {
                Value::Int(_) => at += 4,
                Value::Char(_) => at += 1,
                Value::Ref(_) => at += RID_BYTES,
                Value::Str(text) => {
                    if !text.is_empty() {
                        // The one documented difference: the view does
                        // not read string contents, materialising does.
                        let mut bad = bytes.clone();
                        bad[at + 2] = 0xFF;
                        let invalid = Err(DecodeError::Corrupt("invalid utf8"));
                        assert_eq!(record::decode(&def, &bad).map(|_| ()), invalid);
                        let mut rec = Record::default();
                        assert_eq!(record::view_into(&def, &bad, &mut rec), Ok(()));
                        assert_eq!(rec.decode_into(&mut Object::default()), invalid);
                    }
                    at += 2 + text.len();
                }
                Value::Set(set) => {
                    let mut bad = bytes.clone();
                    bad[at] = 2 + rng.below(254) as u8;
                    assert_view_matches_decode(&mut store, class, &bad, "bad set tag");
                    at += match set {
                        SetValue::Inline(members) => 3 + members.len() * RID_BYTES,
                        SetValue::Overflow { .. } => 11,
                    };
                }
            }
        }
        assert_eq!(at, bytes.len());
    }
}
