//! Class schemas.
//!
//! A deliberately small slice of the ODMG model — enough to express the
//! paper's Derby-derived schema (Figure 1): classes with integer,
//! character, string, reference and set-of-reference attributes, plus
//! named collections ("Names: Providers set(Provider), Patients
//! set(Patient)").

use std::fmt;

/// Index of a class within its [`Schema`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u16);

impl fmt::Debug for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// Index of an attribute within its class.
pub type AttrId = usize;

/// Attribute types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttrType {
    /// 32-bit signed integer (the paper's "4 bytes per integer").
    Int,
    /// Single character.
    Char,
    /// Variable-length string. In O2, strings are separate records with
    /// their own handles — which is why reading one charges a *literal
    /// handle* (paper §4.4).
    Str,
    /// Reference to an object of the given class (8 bytes on disk).
    Ref(ClassId),
    /// Set of references to objects of the given class. Small sets are
    /// stored inline; sets larger than a page spill to an overflow file
    /// (paper §2: "collections whose size is over 4K ... are always
    /// stored in a separate file").
    SetRef(ClassId),
}

impl AttrType {
    /// True for types O2 represents as separate literal records
    /// (handle-bearing values).
    pub fn is_literal_record(&self) -> bool {
        matches!(self, AttrType::Str)
    }
}

/// One attribute: a name and a type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attr {
    /// Attribute name, e.g. `"mrn"`.
    pub name: String,
    /// Attribute type.
    pub ty: AttrType,
}

/// A class: a name and an ordered attribute list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassDef {
    /// Class name, e.g. `"Patient"`.
    pub name: String,
    /// Attributes in storage order.
    pub attrs: Vec<Attr>,
}

impl ClassDef {
    /// Finds an attribute by name.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.attrs.iter().position(|a| a.name == name)
    }
}

/// A database schema: an ordered set of classes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schema {
    classes: Vec<ClassDef>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a class, returning its id. Names must be unique.
    pub fn add_class(&mut self, name: impl Into<String>, attrs: Vec<(&str, AttrType)>) -> ClassId {
        let name = name.into();
        assert!(
            self.class_by_name(&name).is_none(),
            "duplicate class {name:?}"
        );
        let id = ClassId(self.classes.len() as u16);
        self.classes.push(ClassDef {
            name,
            attrs: attrs
                .into_iter()
                .map(|(n, ty)| Attr {
                    name: n.to_string(),
                    ty,
                })
                .collect(),
        });
        id
    }

    /// The class definition for `id`.
    pub fn class(&self, id: ClassId) -> &ClassDef {
        &self.classes[id.0 as usize]
    }

    /// Finds a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| ClassId(i as u16))
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when no classes are defined.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Iterates `(id, def)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, &ClassDef)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, c)| (ClassId(i as u16), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Schema, ClassId, ClassId) {
        let mut s = Schema::new();
        let provider = s.add_class("Provider", vec![("name", AttrType::Str)]);
        let patient = s.add_class(
            "Patient",
            vec![
                ("name", AttrType::Str),
                ("mrn", AttrType::Int),
                ("sex", AttrType::Char),
                ("primary_care_provider", AttrType::Ref(provider)),
            ],
        );
        (s, provider, patient)
    }

    #[test]
    fn lookup_by_name_and_id() {
        let (s, provider, patient) = sample();
        assert_eq!(s.class_by_name("Provider"), Some(provider));
        assert_eq!(s.class_by_name("Patient"), Some(patient));
        assert_eq!(s.class_by_name("Nurse"), None);
        assert_eq!(s.class(patient).name, "Patient");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn attr_lookup() {
        let (s, _, patient) = sample();
        let c = s.class(patient);
        assert_eq!(c.attr_id("mrn"), Some(1));
        assert_eq!(c.attr_id("ssn"), None);
        assert_eq!(c.attrs[3].ty, AttrType::Ref(ClassId(0)));
    }

    #[test]
    fn literal_record_classification() {
        assert!(AttrType::Str.is_literal_record());
        assert!(!AttrType::Int.is_literal_record());
        assert!(!AttrType::Ref(ClassId(0)).is_literal_record());
    }

    #[test]
    #[should_panic(expected = "duplicate class")]
    fn duplicate_class_panics() {
        let mut s = Schema::new();
        s.add_class("X", vec![]);
        s.add_class("X", vec![]);
    }
}
