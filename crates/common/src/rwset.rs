//! Keys, values, read sets and write sets.
//!
//! In the execute phase, endorsing peers simulate a contract invocation and record a
//! *readset* (every key read, together with the version observed) and a *writeset* (every key
//! written, together with the new value). These sets are the only transaction payload the
//! orderer-side concurrency controls ever look at.

use crate::version::SeqNo;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Longest key kept inline: the bytes that fit next to a length byte and the enum tag in the
/// 24 bytes a `Vec<u8>` header would take.
const KEY_INLINE_CAP: usize = 22;

/// Longest value kept inline: the bytes that fit next to a length byte and the enum tag in the
/// 16 bytes of a tag and a one-word pointer.
const VALUE_INLINE_CAP: usize = 14;

/// A state-database key.
///
/// Keys are immutable, cheaply cloneable strings. A key of up to 22 bytes — every workload key
/// — lives inline, so creating, cloning or dropping one never touches the heap, and a store
/// holding it spends no heap chunk on it; a longer key shares an `Arc<str>`. Either way a
/// `Key` is 24 bytes. Equality, order and hashing see only the bytes, exactly as `str`'s do
/// (so a map keyed by `Key` can be probed with a `&str`), never which form holds them.
///
/// Hot paths read [`Key::as_bytes`]: [`Key::as_str`] re-checks an inline key's UTF-8.
#[derive(Clone)]
pub struct Key(KeyRepr);

/// The two forms of a [`Key`]. A key of up to `KEY_INLINE_CAP` bytes is always `Inline`, with
/// the bytes past `len` zero, so two inline keys are equal exactly when their fields are.
#[derive(Clone)]
enum KeyRepr {
    Inline {
        len: u8,
        bytes: [u8; KEY_INLINE_CAP],
    },
    Shared(Arc<str>),
}

const _: () = assert!(std::mem::size_of::<Key>() == 24);

impl Key {
    /// Creates a key from anything string-like.
    pub fn new(s: impl AsRef<str>) -> Self {
        let s = s.as_ref();
        Key::inline(s.as_bytes()).unwrap_or_else(|| Key(KeyRepr::Shared(Arc::from(s))))
    }

    /// The key whose text is `bytes`, if they are UTF-8.
    pub fn from_utf8(bytes: &[u8]) -> Result<Self, std::str::Utf8Error> {
        std::str::from_utf8(bytes).map(Key::new)
    }

    /// The inline key holding `bytes`, if they fit; `bytes` must be a whole `str`.
    #[inline]
    fn inline(bytes: &[u8]) -> Option<Self> {
        let mut inline = [0u8; KEY_INLINE_CAP];
        inline.get_mut(..bytes.len())?.copy_from_slice(bytes);
        Some(Key(KeyRepr::Inline {
            len: bytes.len() as u8,
            bytes: inline,
        }))
    }

    /// Creates a key from `format_args!(..)`: the text is formatted into a 64-byte stack
    /// buffer, so a key of up to 22 bytes allocates nothing (and its UTF-8 is not checked
    /// again) and one of up to 64 bytes allocates only its `Arc<str>`; a longer one is
    /// formatted again into a `String`.
    pub fn from_fmt(args: fmt::Arguments<'_>) -> Self {
        let mut buf = StackStr {
            buf: [0; KEY_STACK_CAP],
            len: 0,
        };
        match fmt::write(&mut buf, args) {
            Ok(()) => Key::inline(&buf.buf[..buf.len]).unwrap_or_else(|| Key::new(buf.as_str())),
            Err(fmt::Error) => Key::from(fmt::format(args)),
        }
    }

    /// The key's bytes: its UTF-8 text, without checking it again.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            KeyRepr::Inline { len, bytes } => &bytes[..*len as usize],
            KeyRepr::Shared(s) => s.as_bytes(),
        }
    }

    /// Returns the key as a string slice. An inline key's bytes are checked as UTF-8 on every
    /// call (this crate has no `unsafe`), so hot paths take [`Key::as_bytes`] instead.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            KeyRepr::Inline { len, bytes } => std::str::from_utf8(&bytes[..*len as usize])
                .expect("a key is built from a whole `str`"),
            KeyRepr::Shared(s) => s,
        }
    }
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (KeyRepr::Inline { len, bytes }, KeyRepr::Inline { len: l, bytes: b }) => {
                len == l && bytes == b
            }
            (KeyRepr::Shared(a), KeyRepr::Shared(b)) => a == b,
            // Each length has one form, so the forms differ only where the lengths do.
            _ => false,
        }
    }
}

impl Eq for Key {}

/// `str`'s order: bytewise.
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// `str`'s hash: the bytes, then the `0xff` no UTF-8 text contains. [`Borrow<str>`] relies on
/// the two agreeing.
///
/// [`Borrow<str>`]: std::borrow::Borrow
impl Hash for Key {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

/// Bytes of [`Key::from_fmt`]'s stack buffer.
const KEY_STACK_CAP: usize = 64;

/// A fixed-capacity `fmt::Write` sink that fails instead of growing.
struct StackStr {
    buf: [u8; KEY_STACK_CAP],
    len: usize,
}

impl StackStr {
    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("only whole `str`s are written")
    }
}

impl fmt::Write for StackStr {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        self.buf
            .get_mut(self.len..end)
            .ok_or(fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key::new(s)
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Key::new(s)
    }
}

impl std::borrow::Borrow<str> for Key {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

/// A state-database value.
///
/// Values are opaque byte strings, with convenience constructors for the integer balances
/// used by the Smallbank workloads. A value of up to 14 bytes — every 8-byte balance — lives
/// inline, so creating, cloning or dropping one never touches the heap; a longer one owns a
/// heap slice behind a one-word box. Either way a `Value` is 16 bytes (a store keeps one per
/// version), and equality, hashing and `Debug` see only the byte content, never which of the
/// two forms holds it.
#[derive(Clone)]
pub struct Value(Repr);

/// The two forms of a [`Value`]. A value of up to `VALUE_INLINE_CAP` bytes is always
/// `Inline`; a longer one is `Heap`, whose outer box keeps the variant to one word (a
/// `Box<[u8]>` is two).
#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        bytes: [u8; VALUE_INLINE_CAP],
    },
    Heap(Box<Box<[u8]>>),
}

const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Value {
    /// Creates a value from raw bytes.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        let bytes = bytes.into();
        if bytes.len() <= VALUE_INLINE_CAP {
            Value::from_slice(&bytes)
        } else {
            Value(Repr::Heap(Box::new(bytes.into_boxed_slice())))
        }
    }

    /// Creates a value holding a copy of `bytes` (decoders build values straight from the
    /// buffer they read, with no intermediate `Vec`).
    pub fn from_slice(bytes: &[u8]) -> Self {
        if bytes.len() <= VALUE_INLINE_CAP {
            let mut inline = [0u8; VALUE_INLINE_CAP];
            inline[..bytes.len()].copy_from_slice(bytes);
            Value(Repr::Inline {
                len: bytes.len() as u8,
                bytes: inline,
            })
        } else {
            Value(Repr::Heap(Box::new(bytes.into())))
        }
    }

    /// Creates a value holding a little-endian signed 64-bit integer (account balances).
    pub fn from_i64(v: i64) -> Self {
        Value::from_slice(&v.to_le_bytes())
    }

    /// Interprets the value as a signed 64-bit integer, if it has exactly 8 bytes.
    pub fn as_i64(&self) -> Option<i64> {
        let bytes: [u8; 8] = self.as_bytes().try_into().ok()?;
        Some(i64::from_le_bytes(bytes))
    }

    /// Raw bytes of the value.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(bytes) => bytes,
        }
    }

    /// Number of bytes in the value.
    pub(crate) fn len(&self) -> usize {
        self.as_bytes().len()
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::from_slice(&[])
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_i64() {
            Some(v) => write!(f, "Value({v})"),
            None => write!(f, "Value({} bytes)", self.len()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::from_i64(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::from_slice(s.as_bytes())
    }
}

/// One entry of a readset: a key together with the version that was observed when reading it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ReadItem {
    /// The key that was read.
    pub key: Key,
    /// The version of the value observed during simulation.
    pub version: SeqNo,
}

/// One entry of a writeset: a key together with the value the transaction intends to install.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteItem {
    /// The key that is written.
    pub key: Key,
    /// The new value.
    pub value: Value,
}

/// The readset produced by contract simulation: version dependencies of the transaction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadSet {
    items: Vec<ReadItem>,
}

impl ReadSet {
    /// An empty readset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a read of `key` at `version`. A key read twice keeps only the first observation
    /// (Fabric semantics: later reads within the same simulation see the same snapshot value).
    pub fn record(&mut self, key: Key, version: SeqNo) {
        if !self.items.iter().any(|it| it.key == key) {
            self.items.push(ReadItem { key, version });
        }
    }

    /// Iterates over the read items in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &ReadItem> {
        self.items.iter()
    }

    /// Iterates over the read keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.items.iter().map(|it| &it.key)
    }

    /// Looks up the version recorded for `key`, if any.
    pub fn version_of(&self, key: &Key) -> Option<SeqNo> {
        self.items
            .iter()
            .find(|it| &it.key == key)
            .map(|it| it.version)
    }

    /// Returns `true` if the readset contains `key`.
    pub fn contains(&self, key: &Key) -> bool {
        self.items.iter().any(|it| &it.key == key)
    }

    /// Number of distinct keys read.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no keys were read.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl FromIterator<(Key, SeqNo)> for ReadSet {
    fn from_iter<T: IntoIterator<Item = (Key, SeqNo)>>(iter: T) -> Self {
        let mut rs = ReadSet::new();
        for (k, v) in iter {
            rs.record(k, v);
        }
        rs
    }
}

/// The writeset produced by contract simulation: the state updates the transaction installs if
/// it commits.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WriteSet {
    items: Vec<WriteItem>,
}

impl WriteSet {
    /// An empty writeset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a write of `value` to `key`. Writing the same key twice keeps the last value
    /// (last-writer-wins within a single simulation).
    pub fn record(&mut self, key: Key, value: Value) {
        if let Some(existing) = self.items.iter_mut().find(|it| it.key == key) {
            existing.value = value;
        } else {
            self.items.push(WriteItem { key, value });
        }
    }

    /// Iterates over write items in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &WriteItem> {
        self.items.iter()
    }

    /// Iterates over the written keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.items.iter().map(|it| &it.key)
    }

    /// Looks up the value written to `key`, if any.
    pub fn value_of(&self, key: &Key) -> Option<&Value> {
        self.items
            .iter()
            .find(|it| &it.key == key)
            .map(|it| &it.value)
    }

    /// Returns `true` if the writeset contains `key`.
    pub fn contains(&self, key: &Key) -> bool {
        self.items.iter().any(|it| &it.key == key)
    }

    /// Number of distinct keys written.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no keys were written.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl FromIterator<(Key, Value)> for WriteSet {
    fn from_iter<T: IntoIterator<Item = (Key, Value)>>(iter: T) -> Self {
        let mut ws = WriteSet::new();
        for (k, v) in iter {
            ws.record(k, v);
        }
        ws
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FoldState;
    use std::collections::hash_map::RandomState;
    use std::hash::BuildHasher;

    #[test]
    fn key_is_cheap_to_clone_and_compares_by_content() {
        let a = Key::new("account:42");
        let b = a.clone();
        let c = Key::new("account:42");
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.as_str(), "account:42");
    }

    #[test]
    fn key_from_fmt_equals_the_formatted_string() {
        let long = "x".repeat(100);
        for (n, pad) in [
            (42usize, ""),
            (7, &long[..53]),
            (7, &long[..54]),
            (7, &long[..55]),
        ] {
            // "checking:" + pad + n: 11 / 63 / 64 / 65 bytes, around the stack buffer's size.
            let key = Key::from_fmt(format_args!("checking:{pad}{n}"));
            assert_eq!(key, Key::new(format!("checking:{pad}{n}")));
        }
        assert_eq!(Key::from_fmt(format_args!("{long}")), Key::new(&long));
        assert_eq!(
            Key::from_fmt(format_args!("kv:literal")).as_str(),
            "kv:literal"
        );
        assert_eq!(Key::from_fmt(format_args!("")), Key::new(""));
    }

    /// Characters of one to four UTF-8 bytes, for keys that end on either side of the 22/23
    /// boundary on a character boundary or not.
    const KEY_CHARS: [char; 8] = ['a', 'z', '0', ':', 'é', 'ß', '€', '𝄞'];

    /// The text of `picks` (indices into [`KEY_CHARS`]), cut before it passes 40 bytes.
    fn key_text(picks: &[usize]) -> String {
        let mut text = String::new();
        for &pick in picks {
            let c = KEY_CHARS[pick % KEY_CHARS.len()];
            if text.len() + c.len_utf8() > 40 {
                break;
            }
            text.push(c);
        }
        text
    }

    /// The largest character boundary of `text` at or below `at`.
    fn char_floor(text: &str, at: usize) -> usize {
        (0..=at.min(text.len()))
            .rev()
            .find(|&i| text.is_char_boundary(i))
            .expect("0 is a boundary")
    }

    fn key_picks() -> impl proptest::strategy::Strategy<Value = Vec<usize>> {
        proptest::collection::vec(0..KEY_CHARS.len(), 0..41)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Inline (≤ 22 bytes) or shared, a key is its `str`: every constructor gives the same
        /// key, and `==`, `cmp` and `Hash` (under both map hashers) answer as on the `&str`s.
        #[test]
        fn key_agrees_with_str(a in key_picks(), b in key_picks(), shared in 0usize..41) {
            let a = key_text(&a);
            // Half the time `b` shares a prefix with `a`, so equal keys and long common
            // prefixes come up.
            let b = if shared % 2 == 0 {
                let mut b = format!("{}{}", &a[..char_floor(&a, shared / 2)], key_text(&b));
                b.truncate(char_floor(&b, 40));
                b
            } else {
                key_text(&b)
            };
            let (fold, random) = (FoldState::default(), RandomState::new());
            for text in [&a, &b] {
                let key = Key::new(text);
                assert_eq!(key.as_str(), text.as_str());
                assert_eq!(key.as_bytes(), text.as_bytes());
                assert_eq!(Key::from_fmt(format_args!("{text}")), key);
                assert_eq!(Key::from(text.clone()), key);
                assert_eq!(Key::from(text.as_str()), key);
                assert_eq!(Key::from_utf8(text.as_bytes()), Ok(key.clone()));
                assert_eq!(fold.hash_one(&key), fold.hash_one(text.as_str()));
                assert_eq!(random.hash_one(&key), random.hash_one(text.as_str()));
                assert_eq!(format!("{key:?}"), format!("{text:?}"));
            }
            let (ka, kb) = (Key::new(&a), Key::new(&b));
            assert_eq!(ka == kb, a == b, "{a:?} == {b:?}");
            assert_eq!(ka.cmp(&kb), a.as_str().cmp(b.as_str()), "{a:?} cmp {b:?}");
        }
    }

    #[test]
    fn value_i64_roundtrip() {
        let v = Value::from_i64(-123456789);
        assert_eq!(v.as_i64(), Some(-123456789));
        assert_eq!(v.len(), 8);
        let raw = Value::from_bytes(vec![1, 2, 3]);
        assert_eq!(raw.as_i64(), None);
        assert_eq!(Value::default(), Value::from_bytes(Vec::new()));
    }

    /// A value of up to 14 bytes, from every constructor, is the inline form, which owns no
    /// heap memory; one byte more is boxed.
    #[test]
    fn values_up_to_14_bytes_are_inline() {
        let bytes = [7u8; 64];
        for len in [0, 1, 8, 13, 14, 15, 16, 22, 23, 64] {
            let forms = [
                Value::from_slice(&bytes[..len]),
                Value::from_bytes(bytes[..len].to_vec()),
            ];
            for value in forms {
                assert_eq!(value.as_bytes(), &bytes[..len]);
                let inline = matches!(value.0, Repr::Inline { .. });
                assert_eq!(inline, len <= VALUE_INLINE_CAP, "{len} bytes");
            }
        }
        assert!(matches!(Value::from_i64(i64::MIN).0, Repr::Inline { .. }));
        assert!(matches!(Value::default().0, Repr::Inline { .. }));
    }

    fn hash_of(value: &impl Hash) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Inline (≤ 14 bytes) or boxed, a value is its bytes: every constructor round-trips,
        /// and `==`, `Hash` and `Debug` depend on the content only — as they did when a value
        /// was a `Vec<u8>`.
        #[test]
        fn value_forms_agree_on_content(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..65),
            int in proptest::arbitrary::any::<i64>(),
        ) {
            let sliced = Value::from_slice(&bytes);
            let owned = Value::from_bytes(bytes.clone());
            for value in [&sliced, &owned] {
                assert_eq!(value.as_bytes(), &bytes[..]);
                assert_eq!(value.len(), bytes.len());
                assert_eq!(hash_of(value), hash_of(&bytes), "hashes like the Vec<u8> it was");
            }
            assert_eq!(&sliced, &owned);
            assert_eq!(sliced.clone(), owned);
            let debug = match bytes.len() {
                8 => format!("Value({})", i64::from_le_bytes(bytes[..].try_into().unwrap())),
                n => format!("Value({n} bytes)"),
            };
            assert_eq!(format!("{sliced:?}"), debug);

            // One byte more or less — across the 14/15 boundary too — is another value.
            let mut longer = bytes.clone();
            longer.push(0);
            assert_ne!(Value::from_slice(&longer), sliced);
            if let Some((_, prefix)) = bytes.split_last() {
                assert_ne!(Value::from_bytes(prefix.to_vec()), owned);
            }

            let le = int.to_le_bytes();
            let from_int = Value::from_i64(int);
            assert_eq!(from_int.as_i64(), Some(int));
            assert_eq!(&from_int, &Value::from_slice(&le));
            assert_eq!(&from_int, &Value::from_bytes(le.to_vec()));
            assert_eq!(hash_of(&from_int), hash_of(&le.to_vec()));
            assert_eq!(format!("{from_int:?}"), format!("Value({int})"));
        }
    }

    #[test]
    fn readset_keeps_first_observation() {
        let mut rs = ReadSet::new();
        rs.record(Key::new("A"), SeqNo::new(1, 1));
        rs.record(Key::new("A"), SeqNo::new(2, 1));
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.version_of(&Key::new("A")), Some(SeqNo::new(1, 1)));
    }

    #[test]
    fn writeset_keeps_last_value() {
        let mut ws = WriteSet::new();
        ws.record(Key::new("A"), Value::from_i64(1));
        ws.record(Key::new("A"), Value::from_i64(2));
        assert_eq!(ws.len(), 1);
        assert_eq!(ws.value_of(&Key::new("A")).and_then(Value::as_i64), Some(2));
    }

    #[test]
    fn from_iterator_builders() {
        let rs: ReadSet = [
            (Key::new("A"), SeqNo::new(1, 1)),
            (Key::new("B"), SeqNo::new(1, 2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(rs.len(), 2);
        assert!(rs.contains(&Key::new("B")));

        let ws: WriteSet = [(Key::new("C"), Value::from_i64(7))].into_iter().collect();
        assert!(ws.contains(&Key::new("C")));
        assert_eq!(ws.keys().count(), 1);
    }
}
