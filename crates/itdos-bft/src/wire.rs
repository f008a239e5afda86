//! Compact binary codec for protocol messages.
//!
//! Protocol messages are *not* GIOP: they are the transport beneath it, so
//! they use a fixed little-endian framing independent of platform profiles
//! (exactly as the Castro–Liskov library's wire format was independent of
//! the application's marshalling).
//!
//! # One declaration per type
//!
//! Every compact-wire type lists its fields once, in wire order, through
//! [`wire!`](crate::wire!). The macro expands that one list into both
//! halves of a [`Wire`] impl, so encode and decode cannot disagree on a
//! field, and every declared enum's decode rejects unknown tags. A
//! bounded list field names its bound where it is declared:
//! `requests: list(MAX_VEC, 64)` rejects more than `MAX_VEC` items and
//! pre-allocates at most 64.
//!
//! The only hand-written impls are the leaves in this module (integers,
//! byte strings, fixed arrays, options, keys and signatures, and two
//! framing quirks).
//!
//! `Wire` carries a scope marker `S` so that a crate can declare the wire
//! form of *foreign* types it sends (the orphan rule forbids
//! `impl Wire for ForeignType` downstream, but allows
//! `impl Wire<LocalScope> for ForeignType`). This crate's types use
//! [`Bft`]; leaves implement every scope.

use std::borrow::Cow;

use itdos_crypto::hash::Digest;
use itdos_crypto::mac::Authenticator;
use itdos_crypto::sign::{Signature, VerifyingKey};

use crate::auth::Peer;
use crate::config::{ClientId, ReplicaId, SeqNo, View};
use crate::queue::ElementId;

/// Writer for the compact format.
#[derive(Debug, Default)]
pub struct Writer {
    buffer: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Appends a tag/length-free u8.
    pub fn u8(&mut self, v: u8) -> &mut Writer {
        self.buffer.push(v);
        self
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Writer {
        self.buffer.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Writer {
        self.buffer.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a u32 count prefix for `n` locally held items.
    fn count(&mut self, n: usize) -> &mut Writer {
        self.u32(n as u32) // itdos-lint: allow(hostile-arith) -- encode-side length of a local buffer; protocol frames are bounded far below u32::MAX and the decode side enforces it
    }

    /// Appends raw bytes with a u32 length prefix.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Writer {
        self.count(v.len());
        self.buffer.extend_from_slice(v);
        self
    }

    /// Appends fixed-size raw bytes without a length prefix.
    pub fn raw(&mut self, v: &[u8]) -> &mut Writer {
        self.buffer.extend_from_slice(v);
        self
    }

    /// Finishes, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buffer
    }
}

/// Decode failure: input truncated or length field hostile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError;

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed wire message")
    }
}

impl std::error::Error for WireError {}

/// Reader over the compact format.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    position: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, position: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        // checked: `position + n` must not wrap when `n` is hostile
        let end = self.position.checked_add(n).ok_or(WireError)?;
        let s = self.bytes.get(self.position..end).ok_or(WireError)?;
        self.position = end;
        Ok(s)
    }

    /// Reads a u8.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let raw = self.take(4)?.try_into().map_err(|_| WireError)?;
        Ok(u32::from_le_bytes(raw))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let raw = self.take(8)?.try_into().map_err(|_| WireError)?;
        Ok(u64::from_le_bytes(raw))
    }

    /// Reads length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads exactly `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Fails unless the reader is exhausted.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.position == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError)
        }
    }
}

// ------------------------------------------------------------ the codec

/// A type with a compact wire form, in scope `S` (see the module docs).
///
/// Implement it with [`wire!`](crate::wire!): the macro is what keeps the
/// two directions symmetric. Hand-written impls are leaves, kept in a
/// crate's codec module (L6 enforces this).
pub trait Wire<S = Bft>: Sized {
    /// Appends the wire form of `self`.
    fn put(&self, w: &mut Writer);

    /// Reads one value, leaving the reader just past it.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation, unknown tags or hostile lengths.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// The scope of this crate's own wire types.
#[derive(Debug)]
pub enum Bft {}

/// Encodes one value as a complete frame.
pub fn encode<S, T: Wire<S>>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.put(&mut w);
    w.finish()
}

/// Decodes one complete frame; trailing bytes are an error.
///
/// # Errors
///
/// [`WireError`] on any malformation.
pub fn decode<S, T: Wire<S>>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = T::get(&mut r)?;
    r.expect_end()?;
    Ok(value)
}

/// Appends a list: a u32 count, then each item.
pub fn put_list<S, T: Wire<S>>(items: &[T], w: &mut Writer) {
    w.count(items.len());
    for item in items {
        item.put(w);
    }
}

/// Reads a list of at most `max` items, pre-allocating at most `cap`
/// slots so a hostile count cannot reserve memory the input never backs.
///
/// # Errors
///
/// [`WireError`] when the count exceeds `max` or an item is malformed.
pub fn get_list<S, T: Wire<S>>(
    r: &mut Reader<'_>,
    max: u32,
    cap: u32,
) -> Result<Vec<T>, WireError> {
    let n = r.u32()?;
    if n > max {
        return Err(WireError);
    }
    let mut items = Vec::with_capacity(n.min(cap) as usize);
    for _ in 0..n {
        items.push(T::get(r)?);
    }
    Ok(items)
}

/// Encodes a list as a complete frame.
pub fn encode_list<S, T: Wire<S>>(items: &[T]) -> Vec<u8> {
    let mut w = Writer::new();
    put_list(items, &mut w);
    w.finish()
}

/// Decodes a complete frame holding one list (see [`get_list`]).
///
/// # Errors
///
/// [`WireError`] on any malformation or a count above `max`.
pub fn decode_list<S, T: Wire<S>>(bytes: &[u8], max: u32, cap: u32) -> Result<Vec<T>, WireError> {
    let mut r = Reader::new(bytes);
    let items = get_list(&mut r, max, cap)?;
    r.expect_end()?;
    Ok(items)
}

/// Declares the compact wire form of a type by listing its fields once,
/// in wire order, and implements [`Wire`] for it in the given scope.
///
/// ```text
/// wire!(Bft: struct Prepare { view, seq, digest, replica });
/// wire!(Bft: struct Batch { requests: list(MAX_VEC, 64) });
/// wire!(Bft: enum QueueOp { 0 => Deliver(payload), 1 => Ack { element, up_to }, 2 => Expel(e) });
/// ```
///
/// Each field uses its type's own `Wire` impl unless it names a shape:
/// `list(max, cap)` for a bounded `Vec` (see [`get_list`]) or `framed()`
/// for a length-prefixed nested frame that must hold exactly the value.
/// Enum variants carry a `u8` tag; decode rejects every tag not listed.
///
/// Two more forms: `wire!(Bft: newtype View(u64), ...)` gives
/// single-field tuple structs their field's wire form, and
/// `wire!(Bft: api Message, ...)` gives declared types the inherent
/// `T::encode(&self)` / `T::decode(&[u8])` frame API, callable without
/// importing [`Wire`].
#[macro_export]
macro_rules! wire {
    // generated impls are `#[inline]` so a whole frame decodes in one body
    ($S:ty: struct $T:ident $(<$lt:lifetime>)? {
        $($f:ident $(: $how:ident($($arg:expr),*))?),* $(,)?
    }) => {
        impl$(<$lt>)? $crate::wire::Wire<$S> for $T$(<$lt>)? {
            #[inline]
            fn put(&self, w: &mut $crate::wire::Writer) {
                $($crate::wire_field!(put $S, w, &self.$f $(, $how($($arg),*))?);)*
            }

            #[inline]
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                Ok($T { $($f: $crate::wire_field!(get $S, r $(, $how($($arg),*))?)),* })
            }
        }
    };
    ($S:ty: enum $T:ident {
        $($tag:literal => $V:ident
            $(($($tf:ident $(: $thow:ident($($targ:expr),*))?),*))?
            $({$($sf:ident $(: $show:ident($($sarg:expr),*))?),*})?
        ),* $(,)?
    }) => {
        impl $crate::wire::Wire<$S> for $T {
            #[inline]
            fn put(&self, w: &mut $crate::wire::Writer) {
                match self {
                    $(Self::$V $(($($tf),*))? $({$($sf),*})? => {
                        w.u8($tag);
                        $($($crate::wire_field!(put $S, w, $tf $(, $thow($($targ),*))?);)*)?
                        $($($crate::wire_field!(put $S, w, $sf $(, $show($($sarg),*))?);)*)?
                    })*
                }
            }

            #[inline]
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                Ok(match r.u8()? {
                    $($tag => Self::$V
                        $(($($crate::wire_field!(get $S, r $(, $thow($($targ),*))?)),*))?
                        $({$($sf: $crate::wire_field!(get $S, r $(, $show($($sarg),*))?)),*})?),*,
                    _ => return Err($crate::wire::WireError),
                })
            }
        }
    };
    ($S:ty: newtype $($T:ident($inner:ty)),* $(,)?) => {$(
        impl $crate::wire::Wire<$S> for $T {
            #[inline]
            fn put(&self, w: &mut $crate::wire::Writer) {
                <$inner as $crate::wire::Wire<$S>>::put(&self.0, w)
            }

            #[inline]
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                Ok($T(<$inner as $crate::wire::Wire<$S>>::get(r)?))
            }
        }
    )*};
    ($S:ty: api $($T:ident),* $(,)?) => {$(
        impl $T {
            /// Encodes to the compact wire format.
            pub fn encode(&self) -> Vec<u8> {
                $crate::wire::encode::<$S, Self>(self)
            }

            /// Decodes from the compact wire format.
            ///
            /// # Errors
            ///
            /// `WireError` on truncation, trailing bytes, unknown tags,
            /// or hostile length fields — all reachable by a Byzantine
            /// peer.
            pub fn decode(bytes: &[u8]) -> ::core::result::Result<Self, $crate::wire::WireError> {
                $crate::wire::decode::<$S, Self>(bytes)
            }
        }
    )*};
}

/// One field of a [`wire!`](crate::wire!) declaration, in one direction.
#[doc(hidden)]
#[macro_export]
macro_rules! wire_field {
    (put $S:ty, $w:ident, $v:expr) => {
        $crate::wire::Wire::<$S>::put($v, $w)
    };
    (put $S:ty, $w:ident, $v:expr, list($max:expr, $cap:expr)) => {
        $crate::wire::put_list::<$S, _>($v, $w)
    };
    (put $S:ty, $w:ident, $v:expr, framed()) => {
        $w.bytes(&$crate::wire::encode::<$S, _>($v))
    };
    (get $S:ty, $r:ident) => {
        $crate::wire::Wire::<$S>::get($r)?
    };
    (get $S:ty, $r:ident, list($max:expr, $cap:expr)) => {
        $crate::wire::get_list::<$S, _>($r, $max, $cap)?
    };
    (get $S:ty, $r:ident, framed()) => {
        $crate::wire::decode::<$S, _>($r.bytes()?)?
    };
}

// --------------------------------------------------------------- leaves

/// Leaves whose wire form is one primitive each way, in every scope.
macro_rules! leaves {
    ($($T:ty: |$v:ident, $w:ident| $put:expr, |$r:ident| $get:expr;)*) => {$(
        impl<S> Wire<S> for $T {
            fn put(&self, $w: &mut Writer) {
                let $v = self;
                $put;
            }

            fn get($r: &mut Reader<'_>) -> Result<Self, WireError> {
                $get
            }
        }
    )*};
}

leaves! {
    u32: |v, w| w.u32(*v), |r| r.u32();
    u64: |v, w| w.u64(*v), |r| r.u64();
    // length-prefixed bytes, owned or lent without copying
    Vec<u8>: |v, w| w.bytes(v), |r| Ok(r.bytes()?.to_vec());
    Cow<'_, [u8]>: |v, w| w.bytes(v), |r| Ok(Cow::Owned(r.bytes()?.to_vec()));
    Signature: |v, w| w.raw(&v.to_bytes()), |r| Ok(Signature::from_bytes(Wire::<S>::get(r)?));
    VerifyingKey: |v, w| w.raw(&v.to_bytes()), |r| Ok(VerifyingKey::from_bytes(Wire::<S>::get(r)?));
}

/// Fixed-size raw bytes, no prefix.
impl<S, const N: usize> Wire<S> for [u8; N] {
    fn put(&self, w: &mut Writer) {
        w.raw(self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.raw(N)?.try_into().map_err(|_| WireError)
    }
}

/// A `u8` presence tag (0 or 1), then the value when present.
impl<S, T: Wire<S>> Wire<S> for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            None => {
                w.u8(0);
            }
            Some(v) => {
                w.u8(1);
                v.put(w);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(WireError),
        }
    }
}

/// Framing quirk: the authenticator's own serialization, length-prefixed,
/// which must fill its frame exactly.
impl Wire for Authenticator {
    fn put(&self, w: &mut Writer) {
        w.bytes(&self.to_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let raw = r.bytes()?;
        match Authenticator::from_bytes(raw) {
            Some((a, used)) if used == raw.len() => Ok(a),
            _ => Err(WireError),
        }
    }
}

/// Framing quirk: a replica sender's id travels widened to a u64.
impl Wire for Peer {
    fn put(&self, w: &mut Writer) {
        match self {
            Peer::Replica(id) => {
                w.u8(0);
                w.u64(u64::from(id.0));
            }
            Peer::Client(id) => {
                w.u8(1);
                w.u64(id.0);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Peer::Replica(ReplicaId(
                u32::try_from(r.u64()?).map_err(|_| WireError)?,
            ))),
            1 => Ok(Peer::Client(ClientId(r.u64()?))),
            _ => Err(WireError),
        }
    }
}

crate::wire!(Bft: newtype
    View(u64),
    SeqNo(u64),
    ReplicaId(u32),
    ClientId(u64),
    ElementId(u32),
    Digest([u8; 32]),
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_field_kinds() {
        let mut w = Writer::new();
        w.u8(7)
            .u32(0xDEAD)
            .u64(u64::MAX)
            .bytes(b"hello")
            .raw(&[1, 2]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.raw(2).unwrap(), &[1, 2]);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.u64(1);
        let buf = w.finish();
        let mut r = Reader::new(&buf[..7]);
        assert_eq!(r.u64(), Err(WireError));
    }

    #[test]
    fn hostile_length_field_detected() {
        // claims 1000 bytes, has 2
        let mut w = Writer::new();
        w.u32(1000).raw(&[1, 2]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes(), Err(WireError));
    }

    #[test]
    fn expect_end_catches_trailing_garbage() {
        let mut w = Writer::new();
        w.u8(1).u8(2);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        r.u8().unwrap();
        assert_eq!(r.expect_end(), Err(WireError));
    }

    #[derive(Debug, PartialEq)]
    struct Item {
        id: u32,
        tags: Vec<u64>,
        note: Option<Vec<u8>>,
    }
    crate::wire!(Bft: struct Item { id, tags: list(2, 1), note });

    #[derive(Debug, PartialEq)]
    enum Frame {
        Empty,
        One(u64),
        Pair { a: u32, item: Item },
        Nested(Item),
    }
    crate::wire!(Bft: enum Frame {
        3 => Empty,
        4 => One(x),
        5 => Pair { a, item },
        6 => Nested(item: framed()),
    });

    fn item() -> Item {
        Item {
            id: 9,
            tags: vec![1, 2],
            note: Some(vec![7]),
        }
    }

    #[test]
    fn declared_types_round_trip_in_field_order() {
        let bytes = encode::<Bft, _>(&item());
        let mut expect = Writer::new();
        expect.u32(9).u32(2).u64(1).u64(2).u8(1).bytes(&[7]);
        assert_eq!(bytes, expect.finish());
        assert_eq!(decode::<Bft, Item>(&bytes).unwrap(), item());
        for frame in [
            Frame::Empty,
            Frame::One(5),
            Frame::Pair { a: 1, item: item() },
            Frame::Nested(item()),
        ] {
            assert_eq!(decode::<Bft, Frame>(&encode(&frame)).unwrap(), frame);
        }
    }

    #[test]
    fn declared_types_reject_unknown_tags_bounds_and_trailing_bytes() {
        assert_eq!(decode::<Bft, Frame>(&[7]), Err(WireError));
        assert_eq!(decode::<Bft, Frame>(&[3, 0]), Err(WireError));
        let mut over = Writer::new();
        over.u32(9).u32(3).u64(1).u64(2).u64(3).u8(0);
        assert_eq!(decode::<Bft, Item>(&over.finish()), Err(WireError));
        let mut bad_option = Writer::new();
        bad_option.u32(9).u32(0).u8(2);
        assert_eq!(decode::<Bft, Item>(&bad_option.finish()), Err(WireError));
        // a nested frame must be filled exactly
        let mut nested = encode::<Bft, _>(&Frame::Nested(item()));
        nested[1] += 1;
        nested.push(0);
        assert_eq!(decode::<Bft, Frame>(&nested), Err(WireError));
    }
}
