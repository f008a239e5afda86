//! L6 wire symmetry: compact-wire types are declared once, through the
//! `itdos_bft::wire!` codec, so encode/decode symmetry and unknown-tag
//! rejection hold by construction. What is left to check statically is
//! that nothing goes around the codec:
//!
//! 1. no hand-written `encode`/`decode`, `write_X`/`read_X` or
//!    `encode_X`/`decode_X` pair doing field I/O, and no hand-written
//!    `impl Wire` (`put`/`get`), exists in a compact-wire crate outside
//!    the codec itself ([`CODEC_FILE`]) and its leaf modules
//!    ([`LEAF_FILES`]);
//! 2. every remaining hand-written tag `match` on a value read off the
//!    wire (the leaf impls and GIOP) has a rejecting catch-all arm.
//!
//! The ITDOS voter compares marshalled bytes across heterogeneous
//! replicas, so an encode/decode asymmetry or a tag accepted on decode
//! that encode never emits is a parser differential a hostile element
//! can exploit.

use crate::findings::{Finding, Rule};
use crate::source::SourceFile;
use crate::tokens::{self, Kind, Tok};

/// Crates whose compact-wire types must go through the codec (check 1).
pub const WIRE_CRATES: &[&str] = &["itdos", "itdos-bft", "itdos-groupmgr"];

/// Crates whose hand-written tag matches must reject unknown tags
/// (check 2): the wire crates plus GIOP/CDR, which is hand-written by
/// design (its `TypeDesc` drives both directions).
pub const TAG_MATCH_CRATES: &[&str] = &["itdos", "itdos-bft", "itdos-giop", "itdos-groupmgr"];

/// The codec itself: its entry points and macros do field I/O by design.
pub const CODEC_FILE: &str = "crates/itdos-bft/src/wire.rs";

/// The only files that may hand-write `impl Wire` leaves (for foreign
/// types a scope must give a wire form).
pub const LEAF_FILES: &[&str] = &[CODEC_FILE, "crates/core/src/wire.rs"];

/// Reader/writer primitive method names (compact codec and CDR).
const PRIMITIVES: &[&str] = &[
    "u8",
    "u16",
    "u32",
    "u64",
    "bytes",
    "raw",
    "count",
    "take_u8",
    "take_u16",
    "take_u32",
    "take_u64",
    "take_string",
];

/// True for an all-caps constant name (`TAG_REQUEST`), which names one
/// tag; `_` and lower-case bindings catch every other tag.
fn is_const_ident(t: &Tok) -> bool {
    t.kind == Kind::Ident
        && t.text.starts_with(|c: char| c.is_ascii_uppercase())
        && t.text
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// True when `toks[i]` starts a primitive call `.kind(`.
fn primitive_call(toks: &[Tok], i: usize, end: usize) -> bool {
    toks[i].is_p(".")
        && i + 2 < end
        && PRIMITIVES.contains(&toks[i + 1].text.as_str())
        && toks[i + 2].is_p("(")
}

/// True when a function body reads or writes fields itself: it builds a
/// `Writer`/`Reader` or calls a primitive on one.
fn does_field_io(toks: &[Tok], (start, end): (usize, usize)) -> bool {
    (start..end).any(|i| {
        primitive_call(toks, i, end)
            || ((toks[i].is("Writer") || toks[i].is("Reader"))
                && toks.get(i + 1).is_some_and(|t| t.is_p("::"))
                && toks.get(i + 2).is_some_and(|t| t.is("new")))
    })
}

/// What an encode-side (`encode`, `write_X`, `encode_X`) or decode-side
/// (`decode`, `read_X`, `decode_X`) function name pairs on.
fn pair_key(name: &str, encode_side: bool) -> Option<&str> {
    let (bare, prefixes) = if encode_side {
        ("encode", ["write_", "encode_"])
    } else {
        ("decode", ["read_", "decode_"])
    };
    if name == bare {
        return Some("");
    }
    prefixes
        .iter()
        .find_map(|p| name.strip_prefix(p))
        .filter(|s| !s.is_empty())
}

fn finding(path: &str, file: &SourceFile, line: usize, message: String) -> Finding {
    Finding {
        rule: Rule::WireSymmetry,
        path: path.to_string(),
        line,
        snippet: file
            .lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default(),
        message,
        waiver: file
            .waiver_for(Rule::WireSymmetry, line)
            .map(str::to_string),
    }
}

/// Check 1 over one file: hand-written codec pairs outside the codec.
fn hand_written_pairs(path: &str, file: &SourceFile, toks: &[Tok]) -> Vec<Finding> {
    let fns = tokens::functions(file, toks);
    let mut out = Vec::new();
    for dec in &fns {
        let Some(key) = pair_key(&dec.name, false) else {
            continue;
        };
        let hand_written = fns.iter().find(|enc| {
            pair_key(&enc.name, true) == Some(key)
                && (does_field_io(toks, enc.body) || does_field_io(toks, dec.body))
        });
        if let Some(enc) = hand_written {
            out.push(finding(
                path,
                file,
                dec.line,
                format!(
                    "hand-written wire pair `{}`/`{}`: declare the type with \
                     `itdos_bft::wire!` so encode and decode share one field list",
                    enc.name, dec.name
                ),
            ));
        }
    }
    if LEAF_FILES.contains(&path) {
        return out;
    }
    for (i, t) in toks.iter().enumerate() {
        // `impl ... Wire ... for T {`: a hand-written leaf outside the codec
        let header = || {
            toks[i..]
                .iter()
                .take_while(|h| !h.is_p("{") && !h.is_p(";"))
        };
        if t.is("impl") && header().any(|h| h.is("Wire")) && header().any(|h| h.is("for")) {
            out.push(finding(
                path,
                file,
                t.line,
                "hand-written `impl Wire`: declare the type with `itdos_bft::wire!` \
                 (hand-written leaves belong in the codec modules)"
                    .to_string(),
            ));
        }
    }
    out
}

/// Check 2 over one file: every `match` whose scrutinee reads the wire
/// needs an arm that is neither a literal nor a constant.
fn tag_matches_without_catchall(path: &str, file: &SourceFile, toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in tokens::functions(file, toks) {
        let (start, end) = f.body;
        for i in start..end {
            if !toks[i].is("match") {
                continue;
            }
            // scrutinee: tokens up to the `{` at bracket depth 0
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut reads_wire = false;
            while j < end {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    _ => {}
                }
                reads_wire |= primitive_call(toks, j, end);
                j += 1;
            }
            if !reads_wire || j >= end {
                continue;
            }
            let Some(close) = tokens::matching(toks, j, "{", "}") else {
                continue;
            };
            let mut saw_catchall = false;
            let mut depth = 0i32;
            for k in j + 1..close {
                match toks[k].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=>" if depth == 0 => {
                        // walk the pattern back to the previous arm
                        let named = toks[j + 1..k]
                            .iter()
                            .rev()
                            .take_while(|t| !(t.is_p(",") || t.is_p("}") || t.is_p(";")))
                            .any(|t| t.kind == Kind::Num || is_const_ident(t));
                        saw_catchall |= !named;
                    }
                    _ => {}
                }
            }
            if !saw_catchall {
                out.push(finding(
                    path,
                    file,
                    toks[j].line,
                    "tag match on wire input has no rejecting catch-all arm — unknown \
                     tags must surface a typed Err"
                        .to_string(),
                ));
            }
        }
    }
    out
}

/// Runs the L6 pass over one file of `crate_name`'s `src/` tree.
pub fn check_wire_symmetry(crate_name: &str, path: &str, file: &SourceFile) -> Vec<Finding> {
    let in_wire_crate = WIRE_CRATES.contains(&crate_name);
    if !in_wire_crate && !TAG_MATCH_CRATES.contains(&crate_name) {
        return Vec::new();
    }
    let toks = tokens::tokenize(file);
    let mut findings = tag_matches_without_catchall(path, file, &toks);
    if in_wire_crate && path != CODEC_FILE {
        findings.extend(hand_written_pairs(path, file, &toks));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    const HAND_WRITTEN: &str = r#"
impl Frame {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Frame::A(x) => { w.u8(1); w.u64(*x); }
            Frame::B(b) => { w.u8(2); w.bytes(b); }
        }
        w.finish()
    }
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        let mut r = Reader::new(bytes);
        Ok(match r.u8()? {
            1 => Frame::A(r.u64()?),
            2 => Frame::B(r.bytes()?.to_vec()),
            _ => return Err(WireError),
        })
    }
}
"#;

    const DECLARED: &str = r#"
wire!(Bft: enum Frame { 1 => A(x), 2 => B(b) });
wire!(Bft: api Frame);
pub fn encode_frames(frames: &[Frame]) -> Vec<u8> {
    wire::encode_list::<Bft, _>(frames)
}
pub fn decode_frames(bytes: &[u8]) -> Result<Vec<Frame>, WireError> {
    wire::decode_list::<Bft, _>(bytes, 16, 16)
}
"#;

    fn run_at(path: &str, krate: &str, src: &str) -> Vec<Finding> {
        check_wire_symmetry(krate, path, &SourceFile::scan(src))
    }

    fn run(src: &str) -> Vec<Finding> {
        run_at("crates/itdos-bft/src/frame.rs", "itdos-bft", src)
    }

    /// A codec-declared type (symmetric by construction) and a list pair
    /// delegating to the codec are clean.
    #[test]
    fn symmetric_pair_is_clean() {
        let f = run(DECLARED);
        assert!(f.is_empty(), "{f:#?}");
    }

    /// A hand-written pair that bypasses the codec is discovered.
    #[test]
    fn unregistered_pair_is_discovered() {
        let f = run(HAND_WRITTEN);
        assert!(
            f.iter().any(|f| f.message.contains("`encode`/`decode`")),
            "{f:#?}"
        );
    }

    #[test]
    fn hand_written_free_pair_fires() {
        let src = "fn write_item(w: &mut Writer, x: &Item) { w.u64(x.0); }\n\
                   fn read_item(r: &mut Reader<'_>) -> Result<Item, WireError> { Ok(Item(r.u64()?)) }\n";
        let f = run(src);
        assert!(
            f.iter()
                .any(|f| f.message.contains("`write_item`/`read_item`")),
            "{f:#?}"
        );
    }

    #[test]
    fn hand_written_wire_impl_fires_outside_the_codec_only() {
        let src = "impl Wire for Item {\n    fn put(&self, w: &mut Writer) { w.u64(self.0); }\n    \
                   fn get(r: &mut Reader<'_>) -> Result<Self, WireError> { Ok(Item(r.u64()?)) }\n}\n";
        assert!(!run(src).is_empty());
        assert!(run_at("crates/core/src/wire.rs", "itdos", src).is_empty());
        assert!(run_at("crates/itdos-vote/src/x.rs", "itdos-vote", src).is_empty());
    }

    #[test]
    fn leaf_modules_still_reject_hand_written_pairs() {
        let f = run_at("crates/core/src/wire.rs", "itdos", HAND_WRITTEN);
        assert!(
            f.iter().any(|f| f.message.contains("`encode`/`decode`")),
            "{f:#?}"
        );
        assert!(run_at(CODEC_FILE, "itdos-bft", HAND_WRITTEN).is_empty());
    }

    /// A tag match with no catch-all fires, in the codec and in GIOP too.
    #[test]
    fn missing_catchall_fires() {
        let bad = HAND_WRITTEN.replace("            _ => return Err(WireError),\n", "");
        let f = run_at("crates/itdos-bft/src/wire.rs", "itdos-bft", &bad);
        assert!(f.iter().any(|f| f.message.contains("catch-all")), "{f:#?}");
        let giop =
            "fn kind(d: &mut Decoder) -> Result<Kind, E> {\n    match d.take_u8()? {\n        \
                    0 => Ok(Kind::A),\n        1 => Ok(Kind::B),\n    }\n}\n";
        assert_eq!(
            run_at("crates/itdos-giop/src/giop.rs", "itdos-giop", giop).len(),
            1
        );
        let with_binding = giop.replace("1 => Ok(Kind::B),", "other => Err(E(other)),");
        assert!(run_at("crates/itdos-giop/src/giop.rs", "itdos-giop", &with_binding).is_empty());
    }
}
