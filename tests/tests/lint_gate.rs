//! Runs `itdos-lint` over the live workspace as part of the test suite,
//! so an invariant regression (a new registry dependency, a clock read in
//! replica code, an unwrap in a message handler, a variable-time MAC
//! compare, an unchecked hostile length, a hand-written wire codec, a lock
//! inversion) fails `cargo test` — not just the standalone CLI.
//!
//! Beyond the live-tree run, each of the dataflow passes (L5 hostile
//! arithmetic, L6 wire symmetry, L7 lock order) is pinned here with one
//! positive and one negative fixture, so a refactor that silently blinds
//! a pass fails this gate even while the (clean) live tree keeps passing.

use itdos_lint::source::SourceFile;
use itdos_lint::{hostile_arith, lock_order, wire_symmetry};
use std::path::Path;

fn workspace_root() -> &'static Path {
    // tests/ lives directly under the workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests crate sits inside the workspace")
}

/// Reads the checked-in waiver budget (same file CI gates on).
fn waiver_budget() -> usize {
    let path = workspace_root().join("lint-waivers.budget");
    std::fs::read_to_string(&path)
        .expect("lint-waivers.budget exists at the workspace root")
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .expect("budget file has a count line")
        .parse()
        .expect("budget line is an integer")
}

/// The linter finds zero unwaived violations in the tree as committed.
#[test]
fn workspace_has_no_unwaived_findings() {
    let report = itdos_lint::run_workspace(workspace_root()).expect("lint walk succeeds");
    let active: Vec<String> = report.active().map(|f| f.to_string()).collect();
    assert!(
        active.is_empty(),
        "unwaived itdos-lint findings:\n\n{}",
        active.join("\n\n")
    );
}

/// Waivers in the live tree are all justified (the parser refuses bare
/// `allow(...)` without `-- reason`, so any recorded waiver carries one)
/// and their count stays within the checked-in `lint-waivers.budget` —
/// the same number CI enforces via `itdos-lint --budget`, so silently
/// accumulating waivers shows up in review as a budget edit.
#[test]
fn live_waivers_are_justified_and_within_budget() {
    let report = itdos_lint::run_workspace(workspace_root()).expect("lint walk succeeds");
    let waived: Vec<_> = report.findings.iter().filter(|f| !f.is_active()).collect();
    for f in &waived {
        let just = f.waiver.as_deref().unwrap_or("");
        assert!(
            just.len() >= 10,
            "waiver at {}:{} has a trivial justification: {just:?}",
            f.path,
            f.line
        );
    }
    let budget = waiver_budget();
    assert!(
        waived.len() <= budget,
        "waiver count crept up to {} (> budget {}); fix a finding or raise \
         lint-waivers.budget with review",
        waived.len(),
        budget
    );
}

/// All seven rule classes are wired into the workspace run (guards
/// against a refactor dropping a rule from the dispatch).
#[test]
fn all_rule_classes_are_exercised() {
    let report = itdos_lint::run_workspace(workspace_root()).expect("lint walk succeeds");
    let per_rule = report.per_rule();
    assert_eq!(per_rule.len(), 7, "seven rule classes");
}

// ---- L5 hostile arithmetic ------------------------------------------------

/// Positive: a decode path that indexes and does unchecked `+` on an
/// attacker-supplied length is flagged.
#[test]
fn l5_fixture_unchecked_length_arithmetic_fires() {
    let src = "fn decode_frame(bytes: &[u8], len: usize) -> u8 {\n    bytes[len + 4]\n}";
    let findings = hostile_arith::check_hostile_arith("x/src/wire.rs", &SourceFile::scan(src));
    assert!(
        !findings.is_empty(),
        "tainted index + unchecked add must fire"
    );
    assert!(findings.iter().all(|f| f.is_active()));
}

/// Negative: the same shape with `checked_add` and `.get()` is clean.
#[test]
fn l5_fixture_checked_length_arithmetic_is_clean() {
    let src = "fn decode_frame(bytes: &[u8], len: usize) -> Option<u8> {\n    let end = len.checked_add(4)?;\n    bytes.get(end).copied()\n}";
    let findings = hostile_arith::check_hostile_arith("x/src/wire.rs", &SourceFile::scan(src));
    assert!(findings.is_empty(), "{findings:#?}");
}

// ---- L6 wire symmetry -----------------------------------------------------

fn l6_run(path: &str, krate: &str, src: &str) -> Vec<itdos_lint::findings::Finding> {
    wire_symmetry::check_wire_symmetry(krate, path, &SourceFile::scan(src))
}

/// Positive: a hand-written encode/decode pair in a wire crate outside
/// the codec fires, and so does a tag match without a catch-all arm.
#[test]
fn l6_fixture_hand_written_pair_and_open_tag_match_fire() {
    let pair = "\
impl Frame {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.0);
        w.finish()
    }
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        let mut r = Reader::new(bytes);
        Ok(Frame(r.u64()?))
    }
}
";
    let findings = l6_run("crates/core/src/frame.rs", "itdos", pair);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(findings[0].message.contains("hand-written"));

    let open_match = "\
fn kind(r: &mut Reader<'_>) -> Result<Kind, WireError> {
    Ok(match r.u8()? {
        0 => Kind::Request,
        1 => Kind::Reply,
    })
}
";
    let findings = l6_run("crates/itdos-bft/src/wire.rs", "itdos-bft", open_match);
    assert!(
        findings.iter().any(|f| f.message.contains("catch-all")),
        "{findings:#?}"
    );
}

/// Negative: a type declared through the codec — symmetric by
/// construction — with the usual inherent frame API and a delegating list
/// pair is clean.
#[test]
fn l6_fixture_symmetric_pair_is_clean() {
    let declared = "\
wire!(Core: struct Meta { connection, epoch, recipients: list(MAX_ITEMS, MAX_ITEMS) });
wire!(Core: enum Kind { 0 => Request, 1 => Reply(meta) });
wire!(Core: api Kind);
pub fn encode_kinds(kinds: &[Kind]) -> Vec<u8> {
    wire::encode_list::<Core, _>(kinds)
}
pub fn decode_kinds(bytes: &[u8]) -> Result<Vec<Kind>, WireError> {
    wire::decode_list::<Core, _>(bytes, MAX_ITEMS, MAX_ITEMS)
}
";
    let findings = l6_run("crates/core/src/frame.rs", "itdos", declared);
    assert!(findings.is_empty(), "{findings:#?}");
}

// ---- L7 lock order ----------------------------------------------------------

/// Positive: two functions acquiring the same two locks in opposite
/// orders flag both sites; a send under a live guard flags its own.
#[test]
fn l7_fixture_inversion_and_send_under_lock_fire() {
    let src = "\
fn f(&self) {
    let a = self.peers.lock().ok();
    let b = self.queue.lock().ok();
}
fn g(&self) {
    let b = self.queue.lock().ok();
    let a = self.peers.lock().ok();
    self.sock.send(&[1]);
}
";
    let (direct, edges) = lock_order::scan_file("x/src/node.rs", &SourceFile::scan(src));
    assert!(
        direct.iter().any(|f| f.message.contains("send")),
        "{direct:#?}"
    );
    let inversions = lock_order::order_findings(&edges);
    assert_eq!(inversions.len(), 2, "{inversions:#?}");
}

/// Negative: consistent ordering with the guard dropped before the send
/// is clean.
#[test]
fn l7_fixture_ordered_locks_are_clean() {
    let src = "\
fn f(&self) {
    let a = self.peers.lock().ok();
    let b = self.queue.lock().ok();
}
fn g(&self) {
    {
        let a = self.peers.lock().ok();
        let b = self.queue.lock().ok();
    }
    self.sock.send(&[1]);
}
";
    let (direct, edges) = lock_order::scan_file("x/src/node.rs", &SourceFile::scan(src));
    assert!(direct.is_empty(), "{direct:#?}");
    assert!(lock_order::order_findings(&edges).is_empty());
}
