//! Behaviour oracle for the compact wire formats.
//!
//! Correct heterogeneous replicas must agree on every frame byte for byte,
//! so these tests pin the exact encoding of one fixed instance of every
//! variant of every compact-wire type (core fabric messages, SMIOP frames,
//! GM operations and directives, fault proofs, healing commands, PBFT
//! messages, authenticated envelopes and queue operations).
//!
//! Three layers of pinning:
//!
//! * **golden bytes** — the hex of each fixed instance, and the fact that
//!   decoding it re-encodes to the same bytes;
//! * **mutation digest** — for each golden encoding, a seeded set of
//!   truncations and bit flips; every decode outcome (an error, or the
//!   re-encoded bytes of whatever decoded) is folded into one SHA-256
//!   digest, so any change in what a decoder accepts or how it reads a
//!   mutated frame shows up;
//! * **length bounds** — at every hostile-length bound, a frame with
//!   exactly `bound` items decodes with all items present and one with
//!   `bound + 1` items is rejected.
//!
//! The pinned values were captured once and must never be regenerated to
//! make a codec change pass: a mismatch means the wire format moved.

use itdos::wire::{
    decode_directives, decode_proof, encode_directives, encode_proof, AdmitNoticeMsg,
    ConnectionMeta, CoreMsg, DirectReplyMsg, Directive, FrameKind, GmOp, HealCmd, KeyShareMsg,
    NoticeMsg, SmiopFrame,
};
use itdos_bft::auth::{AuthContext, Envelope, KeyProvisioner};
use itdos_bft::config::{ClientId, ReplicaId, SeqNo, View};
use itdos_bft::message::{
    Batch, Checkpoint, ClientRequest, Commit, Message, NewView, PrePrepare, Prepare, PreparedProof,
    Reply, StateData, StateFetch, ViewChange,
};
use itdos_bft::queue::{ElementId, QueueOp};
use itdos_crypto::hash::{Digest, Sha256};
use itdos_crypto::sign::{Signature, SigningKey, VerifyingKey};
use itdos_groupmgr::manager::ConnectionId;
use itdos_groupmgr::membership::{DomainId, Endpoint};
use itdos_vote::detector::{FaultProof, SignedReply};
use itdos_vote::vote::SenderId;

// ------------------------------------------------------------- fixtures

fn sig(seed: &[u8]) -> Signature {
    SigningKey::from_seed(seed).sign(b"golden")
}

fn vkey() -> VerifyingKey {
    SigningKey::from_seed(b"replacement").verifying_key()
}

fn meta(client_domain: Option<DomainId>) -> ConnectionMeta {
    ConnectionMeta {
        connection: ConnectionId(7),
        epoch: 2,
        client_code: 42,
        client_domain,
        server_domain: DomainId(1),
    }
}

fn proof() -> FaultProof {
    FaultProof {
        accused: vec![SenderId(3), SenderId(5)],
        request_id: 9,
        messages: vec![
            SignedReply {
                sender: SenderId(0),
                sequence: 1,
                frame: vec![5, 5],
                signature: sig(b"a"),
            },
            SignedReply {
                sender: SenderId(3),
                sequence: 2,
                frame: vec![6],
                signature: sig(b"b"),
            },
        ],
    }
}

fn directives() -> Vec<Directive> {
    vec![
        Directive::KeyDist {
            meta: meta(Some(DomainId(3))),
            input: [7u8; 32],
            recipients: vec![1, 1_000_000],
        },
        Directive::Refused(2),
        Directive::Expelled {
            domain: DomainId(1),
            element: SenderId(3),
        },
        Directive::VoteRecorded,
        Directive::Admitted {
            domain: DomainId(1),
            element: SenderId(14),
            replaced: SenderId(3),
            slot: 3,
            node: 22,
            epoch: 1,
            verifying_key: vkey(),
        },
        Directive::Retired {
            domain: DomainId(1),
            element: SenderId(2),
        },
    ]
}

fn core_msgs() -> Vec<CoreMsg> {
    vec![
        CoreMsg::Bft {
            domain: DomainId(1),
            envelope: vec![1, 2, 3],
        },
        CoreMsg::KeyShare(KeyShareMsg {
            meta: meta(Some(DomainId(3))),
            gm_code: 1_000_050,
            sealed: vec![9; 5],
        }),
        CoreMsg::KeyShare(KeyShareMsg {
            meta: meta(None),
            gm_code: 1_000_051,
            sealed: vec![],
        }),
        CoreMsg::DirectReply(DirectReplyMsg {
            connection: ConnectionId(7),
            epoch: 0,
            sender: SenderId(3),
            sequence: 11,
            sealed: vec![8; 4],
            signature: sig(b"s"),
        }),
        CoreMsg::Notice(NoticeMsg {
            gm_code: 1_000_051,
            domain: DomainId(1),
            expelled: SenderId(3),
            sealed: vec![2; 3],
        }),
        CoreMsg::AdmitNotice(AdmitNoticeMsg {
            gm_code: 1_000_051,
            domain: DomainId(1),
            admitted: SenderId(14),
            replaced: SenderId(3),
            slot: 3,
            node: 22,
            epoch: 1,
            verifying_key: vkey(),
            sealed: vec![6; 3],
        }),
    ]
}

fn frames() -> Vec<SmiopFrame> {
    [FrameKind::Request, FrameKind::Reply]
        .into_iter()
        .map(|kind| SmiopFrame {
            connection: ConnectionId(1),
            epoch: 3,
            kind,
            sender_code: 1_000_002,
            request_id: 5,
            sequence: 77,
            sealed: vec![1, 2, 3],
            signature: sig(b"f"),
        })
        .collect()
}

fn gm_ops() -> Vec<GmOp> {
    vec![
        GmOp::Open {
            client: Endpoint::Singleton(9),
            client_domain: None,
            target: DomainId(1),
        },
        GmOp::Open {
            client: Endpoint::Element(SenderId(4)),
            client_domain: Some(DomainId(2)),
            target: DomainId(1),
        },
        GmOp::ChangeProof(proof()),
        GmOp::ChangeVote {
            accuser: SenderId(0),
            accused: SenderId(3),
        },
        GmOp::Close(ConnectionId(2)),
        GmOp::Admit {
            domain: DomainId(1),
            replacement: SenderId(14),
            replaced: SenderId(3),
            node: 22,
            verifying_key: vkey(),
        },
        GmOp::Retire {
            domain: DomainId(1),
            element: SenderId(2),
        },
    ]
}

fn request(client: u64, timestamp: u64, operation: &[u8]) -> ClientRequest {
    ClientRequest {
        client: ClientId(client),
        timestamp,
        trace: (client << 32) | timestamp,
        operation: operation.to_vec(),
    }
}

fn pre_prepare(seq: u64) -> PrePrepare {
    let batch = Batch {
        requests: vec![request(9, 3, &[1, 2, 3]), request(10, 1, &[4, 5])],
    };
    PrePrepare {
        view: View(1),
        seq: SeqNo(seq),
        digest: batch.digest(),
        batch,
    }
}

fn prepare(seq: u64, replica: u32) -> Prepare {
    Prepare {
        view: View(1),
        seq: SeqNo(seq),
        digest: Digest::of(&seq.to_le_bytes()),
        replica: ReplicaId(replica),
    }
}

fn checkpoint(replica: u32) -> Checkpoint {
    Checkpoint {
        seq: SeqNo(16),
        state_digest: Digest::of(b"state"),
        replica: ReplicaId(replica),
    }
}

fn view_change(replica: u32) -> ViewChange {
    ViewChange {
        new_view: View(2),
        stable_seq: SeqNo(16),
        checkpoint_proof: vec![checkpoint(0), checkpoint(1)],
        prepared: vec![
            PreparedProof {
                pre_prepare: pre_prepare(17),
                prepares: vec![prepare(17, 1), prepare(17, 2)],
            },
            PreparedProof {
                pre_prepare: pre_prepare(18),
                prepares: vec![prepare(18, 2), prepare(18, 3)],
            },
        ],
        replica: ReplicaId(replica),
    }
}

fn messages() -> Vec<Message> {
    vec![
        Message::Request(request(9, 3, &[1, 2, 3])),
        Message::PrePrepare(pre_prepare(5)),
        Message::Prepare(prepare(5, 2)),
        Message::Commit(Commit {
            view: View(1),
            seq: SeqNo(5),
            digest: Digest::of(b"commit"),
            replica: ReplicaId(2),
        }),
        Message::Reply(Reply {
            view: View(1),
            timestamp: 3,
            client: ClientId(9),
            replica: ReplicaId(0),
            result: vec![42],
        }),
        Message::Checkpoint(checkpoint(1)),
        Message::ViewChange(view_change(3)),
        Message::NewView(NewView {
            view: View(2),
            view_changes: vec![view_change(1), view_change(2)],
            pre_prepares: vec![pre_prepare(17), pre_prepare(18)],
            primary: ReplicaId(2),
        }),
        Message::StateFetch(StateFetch {
            seq: SeqNo(16),
            replica: ReplicaId(1),
        }),
        Message::StateData(StateData {
            seq: SeqNo(16),
            snapshot: vec![7, 8],
            proof: vec![checkpoint(0), checkpoint(2)],
            replica: ReplicaId(0),
        }),
    ]
}

fn envelopes() -> Vec<Envelope> {
    let p = KeyProvisioner::new([7u8; 32]);
    let replica = AuthContext::for_replica(p.clone(), ReplicaId(1), 4);
    let client = AuthContext::for_client(p, ClientId(42), 4);
    vec![
        replica.mac_envelope(vec![1, 2]),
        replica.signed_envelope(vec![3]),
        replica.mac_envelope_for_client(ClientId(42), vec![4, 5]),
        client.mac_envelope(vec![6]),
        client.signed_envelope(vec![7, 8]),
    ]
}

fn queue_ops() -> Vec<QueueOp> {
    vec![
        QueueOp::Deliver(vec![1, 2, 3]),
        QueueOp::Ack {
            element: ElementId(2),
            up_to: 17,
        },
        QueueOp::Expel(ElementId(3)),
        QueueOp::Join(ElementId(4)),
    ]
}

/// Decodes `bytes` and re-encodes the result; `None` when decode fails.
type Reencode = fn(&[u8]) -> Option<Vec<u8>>;

/// Every golden case: a name, its encoding, and its decoder's re-encode.
fn cases() -> Vec<(String, Vec<u8>, Reencode)> {
    let mut out: Vec<(String, Vec<u8>, Reencode)> = Vec::new();
    for (i, m) in core_msgs().iter().enumerate() {
        out.push((format!("CoreMsg#{i}"), m.encode(), |b| {
            CoreMsg::decode(b).ok().map(|m| m.encode())
        }));
    }
    for (i, f) in frames().iter().enumerate() {
        out.push((format!("SmiopFrame#{i}"), f.encode(), |b| {
            SmiopFrame::decode(b).ok().map(|f| f.encode())
        }));
    }
    for (i, op) in gm_ops().iter().enumerate() {
        out.push((format!("GmOp#{i}"), op.encode(), |b| {
            GmOp::decode(b).ok().map(|op| op.encode())
        }));
    }
    out.push(
        ("Directives".into(), encode_directives(&directives()), |b| {
            decode_directives(b).ok().map(|d| encode_directives(&d))
        }),
    );
    out.push(("Directives(empty)".into(), encode_directives(&[]), |b| {
        decode_directives(b).ok().map(|d| encode_directives(&d))
    }));
    out.push(("FaultProof".into(), encode_proof(&proof()), |b| {
        decode_proof(b).ok().map(|p| encode_proof(&p))
    }));
    for (i, cmd) in [
        HealCmd::Accuse {
            accused: SenderId(7),
        },
        HealCmd::Retire,
    ]
    .iter()
    .enumerate()
    {
        out.push((format!("HealCmd#{i}"), cmd.encode(), |b| {
            HealCmd::decode(b).ok().map(|c| c.encode())
        }));
    }
    for (i, m) in messages().iter().enumerate() {
        out.push((format!("Message#{i}"), m.encode(), |b| {
            Message::decode(b).ok().map(|m| m.encode())
        }));
    }
    for (i, e) in envelopes().iter().enumerate() {
        out.push((format!("Envelope#{i}"), e.encode(), |b| {
            Envelope::decode(b).ok().map(|e| e.encode())
        }));
    }
    for (i, op) in queue_ops().iter().enumerate() {
        out.push((format!("QueueOp#{i}"), op.encode(), |b| {
            QueueOp::decode(b).ok().map(|op| op.encode())
        }));
    }
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// --------------------------------------------------------- golden bytes

/// The pinned encoding of every golden case, in `cases()` order.
const GOLDEN: &[(&str, &str)] = &[
    ("CoreMsg#0", "01010000000000000003000000010203"),
    ("CoreMsg#1", "020700000000000000020000002a00000000000000010300000000000000010000000000000072420f0000000000050000000909090909"),
    ("CoreMsg#2", "020700000000000000020000002a0000000000000000010000000000000073420f000000000000000000"),
    ("CoreMsg#3", "03070000000000000000000000030000000b0000000000000004000000080808086a9b007918cc5302d68fa021af024e03"),
    ("CoreMsg#4", "0473420f000000000001000000000000000300000003000000020202"),
    ("CoreMsg#5", "0573420f000000000001000000000000000e000000030000000300000016000000000000000100000000000000f48a25915d98590d03000000060606"),
    ("SmiopFrame#0", "0100000000000000030000000042420f000000000005000000000000004d0000000000000003000000010203ed3c6f3faa91f507a47c10a39a630d03"),
    ("SmiopFrame#1", "0100000000000000030000000142420f000000000005000000000000004d0000000000000003000000010203ed3c6f3faa91f507a47c10a39a630d03"),
    ("GmOp#0", "010900000000000000000100000000000000"),
    ("GmOp#1", "0144420f00000000000102000000000000000100000000000000"),
    ("GmOp#2", "025b00000002000000030000000500000009000000000000000200000000000000010000000000000002000000050583129ee45deb190f0b2d2834c6c35d0a0300000002000000000000000100000006f5ede67d00ede40205acae328c3d7702"),
    ("GmOp#3", "030000000003000000"),
    ("GmOp#4", "040200000000000000"),
    ("GmOp#5", "0501000000000000000e000000030000001600000000000000f48a25915d98590d"),
    ("GmOp#6", "06010000000000000002000000"),
    ("Directives", "06000000010700000000000000020000002a000000000000000103000000000000000100000000000000070707070707070707070707070707070707070707070707070707070707070702000000010000000000000040420f0000000000020200000003010000000000000003000000040501000000000000000e000000030000000300000016000000000000000100000000000000f48a25915d98590d06010000000000000002000000"),
    ("Directives(empty)", "00000000"),
    ("FaultProof", "02000000030000000500000009000000000000000200000000000000010000000000000002000000050583129ee45deb190f0b2d2834c6c35d0a0300000002000000000000000100000006f5ede67d00ede40205acae328c3d7702"),
    ("HealCmd#0", "0107000000"),
    ("HealCmd#1", "02"),
    ("Message#0", "0109000000000000000300000000000000030000000900000003000000010203"),
    ("Message#1", "0201000000000000000500000000000000efb14d5ddd2aa62667855ec0bf8da850a0c6c896cafd7b4c0b202337da9281f302000000090000000000000003000000000000000300000009000000030000000102030a000000000000000100000000000000010000000a000000020000000405"),
    ("Message#2", "0301000000000000000500000000000000f13ee6ed54ea2aae9fc49a9faeb5da6e8ddef0e12ed5d30d35a624ae813e048502000000"),
    ("Message#3", "04010000000000000005000000000000009505cacb7c710ed17125fcc6cb3669e8ddca6c8cd8af6a31f6b3cd64604c309802000000"),
    ("Message#4", "0501000000000000000300000000000000090000000000000000000000010000002a"),
    ("Message#5", "0610000000000000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4e01000000"),
    ("Message#6", "07020000000000000010000000000000000200000010000000000000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4e0000000010000000000000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4e010000000200000001000000000000001100000000000000efb14d5ddd2aa62667855ec0bf8da850a0c6c896cafd7b4c0b202337da9281f302000000090000000000000003000000000000000300000009000000030000000102030a000000000000000100000000000000010000000a000000020000000405020000000100000000000000110000000000000035e3a6176b50da27fcb868bf840f0e76290bd9bf55c40545e67bac66353d0674010000000100000000000000110000000000000035e3a6176b50da27fcb868bf840f0e76290bd9bf55c40545e67bac66353d06740200000001000000000000001200000000000000efb14d5ddd2aa62667855ec0bf8da850a0c6c896cafd7b4c0b202337da9281f302000000090000000000000003000000000000000300000009000000030000000102030a000000000000000100000000000000010000000a0000000200000004050200000001000000000000001200000000000000e48d939f60d90eb530fe27e3605e548e51c7232e13baddfdfeaa4e04fb4783190200000001000000000000001200000000000000e48d939f60d90eb530fe27e3605e548e51c7232e13baddfdfeaa4e04fb4783190300000003000000"),
    ("Message#7", "08020000000000000002000000020000000000000010000000000000000200000010000000000000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4e0000000010000000000000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4e010000000200000001000000000000001100000000000000efb14d5ddd2aa62667855ec0bf8da850a0c6c896cafd7b4c0b202337da9281f302000000090000000000000003000000000000000300000009000000030000000102030a000000000000000100000000000000010000000a000000020000000405020000000100000000000000110000000000000035e3a6176b50da27fcb868bf840f0e76290bd9bf55c40545e67bac66353d0674010000000100000000000000110000000000000035e3a6176b50da27fcb868bf840f0e76290bd9bf55c40545e67bac66353d06740200000001000000000000001200000000000000efb14d5ddd2aa62667855ec0bf8da850a0c6c896cafd7b4c0b202337da9281f302000000090000000000000003000000000000000300000009000000030000000102030a000000000000000100000000000000010000000a0000000200000004050200000001000000000000001200000000000000e48d939f60d90eb530fe27e3605e548e51c7232e13baddfdfeaa4e04fb4783190200000001000000000000001200000000000000e48d939f60d90eb530fe27e3605e548e51c7232e13baddfdfeaa4e04fb4783190300000001000000020000000000000010000000000000000200000010000000000000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4e0000000010000000000000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4e010000000200000001000000000000001100000000000000efb14d5ddd2aa62667855ec0bf8da850a0c6c896cafd7b4c0b202337da9281f302000000090000000000000003000000000000000300000009000000030000000102030a000000000000000100000000000000010000000a000000020000000405020000000100000000000000110000000000000035e3a6176b50da27fcb868bf840f0e76290bd9bf55c40545e67bac66353d0674010000000100000000000000110000000000000035e3a6176b50da27fcb868bf840f0e76290bd9bf55c40545e67bac66353d06740200000001000000000000001200000000000000efb14d5ddd2aa62667855ec0bf8da850a0c6c896cafd7b4c0b202337da9281f302000000090000000000000003000000000000000300000009000000030000000102030a000000000000000100000000000000010000000a0000000200000004050200000001000000000000001200000000000000e48d939f60d90eb530fe27e3605e548e51c7232e13baddfdfeaa4e04fb4783190200000001000000000000001200000000000000e48d939f60d90eb530fe27e3605e548e51c7232e13baddfdfeaa4e04fb47831903000000020000000200000001000000000000001100000000000000efb14d5ddd2aa62667855ec0bf8da850a0c6c896cafd7b4c0b202337da9281f302000000090000000000000003000000000000000300000009000000030000000102030a000000000000000100000000000000010000000a00000002000000040501000000000000001200000000000000efb14d5ddd2aa62667855ec0bf8da850a0c6c896cafd7b4c0b202337da9281f302000000090000000000000003000000000000000300000009000000030000000102030a000000000000000100000000000000010000000a00000002000000040502000000"),
    ("Message#8", "09100000000000000001000000"),
    ("Message#9", "0a10000000000000000200000007080200000010000000000000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4e0000000010000000000000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4e0200000000000000"),
    ("Envelope#0", "000100000000000000020000000102002400000004000000486759146fcd134cdfefa27939931c0ac9566c238686317aa88b7eaf4abeb01e"),
    ("Envelope#1", "000100000000000000010000000301c2c07353e09eb0009a252171102aed09"),
    ("Envelope#2", "000100000000000000020000000405000c00000001000000244eda94b484ffd5"),
    ("Envelope#3", "012a0000000000000001000000060024000000040000004653f8936e2fd41d0685d17cdc96fe2480ebde2d443866f688acd48d58b05032"),
    ("Envelope#4", "012a00000000000000020000000708017c7baeead55a9a00e04bd7c2b046a808"),
    ("QueueOp#0", "0003000000010203"),
    ("QueueOp#1", "01020000001100000000000000"),
    ("QueueOp#2", "0203000000"),
    ("QueueOp#3", "0304000000"),
];

/// Every golden instance encodes to its pinned bytes, and decoding those
/// bytes re-encodes them exactly.
#[test]
fn golden_encodings_are_pinned() {
    let cases = cases();
    let got: Vec<(String, String)> = cases.iter().map(|(n, b, _)| (n.clone(), hex(b))).collect();
    let rendered: String = got
        .iter()
        .map(|(n, h)| format!("    (\"{n}\", \"{h}\"),\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "case count moved:\n{rendered}");
    for ((name, h), (pin_name, pin)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, pin_name);
        assert_eq!(h, pin, "{name} encoding moved");
    }
    for (name, bytes, reencode) in &cases {
        assert_eq!(
            reencode(bytes).as_deref(),
            Some(bytes.as_slice()),
            "{name} does not round-trip"
        );
    }
}

// ------------------------------------------------------ mutation digest

/// splitmix64: a self-contained seeded generator, so the mutation set can
/// never move with a dependency's RNG.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const MUTATIONS_PER_CASE: usize = 48;
const MUTATION_DIGEST: &str = "d412f902c89ab1a998e2ff3de2a8d79445e6b8da0ecada28fbbd67bd2924c0f9";

/// Seeded truncations and bit flips of every golden encoding, with every
/// decode outcome folded into one pinned digest.
#[test]
fn mutation_outcomes_are_pinned() {
    let mut rng = Mix(0x1DD0_5EED);
    let mut h = Sha256::new();
    let mut accepted = 0usize;
    for (name, bytes, reencode) in cases() {
        h.update(name.as_bytes());
        for i in 0..MUTATIONS_PER_CASE {
            let mut m = bytes.clone();
            match i % 3 {
                // truncation (possibly to nothing)
                0 => m.truncate(rng.below(bytes.len())),
                // one bit flip
                1 => {
                    let at = rng.below(m.len());
                    m[at] ^= 1 << rng.below(8);
                }
                // two bit flips, landing anywhere
                _ => {
                    for _ in 0..2 {
                        let at = rng.below(m.len());
                        m[at] ^= 1 << rng.below(8);
                    }
                }
            }
            match reencode(&m) {
                None => h.update(&[0]),
                Some(out) => {
                    accepted += 1;
                    h.update(&[1]);
                    h.update(&(out.len() as u64).to_le_bytes());
                    h.update(&out);
                }
            }
        }
    }
    let digest = h.finish().to_hex();
    assert!(accepted > 0, "some bit flips must still decode");
    assert_eq!(digest, MUTATION_DIGEST, "decode outcomes moved");
}

// ------------------------------------------------------ length bounds

/// `MAX_PROOF_ITEMS` in `core::wire`.
const CORE_MAX: usize = 1024;
/// `MAX_VEC` in `itdos_bft::message`.
const BFT_MAX: usize = 1 << 16;

fn round_trips_at_bound_rejects_past<T: PartialEq + std::fmt::Debug>(
    what: &str,
    build: impl Fn(usize) -> T,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T>,
    bound: usize,
) {
    let at = build(bound);
    assert!(
        decode(&encode(&at)).as_ref() == Some(&at),
        "{what}: {bound} items must decode with every item present"
    );
    assert!(
        decode(&encode(&build(bound + 1))).is_none(),
        "{what}: {} items must be rejected",
        bound + 1
    );
}

#[test]
fn core_list_bounds_accept_max_and_reject_one_more() {
    let proof_codec = (
        |p: &FaultProof| encode_proof(p),
        |b: &[u8]| decode_proof(b).ok(),
    );
    round_trips_at_bound_rejects_past(
        "FaultProof.accused",
        |n| FaultProof {
            accused: (0..n as u32).map(SenderId).collect(),
            request_id: 1,
            messages: vec![],
        },
        proof_codec.0,
        proof_codec.1,
        CORE_MAX,
    );
    round_trips_at_bound_rejects_past(
        "FaultProof.messages",
        |n| FaultProof {
            accused: vec![],
            request_id: 1,
            messages: (0..n as u64)
                .map(|i| SignedReply {
                    sender: SenderId(1),
                    sequence: i,
                    frame: vec![],
                    signature: sig(b"m"),
                })
                .collect(),
        },
        proof_codec.0,
        proof_codec.1,
        CORE_MAX,
    );
    round_trips_at_bound_rejects_past(
        "GmOp::ChangeProof accused",
        |n| {
            GmOp::ChangeProof(FaultProof {
                accused: vec![SenderId(2); n],
                request_id: 1,
                messages: vec![],
            })
        },
        GmOp::encode,
        |b| GmOp::decode(b).ok(),
        CORE_MAX,
    );
    round_trips_at_bound_rejects_past(
        "directive list",
        |n| vec![Directive::VoteRecorded; n],
        |d: &Vec<Directive>| encode_directives(d),
        |b| decode_directives(b).ok(),
        CORE_MAX,
    );
    round_trips_at_bound_rejects_past(
        "Directive::KeyDist.recipients",
        |n| {
            vec![Directive::KeyDist {
                meta: meta(None),
                input: [1; 32],
                recipients: (0..n as u64).collect(),
            }]
        },
        |d: &Vec<Directive>| encode_directives(d),
        |b| decode_directives(b).ok(),
        CORE_MAX,
    );
}

fn message_bound(what: &str, build: impl Fn(usize) -> Message) {
    round_trips_at_bound_rejects_past(
        what,
        build,
        Message::encode,
        |b| Message::decode(b).ok(),
        BFT_MAX,
    );
}

#[test]
fn bft_list_bounds_accept_max_and_reject_one_more() {
    let empty_vc = |replica| ViewChange {
        new_view: View(2),
        stable_seq: SeqNo(0),
        checkpoint_proof: vec![],
        prepared: vec![],
        replica: ReplicaId(replica),
    };
    let empty_pp = || PrePrepare {
        view: View(0),
        seq: SeqNo(1),
        digest: Digest([0; 32]),
        batch: Batch::default(),
    };
    message_bound("PrePrepare.batch.requests", |n| {
        let mut pp = empty_pp();
        pp.batch.requests = vec![request(1, 1, &[]); n];
        Message::PrePrepare(pp)
    });
    message_bound("ViewChange.checkpoint_proof", |n| {
        let mut vc = empty_vc(0);
        vc.checkpoint_proof = vec![checkpoint(0); n];
        Message::ViewChange(vc)
    });
    message_bound("ViewChange.prepared", |n| {
        let mut vc = empty_vc(0);
        vc.prepared = vec![
            PreparedProof {
                pre_prepare: empty_pp(),
                prepares: vec![],
            };
            n
        ];
        Message::ViewChange(vc)
    });
    message_bound("PreparedProof.prepares", |n| {
        let mut vc = empty_vc(0);
        vc.prepared = vec![PreparedProof {
            pre_prepare: empty_pp(),
            prepares: vec![prepare(1, 1); n],
        }];
        Message::ViewChange(vc)
    });
    message_bound("NewView.view_changes", |n| {
        Message::NewView(NewView {
            view: View(2),
            view_changes: vec![empty_vc(1); n],
            pre_prepares: vec![],
            primary: ReplicaId(2),
        })
    });
    message_bound("NewView.pre_prepares", |n| {
        Message::NewView(NewView {
            view: View(2),
            view_changes: vec![],
            pre_prepares: vec![empty_pp(); n],
            primary: ReplicaId(2),
        })
    });
    message_bound("StateData.proof", |n| {
        Message::StateData(StateData {
            seq: SeqNo(16),
            snapshot: vec![],
            proof: vec![checkpoint(1); n],
            replica: ReplicaId(0),
        })
    });
}
