//! PBFT protocol messages and their wire encoding.
//!
//! Message set from Castro–Liskov \[7\]: `REQUEST`, `PRE-PREPARE`,
//! `PREPARE`, `COMMIT`, `REPLY`, `CHECKPOINT`, `VIEW-CHANGE`, `NEW-VIEW`,
//! plus the state-transfer pair (`STATE-FETCH`/`STATE-DATA`) used by
//! proactive recovery and by lagging replicas.
//!
//! Normal-case messages are authenticated with MAC authenticators \[8\];
//! view-change and checkpoint messages are signed (as in the original PBFT
//! paper) so they can be embedded as transferable proofs.

use itdos_crypto::hash::Digest;

use crate::config::{ClientId, ReplicaId, SeqNo, View};
use crate::wire::Bft;

/// A client's operation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientRequest {
    /// Requesting client.
    pub client: ClientId,
    /// Client-local timestamp providing exactly-once semantics.
    pub timestamp: u64,
    /// Causal trace id (ITDOS extension): stamped by the invoking client
    /// so a batch's agreement rounds can be attributed to the end-to-end
    /// invocation that caused them. 0 means untraced. Part of the digest:
    /// a replica cannot silently re-attribute a request.
    pub trace: u64,
    /// Opaque operation bytes (in ITDOS: an encrypted SMIOP frame).
    pub operation: Vec<u8>,
}

impl ClientRequest {
    /// The request digest used throughout the three-phase protocol.
    pub fn digest(&self) -> Digest {
        Digest::of_parts(&[
            b"bft-req",
            &self.client.0.to_le_bytes(),
            &self.timestamp.to_le_bytes(),
            &self.trace.to_le_bytes(),
            &self.operation,
        ])
    }
}

/// An ordered group of requests agreed under one sequence number —
/// Castro–Liskov's batching optimization, amortizing the three-phase
/// quadratic message cost over `len()` requests.
///
/// The batch digest binds the count and every request digest in order, so
/// two batches containing the same requests in different orders (or one
/// with a request dropped or injected) never collide. An *empty* batch is
/// the null operation used by new-view gap filling; it executes nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Batch {
    /// The requests, in execution order.
    pub requests: Vec<ClientRequest>,
}

impl Batch {
    /// A batch of one request (the unbatched protocol).
    pub fn single(request: ClientRequest) -> Batch {
        Batch {
            requests: vec![request],
        }
    }

    /// The batch digest agreed by the three-phase protocol.
    pub fn digest(&self) -> Digest {
        let digests: Vec<Digest> = self.requests.iter().map(|r| r.digest()).collect();
        let count = (self.requests.len() as u64).to_le_bytes();
        let mut parts: Vec<&[u8]> = Vec::with_capacity(digests.len() + 2);
        parts.push(b"bft-batch");
        parts.push(&count);
        for d in &digests {
            parts.push(d.as_bytes());
        }
        Digest::of_parts(&parts)
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True for the null batch.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// Primary's ordering proposal for one batch of requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrePrepare {
    /// View in which the order is proposed.
    pub view: View,
    /// Proposed sequence number.
    pub seq: SeqNo,
    /// Digest of the embedded batch.
    pub digest: Digest,
    /// The full batch (piggybacked, as in PBFT).
    pub batch: Batch,
}

/// Backup's agreement to the proposed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prepare {
    /// View number.
    pub view: View,
    /// Sequence number.
    pub seq: SeqNo,
    /// Request digest.
    pub digest: Digest,
    /// Sending replica.
    pub replica: ReplicaId,
}

/// Replica's commitment to execute at the agreed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit {
    /// View number.
    pub view: View,
    /// Sequence number.
    pub seq: SeqNo,
    /// Request digest.
    pub digest: Digest,
    /// Sending replica.
    pub replica: ReplicaId,
}

/// Execution result returned to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// View in which the request executed.
    pub view: View,
    /// Echo of the request timestamp.
    pub timestamp: u64,
    /// The client addressed.
    pub client: ClientId,
    /// Replying replica.
    pub replica: ReplicaId,
    /// Execution result bytes.
    pub result: Vec<u8>,
}

/// Periodic proof of state at a sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Sequence number of the checkpointed state.
    pub seq: SeqNo,
    /// Digest of the application state at `seq`.
    pub state_digest: Digest,
    /// Sending replica.
    pub replica: ReplicaId,
}

/// A prepared certificate carried in a view change: the pre-prepare plus
/// 2f matching prepares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedProof {
    /// The ordering proposal.
    pub pre_prepare: PrePrepare,
    /// 2f prepares matching it.
    pub prepares: Vec<Prepare>,
}

/// A replica's vote to move to a new view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewChange {
    /// The view being moved to.
    pub new_view: View,
    /// Last stable checkpoint sequence.
    pub stable_seq: SeqNo,
    /// 2f+1 checkpoint messages proving `stable_seq`.
    pub checkpoint_proof: Vec<Checkpoint>,
    /// Prepared certificates above `stable_seq`.
    pub prepared: Vec<PreparedProof>,
    /// Sending replica.
    pub replica: ReplicaId,
}

/// The new primary's installation message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewView {
    /// The view being installed.
    pub view: View,
    /// 2f+1 view-change messages justifying the change.
    pub view_changes: Vec<ViewChange>,
    /// Re-issued pre-prepares for requests that must carry over.
    pub pre_prepares: Vec<PrePrepare>,
    /// The new primary.
    pub primary: ReplicaId,
}

/// Request for state transfer starting at a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateFetch {
    /// The requester wants the stable state at or above this sequence.
    pub seq: SeqNo,
    /// Requesting replica.
    pub replica: ReplicaId,
}

/// State transfer payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateData {
    /// Sequence number of the snapshot.
    pub seq: SeqNo,
    /// Application snapshot bytes.
    pub snapshot: Vec<u8>,
    /// 2f+1 checkpoints proving the snapshot digest.
    pub proof: Vec<Checkpoint>,
    /// Sending replica.
    pub replica: ReplicaId,
}

/// Any protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Client request.
    Request(ClientRequest),
    /// Ordering proposal.
    PrePrepare(PrePrepare),
    /// Order agreement.
    Prepare(Prepare),
    /// Execution commitment.
    Commit(Commit),
    /// Execution result.
    Reply(Reply),
    /// State proof.
    Checkpoint(Checkpoint),
    /// View-change vote.
    ViewChange(ViewChange),
    /// View installation.
    NewView(NewView),
    /// State transfer request.
    StateFetch(StateFetch),
    /// State transfer payload.
    StateData(StateData),
}

/// Bound on decoded list lengths (hostile-length defence); decoders
/// pre-allocate at most 64 slots whatever the claimed count.
const MAX_VEC: u32 = 1 << 16;

crate::wire!(Bft: struct ClientRequest { client, timestamp, trace, operation });
crate::wire!(Bft: struct Batch { requests: list(MAX_VEC, 64) });
crate::wire!(Bft: struct PrePrepare { view, seq, digest, batch });
crate::wire!(Bft: struct Prepare { view, seq, digest, replica });
crate::wire!(Bft: struct Commit { view, seq, digest, replica });
crate::wire!(Bft: struct Reply { view, timestamp, client, replica, result });
crate::wire!(Bft: struct Checkpoint { seq, state_digest, replica });
crate::wire!(Bft: struct PreparedProof { pre_prepare, prepares: list(MAX_VEC, 64) });
crate::wire!(Bft: struct ViewChange {
    new_view,
    stable_seq,
    checkpoint_proof: list(MAX_VEC, 64),
    prepared: list(MAX_VEC, 64),
    replica,
});
crate::wire!(Bft: struct NewView {
    view,
    view_changes: list(MAX_VEC, 64),
    pre_prepares: list(MAX_VEC, 64),
    primary,
});
crate::wire!(Bft: struct StateFetch { seq, replica });
crate::wire!(Bft: struct StateData { seq, snapshot, proof: list(MAX_VEC, 64), replica });
crate::wire!(Bft: enum Message {
    1 => Request(m),
    2 => PrePrepare(m),
    3 => Prepare(m),
    4 => Commit(m),
    5 => Reply(m),
    6 => Checkpoint(m),
    7 => ViewChange(m),
    8 => NewView(m),
    9 => StateFetch(m),
    10 => StateData(m),
});
crate::wire!(Bft: api Message);

impl Message {
    /// A short protocol-phase label for network statistics.
    pub fn label(&self) -> &'static str {
        match self {
            Message::Request(_) => "bft-request",
            Message::PrePrepare(_) => "bft-pre-prepare",
            Message::Prepare(_) => "bft-prepare",
            Message::Commit(_) => "bft-commit",
            Message::Reply(_) => "bft-reply",
            Message::Checkpoint(_) => "bft-checkpoint",
            Message::ViewChange(_) => "bft-view-change",
            Message::NewView(_) => "bft-new-view",
            Message::StateFetch(_) => "bft-state-fetch",
            Message::StateData(_) => "bft-state-data",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Writer;

    fn sample_request() -> ClientRequest {
        ClientRequest {
            client: ClientId(9),
            timestamp: 3,
            trace: (9 << 32) | 3,
            operation: vec![1, 2, 3],
        }
    }

    fn sample_pre_prepare() -> PrePrepare {
        let batch = Batch {
            requests: vec![
                sample_request(),
                ClientRequest {
                    client: ClientId(10),
                    timestamp: 1,
                    trace: 0,
                    operation: vec![4, 5],
                },
            ],
        };
        PrePrepare {
            view: View(1),
            seq: SeqNo(5),
            digest: batch.digest(),
            batch,
        }
    }

    fn all_messages() -> Vec<Message> {
        let req = sample_request();
        let pp = sample_pre_prepare();
        let prepare = Prepare {
            view: View(1),
            seq: SeqNo(5),
            digest: req.digest(),
            replica: ReplicaId(2),
        };
        let commit = Commit {
            view: View(1),
            seq: SeqNo(5),
            digest: req.digest(),
            replica: ReplicaId(2),
        };
        let checkpoint = Checkpoint {
            seq: SeqNo(16),
            state_digest: Digest::of(b"state"),
            replica: ReplicaId(1),
        };
        let vc = ViewChange {
            new_view: View(2),
            stable_seq: SeqNo(16),
            checkpoint_proof: vec![checkpoint],
            prepared: vec![PreparedProof {
                pre_prepare: pp.clone(),
                prepares: vec![prepare],
            }],
            replica: ReplicaId(3),
        };
        vec![
            Message::Request(req.clone()),
            Message::PrePrepare(pp.clone()),
            Message::Prepare(prepare),
            Message::Commit(commit),
            Message::Reply(Reply {
                view: View(1),
                timestamp: 3,
                client: ClientId(9),
                replica: ReplicaId(0),
                result: vec![42],
            }),
            Message::Checkpoint(checkpoint),
            Message::ViewChange(vc.clone()),
            Message::NewView(NewView {
                view: View(2),
                view_changes: vec![vc],
                pre_prepares: vec![pp],
                primary: ReplicaId(2),
            }),
            Message::StateFetch(StateFetch {
                seq: SeqNo(16),
                replica: ReplicaId(1),
            }),
            Message::StateData(StateData {
                seq: SeqNo(16),
                snapshot: vec![7, 8],
                proof: vec![checkpoint],
                replica: ReplicaId(0),
            }),
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in all_messages() {
            let bytes = msg.encode();
            assert_eq!(Message::decode(&bytes).unwrap(), msg, "{}", msg.label());
        }
    }

    /// The causal trace id survives `ClientRequest` wire round-trips —
    /// standalone and inside a batched pre-prepare — and is bound by the
    /// request digest so a replica cannot silently re-attribute it.
    #[test]
    fn client_request_trace_round_trips() {
        for trace in [0u64, 1, (7u64 << 32) | 3, u64::MAX] {
            let req = ClientRequest {
                client: ClientId(7),
                timestamp: 11,
                trace,
                operation: vec![9, 9],
            };
            let bytes = Message::Request(req.clone()).encode();
            let Message::Request(back) = Message::decode(&bytes).unwrap() else {
                panic!("wrong message kind");
            };
            assert_eq!(back, req);
            assert_eq!(back.trace, trace);
            let pp = Message::PrePrepare(PrePrepare {
                view: View(0),
                seq: SeqNo(1),
                digest: Batch::single(req.clone()).digest(),
                batch: Batch::single(req.clone()),
            });
            let Message::PrePrepare(pp_back) = Message::decode(&pp.encode()).unwrap() else {
                panic!("wrong message kind");
            };
            assert_eq!(pp_back.batch.requests[0].trace, trace);
        }
        let mut a = ClientRequest {
            client: ClientId(7),
            timestamp: 11,
            trace: 1,
            operation: vec![9, 9],
        };
        let d1 = a.digest();
        a.trace = 2;
        assert_ne!(a.digest(), d1, "trace is digest-bound");
    }

    #[test]
    fn batch_digest_binds_order_count_and_content() {
        let a = sample_request();
        let b = ClientRequest {
            client: ClientId(10),
            timestamp: 1,
            trace: 0,
            operation: vec![4, 5],
        };
        let ab = Batch {
            requests: vec![a.clone(), b.clone()],
        };
        let ba = Batch {
            requests: vec![b.clone(), a.clone()],
        };
        assert_ne!(ab.digest(), ba.digest(), "order matters");
        let just_a = Batch::single(a.clone());
        assert_ne!(ab.digest(), just_a.digest(), "dropped request detected");
        assert_ne!(just_a.digest(), a.digest(), "batch-of-one != raw request");
        let null = Batch::default();
        assert!(null.is_empty());
        assert_ne!(null.digest(), just_a.digest());
    }

    #[test]
    fn empty_batch_pre_prepare_round_trips() {
        let batch = Batch::default();
        let msg = Message::PrePrepare(PrePrepare {
            view: View(3),
            seq: SeqNo(9),
            digest: batch.digest(),
            batch,
        });
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn hostile_batch_length_rejected() {
        // a PRE-PREPARE claiming 2^30 requests in its batch
        let mut w = Writer::new();
        w.u8(2).u64(0).u64(1);
        w.raw(&[0u8; 32]);
        w.u32(1 << 30);
        assert!(Message::decode(&w.finish()).is_err());
    }

    #[test]
    fn digest_is_content_sensitive() {
        let a = sample_request();
        let mut b = a.clone();
        b.operation[0] ^= 1;
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.timestamp += 1;
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(Message::decode(&[200]).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = all_messages()[2].encode();
        bytes.push(0);
        assert!(Message::decode(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected_for_every_message() {
        for msg in all_messages() {
            let bytes = msg.encode();
            for cut in [1usize, bytes.len() / 2, bytes.len() - 1] {
                assert!(
                    Message::decode(&bytes[..cut]).is_err(),
                    "{} cut at {cut}",
                    msg.label()
                );
            }
        }
    }

    #[test]
    fn hostile_vector_length_rejected() {
        // craft a NEW-VIEW claiming 2^31 view-changes
        let mut w = Writer::new();
        w.u8(8).u64(1).u32(1 << 31);
        assert!(Message::decode(&w.finish()).is_err());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<&str> =
            all_messages().iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), all_messages().len());
    }
}
