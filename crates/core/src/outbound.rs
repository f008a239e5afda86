//! Outbound BFT client channels.
//!
//! Every endpoint that submits operations into some domain's ordering
//! group — a singleton client invoking a server, a server element making a
//! nested invocation or sending queue-control ops to its *own* group, any
//! process talking to the Group Manager — drives one [`Outbound`] per
//! target domain. It wraps the PBFT client protocol (send to all, collect
//! `f+1` matching ACKs, retransmit on timeout). By default operations are
//! serialized one in flight per channel (§3.6's single outstanding
//! request); [`Outbound::set_window`] opens a pipelining window of several
//! in-flight operations — the BFT primary batches them under shared
//! sequence numbers — while accepted results are still released to the
//! owner strictly in submission order, so every caller keeps its FIFO
//! view of the channel.
//!
//! A channel keeps at most one retransmission timer pending, however many
//! operations it has sent: an operation started while the timer is pending
//! rides it, so every undecided operation is rebroadcast within
//! 2×`view_timeout` of being sent, and a back-to-back caller never stacks
//! one rebroadcast chain per finished call.

use std::collections::{BTreeMap, VecDeque};

use itdos_bft::auth::AuthContext;
use itdos_bft::client::Client;
use itdos_bft::message::Message;
use itdos_groupmgr::membership::DomainId;
use simnet::{Context, TimerId};
use xbytes::Bytes;

use crate::codes::{bft_client_id, pack_timer, TimerTag};
use crate::fabric::Fabric;
use crate::wire::CoreMsg;

/// One outbound ordering channel to a target domain.
pub struct Outbound {
    target: DomainId,
    auth: AuthContext,
    client: Client,
    /// Queued `(operation, trace)` pairs awaiting a window slot.
    queue: VecDeque<(Vec<u8>, u64)>,
    /// Timestamps of in-flight operations in submission order; results are
    /// released to `accepted` only when the head decides (FIFO reorder).
    in_order: VecDeque<u64>,
    /// Decided results awaiting older operations, by timestamp.
    decided: BTreeMap<u64, Vec<u8>>,
    /// Results of accepted operations, oldest first (drained by the owner).
    accepted: VecDeque<Vec<u8>>,
    /// The channel's one pending retransmission timer, if armed.
    retransmit: Option<TimerId>,
}

impl std::fmt::Debug for Outbound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Outbound")
            .field("target", &self.target)
            .field("queued", &self.queue.len())
            .field("busy", &self.client.busy())
            .finish()
    }
}

impl Outbound {
    /// Opens a channel from endpoint `code` to `target`'s ordering group.
    pub fn new(fabric: &Fabric, target: DomainId, code: u64) -> Outbound {
        let spec = fabric.domain(target);
        Outbound {
            target,
            auth: fabric.bft_auth_client(target, code),
            client: Client::new(bft_client_id(code), spec.config.clone()),
            queue: VecDeque::new(),
            in_order: VecDeque::new(),
            decided: BTreeMap::new(),
            accepted: VecDeque::new(),
            retransmit: None,
        }
    }

    /// Sets the pipelining window: how many operations may be in flight
    /// concurrently (default 1, the strict §3.6 serialization).
    pub fn set_window(&mut self, window: usize) {
        self.client.set_window(window);
    }

    /// The target domain.
    pub fn target(&self) -> DomainId {
        self.target
    }

    /// Queues an operation for ordered submission.
    pub fn submit(&mut self, ctx: &mut Context<'_>, fabric: &Fabric, op: Vec<u8>) {
        self.submit_traced(ctx, fabric, op, 0);
    }

    /// Queues an operation carrying a causal trace id (0 = untraced); the
    /// id rides the BFT request so ordering work is attributable to the
    /// invocation that caused it.
    pub fn submit_traced(
        &mut self,
        ctx: &mut Context<'_>,
        fabric: &Fabric,
        op: Vec<u8>,
        trace: u64,
    ) {
        self.queue.push_back((op, trace));
        self.pump(ctx, fabric);
    }

    /// Number of operations accepted and awaiting the owner.
    pub fn take_accepted(&mut self) -> Vec<Vec<u8>> {
        self.accepted.drain(..).collect()
    }

    /// True when nothing is queued or in flight.
    pub fn idle(&self) -> bool {
        self.queue.is_empty() && self.client.in_flight() == 0
    }

    fn pump(&mut self, ctx: &mut Context<'_>, fabric: &Fabric) {
        let mut started = false;
        while !self.client.busy() {
            let Some((op, trace)) = self.queue.pop_front() else {
                break;
            };
            let request = self
                .client
                .start_request_traced(op, trace)
                .expect("window has room");
            self.in_order.push_back(request.timestamp);
            self.broadcast(ctx, fabric, &Message::Request(request));
            started = true;
        }
        if started && self.retransmit.is_none() {
            self.arm_retransmit(ctx, fabric);
        }
    }

    /// Moves decided results into `accepted` in submission order.
    fn release(&mut self) {
        while let Some(&head) = self.in_order.front() {
            let Some(result) = self.decided.remove(&head) else {
                break;
            };
            self.in_order.pop_front();
            self.accepted.push_back(result);
        }
    }

    fn arm_retransmit(&mut self, ctx: &mut Context<'_>, fabric: &Fabric) {
        let timeout = fabric.domain(self.target).config.view_timeout;
        self.retransmit = Some(ctx.set_timer(
            timeout.saturating_mul(2),
            pack_timer(TimerTag::Retransmit, self.target.0),
        ));
    }

    fn broadcast(&self, ctx: &mut Context<'_>, fabric: &Fabric, message: &Message) {
        let envelope = self.auth.mac_envelope(message.encode());
        let msg = CoreMsg::Bft {
            domain: self.target,
            envelope: envelope.encode(),
        };
        let bytes = Bytes::from(msg.encode());
        for &node in &fabric.domain(self.target).nodes {
            ctx.send_labeled(node, bytes.clone(), "smiop-submit");
        }
    }

    /// Handles a verified BFT reply envelope addressed to this client.
    /// Returns true if it completed the in-flight operation (its result is
    /// then available via [`Outbound::take_accepted`]).
    pub fn on_reply(
        &mut self,
        ctx: &mut Context<'_>,
        fabric: &Fabric,
        envelope_bytes: &[u8],
    ) -> bool {
        let Ok(envelope) = itdos_bft::auth::Envelope::decode(envelope_bytes) else {
            return false;
        };
        if !self.auth.verify(&envelope) {
            return false;
        }
        let Ok(Message::Reply(reply)) = Message::decode(&envelope.payload) else {
            return false;
        };
        if let Some((timestamp, result)) = self.client.on_reply(reply) {
            self.decided.insert(timestamp, result);
            self.release();
            self.pump(ctx, fabric);
            return true;
        }
        false
    }

    /// Handles a fired retransmission timer `id`: rebroadcasts every
    /// undecided operation and re-arms while any remain. Any id but the
    /// channel's one pending timer is ignored.
    pub fn on_retransmit_timer(&mut self, ctx: &mut Context<'_>, fabric: &Fabric, id: TimerId) {
        if self.retransmit != Some(id) {
            return;
        }
        self.retransmit = None;
        let undecided = self.client.retransmit_all();
        if undecided.is_empty() {
            return;
        }
        for request in undecided {
            self.broadcast(ctx, fabric, &Message::Request(request));
        }
        self.arm_retransmit(ctx, fabric);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itdos_bft::config::GroupConfig;
    use itdos_crypto::dprf::Dprf;
    use itdos_giop::idl::InterfaceRepository;
    use itdos_vote::vote::SenderId;
    use simnet::{GroupId, NodeId};
    use std::collections::BTreeMap;
    use xrand::rngs::SmallRng;
    use xrand::SeedableRng;

    fn fabric() -> Fabric {
        let mut domains = BTreeMap::new();
        domains.insert(
            DomainId(1),
            crate::fabric::DomainSpec {
                id: DomainId(1),
                f: 1,
                config: GroupConfig::for_f(1),
                seed: [1u8; 32],
                mcast: GroupId::from_raw(0),
                nodes: (0..4).map(NodeId::from_raw).collect(),
                elements: (0..4).map(SenderId).collect(),
            },
        );
        let dprf = Dprf::deal(1, 4, &mut SmallRng::seed_from_u64(1));
        Fabric {
            domains,
            endpoint_nodes: BTreeMap::new(),
            gm_domain: DomainId(1),
            repo: InterfaceRepository::new(),
            comparators: crate::registry::ComparatorRegistry::new(),
            dprf_verifier: dprf.verifier().clone(),
            global_seed: [2u8; 32],
            retired: Vec::new(),
        }
    }

    /// A process that owns one Outbound and records accepted results.
    struct Harness {
        outbound: Outbound,
        fabric: Fabric,
    }

    impl simnet::Process for Harness {
        fn on_message(&mut self, ctx: &mut Context<'_>, from: simnet::NodeId, payload: Bytes) {
            if from.is_external() {
                self.outbound.submit(ctx, &self.fabric, payload.to_vec());
            }
        }
    }

    #[test]
    fn submission_broadcasts_to_all_replicas() {
        let fabric = fabric();
        let mut sim = simnet::Simulator::new(1);
        // four sink nodes standing in for replicas (ids 0..3 as in fabric)
        struct Sink {
            got: u32,
        }
        impl simnet::Process for Sink {
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: simnet::NodeId, _p: Bytes) {
                self.got += 1;
            }
        }
        for _ in 0..4 {
            sim.add_process(Box::new(Sink { got: 0 }));
        }
        let h = sim.add_process(Box::new(Harness {
            outbound: Outbound::new(&fabric, DomainId(1), 9),
            fabric: fabric.clone(),
        }));
        sim.inject(h, Bytes::from_static(b"op"));
        sim.run_until(simnet::SimTime::from_micros(500));
        for i in 0..4 {
            assert_eq!(
                sim.process_ref::<Sink>(NodeId::from_raw(i)).got,
                1,
                "replica {i} got the request"
            );
        }
    }

    #[test]
    fn retransmission_rebroadcasts_until_acked() {
        let fabric = fabric();
        let mut sim = simnet::Simulator::new(3);
        struct Counter {
            got: u32,
        }
        impl simnet::Process for Counter {
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: simnet::NodeId, _p: Bytes) {
                self.got += 1;
            }
        }
        for _ in 0..4 {
            sim.add_process(Box::new(Counter { got: 0 }));
        }
        struct RetryHarness {
            outbound: Outbound,
            fabric: Fabric,
        }
        impl simnet::Process for RetryHarness {
            fn on_message(&mut self, ctx: &mut Context<'_>, from: simnet::NodeId, payload: Bytes) {
                if from.is_external() {
                    self.outbound.submit(ctx, &self.fabric, payload.to_vec());
                }
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, timer: simnet::Timer) {
                if let Some((crate::codes::TimerTag::Retransmit, _)) =
                    crate::codes::unpack_timer(timer.kind)
                {
                    let fabric = self.fabric.clone();
                    self.outbound.on_retransmit_timer(ctx, &fabric, timer.id);
                }
            }
        }
        let h = sim.add_process(Box::new(RetryHarness {
            outbound: Outbound::new(&fabric, DomainId(1), 9),
            fabric: fabric.clone(),
        }));
        sim.inject(h, Bytes::from_static(b"op"));
        // no replica ever ACKs, so the client keeps rebroadcasting on its
        // timer: after several timeout periods each sink saw > 1 copy
        sim.run_until(simnet::SimTime::from_micros(700_000));
        let got = sim.process_ref::<Counter>(NodeId::from_raw(0)).got;
        assert!(got >= 3, "rebroadcasts observed: {got}");
    }

    #[test]
    fn operations_serialize_one_at_a_time() {
        let fabric = fabric();
        let mut sim = simnet::Simulator::new(2);
        struct Counter {
            got: u32,
        }
        impl simnet::Process for Counter {
            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: simnet::NodeId, _p: Bytes) {
                self.got += 1;
            }
        }
        for _ in 0..4 {
            sim.add_process(Box::new(Counter { got: 0 }));
        }
        let h = sim.add_process(Box::new(Harness {
            outbound: Outbound::new(&fabric, DomainId(1), 9),
            fabric: fabric.clone(),
        }));
        sim.inject(h, Bytes::from_static(b"op1"));
        sim.inject(h, Bytes::from_static(b"op2"));
        sim.run_until(simnet::SimTime::from_micros(300));
        // second op queued behind the un-acked first: only one broadcast
        assert_eq!(sim.process_ref::<Counter>(NodeId::from_raw(0)).got, 1);
    }
}
