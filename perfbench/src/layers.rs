//! Per-layer attribution for the traced run.
//!
//! A layer's cost per decided call is ns/op × ops/inv. The ops come from
//! counts the program already exports (the obs registry, simnet stats,
//! `System::heal_stats`); the ns/op come from timing calls into each
//! crate's public functions, on inputs shaped like the workload's traffic
//! (sizes are the traced episode's bytes/ops). Work that cannot be split
//! from outside — the core client, element and GM handlers and the orb's
//! dispatch — stays inside `simnet.step_ns` and in `1 − attributed_frac`.

use std::collections::BTreeMap;
use std::time::Instant;

use itdos::System;
use itdos_bft::auth::{AuthContext, KeyProvisioner};
use itdos_bft::config::{ClientId, ReplicaId, SeqNo, View};
use itdos_bft::message::{Batch, ClientRequest, Message, PrePrepare};
use itdos_crypto::hash::Digest;
use itdos_crypto::keys::SymmetricKey;
use itdos_crypto::symmetric::{open, seal};
use itdos_giop::cdr::Endianness;
use itdos_giop::giop::{
    decode_message, encode_message, GiopMessage, ReplyBody, ReplyMessage, RequestMessage,
};
use itdos_giop::platform::PlatformProfile;
use itdos_giop::types::Value;
use itdos_groupmgr::keying::ThresholdKeying;
use itdos_obs::metrics::LabelValue;
use itdos_vote::collator::Collator;
use itdos_vote::comparator::Comparator;
use itdos_vote::vote::{SenderId, Thresholds};
use xrand::rngs::SmallRng;
use xrand::SeedableRng;

use crate::spans::Spans;
use crate::workload::{float_window, Counters, Episode, NetSnapshot, Workload, FLOAT_TOLERANCE};

/// Every per-layer metric: name, unit, and which way is better. The
/// `per_layer` list of `BENCHMARK.json` is this table.
pub const METRICS: [(&str, &str, &str); 65] = [
    ("crypto.seal_ns", "ns", "lower"),
    ("crypto.open_ns", "ns", "lower"),
    ("crypto.sha256_ns", "ns", "lower"),
    ("crypto.seal_per_inv", "1/inv", "lower"),
    ("crypto.open_per_inv", "1/inv", "lower"),
    ("crypto.sealed_bytes_per_inv", "B/inv", "lower"),
    ("crypto.ns_per_inv", "ns/inv", "lower"),
    ("crypto.hmac_ns", "ns", "lower"),
    ("bft.mac_envelope_ns", "ns", "lower"),
    ("bft.mac_verify_ns", "ns", "lower"),
    ("bft.wire_tx_per_inv.mac", "1/inv", "lower"),
    ("bft.wire_rx_per_inv.mac", "1/inv", "lower"),
    ("bft.sig_envelope_ns", "ns", "lower"),
    ("bft.sig_verify_ns", "ns", "lower"),
    ("bft.wire_tx_per_inv.signature", "1/inv", "lower"),
    ("bft.checkpoints_per_inv", "1/inv", "lower"),
    ("bft.view_changes", "count", "lower"),
    ("bft.state_fetches", "count", "lower"),
    ("bft.codec_ns", "ns", "lower"),
    ("bft.batch_size_mean", "req/batch", "higher"),
    ("bft.ns_per_inv", "ns/inv", "lower"),
    ("giop.encode_ns", "ns", "lower"),
    ("giop.decode_ns", "ns", "lower"),
    ("giop.encode_per_inv", "1/inv", "lower"),
    ("giop.decode_per_inv", "1/inv", "lower"),
    ("giop.bytes_per_inv", "B/inv", "lower"),
    ("giop.ns_per_inv", "ns/inv", "lower"),
    ("vote.round_ns", "ns", "lower"),
    ("vote.folds_per_inv", "1/inv", "lower"),
    ("vote.divergent", "count", "lower"),
    ("vote.ns_per_inv", "ns/inv", "lower"),
    ("simnet.steps_per_inv", "1/inv", "lower"),
    ("simnet.step_ns", "ns", "lower"),
    ("simnet.msgs_per_inv", "1/inv", "lower"),
    ("simnet.bytes_per_inv", "B/inv", "lower"),
    ("simnet.msgs_per_inv.smiop-submit", "1/inv", "lower"),
    ("simnet.msgs_per_inv.smiop-reply", "1/inv", "lower"),
    ("simnet.msgs_per_inv.bft-request", "1/inv", "lower"),
    ("simnet.msgs_per_inv.bft-pre-prepare", "1/inv", "lower"),
    ("simnet.msgs_per_inv.bft-prepare", "1/inv", "lower"),
    ("simnet.msgs_per_inv.bft-commit", "1/inv", "lower"),
    ("simnet.msgs_per_inv.bft-reply", "1/inv", "lower"),
    ("simnet.msgs_per_inv.bft-checkpoint", "1/inv", "lower"),
    ("simnet.msgs_per_inv.bft-view-change", "1/inv", "lower"),
    ("simnet.msgs_per_inv.bft-new-view", "1/inv", "lower"),
    ("simnet.msgs_per_inv.bft-state-fetch", "1/inv", "lower"),
    ("simnet.msgs_per_inv.bft-state-data", "1/inv", "lower"),
    ("simnet.msgs_per_inv_growth", "ratio", "lower"),
    ("groupmgr.share_ns", "ns", "lower"),
    ("groupmgr.share_verify_ns", "ns", "lower"),
    ("groupmgr.combine_ns", "ns", "lower"),
    ("groupmgr.keydists", "count", "lower"),
    ("obs.record_ns", "ns", "lower"),
    ("obs.flight_events_per_inv", "1/inv", "lower"),
    ("audit.replay_ns_per_event", "ns", "lower"),
    ("audit.findings", "count", "higher"),
    ("core.heal_expulsions", "count", "higher"),
    ("core.heal_replacements", "count", "higher"),
    ("core.heal_rejuvenations", "count", "higher"),
    ("core.settle_ns", "ns", "lower"),
    ("core.submit_ns", "ns", "lower"),
    ("attributed_frac", "fraction", "higher"),
    ("tracing_overhead_frac", "fraction", "lower"),
    ("host.calib_ns", "ns", "lower"),
    ("host.nproc", "count", "higher"),
];

/// Wall time one micro-timed function may take in total.
const TIMING_BUDGET_NS: u128 = 30_000_000;

/// Times `f` call by call until the budget is spent (at least 5 calls,
/// at most 5000), recording each call as a span; returns the median ns.
fn time_op<T>(spans: &mut Spans, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5
        || (samples.len() < 5000 && start.elapsed().as_nanos() < TIMING_BUDGET_NS)
    {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let t1 = Instant::now();
        spans.record(name, t0, t1, 0);
        samples.push((t1 - t0).as_nanos() as f64);
    }
    crate::stats::median(&mut samples)
}

/// Counter deltas over the traced episode's measured window.
struct Window<'a> {
    start: &'a Counters,
    end: &'a Counters,
}

impl Window<'_> {
    /// Sum of `name` over the series whose rendered labels contain `label`.
    fn sum(&self, name: &str, label: &str) -> f64 {
        let total = |c: &Counters| -> u64 {
            c.iter()
                .filter(|((n, l), _)| n == name && l.contains(label))
                .map(|(_, v)| v)
                .sum()
        };
        total(self.end).saturating_sub(total(self.start)) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A representative request and reply of the workload, mean-sized.
fn sample_messages(workload: Workload, bulk_len: usize) -> (GiopMessage, GiopMessage) {
    let (interface, operation, arg, result) = match workload {
        Workload::RpcSmall => (
            "Counter",
            "add",
            Value::LongLong(500),
            Value::LongLong(250_000),
        ),
        Workload::RpcBulk => (
            "Store",
            "put",
            Value::Sequence(vec![Value::Octet(0xA5); bulk_len]),
            Value::ULong(bulk_len as u32),
        ),
        Workload::FanoutPipelined => (
            "Field",
            "window",
            Value::LongLong(4242),
            Value::Sequence(float_window(4242).into_iter().map(Value::Double).collect()),
        ),
        Workload::IntrusionHeal => ("Sensor", "echo", Value::LongLong(21), Value::LongLong(42)),
    };
    let request = GiopMessage::Request(RequestMessage {
        request_id: 7,
        trace: 7,
        response_expected: true,
        object_key: b"object".to_vec(),
        interface: interface.into(),
        operation: operation.into(),
        args: vec![arg],
    });
    let reply = GiopMessage::Reply(ReplyMessage {
        request_id: 7,
        interface: interface.into(),
        operation: operation.into(),
        body: ReplyBody::Result(result),
    });
    (request, reply)
}

/// Inputs and results of the per-layer pass.
pub struct Attribution<'a> {
    /// The workload.
    pub workload: Workload,
    /// The traced episode and the system it ran on.
    pub traced: &'a Episode,
    /// See `traced`.
    pub system: &'a System,
    /// The untraced episodes run in the same process.
    pub untraced: &'a [Episode],
}

impl Attribution<'_> {
    /// Every per-layer metric, by name.
    pub fn metrics(&self, spans: &mut Spans) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        let ep = self.traced;
        let w = Window {
            start: &ep.counters_start,
            end: &ep.counters_end,
        };
        let inv = ep.decided.max(1) as f64;
        let f = self.workload.f();
        let n = 3 * f + 1;

        // crypto: the SMIOP seal/open path
        let seals = w.sum("crypto.seal", "");
        let opens = w.sum("crypto.open", "");
        let seal_len = ratio(w.sum("crypto.seal_bytes", ""), seals)
            .round()
            .max(1.0) as usize;
        let open_len = ratio(w.sum("crypto.open_bytes", ""), opens)
            .round()
            .max(1.0) as usize;
        let key = SymmetricKey::derive(b"perfbench", b"conn");
        let plain = vec![0x5Au8; seal_len];
        let seal_ns = time_op(spans, "crypto.seal", || seal(&key, [3u8; 16], &plain));
        let sealed = seal(&key, [3u8; 16], &vec![0x5Au8; open_len]);
        let open_ns = time_op(spans, "crypto.open", || open(&key, &sealed).expect("opens"));
        let sha_ns = time_op(spans, "crypto.sha256", || Digest::of(&plain));
        m.insert("crypto.seal_ns".into(), seal_ns);
        m.insert("crypto.open_ns".into(), open_ns);
        m.insert("crypto.sha256_ns".into(), sha_ns);
        m.insert("crypto.seal_per_inv".into(), seals / inv);
        m.insert("crypto.open_per_inv".into(), opens / inv);
        m.insert(
            "crypto.sealed_bytes_per_inv".into(),
            w.sum("crypto.seal_bytes", "") / inv,
        );
        let crypto_ns = seal_ns * seals / inv + open_ns * opens / inv;
        m.insert("crypto.ns_per_inv".into(), crypto_ns);

        // bft: authenticators, signatures, message codec
        let mac = "Str(\"mac\")";
        let sig = "Str(\"signature\")";
        let tx_mac = w.sum("bft.wire_tx", mac);
        let rx_mac = w.sum("bft.wire_rx", mac);
        let tx_sig = w.sum("bft.wire_tx", sig);
        let rx_sig = w.sum("bft.wire_rx", sig);
        let mac_len = ratio(w.sum("bft.wire_tx_bytes", mac), tx_mac)
            .round()
            .max(64.0) as usize;
        let sig_len = ratio(w.sum("bft.wire_tx_bytes", sig), tx_sig)
            .round()
            .max(64.0) as usize;
        let provisioner = KeyProvisioner::new([7u8; 32]);
        let sender = AuthContext::for_replica(provisioner.clone(), ReplicaId(0), n);
        let receiver = AuthContext::for_replica(provisioner, ReplicaId(1), n);
        let mac_payload = vec![0x11u8; mac_len];
        let hmac_key = [0x22u8; 32];
        m.insert(
            "crypto.hmac_ns".into(),
            time_op(spans, "crypto.hmac", || {
                itdos_crypto::hmac::hmac(&hmac_key, &mac_payload)
            }),
        );
        let mac_env_ns = time_op(spans, "bft.mac_envelope", || {
            sender.mac_envelope(mac_payload.clone())
        });
        let mac_env = sender.mac_envelope(mac_payload.clone());
        let mac_verify_ns = time_op(spans, "bft.mac_verify", || receiver.verify(&mac_env));
        let sig_payload = vec![0x33u8; sig_len];
        let sig_env_ns = time_op(spans, "bft.sig_envelope", || {
            sender.signed_envelope(sig_payload.clone())
        });
        let sig_env = sender.signed_envelope(sig_payload.clone());
        let sig_verify_ns = time_op(spans, "bft.sig_verify", || receiver.verify(&sig_env));
        let batches = w.sum("bft.batch_size.count", "");
        let batch_mean = ratio(w.sum("bft.batch_size.sum", ""), batches);
        let batch_len = batch_mean.round().max(1.0) as usize;
        let request = ClientRequest {
            client: ClientId(1),
            timestamp: 9,
            trace: 9,
            operation: vec![0x44u8; seal_len],
        };
        let batch = Batch {
            requests: vec![request; batch_len],
        };
        let pre_prepare = Message::PrePrepare(PrePrepare {
            view: View(0),
            seq: SeqNo(1),
            digest: batch.digest(),
            batch,
        });
        let codec_ns = time_op(spans, "bft.codec", || {
            Message::decode(&pre_prepare.encode()).expect("decodes")
        });
        m.insert("bft.mac_envelope_ns".into(), mac_env_ns);
        m.insert("bft.mac_verify_ns".into(), mac_verify_ns);
        m.insert("bft.wire_tx_per_inv.mac".into(), tx_mac / inv);
        m.insert("bft.wire_rx_per_inv.mac".into(), rx_mac / inv);
        m.insert("bft.sig_envelope_ns".into(), sig_env_ns);
        m.insert("bft.sig_verify_ns".into(), sig_verify_ns);
        m.insert("bft.wire_tx_per_inv.signature".into(), tx_sig / inv);
        m.insert(
            "bft.checkpoints_per_inv".into(),
            w.sum("bft.checkpoints", "") / inv,
        );
        m.insert("bft.view_changes".into(), w.sum("bft.view_changes", ""));
        m.insert("bft.state_fetches".into(), w.sum("bft.state_fetches", ""));
        m.insert("bft.codec_ns".into(), codec_ns);
        m.insert("bft.batch_size_mean".into(), batch_mean);
        // every replica encodes or decodes each batch's pre-prepare once
        let bft_ns = mac_env_ns * tx_mac / inv
            + mac_verify_ns * rx_mac / inv
            + sig_env_ns * tx_sig / inv
            + sig_verify_ns * rx_sig / inv
            + codec_ns * n as f64 * batches / inv;
        m.insert("bft.ns_per_inv".into(), bft_ns);

        // giop: marshalling of the workload's request and reply
        let repo = &self.system.fabric.repo;
        let bulk_len = if self.workload == Workload::RpcBulk {
            // a sequence<octet> request carries ~1 byte of CDR per octet
            ratio(
                w.sum("giop.encode_bytes", "request"),
                w.sum("giop.encode", "request"),
            )
            .round()
            .max(1.0) as usize
        } else {
            0
        };
        let (request, reply) = sample_messages(self.workload, bulk_len);
        let mut kinds = Vec::new();
        for (kind, msg) in [("request", &request), ("reply", &reply)] {
            let bytes = encode_message(msg, repo, Endianness::Big).expect("encodes");
            let enc = time_op(spans, "giop.encode", || {
                encode_message(msg, repo, Endianness::Big).expect("encodes")
            });
            let dec = time_op(spans, "giop.decode", || {
                decode_message(&bytes, repo).expect("decodes")
            });
            kinds.push((
                w.sum("giop.encode", kind),
                w.sum("giop.decode", kind),
                enc,
                dec,
            ));
        }
        let encodes = w.sum("giop.encode", "");
        let decodes = w.sum("giop.decode", "");
        let enc_ns: f64 = kinds.iter().map(|k| k.0 * k.2).sum::<f64>();
        let dec_ns: f64 = kinds.iter().map(|k| k.1 * k.3).sum::<f64>();
        m.insert("giop.encode_ns".into(), ratio(enc_ns, encodes));
        m.insert("giop.decode_ns".into(), ratio(dec_ns, decodes));
        m.insert("giop.encode_per_inv".into(), encodes / inv);
        m.insert("giop.decode_per_inv".into(), decodes / inv);
        m.insert(
            "giop.bytes_per_inv".into(),
            (w.sum("giop.encode_bytes", "") + w.sum("giop.decode_bytes", "")) / inv,
        );
        let giop_ns = (enc_ns + dec_ns) / inv;
        m.insert("giop.ns_per_inv".into(), giop_ns);

        // vote: one collation round over n platform-perturbed replies
        let GiopMessage::Reply(ReplyMessage {
            body: ReplyBody::Result(value),
            ..
        }) = &reply
        else {
            unreachable!("sample reply carries a result");
        };
        let comparator = match self.workload {
            Workload::FanoutPipelined => Comparator::InexactRel(2.0 * FLOAT_TOLERANCE),
            _ => Comparator::Exact,
        };
        let ballots: Vec<Value> = (0..n)
            .map(|i| PlatformProfile::for_replica(i).perturb_value(value))
            .collect();
        let round_ns = time_op(spans, "vote.round", || {
            let mut collator = Collator::new(Thresholds::new(f), comparator.clone());
            collator.begin(1);
            for (i, ballot) in ballots.iter().enumerate() {
                collator.offer(1, SenderId(i as u32), ballot.clone());
            }
            collator.decision().is_some()
        });
        let rounds = w.sum("vote.decided", "");
        m.insert("vote.round_ns".into(), round_ns);
        m.insert("vote.folds_per_inv".into(), w.sum("vote.folds", "") / inv);
        m.insert("vote.divergent".into(), w.sum("vote.divergent", ""));
        let vote_ns = round_ns * rounds / inv;
        m.insert("vote.ns_per_inv".into(), vote_ns);

        // simnet and the wall time per call: measured on the untraced
        // episodes, obs as the workload has it
        let total = |f: fn(&Episode) -> f64| self.untraced.iter().map(f).sum::<f64>();
        let u_inv = total(|e| e.decided as f64).max(1.0);
        let window_ns = total(|e| e.window_s) * 1e9;
        let u_submit_ns = total(|e| e.submit_ns as f64);
        m.insert("simnet.steps_per_inv".into(), ep.steps as f64 / inv);
        m.insert(
            "simnet.step_ns".into(),
            ratio(
                window_ns - u_submit_ns - total(|e| e.settle_ns as f64),
                total(|e| e.steps as f64),
            ),
        );
        m.insert(
            "simnet.msgs_per_inv".into(),
            (ep.net_end.messages - ep.net_start.messages) as f64 / inv,
        );
        m.insert(
            "simnet.bytes_per_inv".into(),
            (ep.net_end.bytes - ep.net_start.bytes) as f64 / inv,
        );
        // one metric per SMIOP and BFT message kind
        for (name, _, _) in METRICS {
            if let Some(label) = name.strip_prefix("simnet.msgs_per_inv.") {
                let at = |s: &NetSnapshot| s.by_label.get(label).copied().unwrap_or(0);
                m.insert(
                    name.to_string(),
                    (at(&ep.net_end) - at(&ep.net_start)) as f64 / inv,
                );
            }
        }
        m.insert(
            "simnet.msgs_per_inv_growth".into(),
            ratio(ep.msgs_last_tenth as f64, ep.msgs_first_tenth as f64),
        );

        // groupmgr: threshold keying as the GM group (f=1, n=4) runs it
        let mut rng = SmallRng::seed_from_u64(11);
        let keying = ThresholdKeying::deal(1, 4, &mut rng);
        let input = [0x66u8; 32];
        let shares: Vec<_> = (0..4)
            .map(|i| keying.share_for(i, &input).expect("share"))
            .collect();
        m.insert(
            "groupmgr.share_ns".into(),
            time_op(spans, "groupmgr.share", || keying.share_for(0, &input)),
        );
        m.insert(
            "groupmgr.share_verify_ns".into(),
            time_op(spans, "groupmgr.share_verify", || {
                keying.verifier().verify(&input, &shares[0])
            }),
        );
        m.insert(
            "groupmgr.combine_ns".into(),
            time_op(spans, "groupmgr.combine", || {
                keying.combine(&input, &shares[..2]).expect("combines")
            }),
        );
        m.insert("groupmgr.keydists".into(), w.sum("gm.keydists", ""));

        // obs: one flight event into an enabled forensic recorder
        let (obs, _clock) = itdos_obs::Obs::manual();
        obs.set_flight_capacity(1 << 15);
        m.insert(
            "obs.record_ns".into(),
            time_op(spans, "obs.record", || {
                obs.event("perfbench.probe", &[("element", LabelValue::U64(4))])
            }),
        );
        let flight = self
            .system
            .obs
            .with_flight(|f| f.events().cloned().collect::<Vec<_>>())
            .unwrap_or_default();
        m.insert(
            "obs.flight_events_per_inv".into(),
            w.sum("obs.flight_recorded", "") / inv,
        );

        // audit: replay of the run's retained flight events through a
        // fresh streaming auditor
        let topology = self.system.audit_topology();
        let replay_ns = {
            let t0 = Instant::now();
            let mut stream = itdos_audit::Stream::new(topology);
            for event in &flight {
                std::hint::black_box(stream.observe_event(event));
            }
            let t1 = Instant::now();
            spans.record("audit.replay", t0, t1, 0);
            (t1 - t0).as_nanos() as f64
        };
        m.insert(
            "audit.replay_ns_per_event".into(),
            ratio(replay_ns, flight.len() as f64),
        );
        m.insert(
            "audit.findings".into(),
            self.system
                .live_audit_report()
                .map_or(0, |r| r.findings.len()) as f64,
        );
        m.insert("core.heal_expulsions".into(), ep.heal.expulsions as f64);
        m.insert("core.heal_replacements".into(), ep.heal.replacements as f64);
        m.insert(
            "core.heal_rejuvenations".into(),
            ep.heal.rejuvenations as f64,
        );
        m.insert(
            "core.settle_ns".into(),
            ratio(ep.settle_ns as f64, ep.settles as f64),
        );
        let submit_ns = ratio(u_submit_ns, u_inv);
        m.insert("core.submit_ns".into(), submit_ns);
        m.insert(
            "attributed_frac".into(),
            ratio(
                crypto_ns + bft_ns + giop_ns + vote_ns + submit_ns,
                window_ns / u_inv,
            ),
        );
        m
    }
}
