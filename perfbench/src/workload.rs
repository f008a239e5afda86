//! The four workloads and the closed loop that runs them.
//!
//! Every workload is a closed loop: a client issues its next call only
//! when an earlier one is decided, because a CORBA client blocks on its
//! voted reply, and a wall-clock arrival schedule means nothing when the
//! system's clock is simulated. One call is outstanding per client except
//! in `fanout_pipelined`, where each client keeps [`PIPELINE`] in flight.
//! The loop steps the simulator until the next reply is decided and
//! never calls `settle()` between calls: settling drains retransmit timers
//! that real back-to-back load never lets drain (see `main.rs`, "Known
//! baseline behaviour").
//!
//! An episode is a fixed call schedule drawn from the seed, run on a fresh
//! `System`. Everything in it measured in simulated time, and every count,
//! is therefore a function of the seed alone; a run repeats episodes until
//! its wall-clock window is used up and checks that they agree.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use itdos::fault::Behavior;
use itdos::heal::HealConfig;
use itdos::system::{System, SystemBuilder};
use itdos::{Invocation, ObsConfig, ServerElement};
use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
use itdos_giop::platform::PlatformProfile;
use itdos_giop::types::{TypeDesc, Value};
use itdos_groupmgr::membership::DomainId;
use itdos_obs::metrics::LabelValue;
use itdos_orb::object::ObjectKey;
use itdos_orb::servant::{FnServant, Servant, ServantException};
use itdos_vote::comparator::Comparator;
use xrand::rngs::SmallRng;
use xrand::{Rng, SeedableRng};

use crate::spans::Spans;

/// The server replication domain every workload calls.
pub const DOMAIN: DomainId = DomainId(1);
/// Calls each `fanout_pipelined` client keeps outstanding.
pub const PIPELINE: usize = 8;
/// Doubles in one `Field.window` reply.
pub const FLOAT_WINDOW: usize = 64;
/// Relative tolerance a decided float may sit from the reference value:
/// one platform lane's perturbation bound.
pub const FLOAT_TOLERANCE: f64 = itdos_giop::platform::FLOAT_TOLERANCE;
/// Largest `rpc_bulk` blob (the smallest is one byte).
pub const BULK_MAX: usize = 32 * 1024;
/// `intrusion_heal`: calls per intrusion wave.
pub const HEAL_CALLS_PER_WAVE: usize = 12;
/// `intrusion_heal`: waves per episode, sized for run length, not for
/// survival: the seed-commit controller loses liveness after 8 waves, and
/// the calls scheduled after the loss count as failed.
pub const HEAL_WAVES: usize = 16;
/// Step budget of one `try_settle` in `intrusion_heal`, so a livelock
/// costs bounded wall time.
pub const HEAL_SETTLE_BUDGET: u64 = 150_000;
/// Steps, or simulated µs, without any decision after which the
/// outstanding calls are declared undecided (liveness lost). An undecided
/// call re-arms the client's retry timer forever, so without the sim-time
/// limit a stall would cost [`STALL_STEPS`] timer steps.
pub const STALL_STEPS: u64 = 150_000;
/// See [`STALL_STEPS`].
pub const STALL_SIM_US: u64 = 20_000_000;
/// The deployment seed: the simulator's, which deals the keys and draws
/// the network jitter. The program gets only the generated inputs from
/// `--seed`; the deployment is fixed per workload, because at the seed
/// commit the jitter alone moves `rpc_small`'s wall time per call by a
/// quarter and the waves `intrusion_heal`'s campaign survives from 0 to 10.
/// 77 is the seed `rpc_small` was sized on, 61 is `heal.rs`'s.
fn deployment_seed(workload: Workload) -> u64 {
    match workload {
        Workload::IntrusionHeal => 61,
        _ => 77,
    }
}
/// Healing controller settings from `crates/bench/src/bin/heal.rs`.
const REJUVENATION_PERIOD_US: u64 = 1_500_000;
const DECAY_WINDOW_US: u64 = 600_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1 client, 1 outstanding, `Counter.add(long long)`, f=1.
    RpcSmall,
    /// 1 client, 1 outstanding, `Store.put(sequence<octet>)` of 1 B–32 KiB, f=1.
    RpcBulk,
    /// 2 clients × 8 outstanding, batching, f=2, 64-double replies voted inexactly.
    FanoutPipelined,
    /// f=1, obs + streaming audit + healing on, rotating compromises.
    IntrusionHeal,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::RpcSmall,
        Workload::RpcBulk,
        Workload::FanoutPipelined,
        Workload::IntrusionHeal,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RpcSmall => "rpc_small",
            Workload::RpcBulk => "rpc_bulk",
            Workload::FanoutPipelined => "fanout_pipelined",
            Workload::IntrusionHeal => "intrusion_heal",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Server-domain fault tolerance.
    pub fn f(self) -> usize {
        match self {
            Workload::FanoutPipelined => 2,
            _ => 1,
        }
    }

    /// Simulated client ids.
    pub fn clients(self) -> &'static [u64] {
        match self {
            Workload::FanoutPipelined => &[1, 2],
            _ => &[1],
        }
    }

    /// Calls the loop hands each client before waiting for one to be
    /// decided. `intrusion_heal` hands over a whole wave at once, as
    /// `heal.rs` does; its client still has one call in flight and sends
    /// the next when the previous is decided.
    fn window(self) -> usize {
        match self {
            Workload::FanoutPipelined => PIPELINE,
            Workload::IntrusionHeal => HEAL_CALLS_PER_WAVE,
            _ => 1,
        }
    }

    /// Calls per client in one episode's measured window (after the cold
    /// call). `rpc_small` is long enough to show the retransmit growth.
    fn measured_calls(self) -> usize {
        match self {
            Workload::RpcSmall => 1500,
            Workload::RpcBulk => 60,
            Workload::FanoutPipelined => 400,
            Workload::IntrusionHeal => HEAL_WAVES * HEAL_CALLS_PER_WAVE - 1,
        }
    }

    /// Whether obs is part of the workload itself (not only of tracing).
    pub fn obs_in_workload(self) -> bool {
        self == Workload::IntrusionHeal
    }
}

// ------------------------------------------------------------------ system

fn repository() -> InterfaceRepository {
    let mut repo = InterfaceRepository::new();
    repo.register(
        InterfaceDef::new("Counter").with_operation(OperationDef::new(
            "add",
            vec![("delta".into(), TypeDesc::LongLong)],
            TypeDesc::LongLong,
        )),
    );
    repo.register(InterfaceDef::new("Store").with_operation(OperationDef::new(
        "put",
        vec![("blob".into(), TypeDesc::sequence_of(TypeDesc::Octet))],
        TypeDesc::ULong,
    )));
    repo.register(InterfaceDef::new("Field").with_operation(OperationDef::new(
        "window",
        vec![("origin".into(), TypeDesc::LongLong)],
        TypeDesc::sequence_of(TypeDesc::Double),
    )));
    repo.register(
        InterfaceDef::new("Sensor").with_operation(OperationDef::new(
            "echo",
            vec![("sample".into(), TypeDesc::LongLong)],
            TypeDesc::LongLong,
        )),
    );
    repo
}

/// The reference `Field.window` reply: [`FLOAT_WINDOW`] doubles that
/// depend only on `origin`.
pub fn float_window(origin: i64) -> Vec<f64> {
    (0..FLOAT_WINDOW)
        .map(|i| ((origin as f64) * 1e-3 + i as f64 * 0.37).sin() * 1e3 + i as f64)
        .collect()
}

fn servants(workload: Workload) -> Vec<(ObjectKey, Box<dyn Servant>)> {
    let servant: Box<dyn Servant> = match workload {
        Workload::RpcSmall => {
            let mut total = 0i64;
            Box::new(FnServant::new("Counter", move |_, args| {
                let Value::LongLong(d) = args[0] else {
                    return Err(ServantException::new("Counter::BadArgs"));
                };
                total += d;
                Ok(Value::LongLong(total))
            }))
        }
        Workload::RpcBulk => Box::new(FnServant::new("Store", |_, args| {
            let Value::Sequence(blob) = &args[0] else {
                return Err(ServantException::new("Store::BadArgs"));
            };
            Ok(Value::ULong(blob.len() as u32))
        })),
        Workload::FanoutPipelined => Box::new(FnServant::new("Field", |_, args| {
            let Value::LongLong(origin) = args[0] else {
                return Err(ServantException::new("Field::BadArgs"));
            };
            Ok(Value::Sequence(
                float_window(origin)
                    .into_iter()
                    .map(Value::Double)
                    .collect(),
            ))
        })),
        // stateless, so a replacement converges from its admission onward
        Workload::IntrusionHeal => Box::new(FnServant::new("Sensor", |_, args| {
            let Value::LongLong(v) = args[0] else {
                return Err(ServantException::new("Sensor::BadArgs"));
            };
            Ok(Value::LongLong(v * 2))
        })),
    };
    vec![(ObjectKey::from_name(object_name(workload)), servant)]
}

fn object_name(workload: Workload) -> &'static str {
    match workload {
        Workload::RpcSmall => "counter",
        Workload::RpcBulk => "store",
        Workload::FanoutPipelined => "field",
        Workload::IntrusionHeal => "sensor",
    }
}

/// Builds the workload's `System`. `forensic` turns obs on for tracing.
fn build(workload: Workload, forensic: bool) -> System {
    let mut builder = SystemBuilder::new(deployment_seed(workload));
    builder.repository(repository());
    builder.add_domain(DOMAIN, workload.f(), Box::new(move |_| servants(workload)));
    builder.platforms(DOMAIN, PlatformProfile::ALL.to_vec());
    for &client in workload.clients() {
        builder.add_client(client);
    }
    if forensic || workload.obs_in_workload() {
        builder.obs(ObsConfig::forensic());
    }
    match workload {
        Workload::FanoutPipelined => {
            builder.batching(8, 16);
            builder.client_pipeline(PIPELINE);
            // two platform lanes may sit up to one tolerance on either side
            builder.comparator("Field", Comparator::InexactRel(2.0 * FLOAT_TOLERANCE));
        }
        Workload::IntrusionHeal => {
            builder.healing(HealConfig {
                expel_below: 45,
                rejuvenation_period_us: Some(REJUVENATION_PERIOD_US),
                decay_window_us: Some(DECAY_WINDOW_US),
                max_rounds: 8,
            });
            builder.settle_budget(HEAL_SETTLE_BUDGET);
        }
        Workload::RpcSmall | Workload::RpcBulk => {}
    }
    if !workload.obs_in_workload() {
        // the streaming audit only runs inside settle(), which these
        // workloads never call; keep its tap from buffering events
        builder.streaming_audit(false);
    }
    builder.build()
}

// ------------------------------------------------------------------- calls

/// What a call's decided result must be.
#[derive(Debug, Clone)]
enum Expect {
    Sum(i64),
    Len(u32),
    Window(i64),
    Doubled(i64),
}

impl Expect {
    fn holds(&self, result: &Result<Value, String>) -> bool {
        match (self, result) {
            (Expect::Sum(want), Ok(Value::LongLong(got))) => got == want,
            (Expect::Len(want), Ok(Value::ULong(got))) => got == want,
            (Expect::Doubled(v), Ok(Value::LongLong(got))) => *got == v * 2,
            (Expect::Window(origin), Ok(Value::Sequence(got))) => {
                let want = float_window(*origin);
                got.len() == want.len()
                    && got.iter().zip(&want).all(|(g, w)| match g {
                        Value::Double(g) => (g - w).abs() <= FLOAT_TOLERANCE * w.abs(),
                        _ => false,
                    })
            }
            _ => false,
        }
    }
}

/// The seeded call generator. Inputs depend only on the seed and the
/// call's position in its client's stream.
struct Schedule {
    workload: Workload,
    rng: SmallRng,
    sums: BTreeMap<u64, i64>,
    /// `rpc_bulk` blob sizes still to send, one per call of the episode.
    sizes: Vec<usize>,
}

impl Schedule {
    fn new(workload: Workload, seed: u64) -> Schedule {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_CA11);
        let sizes = if workload == Workload::RpcBulk {
            // one size from each of `calls` equal strata of 1..=BULK_MAX,
            // shuffled: every seed moves the same bytes, in another order
            let calls = workload.measured_calls();
            let mut sizes: Vec<usize> = (0..calls)
                .map(|k| 1 + (k * BULK_MAX + rng.gen_range(0..BULK_MAX)) / calls)
                .collect();
            for i in (1..calls).rev() {
                sizes.swap(i, rng.gen_range(0..=i));
            }
            // the cold call, sent first, has a fixed size so that set-up
            // time does not depend on the seed
            sizes.push(BULK_MAX / 2);
            sizes
        } else {
            Vec::new()
        };
        Schedule {
            workload,
            rng,
            sums: BTreeMap::new(),
            sizes,
        }
    }

    fn next(&mut self, client: u64) -> (Invocation, Expect) {
        let base = Invocation::of(DOMAIN).object(object_name(self.workload).as_bytes());
        match self.workload {
            Workload::RpcSmall => {
                let delta = self.rng.gen_range(1..=1000u64) as i64;
                let sum = self.sums.entry(client).or_insert(0);
                *sum += delta;
                let inv = base
                    .interface("Counter")
                    .operation("add")
                    .arg(Value::LongLong(delta));
                (inv, Expect::Sum(*sum))
            }
            Workload::RpcBulk => {
                let len = self.sizes.pop().expect("one size per scheduled call");
                let mut blob = vec![0u8; len];
                self.rng.fill(&mut blob);
                let inv = base
                    .interface("Store")
                    .operation("put")
                    .arg(Value::Sequence(
                        blob.into_iter().map(Value::Octet).collect(),
                    ));
                (inv, Expect::Len(len as u32))
            }
            Workload::FanoutPipelined => {
                let origin = self.rng.gen_range(0..1_000_000u64) as i64;
                let inv = base
                    .interface("Field")
                    .operation("window")
                    .arg(Value::LongLong(origin));
                (inv, Expect::Window(origin))
            }
            Workload::IntrusionHeal => {
                let sample = self.rng.gen_range(0..1_000_000u64) as i64;
                let inv = base
                    .interface("Sensor")
                    .operation("echo")
                    .arg(Value::LongLong(sample));
                (inv, Expect::Doubled(sample))
            }
        }
    }
}

/// The intrusion each wave plants: `heal.rs`'s, which the streaming
/// auditor detects and the controller expels. With it the seed-commit
/// campaign survives 8 of its 16 waves, so expulsion, replacement,
/// rekeying and state transfer all run several times before liveness is
/// lost. The other behaviours are not drawn per wave: at the seed commit
/// `CorruptValue` and `Intermittent` lose liveness in the first wave and
/// `Slow` in the third, so a seed-drawn mix would make the campaign's
/// length, and with it every metric, a function of the seed.
const INTRUSION: Behavior = Behavior::Silent;

// ----------------------------------------------------------------- episode

/// Network totals at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// Messages sent.
    pub messages: u64,
    /// Bytes sent.
    pub bytes: u64,
    /// Messages per simnet label.
    pub by_label: BTreeMap<&'static str, u64>,
}

impl NetSnapshot {
    fn of(system: &System) -> NetSnapshot {
        let stats = system.sim.stats();
        NetSnapshot {
            messages: stats.total.messages,
            bytes: stats.total.bytes,
            by_label: stats
                .by_label
                .iter()
                .map(|(&label, c)| (label, c.messages))
                .collect(),
        }
    }
}

/// Obs registry counters by (name, rendered labels); histograms appear
/// as `<name>.count` and `<name>.sum`, and the flight recorder's total as
/// `obs.flight_recorded`.
pub type Counters = BTreeMap<(String, String), u64>;

fn counters(system: &System) -> Counters {
    let mut out = system
        .obs
        .with_registry(|reg| {
            let labels = |k: &itdos_obs::SeriesKey| format!("{:?}", k.labels);
            let mut out: Counters = reg
                .counters()
                .map(|(k, v)| ((k.name.to_string(), labels(k)), v))
                .collect();
            for (k, h) in reg.histograms() {
                out.insert((format!("{}.count", k.name), labels(k)), h.count());
                out.insert((format!("{}.sum", k.name), labels(k)), h.sum());
            }
            out
        })
        .unwrap_or_default();
    if let Some(recorded) = system.obs.with_flight(|f| f.total_recorded()) {
        out.insert(("obs.flight_recorded".into(), String::new()), recorded);
    }
    out
}

/// One episode's measurements.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// Wall seconds from `SystemBuilder::new` until every client's cold
    /// call is decided.
    pub setup_s: f64,
    /// Wall seconds of the measured window.
    pub window_s: f64,
    /// Wall ns from `invoke_async` to decision, per decided measured call.
    pub wall_ns: Vec<u64>,
    /// The same span in simulated µs.
    pub sim_us: Vec<u64>,
    /// Calls scheduled, cold calls included.
    pub attempted: u64,
    /// Calls not decided with the expected value.
    pub failed: u64,
    /// Of those, calls decided with a wrong value.
    pub wrong: u64,
    /// Calls decided (correct or not) in the measured window.
    pub decided: u64,
    /// Longest sim-time gap in the measured window with a call outstanding
    /// and none decided.
    pub unserved_sim_us: u64,
    /// Sim µs to full strength: per recovered compromise in
    /// `intrusion_heal`; from start to the last cold call elsewhere.
    pub recover_sim_us: Vec<u64>,
    /// Simulator steps in the measured window.
    pub steps: u64,
    /// Network totals when the measured window opened and closed.
    pub net_start: NetSnapshot,
    /// See `net_start`.
    pub net_end: NetSnapshot,
    /// Messages sent during the first and the last tenth of the window's
    /// decided calls.
    pub msgs_first_tenth: u64,
    /// See `msgs_first_tenth`.
    pub msgs_last_tenth: u64,
    /// Decided calls in each of those tenths.
    pub calls_per_tenth: u64,
    /// `try_settle` calls made, and their total wall ns.
    pub settles: u64,
    /// See `settles`.
    pub settle_ns: u64,
    /// Wall ns spent in `invoke_async` during the window.
    pub submit_ns: u64,
    /// Healing controller counters at the end.
    pub heal: itdos::HealStats,
    /// Obs registry counters when the window opened and closed (empty
    /// with obs off), keyed by name and rendered labels.
    pub counters_start: Counters,
    /// See `counters_start`.
    pub counters_end: Counters,
    /// Simulated µs at the end of the episode.
    pub end_sim_us: u64,
}

impl Episode {
    /// Every sim-time figure and count the seed alone determines, as one
    /// comparable string.
    pub fn fingerprint(&self) -> String {
        format!(
            "sim_us={:?} attempted={} failed={} wrong={} decided={} unserved={} recover={:?} \
             steps={} net={:?}/{:?} tenths={}/{}/{} settles={} heal={:?} end={}",
            self.sim_us,
            self.attempted,
            self.failed,
            self.wrong,
            self.decided,
            self.unserved_sim_us,
            self.recover_sim_us,
            self.steps,
            self.net_start,
            self.net_end,
            self.msgs_first_tenth,
            self.msgs_last_tenth,
            self.calls_per_tenth,
            self.settles,
            self.heal,
            self.end_sim_us,
        )
    }
}

/// An outstanding call.
struct InFlight {
    id: u64,
    expect: Expect,
    wall: Instant,
    sim_us: u64,
}

/// The closed load loop over one `System`.
struct ClosedLoop<'a> {
    system: System,
    schedule: Schedule,
    clients: &'static [u64],
    window: usize,
    /// Per client: calls issued but not yet decided, oldest first.
    inflight: BTreeMap<u64, VecDeque<InFlight>>,
    /// Per client: completions already consumed.
    consumed: BTreeMap<u64, usize>,
    next_id: u64,
    spans: Option<&'a mut Spans>,
    ep: Episode,
    measuring: bool,
    /// Sim µs of the last decision (or of the window's start).
    last_progress_us: u64,
    /// Messages sent when each measured call was decided.
    msgs_at_decision: Vec<u64>,
    /// Whether a client queues the calls it is handed and sends each when
    /// the previous is decided; a call's latency then starts at the later
    /// of its hand-over and that decision.
    queued: bool,
    /// Per client: wall and sim µs of the last decision.
    last_decided: BTreeMap<u64, (Instant, u64)>,
}

impl<'a> ClosedLoop<'a> {
    fn issue(&mut self, client: u64) {
        let (invocation, expect) = self.schedule.next(client);
        self.next_id += 1;
        let id = self.next_id;
        let sim_us = self.system.sim.now().as_micros();
        let wall = Instant::now();
        self.system.invoke_async(client, invocation);
        let issued = Instant::now();
        if self.measuring {
            self.ep.submit_ns += (issued - wall).as_nanos() as u64;
        }
        if let Some(spans) = self.spans.as_deref_mut() {
            spans.record("core.invoke_async", wall, issued, id);
        }
        self.ep.attempted += 1;
        self.inflight
            .entry(client)
            .or_default()
            .push_back(InFlight {
                id,
                expect,
                wall,
                sim_us,
            });
    }

    fn outstanding(&self) -> usize {
        self.inflight.values().map(VecDeque::len).sum()
    }

    /// The in-flight call a step is charged to: the oldest outstanding.
    fn current_call(&self) -> u64 {
        self.inflight
            .values()
            .filter_map(|q| q.front().map(|c| c.id))
            .min()
            .unwrap_or(0)
    }

    /// Consumes newly decided results; returns how many were decided.
    fn harvest(&mut self) -> usize {
        let mut decided = 0;
        for &client in self.clients {
            let done = self.system.client(client).completed.len();
            let consumed = self.consumed.entry(client).or_insert(0);
            while *consumed < done {
                let result = &self.system.client(client).completed[*consumed].result;
                *consumed += 1;
                let call = self
                    .inflight
                    .get_mut(&client)
                    .and_then(VecDeque::pop_front)
                    .expect("a completion answers an outstanding call");
                let now_us = self.system.sim.now().as_micros();
                let (mut wall, mut sim_us) = (call.wall, call.sim_us);
                if self.queued {
                    if let Some(&(w, s)) = self.last_decided.get(&client) {
                        wall = wall.max(w);
                        sim_us = sim_us.max(s);
                    }
                }
                let decided_at = Instant::now();
                self.last_decided.insert(client, (decided_at, now_us));
                if !call.expect.holds(result) {
                    self.ep.failed += 1;
                    self.ep.wrong += 1;
                }
                decided += 1;
                if self.measuring {
                    self.ep.decided += 1;
                    self.ep.wall_ns.push((decided_at - wall).as_nanos() as u64);
                    self.ep.sim_us.push(now_us - sim_us);
                    self.ep.unserved_sim_us = self
                        .ep
                        .unserved_sim_us
                        .max(now_us - self.last_progress_us.max(sim_us));
                    self.msgs_at_decision
                        .push(self.system.sim.stats().total.messages);
                }
                self.last_progress_us = now_us;
            }
        }
        decided
    }

    /// Steps until `quota` more calls per client have been issued and
    /// every issued call is decided. Returns false when liveness is lost:
    /// the outstanding calls and the rest of the quota count as failed.
    fn run_calls(&mut self, quota: usize) -> bool {
        let mut left: BTreeMap<u64, usize> = self.clients.iter().map(|&c| (c, quota)).collect();
        let mut idle_steps = 0u64;
        loop {
            for &client in self.clients {
                while left[&client] > 0
                    && self.inflight.get(&client).map_or(0, VecDeque::len) < self.window
                {
                    self.issue(client);
                    *left.get_mut(&client).expect("client has a quota") -= 1;
                }
            }
            if self.outstanding() == 0 {
                return true;
            }
            let parent = self.current_call();
            let t0 = Instant::now();
            let progressed = self.system.sim.step();
            if let Some(spans) = self.spans.as_deref_mut() {
                spans.record("simnet.step", t0, Instant::now(), parent);
            }
            if self.measuring {
                self.ep.steps += 1;
            }
            if self.harvest() > 0 {
                idle_steps = 0;
            } else {
                idle_steps += 1;
            }
            let stalled = idle_steps >= STALL_STEPS
                || self.system.sim.now().as_micros() - self.last_progress_us >= STALL_SIM_US;
            if !progressed || stalled {
                let unscheduled: usize = left.values().sum();
                self.ep.failed += (self.outstanding() + unscheduled) as u64;
                self.ep.attempted += unscheduled as u64;
                if self.measuring {
                    let now_us = self.system.sim.now().as_micros();
                    self.ep.unserved_sim_us =
                        self.ep.unserved_sim_us.max(now_us - self.last_progress_us);
                }
                self.inflight.clear();
                return false;
            }
        }
    }

    fn try_settle(&mut self) -> bool {
        let parent = self.next_id;
        let t0 = Instant::now();
        let ok = self.system.try_settle().is_ok();
        let t1 = Instant::now();
        if let Some(spans) = self.spans.as_deref_mut() {
            spans.record("core.try_settle", t0, t1, parent);
        }
        self.ep.settles += 1;
        self.ep.settle_ns += (t1 - t0).as_nanos() as u64;
        ok
    }

    fn open_window(&mut self) {
        self.measuring = true;
        self.last_progress_us = self.system.sim.now().as_micros();
        self.ep.net_start = NetSnapshot::of(&self.system);
        self.ep.counters_start = counters(&self.system);
    }

    fn close_window(&mut self) {
        self.measuring = false;
        self.ep.net_end = NetSnapshot::of(&self.system);
        self.ep.counters_end = counters(&self.system);
        let calls = self.msgs_at_decision.len();
        let tenth = calls / 10;
        if tenth > 0 {
            let at = |i: usize| self.msgs_at_decision[i];
            self.ep.msgs_first_tenth = at(tenth - 1) - self.ep.net_start.messages;
            self.ep.msgs_last_tenth = at(calls - 1) - at(calls - 1 - tenth);
            self.ep.calls_per_tenth = tenth as u64;
        }
    }
}

/// Builds the system and runs every client's cold call, timing both as
/// the episode's `setup_s`. Returns whether the cold calls succeeded.
fn set_up<'a>(
    workload: Workload,
    seed: u64,
    spans: Option<&'a mut Spans>,
) -> (ClosedLoop<'a>, Campaign, bool) {
    let forensic = spans.is_some();
    let setup = Instant::now();
    let system = build(workload, forensic);
    let mut d = ClosedLoop {
        system,
        schedule: Schedule::new(workload, seed),
        clients: workload.clients(),
        window: workload.window(),
        inflight: BTreeMap::new(),
        consumed: BTreeMap::new(),
        next_id: 0,
        spans,
        ep: Episode::default(),
        measuring: false,
        last_progress_us: 0,
        msgs_at_decision: Vec::new(),
        queued: workload == Workload::IntrusionHeal,
        last_decided: BTreeMap::new(),
    };
    let mut campaign = Campaign::default();
    if workload == Workload::IntrusionHeal {
        // compromising a slot only after the connection is open makes the
        // seed-commit controller lose liveness in the second wave, so the
        // first intrusion lands before the cold call, as in `heal.rs`
        campaign.compromise(&mut d, 0);
    }
    // cold calls: the Figure-3 open and threshold keying happen here
    let cold_ok = d.run_calls(1);
    d.ep.setup_s = setup.elapsed().as_secs_f64();
    (d, campaign, cold_ok)
}

/// Wall seconds of one set-up alone (see `Episode::setup_s`).
pub fn measure_setup(workload: Workload, seed: u64) -> f64 {
    set_up(workload, seed, None).0.ep.setup_s
}

/// Runs one episode of `workload` from `seed`. With `spans`, obs runs
/// under `ObsConfig::forensic` and the loop records its spans there.
/// Returns the episode and the system it ran on.
pub fn run_episode(workload: Workload, seed: u64, spans: Option<&mut Spans>) -> (Episode, System) {
    let (mut d, mut campaign, cold_ok) = set_up(workload, seed, spans);
    if workload != Workload::IntrusionHeal {
        d.ep.recover_sim_us.push(d.system.sim.now().as_micros());
    }
    let window = Instant::now();
    d.open_window();
    if cold_ok {
        match workload {
            Workload::IntrusionHeal => intrusion_waves(&mut d, &mut campaign),
            _ => {
                d.run_calls(workload.measured_calls());
            }
        }
    } else {
        let rest = (workload.measured_calls() * d.clients.len()) as u64;
        d.ep.attempted += rest;
        d.ep.failed += rest;
    }
    d.close_window();
    d.ep.window_s = window.elapsed().as_secs_f64();
    d.ep.heal = d.system.heal_stats();
    d.ep.end_sim_us = d.system.sim.now().as_micros();
    (d.ep, d.system)
}

/// `intrusion_heal`'s campaign state: compromises not yet recovered,
/// and how far the flight recorder has been read.
#[derive(Default)]
struct Campaign {
    /// (compromised at sim µs, element), oldest first.
    open: Vec<(u64, u64)>,
    /// Element → sim µs of its `heal.replace`.
    replaced: BTreeMap<u64, u64>,
    next_seq: u64,
}

impl Campaign {
    /// Silences the current occupant of wave `wave`'s slot.
    fn compromise(&mut self, d: &mut ClosedLoop<'_>, wave: usize) {
        let slot = wave % (3 * Workload::IntrusionHeal.f() + 1);
        let spec = d.system.fabric.domain(DOMAIN);
        let (victim, node) = (spec.elements[slot], spec.nodes[slot]);
        d.system
            .sim
            .fault_ledger_mut()
            .mark(u64::from(victim.0), INTRUSION.kind());
        d.system
            .sim
            .process_mut::<ServerElement>(node)
            .set_behavior(INTRUSION);
        let at = d.system.sim.now().as_micros();
        self.open.push((at, u64::from(victim.0)));
        d.last_progress_us = at;
    }

    /// Reads the flight events since the last call: a compromise counts as
    /// recovered when its element was replaced and a replacement onboarded
    /// afterwards.
    fn observe(&mut self, d: &mut ClosedLoop<'_>) {
        let next_seq = &mut self.next_seq;
        let events: Vec<(&'static str, u64, Option<u64>)> = d
            .system
            .obs
            .with_flight(|f| {
                let fresh = f
                    .events()
                    .filter(|e| e.seq >= *next_seq)
                    .map(|e| (e.kind, e.at_micros, label_u64(e, "element")))
                    .collect();
                *next_seq = f.total_recorded();
                fresh
            })
            .unwrap_or_default();
        for (kind, at, element) in events {
            match (kind, element) {
                ("heal.replace", Some(element)) => {
                    self.replaced.entry(element).or_insert(at);
                }
                ("element.onboarded", _) => {
                    let done = self.open.iter().position(|(since, element)| {
                        self.replaced.get(element).is_some_and(|r| r >= since)
                    });
                    if let Some(i) = done {
                        let (since, _) = self.open.remove(i);
                        d.ep.recover_sim_us.push(at - since);
                    }
                }
                _ => {}
            }
        }
    }
}

/// `intrusion_heal` after the cold call: wave 0 (compromised before the
/// cold call, as in `heal.rs`) runs its remaining calls, and every later
/// wave first compromises the current occupant of the next slot. Each
/// wave ends in a `try_settle`, where the healing controller acts.
fn intrusion_waves(d: &mut ClosedLoop<'_>, campaign: &mut Campaign) {
    for wave in 0..HEAL_WAVES {
        let calls = if wave == 0 {
            HEAL_CALLS_PER_WAVE - 1
        } else {
            campaign.compromise(d, wave);
            HEAL_CALLS_PER_WAVE
        };
        let live = d.run_calls(calls) && d.try_settle();
        campaign.observe(d);
        if !live {
            let rest = ((HEAL_WAVES - wave - 1) * HEAL_CALLS_PER_WAVE) as u64;
            d.ep.attempted += rest;
            d.ep.failed += rest;
            return;
        }
    }
}

fn label_u64(event: &itdos_obs::flight::Event, key: &str) -> Option<u64> {
    event.labels.iter().find_map(|(k, v)| match v {
        LabelValue::U64(x) if *k == key => Some(*x),
        _ => None,
    })
}
