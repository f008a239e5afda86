//! # itdos-perfbench — wall-clock benchmark of the ITDOS `System`
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload against `itdos::System` from outside, in one
//! single-threaded process in which every ITDOS process is a simnet node,
//! and prints one JSON result line last on stdout. `--trace 0` reports the
//! end-to-end metrics with obs off (except where obs is part of the
//! workload); `--trace 1` spends half the window on the same episodes and
//! half on episodes under `ObsConfig::forensic` with spans, and reports the
//! per-layer metrics. Spans are written to
//! `perfbench/out/spans-<workload>.csv`.
//!
//! ## Workloads, and why each is here
//!
//! All are closed loops: a CORBA client waits for its voted reply, and a
//! wall-clock open-loop schedule means nothing when the system's clock is
//! simulated. No workload has more than 2 simulated clients.
//!
//! - `rpc_small` — 1 client, 1 call outstanding, `Counter.add(long long)`,
//!   f=1 on four heterogeneous platforms. Per-message fixed costs dominate
//!   (MAC authenticators, BFT three-phase handlers, simnet dispatch);
//!   payload crypto is about 1 KB per call, so MAC and handler changes show
//!   and byte-throughput changes do not.
//! - `rpc_bulk` — 1 client, 1 outstanding, `Store.put(sequence<octet>)`
//!   with blob sizes drawn by the seed from 1 B to 32 KiB, f=1. Sealing,
//!   SHA-256 and CDR bytes dominate: the crypto layer in the request
//!   direction (1 seal, n opens).
//! - `fanout_pipelined` — 2 clients × 8 outstanding, `batching(8, 16)`,
//!   f=2 (n=7), a reply-heavy `Field.window` call returning 64 doubles
//!   voted with `InexactRel` across the platforms. The only workload that
//!   forms batches and keeps concurrency in flight; O(n²) agreement,
//!   inexact voting, and the crypto layer in the reply direction (n seals,
//!   at least 2f+1 opens).
//! - `intrusion_heal` — f=1, obs and streaming audit on, healing on, a
//!   stateless servant, 1 client invoking steadily. Each of 16 waves of 12
//!   calls silences the current occupant of a rotating slot (as `heal.rs`
//!   does) and ends in a `try_settle` bounded by `settle_budget`, where
//!   the controller acts.
//!   The only workload in which obs, audit, GM expulsion and admission,
//!   DPRF rekeying and state transfer do real work.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! `setup_s` (median over the run's set-ups, each from `SystemBuilder::new`
//! until every client's cold call is decided), `throughput_ips`,
//! `latency_p50_us`/`latency_p99_us` (wall, `invoke_async` to decision;
//! the median over the run's episodes of each episode's percentile),
//! `sim_latency_p50_us`/`sim_latency_p99_us` (the same span in sim µs:
//! protocol shape, repeats exactly), `ok_frac` (calls decided with the
//! expected value ÷ attempted, i.e. 1 − failed_frac; the failure count
//! itself is the result line's `failed`), `rss_peak_mb`, `recover_sim_us`
//! (`intrusion_heal`: mean sim µs from a compromise to its replacement
//! onboarding; elsewhere sim µs from start to the cold call's decision)
//! and `unserved_sim_us` (longest sim gap with a call outstanding and none
//! decided; in `intrusion_heal` measured from each compromise; a stall
//! counts until it is declared, after 20 sim-s without a decision).
//!
//! ## Which layer metric should move which end-to-end metric
//!
//! | layer metrics | should move | on | ~no change on |
//! |---|---|---|---|
//! | `crypto.seal_ns`, `crypto.open_ns`, `crypto.sha256_ns`, `crypto.*_per_inv`, `crypto.ns_per_inv` | `latency_p50_us`, `throughput_ips` | `rpc_bulk`, `fanout_pipelined` | `rpc_small` |
//! | `crypto.hmac_ns`, `bft.mac_envelope_ns`, `bft.mac_verify_ns`, `bft.wire_*_per_inv.mac` | `latency_p50_us`, `throughput_ips` | `rpc_small`, `fanout_pipelined` | `rpc_bulk` |
//! | `bft.sig_*_ns`, `bft.wire_tx_per_inv.signature`, `bft.checkpoints_per_inv`, `bft.view_changes`, `bft.state_fetches` | `latency_p99_us` (calls crossing a checkpoint, every 16 seqs); wall time on `intrusion_heal` | `rpc_small`, `intrusion_heal` | `rpc_bulk` p50 |
//! | `bft.codec_ns`, `bft.batch_size_mean`, `bft.ns_per_inv` | `throughput_ips`, `sim_latency_p99_us` | `fanout_pipelined` | `rpc_small` (batch is always 1) |
//! | `giop.*` | `latency_p50_us` | `rpc_bulk` (request), `fanout_pipelined` (reply) | `rpc_small` |
//! | `vote.round_ns`, `vote.folds_per_inv`, `vote.divergent`, `vote.ns_per_inv` | `latency_p50_us` | `fanout_pipelined` | `rpc_bulk` |
//! | `simnet.*` | every wall metric; `step_ns` drives `throughput_ips` | `fanout_pipelined`, `rpc_small` | — |
//! | `simnet.msgs_per_inv_growth` (last tenth of the window ÷ first tenth) | `throughput_ips`, `rss_peak_mb` | `rpc_small`, `rpc_bulk`, `fanout_pipelined` | `intrusion_heal` (settles per wave) |
//! | `groupmgr.*` | `setup_s`; wall time on `intrusion_heal` (rekeys) | all (`setup_s`), `intrusion_heal` | steady state of the other three |
//! | `obs.record_ns`, `obs.flight_events_per_inv` | `throughput_ips`, `latency_p50_us` | `intrusion_heal` | the three obs-off workloads |
//! | `audit.*`, `core.heal_*`, `core.settle_ns` | `recover_sim_us`, `unserved_sim_us`, `ok_frac` | `intrusion_heal` | the other three |
//! | `core.submit_ns`, `attributed_frac` | — (coverage check) | all | — |
//!
//! `attributed_frac` is the sum of the layers' `*.ns_per_inv` (and
//! `core.submit_ns`) over the untraced wall ns per decided call; the rest
//! is the core handlers, orb dispatch and simnet itself, which cannot be
//! split from outside. `tracing_overhead_frac` is 1 − traced ÷ untraced
//! throughput. `host.calib_ns` (a fixed pure-CPU loop) and `host.nproc`
//! are for telling host drift from code changes, not for gating.
//!
//! ## Known baseline behaviour (seed commit)
//!
//! - Retransmit growth: under back-to-back load, client→replica
//!   `smiop-submit` traffic grows with uptime, so `rpc_small`'s messages
//!   and wall time per call rise over the episode while its sim latency
//!   stays flat (`simnet.msgs_per_inv_growth` > 1). Settling between calls
//!   hides it; the timed loops therefore never settle.
//! - Healing loses liveness: `intrusion_heal`'s campaign recovers 8 waves
//!   of silenced elements and then stalls, so the calls scheduled after
//!   the loss count as failed and `ok_frac` is 0.5. Compromising the first
//!   slot only after the client's connection is open loses liveness in the
//!   second wave, and a value-corrupting intruder in the first; see
//!   `workload::INTRUSION`.
//!
//! A run repeats episodes — the fixed, seed-drawn call schedule on a fresh
//! system — until `--seconds` have passed, and fails (exit 3, no result)
//! if two episodes of the same seed disagree on any sim-time figure or
//! count. The traced run spends half its window on untraced episodes and
//! half on traced ones, and compares the traced episodes the same way,
//! obs counters included.

mod layers;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::Spans;
use stats::{median, quantile, result_line};
use workload::{run_episode, Episode, Workload};

/// Set-up-only repetitions after each episode; `setup_s` is the median
/// over these and the episodes' own set-ups.
const SETUPS_PER_EPISODE: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |name: &str| flags.get(name).ok_or(format!("missing {name}"));
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// Peak resident memory of this process, in MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// ns per iteration of a fixed pure-CPU loop (for host drift only).
fn host_calibration_ns() -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.rotate_left(7) ^ i).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            }
            std::hint::black_box(x);
            t0.elapsed().as_nanos() as f64 / 1e6
        })
        .collect();
    median(&mut samples)
}

fn nproc() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// Checks that every episode repeats the first one's sim-time figures
/// and counts.
fn deterministic(episodes: &[&Episode]) -> Result<(), String> {
    let first = episodes[0].fingerprint();
    match episodes.iter().position(|e| e.fingerprint() != first) {
        None => Ok(()),
        Some(i) => Err(format!(
            "episode {i} disagrees with episode 0 of the same seed:\n  {first}\n  {}",
            episodes[i].fingerprint()
        )),
    }
}

/// The end-to-end metrics over a run's episodes, `setup_s` aside.
fn end_to_end(episodes: &[&Episode]) -> Metrics {
    let first = episodes[0];
    // a latency percentile is the median over the episodes of each one's
    // percentile, so that a host hiccup during one episode cannot move it
    let latency = |q: f64| {
        let mut per_episode: Vec<f64> = episodes
            .iter()
            .map(|e| {
                let mut us: Vec<f64> = e.wall_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
                quantile(&mut us, q)
            })
            .collect();
        median(&mut per_episode)
    };
    let mut sim_us: Vec<f64> = first.sim_us.iter().map(|&us| us as f64).collect();
    let decided: u64 = episodes.iter().map(|e| e.decided).sum();
    let window_s: f64 = episodes.iter().map(|e| e.window_s).sum();
    let recover = if first.recover_sim_us.is_empty() {
        first.end_sim_us as f64
    } else {
        first.recover_sim_us.iter().sum::<u64>() as f64 / first.recover_sim_us.len() as f64
    };
    let mut m = Metrics::new();
    m.insert("throughput_ips".into(), (decided as f64 / window_s, "1/s"));
    m.insert("latency_p50_us".into(), (latency(0.5), "us"));
    m.insert("latency_p99_us".into(), (latency(0.99), "us"));
    // simulated time is protocol shape, not host speed: it repeats exactly
    m.insert(
        "sim_latency_p50_us".into(),
        (quantile(&mut sim_us, 0.5), "sim_us"),
    );
    m.insert(
        "sim_latency_p99_us".into(),
        (quantile(&mut sim_us, 0.99), "sim_us"),
    );
    m.insert(
        "ok_frac".into(),
        (
            (first.attempted - first.failed) as f64 / first.attempted as f64,
            "fraction",
        ),
    );
    m.insert("rss_peak_mb".into(), (rss_peak_mb(), "MB"));
    m.insert("recover_sim_us".into(), (recover, "sim_us"));
    m.insert(
        "unserved_sim_us".into(),
        (first.unserved_sim_us as f64, "sim_us"),
    );
    m
}

/// Metric name → (value, unit).
type Metrics = BTreeMap<String, (f64, &'static str)>;

/// What a run reports.
struct Outcome {
    /// Every decided call held its expected value.
    correct: bool,
    /// Calls attempted over the run's episodes.
    attempted: u64,
    /// Of those, calls not decided with the expected value.
    failed: u64,
    metrics: Metrics,
}

impl Outcome {
    fn of(episodes: &[&Episode], metrics: Metrics) -> Outcome {
        Outcome {
            correct: episodes.iter().all(|e| e.wrong == 0),
            attempted: episodes.iter().map(|e| e.attempted).sum(),
            failed: episodes.iter().map(|e| e.failed).sum(),
            metrics,
        }
    }
}

/// `--trace 0`: episodes until the window is used up, end-to-end metrics.
fn untraced_run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut episodes = Vec::new();
    let mut setups = Vec::new();
    while episodes.len() < 2 || Instant::now() < deadline {
        let (episode, _) = run_episode(w, args.seed, None);
        setups.push(episode.setup_s);
        episodes.push(episode);
        // set-up takes milliseconds: sample it all through the run
        for _ in 0..SETUPS_PER_EPISODE {
            setups.push(workload::measure_setup(w, args.seed));
        }
    }
    let episodes: Vec<&Episode> = episodes.iter().collect();
    deterministic(&episodes)?;
    let first = episodes[0];
    let samples: usize = episodes.iter().map(|e| e.wall_ns.len()).sum();
    eprintln!(
        "{}: {} episodes, {} latency samples, {} set-ups, msgs/inv growth {:.3}, \
         host.calib_ns {:.3}, nproc {}",
        w.name(),
        episodes.len(),
        samples,
        setups.len(),
        first.msgs_last_tenth as f64 / first.msgs_first_tenth.max(1) as f64,
        host_calibration_ns(),
        nproc()
    );
    let mut metrics = end_to_end(&episodes);
    metrics.insert("setup_s".into(), (median(&mut setups), "s"));
    Ok(Outcome::of(&episodes, metrics))
}

/// `--trace 1`: half the window on untraced episodes, half on traced
/// ones; the first traced episode gives the per-layer figures and spans.
fn traced_run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let start = Instant::now();
    let half = Duration::from_secs(args.seconds) / 2;
    let mut untraced = Vec::new();
    while untraced.is_empty() || start.elapsed() < half {
        untraced.push(run_episode(w, args.seed, None).0);
    }
    let mut spans = Spans::new();
    let (traced, system) = run_episode(w, args.seed, Some(&mut spans));
    let mut replays = Vec::new();
    while replays.is_empty() || start.elapsed() < 2 * half {
        replays.push(run_episode(w, args.seed, Some(&mut Spans::new())).0);
    }
    let mut all: Vec<&Episode> = vec![&traced];
    all.extend(&replays);
    deterministic(&all)?;
    if replays
        .iter()
        .any(|r| r.counters_end != traced.counters_end)
    {
        return Err("two traced episodes of the same seed disagree on obs counters".into());
    }
    let attribution = layers::Attribution {
        workload: w,
        traced: &traced,
        system: &system,
        untraced: &untraced,
    };
    let mut layer = attribution.metrics(&mut spans);
    let throughput = |eps: &[&Episode]| {
        eps.iter().map(|e| e.decided).sum::<u64>() as f64
            / eps.iter().map(|e| e.window_s).sum::<f64>()
    };
    layer.insert(
        "tracing_overhead_frac".into(),
        1.0 - throughput(&all) / throughput(&untraced.iter().collect::<Vec<_>>()),
    );
    layer.insert("host.calib_ns".into(), host_calibration_ns());
    layer.insert("host.nproc".into(), nproc());
    let path = std::path::PathBuf::from(format!("perfbench/out/spans-{}.csv", w.name()));
    spans
        .write_csv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let mut metrics = Metrics::new();
    for (name, unit, _) in layers::METRICS {
        let value = layer
            .remove(name)
            .ok_or(format!("per-layer metric {name} was not computed"))?;
        metrics.insert(name.to_string(), (value, unit));
    }
    if let Some(name) = layer.keys().next() {
        return Err(format!("per-layer metric {name} is missing from the table"));
    }
    Ok(Outcome::of(&all, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced_run(&args)
    } else {
        untraced_run(&args)
    };
    match outcome {
        Ok(o) => {
            println!(
                "{}",
                result_line(o.correct, o.attempted, o.failed, &o.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(3)
        }
    }
}
