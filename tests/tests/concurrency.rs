//! Multiple clients and multiple domains sharing the fabric: the total
//! order serializes everyone's requests, per-connection voters keep the
//! streams separate, and state converges.

mod common;

use common::{bank_servant, repo, BANK, PRICER};
use itdos::{Invocation, SystemBuilder};
use itdos_giop::types::Value;
use itdos_orb::object::ObjectKey;

fn deposit(amount: i64) -> Invocation {
    Invocation::of(BANK)
        .object(b"acct")
        .interface("Bank::Account")
        .operation("deposit")
        .arg(Value::LongLong(amount))
}

fn balance() -> Invocation {
    Invocation::of(BANK)
        .object(b"acct")
        .interface("Bank::Account")
        .operation("balance")
}

/// Three clients hammer the same account concurrently; the BFT order
/// serializes them, every client sees a consistent (monotone) balance,
/// and the final total is exact.
#[test]
fn multiple_clients_serialize_on_one_domain() {
    let mut builder = SystemBuilder::new(201);
    builder.repository(repo());
    builder.add_domain(
        BANK,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("acct"), bank_servant())]),
    );
    builder.add_client(1);
    builder.add_client(2);
    builder.add_client(3);
    let mut system = builder.build();

    // interleave submissions without settling in between
    for round in 0..4 {
        for client in 1..=3u64 {
            system.invoke_async(client, deposit(10 + round));
        }
    }
    system.settle();

    // 3 clients × 4 rounds of (10..13) = 3 × 46 = 138
    let expected_total: i64 = 3 * (10 + 11 + 12 + 13);
    for client in 1..=3u64 {
        let completed = &system.client(client).completed;
        assert_eq!(completed.len(), 4, "client {client} finished all rounds");
        // balances seen by one client are strictly increasing (total order)
        let balances: Vec<i64> = completed
            .iter()
            .map(|c| match &c.result {
                Ok(Value::LongLong(v)) => *v,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(
            balances.windows(2).all(|w| w[0] < w[1]),
            "client {client} balances monotone: {balances:?}"
        );
    }
    // the servants on every element agree on the final balance
    let mut check = SystemBuilderProbe(&mut system);
    check.assert_final_balance(expected_total);
}

struct SystemBuilderProbe<'a>(&'a mut itdos::System);

impl SystemBuilderProbe<'_> {
    fn assert_final_balance(&mut self, expected: i64) {
        let done = self.0.invoke(1, balance());
        assert_eq!(done.result, Ok(Value::LongLong(expected)));
    }
}

/// One client talks to two domains over two independent connections; the
/// per-connection request-id spaces and keys do not interfere.
#[test]
fn one_client_two_domains() {
    let mut builder = SystemBuilder::new(202);
    builder.repository(repo());
    builder.add_domain(
        BANK,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("acct"), bank_servant())]),
    );
    builder.add_domain(
        PRICER,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("acct"), bank_servant())]),
    );
    builder.add_client(1);
    let mut system = builder.build();

    let a = system.invoke(1, deposit(100));
    let b = system.invoke(
        1,
        Invocation::of(PRICER)
            .object(b"acct")
            .interface("Bank::Account")
            .operation("deposit")
            .arg(Value::LongLong(7)),
    );
    assert_eq!(a.result, Ok(Value::LongLong(100)));
    assert_eq!(
        b.result,
        Ok(Value::LongLong(7)),
        "independent state per domain"
    );
    let a2 = system.invoke(1, balance());
    assert_eq!(a2.result, Ok(Value::LongLong(100)));
}

/// Clients on different platforms (endianness) interoperate with the same
/// heterogeneous server domain.
#[test]
fn clients_on_different_platforms_interoperate() {
    use itdos_giop::platform::PlatformProfile;
    let mut builder = SystemBuilder::new(203);
    builder.repository(repo());
    builder.add_domain(
        BANK,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("acct"), bank_servant())]),
    );
    builder.platforms(BANK, PlatformProfile::ALL.to_vec());
    builder.add_client_with(1, PlatformProfile::SPARC_SOLARIS, true); // big-endian client
    builder.add_client_with(2, PlatformProfile::X86_LINUX, true); // little-endian client
    let mut system = builder.build();
    let a = system.invoke(1, deposit(1));
    let b = system.invoke(2, deposit(2));
    assert_eq!(a.result, Ok(Value::LongLong(1)));
    assert_eq!(b.result, Ok(Value::LongLong(3)));
}

/// A pipelined client keeps several invocations outstanding at once;
/// replies still come back in submission order and every ticket resolves
/// to the right result.
#[test]
fn pipelined_client_preserves_submission_order() {
    let mut builder = SystemBuilder::new(204);
    builder.repository(repo());
    builder.add_domain(
        BANK,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("acct"), bank_servant())]),
    );
    builder.add_client(1);
    builder.client_pipeline(4);
    let mut system = builder.build();

    let tickets: Vec<_> = (1..=8i64)
        .map(|i| system.invoke_async(1, deposit(i)))
        .collect();
    let done = system.await_all(&tickets);

    // each deposit sees the running total: 1, 3, 6, 10, ...
    let mut running = 0i64;
    for (i, completed) in done.iter().enumerate() {
        running += (i + 1) as i64;
        assert_eq!(
            completed.result,
            Ok(Value::LongLong(running)),
            "ticket {i} resolves in submission order"
        );
    }
    // the completion stream the client saw is the same FIFO order
    let seen: Vec<i64> = system
        .client(1)
        .completed
        .iter()
        .map(|c| match &c.result {
            Ok(Value::LongLong(v)) => *v,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert!(
        seen.windows(2).all(|w| w[0] < w[1]),
        "pipelined balances monotone: {seen:?}"
    );
}

/// Batching at the BFT layer with pipelined clients is invisible to
/// correctness: a batched system and an unbatched system reach the same
/// final state for the same workload.
#[test]
fn batched_and_unbatched_agree_on_final_state() {
    let run = |batched: bool| -> i64 {
        let mut builder = SystemBuilder::new(205);
        builder.repository(repo());
        builder.add_domain(
            BANK,
            1,
            Box::new(|_| vec![(ObjectKey::from_name("acct"), bank_servant())]),
        );
        builder.add_client(1);
        builder.add_client(2);
        builder.client_pipeline(4);
        if batched {
            builder.batching(8, 16);
        } else {
            builder.unbatched();
        }
        let mut system = builder.build();
        for i in 1..=6i64 {
            system.invoke_async(1, deposit(i));
            system.invoke_async(2, deposit(100 * i));
        }
        system.settle();
        match system.invoke(1, balance()).result {
            Ok(Value::LongLong(v)) => v,
            other => panic!("unexpected {other:?}"),
        }
    };
    let expected = (1..=6i64).map(|i| i + 100 * i).sum::<i64>();
    assert_eq!(run(true), expected);
    assert_eq!(run(false), expected);
}

/// A closed-loop client sends each call as soon as the previous one is
/// decided and never settles in between. Its traffic per call must stay
/// flat over the run: the channel keeps one retransmission timer, not one
/// rebroadcast chain per finished call.
#[test]
fn back_to_back_calls_keep_traffic_per_call_flat() {
    const CALLS: usize = 400;
    const WINDOW: usize = 40;
    let mut builder = SystemBuilder::new(206);
    builder.repository(repo());
    builder.add_domain(
        BANK,
        1,
        Box::new(|_| vec![(ObjectKey::from_name("acct"), bank_servant())]),
    );
    builder.add_client(1);
    let mut system = builder.build();
    // the cold call opens the connection; the loop starts from its settle
    assert_eq!(system.invoke(1, deposit(1)).result, Ok(Value::LongLong(1)));

    let mut msgs_at_decision = vec![system.sim.stats().total.messages];
    for i in 0..CALLS {
        system.invoke_async(1, deposit(1));
        let done = system.client(1).completed.len();
        while system.client(1).completed.len() == done {
            assert!(system.sim.step(), "call {i} decided before quiescence");
        }
        msgs_at_decision.push(system.sim.stats().total.messages);
    }
    let balance = &system.client(1).completed.last().expect("decided").result;
    assert_eq!(*balance, Ok(Value::LongLong(1 + CALLS as i64)));

    let first = msgs_at_decision[WINDOW] - msgs_at_decision[0];
    let last = msgs_at_decision[CALLS] - msgs_at_decision[CALLS - WINDOW];
    assert!(
        last as f64 <= 1.1 * first as f64,
        "messages over the last {WINDOW} calls ({last}) exceed 1.1x the first {WINDOW} ({first})"
    );
}
