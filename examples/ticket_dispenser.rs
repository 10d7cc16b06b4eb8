//! Ticket dispensing with the §8.2 m-valued fetch-and-increment.
//!
//! A venue has `m` tickets; more than `m` clients race to claim one. The
//! m-valued fetch-and-increment hands out the ticket numbers `0..m-1` exactly
//! once each and then saturates, and the recorded history is verified to be
//! linearizable against the object's sequential specification (Theorem 6).
//!
//! Run with:
//!
//! ```text
//! cargo run --example ticket_dispenser
//! ```

use adaptive_renaming::fetch_increment::FetchIncrementSpec;
use shmem::consistency::check_linearizable;
use shmem::history::Recorder;
use std::collections::BTreeMap;
use std::sync::Arc;
use strong_renaming::prelude::*;

fn main() {
    let tickets = 12u64;
    let clients = 20usize;

    let dispenser = Arc::new(BoundedFetchIncrement::new(tickets));
    let recorder: Arc<Recorder<(), u64>> = Arc::new(Recorder::new());

    let outcome = VirtualExecutor::new(ExecConfig::new(11))
        .run(clients, {
            let dispenser = Arc::clone(&dispenser);
            let recorder = Arc::clone(&recorder);
            move |ctx| {
                let invoke = recorder.invoke();
                let ticket = dispenser.fetch_and_increment(ctx);
                recorder.record(ctx.id(), (), ticket, invoke);
                ticket
            }
        })
        .outcome;

    let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
    for ticket in outcome.results() {
        *counts.entry(ticket).or_default() += 1;
    }
    println!("{clients} clients raced for {tickets} tickets:");
    for (ticket, holders) in &counts {
        if *ticket == tickets - 1 {
            println!("  ticket {ticket}: {holders} clients (the saturation value — sold out)");
        } else {
            println!("  ticket {ticket}: {holders} client(s)");
        }
    }

    // Tickets 0..m-2 are handed out exactly once; the rest of the clients all
    // see the saturation value m-1.
    for ticket in 0..tickets - 1 {
        assert_eq!(
            counts.get(&ticket).copied().unwrap_or(0),
            1,
            "ticket {ticket}"
        );
    }
    assert_eq!(
        counts.get(&(tickets - 1)).copied().unwrap_or(0),
        clients - (tickets as usize - 1)
    );

    let history = recorder.take_history();
    match check_linearizable(&FetchIncrementSpec { limit: tickets }, &history) {
        Ok(order) => println!(
            "\nThe recorded history of {} operations is linearizable (witness order of length {}).",
            history.len(),
            order.len()
        ),
        Err(violation) => panic!("linearizability violation: {violation}"),
    }
}
