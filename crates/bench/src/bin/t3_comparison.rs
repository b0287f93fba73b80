//! **T3** — comparison against the baselines the paper's introduction
//! cites: ABD (crash-only, reads always two rounds) and the slow-only
//! configuration of the lucky algorithm (fast paths disabled).
//!
//! Expected shape: in the synchronous, contention-free common case the
//! lucky algorithm does every operation in one round-trip; ABD pays two
//! rounds per read; slow-only pays 3 (writes) and 4 (reads). Absolute
//! READ latencies include the lucky round-1 timer (2δ), which is the
//! documented price of tolerating Byzantine servers without
//! authentication; a WRITE's PW phase ends on the ack that decides its
//! outcome, so a lucky WRITE costs one round trip.

use lucky_bench::{mean, print_table};
use lucky_core::{ProtocolConfig, Setup, StoreConfig};
use lucky_types::{Params, RegisterId, Value};

const OPS: u64 = 50;

struct Row {
    system: &'static str,
    wr_rounds: f64,
    wr_lat: f64,
    wr_msgs: f64,
    rd_rounds: f64,
    rd_lat: f64,
    rd_msgs: f64,
}

fn config(setup: Setup, asynchronous: bool, seed: u64) -> StoreConfig {
    if asynchronous { StoreConfig::asynchronous(setup) } else { StoreConfig::synchronous(setup) }
        .with_seed(seed)
}

fn run(system: &'static str, cfg: StoreConfig) -> Row {
    let mut c = cfg.build_sim();
    let (mut wr, mut wl, mut wm, mut rr, mut rl, mut rm) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for i in 1..=OPS {
        let w = c.register(RegisterId::DEFAULT).write(Value::from_u64(i));
        wr.push(w.rounds as u64);
        wl.push(w.latency);
        wm.push(w.msgs);
        let r = c.register(RegisterId::DEFAULT).read(0);
        rr.push(r.rounds as u64);
        rl.push(r.latency);
        rm.push(r.msgs);
    }
    c.check_atomicity().expect("atomicity");
    Row {
        system,
        wr_rounds: mean(&wr),
        wr_lat: mean(&wl),
        wr_msgs: mean(&wm),
        rd_rounds: mean(&rr),
        rd_lat: mean(&rl),
        rd_msgs: mean(&rm),
    }
}

/// The three systems of one table: lucky, slow-only lucky and ABD.
fn rows(t: usize, params: Params, asynchronous: bool, seed: u64) -> Vec<Row> {
    let lucky = config(params.into(), asynchronous, seed);
    vec![
        run("lucky", lucky.clone()),
        run("lucky (slow-only)", lucky.with_protocol(ProtocolConfig::slow_only(100))),
        run("ABD (b=0)", config(Setup::Abd { t }, asynchronous, seed)),
    ]
}

fn fmt(rows: &[Row]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.system.to_string(),
                format!("{:.1}", r.wr_rounds),
                format!("{:.0}", r.wr_lat),
                format!("{:.0}", r.wr_msgs),
                format!("{:.1}", r.rd_rounds),
                format!("{:.0}", r.rd_lat),
                format!("{:.0}", r.rd_msgs),
            ]
        })
        .collect()
}

fn main() {
    println!("# T3 — rounds / latency / messages vs baselines (§1, §6)");
    let t = 2;
    let params = Params::new(t, 1, 1, 0).unwrap();
    let headers = ["system", "wr rounds", "wr µs", "wr msgs", "rd rounds", "rd µs", "rd msgs"];

    print_table(
        &format!(
            "synchronous, failure-free, contention-free (t={t}; lucky: b=1, S=6; ABD: b=0, S=5)"
        ),
        &headers,
        &fmt(&rows(t, params, false, 1)),
    );
    print_table(
        "asynchronous network (delays up to 200δ; timers unchanged)",
        &headers,
        &fmt(&rows(t, params, true, 2)),
    );

    println!(
        "\nReading guide: synchronously, lucky ops are 1 round each vs ABD's 2-round \
         reads and slow-only's 3/4 rounds; note lucky's 1-round ops still tolerate \
         b = 1 Byzantine server, which ABD cannot at any cost. Lucky read latency \
         includes waiting out the 2δ timer (§2.3) — the constant price of the fast \
         path; a lucky write returns on its deciding PW ack, one round trip in. Asynchronously every system degrades to its slow path; the lucky \
         algorithm's extra rounds buy Byzantine tolerance, not speed."
    );
}
