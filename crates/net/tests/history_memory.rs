//! How much memory a `NetStore` keeps for the ops it has served.
//!
//! A default (reactor) store serves 64,000 WRITEs of 64 B over 8
//! registers, then the test prints the process's peak RSS (`VmHWM`).
//! The store keeps every op for its history, so the figure grows with
//! ops served; a build with the op log stubbed out shows what is left.
//! It is a measurement, not a check, and ignored by default:
//!
//! ```sh
//! cargo test --release -p lucky-net --test history_memory -- --ignored --nocapture
//! ```
#![cfg(target_os = "linux")]

use lucky_net::{NetConfig, NetStore};
use lucky_types::{Params, RegisterId, Value};

const REGISTERS: u32 = 8;
const WRITES: u64 = 64_000;
const VALUE_BYTES: usize = 64;

/// A `/proc/self/status` field in kB.
fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with(field)).expect("field present");
    line[field.len()..].trim().trim_end_matches("kB").trim().parse().expect("a kB count")
}

/// Write `n` of register `reg` as a distinct 64 B value.
fn value(reg: u32, n: u64) -> Value {
    let mut data = vec![0xA5; VALUE_BYTES];
    data[..4].copy_from_slice(&reg.to_be_bytes());
    data[4..12].copy_from_slice(&n.to_be_bytes());
    Value::from_bytes(data)
}

#[test]
#[ignore = "a measurement: prints peak RSS after 64,000 writes"]
fn peak_rss_after_64k_writes_of_64_bytes_over_8_registers() {
    let params = Params::new(1, 0, 1, 0).unwrap();
    let mut store =
        NetStore::builder(params, NetConfig::default()).registers(REGISTERS as usize).build();
    let handles: Vec<_> =
        (0..REGISTERS).map(|r| store.register(RegisterId(r)).expect("handle")).collect();
    // One WRITE in flight per register: each register's writer
    // serializes its own ops anyway.
    for n in 0..WRITES / u64::from(REGISTERS) {
        let tickets: Vec<_> =
            (0..REGISTERS).map(|r| handles[r as usize].invoke_write(value(r, n))).collect();
        for ticket in tickets {
            ticket.wait().expect("write");
        }
    }
    assert_eq!(store.history_len() as u64, WRITES);
    let hwm = status_kb("VmHWM:");
    println!(
        "VmHWM {:.1} MiB after {WRITES} writes of {VALUE_BYTES} B over {REGISTERS} registers",
        hwm as f64 / 1024.0
    );
    store.shutdown();
}
