//! Seeded mutation fuzzing of every parser that reads outside input:
//! the sweep service's JSON reader and request parser, the
//! `SNOC_FAULTS` fault-plan parser and the cell-cache decoder.
//!
//! A corpus of valid inputs is mutated with [`SimRng`] — bit flips,
//! byte replacements, truncation, insertion of bytes and syntax
//! tokens, and duplication of slices — and every mutant is fed to its
//! parser. The property: every call returns (with `Ok` or `Err`), and
//! none panics. A panicking input is shrunk to a minimal one before
//! the test fails, so the failure message is the regression case.
//! Cell-cache mutants are half the time re-sealed with a fresh
//! checksum, so the mutation reaches the field decoder behind the
//! checksum check.

use std::panic::{catch_unwind, AssertUnwindSafe};
use sttram_noc_repro::common::fingerprint::{fnv1a_64, Fingerprint, StableHasher};
use sttram_noc_repro::common::rng::SimRng;
use sttram_noc_repro::common::stats::Histogram;
use sttram_noc_repro::energy::EnergyBreakdown;
use sttram_noc_repro::noc::FaultPlan;
use sttram_noc_repro::sim::cellcache::{decode_metrics, encode_metrics};
use sttram_noc_repro::sim::serve::json::Json;
use sttram_noc_repro::sim::serve::protocol::parse_request;
use sttram_noc_repro::sim::RunMetrics;

/// Mutants per corpus entry.
const ROUNDS: usize = 400;

/// Bytes that steer the parsers into their less travelled paths.
const TOKENS: [&[u8]; 22] = [
    b"\"",
    b"\\",
    b"{",
    b"}",
    b"[",
    b"]",
    b",",
    b":",
    b"=",
    b" ",
    b"\n",
    b"-",
    b".",
    b"e",
    b"\\u",
    b"\\ud800",
    b"1e999",
    b"null",
    b"0x",
    b"\xc3\xa9",
    b"\xff",
    b"checksum ",
];

fn mutate(rng: &mut SimRng, input: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(out.len() + 1);
        match rng.below(6) {
            0 if at < out.len() => out[at] ^= 1 << rng.below(8),
            1 if at < out.len() => out[at] = (rng.bits() & 0xff) as u8,
            2 => out.truncate(at),
            3 => {
                let token = TOKENS[rng.below(TOKENS.len())];
                out.splice(at..at, token.iter().copied());
            }
            4 => out.insert(at, (rng.bits() & 0xff) as u8),
            _ if !out.is_empty() => {
                let from = rng.below(out.len());
                let len = 1 + rng.below((out.len() - from).min(32));
                let slice = out[from..from + len].to_vec();
                out.splice(at..at, slice);
            }
            _ => {}
        }
    }
    out
}

/// `true` when `parse` panics on `input`.
fn panics(parse: &dyn Fn(&str), input: &[u8]) -> bool {
    let text = String::from_utf8_lossy(input);
    catch_unwind(AssertUnwindSafe(|| parse(&text))).is_err()
}

/// Greedy shrinking: drop chunks of halving size while the input
/// still panics.
fn minimize(parse: &dyn Fn(&str), mut input: Vec<u8>) -> Vec<u8> {
    let mut chunk = input.len().max(1);
    while chunk > 0 {
        let mut at = 0;
        while at < input.len() {
            let mut shorter = input.clone();
            shorter.drain(at..(at + chunk).min(input.len()));
            if panics(parse, &shorter) {
                input = shorter;
            } else {
                at += chunk;
            }
        }
        chunk /= 2;
    }
    input
}

/// Fuzzes `parse` with mutants of every corpus entry.
fn fuzz(name: &str, seed: u64, corpus: &[Vec<u8>], parse: &dyn Fn(&str)) {
    let mut rng = SimRng::for_stream(0xF022, seed);
    for (i, valid) in corpus.iter().enumerate() {
        assert!(!panics(parse, valid), "{name}: corpus entry {i} panics");
        for _ in 0..ROUNDS {
            let mutant = mutate(&mut rng, valid);
            if panics(parse, &mutant) {
                let min = minimize(parse, mutant);
                panic!(
                    "{name} panicked on {:?} (minimized from a mutant of corpus entry {i})",
                    String::from_utf8_lossy(&min)
                );
            }
        }
    }
}

fn corpus(entries: &[&str]) -> Vec<Vec<u8>> {
    entries.iter().map(|e| e.as_bytes().to_vec()).collect()
}

const JSON_CORPUS: [&str; 6] = [
    r#"{"op":"ping"}"#,
    r#"{"op":"submit","wait":true,"cells":[{"label":"ci","scenario":"MRAM-4TSB-WB","app":"sap","warmup":100,"measure":400,"regions":4}]}"#,
    r#"{"op":"submit","experiment":"fig6","scale":"quick"}"#,
    r#"{"op":"status","job":"0123456789abcdef0123456789abcdef"}"#,
    r#"[1, -2.5e3, 0.125, true, false, null, "téxt\n\"q\"\\", {"a": [[], {}]}]"#,
    r#"  {"nested": {"deeper": [1, [2, [3, [4]]]]}, "s": "😀"}  "#,
];

#[test]
fn json_parser_survives_mutation() {
    fuzz("Json::parse", 1, &corpus(&JSON_CORPUS), &|s| {
        let _ = Json::parse(s);
    });
}

#[test]
fn request_parser_survives_mutation() {
    let mut entries = JSON_CORPUS.to_vec();
    entries.extend([
        r#"{"op":"shutdown"}"#,
        r#"{"op":"wait","job":"ffffffffffffffffffffffffffffffff"}"#,
        r#"{"op":"results","job":"00000000000000000000000000000001"}"#,
        r#"{"op":"submit","experiment":"table3","scale":"full","wait":false}"#,
    ]);
    fuzz("parse_request", 2, &corpus(&entries), &|s| {
        let _ = parse_request(s);
    });
}

#[test]
fn fault_plan_parser_survives_mutation() {
    let entries = corpus(&[
        "1",
        "off",
        "seed=7,tsb=0.001,link=2e-4,port=0.0002,bank=5e-4,drop=0.5",
        "outage=64, stuck=2000 ,busy_cap=800,kill_tsb=500",
        "retry_base=128,retry_cap=2048,max_retries=3,expiry=100",
    ]);
    fuzz("FaultPlan::parse", 3, &entries, &|s| {
        let _ = FaultPlan::parse(s);
    });
}

fn sample_metrics() -> RunMetrics {
    let mut hist = Histogram::fig3();
    for v in [5, 20, 40, 70, 100, 140, 200] {
        hist.record(v);
    }
    RunMetrics {
        cycles: 3_500,
        per_core_committed: (0..8).map(|i| 1_000 + 37 * i).collect(),
        net_request_latency: 20.25,
        net_response_latency: 25.125,
        bank_queue_wait: 10.0625,
        bank_service: 5.5,
        uncore_rtt: 61.75,
        uncore_rtt_p95: 123.5,
        bank_reads: 10_000,
        bank_writes: 5_000,
        mem_fetches: 321,
        post_write_gaps: hist,
        delayable_fraction: 0.17,
        child_queue_mean: 3.25,
        queue_mean_by_hops: [1.5, 3.0, 4.5],
        held_packets: 55,
        held_cycles: 550,
        energy: EnergyBreakdown {
            noc_dynamic_nj: 1.0e3,
            noc_leakage_nj: 2.0e3,
            cache_dynamic_nj: 3.0e3,
            cache_leakage_nj: 4.0e3,
        },
        audit: None,
        telemetry: None,
        faults: None,
    }
}

/// Replaces the checksum line of a (mutated) cell document with the
/// checksum of its current body.
fn reseal(text: &str) -> String {
    let body = &text[..text.rfind("checksum ").unwrap_or(text.len())];
    format!("{body}checksum {:016x}\n", fnv1a_64(body.as_bytes()))
}

#[test]
fn cell_decoder_survives_mutation() {
    let mut h = StableHasher::new();
    h.write_str("parser-fuzz");
    let key: Fingerprint = h.finish();
    let doc = encode_metrics(&sample_metrics(), key);
    assert!(decode_metrics(&doc, key).is_ok());
    let mut coin = SimRng::for_stream(0xF022, 40);
    fuzz("decode_metrics", 4, &corpus(&[&doc]), &|s| {
        let _ = decode_metrics(s, key);
        let _ = decode_metrics(&reseal(s), key);
    });
    // Re-sealed mutants must reach the field decoder: at least some
    // are rejected for their content, not their checksum.
    let mut past_checksum = 0;
    for _ in 0..200 {
        let mutant = mutate(&mut coin, doc.as_bytes());
        if let Err(why) = decode_metrics(&reseal(&String::from_utf8_lossy(&mutant)), key) {
            past_checksum += usize::from(!why.contains("checksum"));
        }
    }
    assert!(
        past_checksum > 50,
        "only {past_checksum} mutants got past the checksum"
    );
}
