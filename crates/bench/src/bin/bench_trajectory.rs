//! Merge the committed `BENCH_PR*.json` artifacts (one per PR, written by
//! the criterion shim via `DUET_BENCH_JSON`) into a single machine-readable
//! trajectory table: one row per bench name, one column per PR, so a
//! regression across PRs is a one-line diff instead of an N-file hunt. A
//! bench need not appear in every artifact: a row starts at the first PR
//! that measured it and ends at the last (the `*_alloc` rows end where their
//! code path was deleted); the table prints `-` for the gaps.
//!
//! Run from the workspace root with
//! `cargo run -p duet-bench --release --bin bench_trajectory`; pass a
//! directory argument to scan somewhere else. Prints the table and writes
//! `BENCH_TRAJECTORY.json` next to the inputs.
//!
//! The shim's output has a fixed line-per-bench shape (see
//! `crates/compat/criterion`), so the parser here is a small hand-rolled
//! scanner rather than a JSON dependency.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn main() {
    let dir = std::env::args().nth(1).map(PathBuf::from).unwrap_or_else(|| {
        // Default to the workspace root, two levels up from this crate.
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
    });
    let dir = dir.canonicalize().unwrap_or(dir);

    let mut sources: Vec<(u32, PathBuf)> = Vec::new();
    for entry in fs::read_dir(&dir).expect("bench directory is readable") {
        let path = entry.expect("directory entry is readable").path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if let Some(pr) = name
            .strip_prefix("BENCH_PR")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|digits| digits.parse::<u32>().ok())
        {
            sources.push((pr, path));
        }
    }
    sources.sort();
    assert!(!sources.is_empty(), "no BENCH_PR*.json files found in {}", dir.display());

    // bench name -> (pr -> ns/op); BTreeMaps keep the output deterministic.
    let mut table: BTreeMap<String, BTreeMap<u32, f64>> = BTreeMap::new();
    for (pr, path) in &sources {
        let text = fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("failed to read {}: {e}", path.display()));
        for (name, ns_per_op) in parse_benches(&text) {
            table.entry(name).or_default().insert(*pr, ns_per_op);
        }
    }

    // Human-readable table.
    let prs: Vec<u32> = sources.iter().map(|(pr, _)| *pr).collect();
    let name_width = table.keys().map(|n| n.len()).max().unwrap_or(5).max(5);
    print!("{:<name_width$}", "bench");
    for pr in &prs {
        print!("  {:>14}", format!("PR{pr} ns/op"));
    }
    println!();
    for (name, points) in &table {
        print!("{name:<name_width$}");
        for pr in &prs {
            match points.get(pr) {
                Some(ns) => print!("  {ns:>14.1}"),
                None => print!("  {:>14}", "-"),
            }
        }
        println!();
    }

    // Machine-readable artifact.
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"duet-bench-trajectory-v1\",\n  \"unit\": \"ns/op\",\n");
    out.push_str("  \"sources\": [");
    for (i, (pr, _)) in sources.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"BENCH_PR{pr}.json\""));
    }
    out.push_str("],\n  \"benches\": [\n");
    for (i, (name, points)) in table.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!("    {{\"name\": \"{name}\", \"points\": ["));
        for (j, (pr, ns)) in points.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{{\"pr\": {pr}, \"ns_per_op\": {ns:.1}}}"));
        }
        out.push_str("]}");
    }
    out.push_str("\n  ]\n}\n");
    let out_path = dir.join("BENCH_TRAJECTORY.json");
    fs::write(&out_path, out)
        .unwrap_or_else(|e| panic!("failed to write {}: {e}", out_path.display()));
    println!("\nwrote {}", out_path.display());
}

/// Extract `(name, ns_per_op)` pairs from one shim-format bench file.
fn parse_benches(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim_start().strip_prefix("{\"name\": \"") else { continue };
        let Some((name, rest)) = rest.split_once('"') else { continue };
        let Some(rest) = rest.strip_prefix(", \"ns_per_op\": ") else { continue };
        let Some((value, _)) = rest.split_once(',') else { continue };
        let ns: f64 = value.trim().parse().unwrap_or_else(|e| {
            panic!("bench line for {name:?} has a malformed ns_per_op {value:?}: {e}")
        });
        out.push((name.to_string(), ns));
    }
    out
}
