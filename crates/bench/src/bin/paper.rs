//! Regenerates every paper artifact as rows (see `wino_bench::paper`),
//! writes them whole to `PAPER_results.json`, prints one table per
//! artifact, and exits nonzero if any row falls outside its accept
//! interval. Takes no options.

use std::path::Path;
use wino_bench::paper::{results, to_ascii, to_json};
use wino_obs::{validate_json, write_atomic};

fn main() {
    let rows = results();
    print!("{}", to_ascii(&rows));
    let json = to_json(&rows);
    validate_json(&json).expect("PAPER_results.json is valid JSON");
    write_atomic(Path::new("PAPER_results.json"), &json).expect("write PAPER_results.json");
    let failed: Vec<_> = rows.iter().filter(|r| !r.passes()).collect();
    println!(
        "wrote PAPER_results.json: {} rows, {} outside their interval",
        rows.len(),
        failed.len()
    );
    for r in &failed {
        eprintln!("FAILED {} / {}: {} not in {:?}", r.artifact, r.row, r.ours, r.accept);
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
