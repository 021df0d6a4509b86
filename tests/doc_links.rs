//! Markdown link checker: every relative link in the repository's
//! documentation must resolve to a file that exists, so doc
//! cross-references (README → DESIGN → EXPERIMENTS → ARCHITECTURE)
//! cannot dangle again. External (`http...`) and intra-page (`#...`)
//! links are out of scope — the build environment is offline and
//! anchors are renderer-specific.

use std::path::{Path, PathBuf};

/// The documentation spine whose cross-references are pinned. Each
/// file must both exist and contain only resolvable relative links.
const CHECKED: [&str; 6] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/ARCHITECTURE.md",
    "ROADMAP.md",
    "CHANGES.md",
];

/// Extracts `(link text, target)` pairs from inline markdown links,
/// skipping images and code spans well enough for these hand-written
/// docs (no reference-style links are in use).
fn inline_links(markdown: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let bytes = markdown.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'[' {
            if let Some(close) = markdown[i..].find("](") {
                let rest = &markdown[i + close + 2..];
                if let Some(end) = rest.find(')') {
                    targets.push(rest[..end].trim().to_owned());
                    i += close + 2 + end;
                    continue;
                }
            }
        }
        i += 1;
    }
    targets
}

#[test]
fn every_relative_doc_link_resolves() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut broken = Vec::new();
    for doc in CHECKED {
        let path = root.join(doc);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{doc} must exist and be readable: {e}"));
        let base = path.parent().unwrap_or(Path::new("")).to_path_buf();
        for target in inline_links(&text) {
            // External links, mailto, and pure anchors are out of scope.
            if target.starts_with("http")
                || target.starts_with("mailto:")
                || target.starts_with('#')
            {
                continue;
            }
            let file_part = target.split('#').next().unwrap_or("");
            if file_part.is_empty() {
                continue;
            }
            if !base.join(file_part).exists() {
                broken.push(format!("{doc}: ({target})"));
            }
        }
    }
    assert!(broken.is_empty(), "dangling documentation links:\n{}", broken.join("\n"));
}

#[test]
fn the_documentation_spine_cross_references_itself() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &str| std::fs::read_to_string(root.join(p)).expect(p);
    // README links the architecture map and the experiment book…
    let readme = read("README.md");
    assert!(readme.contains("docs/ARCHITECTURE.md"), "README must link the crate map");
    assert!(readme.contains("EXPERIMENTS.md"), "README must link the experiment book");
    // …DESIGN links the architecture map…
    assert!(read("DESIGN.md").contains("docs/ARCHITECTURE.md"), "DESIGN must link the crate map");
    // …and the architecture map links back to both.
    let arch = read("docs/ARCHITECTURE.md");
    assert!(arch.contains("../DESIGN.md") && arch.contains("../EXPERIMENTS.md"));
    // The quantization and serving studies are documented where
    // EXPERIMENTS promises.
    let experiments = read("EXPERIMENTS.md");
    assert!(experiments.contains("BENCH_quant.json"));
    assert!(experiments.contains("BENCH_serve.json"));
    // The serving subsystem is on the architecture map.
    assert!(arch.contains("wino-serve"), "ARCHITECTURE must map the serve crate");
    // The SLO study and the storm's trace artifacts are documented:
    // CI uploads them, so the experiment book must say what they are.
    assert!(experiments.contains("\"slo\""), "EXPERIMENTS must document the slo section");
    assert!(experiments.contains("STORM_trace.json"), "EXPERIMENTS must document STORM_trace.json");
    assert!(
        experiments.contains("STORM_flight.json"),
        "EXPERIMENTS must document STORM_flight.json"
    );
    // The request-trace vocabulary and black box are on the map.
    assert!(arch.contains("TraceIndex"), "ARCHITECTURE must describe request tracing");
    assert!(arch.contains("FlightRecorder"), "ARCHITECTURE must describe the black box");
    assert!(arch.contains("SloEngine"), "ARCHITECTURE must describe the SLO engine");
    // The pluggable backend layer and the FFT engine are on the map…
    assert!(arch.contains("ConvBackend"), "ARCHITECTURE must describe the backend trait");
    assert!(arch.contains("PreparedFft"), "ARCHITECTURE must describe the FFT backend");
    // …and the algorithm crossover study is in the experiment book.
    assert!(
        experiments.contains("\"algorithms\""),
        "EXPERIMENTS must document the algorithms section of BENCH_exec.json"
    );
    assert!(
        experiments.contains("Algorithm crossover study"),
        "EXPERIMENTS must document the crossover study"
    );
}

#[test]
fn every_bench_binary_is_documented_in_experiments() {
    // EXPERIMENTS.md is the experiment book: a bench binary nobody can
    // find the command for might as well not exist. Every file in
    // crates/bench/src/bin must be mentioned by name.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let experiments = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let bin_dir = root.join("crates/bench/src/bin");
    let mut missing = Vec::new();
    for entry in std::fs::read_dir(&bin_dir).expect("bench bin dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let name = path.file_stem().expect("stem").to_string_lossy().to_string();
            if !experiments.contains(&name) {
                missing.push(name);
            }
        }
    }
    missing.sort();
    assert!(
        missing.is_empty(),
        "bench binaries undocumented in EXPERIMENTS.md: {}",
        missing.join(", ")
    );
}

#[test]
fn every_documented_run_command_names_an_existing_entry_point() {
    // A deleted or renamed binary or example must not live on in a doc's
    // `cargo run` line. The skill file's `__probe` is a throwaway example
    // that its readers create and delete again.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let docs = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md"];
    let mut stale = Vec::new();
    for doc in docs.into_iter().chain([".claude/skills/verify/SKILL.md"]) {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for line in text.lines().filter(|l| l.contains("cargo run")) {
            let words: Vec<&str> = line.split_whitespace().collect();
            for pair in words.windows(2) {
                if !matches!(pair[0], "--bin" | "--example") {
                    continue;
                }
                let dir = if pair[0] == "--bin" { "crates/bench/src/bin" } else { "examples" };
                let name =
                    pair[1].trim_matches(|c: char| !(c.is_alphanumeric() || "_$".contains(c)));
                let file = root.join(dir).join(format!("{name}.rs"));
                if !(name.starts_with('$') || name == "__probe" || file.exists()) {
                    stale.push(format!("{doc}: {} {name}", pair[0]));
                }
            }
        }
    }
    assert!(stale.is_empty(), "commands naming no binary or example:\n{}", stale.join("\n"));
}
