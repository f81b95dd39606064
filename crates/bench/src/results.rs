//! The flat JSON codec of the `BENCH_RESULTS.json` snapshots: one object
//! of `{"bench name": median nanoseconds}` pairs, sorted by name.
//!
//! This one file serves two crates. `mercury-bench` reads snapshots with
//! it (`bench_diff`) and merges `loadgen`'s numbers into them; the
//! in-tree criterion shim compiles it in with `#[path]` to record its
//! timed medians, so the shim takes no dependency on the workspace.

use std::collections::BTreeMap;

/// Parses a flat `{"name": nanoseconds, ...}` JSON object, tolerating
/// whitespace and ignoring anything that is not a string-key/integer-value
/// pair. A damaged tail keeps whatever parsed before it, so a snapshot
/// truncated by a killed bench job still yields its completed entries;
/// junk yields an empty map. Bench labels never contain quotes or
/// escapes, so no escape handling is needed (and [`render`] refuses to
/// emit any).
pub fn parse(text: &str) -> BTreeMap<String, u128> {
    let mut map = BTreeMap::new();
    let mut rest = text;
    while let Some(start) = rest.find('"') {
        rest = &rest[start + 1..];
        let Some(end) = rest.find('"') else { break };
        let key = &rest[..end];
        rest = &rest[end + 1..];
        let Some(colon) = rest.find(':') else { break };
        let after = rest[colon + 1..].trim_start();
        let digits: String = after.chars().take_while(|c| c.is_ascii_digit()).collect();
        if !key.is_empty() && !digits.is_empty() {
            if let Ok(v) = digits.parse::<u128>() {
                map.insert(key.to_string(), v);
            }
        }
        rest = &rest[colon + 1..];
    }
    map
}

/// Loads and parses one snapshot file.
///
/// # Errors
///
/// Returns a description when the file cannot be read or holds no
/// entries — the schema mismatch `bench_diff` exits nonzero on.
pub fn load(path: &str) -> Result<BTreeMap<String, u128>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let map = parse(&text);
    if map.is_empty() {
        return Err(format!("{path} holds no `\"name\": nanoseconds` entries"));
    }
    Ok(map)
}

/// Renders a measurement map as a flat, sorted, pretty-printed JSON
/// object. Labels containing `"` or `\` are skipped with a warning on
/// stderr rather than escaped — no benchmark in this workspace produces
/// one.
pub fn render(map: &BTreeMap<String, u128>) -> String {
    let mut out = String::from("{\n");
    let mut first = true;
    for (k, v) in map {
        if k.contains('"') || k.contains('\\') {
            eprintln!("warning: skipping unserializable bench label {k:?}");
            continue;
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!("  \"{k}\": {v}"));
    }
    out.push_str("\n}\n");
    out
}

/// Merges `entries` into the snapshot at `path`, creating the file if
/// absent. Each bench binary and `loadgen` runs as its own process, so
/// merge-on-write (rather than truncate) is what lets one `cargo bench`
/// run, plus `loadgen`, accumulate a single perf snapshot.
///
/// # Errors
///
/// Returns a description when the existing file cannot be read (other
/// than not existing) — the snapshot is then left alone rather than
/// clobbered — or the merged snapshot cannot be written.
pub fn merge_into(path: &str, entries: &BTreeMap<String, u128>) -> Result<(), String> {
    let mut merged = match std::fs::read_to_string(path) {
        Ok(s) => parse(&s),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => BTreeMap::new(),
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    merged.extend(entries.iter().map(|(k, v)| (k.clone(), *v)));
    std::fs::write(path, render(&merged)).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The snapshot path the current process should write: the
/// `BENCH_RESULTS_PATH` environment variable when set, `BENCH_RESULTS.json`
/// in the working directory otherwise.
pub fn default_path() -> String {
    std::env::var("BENCH_RESULTS_PATH").unwrap_or_else(|_| "BENCH_RESULTS.json".to_string())
}
