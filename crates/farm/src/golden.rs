//! Golden-file rendering, parsing and diffing.
//!
//! Goldens are JSONL: one object per matrix cell with a fixed key order,
//!
//! ```text
//! {"scenario":"paper_fig6","policy":"priority","mode":"preemptive",
//!  "hash":"89a2…","events":73,"makespan_ps":780000000,"dispatches":9,
//!  "preemptions":2,"deadline_misses":0}
//! ```
//!
//! so the file diffs line-per-cell in version control. Because the
//! writer is in-tree and deterministic, cells are matched by their
//! `"scenario"/"policy"/"mode"` keys and compared as whole lines; lines
//! are read with [`Json::parse`] only to find those keys, to decode a
//! cached result, and to phrase the drift message.

use std::collections::BTreeMap;
use std::path::PathBuf;

use rtsim_campaign::csv::CsvTable;
use rtsim_campaign::json::Json;

use crate::fingerprint::Fingerprint;
use crate::registry::{scenario_by_name, Cell, CellResult, PolicyKind};

/// Environment variable overriding the golden-file location (used by the
/// tamper-detection tests; normal runs use the committed file).
pub const GOLDENS_ENV: &str = "RTSIM_FARM_GOLDENS";

/// Path of the committed golden file, honouring [`GOLDENS_ENV`].
pub fn goldens_path() -> PathBuf {
    if let Ok(path) = std::env::var(GOLDENS_ENV) {
        return PathBuf::from(path);
    }
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/goldens/farm.jsonl"
    ))
}

/// Renders one cell result as its golden JSONL line (no trailing
/// newline). Multi-core cells carry a `"cores"` field right after
/// `"mode"`; single-core lines omit it, so the entire pre-SMP golden
/// file remains byte-identical under the current writer. Cells whose run
/// recorded fault injections carry a trailing `"faults"` count under the
/// same convention: fault-free lines omit it, keeping every pre-fault
/// golden line unchanged too.
pub fn render_line(result: &CellResult) -> String {
    let f = &result.fingerprint;
    let mut fields = vec![
        ("scenario", Json::from(result.cell.scenario)),
        ("policy", Json::from(result.cell.policy.key())),
        ("mode", Json::from(result.cell.mode())),
    ];
    if result.cell.cores > 1 {
        fields.push(("cores", Json::from(u64::from(result.cell.cores))));
    }
    fields.extend([
        ("hash", Json::from(f.hash_hex())),
        ("events", Json::from(f.events)),
        ("makespan_ps", Json::from(f.makespan_ps)),
        ("dispatches", Json::from(f.dispatches)),
        ("preemptions", Json::from(f.preemptions)),
        ("deadline_misses", Json::from(f.deadline_misses)),
    ]);
    if f.faults > 0 {
        fields.push(("faults", Json::from(f.faults)));
    }
    Json::obj(fields).to_string()
}

/// Renders a whole result set as golden-file contents (newline
/// terminated).
pub fn render(results: &[CellResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&render_line(r));
        out.push('\n');
    }
    out
}

/// Parses the `(scenario, policy, mode, cores)` identity of a golden
/// line. Lines without a `"cores"` field are single-core (the pre-SMP
/// format). Returns `None` on lines that are not JSON cell records.
pub fn parse_cell_key(line: &str) -> Option<(String, String, String, u8)> {
    cell_key(&Json::parse(line).ok()?)
}

/// The `(scenario, policy, mode, cores)` identity of a parsed line.
fn cell_key(line: &Json) -> Option<(String, String, String, u8)> {
    let text = |key| Some(line.get(key)?.as_str()?.to_owned());
    let cores = match line.get("cores") {
        Some(c) => u8::try_from(c.as_u64()?).ok()?,
        None => 1,
    };
    Some((text("scenario")?, text("policy")?, text("mode")?, cores))
}

/// Formats a parsed cell key the way [`Cell::label`] would.
fn key_label(key: &(String, String, String, u8)) -> String {
    if key.3 > 1 {
        format!("{}/{}/{}/c{}", key.0, key.1, key.2, key.3)
    } else {
        format!("{}/{}/{}", key.0, key.1, key.2)
    }
}

/// Parses a full golden line back into the [`CellResult`] that rendered
/// it — the decode half of the grid-cache round-trip
/// (`parse_line(render_line(r)) == Some(r)`). Returns `None` on
/// malformed lines or unknown scenario/policy/mode keys.
pub fn parse_line(line: &str) -> Option<CellResult> {
    let line = Json::parse(line).ok()?;
    let (scenario, policy, mode, cores) = cell_key(&line)?;
    let scenario = scenario_by_name(&scenario)?.name;
    let policy = PolicyKind::from_key(&policy)?;
    let preemptive = match mode.as_str() {
        "preemptive" => true,
        "cooperative" => false,
        _ => return None,
    };
    let count = |key| line.get(key)?.as_u64();
    Some(CellResult {
        cell: Cell {
            scenario,
            policy,
            preemptive,
            cores,
        },
        fingerprint: Fingerprint {
            hash: u64::from_str_radix(line.get("hash")?.as_str()?, 16).ok()?,
            events: count("events")?,
            makespan_ps: count("makespan_ps")?,
            dispatches: count("dispatches")?,
            preemptions: count("preemptions")?,
            deadline_misses: count("deadline_misses")?,
            // Absent on fault-free lines (the whole pre-fault file).
            faults: line.get("faults").map_or(Some(0), Json::as_u64)?,
        },
    })
}

/// Renders a result set as the CSV table the `rtsim-farm` binary emits
/// as a campaign artifact.
pub fn render_csv(results: &[CellResult]) -> String {
    let mut table = CsvTable::new([
        "scenario",
        "policy",
        "mode",
        "cores",
        "hash",
        "events",
        "makespan_ps",
        "dispatches",
        "preemptions",
        "deadline_misses",
        "faults",
    ]);
    for r in results {
        let f = &r.fingerprint;
        table.row([
            r.cell.scenario.to_owned(),
            r.cell.policy.key().to_owned(),
            r.cell.mode().to_owned(),
            r.cell.cores.to_string(),
            f.hash_hex(),
            f.events.to_string(),
            f.makespan_ps.to_string(),
            f.dispatches.to_string(),
            f.preemptions.to_string(),
            f.deadline_misses.to_string(),
            f.faults.to_string(),
        ]);
    }
    table.to_string()
}

/// The outcome of comparing fresh results against the goldens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffOutcome {
    /// One human-readable message per drifted / missing / stale cell,
    /// each naming the `(scenario, policy, mode)` involved.
    pub messages: Vec<String>,
    /// Cells compared and found identical.
    pub matched: usize,
}

impl DiffOutcome {
    /// `true` when every compared cell matched.
    pub fn is_clean(&self) -> bool {
        self.messages.is_empty()
    }
}

const FIELDS: [&str; 7] = [
    "hash",
    "events",
    "makespan_ps",
    "dispatches",
    "preemptions",
    "deadline_misses",
    "faults",
];

fn describe_drift(cell: &str, expected: &str, actual: &str) -> String {
    let (expected, actual) = (Json::parse(expected).ok(), Json::parse(actual).ok());
    let mut changes = Vec::new();
    for field in FIELDS {
        // The hash is a string; print it without its quotes.
        let value = |line: &Option<Json>| match line.as_ref()?.get(field)? {
            Json::Str(s) => Some(s.clone()),
            other => Some(other.to_string()),
        };
        match (value(&expected), value(&actual)) {
            (Some(e), Some(a)) if e != a => changes.push(format!("{field} {e} -> {a}")),
            _ => {}
        }
    }
    if changes.is_empty() {
        // Same fields yet different bytes: formatting-level corruption.
        format!("cell {cell}: golden line malformed or reordered")
    } else {
        format!("cell {cell}: {}", changes.join(", "))
    }
}

/// Compares fresh `results` against golden-file `goldens` contents.
///
/// Every result must have a byte-identical golden line; with
/// `require_complete` (a full-matrix check) every golden line must also
/// correspond to a result, so stale cells are reported too. A smoke
/// check passes `require_complete = false` because it only reruns a
/// subset of the matrix.
pub fn diff(goldens: &str, results: &[CellResult], require_complete: bool) -> DiffOutcome {
    let mut expected: BTreeMap<(String, String, String, u8), &str> = BTreeMap::new();
    let mut messages = Vec::new();
    for line in goldens.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_cell_key(line) {
            Some(key) => {
                let label = key_label(&key);
                if expected.insert(key, line).is_some() {
                    messages.push(format!("cell {label}: duplicated in goldens"));
                }
            }
            None => messages.push(format!("unparseable golden line: {line}")),
        }
    }

    let mut matched = 0;
    for result in results {
        let cell = result.cell;
        let key = (
            cell.scenario.to_owned(),
            cell.policy.key().to_owned(),
            cell.mode().to_owned(),
            cell.cores,
        );
        let actual = render_line(result);
        match expected.remove(&key) {
            None => messages.push(format!(
                "cell {}: missing from goldens (run `rtsim-farm --bless`)",
                cell.label()
            )),
            Some(line) if line == actual => matched += 1,
            Some(line) => messages.push(describe_drift(&cell.label(), line, &actual)),
        }
    }
    if require_complete {
        for key in expected.into_keys() {
            messages.push(format!(
                "cell {}: in goldens but not produced by this matrix (stale?)",
                key_label(&key)
            ));
        }
    }
    DiffOutcome { messages, matched }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fingerprint;
    use crate::registry::{Cell, PolicyKind};

    fn sample(policy: PolicyKind, hash: u64) -> CellResult {
        CellResult {
            cell: Cell {
                scenario: "paper_fig6",
                policy,
                preemptive: true,
                cores: 1,
            },
            fingerprint: Fingerprint {
                hash,
                events: 73,
                makespan_ps: 780_000_000,
                dispatches: 9,
                preemptions: 2,
                deadline_misses: 0,
                faults: 0,
            },
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let line = render_line(&sample(PolicyKind::Priority, 0xdead_beef));
        assert_eq!(
            parse_cell_key(&line),
            Some((
                "paper_fig6".to_owned(),
                "priority".to_owned(),
                "preemptive".to_owned(),
                1,
            ))
        );
        // A single-core line never carries a "cores" field: the pre-SMP
        // golden format is preserved byte-for-byte.
        assert!(!line.contains("cores"), "{line}");
        let json = Json::parse(&line).unwrap();
        assert_eq!(
            json.get("hash").and_then(Json::as_str),
            Some("00000000deadbeef")
        );
        assert_eq!(json.get("events").and_then(Json::as_u64), Some(73));
        assert_eq!(
            json.get("makespan_ps").and_then(Json::as_u64),
            Some(780_000_000)
        );
    }

    #[test]
    fn parse_line_inverts_render_line() {
        let result = sample(PolicyKind::Edf, 0x1234_5678_9abc_def0);
        assert_eq!(parse_line(&render_line(&result)), Some(result));
        // Unknown keys and malformed lines are rejected, not guessed at.
        assert_eq!(parse_line(""), None);
        assert_eq!(
            parse_line(&render_line(&result).replace("paper_fig6", "no_such_scenario")),
            None
        );
        assert_eq!(
            parse_line(&render_line(&result).replace("preemptive", "sometimes")),
            None
        );
        // A damaged number is not read as its leading digits.
        assert_eq!(
            parse_line(&render_line(&result).replace("\"events\":73", "\"events\":7O")),
            None
        );
    }

    #[test]
    fn multi_core_lines_round_trip_with_their_core_count() {
        let result = CellResult {
            cell: Cell {
                scenario: "smp_global",
                policy: PolicyKind::Edf,
                preemptive: true,
                cores: 4,
            },
            fingerprint: sample(PolicyKind::Priority, 7).fingerprint,
        };
        let line = render_line(&result);
        assert!(line.contains("\"cores\":4"), "{line}");
        assert_eq!(parse_cell_key(&line).map(|k| k.3), Some(4), "{line}");
        assert_eq!(parse_line(&line), Some(result));
        // Same cell on a different core count is a different key.
        let other = diff(&render(&[result]), &[result], true);
        assert!(other.is_clean(), "{:?}", other.messages);
    }

    #[test]
    fn fault_cells_round_trip_and_fault_free_lines_omit_the_field() {
        let mut result = sample(PolicyKind::Priority, 11);
        // Fault-free lines never carry the field: the pre-fault golden
        // format is preserved byte-for-byte.
        assert!(!render_line(&result).contains("faults"));
        result.fingerprint.faults = 7;
        let line = render_line(&result);
        assert!(line.contains("\"faults\":7"), "{line}");
        assert_eq!(parse_line(&line), Some(result));
    }

    #[test]
    fn render_csv_has_a_row_per_cell() {
        let csv = render_csv(&[sample(PolicyKind::Priority, 1), sample(PolicyKind::Fifo, 2)]);
        assert_eq!(csv.lines().count(), 3); // header + 2 rows
        assert!(csv.starts_with("scenario,policy,mode,cores,hash"));
        assert!(csv.contains("paper_fig6,fifo,preemptive,1,0000000000000002"));
    }

    #[test]
    fn identical_results_are_clean() {
        let results = [sample(PolicyKind::Priority, 1), sample(PolicyKind::Fifo, 2)];
        let goldens = render(&results);
        let outcome = diff(&goldens, &results, true);
        assert!(outcome.is_clean(), "{:?}", outcome.messages);
        assert_eq!(outcome.matched, 2);
    }

    #[test]
    fn drift_names_the_cell_and_field() {
        let golden = render(&[sample(PolicyKind::Priority, 1)]);
        let mut drifted = sample(PolicyKind::Priority, 99);
        drifted.fingerprint.preemptions = 5;
        let outcome = diff(&golden, &[drifted], true);
        assert_eq!(outcome.messages.len(), 1);
        let msg = &outcome.messages[0];
        assert!(msg.contains("paper_fig6/priority/preemptive"), "{msg}");
        assert!(msg.contains("hash"), "{msg}");
        assert!(msg.contains("preemptions 2 -> 5"), "{msg}");
    }

    #[test]
    fn missing_and_stale_cells_are_reported() {
        let goldens = render(&[sample(PolicyKind::Priority, 1)]);
        let outcome = diff(&goldens, &[sample(PolicyKind::Edf, 3)], true);
        let text = outcome.messages.join("\n");
        assert!(
            text.contains("paper_fig6/edf/preemptive: missing"),
            "{text}"
        );
        assert!(
            text.contains("paper_fig6/priority/preemptive: in goldens"),
            "{text}"
        );
        // A subset check ignores the untouched golden cells.
        let subset = diff(&goldens, &[sample(PolicyKind::Priority, 1)], false);
        assert!(subset.is_clean(), "{:?}", subset.messages);
    }
}
