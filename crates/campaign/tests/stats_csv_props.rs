//! Seeded property tests for the campaign CSV writer: RFC 4180
//! round-trips.
//!
//! Uses the in-tree `rtsim_kernel::testutil::check` harness — failures
//! print the generated input and an `RTSIM_PROP_SEED` value that replays
//! the exact case.

use rtsim_campaign::csv::CsvTable;
use rtsim_kernel::testutil::{check, Rng};

/// A minimal RFC 4180 parser, local to this test: enough to round-trip
/// what `CsvTable` emits (CRLF rows, `"`-quoted fields with doubled
/// quotes).
fn parse_csv(text: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut row = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut quoted = false;
    while let Some(c) = chars.next() {
        if quoted {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => quoted = false,
                c => field.push(c),
            }
        } else {
            match c {
                '"' => quoted = true,
                ',' => row.push(std::mem::take(&mut field)),
                '\r' if chars.peek() == Some(&'\n') => {
                    chars.next();
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                c => field.push(c),
            }
        }
    }
    assert!(!quoted, "unterminated quote");
    assert!(field.is_empty() && row.is_empty(), "missing final CRLF");
    rows
}

/// Generates fields peppered with every character RFC 4180 makes
/// interesting: commas, quotes, CR, LF, and plain text.
fn gen_table(rng: &mut Rng) -> Vec<Vec<String>> {
    let columns = rng.gen_range(1usize..6);
    let rows = rng.gen_range(1usize..8);
    (0..rows)
        .map(|_| {
            (0..columns)
                .map(|_| {
                    let len = rng.gen_range(0usize..12);
                    (0..len)
                        .map(|_| *rng.choose(&['a', 'Z', '0', ' ', ',', '"', '\n', '\r', 'é']))
                        .collect()
                })
                .collect()
        })
        .collect()
}

#[test]
fn csv_round_trips_rfc4180_quoting() {
    check(256, gen_table, |rows| {
        let header: Vec<String> = (0..rows[0].len()).map(|i| format!("c{i}")).collect();
        let mut table = CsvTable::new(header.iter());
        for row in rows {
            table.row(row.iter());
        }
        let mut parsed = parse_csv(&table.to_string());
        assert_eq!(parsed.remove(0), header, "header row");
        assert_eq!(&parsed, rows, "data rows changed across the round-trip");
    });
}

#[test]
fn csv_quotes_exactly_the_fields_that_need_it() {
    check(128, gen_table, |rows| {
        let mut table = CsvTable::new((0..rows[0].len()).map(|i| format!("c{i}")));
        for row in rows {
            table.row(row.iter());
        }
        let text = table.to_string();
        // A field containing none of , " CR LF must appear verbatim.
        for row in rows {
            for field in row {
                if !field.is_empty() && !field.contains([',', '"', '\n', '\r']) {
                    assert!(text.contains(field), "plain field {field:?} mangled");
                }
            }
        }
    });
}
