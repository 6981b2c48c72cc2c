//! Interned annotation labels.
//!
//! An annotation's text is stored once per process, in an append-only
//! table, and a record carries only its [`Label`], a 4-byte id. That keeps
//! [`Record`](crate::Record) small and `Copy`: copying a trace (a
//! snapshot, a fork of a simulation) is one memory copy.
//!
//! The table is process-wide so that one id means one text everywhere:
//! in every log, every fork and every thread. Records compare and hash by
//! id alone, and that is sound only because no two texts share an id.
//! Ids follow the order in which texts are first seen, so nothing that
//! leaves the process — canonical text, CSV, `Debug` output, a golden, a
//! cache key — is written from an id: they all print the text.

use std::collections::HashMap;
use std::fmt;
use std::sync::{LazyLock, PoisonError, RwLock};

/// An annotation label: the id of its text in the process-wide table.
///
/// Equal texts get equal labels, so labels compare and hash as cheaply
/// as integers. [`as_str`](Label::as_str) gives the text back, and
/// `Debug` prints it.
///
/// # Examples
///
/// ```
/// use rtsim_trace::Label;
///
/// let tick = Label::new("tick");
/// assert_eq!(tick, Label::new("tick"));
/// assert_ne!(tick, Label::new("tock"));
/// assert_eq!(tick.as_str(), "tick");
/// assert_eq!(format!("{tick:?}"), "\"tick\"");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub(crate) u32);

/// The texts seen so far: text → id, and id → text. Texts are leaked
/// into `'static` storage, once each; the table only grows.
#[derive(Default)]
struct Table {
    ids: HashMap<&'static str, u32>,
    texts: Vec<&'static str>,
}

static TABLE: LazyLock<RwLock<Table>> = LazyLock::new(RwLock::default);

impl Label {
    /// The label of `text`, adding `text` to the table the first time it
    /// is seen.
    ///
    /// # Panics
    ///
    /// Panics if the table already holds `u32::MAX + 1` texts.
    pub fn new(text: &str) -> Label {
        let found = TABLE
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .ids
            .get(text)
            .copied();
        if let Some(id) = found {
            return Label(id);
        }
        let mut table = TABLE.write().unwrap_or_else(PoisonError::into_inner);
        // Another thread may have added it between the two locks.
        if let Some(&id) = table.ids.get(text) {
            return Label(id);
        }
        let id = u32::try_from(table.texts.len()).expect("too many annotation labels");
        let text: &'static str = Box::leak(text.into());
        table.texts.push(text);
        table.ids.insert(text, id);
        Label(id)
    }

    /// The label's text.
    pub fn as_str(self) -> &'static str {
        TABLE.read().unwrap_or_else(PoisonError::into_inner).texts[self.0 as usize]
    }
}

impl From<&str> for Label {
    fn from(text: &str) -> Label {
        Label::new(text)
    }
}

/// Prints the text, never the id.
impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread;

    use super::*;

    #[test]
    fn each_text_gets_one_id() {
        let a = Label::new("label-test a");
        assert_eq!(Label::new("label-test a"), a);
        assert_ne!(Label::new("label-test b"), a);
        assert_eq!(Label::new("").as_str(), "");
        assert_eq!(Label::from("x y\n").as_str(), "x y\n");
    }

    /// Two threads intern overlapping texts at once: each text must end
    /// up with one id, whichever thread saw it first, and the id must
    /// give the text back.
    #[test]
    fn concurrent_interning_agrees() {
        let texts: Vec<String> = (0..64).map(|i| format!("label-race {i}")).collect();
        let start = Barrier::new(2);
        let seen: Vec<(&str, Label)> = thread::scope(|s| {
            let workers = [&texts[..48], &texts[16..]].map(|slice| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let labels = slice.iter().map(|t| (t.as_str(), Label::new(t)));
                    labels.collect::<Vec<_>>()
                })
            });
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        let mut ids = HashMap::new();
        for (text, label) in seen {
            assert_eq!(label.as_str(), text);
            assert_eq!(
                *ids.entry(text).or_insert(label),
                label,
                "{text} got two ids"
            );
        }
        let distinct: HashSet<Label> = ids.into_values().collect();
        assert_eq!(distinct.len(), texts.len());
    }
}
