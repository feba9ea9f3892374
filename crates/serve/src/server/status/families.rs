//! The machinery behind the `families!` tables of `status.rs`: the
//! handle types a row can declare, how a row registers them, and how the
//! row-backed keys of a `/stats` object interleave with its hand-written
//! ones.

use spade_core::json::JsonWriter;
use spade_telemetry::{Counter, Gauge, Histogram, Registry};

/// What a row registers besides its labels: the family's name and help,
/// the label a `Vec` handle fans out over, and a histogram's bounds.
pub(super) struct Family<'a> {
    pub(super) name: &'static str,
    pub(super) help: &'static str,
    pub(super) fan: Option<(&'static str, &'a [&'a str])>,
    pub(super) bounds: Option<&'a [f64]>,
}

/// A handle type a row can declare.
pub(super) trait Handle: Sized {
    fn register(r: &Registry, f: &Family, labels: &[(&'static str, &str)]) -> Self;
}

impl Handle for Counter {
    fn register(r: &Registry, f: &Family, labels: &[(&'static str, &str)]) -> Self {
        r.counter_with(f.name, f.help, labels)
    }
}

impl Handle for Gauge {
    fn register(r: &Registry, f: &Family, labels: &[(&'static str, &str)]) -> Self {
        r.gauge_with(f.name, f.help, labels)
    }
}

impl Handle for Histogram {
    fn register(r: &Registry, f: &Family, labels: &[(&'static str, &str)]) -> Self {
        let bounds = f.bounds.expect("a histogram row names its bounds");
        r.histogram_with(f.name, f.help, labels, bounds)
    }
}

/// One series per value of the row's fan-out label, in value order.
impl<H: Handle> Handle for Vec<H> {
    fn register(r: &Registry, f: &Family, labels: &[(&'static str, &str)]) -> Self {
        let (key, values) = f.fan.expect("a Vec handle fans out over a label");
        values.iter().map(|&v| H::register(r, f, &[labels, &[(key, v)]].concat())).collect()
    }
}

/// One row-backed `/stats` key: its path, its position in its object, its
/// value, and its JSON type (`"bool"`, else a number).
#[derive(Clone, Copy)]
pub(super) struct Stat {
    pub(super) path: &'static str,
    pub(super) pos: u8,
    pub(super) value: u64,
    pub(super) json: &'static str,
}

/// One `/stats` object being written. Each row-backed key lands at its
/// declared position; [`Section::key`] writes a hand-written key into the
/// next position no row claims.
pub(super) struct Section<'w> {
    w: &'w mut JsonWriter,
    /// The object's row-backed keys not yet written, last position first;
    /// clearing it ends the object at the keys written so far.
    pub(super) rows: Vec<Stat>,
    written: u8,
}

impl<'w> Section<'w> {
    /// Opens the object whose row-backed keys are `stats` under `object`.
    pub(super) fn begin(w: &'w mut JsonWriter, stats: &[Stat], object: &str) -> Self {
        let of = |s: &&Stat| s.path.rsplit_once('.').is_some_and(|(o, _)| o == object);
        let mut rows: Vec<Stat> = stats.iter().filter(of).copied().collect();
        rows.sort_by_key(|s| std::cmp::Reverse(s.pos));
        w.begin_object();
        Section { w, rows, written: 0 }
    }

    /// Writes the row-backed keys due at the next positions.
    fn flush(&mut self) {
        while let Some(row) = self.rows.pop_if(|r| r.pos == self.written) {
            let key = row.path.rsplit_once('.').map_or(row.path, |(_, key)| key);
            match row.json {
                "bool" => self.w.key(key).bool(row.value != 0),
                _ => self.w.key(key).uint(row.value),
            };
            self.written += 1;
        }
    }

    /// Starts a hand-written key; the caller writes its value.
    pub(super) fn key(&mut self, key: &str) -> &mut JsonWriter {
        self.flush();
        self.written += 1;
        self.w.key(key)
    }

    /// Writes the remaining row-backed keys and closes the object.
    pub(super) fn end(mut self) {
        self.flush();
        debug_assert!(self.rows.is_empty(), "a /stats position is skipped");
        self.w.end_object();
    }
}

/// Declares a struct of metric handles, one field per row, and builds its
/// registration and its `/stats` keys from the rows. A row reads
///
/// `handle: Type = "family", "help" ["label" in VALUES]? (, BOUNDS)?
/// (=> "/stats path" position bool?)*;`
///
/// The struct's label keys (`[..]` after its name) lead every series'
/// labels; a `Vec` handle adds one series per value of its own label; a
/// histogram names its bucket bounds. A `/stats` position is the key's
/// index in its object (see [`Section`]); `bool` renders a 0/1 gauge as
/// a JSON boolean.
macro_rules! families {
    ($(#[$doc:meta])* struct $name:ident [$($scope:literal),*] {$(
        $field:ident: $ty:ty = $family:literal, $help:literal
        $([$label:literal in $values:ident])? $(, $bounds:ident)?
        $(=> $path:literal $pos:literal $($json:ident)?)*;
    )*}) => {
        $(#[$doc])*
        pub(super) struct $name {
            $(pub(super) $field: $ty,)*
        }

        impl $name {
            /// The label keys that lead every series' labels.
            const SCOPE: &'static [&'static str] = &[$($scope),*];

            /// Registers every row on `r`, in row order; `scope` holds the
            /// values of [`Self::SCOPE`].
            pub(super) fn register(r: &Registry, scope: &[&str]) -> Self {
                let scope: Vec<_> =
                    Self::SCOPE.iter().copied().zip(scope.iter().copied()).collect();
                $name {$($field: Handle::register(r, &Family {
                    name: $family,
                    help: $help,
                    fan: None $(.or(Some(($label, &$values[..]))))?,
                    bounds: None $(.or(Some(&$bounds[..])))?,
                }, &scope),)*}
            }

            /// The row-backed `/stats` keys, each read once.
            fn stats(&self) -> Vec<Stat> {
                vec![$($(Stat {
                    path: $path,
                    pos: $pos,
                    value: self.$field.get(),
                    json: stringify!($($json)?),
                },)*)*]
            }

            /// Each row as a line of the crate page's family table:
            /// family, type, label keys, help, `/stats` paths.
            #[cfg(test)]
            fn reference() -> Vec<[String; 5]> {
                vec![$([
                    format!("`{}`", $family),
                    <$ty as tests::Kind>::KIND.to_owned(),
                    [Self::SCOPE, &[$($label)?]].concat().join(", "),
                    $help.to_owned(),
                    <[String]>::join(&[$(format!("`{}`", $path)),*], ", "),
                ],)*]
            }
        }
    };
}
