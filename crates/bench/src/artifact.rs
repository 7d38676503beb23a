//! The `BENCH_*.json` artifact format: one writer and one validator for
//! every benchmark document `repro --bench-json` produces.
//!
//! Each artifact declares a [`Schema`] table: its tag, the header fields,
//! and its sections (arrays of result rows, or one nested object), each
//! field with the [`Check`] it must pass. A section's fields come from
//! its row struct, declared with `row!` so that the struct's fields and
//! the section's are one list. Both sides read that table:
//!
//! * [`Schema::doc`] names the cells of a run with the table's field
//!   names and [`Schema::render`] prints the document in the committed
//!   layout — 2-space indent, one field per line, a trailing newline,
//!   measured floats with six decimals and counts as integers;
//! * [`Schema::validate`] parses the text with [`serve::json`] (the
//!   parser the wire protocol uses), demands the tag, runs every field's
//!   check and then the schema's cross-field `rule`.
//!
//! Parsing a valid document and rendering it again gives back the same
//! bytes, which is how the committed artifacts are pinned by the tests.

use std::fmt::Write as _;

use serve::json::parse_json;
pub use serve::json::Json;

/// What a field must hold. The check also decides how a number renders:
/// [`Check::Pos`] and [`Check::Range`] fields are measured floats
/// (`{:.6}`), every other number is an integer.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// A non-empty string.
    Name,
    /// A finite float `> 0` (timings, ratios, rates).
    Pos,
    /// An integer `>= min`.
    Int(u64),
    /// `true`; `false` means the run's identity check failed.
    True,
    /// Any boolean.
    Bool,
    /// A float within `[lo, hi]`.
    Range(f64, f64),
    /// One of the listed strings.
    OneOf(&'static [&'static str]),
}

/// A field's name and check.
pub type Field = (&'static str, Check);

/// A document section: a non-empty array of rows, or one object.
#[derive(Debug, Clone, Copy)]
pub enum Section {
    Rows(&'static str, &'static [Field]),
    Object(&'static str, &'static [Field]),
}

impl Section {
    /// The section's name and its rows' fields.
    pub fn parts(self) -> (&'static str, &'static [Field]) {
        match self {
            Section::Rows(name, fields) | Section::Object(name, fields) => (name, fields),
        }
    }
}

/// One artifact's format, read by both the writer and the validator.
#[derive(Debug, Clone, Copy)]
pub struct Schema {
    /// Value of the leading `schema` field.
    pub tag: &'static str,
    /// The committed artifact, relative to the repository root, and
    /// `repro --bench-json`'s default path.
    pub file: &'static str,
    pub header: &'static [Field],
    pub sections: &'static [Section],
    /// Cross-field rules, run once every field passed its check.
    pub rule: fn(&Json) -> Result<(), String>,
}

/// A value that fills one field of a document.
pub trait Cell {
    fn cell(&self) -> Json;
}

macro_rules! number_cells {
    ($($t:ty),*) => {
        $(impl Cell for $t {
            fn cell(&self) -> Json {
                Json::Num(*self as f64)
            }
        })*
    };
}
number_cells!(f64, usize, u64);

impl Cell for bool {
    fn cell(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Cell for &str {
    fn cell(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl Cell for String {
    fn cell(&self) -> Json {
        Json::Str(self.clone())
    }
}

/// `cells![a, b, c]` — header values, in the schema's field order.
macro_rules! cells {
    ($($v:expr),* $(,)?) => {
        vec![$($crate::artifact::Cell::cell(&$v)),*]
    };
}
pub(crate) use cells;

/// A result row: its section's fields, and its values in their order.
pub trait Row {
    const FIELDS: &'static [Field];
    fn cells(&self) -> Vec<Json>;
}

/// Declares a result row struct whose fields are its section's fields:
/// `pub name: Type = Check,` is the struct field, the JSON field of the
/// same name and its check, so a value cannot land under another
/// field's name.
macro_rules! row {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty = $check:expr,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $crate::artifact::Row for $name {
            const FIELDS: &'static [$crate::artifact::Field] =
                &[$((stringify!($field), $check)),*];

            fn cells(&self) -> Vec<$crate::artifact::Json> {
                vec![$($crate::artifact::Cell::cell(&self.$field)),*]
            }
        }
    };
}
pub(crate) use row;

/// The object of one row.
pub fn object<R: Row>(row: &R) -> Json {
    let names = R::FIELDS.iter().map(|f| f.0.to_owned());
    Json::Obj(names.zip(row.cells()).collect())
}

/// The array of `rows`.
pub fn array<R: Row>(rows: &[R]) -> Json {
    Json::Arr(rows.iter().map(object).collect())
}

/// Measured-float literal; `NaN`/`inf` have no JSON spelling and clamp to
/// zero (which the `> 0` check then rejects).
fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.0".to_owned()
    }
}

fn leaf(check: Check, v: Option<&Json>) -> String {
    match (check, v) {
        (Check::Pos | Check::Range(..), Some(Json::Num(x))) => float(*x),
        (_, Some(v)) => v.render(),
        (_, None) => "null".to_owned(),
    }
}

/// Renders `fields` of `row` as an object whose closing brace sits at
/// `indent`.
fn render_object(out: &mut String, indent: &str, fields: &[Field], row: Option<&Json>) {
    out.push('{');
    for (i, &(name, check)) in fields.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let v = leaf(check, row.and_then(|r| r.get(name)));
        let _ = write!(out, "{sep}\n{indent}  \"{name}\": {v}");
    }
    let _ = write!(out, "\n{indent}}}");
}

fn check_field(doc: &Json, (name, check): Field) -> Result<(), String> {
    let v = doc.get(name);
    let num = || match v {
        Some(Json::Num(n)) => Ok(*n),
        Some(_) => Err(format!("field '{name}' must be a number")),
        None => Err(format!("missing field '{name}'")),
    };
    match check {
        Check::Name => match v {
            Some(Json::Str(s)) if !s.is_empty() => Ok(()),
            _ => Err(format!("missing non-empty string field '{name}'")),
        },
        Check::Pos => match num()? {
            n if n > 0.0 && n.is_finite() => Ok(()),
            _ => Err(format!("field '{name}' must be > 0")),
        },
        Check::Int(min) => match num()? {
            n if n >= min as f64 && n.fract() == 0.0 => Ok(()),
            _ => Err(format!("field '{name}' must be an integer >= {min}")),
        },
        Check::True => match v {
            Some(Json::Bool(true)) => Ok(()),
            Some(Json::Bool(false)) => Err(format!("field '{name}' is false")),
            _ => Err(format!("missing boolean field '{name}'")),
        },
        Check::Bool => match v {
            Some(Json::Bool(_)) => Ok(()),
            _ => Err(format!("missing boolean field '{name}'")),
        },
        Check::Range(lo, hi) => match num()? {
            n if (lo..=hi).contains(&n) => Ok(()),
            _ => Err(format!("field '{name}' must lie in [{lo}, {hi}]")),
        },
        Check::OneOf(options) => match v {
            Some(Json::Str(s)) if options.contains(&s.as_str()) => Ok(()),
            _ => Err(format!("field '{name}' must be one of {options:?}")),
        },
    }
}

impl Schema {
    /// Assembles a document: the header values in [`Schema::header`]
    /// order, then one value per section ([`array()`] or [`object()`]).
    pub fn doc(&self, header: Vec<Json>, sections: Vec<Json>) -> Json {
        let header_names = self.header.iter().map(|f| f.0);
        let names = header_names.chain(self.sections.iter().map(|s| s.parts().0));
        let values = header.into_iter().chain(sections);
        let mut doc = vec![("schema".to_owned(), Json::Str(self.tag.to_owned()))];
        doc.extend(names.map(str::to_owned).zip(values));
        Json::Obj(doc)
    }

    /// Renders `doc` in the artifact layout, fields in table order.
    pub fn render(&self, doc: &Json) -> String {
        let mut out = format!("{{\n  \"schema\": {}", Json::Str(self.tag.into()).render());
        for &(name, check) in self.header {
            let _ = write!(out, ",\n  \"{name}\": {}", leaf(check, doc.get(name)));
        }
        for &sec in self.sections {
            let (name, fields) = sec.parts();
            let _ = write!(out, ",\n  \"{name}\": ");
            if let Section::Object(..) = sec {
                render_object(&mut out, "  ", fields, doc.get(name));
                continue;
            }
            out.push('[');
            for (i, row) in rows(doc, name).iter().enumerate() {
                out.push_str(if i == 0 { "\n    " } else { ",\n    " });
                render_object(&mut out, "    ", fields, Some(row));
            }
            out.push_str("\n  ]");
        }
        out.push_str("\n}\n");
        out
    }

    /// Parses `text` and checks it against the schema, returning the
    /// parsed document.
    pub fn validate(&self, text: &str) -> Result<Json, String> {
        let doc = parse_json(text)?;
        match doc.get("schema") {
            Some(Json::Str(s)) if s == self.tag => {}
            Some(Json::Str(s)) => return Err(format!("unknown schema '{s}'")),
            _ => return Err("missing string field 'schema'".into()),
        }
        for &field in self.header {
            check_field(&doc, field)?;
        }
        for &sec in self.sections {
            let (name, fields) = sec.parts();
            let checks = |row: &Json| fields.iter().try_for_each(|&f| check_field(row, f));
            match (sec, doc.get(name)) {
                (Section::Object(..), Some(row @ Json::Obj(_))) => {
                    checks(row).map_err(|e| format!("{name}: {e}"))?
                }
                (Section::Object(..), _) => return Err(format!("missing object field '{name}'")),
                (_, Some(Json::Arr(rows))) if !rows.is_empty() => each_row(&doc, name, checks)?,
                (_, Some(Json::Arr(_))) => return Err(format!("'{name}' must not be empty")),
                _ => return Err(format!("missing array field '{name}'")),
            }
        }
        (self.rule)(&doc)?;
        Ok(doc)
    }
}

/// The rows of the array section `name` (none when it is absent).
pub fn rows<'a>(doc: &'a Json, name: &str) -> &'a [Json] {
    match doc.get(name) {
        Some(Json::Arr(rows)) => rows,
        _ => &[],
    }
}

/// Runs `f` on every row of the array section `name`, prefixing an error
/// with the row's position.
pub fn each_row(
    doc: &Json,
    name: &str,
    f: impl Fn(&Json) -> Result<(), String>,
) -> Result<(), String> {
    let mut rows = rows(doc, name).iter().enumerate();
    rows.try_for_each(|(i, row)| f(row).map_err(|e| format!("{name}[{i}]: {e}")))
}

/// A numeric field of a row that passed its checks.
pub fn number(row: &Json, field: &str) -> f64 {
    row.num_of(field).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_bench, datalog_bench, incr_bench, magic_bench, serve_bench, store_bench};

    /// Every committed artifact and its schema.
    fn committed() -> [(&'static str, &'static Schema); 6] {
        [
            &datalog_bench::SCHEMA,
            &compile_bench::SCHEMA,
            &incr_bench::SCHEMA,
            &magic_bench::SCHEMA,
            &serve_bench::SCHEMA,
            &store_bench::SCHEMA,
        ]
        .map(|schema| (schema.file, schema))
    }

    fn read(file: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn committed_artifacts_validate_and_render_byte_identically() {
        for (file, schema) in committed() {
            let text = read(file);
            let doc = schema
                .validate(&text)
                .unwrap_or_else(|e| panic!("{file}: {e}"));
            assert_eq!(schema.render(&doc), text, "{file} does not re-render");
        }
    }

    /// The rejection cases every schema shares, each applied to a valid
    /// committed document: not JSON, a wrong tag, every field and section
    /// renamed in turn, every row section emptied, and every must-be-true
    /// field (`outputs_match`, `demanded`) flipped in each row.
    #[test]
    fn every_schema_rejects_broken_documents() {
        for (file, schema) in committed() {
            let good = read(file);
            let rejects = |text: &str, case: &str| {
                assert!(schema.validate(text).is_err(), "{file}: accepted {case}");
            };
            rejects("not json", "non-JSON text");
            rejects(&good.replace(schema.tag, "something-else/9"), "a wrong tag");

            let sections = schema.sections.iter().map(|s| s.parts());
            let fields = schema
                .header
                .iter()
                .chain(sections.clone().flat_map(|s| s.1));
            let names = fields.map(|f| f.0).chain(sections.clone().map(|s| s.0));
            for name in names {
                let from = format!("\"{name}\":");
                let renamed = good.replace(&from, &format!("\"{name}_renamed\":"));
                rejects(&renamed, &format!("a renamed '{name}'"));
            }

            for &sec in schema.sections {
                let Section::Rows(section, _) = sec else {
                    continue;
                };
                let Json::Obj(mut doc) = parse_json(&good).unwrap() else {
                    panic!("{file}: not an object");
                };
                for (name, v) in &mut doc {
                    if name == section {
                        *v = Json::Arr(Vec::new());
                    }
                }
                let emptied = schema.render(&Json::Obj(doc));
                rejects(&emptied, &format!("an empty '{section}'"));
            }

            for (_, fields) in sections {
                for &(name, check) in fields {
                    if !matches!(check, Check::True) {
                        continue;
                    }
                    let from = format!("\"{name}\": true");
                    for (at, _) in good.match_indices(&from) {
                        let flipped = format!(
                            "{}\"{name}\": false{}",
                            &good[..at],
                            &good[at + from.len()..]
                        );
                        rejects(&flipped, &format!("'{name}' false at byte {at}"));
                    }
                }
            }
        }
    }

    #[test]
    fn field_checks_reject_what_they_name() {
        let fails = |check: Check, v: Json| {
            let doc = Json::Obj(vec![("f".into(), v)]);
            check_field(&doc, ("f", check)).is_err()
        };
        assert!(fails(Check::Name, Json::Str(String::new())));
        assert!(fails(Check::Pos, Json::Num(0.0)));
        assert!(fails(Check::Pos, Json::Str("1".into())));
        assert!(fails(Check::Int(1), Json::Num(0.0)));
        assert!(fails(Check::Int(0), Json::Num(1.5)));
        assert!(fails(Check::True, Json::Bool(false)));
        assert!(fails(Check::Bool, Json::Num(1.0)));
        assert!(fails(Check::Range(0.0, 10.0), Json::Num(10.5)));
        assert!(fails(
            Check::OneOf(&["closed", "open"]),
            Json::Str("ajar".into())
        ));
        assert!(!fails(Check::Int(0), Json::Num(0.0)));
        assert!(!fails(Check::Range(0.0, 10.0), Json::Num(1.1)));
        let missing = Json::Obj(Vec::new());
        assert!(check_field(&missing, ("f", Check::Bool)).is_err());
    }
}
