//! JSON-lines persistence for traces.
//!
//! One record per line keeps files streamable and appendable, matching
//! how monitoring systems actually emit data. Serialization goes through
//! the in-tree [`crate::json`] module so the workspace builds offline.
// engine hot path: a failure here is a fallible result, not a panic
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::json;
use crate::record::{MonitorRecord, Trace};
use std::borrow::Cow;
use std::collections::HashSet;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// Writes a trace as JSON lines, one record per line.
///
/// Only a trace that [`read_trace`] reads back bit for bit is written:
/// JSON has no NaN or infinity, and the reader rejects a negative `time`.
/// A record whose `time` is not finite and non-negative, or whose `value`
/// is not finite, is an [`io::ErrorKind::InvalidInput`] error naming its
/// 0-based index and the field, e.g. `record 3: field 'value' must be
/// finite, not NaN`. Every record is checked before the first line is
/// written, so on that error `w` has received nothing.
pub fn write_trace(trace: &Trace, mut w: impl Write) -> io::Result<()> {
    for (index, rec) in trace.records().iter().enumerate() {
        check_writable(index, rec)?;
    }
    let mut line = String::new();
    for rec in trace.records() {
        line.clear();
        json::write_record(&mut line, rec);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

fn check_writable(index: usize, rec: &MonitorRecord) -> io::Result<()> {
    let fault = if !(rec.time.is_finite() && rec.time >= 0.0) {
        format!(
            "field 'time' must be finite and non-negative, not {}",
            rec.time
        )
    } else if !rec.value.is_finite() {
        format!("field 'value' must be finite, not {}", rec.value)
    } else {
        return Ok(());
    };
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("record {index}: {fault}"),
    ))
}

/// Reads a JSON-lines trace; records are re-sorted by time so partially
/// merged monitoring feeds load correctly.
///
/// Each non-blank line must be one JSON object with a numeric `time`
/// (finite, non-negative), string `node` and `metric`, and numeric
/// `value`; other members are allowed and ignored, and of a repeated
/// member the first counts. Lines may end in `\n` or `\r\n`. A malformed
/// line is an [`io::ErrorKind::InvalidData`] error naming its 1-based
/// line and byte column, e.g. `line 7, column 31: expected ',' or '}'`.
///
/// Records share their names: every record of one call whose `node` (or
/// `metric`) has the same text holds the same [`Arc<str>`], so a trace
/// costs one allocation per distinct name, not two per record.
pub fn read_trace(mut r: impl BufRead) -> io::Result<Trace> {
    let mut records = Vec::new();
    let mut names = HashSet::new();
    let mut buf = Vec::new();
    let mut line_no = 0usize;
    loop {
        buf.clear();
        if r.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        line_no += 1;
        let bytes = buf.strip_suffix(b"\n").unwrap_or(&buf);
        let line = std::str::from_utf8(bytes)
            .map_err(|e| invalid_line(line_no, e.valid_up_to(), "invalid UTF-8"))?;
        if line.trim().is_empty() {
            continue;
        }
        let rec = json::parse_record(line, |name| intern(&mut names, name))
            .map_err(|e| invalid_line(line_no, e.offset, &e.message))?;
        records.push(rec);
    }
    Ok(Trace::from_records(records))
}

/// The shared copy of `name`: allocated on its first occurrence, cloned
/// from `names` after that. `names` is only looked up, never iterated.
fn intern(names: &mut HashSet<Arc<str>>, name: Cow<'_, str>) -> Arc<str> {
    if let Some(known) = names.get(&*name) {
        return Arc::clone(known);
    }
    let name = Arc::<str>::from(name);
    names.insert(Arc::clone(&name));
    name
}

fn invalid_line(line: usize, offset: usize, message: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("line {line}, column {}: {message}", offset + 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use lsds_stats::SimRng;
    use std::collections::BTreeMap;

    fn sample() -> Trace {
        Trace::from_records(vec![
            MonitorRecord::new(1.0, "T0", "production_gb", 2.5),
            MonitorRecord::new(2.0, "T1-0", "cpu_load", 0.7),
            MonitorRecord::new(3.5, "T1-1", "transfer_mb", 120.0),
        ])
    }

    /// Finite numbers come back bit for bit, `-0.0` and escapes included.
    #[test]
    fn roundtrip() {
        let mut recs = sample().records().to_vec();
        recs.extend([
            MonitorRecord::new(-0.0, "T0", "m", -0.0),
            MonitorRecord::new(0.1, "é\n\"\\", "\u{1}", 1.0 / 3.0),
            MonitorRecord::new(f64::MIN_POSITIVE, "T1", "m", -f64::MAX),
            MonitorRecord::new(f64::MAX, "T1", "m", 5e-324),
        ]);
        let t = Trace::from_records(recs);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert!(same_bits(&t, &back), "{t:?} came back as {back:?}");
    }

    /// A number `read_trace` would reject is refused before any line is
    /// written.
    #[test]
    fn unreadable_number_fails_at_write_with_its_index() {
        for (time, value, message) in [
            (3.5, f64::NAN, "field 'value' must be finite, not NaN"),
            (3.5, f64::INFINITY, "field 'value' must be finite, not inf"),
            (
                3.5,
                f64::NEG_INFINITY,
                "field 'value' must be finite, not -inf",
            ),
            (
                f64::INFINITY,
                1.0,
                "field 'time' must be finite and non-negative, not inf",
            ),
        ] {
            let mut recs = sample().records().to_vec();
            (recs[2].time, recs[2].value) = (time, value);
            let mut buf = Vec::new();
            let err = write_trace(&Trace::from_records(recs), &mut buf)
                .expect_err("unreadable record written");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert_eq!(err.to_string(), format!("record 2: {message}"));
            assert!(buf.is_empty(), "a line was written before the error");
        }
    }

    #[test]
    fn read_records_share_their_names() {
        let doc = concat!(
            r#"{"time":1,"node":"T1-0","metric":"job_arrival","value":1}"#,
            "\n",
            r#"{"time":2,"node":"T1-1","metric":"job_arrival","value":1}"#,
            "\n",
            r#"{"time":3,"node":"T1-\u0030","metric":"cpu_load","value":1}"#,
            "\n"
        );
        let t = read_trace(doc.as_bytes()).unwrap();
        let r = t.records();
        assert!(Arc::ptr_eq(&r[0].node, &r[2].node), "escaped spelling");
        assert!(!Arc::ptr_eq(&r[0].node, &r[1].node));
        assert!(Arc::ptr_eq(&r[0].metric, &r[1].metric));
        assert_eq!(&*r[2].metric, "cpu_load");
    }

    #[test]
    fn blank_lines_skipped() {
        let mut buf = Vec::new();
        write_trace(&sample(), &mut buf).unwrap();
        buf.extend_from_slice(b"\n\n");
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn disordered_file_is_sorted_on_read() {
        let lines = concat!(
            r#"{"time":5.0,"node":"a","metric":"m","value":1.0}"#,
            "\n",
            r#"{"time":1.0,"node":"b","metric":"m","value":2.0}"#,
            "\n"
        );
        let t = read_trace(lines.as_bytes()).unwrap();
        assert_eq!(t.records()[0].time, 1.0);
    }

    #[test]
    fn corrupt_line_is_an_error() {
        let lines = "not json\n";
        assert!(read_trace(lines.as_bytes()).is_err());
    }

    #[test]
    fn wrong_field_type_is_an_error() {
        let lines = r#"{"time":"late","node":"a","metric":"m","value":1.0}"#;
        assert!(read_trace(lines.as_bytes()).is_err());
    }

    fn error_of(doc: &[u8]) -> String {
        let err = read_trace(doc).expect_err("document must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        err.to_string()
    }

    #[test]
    fn errors_name_line_and_column() {
        let good = r#"{"time":1,"node":"a","metric":"m","value":1}"#;
        for (bad, message) in [
            (
                r#"{"time":2,"node":"a" "metric":"m","value":1}"#,
                "column 22: expected ',' or '}'",
            ),
            (
                r#" {"time":2,"metric":"m","value":1}"#,
                "column 2: missing field 'node'",
            ),
            (
                r#"{"time":"late","node":"a","metric":"m","value":1}"#,
                "column 9: non-numeric field 'time'",
            ),
            (
                r#"{"time":1,"node":"a","metric":"m","value":1} x"#,
                "column 46: trailing characters after value",
            ),
            (
                "{\"time\":1,\"node\":\"\u{e9}\u{ff}",
                "column 23: unterminated string",
            ),
            ("[1]", "column 1: expected '{'"),
        ] {
            let doc = format!("{good}\r\n\n{bad}\n{good}\n");
            assert_eq!(error_of(doc.as_bytes()), format!("line 3, {message}"));
        }
        let mut doc = format!("{good}\n").into_bytes();
        doc.extend_from_slice(b"{\"node\":\"\xff\"}\n");
        assert_eq!(error_of(&doc), "line 2, column 10: invalid UTF-8");
    }

    #[test]
    fn negative_time_is_an_error_not_a_panic() {
        let doc = r#"{"time":-1,"node":"a","metric":"m","value":1}"#;
        assert_eq!(
            error_of(doc.as_bytes()),
            "line 1, column 9: field 'time' must be finite and non-negative"
        );
        // negative zero passes `MonitorRecord::new`'s check and is kept
        let zero = read_trace(r#"{"time":-0,"node":"a","metric":"m","value":1}"#.as_bytes());
        assert_eq!(
            zero.unwrap().records()[0].time.to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn non_finite_time_is_an_error_not_a_panic() {
        let doc = r#"{"node":"a","metric":"m","value":1,"time":1e999}"#;
        assert_eq!(
            error_of(doc.as_bytes()),
            "line 1, column 43: field 'time' must be finite and non-negative"
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let head = r#"{"time":1,"node":"a","metric":"m","value":2,"x":"#;
        // the record's object is the first of the 128 levels allowed
        let at_cap = format!("{head}{}{}}}\n", "[".repeat(127), "]".repeat(127));
        assert_eq!(read_trace(at_cap.as_bytes()).unwrap().records().len(), 1);
        let deep = format!("{head}{}\n", "[".repeat(1_000_000));
        assert_eq!(
            error_of(deep.as_bytes()),
            format!(
                "line 1, column {}: arrays and objects nested deeper than 128",
                head.len() + 128
            )
        );
    }

    /// The reader before the one-pass walker: a [`Json`] tree per line,
    /// then [`Json::get`] per field. Kept as the differential reference.
    fn record_from_json(v: &Json) -> Result<MonitorRecord, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
        };
        let text = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing or non-string field '{key}'"))
        };
        Ok(MonitorRecord::new(
            num("time")?,
            text("node")?,
            text("metric")?,
            num("value")?,
        ))
    }

    fn reference_read(r: impl BufRead) -> io::Result<Trace> {
        let mut records = Vec::new();
        for line in r.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let parsed = Json::parse(&line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let rec = record_from_json(&parsed)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            records.push(rec);
        }
        Ok(Trace::from_records(records))
    }

    /// The reference's verdict; its `MonitorRecord::new` panic on a bad
    /// timestamp counts as a rejection.
    fn reference(doc: &[u8]) -> Option<Trace> {
        std::panic::catch_unwind(|| reference_read(doc))
            .ok()
            .and_then(Result::ok)
    }

    fn same_bits(a: &Trace, b: &Trace) -> bool {
        a.len() == b.len()
            && a.records().iter().zip(b.records()).all(|(x, y)| {
                x.time.to_bits() == y.time.to_bits()
                    && x.value.to_bits() == y.value.to_bits()
                    && x.node == y.node
                    && x.metric == y.metric
            })
    }

    const CORE: [&str; 4] = ["time", "node", "metric", "value"];
    const EXTRA_KEYS: [&str; 7] = ["x", "Time", "nodes", "", "clé", "meta", "値"];

    /// What a generated member decodes to.
    #[derive(Clone)]
    enum Val {
        Num(f64),
        Str(String),
        Other,
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Mutation {
        None,
        WrongType,
        NonObject,
        Flip,
        Truncate,
        DropQuote,
        DropColon,
    }

    const MUTATIONS: [Mutation; 7] = [
        Mutation::None,
        Mutation::WrongType,
        Mutation::NonObject,
        Mutation::Flip,
        Mutation::Truncate,
        Mutation::DropQuote,
        Mutation::DropColon,
    ];

    /// Seeded generator of JSON-lines trace documents, counting how often
    /// each feature class is exercised.
    struct Gen {
        rng: SimRng,
        hits: BTreeMap<&'static str, usize>,
    }

    impl Gen {
        fn hit(&mut self, class: &'static str) {
            *self.hits.entry(class).or_default() += 1;
        }

        fn ws(&mut self) -> &'static str {
            if self.rng.chance(0.85) {
                return "";
            }
            self.hit("whitespace");
            let ws = [" ", "  ", "\t", " \r ", "\t \t"];
            ws[self.rng.index(ws.len())]
        }

        /// Number text and the value it stands for.
        fn number(&mut self, non_negative: bool) -> (String, f64) {
            let x = self.rng.range_f64(0.0, 1.0e4);
            let x = if non_negative || self.rng.chance(0.5) {
                x
            } else {
                -x
            };
            let text = match self.rng.next_below(7) {
                0 => format!("{x}"),
                1 => format!("{x:e}"),
                2 => format!("{x:E}"),
                3 => format!("{}", x.trunc() as i64),
                4 => format!("{x:.3}"),
                5 => "-0".to_string(),
                _ if non_negative => "0.0".to_string(),
                _ => "1e999".to_string(),
            };
            let v = text.parse().expect("generated number parses");
            (text, v)
        }

        /// String literal text and its decoded value.
        fn string(&mut self) -> (String, String) {
            let (mut text, mut val) = (String::from('"'), String::new());
            for _ in 0..self.rng.range_u64(1, 4) {
                let (t, v) = match self.rng.next_below(9) {
                    0 => {
                        self.hit("escaped_newline");
                        ("\\n".to_string(), "\n".to_string())
                    }
                    1 => {
                        self.hit("escaped_e_acute");
                        ("\\u00e9".to_string(), "é".to_string())
                    }
                    2 => {
                        self.hit("surrogate_pair");
                        ("\\ud83d\\ude00".to_string(), "😀".to_string())
                    }
                    3 => {
                        self.hit("multibyte");
                        ("é中😀".to_string(), "é中😀".to_string())
                    }
                    4 => ("\\\"\\\\\\/\\t".to_string(), "\"\\/\t".to_string()),
                    _ => {
                        let s = format!("T1-{}", self.rng.next_below(100));
                        (s.clone(), s)
                    }
                };
                text.push_str(&t);
                val.push_str(&v);
            }
            text.push('"');
            (text, val)
        }

        fn key(&mut self, name: &str) -> String {
            let mut chars = name.chars();
            match chars.next() {
                Some(c) if self.rng.chance(0.1) => {
                    self.hit("escaped_key");
                    format!("\"\\u{:04x}{}\"", c as u32, chars.as_str())
                }
                _ => format!("\"{name}\""),
            }
        }

        fn any(&mut self, depth: u32) -> String {
            let kinds = if depth < 2 { 7 } else { 5 };
            match self.rng.next_below(kinds) {
                0 => "null".to_string(),
                1 => "true".to_string(),
                2 => "false".to_string(),
                3 => self.number(false).0,
                4 => self.string().0,
                5 => {
                    self.hit("nested");
                    let items: Vec<String> = (0..self.rng.next_below(4))
                        .map(|_| format!("{}{}{}", self.ws(), self.any(depth + 1), self.ws()))
                        .collect();
                    format!("[{}]", items.join(","))
                }
                _ => {
                    self.hit("nested");
                    let members: Vec<String> = (0..self.rng.next_below(4))
                        .map(|_| {
                            let key = *self.rng.choose(&EXTRA_KEYS);
                            let value = self.any(depth + 1);
                            self.member(key, value)
                        })
                        .collect();
                    format!("{{{}}}", members.join(","))
                }
            }
        }

        fn member(&mut self, name: &str, value: String) -> String {
            let key = self.key(name);
            format!(
                "{}{key}{}:{}{value}{}",
                self.ws(),
                self.ws(),
                self.ws(),
                self.ws()
            )
        }

        fn core_value(&mut self, k: usize) -> (String, Val) {
            match k {
                0 if self.rng.chance(0.04) => {
                    self.hit("bad_time");
                    let t = *self.rng.choose(&["-1", "-0.5", "1e999", "-1e999"]);
                    (t.to_string(), Val::Num(t.parse().expect("parses")))
                }
                1 | 2 => {
                    let (t, v) = self.string();
                    (t, Val::Str(v))
                }
                _ => {
                    let (t, v) = self.number(k == 0);
                    (t, Val::Num(v))
                }
            }
        }

        /// A value of the wrong type for core member `k`.
        fn wrong_value(&mut self, k: usize) -> String {
            let choices: &[&str] = if k == 1 || k == 2 {
                &["5", "null", "true", "[\"a\"]", "{\"node\":\"a\"}"]
            } else {
                &["\"late\"", "null", "false", "[1]", "{}"]
            };
            self.rng.choose(choices).to_string()
        }

        /// One record line and the record a reader must return for it
        /// (`None`: it must be rejected).
        fn record(&mut self, wrong_type: bool) -> (String, Option<MonitorRecord>) {
            let mut members: Vec<(String, usize, Val)> = Vec::new();
            for (k, name) in CORE.iter().enumerate() {
                let (text, val) = self.core_value(k);
                members.push((self.member(name, text), k, val));
            }
            if wrong_type {
                let k = self.rng.index(4);
                let text = self.wrong_value(k);
                members[k] = (self.member(CORE[k], text), k, Val::Other);
            }
            if self.rng.chance(0.3) {
                self.hit("extra");
                for _ in 0..self.rng.range_u64(1, 3) {
                    let key = *self.rng.choose(&EXTRA_KEYS);
                    let value = self.any(0);
                    members.push((self.member(key, value), usize::MAX, Val::Other));
                }
            }
            if self.rng.chance(0.25) {
                self.hit("duplicate");
                let k = self.rng.index(4);
                let (text, val) = if self.rng.chance(0.5) {
                    self.core_value(k)
                } else {
                    (self.wrong_value(k), Val::Other)
                };
                members.push((self.member(CORE[k], text), k, val));
            }
            if self.rng.chance(0.4) {
                self.hit("reordered");
                self.rng.shuffle(&mut members);
            }
            // what `Json::get` sees: the first occurrence of each field
            let first = |k: usize| members.iter().find(|m| m.1 == k).map(|m| &m.2);
            let expected = match (first(0), first(1), first(2), first(3)) {
                (Some(Val::Num(t)), Some(Val::Str(n)), Some(Val::Str(m)), Some(Val::Num(v)))
                    if t.is_finite() && *t >= 0.0 =>
                {
                    Some(MonitorRecord::new(*t, n.clone(), m.clone(), *v))
                }
                _ => None,
            };
            let body: Vec<&str> = members.iter().map(|m| m.0.as_str()).collect();
            let line = format!("{}{{{}}}{}", self.ws(), body.join(","), self.ws());
            (line, expected)
        }

        /// A document and the trace a reader must return for it.
        fn document(&mut self, mutation: Mutation) -> (String, Option<Trace>) {
            let n = self.rng.range_u64(1, 6) as usize;
            let wrong_at = (mutation == Mutation::WrongType).then(|| self.rng.index(n));
            let mut lines = Vec::new();
            let mut records = Some(Vec::new());
            for i in 0..n {
                if self.rng.chance(0.15) {
                    self.hit("blank");
                    let blank = *self.rng.choose(&["", "  \t", " \r", "\u{a0}", "\u{2003} "]);
                    lines.push(blank.to_string());
                }
                let (line, rec) = self.record(wrong_at == Some(i));
                lines.push(line);
                match (rec, records.as_mut()) {
                    (Some(r), Some(v)) => v.push(r),
                    _ => records = None,
                }
            }
            if mutation == Mutation::NonObject {
                let at = self.rng.index(lines.len() + 1);
                let not_object = [
                    "[1,2]",
                    "\"T0\"",
                    "5",
                    "null",
                    "true",
                    "[]",
                    "[{\"time\":1}]",
                ];
                lines.insert(at, self.rng.choose(&not_object).to_string());
                records = None;
            }
            let mut doc = String::new();
            for (i, line) in lines.iter().enumerate() {
                doc.push_str(line);
                if i + 1 == lines.len() && self.rng.chance(0.3) {
                    self.hit("no_final_newline");
                } else if self.rng.chance(0.2) {
                    self.hit("crlf");
                    doc.push_str("\r\n");
                } else {
                    doc.push('\n');
                }
            }
            (doc, records.map(Trace::from_records))
        }

        /// Removes one randomly chosen `byte` from `doc`, if it has any.
        fn drop_one(&mut self, doc: &mut Vec<u8>, byte: u8) {
            let at: Vec<usize> = (0..doc.len()).filter(|&i| doc[i] == byte).collect();
            if !at.is_empty() {
                doc.remove(*self.rng.choose(&at));
            }
        }

        fn mutate(&mut self, doc: String, mutation: Mutation) -> Vec<u8> {
            let mut doc = doc.into_bytes();
            match mutation {
                Mutation::Flip => {
                    let at = self.rng.index(doc.len());
                    doc[at] ^= 1 << self.rng.next_below(8);
                    self.hit("flip");
                }
                Mutation::Truncate => {
                    doc.truncate(self.rng.index(doc.len()));
                    self.hit("truncate");
                }
                Mutation::DropQuote => {
                    self.drop_one(&mut doc, b'"');
                    self.hit("drop_quote");
                }
                Mutation::DropColon => {
                    self.drop_one(&mut doc, b':');
                    self.hit("drop_colon");
                }
                Mutation::None | Mutation::WrongType | Mutation::NonObject => {}
            }
            doc
        }
    }

    /// The one-pass reader against the tree-building reference on seeded
    /// documents (reordered, extra, nested and duplicate members, escapes,
    /// multi-byte UTF-8, whitespace, CRLF, blank lines, no final newline)
    /// and byte-level mutations of them: same trace bit for bit, or both
    /// reject. Unmutated documents are also checked against the trace the
    /// generator meant, which pins string decoding and first-occurrence
    /// field selection independently of the shared parser.
    #[test]
    fn one_pass_reader_matches_tree_reference() {
        let mut g = Gen {
            rng: SimRng::new(0x7ACE_10AD),
            hits: BTreeMap::new(),
        };
        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..1400 {
            let mutation = MUTATIONS[case % MUTATIONS.len()];
            let (text, meant) = g.document(mutation);
            if matches!(
                mutation,
                Mutation::None | Mutation::WrongType | Mutation::NonObject
            ) {
                if mutation != Mutation::None {
                    g.hit(if mutation == Mutation::WrongType {
                        "wrong_type"
                    } else {
                        "non_object"
                    });
                }
                let got = read_trace(text.as_bytes()).ok();
                let agrees = match (&got, &meant) {
                    (Some(a), Some(b)) => same_bits(a, b),
                    (None, None) => true,
                    _ => false,
                };
                assert!(agrees, "case {case}: {got:?}, meant {meant:?}, on {text:?}");
            }
            let doc = g.mutate(text, mutation);
            let got = read_trace(doc.as_slice());
            let want = reference(&doc);
            let shown = String::from_utf8_lossy(&doc);
            match (&got, &want) {
                (Ok(a), Some(b)) => {
                    assert!(same_bits(a, b), "case {case}: traces differ on {shown:?}");
                    accepted += 1;
                }
                (Err(e), None) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    assert!(e.to_string().starts_with("line "), "unpositioned: {e}");
                    rejected += 1;
                }
                _ => panic!(
                    "case {case} ({mutation:?}): one-pass {:?}, reference {:?}, on {shown:?}",
                    got.map(|t| t.len()),
                    want.map(|t| t.len())
                ),
            }
        }
        for class in [
            "reordered",
            "extra",
            "nested",
            "duplicate",
            "escaped_newline",
            "escaped_e_acute",
            "surrogate_pair",
            "multibyte",
            "escaped_key",
            "whitespace",
            "crlf",
            "blank",
            "no_final_newline",
            "bad_time",
            "wrong_type",
            "non_object",
            "flip",
            "truncate",
            "drop_quote",
            "drop_colon",
        ] {
            let hits = g.hits.get(class).copied().unwrap_or(0);
            assert!(hits >= 50, "class {class}: {hits} hits");
        }
        assert!(
            accepted >= 150 && rejected >= 150,
            "{accepted} accepted, {rejected} rejected"
        );
    }
}
