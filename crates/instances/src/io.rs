//! Instance (de)serialization with typed, located errors.
//!
//! QBSS instances — including the hidden exact loads — round-trip
//! through JSON so experiments are reproducible from recorded files and
//! the CLI can pipe instances between `generate`, `run` and `compare`
//! subcommands. A CSV interop format is provided for spreadsheets and
//! external trace tooling.
//!
//! Both parsers are hand-rolled (the workspace is dependency-free) and
//! report an [`IoError`] carrying the offending **line number** and, for
//! semantically malformed jobs, the **job id** and the underlying
//! [`ModelError`]. `NaN`/`Infinity` tokens are *accepted* by the JSON
//! number grammar so that fault-injected files fail with a typed model
//! error rather than an opaque syntax error.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use qbss_core::error::ModelError;
use qbss_core::model::{QJob, QbssInstance};
use qbss_core::outcome::QbssOutcome;
use qbss_telemetry::JsonValue;

/// The CSV header emitted by [`to_csv`] and required by [`from_csv`].
pub const CSV_HEADER: &str = "id,release,deadline,query_load,upper_bound,exact";

/// A typed instance-I/O failure.
///
/// Line numbers are 1-based positions in the *original* text (comments
/// and blank lines included), so editors can jump straight to the
/// offending row.
#[derive(Debug)]
pub enum IoError {
    /// The file itself could not be read or written.
    File {
        /// Path that failed.
        path: PathBuf,
        /// Underlying OS error.
        source: std::io::Error,
    },
    /// The text is not well-formed JSON/CSV.
    Syntax {
        /// 1-based line of the offending token.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The text parsed, but a job violates the QBSS model.
    Model {
        /// 1-based line where the offending job starts.
        line: usize,
        /// The model violation (carries the job id).
        source: ModelError,
    },
    /// An in-memory instance is too malformed to serialize.
    Unserializable {
        /// The model violation (carries the job id).
        source: ModelError,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::File { path, source } => write!(f, "cannot access {}: {source}", path.display()),
            Self::Syntax { line, message } => write!(f, "line {line}: {message}"),
            Self::Model { line, source } => {
                write!(f, "line {line}: malformed job {}: {source}", source.job())
            }
            Self::Unserializable { source } => {
                write!(f, "cannot serialize malformed job {}: {source}", source.job())
            }
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::File { source, .. } => Some(source),
            Self::Syntax { .. } => None,
            Self::Model { source, .. } | Self::Unserializable { source } => Some(source),
        }
    }
}

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

/// Serializes a **valid** instance to pretty JSON; a malformed instance
/// is rejected as [`IoError::Unserializable`] instead of producing a
/// file that cannot be read back.
pub fn to_json(inst: &QbssInstance) -> Result<String, IoError> {
    inst.validate().map_err(|source| IoError::Unserializable { source })?;
    let mut s = String::from("{\n  \"jobs\": [");
    for (i, j) in inst.jobs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\n      \"id\": {},\n      \"release\": {},\n      \"deadline\": {},\n      \
             \"query_load\": {},\n      \"upper_bound\": {},\n      \"exact\": {}\n    }}",
            j.id,
            j.release,
            j.deadline,
            j.query_load,
            j.upper_bound,
            j.reveal_exact(),
        ));
    }
    if !inst.jobs.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}");
    Ok(s)
}

/// Serializes an outcome (algorithm, decisions, schedule) to pretty
/// JSON for `run --save-outcome`. Infallible: non-finite numbers — which
/// only unvalidated outcomes can contain — are emitted as `null`.
pub fn outcome_to_json(out: &QbssOutcome) -> String {
    fn num(x: f64) -> String {
        if x.is_finite() {
            format!("{x}")
        } else {
            "null".into()
        }
    }
    let mut s = format!("{{\n  \"algorithm\": {},\n  \"decisions\": [", quote(&out.algorithm));
    for (i, d) in out.decisions.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let split = d.split.map_or("null".into(), num);
        s.push_str(&format!(
            "\n    {{ \"job\": {}, \"queried\": {}, \"split\": {split} }}",
            d.job, d.queried
        ));
    }
    if !out.decisions.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str(&format!(
        "],\n  \"schedule\": {{\n    \"machines\": {},\n    \"slices\": [",
        out.schedule.machines
    ));
    for (i, sl) in out.schedule.slices.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n      {{ \"job\": {}, \"machine\": {}, \"start\": {}, \"end\": {}, \"speed\": {} }}",
            sl.job,
            sl.machine,
            num(sl.start),
            num(sl.end),
            num(sl.speed)
        ));
    }
    if !out.schedule.slices.is_empty() {
        s.push_str("\n    ");
    }
    s.push_str("]\n  }\n}");
    s
}

fn quote(s: &str) -> String {
    let mut q = String::with_capacity(s.len() + 2);
    q.push('"');
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            '\n' => q.push_str("\\n"),
            '\t' => q.push_str("\\t"),
            '\r' => q.push_str("\\r"),
            c if (c as u32) < 0x20 => q.push_str(&format!("\\u{:04x}", c as u32)),
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

// ---------------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------------

/// A minimal recursive-descent JSON reader that tracks line numbers.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

fn describe(b: Option<u8>) -> String {
    match b {
        Some(b) => format!("found `{}`", b as char),
        None => "found end of input".into(),
    }
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self { bytes: text.as_bytes(), pos: 0, line: 1 }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if let Some(b) = b {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
            }
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn err(&self, message: impl Into<String>) -> IoError {
        IoError::Syntax { line: self.line, message: message.into() }
    }

    fn expect(&mut self, c: u8) -> Result<(), IoError> {
        self.skip_ws();
        match self.peek() {
            Some(b) if b == c => {
                self.bump();
                Ok(())
            }
            other => Err(self.err(format!("expected `{}`, {}", c as char, describe(other)))),
        }
    }

    /// Consumes `word` if it is next (no whitespace skipping).
    fn eat_word(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            for _ in 0..word.len() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn parse_string(&mut self) -> Result<String, IoError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            code = code * 16 + d;
                        }
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(self.err(format!("bad escape, {}", describe(other)))),
                },
                Some(b) if b < 0x80 => s.push(b as char),
                Some(b) => {
                    // Re-assemble a UTF-8 multi-byte sequence.
                    let start = self.pos - 1;
                    let mut rest = 0;
                    while self.peek().is_some_and(|n| n & 0xC0 == 0x80) {
                        self.bump();
                        rest += 1;
                    }
                    match std::str::from_utf8(&self.bytes[start..start + 1 + rest]) {
                        Ok(frag) => s.push_str(frag),
                        Err(_) => return Err(self.err(format!("invalid UTF-8 byte 0x{b:02x}"))),
                    }
                }
            }
        }
    }

    /// Parses a JSON number. `NaN`, `Infinity` and `-Infinity` are
    /// accepted on purpose (see module docs).
    fn parse_number(&mut self) -> Result<f64, IoError> {
        self.skip_ws();
        if self.eat_word("NaN") {
            return Ok(f64::NAN);
        }
        if self.eat_word("Infinity") {
            return Ok(f64::INFINITY);
        }
        if self.eat_word("-Infinity") {
            return Ok(f64::NEG_INFINITY);
        }
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.bump();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if text.is_empty() {
            return Err(self.err(format!("expected a number, {}", describe(self.peek()))));
        }
        text.parse::<f64>().map_err(|e| self.err(format!("bad number `{text}`: {e}")))
    }

    /// Parses and discards an arbitrary JSON value (unknown fields).
    fn skip_value(&mut self) -> Result<(), IoError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.parse_string().map(drop),
            Some(b'{') => {
                self.bump();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.bump();
                    return Ok(());
                }
                loop {
                    self.parse_string()?;
                    self.expect(b':')?;
                    self.skip_value()?;
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(()),
                        other => {
                            return Err(self.err(format!("expected `,` or `}}`, {}", describe(other))))
                        }
                    }
                }
            }
            Some(b'[') => {
                self.bump();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.bump();
                    return Ok(());
                }
                loop {
                    self.skip_value()?;
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(()),
                        other => {
                            return Err(self.err(format!("expected `,` or `]`, {}", describe(other))))
                        }
                    }
                }
            }
            Some(b't') if self.eat_word("true") => Ok(()),
            Some(b'f') if self.eat_word("false") => Ok(()),
            Some(b'n') if self.eat_word("null") => Ok(()),
            _ => self.parse_number().map(drop),
        }
    }

    /// Parses `{"jobs": [...]}`, recording the start line of each job.
    fn parse_instance(&mut self) -> Result<(Vec<QJob>, Vec<usize>), IoError> {
        self.expect(b'{')?;
        let mut jobs = None;
        let mut lines = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
        } else {
            loop {
                let key = self.parse_string()?;
                self.expect(b':')?;
                if key == "jobs" {
                    if jobs.is_some() {
                        return Err(self.err("duplicate `jobs` key"));
                    }
                    jobs = Some(self.parse_jobs(&mut lines)?);
                } else {
                    self.skip_value()?;
                }
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    other => {
                        return Err(self.err(format!("expected `,` or `}}`, {}", describe(other))))
                    }
                }
            }
        }
        match jobs {
            Some(j) => Ok((j, lines)),
            None => Err(self.err("missing `jobs` array")),
        }
    }

    fn parse_jobs(&mut self, lines: &mut Vec<usize>) -> Result<Vec<QJob>, IoError> {
        self.expect(b'[')?;
        let mut jobs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(jobs);
        }
        loop {
            self.skip_ws();
            lines.push(self.line);
            jobs.push(self.parse_job()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(jobs),
                other => return Err(self.err(format!("expected `,` or `]`, {}", describe(other)))),
            }
        }
    }

    fn parse_job(&mut self) -> Result<QJob, IoError> {
        self.skip_ws();
        let start_line = self.line;
        self.expect(b'{')?;
        let mut id: Option<u32> = None;
        const NAMES: [&str; 5] = ["release", "deadline", "query_load", "upper_bound", "exact"];
        let mut fields: [Option<f64>; 5] = [None; 5];
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
        } else {
            loop {
                let key = self.parse_string()?;
                self.expect(b':')?;
                if key == "id" {
                    let v = self.parse_number()?;
                    if !(v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= f64::from(u32::MAX))
                    {
                        return Err(
                            self.err(format!("job id must be a non-negative integer, got {v}"))
                        );
                    }
                    id = Some(v as u32);
                } else if let Some(i) = NAMES.iter().position(|n| *n == key) {
                    fields[i] = Some(self.parse_number()?);
                } else {
                    self.skip_value()?;
                }
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    other => {
                        return Err(self.err(format!("expected `,` or `}}`, {}", describe(other))))
                    }
                }
            }
        }
        let missing = |name: &str| IoError::Syntax {
            line: start_line,
            message: format!("job object is missing field `{name}`"),
        };
        let id = id.ok_or_else(|| missing("id"))?;
        let mut v = [0.0f64; 5];
        for (i, name) in NAMES.iter().enumerate() {
            v[i] = fields[i].ok_or_else(|| missing(name))?;
        }
        Ok(QJob::new_unchecked(id, v[0], v[1], v[2], v[3], v[4]))
    }
}

/// Parses an instance from JSON, then validates it. Model violations
/// report the line where the offending job starts and its id.
pub fn from_json(json: &str) -> Result<QbssInstance, IoError> {
    let mut p = Parser::new(json);
    let (jobs, job_lines) = p.parse_instance()?;
    p.skip_ws();
    if p.peek().is_some() {
        return Err(p.err("trailing characters after JSON document"));
    }
    finish(jobs, &job_lines)
}

/// Reads one job's six fields (`id`, `release`, `deadline`,
/// `query_load`, `upper_bound`, `exact`) from a parsed JSON object, the
/// job shape of streaming arrivals. The values are *not* model-validated:
/// the streaming engine rejects malformed jobs with its typed errors.
/// The error names the missing or ill-typed field and reads as a
/// predicate; callers prefix their own subject ("job object", "event").
pub fn job_from_value(v: &JsonValue) -> Result<QJob, String> {
    let id = v
        .get("id")
        .and_then(JsonValue::as_u64)
        .filter(|&id| id <= u64::from(u32::MAX))
        .ok_or_else(|| "needs an integer `id`".to_string())?;
    let num = |name: &str| {
        v.get(name)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("needs a number field `{name}`"))
    };
    Ok(QJob::new_unchecked(
        id as u32,
        num("release")?,
        num("deadline")?,
        num("query_load")?,
        num("upper_bound")?,
        num("exact")?,
    ))
}

/// Builds the instance and maps a validation failure back to the source
/// line of the offending job.
fn finish(jobs: Vec<QJob>, job_lines: &[usize]) -> Result<QbssInstance, IoError> {
    let inst = QbssInstance::new(jobs);
    if let Err(source) = inst.validate() {
        let line = inst
            .jobs
            .iter()
            .position(|j| j.id == source.job())
            .and_then(|i| job_lines.get(i).copied())
            .unwrap_or(1);
        return Err(IoError::Model { line, source });
    }
    Ok(inst)
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

/// Writes an instance to a file as JSON.
pub fn write_file(inst: &QbssInstance, path: &Path) -> Result<(), IoError> {
    let json = to_json(inst)?;
    qbss_telemetry::debug!(
        "instances.io",
        { jobs = inst.jobs.len(), bytes = json.len(), path = path.display().to_string() },
        "writing instance to {}",
        path.display()
    );
    fs::write(path, json)
        .map_err(|source| IoError::File { path: path.to_path_buf(), source })
}

/// Reads and validates an instance from a JSON file.
pub fn read_file(path: &Path) -> Result<QbssInstance, IoError> {
    let json = fs::read_to_string(path)
        .map_err(|source| IoError::File { path: path.to_path_buf(), source })?;
    let inst = from_json(&json)?;
    qbss_telemetry::debug!(
        "instances.io",
        { jobs = inst.jobs.len(), bytes = json.len(), path = path.display().to_string() },
        "read instance from {}",
        path.display()
    );
    Ok(inst)
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

/// Serializes an instance to CSV with the header [`CSV_HEADER`] — the
/// interop format for spreadsheets and external trace tooling. Floats
/// are emitted with full round-trip precision.
pub fn to_csv(inst: &QbssInstance) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for j in &inst.jobs {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            j.id,
            j.release,
            j.deadline,
            j.query_load,
            j.upper_bound,
            j.reveal_exact()
        ));
    }
    out
}

/// Parses an instance from the CSV format of [`to_csv`] (header row
/// required; blank lines and `#` comments ignored), then validates it.
/// Line numbers in errors count *all* lines of the input, comments
/// included.
pub fn from_csv(csv: &str) -> Result<QbssInstance, IoError> {
    let mut rows = csv
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
    let (header_line, header) = rows
        .next()
        .ok_or(IoError::Syntax { line: 1, message: "empty CSV".into() })?;
    if header != CSV_HEADER {
        return Err(IoError::Syntax {
            line: header_line,
            message: format!("unexpected CSV header: `{header}`"),
        });
    }
    let mut jobs = Vec::new();
    let mut job_lines = Vec::new();
    for (lineno, line) in rows {
        let syntax =
            |message: String| IoError::Syntax { line: lineno, message };
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != 6 {
            return Err(syntax(format!("expected 6 fields, got {}", fields.len())));
        }
        let id: u32 = fields[0].parse().map_err(|e| syntax(format!("bad id: {e}")))?;
        let mut v = [0.0f64; 5];
        for (slot, field) in v.iter_mut().zip(&fields[1..]) {
            *slot = field
                .parse::<f64>()
                .map_err(|e| syntax(format!("bad number `{field}`: {e}")))?;
        }
        // Validate per job so malformed data reports this line, and keep
        // instance-level checks (duplicate ids) for the `finish` pass.
        let job = QJob::try_new(id, v[0], v[1], v[2], v[3], v[4])
            .map_err(|source| IoError::Model { line: lineno, source })?;
        jobs.push(job);
        job_lines.push(lineno);
    }
    finish(jobs, &job_lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn json_roundtrip() {
        let inst = generate(&GenConfig::online_default(25, 11));
        let back = from_json(&to_json(&inst).expect("serialize")).expect("roundtrip");
        assert_eq!(back, inst);
    }

    #[test]
    fn file_roundtrip() {
        let inst = generate(&GenConfig::common_deadline(10, 4.0, 3));
        let dir = std::env::temp_dir().join("qbss-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.json");
        write_file(&inst, &path).expect("write");
        let back = read_file(&path).expect("read");
        assert_eq!(back, inst);
    }

    #[test]
    fn invalid_json_rejected() {
        assert!(matches!(from_json("{"), Err(IoError::Syntax { .. })));
        assert!(matches!(from_json("{}"), Err(IoError::Syntax { .. })));
        assert!(from_json(r#"{"jobs": [{"id": 0}]}"#)
            .unwrap_err()
            .to_string()
            .contains("missing field `release`"));
    }

    #[test]
    fn json_model_errors_carry_line_and_id() {
        // Structurally valid JSON but a malformed job (c > w) on line 3.
        let json = "{\"jobs\":[\n  {\"id\":0,\"release\":0,\"deadline\":1,\"query_load\":0.5,\"upper_bound\":1,\"exact\":0.5},\n  {\"id\":7,\"release\":0,\"deadline\":1,\"query_load\":5.0,\"upper_bound\":1,\"exact\":0.5}\n]}";
        match from_json(json) {
            Err(IoError::Model { line, source }) => {
                assert_eq!(line, 3);
                assert_eq!(source.job(), 7);
                assert!(source.to_string().contains("query load"), "{source}");
            }
            other => panic!("expected a model error, got {other:?}"),
        }
    }

    #[test]
    fn json_accepts_nan_tokens_as_model_errors() {
        let json = r#"{"jobs":[{"id":3,"release":NaN,"deadline":1,"query_load":0.5,"upper_bound":1,"exact":0.5}]}"#;
        let err = from_json(json).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn outcome_json_is_well_formed() {
        let inst = generate(&GenConfig::online_default(6, 2));
        let out = qbss_core::online::avrq(&inst);
        let json = outcome_to_json(&out);
        let mut p = Parser::new(&json);
        p.skip_value().expect("outcome JSON parses");
        p.skip_ws();
        assert_eq!(p.peek(), None, "trailing garbage in {json}");
        assert!(json.contains("\"algorithm\": \"AVRQ\""));
        assert!(json.contains("\"slices\""));
    }

    #[test]
    fn csv_roundtrip() {
        let inst = generate(&GenConfig::online_default(20, 5));
        let back = from_csv(&to_csv(&inst)).expect("roundtrip");
        assert_eq!(back, inst);
    }

    #[test]
    fn csv_tolerates_comments_and_blank_lines() {
        let csv = "\
# a comment
id,release,deadline,query_load,upper_bound,exact

0,0.0,1.0,0.5,2.0,0.25
";
        let inst = from_csv(csv).expect("parse");
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.jobs[0].reveal_exact(), 0.25);
    }

    #[test]
    fn csv_rejects_bad_header_and_rows() {
        assert!(from_csv("nope\n").is_err());
        let bad_arity = "id,release,deadline,query_load,upper_bound,exact\n0,1,2\n";
        assert!(from_csv(bad_arity).unwrap_err().to_string().contains("6 fields"));
        let bad_job = "id,release,deadline,query_load,upper_bound,exact\n0,0,1,5.0,1.0,0.5\n";
        assert!(from_csv(bad_job).unwrap_err().to_string().contains("malformed job"));
        let bad_num = "id,release,deadline,query_load,upper_bound,exact\n0,0,x,0.5,1.0,0.5\n";
        assert!(from_csv(bad_num).is_err());
    }

    #[test]
    fn csv_errors_carry_true_line_numbers() {
        let csv = "# leading comment\nid,release,deadline,query_load,upper_bound,exact\n\n0,0,1,5.0,1.0,0.5\n";
        match from_csv(csv) {
            // Job row is physical line 4 (comment and blank line counted).
            Err(IoError::Model { line: 4, source }) => assert_eq!(source.job(), 0),
            other => panic!("expected a model error on line 4, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_ids_rejected_at_instance_level() {
        let csv = "id,release,deadline,query_load,upper_bound,exact\n\
                   0,0,1,0.2,1.0,0.5\n0,0,2,0.2,1.0,0.5\n";
        let err = from_csv(csv).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn unserializable_instances_are_rejected() {
        use qbss_core::model::QJob;
        let inst = QbssInstance::new(vec![QJob::new_unchecked(0, 0.0, 1.0, f64::NAN, 1.0, 0.5)]);
        assert!(matches!(to_json(&inst), Err(IoError::Unserializable { .. })));
    }
}
