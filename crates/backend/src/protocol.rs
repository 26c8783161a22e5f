//! The wire protocol between the harness and a backend worker process.
//!
//! Frames are length-prefixed: `<len>\n<payload>`, where `len` is the
//! payload's byte length in ASCII decimal. Length prefixing means payloads
//! need no escaping — SQL text, error messages, and blob bytes travel
//! verbatim.
//!
//! Requests (first space-separated token is the operation):
//!
//! * `HELLO` — handshake; the worker answers `HELLO <proto> <pid>`.
//! * `EXEC <sql>` — execute one statement; the worker answers
//!   `RES <result>` (see [`encode_result`]) or `ERR <kind> <len>:<msg>`.
//! * `RESET` — drop all database state, keep the provisioned environment
//!   (registered files/extensions); answered with `OK`.
//! * `FILE <len>:<path><n>:<line>*` — register a data file; `OK`.
//! * `EXT <len>:<name>` — register an available extension; `OK`.
//! * `COV` — report the engine coverage accumulated since the worker
//!   started (it survives `RESET`); answered with `COV …` (see
//!   [`encode_coverage`]).
//!
//! Result values are encoded exactly — floats ship as the hex of their
//! IEEE-754 bit pattern, so the parent renders byte-identically to an
//! in-process run. Rendering stays parent-side (the parent knows the
//! dialect and client kind); the worker only ever ships typed values.

use squality_engine::{Coverage, EngineError, ErrorKind, QueryResult, Value};
use std::io::{BufRead, Write};

/// Protocol version, exchanged in the HELLO handshake. Bump on any wire
/// format change.
pub const PROTO_VERSION: u32 = 2;

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    writeln!(w, "{}", payload.len())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one length-prefixed frame. `Ok(None)` is a clean EOF (the peer
/// closed the stream between frames); a malformed length line or a
/// truncated payload is an `InvalidData` error.
pub fn read_frame(r: &mut impl BufRead) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_line = String::new();
    if r.read_line(&mut len_line)? == 0 {
        return Ok(None);
    }
    let len: usize = len_line.trim_end_matches('\n').parse().map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("malformed frame length {:?}", len_line.trim_end()),
        )
    })?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Stable wire name of an [`ErrorKind`].
pub fn error_kind_name(kind: ErrorKind) -> &'static str {
    match kind {
        ErrorKind::Syntax => "Syntax",
        ErrorKind::UnsupportedStatement => "UnsupportedStatement",
        ErrorKind::UnknownFunction => "UnknownFunction",
        ErrorKind::UnsupportedType => "UnsupportedType",
        ErrorKind::UnsupportedOperator => "UnsupportedOperator",
        ErrorKind::UnknownConfig => "UnknownConfig",
        ErrorKind::Catalog => "Catalog",
        ErrorKind::Constraint => "Constraint",
        ErrorKind::Conversion => "Conversion",
        ErrorKind::Arithmetic => "Arithmetic",
        ErrorKind::Transaction => "Transaction",
        ErrorKind::ExtensionMissing => "ExtensionMissing",
        ErrorKind::FileNotFound => "FileNotFound",
        ErrorKind::Fatal => "Fatal",
        ErrorKind::Hang => "Hang",
        ErrorKind::NotImplemented => "NotImplemented",
    }
}

/// Parse a wire [`ErrorKind`] name.
pub fn parse_error_kind(name: &str) -> Result<ErrorKind, String> {
    Ok(match name {
        "Syntax" => ErrorKind::Syntax,
        "UnsupportedStatement" => ErrorKind::UnsupportedStatement,
        "UnknownFunction" => ErrorKind::UnknownFunction,
        "UnsupportedType" => ErrorKind::UnsupportedType,
        "UnsupportedOperator" => ErrorKind::UnsupportedOperator,
        "UnknownConfig" => ErrorKind::UnknownConfig,
        "Catalog" => ErrorKind::Catalog,
        "Constraint" => ErrorKind::Constraint,
        "Conversion" => ErrorKind::Conversion,
        "Arithmetic" => ErrorKind::Arithmetic,
        "Transaction" => ErrorKind::Transaction,
        "ExtensionMissing" => ErrorKind::ExtensionMissing,
        "FileNotFound" => ErrorKind::FileNotFound,
        "Fatal" => ErrorKind::Fatal,
        "Hang" => ErrorKind::Hang,
        "NotImplemented" => ErrorKind::NotImplemented,
        other => return Err(format!("unknown error kind {other:?}")),
    })
}

fn enc_count(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(n.to_string().as_bytes());
    out.push(b':');
}

fn enc_bytes(out: &mut Vec<u8>, tag: u8, bytes: &[u8]) {
    out.push(tag);
    enc_count(out, bytes.len());
    out.extend_from_slice(bytes);
}

fn enc_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(b'N'),
        Value::Integer(i) => {
            out.push(b'I');
            out.extend_from_slice(i.to_string().as_bytes());
            out.push(b';');
        }
        // Exact bit pattern: -0.0, NaN payloads, and subnormals all
        // round-trip, so parent-side rendering is byte-faithful.
        Value::Float(f) => {
            out.push(b'F');
            out.extend_from_slice(format!("{:016x}", f.to_bits()).as_bytes());
            out.push(b';');
        }
        Value::Boolean(b) => out.extend_from_slice(if *b { b"O1" } else { b"O0" }),
        Value::Text(t) => enc_bytes(out, b'T', t.as_bytes()),
        Value::Blob(b) => enc_bytes(out, b'B', b),
        Value::List(items) => {
            out.push(b'L');
            enc_count(out, items.len());
            for item in items {
                enc_value(out, item);
            }
        }
        Value::Struct(fields) => {
            out.push(b'S');
            enc_count(out, fields.len());
            for (name, value) in fields {
                enc_bytes(out, b'T', name.as_bytes());
                enc_value(out, value);
            }
        }
    }
}

/// A decode cursor over a response payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn byte(&mut self) -> Result<u8, String> {
        let b = *self.buf.get(self.pos).ok_or("truncated payload")?;
        self.pos += 1;
        Ok(b)
    }

    /// Read ASCII decimal digits up to (and consuming) `stop`.
    fn number(&mut self, stop: u8) -> Result<usize, String> {
        let start = self.pos;
        while self.pos < self.buf.len() && self.buf[self.pos] != stop {
            self.pos += 1;
        }
        if self.pos >= self.buf.len() {
            return Err("unterminated number".to_string());
        }
        let text = std::str::from_utf8(&self.buf[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        self.pos += 1;
        text.parse().map_err(|_| format!("malformed number {text:?}"))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|e| *e <= self.buf.len());
        let end = end.ok_or("truncated payload")?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn counted_bytes(&mut self) -> Result<&'a [u8], String> {
        let len = self.number(b':')?;
        self.take(len)
    }

    fn counted_str(&mut self) -> Result<&'a str, String> {
        std::str::from_utf8(self.counted_bytes()?).map_err(|_| "non-utf8 string".to_string())
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.byte()? {
            b'N' => Ok(Value::Null),
            b'I' => {
                let start = self.pos;
                while self.pos < self.buf.len() && self.buf[self.pos] != b';' {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.buf[start..self.pos])
                    .map_err(|_| "non-utf8 integer".to_string())?;
                self.pos += 1; // the ';'
                Ok(Value::Integer(text.parse().map_err(|_| format!("bad integer {text:?}"))?))
            }
            b'F' => {
                let hex = std::str::from_utf8(self.take(16)?)
                    .map_err(|_| "non-utf8 float".to_string())?;
                let bits =
                    u64::from_str_radix(hex, 16).map_err(|_| format!("bad float bits {hex:?}"))?;
                if self.byte()? != b';' {
                    return Err("unterminated float".to_string());
                }
                Ok(Value::Float(f64::from_bits(bits)))
            }
            b'O' => Ok(Value::Boolean(self.byte()? == b'1')),
            b'T' => Ok(Value::text(self.counted_str()?)),
            b'B' => Ok(Value::Blob(self.counted_bytes()?.to_vec())),
            b'L' => {
                let n = self.number(b':')?;
                (0..n).map(|_| self.value()).collect::<Result<Vec<_>, _>>().map(Value::List)
            }
            b'S' => {
                let n = self.number(b':')?;
                let mut fields = Vec::with_capacity(n);
                for _ in 0..n {
                    if self.byte()? != b'T' {
                        return Err("struct field name must be text".to_string());
                    }
                    let name = self.counted_str()?.to_string();
                    fields.push((name, self.value()?));
                }
                Ok(Value::Struct(fields))
            }
            other => Err(format!("unknown value tag {:?}", other as char)),
        }
    }
}

/// Encode a successful EXEC response: `RES C<n>:<col>* R<n>:<row>* A<n>;`.
pub fn encode_result(result: &QueryResult) -> Vec<u8> {
    let mut out = b"RES C".to_vec();
    // Rough pre-size: tags + a handful of bytes per cell.
    out.reserve(result.rows.len() * (result.columns.len() + 1) * 8);
    enc_count(&mut out, result.columns.len());
    for col in &result.columns {
        enc_bytes(&mut out, b'T', col.as_bytes());
    }
    out.push(b'R');
    enc_count(&mut out, result.rows.len());
    for row in &result.rows {
        enc_count(&mut out, row.len());
        for cell in row {
            enc_value(&mut out, cell);
        }
    }
    out.push(b'A');
    out.extend_from_slice(result.affected.to_string().as_bytes());
    out.push(b';');
    out
}

/// Encode an EXEC error response: `ERR <kind> <len>:<message>`.
pub fn encode_error(error: &EngineError) -> Vec<u8> {
    let mut out = b"ERR ".to_vec();
    out.extend_from_slice(error_kind_name(error.kind).as_bytes());
    out.push(b' ');
    enc_count(&mut out, error.message.len());
    out.extend_from_slice(error.message.as_bytes());
    out
}

/// Encode a COV response: `COV L<n>:<point>* B<n>:<point>*`, one counted
/// string per feature (`L`) and decision (`B`) point, tagged `1` when hit
/// and `0` when only registered.
pub fn encode_coverage(coverage: &Coverage) -> Vec<u8> {
    let mut out = b"COV ".to_vec();
    let sections: [(u8, Vec<(&str, bool)>); 2] =
        [(b'L', coverage.line_entries().collect()), (b'B', coverage.branch_entries().collect())];
    for (tag, points) in sections {
        out.push(tag);
        enc_count(&mut out, points.len());
        for (point, hit) in points {
            enc_bytes(&mut out, if hit { b'1' } else { b'0' }, point.as_bytes());
        }
    }
    out
}

/// A decoded worker response.
#[derive(Debug, PartialEq)]
pub enum Response {
    /// `OK` — RESET/FILE/EXT acknowledged.
    Ok,
    /// `HELLO <proto> <pid>`.
    Hello { proto: u32, pid: u32 },
    /// `RES ...` — a statement result.
    Result(QueryResult),
    /// `ERR ...` — the engine's error verdict on a statement.
    Error(EngineError),
    /// `COV ...` — the worker engine's accumulated coverage.
    Coverage(Coverage),
}

/// Decode a worker response payload.
pub fn parse_response(payload: &[u8]) -> Result<Response, String> {
    if payload == b"OK" {
        return Ok(Response::Ok);
    }
    if let Some(rest) = payload.strip_prefix(b"HELLO ") {
        let text = std::str::from_utf8(rest).map_err(|_| "non-utf8 hello".to_string())?;
        let mut parts = text.split(' ');
        let proto = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("malformed hello {text:?}"))?;
        let pid = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("malformed hello {text:?}"))?;
        return Ok(Response::Hello { proto, pid });
    }
    if let Some(rest) = payload.strip_prefix(b"RES ") {
        let mut cur = Cursor { buf: rest, pos: 0 };
        if cur.byte()? != b'C' {
            return Err("result must start with a column count".to_string());
        }
        let ncols = cur.number(b':')?;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            if cur.byte()? != b'T' {
                return Err("column name must be text".to_string());
            }
            columns.push(cur.counted_str()?.to_string());
        }
        if cur.byte()? != b'R' {
            return Err("missing row section".to_string());
        }
        let nrows = cur.number(b':')?;
        let mut rows = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let ncells = cur.number(b':')?;
            let mut row = Vec::with_capacity(ncells);
            for _ in 0..ncells {
                row.push(cur.value()?);
            }
            rows.push(row);
        }
        if cur.byte()? != b'A' {
            return Err("missing affected count".to_string());
        }
        let affected = cur.number(b';')?;
        if cur.pos != rest.len() {
            return Err("trailing bytes after result".to_string());
        }
        return Ok(Response::Result(QueryResult { columns, rows, affected }));
    }
    if let Some(rest) = payload.strip_prefix(b"ERR ") {
        let mut cur = Cursor { buf: rest, pos: 0 };
        let start = cur.pos;
        while cur.pos < rest.len() && rest[cur.pos] != b' ' {
            cur.pos += 1;
        }
        let kind = std::str::from_utf8(&rest[start..cur.pos])
            .map_err(|_| "non-utf8 error kind".to_string())
            .and_then(parse_error_kind)?;
        cur.pos += 1; // the ' '
        let message = cur.counted_str()?.to_string();
        return Ok(Response::Error(EngineError::new(kind, message)));
    }
    if let Some(rest) = payload.strip_prefix(b"COV ") {
        let mut cur = Cursor { buf: rest, pos: 0 };
        let mut coverage = Coverage::new();
        for tag in [b'L', b'B'] {
            if cur.byte()? != tag {
                return Err(format!("missing coverage section {:?}", tag as char));
            }
            for _ in 0..cur.number(b':')? {
                let hit = match cur.byte()? {
                    b'1' => true,
                    b'0' => false,
                    other => return Err(format!("bad coverage hit bit {:?}", other as char)),
                };
                let point = cur.counted_str()?;
                if tag == b'L' {
                    coverage.set_line(point, hit);
                } else {
                    coverage.set_branch(point, hit);
                }
            }
        }
        if cur.pos != rest.len() {
            return Err("trailing bytes after coverage".to_string());
        }
        return Ok(Response::Coverage(coverage));
    }
    Err(format!("unknown response ({} bytes)", payload.len()))
}

/// Encode a FILE provisioning request.
pub fn encode_file_request(path: &str, lines: &[String]) -> Vec<u8> {
    let mut out = b"FILE ".to_vec();
    enc_count(&mut out, path.len());
    out.extend_from_slice(path.as_bytes());
    enc_count(&mut out, lines.len());
    for line in lines {
        enc_count(&mut out, line.len());
        out.extend_from_slice(line.as_bytes());
    }
    out
}

/// Decode a FILE request body (after the `FILE ` prefix).
pub fn parse_file_request(rest: &[u8]) -> Result<(String, Vec<String>), String> {
    let mut cur = Cursor { buf: rest, pos: 0 };
    let path = cur.counted_str()?.to_string();
    let n = cur.number(b':')?;
    let mut lines = Vec::with_capacity(n);
    for _ in 0..n {
        lines.push(cur.counted_str()?.to_string());
    }
    Ok((path, lines))
}

/// Encode an EXT provisioning request.
pub fn encode_ext_request(name: &str) -> Vec<u8> {
    let mut out = b"EXT ".to_vec();
    enc_count(&mut out, name.len());
    out.extend_from_slice(name.as_bytes());
    out
}

/// Decode an EXT request body (after the `EXT ` prefix).
pub fn parse_ext_request(rest: &[u8]) -> Result<String, String> {
    let mut cur = Cursor { buf: rest, pos: 0 };
    Ok(cur.counted_str()?.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(result: QueryResult) {
        let wire = encode_result(&result);
        match parse_response(&wire).unwrap() {
            Response::Result(back) => assert_eq!(back, result),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"EXEC SELECT 1").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, "EXEC SELECT '\u{1F600}\nnewline'".as_bytes()).unwrap();
        let mut r = std::io::BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"EXEC SELECT 1");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap(),
            "EXEC SELECT '\u{1F600}\nnewline'".as_bytes()
        );
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn malformed_length_is_invalid_data() {
        let mut r = std::io::BufReader::new(&b"banana\nxx"[..]);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn results_roundtrip_exactly() {
        roundtrip(QueryResult { columns: vec![], rows: vec![], affected: 3 });
        roundtrip(QueryResult {
            columns: vec!["a".into(), "weird \"col\"\n".into()],
            rows: vec![
                vec![Value::Integer(i64::MIN), Value::text("x:y;z")],
                vec![Value::Null, Value::Boolean(true)],
            ],
            affected: 0,
        });
    }

    #[test]
    fn float_bit_patterns_survive() {
        let specials = [0.0f64, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, -1e300];
        let rows = vec![specials.iter().map(|f| Value::Float(*f)).collect::<Vec<_>>()];
        let wire = encode_result(&QueryResult {
            columns: vec!["f".into(); specials.len()],
            rows,
            affected: 0,
        });
        let Response::Result(back) = parse_response(&wire).unwrap() else { panic!() };
        for (got, want) in back.rows[0].iter().zip(specials) {
            let Value::Float(f) = got else { panic!("{got:?}") };
            assert_eq!(f.to_bits(), want.to_bits(), "{want}");
        }
    }

    #[test]
    fn nested_values_roundtrip() {
        roundtrip(QueryResult {
            columns: vec!["v".into()],
            rows: vec![vec![Value::Struct(vec![
                ("k".into(), Value::List(vec![Value::Integer(1), Value::Null])),
                ("b".into(), Value::Blob(vec![0, 255, 10, 58])),
            ])]],
            affected: 0,
        });
    }

    #[test]
    fn errors_roundtrip_with_kind() {
        let err = EngineError::new(ErrorKind::Catalog, "no such table: t1\nhint: 'x'");
        match parse_response(&encode_error(&err)).unwrap() {
            Response::Error(back) => {
                assert_eq!(back.kind, ErrorKind::Catalog);
                assert_eq!(back.message, err.message);
            }
            other => panic!("{other:?}"),
        }
        for kind in [
            ErrorKind::Syntax,
            ErrorKind::Fatal,
            ErrorKind::Hang,
            ErrorKind::NotImplemented,
            ErrorKind::ExtensionMissing,
        ] {
            assert_eq!(parse_error_kind(error_kind_name(kind)).unwrap(), kind);
        }
        assert!(parse_error_kind("Banana").is_err());
    }

    #[test]
    fn provisioning_requests_roundtrip() {
        let wire = encode_file_request("/srv/data/onek.data", &["1|a".into(), "2|b".into()]);
        let rest = wire.strip_prefix(b"FILE ").unwrap();
        let (path, lines) = parse_file_request(rest).unwrap();
        assert_eq!(path, "/srv/data/onek.data");
        assert_eq!(lines, vec!["1|a".to_string(), "2|b".to_string()]);
        let wire = encode_ext_request("regresslib");
        assert_eq!(parse_ext_request(wire.strip_prefix(b"EXT ").unwrap()).unwrap(), "regresslib");
    }

    #[test]
    fn coverage_roundtrips_exactly() {
        let mut coverage = Coverage::new();
        coverage.register_line("stmt:SELECT");
        coverage.hit_line("fn:count");
        coverage.hit_line("odd \"point\":\n1;");
        coverage.register_branch("op:/:ok");
        coverage.hit_branch("err:Syntax");
        for sent in [Coverage::new(), coverage] {
            match parse_response(&encode_coverage(&sent)).unwrap() {
                Response::Coverage(back) => assert_eq!(back, sent),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn garbage_is_a_decode_error_not_a_panic() {
        for garbage in [
            &b"RES "[..],
            b"RES C1:",
            b"RES Cbanana:",
            b"RES C0:R1:1:F00;A0;",
            b"ERR Banana 2:xx",
            b"WHAT",
            b"RES C0:R0:A0;junk",
            b"COV ",
            b"COV L1:",
            b"COV L1:2:x",
            b"COV L1:x1:aB0:",
            b"COV L0:",
            b"COV B0:L0:",
            b"COV L0:B0:junk",
            b"COV L18446744073709551616:B0:",
        ] {
            assert!(parse_response(garbage).is_err(), "{garbage:?}");
        }
    }
}
