//! The HTTP request reader held to the byte-at-a-time reader it
//! replaced, in the style of `crates/spec/tests/malformed_specs.rs`.
//!
//! [`reference`] is that reader, with the two fixes the library made
//! alongside it: an oversized `Content-Length` is its own error
//! (`BodyTooLarge`), and a `%XX` escape decodes only two hex digits. So
//! those fixes are the only change in behaviour, and everything else —
//! every result, every error, and where the stream is left — must
//! match. Each input is read as a pipelined stream under every reader
//! shape: reads of 1, 2, 3, 7 and 64 bytes under `BufReader`
//! capacities 1, 2, 7, 64 and 8192, each also with a hostile stream
//! that interrupts every other read and ends in a reset instead of EOF.

use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;
use tpu_serve::http::{read_request, ParseError, Request, MAX_BODY, MAX_HEADERS, MAX_LINE};

/// The reader as it was before it read lines in place: one `read` call
/// per byte.
mod reference {
    use super::*;

    pub fn read_request(reader: &mut impl BufRead) -> Result<Request, ParseError> {
        let line = read_line(reader)?;
        if line.is_empty() {
            return Err(ParseError::ConnectionClosed);
        }
        let mut parts = line.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
                _ => return Err(ParseError::BadRequestLine(truncate(&line, 120))),
            };
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(ParseError::BadVersion(truncate(version, 40)));
        }
        if !target.starts_with('/') {
            return Err(ParseError::BadRequestLine(truncate(&line, 120)));
        }
        let (raw_path, raw_query) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };

        let mut content_length: usize = 0;
        let mut keep_alive = version == "HTTP/1.1";
        let mut headers = 0usize;
        loop {
            let header = read_line(reader)?;
            if header.is_empty() {
                break;
            }
            headers += 1;
            if headers > MAX_HEADERS {
                return Err(ParseError::TooManyHeaders);
            }
            let (name, value) = header.split_once(':').ok_or(ParseError::BadHeader)?;
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let n: usize = value.trim().parse().map_err(|_| {
                    ParseError::BadLength(format!("unparsable Content-Length {value:?}"))
                })?;
                if n > MAX_BODY {
                    return Err(ParseError::BodyTooLarge(n));
                }
                content_length = n;
            } else if name.eq_ignore_ascii_case("connection") {
                let mut wants_close = false;
                let mut wants_keep = false;
                for token in value.split(',') {
                    let token = token.trim();
                    wants_close |= token.eq_ignore_ascii_case("close");
                    wants_keep |= token.eq_ignore_ascii_case("keep-alive");
                }
                if wants_close {
                    keep_alive = false;
                } else if wants_keep {
                    keep_alive = true;
                }
            }
        }

        let mut body = vec![0u8; content_length];
        if content_length > 0 {
            io::Read::read_exact(reader, &mut body).map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => ParseError::ConnectionClosed,
                kind => ParseError::Io(kind),
            })?;
        }

        Ok(Request {
            method: method.to_string(),
            path: percent_decode(raw_path),
            query: raw_query.to_string(),
            body,
            keep_alive,
        })
    }

    fn read_line(reader: &mut impl BufRead) -> Result<String, ParseError> {
        let mut buf = Vec::with_capacity(128);
        loop {
            let mut byte = [0u8; 1];
            match io::Read::read(reader, &mut byte) {
                Ok(0) => break,
                Ok(_) => {
                    if byte[0] == b'\n' {
                        break;
                    }
                    buf.push(byte[0]);
                    if buf.len() > MAX_LINE {
                        return Err(ParseError::LineTooLong);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ParseError::Io(e.kind())),
            }
        }
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        String::from_utf8(buf).map_err(|_| ParseError::BadHeader)
    }

    fn percent_decode(s: &str) -> String {
        let bytes = s.as_bytes();
        let mut out = Vec::with_capacity(bytes.len());
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'%' if i + 2 < bytes.len() => {
                    let decoded = std::str::from_utf8(&bytes[i + 1..i + 3])
                        .ok()
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| u8::from_str_radix(hex, 16).ok());
                    match decoded {
                        Some(b) => {
                            out.push(b);
                            i += 3;
                        }
                        None => {
                            out.push(b'%');
                            i += 1;
                        }
                    }
                }
                b'+' => {
                    out.push(b' ');
                    i += 1;
                }
                b => {
                    out.push(b);
                    i += 1;
                }
            }
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    fn truncate(s: &str, max: usize) -> String {
        if s.len() <= max {
            s.to_string()
        } else {
            let mut end = max;
            while !s.is_char_boundary(end) {
                end -= 1;
            }
            format!("{}…", &s[..end])
        }
    }
}

const CHUNKS: [usize; 5] = [1, 2, 3, 7, 64];
const CAPACITIES: [usize; 5] = [1, 2, 7, 64, 8192];
/// Most requests read from one stream.
const PIPELINE_DEPTH: usize = 4;

/// A stream that returns at most `chunk` bytes per read. A hostile one
/// also fails every other read with `Interrupted` and ends in a
/// connection reset instead of EOF.
struct Feed<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
    hostile: bool,
    reads: u64,
}

impl Read for Feed<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        if self.hostile && self.reads.is_multiple_of(2) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let n = self.chunk.min(out.len()).min(self.data.len() - self.pos);
        if n == 0 && self.hostile && !out.is_empty() {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// One parse's result and the stream offset it left the reader at.
type Parsed = (Result<Request, ParseError>, usize);

/// Reads requests from `input` until the first error, at most
/// [`PIPELINE_DEPTH`] of them.
fn parse_stream(
    input: &[u8],
    chunk: usize,
    capacity: usize,
    hostile: bool,
    parse: impl Fn(&mut BufReader<Feed<'_>>) -> Result<Request, ParseError>,
) -> Vec<Parsed> {
    let feed = Feed {
        data: input,
        pos: 0,
        chunk,
        hostile,
        reads: 0,
    };
    let mut reader = BufReader::with_capacity(capacity, feed);
    let mut parsed = Vec::new();
    for _ in 0..PIPELINE_DEPTH {
        let result = parse(&mut reader);
        let at = reader.get_ref().pos - reader.buffer().len();
        let failed = result.is_err();
        parsed.push((result, at));
        if failed {
            break;
        }
    }
    parsed
}

/// Requires the library and the reference to read `input` alike under
/// every reader shape; returns what they read from a plain stream and
/// from a hostile one.
fn assert_reads_as_reference(input: &[u8]) -> [Vec<Parsed>; 2] {
    let mut seen = [Vec::new(), Vec::new()];
    for hostile in [false, true] {
        for chunk in CHUNKS {
            for capacity in CAPACITIES {
                let got = parse_stream(input, chunk, capacity, hostile, |r| read_request(r));
                let want = parse_stream(input, chunk, capacity, hostile, |r| {
                    reference::read_request(r)
                });
                assert_eq!(
                    got,
                    want,
                    "{:?} ({} bytes), reads of {chunk}, capacity {capacity}, hostile {hostile}",
                    String::from_utf8_lossy(&input[..input.len().min(120)]),
                    input.len(),
                );
                seen[usize::from(hostile)] = want;
            }
        }
    }
    seen
}

/// A request as curl sends it to the smoke script's server.
fn curl_get(target: &str) -> Vec<u8> {
    format!(
        "GET {target} HTTP/1.1\r\nHost: 127.0.0.1:17471\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n\r\n"
    )
    .into_bytes()
}

/// Every request `scripts/service_smoke.sh` sends, for every committed
/// spec.
fn smoke_requests() -> Vec<Vec<u8>> {
    let query = "availability=0.992&trials=120&seed=7";
    let fleet = "horizon_days=0.25&trials=1";
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("specs dir")
        .filter_map(|e| {
            let path = e.expect("dir entry").path();
            let stem = path.file_stem()?.to_str()?.to_string();
            path.extension()
                .is_some_and(|x| x == "json")
                .then_some(stem)
        })
        .collect();
    names.sort();
    assert!(names.len() >= 9, "expected the committed specs");
    let mut targets = vec!["/healthz".to_string()];
    for name in &names {
        targets.push(format!("/specs/{name}"));
        targets.push(format!("/specs/{name}/whatif?{query}"));
        targets.push(format!("/specs/{name}/whatif?{query}&fabric=static"));
        targets.push(format!("/specs/{name}/collective?op=all_reduce"));
        targets.push(format!("/specs/{name}/collective?op=all_to_all"));
        targets.push(format!("/specs/{name}/fleet?{fleet}"));
        targets.push(format!("/specs/{name}/fleet?{fleet}&fabric=static"));
    }
    targets.push(format!(
        "/specs/{}/whatif/sweep?availability=0.99,0.992&slice_chips=1024,2048&trials=120&seed=7",
        names[0]
    ));
    targets.iter().map(|t| curl_get(t)).collect()
}

fn put_with_body() -> Vec<u8> {
    let body = "{\"generation\":\"v4\",\"fleet_chips\":4096}";
    format!(
        "PUT /specs/mine HTTP/1.1\r\nHost: 127.0.0.1:17471\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One request for each `ParseError` kind, with its code. The `io`
/// one stops mid-line, where a hostile stream resets.
fn error_requests() -> Vec<(&'static str, Vec<u8>)> {
    let mut many_headers = String::from("GET / HTTP/1.1\r\n");
    for i in 0..=MAX_HEADERS {
        many_headers.push_str(&format!("X-H{i}: v\r\n"));
    }
    many_headers.push_str("\r\n");
    let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE));
    [
        ("connection_closed", b"\r\n".to_vec()),
        (
            "connection_closed",
            b"PUT /specs/x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc".to_vec(),
        ),
        ("bad_request_line", b"GET /x\r\n\r\n".to_vec()),
        ("bad_request_line", b"GET nopath HTTP/1.1\r\n\r\n".to_vec()),
        (
            "bad_header",
            b"GET / HTTP/1.1\r\nnocolonhere\r\n\r\n".to_vec(),
        ),
        ("bad_header", b"GET /\xff HTTP/1.1\r\n\r\n".to_vec()),
        ("line_too_long", long.into_bytes()),
        ("too_many_headers", many_headers.into_bytes()),
        (
            "bad_content_length",
            b"PUT /x HTTP/1.1\r\nContent-Length: exceeds\r\n\r\n".to_vec(),
        ),
        (
            "body_too_large",
            format!(
                "PUT /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY + 1
            )
            .into_bytes(),
        ),
        (
            "http_version_not_supported",
            b"GET / HTTP/2.0\r\n\r\n".to_vec(),
        ),
        ("io", b"GET /healthz HTTP/1.1\r\nHost: x".to_vec()),
    ]
    .into()
}

/// The small inputs every truncation and substitution starts from.
fn corpus() -> Vec<Vec<u8>> {
    let mut corpus = smoke_requests();
    corpus.push(put_with_body());
    corpus.extend(
        error_requests()
            .into_iter()
            .filter(|(code, _)| *code != "line_too_long")
            .map(|(_, input)| input),
    );
    corpus
}

#[test]
fn smoke_requests_read_as_the_reference_reads_them() {
    for input in smoke_requests() {
        let [plain, _] = assert_reads_as_reference(&input);
        assert!(plain[0].0.is_ok(), "{:?}", String::from_utf8_lossy(&input));
    }
    let [plain, _] = assert_reads_as_reference(&put_with_body());
    let put = plain[0].0.as_ref().unwrap();
    assert_eq!(put.body.len(), 38);
}

#[test]
fn each_parse_error_kind_reads_as_the_reference_reads_it() {
    let mut codes = Vec::new();
    for (code, input) in error_requests() {
        let [plain, hostile] = assert_reads_as_reference(&input);
        let stream = if code == "io" { hostile } else { plain };
        let last = &stream.last().unwrap().0;
        assert_eq!(last.as_ref().map_err(ParseError::code).err(), Some(code));
        codes.push(code);
    }
    // One request for each of the nine kinds, the io one included.
    codes.dedup();
    assert_eq!(codes.len(), 9);
}

#[test]
fn every_truncation_reads_as_the_reference_reads_it() {
    for input in corpus() {
        for end in 0..input.len() {
            assert_reads_as_reference(&input[..end]);
        }
    }
}

/// SplitMix64, so the substitutions are the same on every run.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn byte_substitutions_read_as_the_reference_reads_them() {
    // Bytes that frame, split or decode, plus one drawn at random.
    let poisons = [
        b'\r', b'\n', b' ', b':', b',', b'?', b'/', b'%', b'+', b'0', b'9', 0x00, 0xff,
    ];
    let mut state = 0x5eed_u64;
    for input in corpus() {
        for _ in 0..48 {
            let mut mutated = input.clone();
            for _ in 0..=(splitmix(&mut state) % 3) {
                let at = (splitmix(&mut state) % mutated.len() as u64) as usize;
                let pick = splitmix(&mut state);
                mutated[at] = poisons
                    .get((pick % 16) as usize)
                    .copied()
                    .unwrap_or((pick >> 8) as u8);
            }
            assert_reads_as_reference(&mutated);
        }
    }
}

#[test]
fn lines_at_and_past_the_cap_read_as_the_reference_reads_them() {
    let next = b"GET /healthz HTTP/1.1\r\n\r\n";
    for len in [MAX_LINE, MAX_LINE + 1] {
        for cr in ["", "\r"] {
            // A request line and a header line of `len` bytes, counting
            // the CR, each followed by a pipelined request.
            let request_pad = len - "GET / HTTP/1.1".len() - cr.len();
            let header_pad = len - "X-Pad: ".len() - cr.len();
            for mut input in [
                format!("GET /{} HTTP/1.1{cr}\n\r\n", "a".repeat(request_pad)),
                format!(
                    "GET / HTTP/1.1\r\nX-Pad: {}{cr}\n\r\n",
                    "a".repeat(header_pad)
                ),
            ]
            .map(String::into_bytes)
            {
                input.extend_from_slice(next);
                let [plain, _] = assert_reads_as_reference(&input);
                let results: Vec<_> = plain.into_iter().map(|(result, _)| result).collect();
                if len == MAX_LINE {
                    assert!(results[0].is_ok() && results[1].is_ok(), "{len} {cr:?}");
                    assert_eq!(results[2], Err(ParseError::ConnectionClosed));
                } else {
                    assert_eq!(results, [Err(ParseError::LineTooLong)], "{len} {cr:?}");
                }
            }
        }
    }
}

#[test]
fn pipelined_requests_read_as_the_reference_reads_them() {
    let smoke = smoke_requests();
    let put = put_with_body();
    let bare = b"GET /stats HTTP/1.0\nConnection: keep-alive\n\n".to_vec();
    let bad = b"GET / HTTP/1.1\r\nnocolonhere\r\n\r\n".to_vec();
    // Each stream with the number of requests in it that parse.
    let streams: [(Vec<&[u8]>, usize); 5] = [
        (vec![&smoke[0], &smoke[2]], 2),
        (vec![&put, &smoke[1]], 2),
        (vec![&smoke[3], &put, &smoke[4]], 3),
        (vec![&bare, &put, &bare], 3),
        (vec![&smoke[5], &bad, &smoke[6]], 1),
    ];
    for (parts, parsed) in streams {
        let [plain, _] = assert_reads_as_reference(&parts.concat());
        // Each request is read up to exactly where the next begins.
        let ends: Vec<usize> = parts
            .iter()
            .scan(0, |end, part| {
                *end += part.len();
                Some(*end)
            })
            .take(parsed)
            .collect();
        let read: Vec<usize> = plain.iter().take(parsed).map(|(_, at)| *at).collect();
        assert_eq!(read, ends);
        assert!(plain[..parsed].iter().all(|(result, _)| result.is_ok()));
        assert!(plain[parsed].0.is_err());
        for input in truncations_near_boundaries(&parts) {
            assert_reads_as_reference(&input);
        }
    }
}

/// The stream cut a few bytes either side of each boundary between
/// requests.
fn truncations_near_boundaries(parts: &[&[u8]]) -> Vec<Vec<u8>> {
    let input = parts.concat();
    let mut boundary = 0;
    let mut cuts = Vec::new();
    for part in parts {
        boundary += part.len();
        for end in boundary.saturating_sub(4)..(boundary + 4).min(input.len()) {
            cuts.push(input[..end].to_vec());
        }
    }
    cuts
}
