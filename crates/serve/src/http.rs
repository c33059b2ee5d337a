//! A minimal HTTP/1.1 reader/writer over `std::io`.
//!
//! The service speaks exactly the slice of HTTP/1.1 that `curl` and the
//! in-process test client need: a request line, headers (only
//! `Content-Length` and `Connection` are interpreted), an optional
//! body, and a fixed-layout response. Connections are persistent by
//! HTTP/1.1 default — [`Request::keep_alive`] reports whether the peer
//! wants another exchange (`Connection: close` opts out; HTTP/1.0
//! defaults to close unless `Connection: keep-alive`), and
//! [`write_response`] echoes the decision so the peer always knows the
//! connection's fate. Every limit is explicit so a malformed or
//! hostile peer gets a clean 4xx instead of an unbounded read: request
//! lines and header lines are capped at [`MAX_LINE`] bytes, header
//! count at [`MAX_HEADERS`], bodies at [`MAX_BODY`].
//!
//! A cache hit runs through here twice, so neither direction copies
//! more than it must. [`read_request`] finds each line in the reader's
//! own buffer (`fill_buf`, then `consume` up to and including the LF,
//! never past it, so pipelined requests still parse from the same
//! reader) and copies it once into one line buffer that every header
//! line of the request reuses. [`percent_decode`] and [`query_params`]
//! borrow from the query string and allocate only for a `%` or `+`.
//! [`write_response`] formats the head straight into its sink: the
//! server passes one buffer per connection and sends each response with
//! one write. `tests/http_reader.rs` holds the reader to the
//! byte-at-a-time reference it replaced.

use std::borrow::Cow;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Longest accepted request or header line, bytes (counting a CR, not
/// the LF).
pub const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, bytes (spec files are ~1 KiB).
pub const MAX_BODY: usize = 1024 * 1024;

/// Why a request could not be parsed, each with its HTTP status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The connection closed before a full request arrived.
    ConnectionClosed,
    /// The request line is not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine(String),
    /// A header line has no `:` separator.
    BadHeader,
    /// The request or a header line exceeds [`MAX_LINE`].
    LineTooLong,
    /// More than [`MAX_HEADERS`] header lines.
    TooManyHeaders,
    /// `Content-Length` is not a decimal byte count.
    BadLength(String),
    /// `Content-Length` exceeds [`MAX_BODY`].
    BodyTooLarge(usize),
    /// The protocol is not HTTP/1.0 or HTTP/1.1.
    BadVersion(String),
    /// Transport error mid-request.
    Io(io::ErrorKind),
}

impl ParseError {
    /// The HTTP status this parse failure answers with.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::BodyTooLarge(_) => 413,
            ParseError::BadVersion(_) => 505,
            _ => 400,
        }
    }

    /// A short machine-readable error code for the JSON error body.
    pub fn code(&self) -> &'static str {
        match self {
            ParseError::ConnectionClosed => "connection_closed",
            ParseError::BadRequestLine(_) => "bad_request_line",
            ParseError::BadHeader => "bad_header",
            ParseError::LineTooLong => "line_too_long",
            ParseError::TooManyHeaders => "too_many_headers",
            ParseError::BadLength(_) => "bad_content_length",
            ParseError::BodyTooLarge(_) => "body_too_large",
            ParseError::BadVersion(_) => "http_version_not_supported",
            ParseError::Io(_) => "io",
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::ConnectionClosed => write!(f, "connection closed before a full request"),
            ParseError::BadRequestLine(line) => write!(f, "malformed request line: {line:?}"),
            ParseError::BadHeader => write!(f, "malformed header line"),
            ParseError::LineTooLong => write!(f, "request or header line exceeds {MAX_LINE} bytes"),
            ParseError::TooManyHeaders => write!(f, "more than {MAX_HEADERS} headers"),
            ParseError::BadLength(msg) => write!(f, "{msg}"),
            ParseError::BodyTooLarge(n) => write!(
                f,
                "Content-Length {n} exceeds the {MAX_BODY}-byte body limit"
            ),
            ParseError::BadVersion(v) => write!(f, "unsupported protocol {v:?}"),
            ParseError::Io(kind) => write!(f, "transport error: {kind:?}"),
        }
    }
}

/// One parsed request: method, percent-decoded path, raw query string
/// (still encoded — parameter splitting happens in [`query_params`]),
/// and body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `PUT`, `DELETE`, ...).
    pub method: String,
    /// Percent-decoded path, always starting with `/`.
    pub path: String,
    /// The query string after `?`, empty when absent.
    pub query: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the peer wants the connection kept open after the
    /// response: the HTTP/1.1 default unless `Connection: close`, the
    /// HTTP/1.0 exception under `Connection: keep-alive`.
    pub keep_alive: bool,
}

/// Reads one request from a buffered stream, enforcing every limit.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the violated rule; callers map it to
/// a 4xx/5xx via [`ParseError::status`].
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, ParseError> {
    let mut buf = Vec::with_capacity(256);
    let line = read_line(reader, &mut buf)?;
    // A blank line where the request line belongs is dropped, as an EOF
    // before the first byte is.
    if line.is_empty() {
        return Err(ParseError::ConnectionClosed);
    }
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ParseError::BadRequestLine(truncate(line, 120))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::BadVersion(truncate(version, 40)));
    }
    if !target.starts_with('/') {
        return Err(ParseError::BadRequestLine(truncate(line, 120)));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    // Copied out of the line buffer, which the header lines reuse.
    let method = method.to_string();
    let path = percent_decode(raw_path).into_owned();
    let query = raw_query.to_string();

    let mut content_length: usize = 0;
    let mut keep_alive = version == "HTTP/1.1";
    let mut headers = 0usize;
    loop {
        let header = read_line(reader, &mut buf)?;
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
            // A comma-separated option list; only the two standard
            // tokens matter. "close" wins over "keep-alive".
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
        method,
        path,
        query,
        body,
        keep_alive,
    })
}

/// Reads one LF-terminated line into `buf` and returns it without the
/// LF or a CR before it. An empty return is a blank line: at a header
/// line it ends the head.
///
/// The line is found in the reader's own buffer and consumed up to and
/// including its LF, never past it. EOF before the LF is
/// [`ParseError::ConnectionClosed`], whether it comes before the first
/// byte (the peer closed between requests) or after it (the peer cut a
/// request short; that request is dropped unanswered, as one with a
/// short body is). A line is refused once it holds more than
/// [`MAX_LINE`] bytes, with exactly one byte past the cap consumed.
fn read_line<'b>(reader: &mut impl BufRead, buf: &'b mut Vec<u8>) -> Result<&'b str, ParseError> {
    buf.clear();
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Io(e.kind())),
        };
        if available.is_empty() {
            return Err(ParseError::ConnectionClosed);
        }
        // The line may grow to one byte past the cap before it is
        // refused, so look no further than that for its LF.
        let window = &available[..available.len().min(MAX_LINE + 1 - buf.len())];
        if let Some(end) = window.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&window[..end]);
            reader.consume(end + 1);
            break;
        }
        let taken = window.len();
        buf.extend_from_slice(window);
        reader.consume(taken);
        if buf.len() > MAX_LINE {
            return Err(ParseError::LineTooLong);
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    std::str::from_utf8(buf).map_err(|_| ParseError::BadHeader)
}

/// Splits a raw query string into percent-decoded `(key, value)` pairs,
/// in wire order. Keys without `=` get an empty value. Each half
/// borrows from `query` unless it had something to decode.
pub fn query_params(query: &str) -> Vec<(Cow<'_, str>, Cow<'_, str>)> {
    let pairs = query.split('&').filter(|p| !p.is_empty());
    let mut params = Vec::with_capacity(pairs.clone().count());
    params.extend(pairs.map(|pair| match pair.split_once('=') {
        Some((k, v)) => (percent_decode(k), percent_decode(v)),
        None => (percent_decode(pair), Cow::Borrowed("")),
    }));
    params
}

/// Percent-decodes `%XX` escapes (two ASCII hex digits) and
/// `+`-as-space; malformed escapes pass through literally (the
/// route/param validators reject them). Borrows `s` when it holds
/// neither `%` nor `+`.
pub fn percent_decode(s: &str) -> Cow<'_, str> {
    if !s.bytes().any(|b| b == b'%' || b == b'+') {
        return Cow::Borrowed(s);
    }
    let hex = |b: u8| char::from(b).to_digit(16);
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                (Some(high), Some(low)) => {
                    out.push((high * 16 + low) as u8);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
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
    Cow::Owned(
        String::from_utf8(out)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
    )
}

/// Writes one complete response straight into `out`: status line, the
/// fixed header set (`Content-Type: application/json`,
/// `Content-Length`, `Connection: keep-alive` or `close` per
/// `keep_alive`), any extra headers (e.g. `X-Cache`), then the body.
/// It writes piece by piece, so give it a buffer and send the buffer in
/// one write, as the server does.
///
/// # Errors
///
/// Propagates the sink's errors.
pub fn write_response(
    out: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    let reason = reason_phrase(status);
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.write_all(b"\r\n")?;
    out.write_all(body.as_bytes())
}

/// The reason phrase for the statuses the service emits.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Truncates a string for inclusion in an error message.
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_plain_get() {
        let req =
            parse("GET /specs/v4/whatif?availability=0.992&trials=10 HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/specs/v4/whatif");
        assert_eq!(req.query, "availability=0.992&trials=10");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_put_with_body() {
        let req = parse("PUT /specs/x HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"\"}").unwrap();
        assert_eq!(req.method, "PUT");
        assert_eq!(req.body, b"{\"\"}");
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for raw in [
            "GET\r\n\r\n",
            "GET /x\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            " / HTTP/1.1\r\n\r\n",
            "GET nopath HTTP/1.1\r\n\r\n",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status(), 400, "{raw:?}: {err}");
        }
    }

    #[test]
    fn unsupported_versions_get_505() {
        let err = parse("GET / HTTP/2.0\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 505);
        assert_eq!(err.code(), "http_version_not_supported");
    }

    #[test]
    fn oversized_bodies_get_413() {
        let raw = format!(
            "PUT /specs/x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = parse(&raw).unwrap_err();
        assert_eq!(err.status(), 413);
        assert_eq!(err.code(), "body_too_large");
    }

    #[test]
    fn unparsable_content_length_is_400() {
        // Only a number past MAX_BODY is a 413, whatever words the
        // value holds.
        for value in ["nope", "exceeds"] {
            let raw = format!("PUT /specs/x HTTP/1.1\r\nContent-Length: {value}\r\n\r\n");
            let err = parse(&raw).unwrap_err();
            assert_eq!(err.status(), 400, "{value}");
            assert_eq!(err.code(), "bad_content_length", "{value}");
        }
    }

    #[test]
    fn oversized_request_line_is_400() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 10));
        let err = parse(&raw).unwrap_err();
        assert_eq!(err, ParseError::LineTooLong);
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn too_many_headers_is_400() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            raw.push_str(&format!("X-H{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert_eq!(parse(&raw).unwrap_err(), ParseError::TooManyHeaders);
    }

    #[test]
    fn truncated_request_is_connection_closed() {
        // Every cut: mid-line and at each line boundary of the head
        // (before the CR, between CR and LF, after the LF), and short
        // of the body's Content-Length.
        for raw in [
            "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            "PUT /specs/x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabcdefghij",
        ] {
            assert!(parse(raw).is_ok(), "{raw:?}");
            for end in 0..raw.len() {
                let cut = &raw[..end];
                assert_eq!(parse(cut), Err(ParseError::ConnectionClosed), "{cut:?}");
            }
        }
    }

    #[test]
    fn header_without_colon_is_400() {
        let err = parse("GET / HTTP/1.1\r\nnocolonhere\r\n\r\n").unwrap_err();
        assert_eq!(err, ParseError::BadHeader);
    }

    #[test]
    fn query_params_decode() {
        let params = query_params("a=1&b=hello%20world&flag&c=x%3Dy");
        assert_eq!(
            params,
            vec![
                ("a".into(), "1".into()),
                ("b".into(), "hello world".into()),
                ("flag".into(), "".into()),
                ("c".into(), "x=y".into()),
            ]
        );
    }

    #[test]
    fn percent_decoding_is_lenient_on_malformed_escapes() {
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("a%2Fb"), "a/b");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("%"), "%");
        // Only two hex digits make an escape: no sign is read as one.
        assert_eq!(percent_decode("%+1"), "% 1");
        assert_eq!(percent_decode("%-1"), "%-1");
        // Nothing to decode borrows.
        assert!(matches!(percent_decode("a/b"), Cow::Borrowed("a/b")));
    }

    #[test]
    fn responses_have_the_fixed_header_layout() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "{\"ok\":true}\n",
            false,
            &[("X-Cache", "hit")],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 12\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("X-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}\n"));
    }

    #[test]
    fn keep_alive_responses_say_so() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{}\n", true, &[]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Connection: close"));
    }

    #[test]
    fn connection_semantics_follow_version_and_header() {
        // HTTP/1.1 defaults to keep-alive; Connection: close opts out.
        assert!(parse("GET / HTTP/1.1\r\n\r\n").unwrap().keep_alive);
        assert!(
            !parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        // Case-insensitive, tolerant of option lists; close wins.
        assert!(
            !parse("GET / HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        // HTTP/1.0 defaults to close; keep-alive opts in.
        assert!(!parse("GET / HTTP/1.0\r\n\r\n").unwrap().keep_alive);
        assert!(
            parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                .unwrap()
                .keep_alive
        );
    }
}
