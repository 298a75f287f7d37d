//! `explain`: render the decision provenance of one outage event — the
//! belief trajectory, expectation shape, and open/close context that
//! made the detector fire.
//!
//! Two sources, one record format:
//!
//! * an evidence document written by `detect --evidence-out` (JSONL,
//!   one record per line), or
//! * a live serve daemon, via `GET /events/{id}/explain`.
//!
//! Both yield byte-identical JSON for the same event, because every
//! surface renders [`outage_core::EventEvidence::to_json`].

use super::CommandError;
use outage_obs::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Render one event's evidence from a JSONL evidence document. With
/// `json` the raw record line is returned; otherwise a human-readable
/// report. Unknown ids list what the document does contain.
pub fn explain(evidence_doc: &str, id: &str, json: bool) -> Result<String, CommandError> {
    let mut available = Vec::new();
    for (lineno, line) in evidence_doc.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = Value::parse(line)
            .map_err(|e| CommandError(format!("evidence line {}: {e}", lineno + 1)))?;
        let rec_id = v
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| CommandError(format!("evidence line {}: no \"id\"", lineno + 1)))?;
        if rec_id == id {
            return Ok(if json {
                format!("{v}\n")
            } else {
                explain_pretty(&v)
            });
        }
        available.push(rec_id.to_string());
    }
    Err(unknown_id(id, &available))
}

/// Render one event's evidence fetched from a live serve daemon at
/// `base_url` (e.g. `http://127.0.0.1:7700`).
pub fn explain_live(base_url: &str, id: &str, json: bool) -> Result<String, CommandError> {
    let body = http_get(base_url, &format!("/events/{id}/explain"))?;
    let v = Value::parse(&body)
        .map_err(|e| CommandError(format!("explain response from {base_url}: {e}")))?;
    Ok(if json {
        format!("{v}\n")
    } else {
        explain_pretty(&v)
    })
}

fn unknown_id(id: &str, available: &[String]) -> CommandError {
    if available.is_empty() {
        return CommandError(format!(
            "no evidence for event {id:?}: the document is empty \
             (was the run's evidence tier off, or the unit not sampled?)"
        ));
    }
    let shown = available.len().min(10);
    CommandError(format!(
        "no evidence for event {id:?}; the document has {} records, e.g.:\n  {}",
        available.len(),
        available[..shown].join("\n  ")
    ))
}

/// One bounded HTTP/1.1 GET, mirroring the webhook transport: connect,
/// write the request, read to EOF (the server closes per request).
fn http_get(base_url: &str, path: &str) -> Result<String, CommandError> {
    let hostport = base_url
        .strip_prefix("http://")
        .ok_or_else(|| CommandError(format!("--url must be http://HOST:PORT, got {base_url:?}")))?
        .trim_end_matches('/');
    let mut stream = TcpStream::connect(hostport)
        .map_err(|e| CommandError(format!("connecting {hostport}: {e}")))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(5))))
        .map_err(|e| CommandError(format!("socket setup: {e}")))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {hostport}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| CommandError(format!("sending request: {e}")))?;
    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .map_err(|e| CommandError(format!("reading response: {e}")))?;
    let (status, body) = parse_reply(&reply)
        .map_err(|e| CommandError(format!("response from {hostport}: {}", e.0)))?;
    if status != 200 {
        return Err(CommandError(format!(
            "{hostport} returned {status}: {}",
            body.trim()
        )));
    }
    Ok(body.to_string())
}

/// Split a whole HTTP/1.x reply into its status code and body. The
/// status line must read `HTTP/1.<minor> <code>` with a code of 100-599;
/// the body is everything after the first blank line (so a body holding
/// `\r\n\r\n` comes back whole) and must be UTF-8.
fn parse_reply(reply: &[u8]) -> Result<(u16, &str), CommandError> {
    let malformed = |what: &str| Err(CommandError(format!("malformed reply: {what}")));
    let Some(head_len) = reply.windows(4).position(|w| w == b"\r\n\r\n") else {
        return malformed("no blank line after the headers");
    };
    let Some(rest) = reply[..head_len].strip_prefix(b"HTTP/1.") else {
        return malformed("status line does not start with HTTP/1.");
    };
    let status = match rest {
        [minor, b' ', code @ ..] if minor.is_ascii_digit() => {
            let code = code
                .split(|&b| b == b' ' || b == b'\r')
                .next()
                .unwrap_or_default();
            match code {
                [a @ b'1'..=b'5', b, c] if b.is_ascii_digit() && c.is_ascii_digit() => {
                    u16::from(a - b'0') * 100 + u16::from(b - b'0') * 10 + u16::from(c - b'0')
                }
                _ => return malformed("status code is not 100-599"),
            }
        }
        _ => return malformed("bad status line"),
    };
    match std::str::from_utf8(&reply[head_len + 4..]) {
        Ok(body) => Ok((status, body)),
        Err(_) => malformed("body is not UTF-8"),
    }
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn int(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn opt_time(v: &Value, key: &str) -> String {
    match v.get(key).and_then(Value::as_u64) {
        Some(t) => format!("t={t}"),
        None => "none".to_string(),
    }
}

/// Human rendering of one evidence record.
fn explain_pretty(v: &Value) -> String {
    let mut out = String::new();
    let id = v.get("id").and_then(Value::as_str).unwrap_or("?");
    out.push_str(&format!("event {id}\n"));
    out.push_str(&format!(
        "  interval    {} .. {}  ({} s){}\n",
        int(v, "start"),
        int(v, "end"),
        int(v, "duration_secs"),
        if v.get("censored").and_then(Value::as_bool) == Some(true) {
            "  [censored: ran into the window end]"
        } else {
            ""
        },
    ));
    out.push_str(&format!(
        "  verdict     confidence {:.3}, opened by the {} path, bin width {} s\n",
        num(v, "confidence"),
        v.get("trigger").and_then(Value::as_str).unwrap_or("?"),
        int(v, "bin_width_secs"),
    ));
    out.push_str(&format!(
        "  belief      {:.4} at open, {:.4} at the deepest point\n",
        num(v, "belief_at_open"),
        num(v, "min_belief"),
    ));
    out.push_str(&format!(
        "  arrivals    last before: {}, first after: {}\n",
        opt_time(v, "last_arrival_before"),
        opt_time(v, "first_arrival_after"),
    ));
    let quarantined = int(v, "quarantined_secs");
    out.push_str(&format!(
        "  provenance  {} raw detection(s) merged, {} s quarantined\n",
        int(v, "merged"),
        quarantined,
    ));
    if quarantined > 0 {
        out.push_str("              (part of this span overlapped a sensor fault)\n");
    }
    let trajectory = v.get("trajectory").and_then(Value::as_arr).unwrap_or(&[]);
    if trajectory.is_empty() {
        out.push_str("  trajectory  (no closed bins before open: gap-path event)\n");
    } else {
        out.push_str(&format!(
            "  trajectory  last {} closed bins before open (oldest first):\n",
            trajectory.len()
        ));
        out.push_str("              bin start    arrivals   expected   belief\n");
        for s in trajectory {
            out.push_str(&format!(
                "              {:>9}   {:>8}   {:>8.2}   {:.4}\n",
                int(s, "bin_start"),
                int(s, "arrivals"),
                num(s, "expected"),
                num(s, "belief"),
            ));
        }
    }
    if let Some(shape) = v.get("shape").and_then(Value::as_arr) {
        let mults: Vec<String> = shape
            .iter()
            .map(|m| format!("{:.2}", m.as_f64().unwrap_or(f64::NAN)))
            .collect();
        out.push_str(&format!(
            "  shape       hour-of-day multipliers: {}\n",
            mults.join(" ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::{detect_with, DetectOptions};
    use outage_core::EvidenceConfig;
    use outage_types::{Observation, Prefix, UnixTime};

    fn obs_doc() -> String {
        let block: Prefix = "192.0.2.0/24".parse().unwrap();
        let obs: Vec<Observation> = (0..86_400u64)
            .step_by(10)
            .filter(|t| !(30_000..37_200).contains(t))
            .map(|t| Observation::new(UnixTime(t), block))
            .collect();
        crate::format::render_observations(&obs)
    }

    fn evidence_doc() -> String {
        let out = detect_with(
            &obs_doc(),
            &DetectOptions {
                evidence: EvidenceConfig::Full,
                ..DetectOptions::default()
            },
        )
        .unwrap();
        out.evidence.expect("full tier emits a document")
    }

    #[test]
    fn explains_a_detected_event_from_the_document() {
        let doc = evidence_doc();
        let first = Value::parse(doc.lines().next().unwrap()).unwrap();
        let id = first.get("id").unwrap().as_str().unwrap().to_string();
        assert!(id.starts_with("192.0.2.0/24@"), "{id}");

        let pretty = explain(&doc, &id, false).unwrap();
        assert!(pretty.contains(&format!("event {id}")), "{pretty}");
        assert!(pretty.contains("trajectory"), "{pretty}");
        assert!(pretty.contains("belief"), "{pretty}");

        // --json returns the record line verbatim
        let json = explain(&doc, &id, true).unwrap();
        assert_eq!(json.trim_end(), doc.lines().next().unwrap());
    }

    #[test]
    fn unknown_id_lists_what_exists() {
        let doc = evidence_doc();
        let err = explain(&doc, "10.0.0.0/8@1", false).unwrap_err();
        assert!(err.0.contains("192.0.2.0/24@"), "{}", err.0);
    }

    fn reply(status: &str, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn reply_body_is_everything_after_the_first_blank_line() {
        let body = "{\"a\":1}\r\n\r\n{\"b\":2}\r\n\r\n";
        let r = reply("200 OK", body);
        assert_eq!(parse_reply(&r).unwrap(), (200, body));
        assert_eq!(parse_reply(b"HTTP/1.0 404\r\n\r\n").unwrap(), (404, ""));
        let mut latin1 = reply("200 OK", "caf");
        latin1.push(0xe9);
        assert!(parse_reply(&latin1).unwrap_err().0.contains("UTF-8"));
        for bad in [
            &b"HTTP/2 200 OK\r\n\r\n"[..],
            b"HTTP/1.1 20 OK\r\n\r\n",
            b"HTTP/1.1 2000\r\n\r\n",
            b"HTTP/1.1 000 OK\r\n\r\n",
        ] {
            assert!(
                parse_reply(bad).is_err(),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    /// Every truncation and every single-bit flip of a 200 and a 404
    /// reply: a typed result and never a panic. A cut inside the head is
    /// an error; a cut in the body returns the body up to the cut; a flip
    /// in the body returns the flipped body or, when it leaves ASCII, a
    /// UTF-8 error.
    #[test]
    fn every_truncation_and_bit_flip_of_a_reply_is_total() {
        let (mut ok, mut err) = (0, 0);
        for (status, code, body) in [
            ("200 OK", 200, r#"{"id":"192.0.2.0/24@30010","merged":1}"#),
            ("404 Not Found", 404, "no evidence for event 10.0.0.0/8@99"),
        ] {
            let r = reply(status, body);
            let head_len = r.len() - body.len();
            assert_eq!(parse_reply(&r).unwrap(), (code, body));
            for cut in 0..=r.len() {
                match parse_reply(&r[..cut]) {
                    Ok(got) => {
                        assert!(cut >= head_len, "cut {cut} inside the head parsed");
                        assert_eq!(got, (code, &body[..cut - head_len]));
                        ok += 1;
                    }
                    Err(_) => {
                        assert!(cut < head_len, "cut {cut} in the body failed");
                        err += 1;
                    }
                }
            }
            for byte in 0..r.len() {
                for bit in 0..8 {
                    let mut m = r.clone();
                    m[byte] ^= 1 << bit;
                    let got = parse_reply(&m);
                    if byte >= head_len {
                        let flipped = std::str::from_utf8(&m[head_len..]);
                        assert_eq!(
                            got.as_ref().ok(),
                            flipped.ok().map(|b| (code, b)).as_ref(),
                            "byte {byte} bit {bit}"
                        );
                    }
                    match got {
                        Ok((c, _)) => {
                            assert!((100..=599).contains(&c), "status {c}");
                            ok += 1;
                        }
                        Err(_) => err += 1,
                    }
                }
            }
        }
        assert!(ok > 0 && err > 0, "{ok} ok, {err} errors");
    }

    #[test]
    fn off_tier_has_no_document() {
        let out = detect_with(&obs_doc(), &DetectOptions::default()).unwrap();
        assert!(out.evidence.is_none());
        let err = explain("", "192.0.2.0/24@30010", false).unwrap_err();
        assert!(err.0.contains("empty"), "{}", err.0);
    }
}
